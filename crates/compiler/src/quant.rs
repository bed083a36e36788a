//! Symmetric per-filter INT8 weight quantization over FKW storage.
//!
//! PatDNN's compact FKW format (§5.3) is designed to pair pattern
//! pruning with reduced-precision weights: the five index arrays are
//! precision-independent, so swapping the `f32` weight payload for
//! `i8` keeps the whole executor structure — reorder, pattern runs,
//! per-kernel index — unchanged while quartering weight traffic.
//!
//! The scheme is the standard symmetric one:
//!
//! - **Weights** are quantized *per filter* (per output channel): each
//!   filter's stored weights map to `i8` via `q = round(w / s_f)` with
//!   `s_f = max|w| / 127` over that filter, so a filter with small
//!   weights does not waste range on a loud neighbor.
//! - **Activations** use a single per-layer scale calibrated offline
//!   from a sample batch ([`patdnn_nn::calibrate`] exports the ranges);
//!   the executor quantizes its input with that persisted scale at run
//!   time.
//! - Accumulation is exact `i8 × i8 → i32`; the output dequantizes with
//!   one multiply per element (`acc · s_act · s_f`), and biases stay
//!   `f32`, added after dequantization.

use crate::fkw::FkwLayer;
use patdnn_core::pattern::Pattern;

/// The symmetric INT8 quantization range: values map to `[-127, 127]`
/// (the `-128` code is unused, keeping the scheme exactly symmetric).
pub const QMAX: f32 = 127.0;

/// The scale mapping a symmetric `f32` range to `[-127, 127]`.
///
/// A degenerate range (all-zero or non-finite input) gets a scale of 1,
/// which quantizes every value in it to 0 — the only representable
/// answer anyway — instead of producing NaN scales.
pub fn scale_for(max_abs: f32) -> f32 {
    if max_abs.is_finite() && max_abs > 0.0 {
        max_abs / QMAX
    } else {
        1.0
    }
}

/// Largest absolute value of a slice (0 for an empty slice).
pub fn max_abs(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Quantizes one value: round-to-nearest, clamped to the symmetric range.
///
/// Internally multiplies by the reciprocal scale (matching the hot-path
/// slice quantizer bit for bit) and rounds ties to even; see
/// [`quantize_with_inv_i16`].
#[inline]
pub fn quantize_value(x: f32, scale: f32) -> i8 {
    quantize_with_inv(x, 1.0 / scale)
}

#[inline]
fn quantize_with_inv(x: f32, inv: f32) -> i8 {
    quantize_with_inv_i16(x, inv) as i8
}

/// [`quantize_value`] by a precomputed reciprocal scale (the division
/// hoisted out of the caller's loop), in an `i16` lane: the form the
/// INT8 tile's staged image stores, and the one implementation behind
/// every quantizer here.
///
/// Rounds to nearest, ties to even, via the classic 1.5·2²³ bias: for
/// any |v| ≤ 127 the addition pushes the value into the float range
/// where the mantissa step is exactly 1, so the hardware's add rounds
/// it — and there consecutive floats are consecutive integers in bit
/// pattern too, so the integer is read out of the mantissa with one
/// subtraction instead of a float-to-int cast. Clamping first keeps the
/// trick's precondition and saturates out-of-range inputs; NaN
/// quantizes to 0. Everything is plain mul/min/max/add/sub arithmetic,
/// so the loop vectorizes on baseline targets.
#[inline]
pub fn quantize_with_inv_i16(x: f32, inv: f32) -> i16 {
    const BIAS: f32 = 12_582_912.0;
    let v = x * inv;
    let v = if v.is_nan() {
        0.0
    } else {
        v.clamp(-QMAX, QMAX)
    };
    ((v + BIAS).to_bits() as i32 - BIAS.to_bits() as i32) as i16
}

/// Quantizes a slice into a caller-provided buffer of equal length.
/// This is the executors' per-inference input path: one multiply, one
/// rounding op, and one clamp per element, no divisions in the loop.
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn quantize_slice_into(xs: &[f32], scale: f32, out: &mut [i8]) {
    assert_eq!(xs.len(), out.len(), "quantization buffer length mismatch");
    let inv = 1.0 / scale;
    for (o, &x) in out.iter_mut().zip(xs) {
        *o = quantize_with_inv(x, inv);
    }
}

/// Quantizes a slice into a fresh vector.
pub fn quantize_slice(xs: &[f32], scale: f32) -> Vec<i8> {
    let mut out = vec![0i8; xs.len()];
    quantize_slice_into(xs, scale, &mut out);
    out
}

/// An FKW layer with INT8 weights: the same five-array layout as
/// [`FkwLayer`] — offsets, reorder, index, stride, and the local pattern
/// table are byte-for-byte the structure the `f32` executors traverse —
/// plus per-filter weight scales and the calibrated input activation
/// scale the quantized executor needs at run time.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantFkwLayer {
    /// Number of filters (rows).
    pub out_c: usize,
    /// Number of input channels of the dense layer.
    pub in_c: usize,
    /// Kernel size (square).
    pub kernel: usize,
    /// Non-zero entries stored per kernel.
    pub entries_per_kernel: usize,
    /// The local pattern table; kernels reference it by position.
    pub patterns: Vec<Pattern>,
    /// Filter-level: cumulative stored-kernel counts, `out_c + 1` entries.
    pub offsets: Vec<u32>,
    /// Filter-level: original output channel per stored row.
    pub reorder: Vec<u16>,
    /// Kernel-level: input channel per stored kernel.
    pub index: Vec<u16>,
    /// Kernel-level: per filter, `patterns.len() + 1` cumulative counts
    /// delimiting same-pattern runs (relative to the filter's offset).
    pub stride: Vec<u16>,
    /// Weight-level: quantized surviving weights, `entries_per_kernel`
    /// per kernel, in the same order as the `f32` layout.
    pub qweights: Vec<i8>,
    /// Per-filter dequantization scales, indexed by *original* output
    /// channel (`scales[reorder[row]]` for storage row `row`).
    pub scales: Vec<f32>,
    /// Calibrated input-activation scale (symmetric, per layer).
    pub act_scale: f32,
}

impl QuantFkwLayer {
    /// Quantizes an `f32` FKW layer given the layer's calibrated input
    /// activation range (`act_max_abs`, the largest absolute input value
    /// observed on the calibration batch).
    pub fn from_fkw(fkw: &FkwLayer, act_max_abs: f32) -> Self {
        let e = fkw.entries_per_kernel;
        let mut scales = vec![1.0f32; fkw.out_c];
        let mut qweights = vec![0i8; fkw.weights.len()];
        for (row, f) in fkw.rows() {
            let lo = fkw.offsets[row] as usize * e;
            let hi = fkw.offsets[row + 1] as usize * e;
            let s = scale_for(max_abs(&fkw.weights[lo..hi]));
            scales[f] = s;
            quantize_slice_into(&fkw.weights[lo..hi], s, &mut qweights[lo..hi]);
        }
        QuantFkwLayer {
            out_c: fkw.out_c,
            in_c: fkw.in_c,
            kernel: fkw.kernel,
            entries_per_kernel: e,
            patterns: fkw.patterns.clone(),
            offsets: fkw.offsets.clone(),
            reorder: fkw.reorder.clone(),
            index: fkw.index.clone(),
            stride: fkw.stride.clone(),
            qweights,
            scales,
            act_scale: scale_for(act_max_abs),
        }
    }

    /// Dequantizes back to an `f32` FKW layer (the weights the INT8
    /// executor effectively computes with). Used by tests and fallbacks;
    /// the round trip loses at most `scale / 2` per weight.
    pub fn to_fkw(&self) -> FkwLayer {
        let e = self.entries_per_kernel;
        let mut weights = vec![0.0f32; self.qweights.len()];
        for (row, f) in self.rows() {
            let lo = self.offsets[row] as usize * e;
            let hi = self.offsets[row + 1] as usize * e;
            let s = self.scales[f];
            for (w, &q) in weights[lo..hi].iter_mut().zip(&self.qweights[lo..hi]) {
                *w = q as f32 * s;
            }
        }
        FkwLayer {
            out_c: self.out_c,
            in_c: self.in_c,
            kernel: self.kernel,
            entries_per_kernel: e,
            patterns: self.patterns.clone(),
            offsets: self.offsets.clone(),
            reorder: self.reorder.clone(),
            index: self.index.clone(),
            stride: self.stride.clone(),
            weights,
        }
    }

    /// Number of stored (non-empty) kernels.
    pub fn stored_kernels(&self) -> usize {
        self.index.len()
    }

    /// Iterates over stored rows: `(row, original_filter)`.
    pub fn rows(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.reorder
            .iter()
            .enumerate()
            .map(|(r, &f)| (r, f as usize))
    }

    /// The kernel range (relative to the whole `index` array) of pattern
    /// `p` in row `row`.
    pub fn pattern_run(&self, row: usize, p: usize) -> std::ops::Range<usize> {
        let np = self.patterns.len();
        let base = self.offsets[row] as usize;
        let lo = self.stride[row * (np + 1) + p] as usize;
        let hi = self.stride[row * (np + 1) + p + 1] as usize;
        base + lo..base + hi
    }

    /// Bytes of index structure (everything except weights and scales).
    pub fn extra_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.reorder.len() * 2
            + self.index.len() * 2
            + self.stride.len() * 2
            + self.patterns.len() * 2
    }

    /// Total storage footprint in bytes: 1-byte weights plus the shared
    /// index structure, per-filter scales, and the activation scale.
    pub fn total_bytes(&self) -> usize {
        self.extra_bytes() + self.qweights.len() + self.scales.len() * 4 + 4
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::fkr::filter_kernel_reorder;
    use patdnn_core::pattern_set::PatternSet;
    use patdnn_core::project::prune_layer;
    use patdnn_tensor::rng::Rng;
    use patdnn_tensor::Tensor;

    fn pruned_fkw(oc: usize, ic: usize, alpha: usize, seed: u64) -> FkwLayer {
        let mut rng = Rng::seed_from(seed);
        let mut w = Tensor::randn(&[oc, ic, 3, 3], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("t", &mut w, &set, alpha);
        let order = filter_kernel_reorder(&lp);
        FkwLayer::from_pruned(&w, &lp, &set, &order)
    }

    #[test]
    fn scale_for_handles_degenerate_ranges() {
        assert_eq!(scale_for(0.0), 1.0);
        assert_eq!(scale_for(f32::NAN), 1.0);
        assert_eq!(scale_for(f32::INFINITY), 1.0);
        assert!((scale_for(127.0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn quantize_round_trip_error_is_bounded_by_half_scale() {
        let mut rng = Rng::seed_from(1);
        let xs: Vec<f32> = (0..256).map(|_| rng.uniform(-3.0, 3.0)).collect();
        let s = scale_for(max_abs(&xs));
        let qs = quantize_slice(&xs, s);
        for (&x, &q) in xs.iter().zip(&qs) {
            let back = q as f32 * s;
            assert!(
                (x - back).abs() <= s / 2.0 + 1e-6,
                "x {x} -> q {q} -> {back} (scale {s})"
            );
        }
    }

    #[test]
    fn per_filter_scales_are_independent() {
        let fkw = pruned_fkw(8, 8, 32, 2);
        let q = QuantFkwLayer::from_fkw(&fkw, 1.0);
        assert_eq!(q.scales.len(), 8);
        // Each filter's quantized weights must saturate its own range:
        // the loudest code in every non-empty row is exactly ±127.
        let e = q.entries_per_kernel;
        for (row, _) in q.rows() {
            let lo = q.offsets[row] as usize * e;
            let hi = q.offsets[row + 1] as usize * e;
            if lo == hi {
                continue;
            }
            let peak = q.qweights[lo..hi].iter().map(|&v| (v as i32).abs()).max();
            assert_eq!(peak, Some(127), "row {row} wastes quantization range");
        }
    }

    #[test]
    fn dequantized_layer_stays_close_to_the_original() {
        let fkw = pruned_fkw(8, 8, 40, 3);
        let q = QuantFkwLayer::from_fkw(&fkw, 1.0);
        let back = q.to_fkw();
        assert_eq!(back.offsets, fkw.offsets);
        assert_eq!(back.reorder, fkw.reorder);
        assert_eq!(back.index, fkw.index);
        assert_eq!(back.stride, fkw.stride);
        for (row, f) in fkw.rows() {
            let e = fkw.entries_per_kernel;
            let lo = fkw.offsets[row] as usize * e;
            let hi = fkw.offsets[row + 1] as usize * e;
            for (a, b) in fkw.weights[lo..hi].iter().zip(&back.weights[lo..hi]) {
                assert!((a - b).abs() <= q.scales[f] / 2.0 + 1e-6);
            }
        }
    }

    #[test]
    fn quantized_storage_is_a_quarter_of_f32_weights() {
        let fkw = pruned_fkw(16, 8, 64, 4);
        let q = QuantFkwLayer::from_fkw(&fkw, 1.0);
        assert_eq!(q.qweights.len(), fkw.weights.len());
        assert!(q.total_bytes() < fkw.total_bytes());
        // Weight payload specifically shrinks 4x.
        assert_eq!(q.qweights.len() * 4, fkw.weight_bytes());
    }

    #[test]
    fn all_zero_filter_gets_unit_scale_and_zero_codes() {
        let mut fkw = pruned_fkw(4, 4, 8, 5);
        // Zero one stored row's weights in place.
        let e = fkw.entries_per_kernel;
        let lo = fkw.offsets[0] as usize * e;
        let hi = fkw.offsets[1] as usize * e;
        for w in &mut fkw.weights[lo..hi] {
            *w = 0.0;
        }
        let q = QuantFkwLayer::from_fkw(&fkw, 1.0);
        let f = fkw.reorder[0] as usize;
        assert_eq!(q.scales[f], 1.0);
        assert!(q.qweights[lo..hi].iter().all(|&v| v == 0));
    }

    #[test]
    fn the_quantizer_rounds_to_even_saturates_and_zeroes_nan() {
        let specials = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.5,
            2.5,
            -2.5,
            126.5,
            127.49,
            127.5,
            1e9,
            -1e9,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE,
        ];
        for inv in [1.0f32, 0.37, 42.3, 1e-3] {
            let sweep = (-4000..4000).map(|i| i as f32 * 0.0371 / inv);
            for x in sweep.chain(specials) {
                let v = x * inv;
                let want = if v.is_nan() {
                    0
                } else {
                    v.clamp(-127.0, 127.0).round_ties_even() as i16
                };
                assert_eq!(quantize_with_inv_i16(x, inv), want, "x {x} inv {inv}");
                assert_eq!(quantize_with_inv(x, inv) as i16, want, "x {x} inv {inv}");
            }
        }
    }
}
