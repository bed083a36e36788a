//! INT8 pattern-based convolution executor over quantized FKW storage.
//!
//! [`QuantPatternConv`] is the reduced-precision counterpart of
//! [`crate::pattern_exec::PatternConv`]: it traverses the *same* FKW
//! arrays (reorder, per-pattern kernel runs, per-kernel channel index)
//! but computes with exact `i8 × i8 → i32` arithmetic:
//!
//! 1. the input is quantized once per item with the layer's calibrated
//!    activation scale (persisted in the artifact) — at the tiled levels
//!    straight into the `i16` staged image the tile reads,
//! 2. every stored kernel accumulates into `i32`: at
//!    [`OptLevel::ReorderLre`] and [`OptLevel::Full`] in the same
//!    output-stationary register tile as the `f32` executor, with each
//!    kernel's taps pre-packed as `(w_e, w_e+1)` pairs so one
//!    `madd_epi16` retires two taps (see
//!    [`patdnn_tensor::kernels::pattern_tile`]); at the two baseline
//!    levels in the per-pixel checked body,
//! 3. each filter's outputs dequantize with a single multiply
//!    (`act_scale · filter_scale`), the `f32` bias is added last and the
//!    step's ReLU, when fused, follows — in the tile's epilogue, so the
//!    plane is written once.
//!
//! The executor honors the step's persisted [`OptLevel`] and
//! [`TuningConfig`] exactly as the `f32` one does ([`crate::tile`]).
//! Integer accumulation is exact and order-independent, so every level,
//! tile shape and kernel variant produces the same accumulators.

use patdnn_compiler::quant::{quantize_with_inv_i16, QuantFkwLayer};
use patdnn_compiler::tune::space::TuningConfig;
use patdnn_core::pattern::Pattern;
use patdnn_tensor::kernels::{self, pack_tap_pairs_i8, TileEpilogue};
use patdnn_tensor::{Conv2dGeometry, Tensor};

use crate::executor::ConvExecutor;
use crate::pattern_exec::OptLevel;
use crate::tile::{aligned, unstored_filters, TileJob, TilePlan, ACC_I32, STAGED_I16};

/// Whether worst-case `i8 × i8 → i32` accumulation over `in_c` kernels
/// of `entries` taps each fits `i32`. Callers that build executors from
/// external artifacts must check this *before* construction (the
/// serving layer turns it into a typed malformed-artifact error at
/// decode and engine build); [`QuantPatternConv::new`] asserts it.
pub fn accumulation_fits_i32(in_c: usize, entries_per_kernel: usize) -> bool {
    in_c as i64 * entries_per_kernel as i64 * 127 * 127 <= i32::MAX as i64
}

/// INT8 pattern-based sparse convolution executor.
pub struct QuantPatternConv {
    geo: Conv2dGeometry,
    qfkw: QuantFkwLayer,
    bias: Option<Vec<f32>>,
    /// Clamp negatives to zero on the way out (fused activation).
    relu: bool,
    /// `(kh, kw)` taps per pattern, for the checked body.
    taps: Vec<Vec<(usize, usize)>>,
    entries: usize,
    /// Filters with no storage row (their planes are bias-only).
    unstored: Vec<usize>,
    /// The staged layout and tap offsets of the tiled levels, with the
    /// jobs of every storage row in order; `None` exactly at `NoOpt` and
    /// `Reorder`.
    tile: Option<(TilePlan, Vec<TileJob>)>,
    /// Every kernel's taps as `i16` pairs, for the tile (empty at the
    /// checked levels).
    wpairs: Vec<i32>,
}

impl QuantPatternConv {
    /// Creates the executor.
    ///
    /// # Panics
    ///
    /// Panics if the quantized FKW layer disagrees with the geometry or
    /// if [`accumulation_fits_i32`] does not hold (impossible for
    /// realistic layer widths; validated with typed errors upstream so
    /// the kernel stays branch-free).
    pub fn new(
        geo: Conv2dGeometry,
        qfkw: QuantFkwLayer,
        bias: Option<Vec<f32>>,
        level: OptLevel,
        tuning: TuningConfig,
    ) -> Self {
        assert_eq!(qfkw.out_c, geo.out_channels, "filter count mismatch");
        assert_eq!(qfkw.in_c, geo.in_channels, "channel count mismatch");
        assert_eq!(qfkw.kernel, geo.kernel_h, "kernel size mismatch");
        // Worst case per output pixel: every input channel contributes a
        // kernel of `entries` saturated (±127 · ±127) products.
        assert!(
            accumulation_fits_i32(qfkw.in_c, qfkw.entries_per_kernel),
            "i8 accumulation would overflow"
        );
        let taps = qfkw.patterns.iter().map(Pattern::positions).collect();
        let entries = qfkw.entries_per_kernel;
        let (tile, wpairs) = match level {
            OptLevel::NoOpt | OptLevel::Reorder => (None, Vec::new()),
            OptLevel::ReorderLre | OptLevel::Full => {
                let mut wpairs = Vec::with_capacity(qfkw.qweights.len().div_ceil(2));
                for kernel in qfkw.qweights.chunks(entries.max(1)) {
                    pack_tap_pairs_i8(kernel, &mut wpairs);
                }
                let plan = TilePlan::new(&geo, &qfkw, level, &tuning, true);
                let jobs = plan.jobs_for(&plan.serial_rows());
                (Some((plan, jobs)), wpairs)
            }
        };
        QuantPatternConv {
            unstored: unstored_filters(geo.out_channels, &qfkw.reorder),
            geo,
            qfkw,
            bias,
            relu: false,
            taps,
            entries,
            tile,
            wpairs,
        }
    }

    /// Fuses `max(0)` into the executor's output (the tile's epilogue at
    /// the tiled levels).
    pub fn with_relu(mut self, relu: bool) -> Self {
        self.relu = relu;
        self
    }

    /// The quantized FKW storage backing this executor.
    pub fn qfkw(&self) -> &QuantFkwLayer {
        &self.qfkw
    }

    /// The calibrated input-activation scale.
    pub fn act_scale(&self) -> f32 {
        self.qfkw.act_scale
    }

    fn bias_of(&self, f: usize) -> f32 {
        self.bias.as_ref().map_or(0.0, |b| b[f])
    }

    /// The dequantization multiplier of filter `f`.
    fn scale_of(&self, f: usize) -> f32 {
        self.qfkw.act_scale * self.qfkw.scales[f]
    }

    /// `acc as f32 * scale + bias`, then the fused ReLU: the one
    /// output expression of every level.
    fn finish(&self, f: usize, acc: i32) -> f32 {
        let y = acc as f32 * self.scale_of(f) + self.bias_of(f);
        if self.relu {
            y.max(0.0)
        } else {
            y
        }
    }

    /// Accumulates one kernel over the whole output plane with per-pixel
    /// bounds checks: the body of the `NoOpt` and `Reorder` baselines.
    fn kernel_plane_checked(
        &self,
        taps: &[(usize, usize)],
        w: &[i8],
        inp: &[i16],
        acc: &mut [i32],
    ) {
        let g = &self.geo;
        for oh in 0..g.out_h {
            let orow = oh * g.out_w;
            for ow in 0..g.out_w {
                let mut sum = 0i32;
                for (e, &(kh, kw)) in taps.iter().enumerate() {
                    let ih = (oh * g.stride + kh) as isize - g.pad as isize;
                    let iw = (ow * g.stride + kw) as isize - g.pad as isize;
                    if ih >= 0 && ih < g.in_h as isize && iw >= 0 && iw < g.in_w as isize {
                        sum += w[e] as i32 * inp[ih as usize * g.in_w + iw as usize] as i32;
                    }
                }
                acc[orow + ow] += sum;
            }
        }
    }

    /// The checked levels: every storage row's kernels into a pooled
    /// `i32` plane, then dequantized into the row's filter.
    fn run_item_checked(&self, qin: &[i16], out: &mut [f32]) {
        let g = &self.geo;
        let (in_hw, hw) = (g.in_h * g.in_w, g.out_h * g.out_w);
        let mut acc_buf = ACC_I32.take(hw);
        let acc = aligned(&mut acc_buf, hw);
        for (row, f) in self.qfkw.rows() {
            acc.fill(0);
            for (p, taps) in self.taps.iter().enumerate() {
                for k in self.qfkw.pattern_run(row, p) {
                    let ic = self.qfkw.index[k] as usize;
                    let w = &self.qfkw.qweights[k * self.entries..(k + 1) * self.entries];
                    self.kernel_plane_checked(taps, w, &qin[ic * in_hw..(ic + 1) * in_hw], acc);
                }
            }
            for (o, &a) in out[f * hw..(f + 1) * hw].iter_mut().zip(acc.iter()) {
                *o = self.finish(f, a);
            }
        }
        ACC_I32.give(acc_buf);
    }

    /// Runs the layer into a caller-provided output tensor (the serving
    /// engine's buffer-reuse path). The `f32` input is quantized once per
    /// batch item with the persisted activation scale; a warm call
    /// allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `out` does not have the batch-matched output shape.
    pub fn run_into(&self, input: &Tensor, out: &mut Tensor) {
        let g = &self.geo;
        let s = input.shape4();
        assert_eq!(s.c, g.in_channels, "input channel mismatch");
        assert_eq!(
            out.shape(),
            &[s.n, g.out_channels, g.out_h, g.out_w],
            "output buffer shape mismatch"
        );
        let in_img = g.in_channels * g.in_h * g.in_w;
        let hw = g.out_h * g.out_w;
        let out_img = g.out_channels * hw;
        let inv = 1.0 / self.qfkw.act_scale;
        let quantize = |x: f32| quantize_with_inv_i16(x, inv);
        let kernel = kernels::active_kernel();
        // The quantized input — the staged image at the tiled levels,
        // the plain item at the checked ones — comes from the shared
        // scratch pool.
        let staged_len = self
            .tile
            .as_ref()
            .map_or(in_img, |(plan, _)| plan.layout.len());
        let mut staged_buf = STAGED_I16.take(staged_len);
        let staged = aligned(&mut staged_buf, staged_len);
        for n in 0..s.n {
            let ind = &input.data()[n * in_img..(n + 1) * in_img];
            let outd = &mut out.data_mut()[n * out_img..(n + 1) * out_img];
            match &self.tile {
                Some((plan, jobs)) => {
                    plan.layout.stage(ind, staged, quantize);
                    plan.run_jobs(
                        jobs,
                        staged,
                        &self.wpairs,
                        outd,
                        |job| TileEpilogue {
                            scale: job.filters.map(|f| self.scale_of(f)),
                            bias: job.filters.map(|f| self.bias_of(f)),
                            relu: self.relu,
                        },
                        |tile, epi, buf| kernel.pattern_tile_i8(tile, epi, buf),
                    );
                }
                // `NoOpt` and `Reorder`: the per-pixel checked body.
                None => {
                    for (q, &x) in staged.iter_mut().zip(ind) {
                        *q = quantize(x);
                    }
                    self.run_item_checked(staged, outd);
                }
            }
            // Filters without a storage row never accumulate; their
            // planes are the bias alone.
            for &f in &self.unstored {
                outd[f * hw..(f + 1) * hw].fill(self.finish(f, 0));
            }
        }
        STAGED_I16.give(staged_buf);
    }
}

impl ConvExecutor for QuantPatternConv {
    fn name(&self) -> &str {
        "pattern-int8"
    }

    fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }

    fn run(&self, input: &Tensor) -> Tensor {
        let g = &self.geo;
        let s = input.shape4();
        let mut out = Tensor::zeros(&[s.n, g.out_channels, g.out_h, g.out_w]);
        self.run_into(input, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern_exec::PatternConv;
    use patdnn_compiler::fkr::filter_kernel_reorder;
    use patdnn_compiler::fkw::FkwLayer;
    use patdnn_compiler::quant::{max_abs, quantize_slice};
    use patdnn_core::pattern_set::PatternSet;
    use patdnn_core::project::prune_layer;
    use patdnn_tensor::rng::Rng;

    fn pruned_fkw(oc: usize, ic: usize, alpha: usize, seed: u64) -> FkwLayer {
        let mut rng = Rng::seed_from(seed);
        let mut w = Tensor::randn(&[oc, ic, 3, 3], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("t", &mut w, &set, alpha);
        let order = filter_kernel_reorder(&lp);
        FkwLayer::from_pruned(&w, &lp, &set, &order)
    }

    /// The INT8 computation is exact in i32, so running the f32 executor
    /// over the *dequantized* weights and the *requantized* input must
    /// reproduce the quantized output to f32 rounding.
    #[test]
    fn int8_matches_f32_over_dequantized_operands_at_every_level() {
        let geo = Conv2dGeometry::new(8, 6, 3, 3, 11, 11, 1, 1);
        let fkw = pruned_fkw(8, 6, 20, 1);
        let mut rng = Rng::seed_from(2);
        let x = Tensor::randn(&[2, 6, 11, 11], &mut rng);
        let bias: Vec<f32> = (0..8).map(|_| rng.uniform(-0.5, 0.5)).collect();
        let qfkw = QuantFkwLayer::from_fkw(&fkw, max_abs(x.data()));

        // Requantize the input exactly as the executor does.
        let sx = qfkw.act_scale;
        let qx = quantize_slice(x.data(), sx);
        let x_deq = Tensor::from_vec(x.shape(), qx.iter().map(|&q| q as f32 * sx).collect())
            .expect("dequantized input");

        for level in OptLevel::all() {
            let quant = QuantPatternConv::new(
                geo,
                qfkw.clone(),
                Some(bias.clone()),
                level,
                TuningConfig::tuned_default(),
            );
            let reference = PatternConv::new(
                geo,
                qfkw.to_fkw(),
                Some(bias.clone()),
                level,
                TuningConfig::tuned_default(),
            );
            let got = quant.run(&x);
            let want = reference.run(&x_deq);
            assert!(
                want.approx_eq(&got, 1e-3),
                "{}: int8 diverges from its own dequantized reference: {:?}",
                level.label(),
                want.max_abs_diff(&got)
            );
        }
    }

    /// `(kernel, stride, pad, input size)`, as the `f32` executor's grid.
    const SHAPES: [(usize, usize, usize, usize); 7] = [
        (3, 1, 1, 11),
        (3, 1, 0, 10),
        (3, 2, 1, 9),
        (3, 3, 1, 13),
        (1, 1, 0, 7),
        (1, 2, 0, 8),
        (1, 3, 1, 9),
    ];

    /// The layer's input requantized and dequantized as the executor
    /// sees it.
    fn dequantized(x: &Tensor, scale: f32) -> Tensor {
        let q = quantize_slice(x.data(), scale);
        Tensor::from_vec(x.shape(), q.iter().map(|&q| q as f32 * scale).collect())
            .expect("dequantized input")
    }

    #[test]
    fn every_level_shape_and_unroll_is_one_exact_integer_result() {
        use crate::test_layers;
        for (k, stride, pad, hw) in SHAPES {
            // 14 kernels over 6 filters of 5 channels, and a layer with
            // coincident rows for the shared tiles.
            let mut layers = vec![test_layers::pruned(6, 5, k, 14, 70 + k as u64).1];
            if k == 3 {
                layers.push(test_layers::coincident(8, 5, 2, 71).1);
            }
            for fkw in layers {
                let geo = Conv2dGeometry::new(fkw.out_c, 5, k, k, hw, hw, stride, pad);
                let x = Tensor::randn(&[3, 5, hw, hw], &mut Rng::seed_from(72));
                let bias: Vec<f32> = (0..fkw.out_c).map(|f| f as f32 * 0.3 - 0.8).collect();
                let qfkw = QuantFkwLayer::from_fkw(&fkw, max_abs(x.data()));
                let with = |level, unroll_oc| {
                    let tuning = TuningConfig {
                        unroll_oc,
                        ..TuningConfig::tuned_default()
                    };
                    QuantPatternConv::new(geo, qfkw.clone(), Some(bias.clone()), level, tuning)
                };
                // The checked body is the oracle: integer accumulation is
                // exact, so the tile must reproduce it to the bit.
                let want = with(OptLevel::Reorder, 1).run(&x);
                let reference = PatternConv::new(
                    geo,
                    qfkw.to_fkw(),
                    Some(bias.clone()),
                    OptLevel::Reorder,
                    TuningConfig::tuned_default(),
                )
                .run(&dequantized(&x, qfkw.act_scale));
                assert!(reference.approx_eq(&want, 1e-3), "k{k} s{stride} p{pad}");
                for level in OptLevel::all() {
                    for unroll_oc in [1, 2, 4, 7] {
                        let exec = with(level, unroll_oc);
                        let got = exec.run(&x);
                        assert_eq!(got, want, "{} unroll_oc {unroll_oc}", level.label());
                        // Batch 3 is its items, bit for bit.
                        let item_len = x.len() / 3;
                        for n in 0..3 {
                            let item = Tensor::from_vec(
                                &[1, 5, hw, hw],
                                x.data()[n * item_len..(n + 1) * item_len].to_vec(),
                            )
                            .expect("one item");
                            let alone = exec.run(&item);
                            assert_eq!(
                                &got.data()[n * alone.len()..(n + 1) * alone.len()],
                                alone.data()
                            );
                        }
                        let mut relu = want.clone();
                        relu.map_inplace(|v| v.max(0.0));
                        assert_eq!(exec.with_relu(true).run(&x), relu);
                    }
                }
            }
        }
    }

    #[test]
    fn an_int8_filter_without_stored_kernels_is_its_bias() {
        use crate::test_layers;
        let fkw = test_layers::pruned(8, 4, 3, 5, 41).1;
        let empty: Vec<usize> = fkw
            .rows()
            .filter(|&(row, _)| fkw.offsets[row] == fkw.offsets[row + 1])
            .map(|(_, f)| f)
            .collect();
        assert!(empty.len() >= 3);
        let geo = Conv2dGeometry::new(8, 4, 3, 3, 9, 9, 1, 1);
        let bias: Vec<f32> = (0..8).map(|f| f as f32 - 3.5).collect();
        let x = Tensor::randn(&[1, 4, 9, 9], &mut Rng::seed_from(43));
        let qfkw = QuantFkwLayer::from_fkw(&fkw, max_abs(x.data()));
        for level in OptLevel::all() {
            let exec = QuantPatternConv::new(
                geo,
                qfkw.clone(),
                Some(bias.clone()),
                level,
                TuningConfig::tuned_default(),
            );
            let out = exec.run(&x);
            for &f in &empty {
                assert!(out.data()[f * 81..(f + 1) * 81]
                    .iter()
                    .all(|&v| v == bias[f]));
            }
        }
    }

    #[test]
    fn int8_stays_close_to_the_unquantized_layer() {
        let geo = Conv2dGeometry::new(8, 8, 3, 3, 12, 12, 1, 1);
        let fkw = pruned_fkw(8, 8, 32, 3);
        let mut rng = Rng::seed_from(4);
        let x = Tensor::randn(&[1, 8, 12, 12], &mut rng);
        let qfkw = QuantFkwLayer::from_fkw(&fkw, max_abs(x.data()));
        let quant = QuantPatternConv::new(
            geo,
            qfkw,
            None,
            OptLevel::Full,
            TuningConfig::tuned_default(),
        );
        let full = PatternConv::new(
            geo,
            fkw,
            None,
            OptLevel::Full,
            TuningConfig::tuned_default(),
        );
        let got = quant.run(&x);
        let want = full.run(&x);
        let scale = max_abs(want.data());
        let dev = want.max_abs_diff(&got).expect("same shape");
        assert!(
            dev <= 0.05 * scale.max(1.0),
            "quantization error too large: {dev} vs output scale {scale}"
        );
    }

    #[test]
    fn strided_int8_layer_matches_dequantized_reference() {
        let geo = Conv2dGeometry::new(4, 4, 3, 3, 9, 9, 2, 1);
        let fkw = pruned_fkw(4, 4, 8, 5);
        let mut rng = Rng::seed_from(6);
        let x = Tensor::randn(&[1, 4, 9, 9], &mut rng);
        let qfkw = QuantFkwLayer::from_fkw(&fkw, max_abs(x.data()));
        let sx = qfkw.act_scale;
        let x_deq = Tensor::from_vec(
            x.shape(),
            quantize_slice(x.data(), sx)
                .iter()
                .map(|&q| q as f32 * sx)
                .collect(),
        )
        .expect("dequantized input");
        let quant = QuantPatternConv::new(
            geo,
            qfkw.clone(),
            None,
            OptLevel::Full,
            TuningConfig::tuned_default(),
        );
        let reference = PatternConv::new(
            geo,
            qfkw.to_fkw(),
            None,
            OptLevel::Full,
            TuningConfig::tuned_default(),
        );
        assert!(reference.run(&x_deq).approx_eq(&quant.run(&x), 1e-3));
    }

    #[test]
    fn batched_int8_matches_itemwise_runs() {
        let geo = Conv2dGeometry::new(4, 4, 3, 3, 8, 8, 1, 1);
        let fkw = pruned_fkw(4, 4, 10, 7);
        let mut rng = Rng::seed_from(8);
        let a = Tensor::randn(&[1, 4, 8, 8], &mut rng);
        let b = Tensor::randn(&[1, 4, 8, 8], &mut rng);
        let qfkw = QuantFkwLayer::from_fkw(&fkw, max_abs(a.data()).max(max_abs(b.data())));
        let exec = QuantPatternConv::new(
            geo,
            qfkw,
            None,
            OptLevel::Full,
            TuningConfig::tuned_default(),
        );
        let mut both = Tensor::zeros(&[2, 4, 8, 8]);
        both.data_mut()[..a.len()].copy_from_slice(a.data());
        both.data_mut()[a.len()..].copy_from_slice(b.data());
        let out_a = exec.run(&a);
        let out_b = exec.run(&b);
        let out = exec.run(&both);
        assert_eq!(&out.data()[..out_a.len()], out_a.data());
        assert_eq!(&out.data()[out_a.len()..], out_b.data());
    }

    #[test]
    fn connectivity_only_1x1_int8_matches_dequantized_reference() {
        let mut rng = Rng::seed_from(10);
        let mut w = Tensor::randn(&[8, 8, 1, 1], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("proj", &mut w, &set, 16);
        let order = filter_kernel_reorder(&lp);
        let fkw = FkwLayer::from_pruned(&w, &lp, &set, &order);
        let geo = Conv2dGeometry::new(8, 8, 1, 1, 7, 7, 1, 0);
        let x = Tensor::randn(&[1, 8, 7, 7], &mut rng);
        let qfkw = QuantFkwLayer::from_fkw(&fkw, max_abs(x.data()));
        let sx = qfkw.act_scale;
        let x_deq = Tensor::from_vec(
            x.shape(),
            quantize_slice(x.data(), sx)
                .iter()
                .map(|&q| q as f32 * sx)
                .collect(),
        )
        .expect("dequantized input");
        let quant = QuantPatternConv::new(
            geo,
            qfkw.clone(),
            None,
            OptLevel::Full,
            TuningConfig::tuned_default(),
        );
        let reference = PatternConv::new(
            geo,
            qfkw.to_fkw(),
            None,
            OptLevel::Full,
            TuningConfig::tuned_default(),
        );
        assert!(reference.run(&x_deq).approx_eq(&quant.run(&x), 1e-3));
    }
}
