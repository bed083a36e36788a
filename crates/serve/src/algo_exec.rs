//! Dense algorithm executors for tuner-selected per-layer lowerings.
//!
//! The direct FKW executor ([`patdnn_runtime::pattern_exec`]) is the
//! default lowering for pruned layers; the per-layer tuner
//! ([`crate::tune`]) can instead select a *densified* lowering when a
//! layer's stored-MAC count is close enough to dense for it to win:
//!
//! - [`Im2colConv`] — the dense GEMM-class lowering. The name is the
//!   artifact tag's; the executor no longer builds a patch matrix. It
//!   is the pattern tile run on a layer where every filter holds every
//!   kernel: four filters × sixteen output columns per tile (the packed
//!   GEMM's register block) over one shared tap-offset table into the
//!   staged image, bias and ReLU in the tile's epilogue. Unpruned
//!   `dense-conv` plan steps run through the same executor.
//! - [`WinogradConv`] — Winograd `F(2×2, 3×3)`, kernels transformed into
//!   the 4×4 domain once at engine build, the per-tile channel buffer
//!   pooled.
//!
//! Neither allocates on a warm call.

use std::fmt;
use std::sync::Mutex;

use patdnn_compiler::fkw::FkwLayer;
use patdnn_tensor::winograd::{transform_input, transform_kernel, transform_output};
use patdnn_tensor::{Conv2dGeometry, Tensor};

/// Minimum stored-weight density (stored MACs over dense MACs) below
/// which the Winograd lowering is refused: a sparser layer's direct
/// executor does strictly less arithmetic than the densified transform.
pub const WINOGRAD_DENSITY_THRESHOLD: f32 = 0.25;

/// Why a layer cannot (or should not) lower through Winograd.
///
/// The shape conditions are hard requirements of `F(2×2, 3×3)`; the
/// density condition is the tuner's profitability guard, enforced at
/// engine build too so a hand-edited artifact cannot demand a lowering
/// the tuner would never pick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WinogradRejection {
    /// The layer is strided; `F(2×2, 3×3)` produces stride-1 tiles only.
    Strided {
        /// The layer's stride.
        stride: usize,
    },
    /// The kernel window is not 3×3.
    KernelShape {
        /// Kernel height.
        kernel_h: usize,
        /// Kernel width.
        kernel_w: usize,
    },
    /// The layer is pruned too far for densification to pay off.
    TooSparse {
        /// Stored-weight density of the layer.
        density: f32,
        /// The eligibility threshold it fell below.
        threshold: f32,
    },
}

impl fmt::Display for WinogradRejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WinogradRejection::Strided { stride } => {
                write!(f, "winograd requires stride 1, layer has stride {stride}")
            }
            WinogradRejection::KernelShape { kernel_h, kernel_w } => {
                write!(
                    f,
                    "winograd requires a 3x3 kernel, layer has {kernel_h}x{kernel_w}"
                )
            }
            WinogradRejection::TooSparse { density, threshold } => {
                write!(
                    f,
                    "layer density {density:.3} is below the winograd threshold {threshold:.2}"
                )
            }
        }
    }
}

/// Stored-weight density of an FKW layer: stored MACs over dense MACs.
pub fn fkw_density(fkw: &FkwLayer) -> f32 {
    let dense = fkw.out_c * fkw.in_c * fkw.kernel * fkw.kernel;
    if dense == 0 {
        return 0.0;
    }
    (fkw.stored_kernels() * fkw.entries_per_kernel) as f32 / dense as f32
}

/// Checks whether a pruned layer may lower through Winograd
/// `F(2×2, 3×3)`: stride-1, 3×3 window, and dense enough
/// ([`WINOGRAD_DENSITY_THRESHOLD`]) for the transform to pay off.
pub fn winograd_eligible(geo: &Conv2dGeometry, fkw: &FkwLayer) -> Result<(), WinogradRejection> {
    if (geo.kernel_h, geo.kernel_w) != (3, 3) {
        return Err(WinogradRejection::KernelShape {
            kernel_h: geo.kernel_h,
            kernel_w: geo.kernel_w,
        });
    }
    if geo.stride != 1 {
        return Err(WinogradRejection::Strided { stride: geo.stride });
    }
    let density = fkw_density(fkw);
    if density < WINOGRAD_DENSITY_THRESHOLD {
        return Err(WinogradRejection::TooSparse {
            density,
            threshold: WINOGRAD_DENSITY_THRESHOLD,
        });
    }
    Ok(())
}

/// The dense lowering, under the name its artifact tag
/// ([`ConvAlgo::Im2col`](patdnn_compiler::tune::space::ConvAlgo)) and
/// its callers know it by.
///
/// It computes what im2col + GEMM computes — every filter against every
/// `in_c · k · k` patch — but materializes no patch matrix: the patches
/// are addressed through a tap-offset table into the staged image, as
/// the all-kernels-present case of the pattern tile. See
/// [`DenseTileConv`](patdnn_runtime::dense::DenseTileConv).
pub use patdnn_runtime::dense::DenseTileConv as Im2colConv;

/// Winograd `F(2×2, 3×3)` convolution executor.
///
/// Kernels are densified and transformed into the 4×4 Winograd domain
/// once at construction (`U = G g Gᵀ` per `(oc, ic)` pair); each call
/// transforms input tiles, multiplies elementwise, and maps back.
/// The per-tile channel buffer is pooled, so the warm path allocates
/// nothing.
pub struct WinogradConv {
    geo: Conv2dGeometry,
    /// Transformed kernels: `out_c * in_c` 4×4 tiles.
    u: Vec<[f32; 16]>,
    bias: Vec<f32>,
    /// Pool of per-call `v_tiles` buffers (`in_c` transformed tiles).
    // lock: algo-scratch
    scratch: Mutex<Vec<Vec<[f32; 16]>>>,
}

impl WinogradConv {
    /// Builds the executor from a layer's dense OIHW weights.
    ///
    /// # Panics
    ///
    /// Panics if `geo` is not a stride-1 3×3 convolution, `weights`
    /// disagrees with `geo`, or `bias` is neither empty nor
    /// `out_channels` long.
    pub fn new(geo: Conv2dGeometry, weights: &Tensor, bias: Vec<f32>) -> Self {
        assert_eq!((geo.kernel_h, geo.kernel_w), (3, 3), "winograd is 3x3");
        assert_eq!(geo.stride, 1, "winograd is stride 1");
        assert_eq!(weights.shape4(), geo.weight_shape(), "weight shape");
        assert!(
            bias.is_empty() || bias.len() == geo.out_channels,
            "bias arity"
        );
        let wd = weights.data();
        let mut u = vec![[0.0f32; 16]; geo.out_channels * geo.in_channels];
        for oc in 0..geo.out_channels {
            for ic in 0..geo.in_channels {
                let base = (oc * geo.in_channels + ic) * 9;
                let mut g = [0.0f32; 9];
                g.copy_from_slice(&wd[base..base + 9]);
                u[oc * geo.in_channels + ic] = transform_kernel(&g);
            }
        }
        WinogradConv {
            geo,
            u,
            bias,
            scratch: Mutex::new(Vec::new()),
        }
    }

    /// Bytes held in kernel-native (Winograd-domain) form.
    pub fn packed_bytes(&self) -> usize {
        self.u.len() * 16 * std::mem::size_of::<f32>()
    }

    /// Runs the convolution on a batched NCHW input, overwriting `out`.
    pub fn run_into(&self, input: &Tensor, out: &mut Tensor) {
        let geo = &self.geo;
        let batch = input.shape()[0];
        let tiles_h = geo.out_h.div_ceil(2);
        let tiles_w = geo.out_w.div_ceil(2);
        let in_img = geo.in_channels * geo.in_h * geo.in_w;
        let out_img = geo.out_channels * geo.out_h * geo.out_w;
        let in_data = input.data();
        let out_data = out.data_mut();
        let mut v_tiles = self
            .scratch
            .lock()
            .expect("winograd scratch")
            .pop()
            .unwrap_or_default();
        v_tiles.resize(geo.in_channels, [0.0f32; 16]);

        for n in 0..batch {
            let ibase_n = n * in_img;
            let obase_n = n * out_img;
            for th in 0..tiles_h {
                for tw in 0..tiles_w {
                    for (ic, vt) in v_tiles.iter_mut().enumerate() {
                        let mut d = [0.0f32; 16];
                        for r in 0..4 {
                            let ih = (th * 2 + r) as isize - geo.pad as isize;
                            if ih < 0 || ih >= geo.in_h as isize {
                                continue; // zero-padded row
                            }
                            let rbase = ibase_n + ic * geo.in_h * geo.in_w + ih as usize * geo.in_w;
                            for c in 0..4 {
                                let iw = (tw * 2 + c) as isize - geo.pad as isize;
                                if iw >= 0 && iw < geo.in_w as isize {
                                    d[r * 4 + c] = in_data[rbase + iw as usize];
                                }
                            }
                        }
                        *vt = transform_input(&d);
                    }
                    for oc in 0..geo.out_channels {
                        let mut m = [0.0f32; 16];
                        for (ic, vt) in v_tiles.iter().enumerate() {
                            let uk = &self.u[oc * geo.in_channels + ic];
                            for i in 0..16 {
                                m[i] += uk[i] * vt[i];
                            }
                        }
                        let y = transform_output(&m);
                        let b = self.bias.get(oc).copied().unwrap_or(0.0);
                        let obase = obase_n + oc * geo.out_h * geo.out_w;
                        for r in 0..2 {
                            let oh = th * 2 + r;
                            if oh >= geo.out_h {
                                continue;
                            }
                            for c in 0..2 {
                                let ow = tw * 2 + c;
                                if ow >= geo.out_w {
                                    continue;
                                }
                                out_data[obase + oh * geo.out_w + ow] = y[r * 2 + c] + b;
                            }
                        }
                    }
                }
            }
        }
        self.scratch.lock().expect("winograd scratch").push(v_tiles);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use patdnn_compiler::fkr::filter_kernel_reorder;
    use patdnn_core::pattern_set::PatternSet;
    use patdnn_core::project::prune_layer;
    use patdnn_tensor::conv::conv2d_ref;
    use patdnn_tensor::rng::Rng;

    fn pruned_fkw(oc: usize, ic: usize, alpha: usize, seed: u64) -> FkwLayer {
        let mut rng = Rng::seed_from(seed);
        let mut w = Tensor::randn(&[oc, ic, 3, 3], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("t", &mut w, &set, alpha);
        let order = filter_kernel_reorder(&lp);
        FkwLayer::from_pruned(&w, &lp, &set, &order)
    }

    #[test]
    fn winograd_eligibility_rejects_with_typed_reasons() {
        // Dense-ish layer: 8*8 kernels kept out of 8*8 -> density 4/9.
        let dense_ish = pruned_fkw(8, 8, 64, 1);
        let geo_ok = Conv2dGeometry::new(8, 8, 3, 3, 8, 8, 1, 1);
        assert_eq!(winograd_eligible(&geo_ok, &dense_ish), Ok(()));

        let strided = Conv2dGeometry::new(8, 8, 3, 3, 8, 8, 2, 1);
        assert_eq!(
            winograd_eligible(&strided, &dense_ish),
            Err(WinogradRejection::Strided { stride: 2 })
        );

        let geo_5x5 = Conv2dGeometry::new(8, 8, 5, 5, 8, 8, 1, 2);
        assert_eq!(
            winograd_eligible(&geo_5x5, &dense_ish),
            Err(WinogradRejection::KernelShape {
                kernel_h: 5,
                kernel_w: 5
            })
        );

        // Heavily pruned: 16 of 64 kernels, 4 of 9 entries -> ~0.11.
        let sparse = pruned_fkw(8, 8, 16, 2);
        assert!(matches!(
            winograd_eligible(&geo_ok, &sparse),
            Err(WinogradRejection::TooSparse { density, .. }) if density < 0.25
        ));
    }

    #[test]
    fn im2col_executor_matches_reference_conv() {
        let mut rng = Rng::seed_from(3);
        for &(oc, ic, hw, stride, pad) in &[(4, 3, 8, 1, 1), (3, 5, 7, 2, 1), (2, 2, 5, 1, 0)] {
            let geo = Conv2dGeometry::new(oc, ic, 3, 3, hw, hw, stride, pad);
            let weights = Tensor::randn(&[oc, ic, 3, 3], &mut rng);
            let bias: Vec<f32> = (0..oc).map(|_| rng.uniform(-0.5, 0.5)).collect();
            let input = Tensor::randn(&[2, ic, hw, hw], &mut rng);
            let want = conv2d_ref(&input, &weights, Some(&bias), &geo);
            let exec = Im2colConv::new(geo, &weights, bias);
            let mut out = Tensor::zeros(want.shape());
            exec.run_into(&input, &mut out);
            // Run again from the pooled scratch: results must not drift.
            exec.run_into(&input, &mut out);
            assert!(
                want.approx_eq(&out, 1e-4),
                "oc={oc} ic={ic} hw={hw}: {:?}",
                want.max_abs_diff(&out)
            );
            assert!(exec.packed_bytes() > 0);
        }
    }

    #[test]
    fn winograd_executor_matches_reference_conv() {
        let mut rng = Rng::seed_from(4);
        for &(oc, ic, hw, pad) in &[(4, 3, 8, 1), (2, 2, 7, 1), (3, 1, 5, 0)] {
            let geo = Conv2dGeometry::new(oc, ic, 3, 3, hw, hw, 1, pad);
            let weights = Tensor::randn(&[oc, ic, 3, 3], &mut rng);
            let bias: Vec<f32> = (0..oc).map(|_| rng.uniform(-0.5, 0.5)).collect();
            let input = Tensor::randn(&[2, ic, hw, hw], &mut rng);
            let want = conv2d_ref(&input, &weights, Some(&bias), &geo);
            let exec = WinogradConv::new(geo, &weights, bias);
            let mut out = Tensor::zeros(want.shape());
            exec.run_into(&input, &mut out);
            exec.run_into(&input, &mut out);
            assert!(
                want.approx_eq(&out, 1e-3),
                "oc={oc} ic={ic} hw={hw}: {:?}",
                want.max_abs_diff(&out)
            );
        }
    }

    #[test]
    fn executors_match_direct_fkw_lowering() {
        // The executors consume `to_dense()` weights: outputs must match
        // the pattern-aware direct path on a genuinely pruned layer.
        let fkw = pruned_fkw(8, 8, 64, 5);
        let geo = Conv2dGeometry::new(8, 8, 3, 3, 8, 8, 1, 1);
        let mut rng = Rng::seed_from(6);
        let input = Tensor::randn(&[1, 8, 8, 8], &mut rng);
        let bias: Vec<f32> = (0..8).map(|_| rng.uniform(-0.5, 0.5)).collect();
        let dense = fkw.to_dense();
        let want = conv2d_ref(&input, &dense, Some(&bias), &geo);

        let im2col = Im2colConv::new(geo, &dense, bias.clone());
        let mut got = Tensor::zeros(want.shape());
        im2col.run_into(&input, &mut got);
        assert!(want.approx_eq(&got, 1e-4));

        assert_eq!(winograd_eligible(&geo, &fkw), Ok(()));
        let wino = WinogradConv::new(geo, &dense, bias);
        let mut got_w = Tensor::zeros(want.shape());
        wino.run_into(&input, &mut got_w);
        assert!(want.approx_eq(&got_w, 1e-3));
    }
}
