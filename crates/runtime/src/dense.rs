//! Dense convolution executors mirroring the evaluated frameworks.
//!
//! The paper compares against TFLite, TVM, and MNN. Per DESIGN.md §2 we
//! re-implement each framework's *characteristic execution strategy* on
//! the shared substrate:
//!
//! - [`NaiveConv`] — a plain untiled loop nest, no auto-tuning
//!   (TFLite-like behaviour on CPU conv layers).
//! - [`Im2colConv`] — im2col + blocked GEMM with a fixed default schedule
//!   (TVM-like default).
//! - [`WinogradConv`] — Winograd `F(2x2, 3x3)` with im2col fallback
//!   (MNN-like; the paper enables Winograd "for all dense runs").
//! - [`TiledConv`] — PatDNN's own optimized dense kernel: output tiling,
//!   4-wide output-width unrolling, branch-free interior path. The dense
//!   baseline of Figure 17.
//!
//! [`DenseTileConv`] is not a baseline but the serving engine's dense
//! lowering: the pattern executors' register tile on a layer where every
//! filter holds every kernel.

use patdnn_tensor::im2col::conv2d_im2col;
use patdnn_tensor::kernels::{self, MicroKernel, TileEpilogue};
use patdnn_tensor::winograd::conv2d_winograd;
use patdnn_tensor::{conv2d_ref, Conv2dGeometry, Tensor};

use crate::executor::ConvExecutor;
use crate::tile::{TileJob, TilePlan};

/// Plain direct loop nest (TFLite-like).
pub struct NaiveConv {
    geo: Conv2dGeometry,
    weights: Tensor,
    bias: Option<Vec<f32>>,
}

impl NaiveConv {
    /// Creates the executor.
    pub fn new(geo: Conv2dGeometry, weights: Tensor, bias: Option<Vec<f32>>) -> Self {
        assert_eq!(
            weights.shape4(),
            geo.weight_shape(),
            "weight shape mismatch"
        );
        NaiveConv { geo, weights, bias }
    }
}

impl ConvExecutor for NaiveConv {
    fn name(&self) -> &str {
        "dense-naive"
    }

    fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }

    fn run(&self, input: &Tensor) -> Tensor {
        conv2d_ref(input, &self.weights, self.bias.as_deref(), &self.geo)
    }
}

/// im2col + blocked GEMM with a fixed schedule (TVM-like default).
pub struct Im2colConv {
    geo: Conv2dGeometry,
    weights: Tensor,
    bias: Option<Vec<f32>>,
}

impl Im2colConv {
    /// Creates the executor.
    pub fn new(geo: Conv2dGeometry, weights: Tensor, bias: Option<Vec<f32>>) -> Self {
        assert_eq!(
            weights.shape4(),
            geo.weight_shape(),
            "weight shape mismatch"
        );
        Im2colConv { geo, weights, bias }
    }
}

impl ConvExecutor for Im2colConv {
    fn name(&self) -> &str {
        "dense-im2col"
    }

    fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }

    fn run(&self, input: &Tensor) -> Tensor {
        conv2d_im2col(input, &self.weights, self.bias.as_deref(), &self.geo)
    }
}

/// Winograd for 3×3/stride-1 layers, im2col elsewhere (MNN-like).
pub struct WinogradConv {
    geo: Conv2dGeometry,
    weights: Tensor,
    bias: Option<Vec<f32>>,
}

impl WinogradConv {
    /// Creates the executor.
    pub fn new(geo: Conv2dGeometry, weights: Tensor, bias: Option<Vec<f32>>) -> Self {
        assert_eq!(
            weights.shape4(),
            geo.weight_shape(),
            "weight shape mismatch"
        );
        WinogradConv { geo, weights, bias }
    }

    /// Whether this layer actually uses the Winograd path.
    pub fn uses_winograd(&self) -> bool {
        self.geo.kernel_h == 3 && self.geo.kernel_w == 3 && self.geo.stride == 1
    }
}

impl ConvExecutor for WinogradConv {
    fn name(&self) -> &str {
        "dense-winograd"
    }

    fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }

    fn run(&self, input: &Tensor) -> Tensor {
        if self.uses_winograd() {
            conv2d_winograd(input, &self.weights, self.bias.as_deref(), &self.geo)
        } else {
            conv2d_im2col(input, &self.weights, self.bias.as_deref(), &self.geo)
        }
    }
}

/// PatDNN's optimized dense kernel: spatial tiling plus 4-wide
/// output-width unrolling with a branch-free interior fast path.
pub struct TiledConv {
    geo: Conv2dGeometry,
    weights: Tensor,
    bias: Option<Vec<f32>>,
}

impl TiledConv {
    /// Creates the executor.
    pub fn new(geo: Conv2dGeometry, weights: Tensor, bias: Option<Vec<f32>>) -> Self {
        assert_eq!(
            weights.shape4(),
            geo.weight_shape(),
            "weight shape mismatch"
        );
        TiledConv { geo, weights, bias }
    }
}

impl ConvExecutor for TiledConv {
    fn name(&self) -> &str {
        "dense-tiled"
    }

    fn geometry(&self) -> &Conv2dGeometry {
        &self.geo
    }

    fn run(&self, input: &Tensor) -> Tensor {
        let g = &self.geo;
        let batch = input.shape4().n;
        assert_eq!(input.shape4().c, g.in_channels, "input channel mismatch");
        let mut out = Tensor::zeros(&[batch, g.out_channels, g.out_h, g.out_w]);
        let in_hw = g.in_h * g.in_w;
        let out_hw = g.out_h * g.out_w;
        let ksize = g.kernel_h * g.kernel_w;
        let wd = self.weights.data();
        let ind = input.data();
        let od = out.data_mut();

        // Interior region where no padding checks are needed.
        let interior = |o: usize, k: usize, limit: usize| -> bool {
            let lo = o * g.stride;
            let hi = o * g.stride + k;
            lo >= g.pad && hi <= limit + g.pad
        };

        for n in 0..batch {
            for oc in 0..g.out_channels {
                let obase = (n * g.out_channels + oc) * out_hw;
                let b = self.bias.as_ref().map_or(0.0, |b| b[oc]);
                od[obase..obase + out_hw].iter_mut().for_each(|v| *v = b);
                for ic in 0..g.in_channels {
                    let ibase = (n * g.in_channels + ic) * in_hw;
                    let wbase = (oc * g.in_channels + ic) * ksize;
                    for oh in 0..g.out_h {
                        let fast_h = interior(oh, g.kernel_h, g.in_h);
                        let orow = obase + oh * g.out_w;
                        let mut ow = 0;
                        // 4-wide unrolled interior fast path.
                        while ow + 4 <= g.out_w
                            && fast_h
                            && interior(ow, g.kernel_w, g.in_w)
                            && interior(ow + 3, g.kernel_w, g.in_w)
                        {
                            let mut acc = [0.0f32; 4];
                            for kh in 0..g.kernel_h {
                                let ih = oh * g.stride + kh - g.pad;
                                let irow = ibase + ih * g.in_w;
                                for kw in 0..g.kernel_w {
                                    let w = wd[wbase + kh * g.kernel_w + kw];
                                    let i0 = irow + ow * g.stride + kw - g.pad;
                                    acc[0] += w * ind[i0];
                                    acc[1] += w * ind[i0 + g.stride];
                                    acc[2] += w * ind[i0 + 2 * g.stride];
                                    acc[3] += w * ind[i0 + 3 * g.stride];
                                }
                            }
                            od[orow + ow] += acc[0];
                            od[orow + ow + 1] += acc[1];
                            od[orow + ow + 2] += acc[2];
                            od[orow + ow + 3] += acc[3];
                            ow += 4;
                        }
                        // Slow path with bounds checks.
                        while ow < g.out_w {
                            let mut acc = 0.0f32;
                            for kh in 0..g.kernel_h {
                                let ih = (oh * g.stride + kh) as isize - g.pad as isize;
                                if ih < 0 || ih >= g.in_h as isize {
                                    continue;
                                }
                                for kw in 0..g.kernel_w {
                                    let iw = (ow * g.stride + kw) as isize - g.pad as isize;
                                    if iw < 0 || iw >= g.in_w as isize {
                                        continue;
                                    }
                                    acc += wd[wbase + kh * g.kernel_w + kw]
                                        * ind[ibase + ih as usize * g.in_w + iw as usize];
                                }
                            }
                            od[orow + ow] += acc;
                            ow += 1;
                        }
                    }
                }
            }
        }
        out
    }
}

/// Dense convolution as the all-kernels-present case of the pattern
/// tile: what an im2col + GEMM lowering computes, without the patch
/// matrix.
///
/// Each batch item is staged once into the zero-haloed image the pattern
/// executors use ([`patdnn_tensor::kernels::StagedLayout`]); a tile of
/// four filters × sixteen output columns — the packed GEMM's register
/// block — then walks one shared table of `in_c · kernel_h · kernel_w`
/// tap offsets into it, reading the OIHW weights in place, and writes
/// `acc + bias` (and the fused ReLU) once. Nothing is packed per call
/// and nothing is allocated on a warm call: the staged image comes from
/// the pattern executors' scratch pool.
pub struct DenseTileConv {
    geo: Conv2dGeometry,
    /// OIHW weights: filter `f`'s taps are `weights[f · in_c · kh · kw ..]`.
    weights: Vec<f32>,
    /// Empty for a layer without bias.
    bias: Vec<f32>,
    relu: bool,
    plan: TilePlan,
    jobs: Vec<TileJob>,
}

impl DenseTileConv {
    /// Builds the executor from a layer's dense OIHW weights; an empty
    /// `bias` means none.
    ///
    /// # Panics
    ///
    /// Panics if `weights` disagrees with `geo` or `bias` is neither
    /// empty nor `out_channels` long.
    pub fn new(geo: Conv2dGeometry, weights: &Tensor, bias: Vec<f32>) -> Self {
        assert_eq!(
            weights.shape4(),
            geo.weight_shape(),
            "weight shape mismatch"
        );
        assert!(
            bias.is_empty() || bias.len() == geo.out_channels,
            "bias arity"
        );
        let plan = TilePlan::dense(&geo);
        let jobs = plan.jobs_for(&plan.serial_rows());
        DenseTileConv {
            geo,
            weights: weights.data().to_vec(),
            bias,
            relu: false,
            plan,
            jobs,
        }
    }

    /// Fuses `max(0)` into the tile's epilogue.
    pub fn with_relu(mut self, relu: bool) -> Self {
        self.relu = relu;
        self
    }

    /// Bytes of weights held in the form the tile reads (the OIHW tensor
    /// itself: the tile needs no panel layout).
    pub fn packed_bytes(&self) -> usize {
        std::mem::size_of_val(&self.weights[..])
    }

    /// Runs the convolution on a batched NCHW input, overwriting `out`.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `out` disagrees with the geometry.
    pub fn run_into(&self, input: &Tensor, out: &mut Tensor) {
        self.run_with(kernels::active_kernel(), input, out);
    }

    fn run_with(&self, kernel: &dyn MicroKernel, input: &Tensor, out: &mut Tensor) {
        let g = &self.geo;
        let s = input.shape4();
        assert_eq!(
            (s.c, s.h, s.w),
            (g.in_channels, g.in_h, g.in_w),
            "input shape mismatch"
        );
        assert_eq!(
            out.shape(),
            &[s.n, g.out_channels, g.out_h, g.out_w],
            "output buffer shape mismatch"
        );
        let in_img = g.in_channels * g.in_h * g.in_w;
        let out_img = g.out_channels * g.out_h * g.out_w;
        let items = input.data().chunks_exact(in_img);
        for (item, planes) in items.zip(out.data_mut().chunks_exact_mut(out_img)) {
            self.plan.with_staged(item, |staged| {
                self.plan.run_jobs(
                    &self.jobs,
                    staged,
                    &self.weights,
                    planes,
                    |job| TileEpilogue {
                        bias: job
                            .filters
                            .map(|f| self.bias.get(f).copied().unwrap_or(0.0)),
                        relu: self.relu,
                        ..TileEpilogue::default()
                    },
                    |tile, epi, out| kernel.pattern_tile_f32(tile, epi, out),
                );
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::assert_matches_reference;
    use patdnn_tensor::rng::Rng;

    fn build(geo: Conv2dGeometry, seed: u64) -> (Tensor, Vec<f32>) {
        let mut rng = Rng::seed_from(seed);
        let w = Tensor::randn(
            &[
                geo.out_channels,
                geo.in_channels,
                geo.kernel_h,
                geo.kernel_w,
            ],
            &mut rng,
        );
        let b: Vec<f32> = (0..geo.out_channels)
            .map(|_| rng.uniform(-0.5, 0.5))
            .collect();
        (w, b)
    }

    #[test]
    fn all_dense_executors_match_reference() {
        for &(oc, ic, k, hw, stride, pad) in &[
            (4, 3, 3, 9, 1, 1),
            (2, 5, 3, 8, 2, 1),
            (3, 2, 1, 7, 1, 0),
            (2, 2, 7, 16, 2, 3),
        ] {
            let geo = Conv2dGeometry::new(oc, ic, k, k, hw, hw, stride, pad);
            let (w, b) = build(geo, 7);
            let execs: Vec<Box<dyn ConvExecutor>> = vec![
                Box::new(NaiveConv::new(geo, w.clone(), Some(b.clone()))),
                Box::new(Im2colConv::new(geo, w.clone(), Some(b.clone()))),
                Box::new(WinogradConv::new(geo, w.clone(), Some(b.clone()))),
                Box::new(TiledConv::new(geo, w.clone(), Some(b.clone()))),
            ];
            for e in &execs {
                assert_matches_reference(e.as_ref(), &w, Some(&b), 1e-3, 99);
            }
        }
    }

    /// The grid of the dense tile: every kernel, stride, padding,
    /// filter-group remainder, channel count and tile-width class.
    /// Miri interprets a thinner one.
    fn tile_grid() -> Vec<(Conv2dGeometry, usize)> {
        let pick = |full: &'static [usize], thin: &'static [usize]| {
            if cfg!(miri) {
                thin
            } else {
                full
            }
        };
        let mut cases = Vec::new();
        for &k in pick(&[1, 3, 5], &[1, 3]) {
            for &stride in pick(&[1, 2, 3], &[1, 2]) {
                for &pad in pick(&[0, 1, 2], &[0, 1]) {
                    for &oc in pick(&[1, 3, 4, 7, 16], &[3, 7]) {
                        for &ic in pick(&[1, 3, 16], &[3]) {
                            for &w in pick(&[4, 7, 8, 9, 17, 32], &[4, 9, 17]) {
                                // Heights stay small (and differ from the
                                // width) to keep the reference cheap.
                                let h = k.max(4) + w % 2;
                                if w + 2 * pad < k {
                                    continue;
                                }
                                let geo = Conv2dGeometry::new(oc, ic, k, k, h, w, stride, pad);
                                let batch = [1, 3][cases.len() % 2];
                                cases.push((geo, batch));
                            }
                        }
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn dense_tile_matches_reference_on_the_whole_grid_under_every_variant() {
        let mut rng = Rng::seed_from(61);
        for (case, (geo, batch)) in tile_grid().into_iter().enumerate() {
            let g = &geo;
            let w_shape = [g.out_channels, g.in_channels, g.kernel_h, g.kernel_w];
            let w = Tensor::rand_uniform(&w_shape, -1.0, 1.0, &mut rng);
            let x =
                Tensor::rand_uniform(&[batch, g.in_channels, g.in_h, g.in_w], -1.0, 1.0, &mut rng);
            // Every fourth layer has no bias.
            let bias: Vec<f32> = if case % 4 == 0 {
                Vec::new()
            } else {
                (0..g.out_channels)
                    .map(|_| rng.uniform(-1.0, 1.0))
                    .collect()
            };
            let want = conv2d_ref(&x, &w, (!bias.is_empty()).then_some(&bias[..]), g);
            let mut want_relu = want.clone();
            want_relu.map_inplace(|v| v.max(0.0));
            for relu in [false, true] {
                let exec = DenseTileConv::new(geo, &w, bias.clone()).with_relu(relu);
                let want = if relu { &want_relu } else { &want };
                for variant in kernels::available_variants() {
                    let kernel = kernels::kernel_for(variant).expect("listed variants run here");
                    // Stale values from the previous layer: a plane the
                    // tile skipped would show.
                    let mut got = Tensor::filled(want.shape(), f32::NAN);
                    exec.run_with(kernel, &x, &mut got);
                    assert!(
                        want.approx_eq(&got, 1e-4),
                        "{} {geo:?} batch {batch} relu {relu}: max diff {:?}",
                        variant.label(),
                        want.max_abs_diff(&got)
                    );
                    // Batch-N is item by item, to the bit.
                    if relu && batch > 1 {
                        let (n, in_img, out_img) = (batch - 1, x.len() / batch, got.len() / batch);
                        let item = Tensor::from_vec(
                            &[1, g.in_channels, g.in_h, g.in_w],
                            x.data()[n * in_img..].to_vec(),
                        )
                        .expect("the last item");
                        let mut alone = Tensor::zeros(&[1, g.out_channels, g.out_h, g.out_w]);
                        exec.run_with(kernel, &item, &mut alone);
                        assert_eq!(&got.data()[n * out_img..], alone.data(), "{geo:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn dense_tile_handles_rectangular_kernels_and_reads_weights_in_place() {
        // A 1×3 kernel with pad 1 pads the rows too: two output rows more
        // than input rows, both bias-only.
        let geo = Conv2dGeometry::new(5, 2, 1, 3, 6, 9, 1, 1);
        let (w, b) = build(geo, 62);
        let x = Tensor::randn(&[1, 2, 6, 9], &mut Rng::seed_from(63));
        let want = conv2d_ref(&x, &w, Some(&b), &geo);
        let exec = DenseTileConv::new(geo, &w, b);
        let mut got = Tensor::zeros(want.shape());
        exec.run_into(&x, &mut got);
        assert!(want.approx_eq(&got, 1e-4), "{:?}", want.max_abs_diff(&got));
        assert_eq!(exec.packed_bytes(), w.len() * 4, "no panel padding");
    }

    #[test]
    fn winograd_path_selection() {
        let geo3 = Conv2dGeometry::new(2, 2, 3, 3, 8, 8, 1, 1);
        let (w, b) = build(geo3, 1);
        assert!(WinogradConv::new(geo3, w, Some(b)).uses_winograd());
        let geo1 = Conv2dGeometry::new(2, 2, 1, 1, 8, 8, 1, 0);
        let (w, b) = build(geo1, 2);
        assert!(!WinogradConv::new(geo1, w, Some(b)).uses_winograd());
    }

    #[test]
    fn tiled_handles_non_multiple_of_four_widths() {
        let geo = Conv2dGeometry::new(2, 2, 3, 3, 7, 7, 1, 1);
        let (w, b) = build(geo, 3);
        let exec = TiledConv::new(geo, w.clone(), Some(b.clone()));
        assert_matches_reference(&exec, &w, Some(&b), 1e-3, 4);
    }
}
