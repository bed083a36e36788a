//! Pattern-based convolution executors over FKW storage.
//!
//! Four variants mirror Figure 13's optimization levels; each is the Rust
//! interpretation of the corresponding generated kernel of Figure 7:
//!
//! - [`OptLevel::NoOpt`] — iterates kernels in original order with a
//!   per-kernel dispatch *inside* the pixel loops (the branchy `switch`).
//! - [`OptLevel::Reorder`] — traverses FKW pattern runs: the dispatch is
//!   hoisted out of the pixel loops; execution is branch-free inside.
//! - [`OptLevel::ReorderLre`] — adds kernel-level load redundancy
//!   elimination: an output-stationary register tile
//!   ([`patdnn_tensor::kernels::pattern_tile`]) holds eight vectors of
//!   one filter's outputs while every stored kernel of the filter is
//!   walked, and writes them once, bias and fused ReLU included.
//! - [`OptLevel::Full`] — adds filter-level LRE (adjacent filters whose
//!   kernels coincide share a tile and its input loads) and the tuned
//!   blocking of the job loop; see [`crate::tile`] for how each
//!   [`TuningConfig`] field maps onto the loops.
//!
//! `NoOpt` and `Reorder` are the ablation's baselines: they keep the
//! per-pixel bounds-checked body on the raw input, by definition. The
//! tiled levels stage the input once per batch item into a zero-haloed
//! scratch image and never branch on a border; every stride runs
//! through the same unit-stride tile (strided layers are staged split by
//! column phase), so no layer falls back to the checked body.

use patdnn_compiler::fkw::FkwLayer;
use patdnn_compiler::tune::space::TuningConfig;
use patdnn_core::pattern::Pattern;
use patdnn_tensor::kernels::{self, TileEpilogue};
use patdnn_tensor::{Conv2dGeometry, Tensor};

use crate::executor::ConvExecutor;
use crate::tile::{unstored_filters, TileJob, TilePlan};

/// Optimization level of the pattern executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OptLevel {
    /// Branchy per-kernel dispatch (pre-reorder execution).
    NoOpt,
    /// Filter-kernel reordered, branch-free pattern runs.
    Reorder,
    /// Plus kernel-level load redundancy elimination.
    ReorderLre,
    /// Plus filter-level LRE and tuned tiles/unrolls.
    Full,
}

impl OptLevel {
    /// Display label matching Figure 13.
    pub fn label(&self) -> &'static str {
        match self {
            OptLevel::NoOpt => "No-Opt",
            OptLevel::Reorder => "Reorder",
            OptLevel::ReorderLre => "Reorder+LRE",
            OptLevel::Full => "Reorder+LRE+Tune",
        }
    }

    /// All levels in ascending optimization order.
    pub fn all() -> [OptLevel; 4] {
        [
            OptLevel::NoOpt,
            OptLevel::Reorder,
            OptLevel::ReorderLre,
            OptLevel::Full,
        ]
    }
}

/// Pattern-based sparse convolution executor over FKW storage.
pub struct PatternConv {
    geo: Conv2dGeometry,
    fkw: FkwLayer,
    bias: Option<Vec<f32>>,
    level: OptLevel,
    /// Clamp negatives to zero on the way out (fused activation).
    relu: bool,
    /// `(kh, kw)` taps per pattern, for the checked body.
    taps: Vec<Vec<(usize, usize)>>,
    /// Per-kernel weight base offsets (uniform entries per kernel).
    entries: usize,
    /// Filters with no storage row (their planes are bias-only).
    unstored: Vec<usize>,
    /// The staged layout and tap offsets of the tiled levels; `None`
    /// exactly at `NoOpt` and `Reorder`.
    tile: Option<TilePlan>,
    /// The serial schedule: every storage row writing its filter's
    /// plane — in original filter order at `NoOpt`, in storage order
    /// above it.
    serial: RowSet,
}

/// Storage rows prepared for [`PatternConv::run_rows`]: each row with
/// the output plane it writes, and at the tiled levels the rows' tile
/// jobs. This is the unit of work the parallel runner hands each thread.
pub(crate) struct RowSet {
    rows: Vec<(usize, usize)>,
    jobs: Vec<TileJob>,
}

impl RowSet {
    /// `rows` — `(storage row, output plane it writes)` — with their
    /// tile jobs under `plan` (none at the checked levels).
    fn new(plan: Option<&TilePlan>, rows: Vec<(usize, usize)>) -> Self {
        let jobs = plan.map_or_else(Vec::new, |plan| plan.jobs_for(&rows));
        RowSet { rows, jobs }
    }

    pub(crate) fn len(&self) -> usize {
        self.rows.len()
    }

    /// The storage rows, in the set's order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = usize> + '_ {
        self.rows.iter().map(|&(row, _)| row)
    }
}

impl PatternConv {
    /// Creates the executor.
    ///
    /// Tile and unroll values the register tile cannot honour are
    /// clamped (see [`crate::tile`]), never rejected.
    ///
    /// # Panics
    ///
    /// Panics if the FKW layer disagrees with the geometry.
    pub fn new(
        geo: Conv2dGeometry,
        fkw: FkwLayer,
        bias: Option<Vec<f32>>,
        level: OptLevel,
        tuning: TuningConfig,
    ) -> Self {
        assert_eq!(fkw.out_c, geo.out_channels, "filter count mismatch");
        assert_eq!(fkw.in_c, geo.in_channels, "channel count mismatch");
        assert_eq!(fkw.kernel, geo.kernel_h, "kernel size mismatch");
        let taps = fkw.patterns.iter().map(Pattern::positions).collect();
        let entries = fkw.entries_per_kernel;
        let tile = match level {
            OptLevel::NoOpt | OptLevel::Reorder => None,
            OptLevel::ReorderLre | OptLevel::Full => {
                Some(TilePlan::new(&geo, &fkw, level, &tuning, false))
            }
        };
        let mut rows: Vec<(usize, usize)> = fkw.rows().collect();
        if level == OptLevel::NoOpt {
            // Original filter order: the pre-reorder walk of Figure 7.
            rows.sort_by_key(|&(_, f)| f);
        }
        PatternConv {
            unstored: unstored_filters(geo.out_channels, &fkw.reorder),
            geo,
            fkw,
            bias,
            level,
            relu: false,
            taps,
            entries,
            serial: RowSet::new(tile.as_ref(), rows),
            tile,
        }
    }

    /// Fuses `max(0)` into the executor's output: at the tiled levels it
    /// is applied in the tile's epilogue, so the plane is never re-read.
    pub fn with_relu(mut self, relu: bool) -> Self {
        self.relu = relu;
        self
    }

    /// The FKW storage backing this executor.
    pub fn fkw(&self) -> &FkwLayer {
        &self.fkw
    }

    /// The optimization level.
    pub fn level(&self) -> OptLevel {
        self.level
    }

    /// How many filters share a tile with a neighbour (filter-level
    /// LRE): rows whose stored kernels coincide with an adjacent row's,
    /// grouped up to the clamped `unroll_oc`. Zero below
    /// [`OptLevel::Full`].
    pub fn rows_sharing_a_tile(&self) -> usize {
        self.serial
            .jobs
            .iter()
            .map(|job| job.shape.filters())
            .filter(|&filters| filters > 1)
            .sum()
    }

    /// Fraction of dense MACs actually executed.
    pub fn compute_fraction(&self) -> f64 {
        let dense = self.geo.in_channels * self.geo.kernel_h * self.geo.kernel_w;
        let actual = self.fkw.stored_kernels() * self.entries;
        actual as f64 / (dense * self.geo.out_channels) as f64
    }

    fn bias_of(&self, f: usize) -> f32 {
        self.bias.as_ref().map_or(0.0, |b| b[f])
    }

    /// Accumulates one kernel over the whole output plane with per-pixel
    /// bounds checks: the body of the `NoOpt` and `Reorder` baselines.
    fn kernel_plane_checked(
        &self,
        taps: &[(usize, usize)],
        w: &[f32],
        in_plane: &[f32],
        out_plane: &mut [f32],
    ) {
        let g = &self.geo;
        for oh in 0..g.out_h {
            let orow = oh * g.out_w;
            for ow in 0..g.out_w {
                let mut acc = 0.0f32;
                for (e, &(kh, kw)) in taps.iter().enumerate() {
                    let ih = (oh * g.stride + kh) as isize - g.pad as isize;
                    let iw = (ow * g.stride + kw) as isize - g.pad as isize;
                    if ih >= 0 && ih < g.in_h as isize && iw >= 0 && iw < g.in_w as isize {
                        acc += w[e] * in_plane[ih as usize * g.in_w + iw as usize];
                    }
                }
                out_plane[orow + ow] += acc;
            }
        }
    }

    /// One storage row's plane by the checked body: bias, every stored
    /// kernel of the row in pattern-run order, then the fused ReLU.
    fn row_plane_checked(&self, input: &[f32], row: usize, plane: &mut [f32]) {
        let in_hw = self.geo.in_h * self.geo.in_w;
        plane.fill(self.bias_of(self.fkw.reorder[row] as usize));
        for (p, taps) in self.taps.iter().enumerate() {
            for k in self.fkw.pattern_run(row, p) {
                let ic = self.fkw.index[k] as usize;
                let w = &self.fkw.weights[k * self.entries..(k + 1) * self.entries];
                self.kernel_plane_checked(taps, w, &input[ic * in_hw..(ic + 1) * in_hw], plane);
            }
        }
        if self.relu {
            plane.iter_mut().for_each(|v| *v = v.max(0.0));
        }
    }

    /// The original filter stored at `row`.
    pub(crate) fn filter_of(&self, row: usize) -> usize {
        self.fkw.reorder[row] as usize
    }

    /// Prepares `rows` — `(storage row, output plane it writes)` — for
    /// [`PatternConv::run_rows`].
    pub(crate) fn row_set(&self, rows: Vec<(usize, usize)>) -> RowSet {
        RowSet::new(self.tile.as_ref(), rows)
    }

    /// Runs `f` on one batch item staged for the tiled levels (on an
    /// empty image at the checked levels, which read the raw input).
    /// The image comes from, and returns to, the shared scratch pool.
    pub(crate) fn with_staged<R>(&self, input: &[f32], f: impl FnOnce(&[f32]) -> R) -> R {
        match &self.tile {
            Some(plan) => plan.with_staged(input, f),
            None => f(&[]),
        }
    }

    /// Computes the planes of `set`'s rows for one batch item into the
    /// planes of `out` the set names: the one driver behind the serial
    /// and the parallel runner. `staged` is the item as
    /// [`PatternConv::with_staged`] hands it out; any number of threads
    /// may share it.
    pub(crate) fn run_rows(&self, input: &[f32], staged: &[f32], set: &RowSet, out: &mut [f32]) {
        match &self.tile {
            Some(plan) => {
                let kernel = kernels::active_kernel();
                plan.run_jobs(
                    &set.jobs,
                    staged,
                    &self.fkw.weights,
                    out,
                    |job| TileEpilogue {
                        bias: job.filters.map(|f| self.bias_of(f)),
                        relu: self.relu,
                        ..TileEpilogue::default()
                    },
                    |tile, epi, out| kernel.pattern_tile_f32(tile, epi, out),
                );
            }
            // `NoOpt` and `Reorder`: the per-row checked body.
            None => {
                let hw = self.geo.out_h * self.geo.out_w;
                for &(row, dst) in &set.rows {
                    self.row_plane_checked(input, row, &mut out[dst * hw..(dst + 1) * hw]);
                }
            }
        }
    }
}

impl PatternConv {
    /// Runs the layer into a caller-provided output tensor, reusing its
    /// allocation across calls (the serving engine's buffer-reuse path).
    /// A warm call allocates nothing: the staged image comes from the
    /// shared scratch pool.
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
        let out_img = g.out_channels * g.out_h * g.out_w;
        let hw = g.out_h * g.out_w;
        for n in 0..s.n {
            let (ind, outd) = (
                &input.data()[n * in_img..(n + 1) * in_img],
                &mut out.data_mut()[n * out_img..(n + 1) * out_img],
            );
            self.with_staged(ind, |staged| self.run_rows(ind, staged, &self.serial, outd));
            for &f in &self.unstored {
                let b = self.bias_of(f);
                outd[f * hw..(f + 1) * hw].fill(if self.relu { b.max(0.0) } else { b });
            }
        }
    }
}

impl ConvExecutor for PatternConv {
    fn name(&self) -> &str {
        match self.level {
            OptLevel::NoOpt => "pattern-noopt",
            OptLevel::Reorder => "pattern-reorder",
            OptLevel::ReorderLre => "pattern-lre",
            OptLevel::Full => "pattern-full",
        }
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

/// Builds all four optimization-level executors for one pruned layer.
pub fn all_levels(
    geo: Conv2dGeometry,
    fkw: &FkwLayer,
    bias: Option<Vec<f32>>,
    tuning: TuningConfig,
) -> Vec<PatternConv> {
    OptLevel::all()
        .into_iter()
        .map(|level| PatternConv::new(geo, fkw.clone(), bias.clone(), level, tuning))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::assert_matches_reference;
    use crate::test_layers;
    use patdnn_compiler::fkr::filter_kernel_reorder;
    use patdnn_core::pattern_set::PatternSet;
    use patdnn_core::project::prune_layer;
    use patdnn_tensor::rng::Rng;

    fn pruned_fkw(oc: usize, ic: usize, alpha: usize, seed: u64) -> (Tensor, FkwLayer) {
        let mut rng = Rng::seed_from(seed);
        let mut w = Tensor::randn(&[oc, ic, 3, 3], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("t", &mut w, &set, alpha);
        let order = filter_kernel_reorder(&lp);
        let fkw = FkwLayer::from_pruned(&w, &lp, &set, &order);
        (w, fkw)
    }

    #[test]
    fn all_levels_match_reference() {
        let geo = Conv2dGeometry::new(8, 6, 3, 3, 11, 11, 1, 1);
        let (w, fkw) = pruned_fkw(8, 6, 20, 1);
        let mut rng = Rng::seed_from(2);
        let bias: Vec<f32> = (0..8).map(|_| rng.uniform(-0.5, 0.5)).collect();
        for exec in all_levels(geo, &fkw, Some(bias.clone()), TuningConfig::tuned_default()) {
            assert_matches_reference(&exec, &w, Some(&bias), 1e-3, 3);
        }
    }

    #[test]
    fn strided_pattern_layer_matches_reference() {
        // Stride 2 stages the input split by column phase.
        let geo = Conv2dGeometry::new(4, 4, 3, 3, 9, 9, 2, 1);
        let (w, fkw) = pruned_fkw(4, 4, 8, 4);
        for exec in all_levels(geo, &fkw, None, TuningConfig::tuned_default()) {
            assert_matches_reference(&exec, &w, None, 1e-3, 5);
        }
    }

    #[test]
    fn connectivity_only_1x1_layer_matches_reference() {
        let mut rng = Rng::seed_from(6);
        let mut w = Tensor::randn(&[8, 8, 1, 1], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("proj", &mut w, &set, 16);
        let order = filter_kernel_reorder(&lp);
        let fkw = FkwLayer::from_pruned(&w, &lp, &set, &order);
        let geo = Conv2dGeometry::new(8, 8, 1, 1, 7, 7, 1, 0);
        for exec in all_levels(geo, &fkw, None, TuningConfig::tuned_default()) {
            assert_matches_reference(&exec, &w, None, 1e-3, 7);
        }
    }

    /// Every shape class the tile handles, as `(kernel, stride, pad,
    /// input size)`: unit and strided 3×3, padded and not, 1×1 dense and
    /// strided, and a stride past the kernel (rows and phases no tap
    /// reaches).
    const SHAPES: [(usize, usize, usize, usize); 7] = [
        (3, 1, 1, 11),
        (3, 1, 0, 10),
        (3, 2, 1, 9),
        (3, 3, 1, 13),
        (1, 1, 0, 7),
        (1, 2, 0, 8),
        (1, 3, 1, 9),
    ];

    #[test]
    fn tiled_levels_match_reference_on_every_shape_class_and_unroll() {
        for (k, stride, pad, hw) in SHAPES {
            let (w, fkw) = test_layers::pruned(6, 5, k, 14, 20 + k as u64);
            let geo = Conv2dGeometry::new(6, 5, k, k, hw, hw, stride, pad);
            let bias: Vec<f32> = (0..6).map(|f| f as f32 * 0.25 - 0.5).collect();
            for level in [OptLevel::ReorderLre, OptLevel::Full] {
                // 7 is not a tile the registers can split into: clamped
                // to 4, never rejected.
                for unroll_oc in [1, 2, 4, 7] {
                    let tuning = TuningConfig {
                        unroll_oc,
                        ..TuningConfig::tuned_default()
                    };
                    let exec =
                        PatternConv::new(geo, fkw.clone(), Some(bias.clone()), level, tuning);
                    assert_matches_reference(&exec, &w, Some(&bias), 1e-4, 5);
                }
            }
        }
    }

    #[test]
    fn coincident_filters_share_a_tile_without_changing_a_bit() {
        for (hw, stride) in [(8, 1), (16, 1), (33, 1), (15, 2)] {
            let (w, fkw) = test_layers::coincident(12, 6, 4, 31);
            let geo = Conv2dGeometry::new(12, 6, 3, 3, hw, hw, stride, 1);
            let with = |level, unroll_oc| {
                let tuning = TuningConfig {
                    unroll_oc,
                    ..TuningConfig::tuned_default()
                };
                PatternConv::new(geo, fkw.clone(), None, level, tuning)
            };
            assert_eq!(with(OptLevel::Full, 1).rows_sharing_a_tile(), 0);
            assert_eq!(with(OptLevel::ReorderLre, 4).rows_sharing_a_tile(), 0);
            assert_eq!(with(OptLevel::Full, 2).rows_sharing_a_tile(), 12);
            assert_eq!(with(OptLevel::Full, 4).rows_sharing_a_tile(), 12);
            assert_eq!(with(OptLevel::Full, 7).rows_sharing_a_tile(), 12);
            let mut rng = Rng::seed_from(32);
            let x = Tensor::randn(&[2, 6, hw, hw], &mut rng);
            let alone = with(OptLevel::Full, 1).run(&x);
            assert_matches_reference(&with(OptLevel::Full, 4), &w, None, 1e-4, 33);
            for unroll_oc in [2, 4, 7] {
                // Same arithmetic per output whatever shares the tile.
                assert_eq!(
                    with(OptLevel::Full, unroll_oc).run(&x),
                    alone,
                    "unroll_oc {unroll_oc}"
                );
            }
        }
    }

    #[test]
    fn a_filter_without_stored_kernels_is_its_bias() {
        // 5 kernels over 8 filters: at least three filters store nothing.
        let (w, fkw) = test_layers::pruned(8, 4, 3, 5, 41);
        let empty: Vec<usize> = fkw
            .rows()
            .filter(|&(row, _)| fkw.offsets[row] == fkw.offsets[row + 1])
            .map(|(_, f)| f)
            .collect();
        assert!(empty.len() >= 3);
        let geo = Conv2dGeometry::new(8, 4, 3, 3, 9, 9, 1, 1);
        let bias: Vec<f32> = (0..8).map(|f| f as f32 - 3.5).collect();
        for level in OptLevel::all() {
            let exec = PatternConv::new(
                geo,
                fkw.clone(),
                Some(bias.clone()),
                level,
                TuningConfig::tuned_default(),
            );
            assert_matches_reference(&exec, &w, Some(&bias), 1e-4, 42);
            let x = Tensor::randn(&[1, 4, 9, 9], &mut Rng::seed_from(43));
            let out = exec.run(&x);
            let fused = exec.with_relu(true).run(&x);
            for &f in &empty {
                assert!(out.data()[f * 81..(f + 1) * 81]
                    .iter()
                    .all(|&v| v == bias[f]));
                assert!(fused.data()[f * 81..(f + 1) * 81]
                    .iter()
                    .all(|&v| v == bias[f].max(0.0)));
            }
        }
    }

    #[test]
    fn fused_relu_is_run_into_then_max_zero() {
        for (k, stride, pad, hw) in SHAPES {
            let (_, fkw) = test_layers::pruned(6, 5, k, 14, 50);
            let geo = Conv2dGeometry::new(6, 5, k, k, hw, hw, stride, pad);
            let bias: Vec<f32> = (0..6).map(|f| 0.3 - f as f32 * 0.2).collect();
            let x = Tensor::randn(&[2, 5, hw, hw], &mut Rng::seed_from(51));
            for level in OptLevel::all() {
                let exec = PatternConv::new(
                    geo,
                    fkw.clone(),
                    Some(bias.clone()),
                    level,
                    TuningConfig::tuned_default(),
                );
                let mut want = exec.run(&x);
                want.map_inplace(|v| v.max(0.0));
                assert_eq!(exec.with_relu(true).run(&x), want, "{}", level.label());
            }
        }
    }

    #[test]
    fn compute_fraction_reflects_pruning() {
        let geo = Conv2dGeometry::new(8, 8, 3, 3, 8, 8, 1, 1);
        let (_, fkw) = pruned_fkw(8, 8, 16, 8);
        let exec = PatternConv::new(geo, fkw, None, OptLevel::Full, TuningConfig::baseline());
        // 16 kernels of 4 entries out of 64 kernels of 9 entries.
        let expect = (16.0 * 4.0) / (64.0 * 9.0);
        assert!((exec.compute_fraction() - expect).abs() < 1e-9);
    }

    #[test]
    fn batched_input_matches_itemwise_runs_bit_for_bit() {
        let mut rng = Rng::seed_from(10);
        let items: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[1, 4, 8, 8], &mut rng))
            .collect();
        let mut batch = Tensor::zeros(&[3, 4, 8, 8]);
        for (n, item) in items.iter().enumerate() {
            batch.data_mut()[n * item.len()..(n + 1) * item.len()].copy_from_slice(item.data());
        }
        let geo = Conv2dGeometry::new(4, 4, 3, 3, 8, 8, 1, 1);
        let (_, fkw) = pruned_fkw(4, 4, 10, 9);
        for exec in all_levels(geo, &fkw, None, TuningConfig::tuned_default()) {
            let out = exec.run(&batch);
            for (n, item) in items.iter().enumerate() {
                let alone = exec.run(item);
                assert_eq!(
                    &out.data()[n * alone.len()..(n + 1) * alone.len()],
                    alone.data(),
                    "{} item {n}",
                    exec.name()
                );
            }
        }
    }

    #[test]
    fn levels_report_distinct_names() {
        let geo = Conv2dGeometry::new(4, 4, 3, 3, 6, 6, 1, 1);
        let (_, fkw) = pruned_fkw(4, 4, 8, 11);
        let names: Vec<&str> = all_levels(geo, &fkw, None, TuningConfig::baseline())
            .iter()
            .map(|e| match e.level() {
                OptLevel::NoOpt => "pattern-noopt",
                OptLevel::Reorder => "pattern-reorder",
                OptLevel::ReorderLre => "pattern-lre",
                OptLevel::Full => "pattern-full",
            })
            .collect();
        assert_eq!(
            names,
            vec![
                "pattern-noopt",
                "pattern-reorder",
                "pattern-lre",
                "pattern-full"
            ]
        );
    }
}
