//! Per-layer execution tuning for the serving compiler (§5.5 wired
//! into deployment).
//!
//! PatDNN's compile-time story selects a tiling/unroll configuration
//! *per layer*: a GA explorer generates the configuration space and a
//! performance estimator trained on collected history predicts the best
//! point for quick deployment. This module runs both paths at
//! `serve::compile` time and returns the [`ExecConfig`] each
//! pattern-conv plan step is persisted with:
//!
//! - [`TunePolicy::Estimate`] — the paper's quick-deployment path: fit
//!   a [`PerfEstimator`] on this layer's cost surface (an analytic
//!   model over its [`FkwLayer`] storage and [`Conv2dGeometry`]), then
//!   pick the predicted-best configuration and the cheapest
//!   [`OptLevel`] at that configuration. Fully deterministic.
//! - [`TunePolicy::Measure`] — GA exploration with real timed runs via
//!   [`AutoTuner`], bounded by a measurement budget. The untuned
//!   default is always included in the final timed comparison, so a
//!   measured plan is never slower than the default by construction
//!   (up to timer noise).
//!
//! The analytic cost model is not a cycle-accurate simulator; it is a
//! deterministic surface in units of one stored multiply-accumulate of
//! the tiled executor, built from what the executor really does with a
//! configuration after clamping ([`EffectiveTuning`]): how many tile
//! calls and staged elements the layer costs, whether the job loop ends
//! up blocked and how much of a block L1 holds, and how many filters
//! share a tile. Knobs the output-stationary tile ignores (`permute`,
//! `unroll_w`) leave the surface flat, so the estimator cannot be talked
//! into preferring one value of them.

use std::time::Instant;

use patdnn_compiler::fkw::FkwLayer;
use patdnn_compiler::tune::ga::GaConfig;
use patdnn_compiler::tune::space::{ConfigSpace, ConvAlgo, TuningConfig};
use patdnn_compiler::tune::{AutoTuner, PerfEstimator};
use patdnn_runtime::executor::ConvExecutor;
use patdnn_runtime::parallel::{ParallelPattern, Schedule};
use patdnn_runtime::pattern_exec::{OptLevel, PatternConv};
use patdnn_runtime::tile::{EffectiveTuning, L1_BYTES};
use patdnn_tensor::kernels::{StagedLayout, TileShape};
use patdnn_tensor::rng::Rng;
use patdnn_tensor::{Conv2dGeometry, Tensor};

use crate::algo_exec::{winograd_eligible, Im2colConv, WinogradConv};
use crate::artifact::ExecConfig;

/// How `serve::compile` selects each pattern-conv step's [`ExecConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TunePolicy {
    /// No tuning: every step gets [`ExecConfig::default`] (the pre-tuning
    /// global configuration).
    Off,
    /// Estimator-only quick deployment: per layer, fit a
    /// [`PerfEstimator`] on the analytic cost surface and take its
    /// predicted-best configuration. No timed runs; deterministic.
    Estimate,
    /// GA exploration with real timed runs; `budget` caps (approximately)
    /// the number of distinct configurations measured per layer.
    Measure {
        /// Measured configurations per layer (clamped to at least 4).
        budget: usize,
    },
}

impl TunePolicy {
    /// Short label for reports and plan dumps.
    pub fn label(&self) -> &'static str {
        match self {
            TunePolicy::Off => "off",
            TunePolicy::Estimate => "estimate",
            TunePolicy::Measure { .. } => "measure",
        }
    }
}

// The constants below are per-MAC rates measured on the 2-core AVX2
// machine this was developed on (3×3, stride 1, pad 1, `c → c` channels,
// pruned 3.6× and unpruned-connectivity, batch 1, best of 30 × 10 runs),
// in picoseconds per multiply-accumulate:
//
// | layer        | Full tile | ReorderLre | Reorder / NoOpt | im2col    | Winograd |
// |              | (stored)  | (stored)   | (stored)        | (dense)   | (dense)  |
// |--------------|-----------|------------|-----------------|-----------|----------|
// | 16 @ 32×32   | 41–60     | 50–63      | 1710–1740       | 25.7–26.4 | 119      |
// | 32 @ 16×16   | 38–49     | 44–48      | 1580–1630       | 24.1–24.6 | 111      |
// | 64 @ 16×16   | 46        | 48         | 1620–1640       | 23.6–23.8 | 99–100   |
// | 64 @ 8×8     | 31–37     | 31–36      | 1610–1640       | 23.7–24.2 | 94       |
// | 128 @ 8×8    | 39–40     | 38–40      | 1630–1640       | 23.6–23.9 | 92–96    |
//
// One cost unit is one stored MAC of the tiled executor on a layer
// where the tile's fixed costs are amortized (≈ 38 ps). The spread of
// the first column is those fixed costs — a tile call with few kernels
// to walk, the staging copy — which are priced separately below. The
// im2col column was re-measured (minimum–median of 400 × 5 runs, staging
// included) when that lowering became the dense case of the same tile:
// four filters share every loaded input vector, so a dense MAC costs
// less than a stored one of a one-filter pattern tile.

/// Cost of one stored MAC at each level, in units of the `Full` tile's.
/// The two checked baselines pay a bounds test per tap per pixel and
/// re-read the output plane per kernel: forty times the tile.
/// `ReorderLre` is `Full` with nothing shared and nothing blocked —
/// never faster, equal when a layer offers neither — and the 2 % keeps
/// such a tie from selecting the lower level.
fn level_factor(level: OptLevel) -> f64 {
    match level {
        OptLevel::NoOpt => 43.0,
        OptLevel::Reorder => 42.0,
        OptLevel::ReorderLre => 1.02,
        OptLevel::Full => 1.0,
    }
}

/// Fixed cost of one tile call (dispatch, bounds checks, zeroing and
/// storing eight vectors), in MACs: the 16-channel 32×32 layer spends
/// 20 ps per MAC more than the amortized rate over 256 calls.
const TILE_CALL_MACS: f64 = 600.0;

/// Cost of staging one input element, halo writes included, in MACs
/// (16 k elements in 5 µs).
const STAGE_ELEMENT_MACS: f64 = 8.0;

/// Share of a layer's MACs lost to L2 traffic when the staged image
/// overflows L1 and the job loop is not blocked (blocking the 32×32 and
/// 16×16 layers above recovered 4–8 %).
const UNBLOCKED_PENALTY: f64 = 0.06;

/// Share of a coincident filter's MACs saved by sharing a tile: its
/// input loads come from registers, but every filter keeps its own
/// weight broadcasts, and the tile is load-port-bound either way.
const SHARED_TILE_GAIN: f64 = 0.2;

/// What the cost surface needs to know about a layer beyond its
/// geometry, computed once per layer rather than once per candidate
/// configuration.
struct LayerCost<'a> {
    geo: &'a Conv2dGeometry,
    /// Stored MACs per output plane set.
    macs: f64,
    rows: usize,
    /// Rows that end up sharing a tile when it may carry 2 and 4
    /// filters, as the executor itself groups them.
    shared_rows: [usize; 2],
    layout: StagedLayout,
}

impl<'a> LayerCost<'a> {
    fn new(geo: &'a Conv2dGeometry, fkw: &FkwLayer) -> Self {
        let shared = |unroll_oc: usize| {
            let tuning = TuningConfig {
                unroll_oc,
                ..TuningConfig::tuned_default()
            };
            PatternConv::new(*geo, fkw.clone(), None, OptLevel::Full, tuning).rows_sharing_a_tile()
        };
        LayerCost {
            geo,
            macs: (fkw.stored_kernels() * fkw.entries_per_kernel * geo.out_h * geo.out_w) as f64,
            rows: fkw.out_c,
            shared_rows: [shared(2), shared(4)],
            layout: StagedLayout::new(geo, 1),
        }
    }

    fn cost(&self, level: OptLevel, cfg: &TuningConfig) -> f64 {
        let geo = self.geo;
        let mut cost = self.macs * level_factor(level);
        if matches!(level, OptLevel::NoOpt | OptLevel::Reorder) {
            // The checked body reads the raw input: no tiles, no staging,
            // and no knob reaches it.
            return cost;
        }
        let eff = EffectiveTuning::new(geo, level, cfg, false);
        let shape = TileShape::for_plane(geo.out_w, 1, 1);
        let tiles_per_plane = geo.out_h.div_ceil(shape.rows()) * geo.out_w.div_ceil(shape.cols());
        cost += TILE_CALL_MACS * (self.rows * tiles_per_plane) as f64;
        cost += STAGE_ELEMENT_MACS * (geo.in_channels * geo.in_h * geo.in_w) as f64;

        // Filter-level LRE pays on exactly the rows the executor groups.
        let shared = match eff.max_filters {
            4 => self.shared_rows[1],
            2 => self.shared_rows[0],
            _ => 0,
        };
        cost -= SHARED_TILE_GAIN * self.macs * shared as f64 / self.rows as f64;

        // An image past L1 streams from L2 on every filter's walk unless
        // the loop is blocked; a block helps by the share of it L1 holds,
        // and every block of jobs re-walks the image once.
        let (image, l1) = ((self.layout.len() * 4) as f64, L1_BYTES as f64);
        if image > l1 {
            let exposed = match eff.block {
                Some((jobs, rows)) => {
                    let block = (self.layout.block_len(rows.min(geo.out_h)) * 4) as f64;
                    let spill = ((block - l1) / (image - l1)).clamp(0.0, 1.0);
                    let passes = self.rows.div_ceil(jobs) as f64;
                    spill + (1.0 - spill) * 0.25 * (1.0 - 1.0 / passes)
                }
                None => 1.0,
            };
            cost += UNBLOCKED_PENALTY * self.macs * exposed;
        }
        cost
    }
}

/// Deterministic analytic cost (in stored MACs of the tiled executor,
/// lower is better) of running one pattern layer at `level` with `cfg`.
///
/// The tuning knobs only steer the `Full` executor, and only through
/// what [`EffectiveTuning`] makes of them: `unroll_oc` (clamped to 1, 2
/// or 4) on rows whose kernels coincide, `blocked`/`tile_oc`/`tile_hw`
/// (rounded and clamped to L1) on layers whose staged image overflows
/// it. The lower levels ignore them, so their cost is
/// configuration-independent.
pub fn analytic_cost(
    geo: &Conv2dGeometry,
    fkw: &FkwLayer,
    level: OptLevel,
    cfg: &TuningConfig,
) -> f64 {
    LayerCost::new(geo, fkw).cost(level, cfg)
}

/// Cost of one *dense* MAC through the im2col lowering — the tile with
/// four filters sharing its loads — in stored MACs of the one-filter
/// tile: 26.4 ps on the slowest measured layer (16 channels, whose
/// staging copy is the largest share) over the tile's 38; 24 ps, the
/// packed GEMM's own rate, from 32 channels up.
const IM2COL_DENSE_FACTOR: f64 = 0.7;

/// Cost of one dense MAC through Winograd `F(2×2, 3×3)`: 92–119 ps of
/// dense-equivalent work over the tile's 38. The transform arithmetic
/// and its scalar tile gather outweigh the 16/36 multiply saving at
/// these sizes.
const WINOGRAD_DENSE_FACTOR: f64 = 2.5;

/// Analytic cost of a *densified* lowering of this layer, in the same
/// units as [`analytic_cost`]; `None` when the layer cannot lower that
/// way (`Direct` has no densified cost, Winograd has eligibility
/// rules). With the measured rates a dense MAC costs 0.7 of a stored
/// one, so densifying pays once a layer keeps more than about 70 % of
/// its MACs: never for a 3×3 pattern layer, which stores at most 4/9 of
/// them, but for a 1×1 layer whose connectivity is barely pruned.
pub fn densified_cost(geo: &Conv2dGeometry, fkw: &FkwLayer, algo: ConvAlgo) -> Option<f64> {
    let out_hw = (geo.out_h * geo.out_w) as f64;
    let dense_macs = (fkw.out_c * fkw.in_c * fkw.kernel * fkw.kernel) as f64 * out_hw;
    match algo {
        ConvAlgo::Direct => None,
        ConvAlgo::Im2col => Some(IM2COL_DENSE_FACTOR * dense_macs),
        ConvAlgo::Winograd => winograd_eligible(geo, fkw)
            .ok()
            .map(|()| WINOGRAD_DENSE_FACTOR * dense_macs),
    }
}

/// Picks the cheapest lowering given the direct executor's cost.
///
/// The densified executors are serial, so algorithm choice only opens
/// up on single-threaded schedules — a multi-threaded step always runs
/// direct through the FKR-balanced parallel wrapper.
fn cheapest_algo(
    geo: &Conv2dGeometry,
    fkw: &FkwLayer,
    threads: usize,
    direct_cost: f64,
) -> ConvAlgo {
    let mut algo = ConvAlgo::Direct;
    if threads != 1 {
        return algo;
    }
    let mut best = direct_cost;
    for cand in [ConvAlgo::Im2col, ConvAlgo::Winograd] {
        if let Some(cost) = densified_cost(geo, fkw, cand) {
            if cost < best {
                best = cost;
                algo = cand;
            }
        }
    }
    algo
}

/// The estimator path: fit a per-layer MLP on the analytic cost surface,
/// pick the predicted-best configuration over the whole space, then the
/// cheapest opt level at that configuration, then the cheapest lowering
/// (direct / im2col / winograd) by the analytic per-algorithm costs.
pub fn estimate_exec_config(
    geo: &Conv2dGeometry,
    fkw: &FkwLayer,
    threads: usize,
    rng: &mut Rng,
) -> ExecConfig {
    let space = ConfigSpace::standard();
    let all = space.enumerate();
    let layer = LayerCost::new(geo, fkw);
    // Train on a deterministic third of the space; predicting over the
    // full enumeration is the paper's "quick prediction of the optimal
    // configuration parameters" on a new platform.
    let xs: Vec<Vec<f32>> = all.iter().step_by(3).map(|c| c.features()).collect();
    let ys: Vec<f64> = all
        .iter()
        .step_by(3)
        .map(|c| layer.cost(OptLevel::Full, c))
        .collect();
    let mut est = PerfEstimator::new(xs[0].len(), rng);
    est.fit(&xs, &ys, 30, rng);
    let tuning = all
        .into_iter()
        .map(|c| {
            let p = est.predict(&c.features());
            (c, p)
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite predictions"))
        .expect("standard space is non-empty")
        .0;
    let opt_level = cheapest_level(&tuning, |level, cfg| layer.cost(level, cfg));
    let algo = cheapest_algo(geo, fkw, threads, layer.cost(opt_level, &tuning));
    ExecConfig {
        opt_level,
        tuning,
        threads,
        algo,
    }
}

/// The measured path: GA exploration over timed runs of the real
/// executor on a synthetic input, budget-bounded, with the untuned
/// default kept whenever it times faster than the GA's winner.
///
/// Measurements run under the *deployed* schedule: when the compile
/// options ask for a multi-threaded step, every candidate (and the
/// sticky default) is timed through the same FKR-balanced parallel
/// wrapper the engine will build at load, so the winner is the fastest
/// configuration of what actually serves — not of a serial stand-in.
///
/// On serial schedules the winner then faces a timed *algorithm*
/// run-off against the densified lowerings (im2col + packed GEMM, and
/// Winograd where the layer is eligible), under the same sticky
/// direct-stays margin.
pub fn measure_exec_config(
    geo: &Conv2dGeometry,
    fkw: &FkwLayer,
    bias: Option<&[f32]>,
    budget: usize,
    threads: usize,
    rng: &mut Rng,
) -> ExecConfig {
    let budget = budget.max(4);
    let input = Tensor::randn(&[1, geo.in_channels, geo.in_h, geo.in_w], rng);
    let mut out = Tensor::zeros(&[1, geo.out_channels, geo.out_h, geo.out_w]);
    // Min-of-3 after a warmup run: the standard microbenchmark
    // estimator, robust against scheduler noise on these small layers.
    let mut time_of = |level: OptLevel, cfg: &TuningConfig| -> f64 {
        let exec = PatternConv::new(*geo, fkw.clone(), bias.map(<[f32]>::to_vec), level, *cfg);
        let mut best = f64::INFINITY;
        if threads > 1 {
            let par = ParallelPattern::new(exec, threads, Schedule::Balanced);
            std::hint::black_box(par.run(&input)); // warm the caches
            for _ in 0..3 {
                let t = Instant::now();
                std::hint::black_box(par.run(&input));
                best = best.min(t.elapsed().as_secs_f64());
            }
        } else {
            exec.run_into(&input, &mut out); // warm the caches
            for _ in 0..3 {
                let t = Instant::now();
                exec.run_into(&input, &mut out);
                best = best.min(t.elapsed().as_secs_f64());
            }
        }
        best
    };

    // Size the GA so distinct evaluations stay within the budget
    // (population × (generations + 1) with memoized costs).
    let population = (budget / 3).clamp(4, 10);
    let generations = (budget / population).saturating_sub(1).max(1);
    let ga = GaConfig {
        population,
        generations,
        ..GaConfig::default()
    };
    let mut tuner = AutoTuner::with_config(ConfigSpace::standard(), ga);
    let explored = tuner.tune(|cfg| time_of(OptLevel::Full, cfg), rng);

    // Final selection is a timed run-off of every opt level at the GA
    // winner's tuning against the untuned default — and the default is
    // *sticky*: a candidate must beat it by a clear margin to replace
    // it, so timer noise on small layers (where all levels finish
    // within microseconds of each other) can never talk a measured plan
    // into a configuration slower than the default.
    const KEEP_DEFAULT_MARGIN: f64 = 0.97;
    let default = ExecConfig::default();
    let t_default = time_of(default.opt_level, &default.tuning);
    let (candidate, t_candidate) = OptLevel::all()
        .into_iter()
        .map(|level| {
            let t = time_of(level, &explored.best);
            ((level, explored.best), t)
        })
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
        .expect("levels are non-empty");
    let (opt_level, tuning, t_direct) = if t_candidate < t_default * KEEP_DEFAULT_MARGIN {
        (candidate.0, candidate.1, t_candidate)
    } else {
        (default.opt_level, default.tuning, t_default)
    };

    // Algorithm run-off: time the densified lowerings against the
    // chosen direct configuration under the same sticky margin. Only on
    // serial schedules (the densified executors run single-threaded),
    // and Winograd only when the layer passes its eligibility guard.
    let mut algo = ConvAlgo::Direct;
    if threads == 1 {
        let dense = fkw.to_dense();
        let bias_vec: Vec<f32> = bias.map(<[f32]>::to_vec).unwrap_or_default();
        let mut time_algo = |run: &dyn Fn(&Tensor, &mut Tensor)| -> f64 {
            run(&input, &mut out); // warm the caches
            let mut best = f64::INFINITY;
            for _ in 0..3 {
                let t = Instant::now();
                run(&input, &mut out);
                best = best.min(t.elapsed().as_secs_f64());
            }
            best
        };
        let mut t_best = t_direct;
        let im2col = Im2colConv::new(*geo, &dense, bias_vec.clone());
        let t_im2col = time_algo(&|x, y| im2col.run_into(x, y));
        if t_im2col < t_best * KEEP_DEFAULT_MARGIN {
            t_best = t_im2col;
            algo = ConvAlgo::Im2col;
        }
        if winograd_eligible(geo, fkw).is_ok() {
            let wino = WinogradConv::new(*geo, &dense, bias_vec);
            let t_wino = time_algo(&|x, y| wino.run_into(x, y));
            if t_wino < t_best * KEEP_DEFAULT_MARGIN {
                algo = ConvAlgo::Winograd;
            }
        }
    }
    ExecConfig {
        opt_level,
        tuning,
        threads,
        algo,
    }
}

/// Picks the cheapest opt level at a fixed tuning configuration under
/// the given cost oracle (analytic for `Estimate`, timed for `Measure`).
fn cheapest_level(
    tuning: &TuningConfig,
    mut cost: impl FnMut(OptLevel, &TuningConfig) -> f64,
) -> OptLevel {
    OptLevel::all()
        .into_iter()
        .map(|level| (level, cost(level, tuning)))
        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
        .expect("levels are non-empty")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use patdnn_compiler::fkr::filter_kernel_reorder;
    use patdnn_core::pattern_set::PatternSet;
    use patdnn_core::project::prune_layer;

    fn pruned_layer(
        oc: usize,
        ic: usize,
        hw: usize,
        alpha: usize,
        seed: u64,
    ) -> (Conv2dGeometry, FkwLayer) {
        let mut rng = Rng::seed_from(seed);
        let mut w = Tensor::randn(&[oc, ic, 3, 3], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("t", &mut w, &set, alpha);
        let order = filter_kernel_reorder(&lp);
        let fkw = FkwLayer::from_pruned(&w, &lp, &set, &order);
        (Conv2dGeometry::new(oc, ic, 3, 3, hw, hw, 1, 1), fkw)
    }

    #[test]
    fn analytic_cost_orders_opt_levels_like_figure_13() {
        let (geo, fkw) = pruned_layer(16, 16, 16, 72, 1);
        let cfg = TuningConfig::tuned_default();
        let costs: Vec<f64> = OptLevel::all()
            .into_iter()
            .map(|l| analytic_cost(&geo, &fkw, l, &cfg))
            .collect();
        assert!(
            costs[0] > costs[1] && costs[1] > costs[2] && costs[2] > costs[3],
            "levels must be monotone at a sane config: {costs:?}"
        );
    }

    #[test]
    fn estimate_is_deterministic_and_valid() {
        let (geo, fkw) = pruned_layer(16, 16, 16, 72, 2);
        let a = estimate_exec_config(&geo, &fkw, 1, &mut Rng::seed_from(9));
        let b = estimate_exec_config(&geo, &fkw, 1, &mut Rng::seed_from(9));
        assert_eq!(a, b, "same seed must reproduce the same config");
        a.validate().expect("estimated config is codec-valid");
    }

    #[test]
    fn estimate_differs_across_unlike_layers() {
        // A narrow cache-resident layer and a wide cache-busting layer
        // should not land on the same configuration.
        let (geo_a, fkw_a) = pruned_layer(16, 8, 8, 36, 3);
        let (geo_b, fkw_b) = pruned_layer(64, 64, 32, 1024, 4);
        let a = estimate_exec_config(&geo_a, &fkw_a, 1, &mut Rng::seed_from(5));
        let b = estimate_exec_config(&geo_b, &fkw_b, 1, &mut Rng::seed_from(5));
        assert_ne!(
            a.tuning, b.tuning,
            "per-layer tuning must be geometry-sensitive"
        );
    }

    #[test]
    fn measure_returns_a_valid_config_within_budget_scale() {
        let (geo, fkw) = pruned_layer(8, 8, 8, 24, 6);
        let mut rng = Rng::seed_from(7);
        let cfg = measure_exec_config(&geo, &fkw, None, 8, 2, &mut rng);
        cfg.validate().expect("measured config is codec-valid");
        assert_eq!(cfg.threads, 2, "thread schedule is recorded as given");
        assert_eq!(cfg.algo, ConvAlgo::Direct, "threaded steps stay direct");
    }

    #[test]
    fn measure_algo_runoff_returns_a_valid_serial_config() {
        let (geo, fkw) = pruned_layer(8, 8, 8, 64, 10);
        let mut rng = Rng::seed_from(11);
        let cfg = measure_exec_config(&geo, &fkw, None, 6, 1, &mut rng);
        cfg.validate().expect("measured config is codec-valid");
        assert!(ConvAlgo::all().contains(&cfg.algo));
    }

    #[test]
    fn estimate_keeps_every_pruned_vgg_layer_direct() {
        use crate::compile::compile_network;
        use crate::LayerPlan;
        use patdnn_core::prune::pattern_project_network;

        let mut net = patdnn_nn::models::vgg_small(10, &mut Rng::seed_from(3));
        pattern_project_network(&mut net, 8, 3.6);
        let artifact = compile_network("vgg", &net, [3, 32, 32]).expect("compiles");
        let mut shape = [3usize, 32, 32];
        let mut convs = 0;
        for step in &artifact.steps {
            match &step.op {
                LayerPlan::PatternConv {
                    fkw, stride, pad, ..
                } => {
                    let geo = Conv2dGeometry::new(
                        fkw.out_c, fkw.in_c, 3, 3, shape[1], shape[2], *stride, *pad,
                    );
                    let cfg = estimate_exec_config(&geo, fkw, 1, &mut Rng::seed_from(8));
                    assert_eq!(cfg.algo, ConvAlgo::Direct, "layer {convs}");
                    assert_eq!(cfg.opt_level, OptLevel::Full, "layer {convs}");
                    shape = [fkw.out_c, geo.out_h, geo.out_w];
                    convs += 1;
                }
                LayerPlan::MaxPool { .. } => shape = [shape[0], shape[1] / 2, shape[2] / 2],
                _ => {}
            }
        }
        assert_eq!(convs, 6, "every conv of vgg_small is a 3x3 pattern layer");
    }

    #[test]
    fn a_winograd_eligible_layer_densifies_only_where_the_costs_say_so() {
        // Every kernel kept (alpha = oc*ic) -> density 4/9: past the
        // Winograd gate, so all three lowerings are candidates on a
        // serial schedule and the choice is the cost comparison's.
        let (geo, fkw) = pruned_layer(16, 16, 16, 256, 9);
        assert!(winograd_eligible(&geo, &fkw).is_ok());
        let serial = estimate_exec_config(&geo, &fkw, 1, &mut Rng::seed_from(8));
        let direct = analytic_cost(&geo, &fkw, serial.opt_level, &serial.tuning);
        let cheapest = [ConvAlgo::Im2col, ConvAlgo::Winograd]
            .into_iter()
            .filter_map(|algo| densified_cost(&geo, &fkw, algo).map(|cost| (algo, cost)))
            .filter(|&(_, cost)| cost < direct)
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite costs"))
            .map_or(ConvAlgo::Direct, |(algo, _)| algo);
        assert_eq!(serial.algo, cheapest);
        // A dense MAC costs 0.7 of a stored one and this layer stores
        // 4/9 of them: 0.7 dense MACs against 0.44 plus the one-filter
        // tile's calls. Even with every kernel kept it stays direct.
        let im2col = densified_cost(&geo, &fkw, ConvAlgo::Im2col).expect("always lowers");
        assert!(
            direct < im2col && im2col < 2.0 * direct,
            "{direct} vs {im2col}"
        );
        assert_eq!(serial.algo, ConvAlgo::Direct);
        let threaded = estimate_exec_config(&geo, &fkw, 2, &mut Rng::seed_from(8));
        assert_eq!(
            threaded.algo,
            ConvAlgo::Direct,
            "threaded steps stay direct"
        );
    }

    #[test]
    fn the_cost_surface_follows_the_executors_clamping() {
        // A layer whose staged image overflows L1: blocking must pay, and
        // only through what the executor makes of the knobs.
        let (geo, fkw) = pruned_layer(32, 32, 32, 284, 12);
        let base = TuningConfig::tuned_default();
        let cost = |cfg: &TuningConfig| analytic_cost(&geo, &fkw, OptLevel::Full, cfg);
        let unblocked = TuningConfig {
            blocked: false,
            ..base
        };
        assert!(
            cost(&base) < cost(&unblocked),
            "blocking an L1-busting layer pays"
        );
        // tile_hw 32 and 8 clamp to the same L1-sized block: same cost.
        let short = TuningConfig { tile_hw: 8, ..base };
        assert_eq!(
            EffectiveTuning::new(&geo, OptLevel::Full, &base, false),
            EffectiveTuning::new(&geo, OptLevel::Full, &short, false)
        );
        assert_eq!(cost(&base), cost(&short));
        // Knobs the tile ignores leave the surface flat.
        let other = TuningConfig {
            permute: patdnn_compiler::tune::space::LoopPermutation::CoCiHw,
            unroll_w: 1,
            ..base
        };
        assert_eq!(cost(&base), cost(&other));
        // unroll_oc 8 clamps to 4; with no coincident rows it buys nothing.
        let wide = TuningConfig {
            unroll_oc: 8,
            ..base
        };
        assert_eq!(cost(&base), cost(&wide));
    }
}
