//! What the four workloads share: run configuration, the result shape,
//! seeded inputs, the correctness oracle, repeated set-up, and the two
//! numbers read from `/proc`.

use std::path::PathBuf;
use std::time::Instant;

use patdnn_core::prune::pattern_project_network;
use patdnn_nn::calibrate::calibration_batch;
use patdnn_nn::layer::{Layer, Mode};
use patdnn_nn::network::Sequential;
use patdnn_tensor::rng::Rng;
use patdnn_tensor::Tensor;

use crate::stats::{over_segments, percentile, tail_supported, SegStat};
use crate::trace::Tracer;

/// Per-item input shape of every model the benchmark serves.
pub const INPUT: [usize; 3] = [3, 32, 32];

/// Seeded frames per model; operations draw their input from this pool.
pub const FRAME_POOL: usize = 64;

/// One response in this many is checked against the oracle (every one
/// in `deploy_cold`).
pub const CHECK_EVERY: u64 = 16;

/// Largest |compiled − reference| an `f32` plan may show, as a share of
/// the reference's largest magnitude (or of 1, if that is larger).
pub const F32_TOL: f32 = 1e-4;

/// The same for an INT8 plan. On frames outside the calibration batch
/// the quantized plans were measured up to 1.5e-2 away from their `f32`
/// network (activations beyond the calibrated range clip), so the line
/// is drawn well clear of that; a wrong plan misses by far more.
pub const INT8_TOL: f32 = 4e-2;

/// Seed of every model's weights and calibration data. The models are
/// part of the benchmark's definition, not of a run's inputs: pruning
/// another draw of weights keeps other kernels, which moves kernel time
/// by several percent and would drown the bounds.
const MODEL_SEED: u64 = 2020;

/// Set-up is run this many times and its median reported, because one
/// cold set-up is mostly page faults and file-cache luck.
const SETUP_REPEATS: usize = 3;

/// What one invocation was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    pub seed: u64,
    /// Length of the timed section, seconds.
    pub seconds: f64,
    pub traced: bool,
}

/// A named number with its unit and its spread across segments.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub stat: SegStat,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, stat: SegStat) -> Self {
        Metric {
            name: name.to_owned(),
            unit,
            stat,
        }
    }

    pub fn single(name: &str, unit: &'static str, value: f64) -> Self {
        Metric::new(name, unit, SegStat::single(value))
    }
}

/// The end-to-end numbers a workload measures itself (`peak_rss_mb` is
/// read once, when the process is done).
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub setup_s: SegStat,
    pub goodput_per_s: SegStat,
    pub latency_p50_ms: SegStat,
    pub latency_p99_ms: SegStat,
    /// Whether every segment had enough samples beyond the 99th
    /// percentile for it to mean something.
    pub tail_supported: bool,
}

impl EndToEnd {
    /// Median and tail from the per-segment latencies (milliseconds) of
    /// the timed section; goodput is the workload's own definition.
    pub fn new(setup_s: SegStat, goodput_per_s: SegStat, latency_ms: &[Vec<f64>]) -> Self {
        let stat =
            |pct| over_segments(latency_ms, |ms| percentile(ms, pct)).expect("a timed operation");
        EndToEnd {
            setup_s,
            goodput_per_s,
            latency_p50_ms: stat(50.0),
            latency_p99_ms: stat(99.0),
            tail_supported: tail_supported(latency_ms, 99.0),
        }
    }
}

/// Goodput of a single caller: operations per second of operation time.
/// What the caller does between operations (drawing a frame, checking an
/// answer) is not the program's cost.
pub fn busy_goodput(latency_ms: &[Vec<f64>]) -> SegStat {
    over_segments(latency_ms, |ms| {
        ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3)
    })
    .expect("a timed operation")
}

/// Median seconds of `reps` calls of `f`.
pub fn median_seconds(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    percentile(&mut times, 50.0)
}

/// What one workload run produced.
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: EndToEnd,
    /// Per-layer numbers; filled by traced runs only.
    pub layers: Vec<Metric>,
    pub tracer: Tracer,
}

/// An independent random stream `stream` of run seed `seed`.
pub fn rng_for(seed: u64, stream: u64) -> Rng {
    Rng::seed_from(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
}

/// Random stream `stream` of the fixed model seed.
pub fn model_rng(stream: u64) -> Rng {
    rng_for(MODEL_SEED, stream)
}

/// The calibration batch every INT8 plan is quantized with.
pub fn calibration() -> Tensor {
    calibration_batch(INPUT, 8, MODEL_SEED)
}

/// The seeded frame pool, each `[1, 3, 32, 32]`.
pub fn frame_pool(seed: u64) -> Vec<Tensor> {
    let mut rng = rng_for(seed, 1);
    (0..FRAME_POOL)
        .map(|_| Tensor::randn(&[1, INPUT[0], INPUT[1], INPUT[2]], &mut rng))
        .collect()
}

/// Prunes `net` the way every benchmark model is pruned unless its
/// workload says otherwise: 8 patterns, 3.6x connectivity.
pub fn prune(mut net: Sequential) -> Sequential {
    pattern_project_network(&mut net, 8, 3.6);
    net
}

/// Reference outputs: the pruned network's own eval-mode forward pass,
/// which shares no code with the compiled plans it judges.
pub fn reference_outputs(net: &mut Sequential, frames: &[Tensor]) -> Vec<Tensor> {
    frames.iter().map(|x| net.forward(x, Mode::Eval)).collect()
}

/// Whether `out` matches `reference` in shape and within `tol` of its
/// scale.
pub fn within(out: &Tensor, reference: &Tensor, tol: f32) -> bool {
    let scale = reference.data().iter().fold(1.0f32, |m, v| m.max(v.abs()));
    out.shape() == reference.shape()
        && out
            .max_abs_diff(reference)
            .is_some_and(|d| d.is_finite() && d <= tol * scale)
}

/// Whether two outputs agree to the bit.
pub fn bit_identical(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape()
        && a.data()
            .iter()
            .zip(b.data())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Runs `setup` [`SETUP_REPEATS`] times, tearing each state down with
/// `teardown` before the next, and returns the last state with the
/// median set-up time. Teardown is not part of the measured time.
pub fn repeated_setup<S>(
    mut setup: impl FnMut() -> S,
    mut teardown: impl FnMut(S),
) -> (S, SegStat) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut state = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(old) = state.take() {
            teardown(old);
        }
        let start = Instant::now();
        state = Some(setup());
        times.push(start.elapsed().as_secs_f64());
    }
    (
        state.expect("SETUP_REPEATS is at least one"),
        SegStat::of_repeats(&times),
    )
}

/// Directory for what a run writes (artifacts, traces, result files);
/// inside the benchmark's own directory and ignored by git.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out must be creatable");
    dir
}

/// A `Name: value` field of `/proc/self/status`.
fn proc_status(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
}

/// Peak resident set of this process so far, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    proc_status("VmHWM").expect("VmHWM in /proc/self/status") as f64 / 1024.0
}

/// Threads this process has right now.
pub fn thread_count() -> u64 {
    proc_status("Threads").expect("Threads in /proc/self/status")
}
