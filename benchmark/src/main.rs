//! The repo benchmark. See `README.md` for what is measured and why.
//!
//! ```text
//! patdnn-benchmark --workload NAME --seed N --seconds S --trace 0|1
//! patdnn-benchmark run --seed N --json OUT [--seconds S] [--smoke] [--trace]
//! patdnn-benchmark compare A.json B.json
//! ```
//!
//! The first form is one run of one workload in this process; its last
//! line of standard output is the result object. `run` makes that run
//! once per workload, each in a fresh child process, and gathers the
//! results into one file; `compare` judges two such files.

mod alloc;
mod b1_local;
mod common;
mod compare;
mod deploy_cold;
mod json;
mod probes;
mod served_open;
mod stats;
mod trace;
mod wire_fleet;

use std::fmt::Write as _;
use std::process::{Command, ExitCode};

use common::{Metric, Report, RunCfg};
use json::Json;
use stats::SegStat;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// The workloads, in the order `run` executes them.
const WORKLOADS: [&str; 4] = ["b1_local", "served_open", "wire_fleet", "deploy_cold"];

/// Length of a `--smoke` timed section.
const SMOKE_SECONDS: f64 = 1.0;

/// No workload of a traced run is measured for less than this, so that
/// even a smoke run has something in every span and class.
const MIN_TRACED_SLICE_SECONDS: f64 = 0.5;

/// Traced, single-caller workloads must have this share of each
/// operation covered by child spans.
const MIN_OP_COVERAGE: f64 = 0.90;

fn run_workload(name: &str, cfg: &RunCfg) -> Report {
    match name {
        "b1_local" => b1_local::run(cfg),
        "served_open" => served_open::run(cfg),
        "wire_fleet" => wire_fleet::run(cfg),
        "deploy_cold" => deploy_cold::run(cfg),
        other => unreachable!("workload {other:?} was validated at parse time"),
    }
}

fn end_to_end_metrics(report: &Report) -> Vec<Metric> {
    let e = &report.end_to_end;
    vec![
        Metric::new("setup_s", "s", e.setup_s),
        Metric::new("goodput_per_s", "ops/s", e.goodput_per_s),
        Metric::new("latency_p50_ms", "ms", e.latency_p50_ms),
        Metric::new("latency_p99_ms", "ms", e.latency_p99_ms),
        Metric::single("peak_rss_mb", "MiB", common::peak_rss_mb()),
    ]
}

/// The traced run: the named workload untraced and traced (their
/// difference is the tracing overhead), every other workload traced for
/// a shorter stretch, and the stand-alone layer probes — so that one run
/// yields every per-layer metric.
fn traced_run(workload: &str, cfg: &RunCfg) -> (Vec<Metric>, u64, u64) {
    let slice = |share: f64| (cfg.seconds * share).max(MIN_TRACED_SLICE_SECONDS);
    let named = RunCfg {
        seconds: slice(1.0 / 4.0),
        ..*cfg
    };
    let plain = run_workload(
        workload,
        &RunCfg {
            traced: false,
            ..named
        },
    );
    let mut attempted = plain.attempted;
    let mut failed = plain.failed;
    let mut layers = probes::run(cfg.seed);
    let mut served_p50_us = 0.0;
    for name in WORKLOADS {
        let report = if name == workload {
            run_workload(name, &named)
        } else {
            run_workload(
                name,
                &RunCfg {
                    seconds: slice(1.0 / 6.0),
                    ..*cfg
                },
            )
        };
        attempted += report.attempted;
        failed += report.failed;
        if name == "served_open" {
            served_p50_us = report.end_to_end.latency_p50_ms.value * 1e3;
        }
        if name == workload {
            let traced = report.end_to_end.goodput_per_s.value;
            let untraced = plain.end_to_end.goodput_per_s.value;
            layers.push(Metric::single(
                "trace.overhead_share",
                "ratio",
                (untraced - traced) / untraced,
            ));
            let path = common::out_dir().join(format!("trace-{name}-{}.json", cfg.seed));
            std::fs::write(&path, trace::chrome_json(report.tracer.spans()))
                .expect("trace file is writable");
            eprintln!(
                "trace: {} spans -> {}",
                report.tracer.spans().len(),
                path.display()
            );
        }
        if matches!(name, "b1_local" | "deploy_cold") {
            let coverage = trace::op_coverage(report.tracer.spans());
            eprintln!(
                "trace: child spans cover {:.1}% of op time on {name}",
                coverage * 100.0
            );
            if coverage < MIN_OP_COVERAGE {
                eprintln!("trace: WARNING coverage on {name} is below {MIN_OP_COVERAGE}");
            }
        }
        layers.extend(report.layers);
    }
    let b1_p50_us = layers
        .iter()
        .find(|m| m.name == "engine.vgg_small_direct.b1_p50_us")
        .expect("b1_local reports its plans")
        .stat
        .value;
    layers.push(Metric::single(
        "server.overhead_p50_us",
        "us",
        served_p50_us - b1_p50_us,
    ));
    (layers, attempted, failed)
}

/// `{"value": .., "unit": ..}` members, one per metric; with the spread
/// across segments when `detail` is set.
fn metrics_json(metrics: &[Metric], detail: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "{}: {{\"value\": {}, \"unit\": {}",
            json::quote(&m.name),
            json::number(m.stat.value),
            json::quote(m.unit)
        );
        if detail {
            let _ = write!(
                out,
                ", \"min\": {}, \"max\": {}, \"samples\": {}",
                json::number(m.stat.min),
                json::number(m.stat.max),
                m.stat.samples
            );
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// One run of one workload. Prints every metric by name, then a
/// `detail` line with the spreads, then the result object.
fn single(workload: &str, cfg: &RunCfg) -> ExitCode {
    let (metrics, attempted, failed, tail_supported) = if cfg.traced {
        let (layers, attempted, failed) = traced_run(workload, cfg);
        (layers, attempted, failed, true)
    } else {
        let report = run_workload(workload, cfg);
        (
            end_to_end_metrics(&report),
            report.attempted,
            report.failed,
            report.end_to_end.tail_supported,
        )
    };
    for m in &metrics {
        let SegStat {
            value,
            min,
            max,
            samples,
        } = m.stat;
        print!("{workload} {} = {value} {}", m.name, m.unit);
        if samples > 1 {
            print!(" (min {min}, max {max}, samples {samples})");
        }
        println!();
    }
    println!("{workload} ops_attempted = {attempted}, ops_failed = {failed}");
    if !tail_supported {
        eprintln!(
            "{workload}: WARNING fewer than {} samples beyond the tail percentile in some \
             segment; the run is too short for it",
            stats::MIN_BEYOND
        );
    }
    println!(
        "detail {{\"tail_supported\": {tail_supported}, \"metrics\": {}}}",
        metrics_json(&metrics, true)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        failed == 0,
        metrics_json(&metrics, false)
    );
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// First line of a command's standard output, or `unknown`.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".into())
}

/// Everything a result depends on besides the code and the seed.
fn environment_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"nproc\": {nproc}, \"kernel_variant\": {}, \"force_portable\": {}, \
         \"git_commit\": {}, \"rustc\": {}}}",
        json::quote(patdnn_tensor::kernels::active_variant().label()),
        json::quote(&std::env::var("PATDNN_FORCE_PORTABLE").unwrap_or_default()),
        json::quote(&first_line_of("git", &["rev-parse", "HEAD"])),
        json::quote(&first_line_of("rustc", &["-V"])),
    )
}

/// Runs every workload in a child process of its own and writes one
/// result file.
fn run_all(seed: u64, seconds: f64, traced: bool, out: &str) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut workloads = String::new();
    let mut all_ok = true;
    for (i, workload) in WORKLOADS.into_iter().enumerate() {
        let mut result = String::new();
        for trace in if traced { &["0", "1"][..] } else { &["0"][..] } {
            eprintln!("run: {workload} --trace {trace}");
            let output = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string(), "--trace", trace])
                .output()
                .expect("child process starts");
            all_ok &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let lines: Vec<&str> = stdout.lines().collect();
            // The child's metric-by-metric listing, then its two
            // machine-readable lines.
            let [listing @ .., detail, last] = lines.as_slice() else {
                eprintln!("run: {workload} printed no result");
                return ExitCode::FAILURE;
            };
            for line in listing {
                println!("{line}");
            }
            let detail = detail.strip_prefix("detail ").unwrap_or("null");
            if *trace == "0" {
                let _ = write!(result, "\"result\": {last}, \"detail\": {detail}");
            } else {
                let _ = write!(result, ", \"traced\": {last}");
            }
        }
        let sep = if i == 0 { "" } else { ",\n" };
        let _ = write!(workloads, "{sep}  {}: {{{result}}}", json::quote(workload));
    }
    let doc = format!(
        "{{\"env\": {}, \"seed\": {seed}, \"seconds\": {}, \"workloads\": {{\n{workloads}\n}}}}\n",
        environment_json(),
        json::number(seconds)
    );
    if let Err(e) = std::fs::write(out, doc) {
        eprintln!("run: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Value of `--flag` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: patdnn-benchmark --workload {{{}}} --seed N --seconds S --trace 0|1\n\
         \x20      patdnn-benchmark run --seed N --json OUT [--seconds S] [--smoke] [--trace]\n\
         \x20      patdnn-benchmark compare A.json B.json",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare::main(a, b),
            _ => usage(),
        };
    }
    let Some(seed) = flag(&args, "--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage();
    };
    let smoke = args.iter().any(|a| a == "--smoke");
    let seconds = match flag(&args, "--seconds") {
        Some(s) => match s.parse::<f64>() {
            Ok(s) if s > 0.0 && s.is_finite() => s,
            _ => return usage(),
        },
        None if smoke => SMOKE_SECONDS,
        // The length the benchmark is defined at.
        None => match compare::spec().map(|spec| spec.get("run_seconds").and_then(Json::as_f64)) {
            Ok(Some(run_seconds)) => run_seconds,
            Ok(None) => {
                eprintln!("BENCHMARK.json has no run_seconds");
                return ExitCode::from(2);
            }
            Err(why) => {
                eprintln!("{why}");
                return ExitCode::from(2);
            }
        },
    };
    if args.first().map(String::as_str) == Some("run") {
        let Some(out) = flag(&args, "--json") else {
            return usage();
        };
        return run_all(seed, seconds, args.iter().any(|a| a == "--trace"), out);
    }
    let traced = match flag(&args, "--trace") {
        Some("0") | None => false,
        Some("1") => true,
        Some(_) => return usage(),
    };
    match flag(&args, "--workload") {
        Some(w) if WORKLOADS.contains(&w) => single(
            w,
            &RunCfg {
                seed,
                seconds,
                traced,
            },
        ),
        _ => usage(),
    }
}
