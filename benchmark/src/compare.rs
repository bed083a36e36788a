//! `compare A.json B.json`: judges two result files written by `run`,
//! one row per workload and end-to-end metric, against the bounds in
//! `BENCHMARK.json`.

use std::process::ExitCode;

use crate::json::{self, Json};

/// What the two files must agree on for their numbers to be comparable.
const SAME_ENV: [&str; 3] = ["nproc", "kernel_variant", "force_portable"];

/// The verdict on one (workload, metric) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The segments of one run lie further than the bound either side of
    /// their median, so a difference of that size cannot be told from
    /// noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of a metric: its median across segments, and half
/// the distance between its lowest and highest segment as a share of
/// that median.
#[derive(Debug, Clone, Copy)]
pub struct Reading {
    pub value: f64,
    pub spread: f64,
}

/// Judges `b` against base `a`. `lower_is_better` and `bound` come from
/// `BENCHMARK.json`.
pub fn judge(a: Reading, b: Reading, lower_is_better: bool, bound: f64) -> Verdict {
    if a.spread > bound || b.spread > bound {
        return Verdict::Unresolved;
    }
    let worsening = if lower_is_better {
        b.value / a.value - 1.0
    } else {
        1.0 - b.value / a.value
    };
    if worsening > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `BENCHMARK.json`, which sits beside this crate's directory.
pub fn spec() -> Result<Json, String> {
    load(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
}

fn reading(file: &Json, workload: &str, metric: &str) -> Option<Reading> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("detail")?
        .get("metrics")?
        .get(metric)?;
    let value = m.get("value")?.as_f64()?;
    let spread = (m.get("max")?.as_f64()? - m.get("min")?.as_f64()?) / 2.0 / value.abs();
    Some(Reading { value, spread })
}

fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (spec, a, b) = (spec()?, load(a_path)?, load(b_path)?);
    for key in SAME_ENV {
        let of = |f: &Json| f.get("env").and_then(|e| e.get(key)).cloned();
        if of(&a) != of(&b) {
            return Err(format!("the two runs differ in {key}: not comparable"));
        }
    }
    for key in ["seed", "seconds"] {
        if a.get(key) != b.get(key) {
            return Err(format!("the two runs differ in {key}: not comparable"));
        }
    }
    println!(
        "{:<12} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    let mut all_ok = true;
    let list = |key: &str| spec.get(key).and_then(Json::as_arr).unwrap_or_default();
    for workload in list("workloads") {
        let workload = workload
            .get("name")
            .and_then(Json::as_str)
            .ok_or("workload name")?;
        for metric in list("end_to_end") {
            let name = metric
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric name")?;
            let bound = metric.get("bound").and_then(Json::as_f64).ok_or("bound")?;
            let lower = metric.get("better").and_then(Json::as_str) == Some("lower");
            let (Some(ra), Some(rb)) = (reading(&a, workload, name), reading(&b, workload, name))
            else {
                return Err(format!("{workload}/{name} is missing from a result file"));
            };
            let verdict = judge(ra, rb, lower, bound);
            all_ok &= verdict == Verdict::Ok;
            println!(
                "{workload:<12} {name:<16} {:>14.4} {:>14.4} {:>9.4} {bound:>6}  {}",
                ra.value,
                rb.value,
                rb.value / ra.value,
                verdict.label()
            );
        }
    }
    Ok(all_ok)
}

pub fn main(a: &str, b: &str) -> ExitCode {
    match compare(a, b) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("compare: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn steady(value: f64) -> Reading {
        Reading {
            value,
            spread: 0.01,
        }
    }

    #[test]
    fn judges_by_direction_and_bound() {
        assert_eq!(judge(steady(10.0), steady(10.4), true, 0.05), Verdict::Ok);
        assert_eq!(
            judge(steady(10.0), steady(10.6), true, 0.05),
            Verdict::Regressed
        );
        assert_eq!(judge(steady(10.0), steady(5.0), true, 0.05), Verdict::Ok);
        assert_eq!(judge(steady(100.0), steady(96.0), false, 0.05), Verdict::Ok);
        assert_eq!(
            judge(steady(100.0), steady(94.0), false, 0.05),
            Verdict::Regressed
        );
        assert_eq!(
            judge(steady(100.0), steady(150.0), false, 0.05),
            Verdict::Ok
        );
    }

    #[test]
    fn a_noisy_side_leaves_the_pair_unresolved() {
        let noisy = Reading {
            value: 10.0,
            spread: 0.2,
        };
        assert_eq!(judge(noisy, steady(10.0), true, 0.05), Verdict::Unresolved);
        assert_eq!(judge(steady(10.0), noisy, true, 0.05), Verdict::Unresolved);
        // Even an apparent regression is not a finding on noisy ground.
        let worse = Reading {
            value: 20.0,
            spread: 0.2,
        };
        assert_eq!(judge(steady(10.0), worse, true, 0.05), Verdict::Unresolved);
    }
}
