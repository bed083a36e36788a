//! Runs the whole benchmark in smoke mode and holds what it prints
//! against `BENCHMARK.json`: the same workloads, the same metric names
//! with the same units, every value a finite number.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

#[allow(dead_code)]
#[path = "../src/json.rs"]
mod json;

use json::Json;

/// `(name, unit)` of every entry of a `BENCHMARK.json` metric list.
fn declared(spec: &Json, list: &str) -> BTreeSet<(String, String)> {
    spec.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(Json::as_str).expect("string field");
            (field("name").to_owned(), field("unit").to_owned())
        })
        .collect()
}

/// `(name, unit)` of every metric of a result object, each checked to
/// be a finite number.
fn printed(result: &Json) -> BTreeSet<(String, String)> {
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        panic!("a result has a metrics object");
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let value = m
                .get("value")
                .and_then(Json::as_f64)
                .expect("numeric value");
            assert!(value.is_finite(), "{name} is not finite");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            assert!(!unit.is_empty(), "{name} has no unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

#[test]
fn smoke_run_prints_exactly_what_benchmark_json_declares() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let spec = std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let spec = json::parse(&spec).expect("BENCHMARK.json parses");

    let out = root.join("out");
    std::fs::create_dir_all(&out).expect("out directory");
    let out = out.join(format!("smoke-{}.json", std::process::id()));
    let status = Command::new(env!("CARGO_BIN_EXE_patdnn-benchmark"))
        .args(["run", "--seed", "7", "--smoke", "--trace", "--json"])
        .arg(&out)
        .status()
        .expect("benchmark starts");
    assert!(status.success(), "smoke run failed: {status}");
    let results = std::fs::read_to_string(&out).expect("result file");
    std::fs::remove_file(&out).expect("result file is removable");
    let results = json::parse(&results).expect("result file parses");

    let Some(Json::Obj(workloads)) = results.get("workloads") else {
        panic!("the result file lists workloads");
    };
    let ran: Vec<&str> = workloads.iter().map(|(name, _)| name.as_str()).collect();
    let wanted: Vec<&str> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(ran, wanted, "workloads run vs workloads declared");

    let end_to_end = declared(&spec, "end_to_end");
    let per_layer = declared(&spec, "per_layer");
    for (workload, entry) in workloads {
        for (key, want) in [("result", &end_to_end), ("traced", &per_layer)] {
            let result = entry.get(key).expect("both runs were made");
            assert_eq!(&printed(result), want, "{workload}: {key} metrics");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0));
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
            let attempted = result.get("attempted").and_then(Json::as_f64);
            assert!(attempted.is_some_and(|n| n >= 1.0), "{workload}: attempted");
        }
    }
}
