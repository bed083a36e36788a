//! `repro` — regenerates every table and figure of the PatDNN paper.
//!
//! Usage:
//!
//! ```text
//! repro <experiment>... [--quick] [--reps N] [--threads N]
//! experiment: table1..table7, fig12..fig18, verify-corpus,
//!             wire-corpus, serving-router, tables, figures, all
//! ```
//!
//! `--threads` defaults to the number of available cores.
//!
//! `serving-router` launches real `patdnn-serve`/`patdnn-router`
//! processes, so build the serve binaries first (`cargo build -p
//! patdnn-serve --bins`, same profile). It is not part of `all`.
//!
//! Serving performance is measured by the repo benchmark
//! (`benchmark/README.md`), not by this harness.

use patdnn_bench::{figures, tables, RunOptions};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = RunOptions::default();
    let mut selected: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {
                opts = RunOptions {
                    quick: true,
                    reps: 1,
                    ..opts
                }
            }
            "--reps" => {
                i += 1;
                opts.reps = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--reps needs a number"));
            }
            "--threads" => {
                i += 1;
                opts.threads = args
                    .get(i)
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| die("--threads needs a number"));
            }
            other if other.starts_with("--") => die(&format!("unknown flag {other}")),
            other => selected.push(other.to_owned()),
        }
        i += 1;
    }
    if selected.is_empty() {
        selected.push("all".into());
    }

    let mut expanded: Vec<&str> = Vec::new();
    for s in &selected {
        match s.as_str() {
            "all" => expanded.extend([
                "table1",
                "table2",
                "table3",
                "table4",
                "table5",
                "table6",
                "table7",
                "fig12",
                "fig13",
                "fig14",
                "fig15",
                "fig16",
                "fig17",
                "fig18",
                "verify-corpus",
                "wire-corpus",
            ]),
            "tables" => expanded.extend([
                "table1", "table2", "table3", "table4", "table5", "table6", "table7",
            ]),
            "figures" => expanded.extend([
                "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18",
            ]),
            other => expanded.push(other),
        }
    }

    println!(
        "PatDNN reproduction harness (reps={}, threads={}, quick={})",
        opts.reps, opts.threads, opts.quick
    );
    println!();
    for exp in expanded {
        let start = std::time::Instant::now();
        match exp {
            "table1" => println!("{}", tables::table1()),
            "table2" => println!("{}", tables::table2(&opts)),
            "table3" => println!("{}", tables::table3(&opts)),
            "table4" => println!("{}", tables::table4(&opts)),
            "table5" => println!("{}", tables::table5()),
            "table6" => println!("{}", tables::table6()),
            "table7" => println!("{}", tables::table7(&opts)),
            "fig12" => print_all(figures::fig12(&opts)),
            "fig13" => print_all(figures::fig13(&opts)),
            "fig14" => print_all(figures::fig14(&opts)),
            "fig15" => print_all(figures::fig15(&opts)),
            "fig16" => print_all(figures::fig16(&opts)),
            "fig17" => print_all(figures::fig17(&opts)),
            "fig18" => print_all(figures::fig18(&opts)),
            "verify-corpus" => {
                let report = patdnn_bench::corpus::run(opts.quick);
                print!("{report}");
                if !report.is_ok() {
                    die("verify-corpus found rejection-harness failures (see above)");
                }
            }
            "wire-corpus" => {
                let report = patdnn_bench::wire_corpus::run(opts.quick);
                print!("{report}");
                if !report.is_ok() {
                    die("wire-corpus found codec failures (see above)");
                }
            }
            "serving-router" => {
                let report = patdnn_bench::router_smoke::run(opts.quick);
                print!("{report}");
                if !report.is_ok() {
                    die("serving-router smoke failed (see above)");
                }
            }
            other => die(&format!("unknown experiment {other}")),
        }
        eprintln!("[{exp} took {:.1}s]", start.elapsed().as_secs_f64());
        println!();
    }
}

fn print_all(tables: Vec<patdnn_bench::report::Table>) {
    for t in tables {
        println!("{t}");
        println!();
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: repro <table1..table7|fig12..fig18|verify-corpus|wire-corpus|\
         serving-router|tables|figures|all> [--quick] [--reps N] [--threads N]"
    );
    std::process::exit(2);
}
