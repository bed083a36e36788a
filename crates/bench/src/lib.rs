//! # patdnn-bench
//!
//! The reproduction harness: regenerates every table and figure of the
//! PatDNN paper's evaluation (§6) on the workspace's own substrate.
//!
//! - [`workloads`] — per-layer and per-model workload builders (random
//!   weights pruned to the paper's rates; the execution-time figures are
//!   weight-value independent).
//! - [`report`] — plain-text table formatting shared by the `repro`
//!   binary and the integration tests.
//! - [`tables`] — Tables 1-7.
//! - [`figures`] — Figures 12-18.
//! - [`corpus`] — the plan-verifier mutation corpus (`repro
//!   verify-corpus`): byte-flip, truncation, and semantic-forgery
//!   mutants over real artifacts, each of which must be rejected with a
//!   typed error (or decode bit-identically) without panicking.
//! - [`wire_corpus`] — the same mutation discipline applied to the
//!   network wire protocol (`repro wire-corpus`): mutated handshakes
//!   and frames must be refused with a typed [`patdnn_serve::wire`]
//!   error or decode bit-identically, never panic.
//! - [`router_smoke`] — the multi-process router smoke (`repro
//!   serving-router`): a real `patdnn-router` sharding two
//!   `patdnn-serve --listen` replicas, asserting shed-retry, exact
//!   typed-terminal accounting, per-class p99 bounds, and a clean
//!   drain.
//!
//! Run `cargo run -p patdnn-bench --release --bin repro -- all` to
//! regenerate everything; DESIGN.md §2 holds the paper-vs-measured
//! record. Serving performance is not measured here: the repo benchmark
//! (`benchmark/README.md`) is its one yardstick.

pub mod corpus;
pub mod figures;
pub mod report;
pub mod router_smoke;
pub mod tables;
pub mod wire_corpus;
pub mod workloads;

/// Global options for reproduction runs.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// Timing repetitions per measurement (after one warm-up).
    pub reps: usize,
    /// Shrink spatial sizes 4× for quick smoke runs.
    pub quick: bool,
    /// CPU threads for parallel runs (the paper uses 8).
    pub threads: usize,
}

impl Default for RunOptions {
    /// Two reps, full size, one thread per available core (1 if the
    /// core count cannot be read), so a run never oversubscribes.
    fn default() -> Self {
        RunOptions {
            reps: 2,
            quick: false,
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

impl RunOptions {
    /// A fast configuration for tests and smoke runs.
    pub fn quick() -> Self {
        RunOptions {
            reps: 1,
            quick: true,
            threads: 4,
        }
    }

    /// Applies the quick spatial scaling to an input size.
    pub fn scale_hw(&self, hw: usize) -> usize {
        if self.quick {
            (hw / 4).max(7)
        } else {
            hw
        }
    }
}
