//! # patdnn-runtime
//!
//! The execution substrate of the PatDNN reproduction: everything that
//! runs convolutions and measures them.
//!
//! - [`executor`] — the [`executor::ConvExecutor`] trait plus timing
//!   helpers.
//! - [`dense`] — dense baselines mirroring the frameworks of the paper's
//!   evaluation: a naive loop nest (TFLite-like), im2col+GEMM (TVM-like),
//!   Winograd (MNN-like), and PatDNN's own tiled dense kernel.
//! - [`sparse_csr`] — CSR sparse convolution, the "almost no speedup"
//!   baseline of §6.2.
//! - [`pattern_exec`] — the pattern-based executors over FKW storage at
//!   the four optimization levels of Figure 13 (`No-opt`, `+Reorder`,
//!   `+LRE`, `+Tune`), and [`quant_exec`], their INT8 counterpart; the
//!   two tiled levels share one output-stationary tile driver.
//! - [`parallel`] — multi-threaded layer execution with FKR-aware load
//!   balancing (8 threads in the paper's runs).
//! - [`gpu`] — a simulated mobile GPU (thread blocks, warps, divergence
//!   and load-imbalance modelling) substituting for the Adreno 640; see
//!   DESIGN.md §2.
//! - [`platform`] — mobile platform descriptors (Snapdragon 855/845,
//!   Kirin 980) for the portability study (Figure 18).
//! - [`counters`] — FLOP/GFLOPS accounting and register-load counting.

pub mod counters;
pub mod dense;
pub mod executor;
pub mod gpu;
pub mod parallel;
pub mod pattern_exec;
pub mod platform;
pub mod quant_exec;
pub mod sparse_csr;
pub mod tile;

#[cfg(test)]
mod test_layers;

pub use executor::ConvExecutor;
pub use pattern_exec::{OptLevel, PatternConv};
pub use platform::Platform;
pub use quant_exec::QuantPatternConv;
