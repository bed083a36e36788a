//! # patdnn
//!
//! End-to-end reproduction of **PatDNN: Achieving Real-Time DNN Execution
//! on Mobile Devices with Pattern-based Weight Pruning** (ASPLOS 2020) in
//! Rust.
//!
//! This facade crate re-exports the workspace's layers:
//!
//! - [`tensor`] — dense tensors, GEMM, im2col, Winograd.
//! - [`nn`] — trainable DNN substrate and the paper's model inventories.
//! - [`core`] — pattern-based pruning: pattern sets, projections, ADMM.
//! - [`compiler`] — LR, filter-kernel reorder, FKW storage, LRE, tuning.
//! - [`runtime`] — dense/CSR/pattern executors, thread pool, GPU simulator.
//! - [`serve`] — compiled-model engine, model artifacts, dynamic
//!   batching, and the serving front-end.
//!
//! See `DESIGN.md` for the system inventory and DESIGN.md §2 for the
//! paper-vs-measured record of every table and figure; serving
//! performance is measured by the repo benchmark (`benchmark/README.md`).
//!
//! # Examples
//!
//! ```
//! use patdnn::nn::models::{vgg16, DatasetKind};
//!
//! let spec = vgg16(DatasetKind::ImageNet);
//! assert_eq!(spec.conv_layer_count(), 13);
//! ```

pub use patdnn_compiler as compiler;
pub use patdnn_core as core;
pub use patdnn_nn as nn;
pub use patdnn_runtime as runtime;
pub use patdnn_serve as serve;
pub use patdnn_tensor as tensor;
