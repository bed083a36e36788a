//! # patdnn-serve
//!
//! The serving layer of the PatDNN reproduction: everything between a
//! pruned, compiled network and live inference traffic.
//!
//! PatDNN's end-to-end promise is real-time *inference* — the compiler
//! stack (FKW storage, filter-kernel reorder, LRE, tuning) only pays off
//! when a whole network executes as one compiled plan. This crate
//! provides that plan plus the deployment story around it:
//!
//! - [`compile`] — lowers an exported network ([`patdnn_nn::export`]),
//!   residual blocks included, through the compiler's graph passes (BN
//!   folding, ReLU fusion into convs and joins, DCE) into a
//!   [`artifact::ModelArtifact`]: a DAG plan whose values are assigned
//!   buffer slots by liveness analysis, with each pruned layer's
//!   pattern table and FKW storage derived from its weights.
//! - [`tune`] — per-layer execution tuning (§5.5 at deployment): a
//!   [`compile::CompileOptions`] tuning policy selects each
//!   pattern-conv step's [`artifact::ExecConfig`] (opt level,
//!   tile/unroll parameters, thread schedule, and lowering
//!   *algorithm* — direct FKW, the dense tile, or Winograd) via the
//!   compiler's performance estimator or GA exploration plus an
//!   algorithm run-off over real timed runs.
//! - [`algo_exec`] — the densified lowerings behind the non-direct
//!   algorithm choices: [`algo_exec::Im2colConv`] (the dense case of
//!   the pattern tile; no patch matrix despite the name) and
//!   [`algo_exec::WinogradConv`] (`F(2x2,3x3)`), both preparing
//!   weights at engine build, plus the typed Winograd eligibility
//!   guard ([`algo_exec::winograd_eligible`]).
//! - [`quant`] — the INT8 quantization pass: symmetric per-filter
//!   weight scales over the artifact's own FKW storage, activation
//!   scales calibrated from a sample batch
//!   ([`patdnn_nn::calibrate`]), `i8 × i8 → i32` execution dispatched
//!   per step from the persisted [`artifact::Precision`].
//! - [`artifact`] — the versioned binary model format: pruned FKW
//!   weights plus layer geometry, slot topology, per-step execution
//!   configs, per-step precision, and per-step algorithm choice
//!   (format v5), save/load without retraining, re-pruning, retuning
//!   or recalibrating. The compatibility contract: write v5, read v5
//!   and v4 (whose steps decode to the direct algorithm); any other
//!   version is refused with a typed error.
//! - [`mod@verify`] — the plan verifier: one static pass of abstract
//!   interpretation over a decoded artifact proving every semantic
//!   invariant (slot lifetimes, shape dataflow, FKW index bounds, i32
//!   accumulation depth, precision flow, exec-config and algorithm
//!   eligibility) before the engine trusts the plan; runs by default
//!   at [`artifact::ModelArtifact::load`] and at engine build, and
//!   returns a typed [`verify::VerifyReport`] rather than failing
//!   fast.
//! - [`engine`] — the [`engine::Engine`]: an executable DAG plan of
//!   per-step executors (residual `Add` joins included) reading and
//!   writing pooled, liveness-shared slot buffers, with a single
//!   `infer` entry point; batch-N throughout.
//! - [`registry`] — named models, shared between workers.
//! - [`request`] — the request-lifecycle API: a [`request::Client`]
//!   builds requests carrying a deadline, a [`request::Priority`]
//!   class, and a [`request::CancelToken`]; submission returns a
//!   [`request::ResponseHandle`] with `wait`/`wait_timeout`/`try_poll`
//!   and typed [`request::Terminal`] states (`Completed`, `Expired`,
//!   `Cancelled`, `Shed`). Admission control bounds global and
//!   per-model in-flight work and sheds the overflow with a retry
//!   hint.
//! - [`batching`] — the bounded request queue with deadline- and
//!   priority-aware dynamic batching: collect up to `max_batch`
//!   same-model requests or a `max_wait` deadline, dispatch by
//!   priority class with earliest-deadline-first ordering inside each
//!   class, drop expired requests *before* execution, and protect
//!   `Batch`-class work from starvation with a bounded boost.
//! - [`server`] — the worker pool tying registry + queue together.
//! - [`mod@wire`] — the versioned length-prefixed binary protocol: the
//!   request API rendered as frames, with every [`ServeError`] variant
//!   and [`request::Terminal`] state carrying a stable numeric code
//!   (the frozen v1 surface; see [`prelude`]).
//! - [`net`] — the std-only TCP front-end (`patdnn-serve --listen`):
//!   connections map onto the [`request::Client`] lifecycle so
//!   deadlines, priorities, cancellation, and shed-with-retry-hint
//!   travel over the wire as typed responses; plus a minimal HTTP/1.1
//!   shim for `/metrics` and `/healthz` on the same port. The
//!   accept/sniff/dispatch loop behind that port is one private module
//!   (`frontend`) that the router's port reuses over its own backend.
//! - [`router`] — the shard router (`patdnn-router`): consistent
//!   hashing of models over a replica fleet, per-replica in-flight
//!   accounting, retry-on-shed to the next replica, and health-based
//!   ejection/readmission.
//! - [`metrics`] — per-request latency and throughput counters
//!   (p50/p95/p99, QPS), per priority class, plus shed / expired /
//!   cancelled lifecycle counters and live queue-depth / in-flight
//!   gauges.
//! - [`telemetry`] — request-scoped tracing and per-layer profiling:
//!   every served request (per the sampling
//!   [`telemetry::TelemetryPolicy`]) leaves a span tree — enqueue,
//!   admission, queue wait, batch assembly, execution, delivery —
//!   in a bounded lock-light ring, execution is profiled per plan
//!   step (wall time, precision, effective dense GFLOP/s), and the
//!   whole record exports as Chrome-trace JSON or per-layer
//!   p50/p99 snapshots.
//!
//! See `DESIGN.md` §7 for the serving architecture and batching
//! policy, and §10 for the request lifecycle and admission control.
//!
//! # Examples
//!
//! ```
//! use patdnn_nn::models::small_cnn;
//! use patdnn_serve::compile::compile_network;
//! use patdnn_serve::engine::{Engine, EngineOptions};
//! use patdnn_tensor::{rng::Rng, Tensor};
//!
//! let mut rng = Rng::seed_from(0);
//! let net = small_cnn(3, 8, 4, &mut rng);
//! let artifact = compile_network("demo", &net, [3, 8, 8]).unwrap();
//! let engine = Engine::new(artifact, EngineOptions::default()).unwrap();
//! let out = engine.infer(&Tensor::randn(&[1, 3, 8, 8], &mut rng)).unwrap();
//! assert_eq!(out.shape(), &[1, 4]);
//! ```

pub mod algo_exec;
pub mod artifact;
pub mod batching;
pub mod compile;
pub mod engine;
mod frontend;
pub mod metrics;
pub mod net;
pub mod quant;
pub mod registry;
pub mod request;
pub mod router;
pub mod server;
pub mod telemetry;
pub mod tune;
pub mod verify;
pub mod wire;

/// The frozen v1 request-API surface, shared by in-process callers and
/// the wire protocol.
///
/// Everything here is what a caller needs to submit requests and
/// interpret their typed outcomes — locally through
/// [`Server::client`], or remotely through [`net::NetClient`] against
/// a `patdnn-serve --listen` process or a `patdnn-router` shard
/// router. The wire protocol ([`mod@wire`]) serializes exactly these
/// types: [`ServeError::code`] / [`request::Terminal::code`] give
/// every outcome a stable numeric code, so the two surfaces cannot
/// drift apart.
pub mod prelude {
    pub use crate::net::{NetClient, NetServer, NetServerConfig, WireOutcome};
    pub use crate::request::{
        AdmissionPolicy, CancelToken, Client, Priority, RequestBuilder, ResponseHandle, Terminal,
    };
    pub use crate::router::{Router, RouterConfig};
    pub use crate::server::{InferResponse, Server, ServerConfig};
    pub use crate::wire::{Frame, WireError, WIRE_VERSION};
    pub use crate::ServeError;
}

pub use algo_exec::{winograd_eligible, WinogradRejection};
pub use artifact::{ArtifactError, ExecConfig, LayerPlan, LoadPolicy, ModelArtifact, Precision};
pub use compile::{
    compile_graph, compile_graph_with, compile_network, compile_network_with, CompileError,
    CompileOptions,
};
pub use engine::{Engine, EngineOptions, StepTiming};
pub use metrics::{ClassSnapshot, MetricsSnapshot, ServerMetrics};
pub use net::{NetClient, NetServer, NetServerConfig, WireOutcome};
pub use quant::{compile_network_int8, quantize_artifact, QuantError};
pub use registry::ModelRegistry;
pub use request::{
    AdmissionPolicy, CancelToken, Client, Priority, RequestBuilder, ResponseHandle, Terminal,
};
pub use router::{Router, RouterConfig, RouterMetricsSnapshot};
pub use server::{InferResponse, Server, ServerConfig};
pub use telemetry::{
    LayerSnapshot, RequestTrace, SpanEvent, SpanKind, Stage, StageStat, Telemetry, TelemetryPolicy,
    TraceId,
};
pub use tune::TunePolicy;
pub use verify::{verify, VerifyReport, Violation};
pub use wire::{Frame, WireError};

use std::fmt;

/// Errors surfaced by the serving layer.
///
/// This enum is part of the **frozen v1 request API**: every variant
/// has a stable numeric wire code ([`ServeError::code`]) that the
/// network protocol ([`mod@wire`]) serializes, so remote callers see the
/// same typed surface as in-process ones. New variants may be added
/// (the enum is `#[non_exhaustive]`), but existing codes never change
/// meaning. See DESIGN.md §14 for the code table.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// The named model is not registered.
    UnknownModel(String),
    /// The request queue is at capacity (backpressure).
    QueueFull,
    /// The batch queue was closed before the request could enqueue.
    QueueClosed,
    /// The server is shutting down; new requests are refused and, under
    /// fast shutdown, still-queued requests fail with this error.
    ShuttingDown,
    /// The request's deadline passed before execution; it was dropped
    /// without executing.
    Expired {
        /// How far past the deadline the drop happened.
        missed_by: std::time::Duration,
    },
    /// The request's cancel token fired before execution.
    Cancelled,
    /// Admission control refused the request: the global or per-model
    /// in-flight budget is exhausted.
    Shed {
        /// Server's estimate of when capacity may free up.
        retry_after_hint: std::time::Duration,
    },
    /// A request was submitted without an input tensor.
    MissingInput,
    /// The server is shutting down (legacy name; response channels also
    /// surface this when a server disappears mid-request).
    Closed,
    /// The request input does not match the model's input shape.
    ShapeMismatch {
        /// Shape the model expects (per item, `[c, h, w]`).
        expected: Vec<usize>,
        /// Shape the request carried.
        got: Vec<usize>,
    },
    /// Compilation failed.
    Compile(CompileError),
    /// Artifact decoding failed.
    Artifact(ArtifactError),
    /// INT8 quantization failed.
    Quant(QuantError),
    /// An unexpected failure inside a worker.
    Internal(String),
}

impl ServeError {
    /// The variant's stable v1 wire code.
    ///
    /// Codes are frozen: they are what the network protocol
    /// ([`mod@wire`]) puts on the wire, what `from_code` round-trips,
    /// and what routers key retry decisions on ([`ServeError::Shed`]
    /// is retried on the next replica; most others are terminal).
    /// Never renumber; new variants append new codes.
    pub fn code(&self) -> u16 {
        match self {
            ServeError::UnknownModel(_) => 1,
            ServeError::QueueFull => 2,
            ServeError::QueueClosed => 3,
            ServeError::ShuttingDown => 4,
            ServeError::Expired { .. } => 5,
            ServeError::Cancelled => 6,
            ServeError::Shed { .. } => 7,
            ServeError::MissingInput => 8,
            ServeError::Closed => 9,
            ServeError::ShapeMismatch { .. } => 10,
            ServeError::Compile(_) => 11,
            ServeError::Artifact(_) => 12,
            ServeError::Quant(_) => 13,
            ServeError::Internal(_) => 14,
        }
    }

    /// Reconstructs the variant a v1 wire code names, with empty
    /// payloads (`from_code(e.code())` always yields a variant whose
    /// `code()` equals `e.code()`). Wire decoding uses this to map a
    /// frame's code back to the typed error, then re-attaches the
    /// payload fields the frame carries (durations, messages).
    /// Unknown codes return `None` so a newer peer's error degrades to
    /// a typed decode failure instead of a mis-typed variant.
    pub fn from_code(code: u16) -> Option<ServeError> {
        Some(match code {
            1 => ServeError::UnknownModel(String::new()),
            2 => ServeError::QueueFull,
            3 => ServeError::QueueClosed,
            4 => ServeError::ShuttingDown,
            5 => ServeError::Expired {
                missed_by: std::time::Duration::ZERO,
            },
            6 => ServeError::Cancelled,
            7 => ServeError::Shed {
                retry_after_hint: std::time::Duration::ZERO,
            },
            8 => ServeError::MissingInput,
            9 => ServeError::Closed,
            10 => ServeError::ShapeMismatch {
                expected: Vec::new(),
                got: Vec::new(),
            },
            11 => ServeError::Compile(CompileError::InvalidOptions(String::new())),
            12 => ServeError::Artifact(ArtifactError::Truncated),
            13 => ServeError::Quant(QuantError::MissingCalibration {
                step: String::new(),
            }),
            14 => ServeError::Internal(String::new()),
            _ => return None,
        })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::UnknownModel(name) => write!(f, "unknown model {name:?}"),
            ServeError::QueueFull => write!(f, "request queue full"),
            ServeError::QueueClosed => write!(f, "request queue closed"),
            ServeError::ShuttingDown => write!(f, "server shutting down"),
            ServeError::Expired { missed_by } => {
                write!(
                    f,
                    "request expired {:.3}ms past its deadline without executing",
                    missed_by.as_secs_f64() * 1e3
                )
            }
            ServeError::Cancelled => write!(f, "request cancelled"),
            ServeError::Shed { retry_after_hint } => {
                write!(
                    f,
                    "request shed by admission control, retry after ~{:.0}ms",
                    retry_after_hint.as_secs_f64() * 1e3
                )
            }
            ServeError::MissingInput => write!(f, "request submitted without an input tensor"),
            ServeError::Closed => write!(f, "server closed"),
            ServeError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "input shape {got:?} does not match model input {expected:?}"
                )
            }
            ServeError::Compile(e) => write!(f, "compile error: {e}"),
            ServeError::Artifact(e) => write!(f, "artifact error: {e}"),
            ServeError::Quant(e) => write!(f, "quantization error: {e}"),
            ServeError::Internal(msg) => write!(f, "internal server error: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CompileError> for ServeError {
    fn from(e: CompileError) -> Self {
        ServeError::Compile(e)
    }
}

impl From<ArtifactError> for ServeError {
    fn from(e: ArtifactError) -> Self {
        ServeError::Artifact(e)
    }
}
