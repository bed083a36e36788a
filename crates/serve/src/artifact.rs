//! The versioned model artifact format.
//!
//! A [`ModelArtifact`] is the on-disk form of a compiled pruned network:
//! per-layer FKW compressed weights plus layer geometry and the plan's
//! buffer-slot topology, enough to rebuild an
//! [`crate::engine::Engine`] without retraining, re-pruning, or
//! re-running filter-kernel reorder. The codec is a hand-rolled
//! little-endian byte format (the container builds offline, so no
//! serialization framework is used):
//!
//! ```text
//! "PATDNN" magic | u16 version | model name | input [c, h, w]
//! u32 slot count | u32 step count | tagged step records:
//!   u8 op tag | u8 n_inputs | u32 input slots... | u32 output slot
//!   | op payload (see LayerPlan)
//! ```
//!
//! Every step record carries its buffer slots, a [`Precision`] tag, the
//! auto-tuner's [`ExecConfig`] (§5.5: optimization level, tile/unroll
//! parameters, thread schedule) and, last, the convolution-algorithm
//! tag, so a tuned or INT8-quantized plan serves as compiled with no
//! retuning or calibration at load. Every step reads one or more buffer
//! *slots* and writes one, slot 0 being the network input; slot ids come
//! from the compiler's liveness analysis ([`crate::compile`]), so two
//! values whose live ranges do not overlap share a buffer. The precision
//! tag is checked against the op payload: a step claiming `F32` over an
//! INT8 payload (or the reverse) never verifies.
//!
//! # Compatibility contract
//!
//! Write the current version ([`VERSION`], 5), read it and the one
//! version before it ([`VERSION_V4`]). A v4 step record is the v5 record
//! without the algorithm tag, and decodes to [`ConvAlgo::Direct`], the
//! only lowering v4 knew. There is no v4 encoder: the repository is the
//! only producer of artifacts, so the contract is pinned by a frozen v4
//! byte fixture in the tests. Any other version field is refused with
//! [`ArtifactError::UnsupportedVersion`]. The next format bump moves
//! the window: it reads v5 and drops the v4 path.
//!
//! `f32` weights are stored as raw bit patterns, so a save → load round
//! trip is bitwise lossless.
//!
//! # Wire-format vs. semantic checks
//!
//! Decoding enforces **wire-format** invariants only: magic, version,
//! truncation, unknown tags (op / precision / opt-level / permutation /
//! algorithm), string encoding, tensor-header consistency, and the
//! pattern-mask bounds [`Pattern::from_mask`] would otherwise panic on.
//! Everything *semantic* — slot topology and lifetimes, shape dataflow,
//! FKW index bounds, weight/bias/scale arities, accumulation-depth
//! proofs, exec-config bounds, algorithm eligibility — lives in one
//! place, the plan verifier ([`mod@crate::verify`]). [`ModelArtifact::load`]
//! runs it by default ([`LoadPolicy::Verify`]) and surfaces rejection
//! as [`ArtifactError::Rejected`]; [`ModelArtifact::decode`] alone
//! accepts any well-formed byte stream, verified or not, so tooling can
//! inspect a broken artifact the verifier would refuse to serve.

use std::fmt;
use std::path::Path;

use patdnn_compiler::fkw::FkwLayer;
use patdnn_compiler::quant::QuantFkwLayer;
use patdnn_compiler::tune::space::{ConvAlgo, LoopPermutation, TuningConfig};
use patdnn_core::pattern::Pattern;
use patdnn_runtime::pattern_exec::OptLevel;
use patdnn_tensor::Tensor;

/// File magic.
pub const MAGIC: &[u8; 6] = b"PATDNN";
/// Current format version (per-step convolution algorithm choice): the
/// one [`ModelArtifact::encode`] writes.
pub const VERSION: u16 = 5;
/// The version before [`VERSION`], without per-step algorithm tags: the
/// oldest one [`ModelArtifact::decode`] reads.
pub const VERSION_V4: u16 = 4;

/// The numeric precision a plan step executes at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Precision {
    /// Full-precision `f32` execution.
    F32,
    /// Symmetric INT8: i8 weights, i8 activations, i32 accumulation.
    Int8,
}

impl Precision {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Int8 => "int8",
        }
    }
}

/// Errors produced while decoding an artifact.
#[derive(Debug)]
pub enum ArtifactError {
    /// The buffer does not start with the `PATDNN` magic.
    BadMagic,
    /// The format version is outside the ones this build reads
    /// ([`VERSION_V4`] and [`VERSION`]).
    UnsupportedVersion(u16),
    /// The buffer ended before the structure was complete.
    Truncated,
    /// A structural invariant failed while decoding.
    Malformed(String),
    /// The buffer decoded, but the plan verifier found semantic
    /// violations; the full report is attached.
    Rejected(Box<crate::verify::VerifyReport>),
    /// Filesystem error during save/load.
    Io(std::io::Error),
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => write!(f, "not a PatDNN artifact (bad magic)"),
            ArtifactError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported artifact version {v} (reads {VERSION_V4}..={VERSION})"
                )
            }
            ArtifactError::Truncated => write!(f, "artifact truncated"),
            ArtifactError::Malformed(msg) => write!(f, "malformed artifact: {msg}"),
            ArtifactError::Rejected(report) => write!(f, "artifact rejected: {report}"),
            ArtifactError::Io(e) => write!(f, "artifact i/o: {e}"),
        }
    }
}

impl std::error::Error for ArtifactError {}

impl From<std::io::Error> for ArtifactError {
    fn from(e: std::io::Error) -> Self {
        ArtifactError::Io(e)
    }
}

/// One compiled operation of the executable plan.
///
/// Convolution records carry only weight-side geometry (stride/pad plus
/// whatever the weight arrays imply); spatial input sizes are derived at
/// engine-build time from the artifact's input shape, so one artifact
/// serves any compatible spatial resolution.
#[derive(Debug, Clone, PartialEq)]
pub enum LayerPlan {
    /// Pattern-pruned convolution in FKW storage.
    PatternConv {
        /// Layer name.
        name: String,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
        /// FKW compressed weights.
        fkw: FkwLayer,
        /// Per-filter bias, if any.
        bias: Option<Vec<f32>>,
        /// Whether a ReLU was fused into this convolution.
        relu: bool,
    },
    /// Dense (unpruned or unpatternable) convolution.
    DenseConv {
        /// Layer name.
        name: String,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
        /// OIHW weights.
        weights: Tensor,
        /// Per-filter bias, if any.
        bias: Option<Vec<f32>>,
        /// Whether a ReLU was fused into this convolution.
        relu: bool,
    },
    /// Max pooling.
    MaxPool {
        /// Window size.
        kernel: usize,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
    },
    /// Global average pooling to `[batch, c, 1, 1]`.
    GlobalAvgPool,
    /// Flatten to `[batch, features]`.
    Flatten,
    /// Standalone ReLU (post-FC; post-conv ReLUs are fused).
    Relu,
    /// Fully-connected layer.
    Fc {
        /// Layer name.
        name: String,
        /// Weights, shape `[out_f, in_f]`.
        weights: Tensor,
        /// Per-output bias.
        bias: Vec<f32>,
    },
    /// Elementwise addition of two slots (residual join).
    Add {
        /// Whether a ReLU was fused into this join.
        relu: bool,
    },
    /// INT8-quantized pattern-pruned convolution: the FKW index layout
    /// with i8 weight codes, per-filter scales, and the calibrated
    /// input-activation scale.
    QuantPatternConv {
        /// Layer name.
        name: String,
        /// Stride.
        stride: usize,
        /// Padding.
        pad: usize,
        /// Quantized FKW storage (layout + i8 weights + scales).
        qfkw: QuantFkwLayer,
        /// Per-filter bias (`f32`, added after dequantization), if any.
        bias: Option<Vec<f32>>,
        /// Whether a ReLU was fused into this convolution.
        relu: bool,
    },
    /// INT8-quantized fully-connected layer.
    QuantFc {
        /// Layer name.
        name: String,
        /// Output features.
        out_f: usize,
        /// Input features.
        in_f: usize,
        /// Quantized weights, row-major `[out_f, in_f]` codes.
        qweights: Vec<i8>,
        /// Per-output-row dequantization scales (`out_f` entries).
        scales: Vec<f32>,
        /// Calibrated input-activation scale.
        act_scale: f32,
        /// Per-output bias (`f32`, added after dequantization).
        bias: Vec<f32>,
    },
}

impl LayerPlan {
    /// Short kind label for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            LayerPlan::PatternConv { .. } => "pattern-conv",
            LayerPlan::DenseConv { .. } => "dense-conv",
            LayerPlan::MaxPool { .. } => "maxpool",
            LayerPlan::GlobalAvgPool => "gap",
            LayerPlan::Flatten => "flatten",
            LayerPlan::Relu => "relu",
            LayerPlan::Fc { .. } => "fc",
            LayerPlan::Add { .. } => "add",
            LayerPlan::QuantPatternConv { .. } => "pattern-conv-i8",
            LayerPlan::QuantFc { .. } => "fc-i8",
        }
    }

    /// How many slots this op reads.
    pub fn arity(&self) -> usize {
        match self {
            LayerPlan::Add { .. } => 2,
            _ => 1,
        }
    }

    /// The precision this op's payload executes at. A step's stamped
    /// [`PlanStep::precision`] must agree with it (validated at decode
    /// and engine build).
    pub fn precision(&self) -> Precision {
        match self {
            LayerPlan::QuantPatternConv { .. } | LayerPlan::QuantFc { .. } => Precision::Int8,
            _ => Precision::F32,
        }
    }
}

/// The executor configuration of one plan step: the auto-tuner's
/// per-layer choices (§5.5) persisted in the artifact so a tuned plan
/// serves tuned without retuning at load.
///
/// Only pattern-conv steps are sensitive to it today (the other ops
/// have no tuning knobs and carry the default). Tile and unroll sizes
/// must be nonzero powers of two — the codec rejects anything else at
/// decode with a typed [`ArtifactError::Malformed`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecConfig {
    /// Optimization level of the pattern executor (Figure 13 levels).
    pub opt_level: OptLevel,
    /// Loop order, blocking, tile and unroll factors.
    pub tuning: TuningConfig,
    /// Intra-layer CPU threads (1 = serial; >1 uses the runtime's
    /// FKR-balanced parallel schedule).
    pub threads: usize,
    /// Which convolution lowering executes the step (v5 tag; v4
    /// artifacts decode to [`ConvAlgo::Direct`]). Only meaningful on
    /// `f32` pattern-conv steps; every other op carries `Direct`.
    pub algo: ConvAlgo,
}

impl Default for ExecConfig {
    /// The untuned configuration: `OptLevel::Full` at the global tuned
    /// default, serial, direct.
    fn default() -> Self {
        ExecConfig {
            opt_level: OptLevel::Full,
            tuning: TuningConfig::tuned_default(),
            threads: 1,
            algo: ConvAlgo::Direct,
        }
    }
}

/// Largest tile size the codec accepts.
const MAX_TILE: usize = 1024;
/// Largest unroll factor the codec accepts.
const MAX_UNROLL: usize = 64;
/// Largest per-step thread count the codec accepts.
const MAX_THREADS: usize = 256;

impl ExecConfig {
    /// The default config with an explicit thread schedule.
    pub fn with_threads(threads: usize) -> Self {
        ExecConfig {
            threads,
            ..ExecConfig::default()
        }
    }

    /// Structural validation: tile/unroll sizes are nonzero powers of
    /// two within codec bounds and the thread count is sane. Runs at
    /// decode and again at engine build.
    pub fn validate(&self) -> Result<(), String> {
        let pow2 = |what: &str, x: usize, max: usize| -> Result<(), String> {
            if x == 0 || !x.is_power_of_two() || x > max {
                Err(format!("{what} {x} is not a power of two in 1..={max}"))
            } else {
                Ok(())
            }
        };
        pow2("tile_oc", self.tuning.tile_oc, MAX_TILE)?;
        pow2("tile_hw", self.tuning.tile_hw, MAX_TILE)?;
        pow2("unroll_oc", self.tuning.unroll_oc, MAX_UNROLL)?;
        pow2("unroll_w", self.tuning.unroll_w, MAX_UNROLL)?;
        if self.threads == 0 || self.threads > MAX_THREADS {
            return Err(format!("thread count {} out of range", self.threads));
        }
        Ok(())
    }

    /// Compact human-readable form for plan dumps, e.g.
    /// `Reorder+LRE+Tune cohwci_b tile 16x32 unroll 4x8 1t direct`.
    pub fn summary(&self) -> String {
        format!(
            "{} {} tile {}x{} unroll {}x{} {}t {}",
            self.opt_level.label(),
            self.tuning.permute.label(self.tuning.blocked),
            self.tuning.tile_oc,
            self.tuning.tile_hw,
            self.tuning.unroll_oc,
            self.tuning.unroll_w,
            self.threads,
            self.algo.label(),
        )
    }
}

/// One step of the executable DAG plan: an op plus the buffer slots it
/// reads and the slot it writes. Slot 0 is the network input and is
/// never written.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanStep {
    /// The operation.
    pub op: LayerPlan,
    /// Slots read, in op order (conv input; `Add` reads two).
    pub inputs: Vec<usize>,
    /// Slot written. Never 0 and never one of `inputs` (steps are not
    /// in-place, so the engine can borrow inputs and output disjointly).
    pub output: usize,
    /// The executor configuration this step runs with.
    pub exec: ExecConfig,
    /// The numeric precision this step executes at. Stamped into every
    /// step record and validated against the op payload.
    pub precision: Precision,
}

impl PlanStep {
    /// A default-config `f32`-or-quantized step over the given slots,
    /// with the precision stamped from the op payload.
    pub fn new(op: LayerPlan, inputs: Vec<usize>, output: usize) -> Self {
        let precision = op.precision();
        PlanStep {
            op,
            inputs,
            output,
            exec: ExecConfig::default(),
            precision,
        }
    }
}

/// A compiled model: input geometry plus the executable DAG plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelArtifact {
    /// Model name (registry key by convention).
    pub name: String,
    /// Per-item input shape `[c, h, w]`.
    pub input: [usize; 3],
    /// Total buffer slots, including slot 0 (the network input).
    pub slots: usize,
    /// The plan steps in execution order (producers before consumers).
    pub steps: Vec<PlanStep>,
}

impl ModelArtifact {
    /// Builds a chain-plan artifact from a bare op list: step `i` reads
    /// slot `i` and writes slot `i + 1`, the natural form for
    /// straight-line models and tests.
    pub fn chain(name: &str, input: [usize; 3], ops: Vec<LayerPlan>) -> Self {
        let steps = ops
            .into_iter()
            .enumerate()
            .map(|(i, op)| PlanStep::new(op, vec![i], i + 1))
            .collect::<Vec<_>>();
        ModelArtifact {
            name: name.to_owned(),
            input,
            slots: steps.len() + 1,
            steps,
        }
    }

    /// Total bytes of weight payload (FKW weights + dense weights + FC
    /// weights), for size reporting.
    pub fn weight_bytes(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match &s.op {
                LayerPlan::PatternConv { fkw, .. } => fkw.total_bytes(),
                LayerPlan::DenseConv { weights, .. } => weights.len() * 4,
                LayerPlan::Fc { weights, .. } => weights.len() * 4,
                LayerPlan::QuantPatternConv { qfkw, .. } => qfkw.total_bytes(),
                LayerPlan::QuantFc {
                    qweights, scales, ..
                } => qweights.len() + scales.len() * 4,
                _ => 0,
            })
            .sum()
    }

    /// Whether the plan is a straight chain (step `i` reads slot `i`,
    /// writes slot `i + 1`, no joins).
    pub fn is_chain(&self) -> bool {
        self.slots == self.steps.len() + 1
            && self
                .steps
                .iter()
                .enumerate()
                .all(|(i, s)| s.inputs[..] == [i] && s.output == i + 1)
    }

    /// Encodes the artifact to its binary form (current version).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.bytes(MAGIC);
        w.u16(VERSION);
        w.str(&self.name);
        for d in self.input {
            w.u32(d as u32);
        }
        w.u32(self.slots as u32);
        w.u32(self.steps.len() as u32);
        for step in &self.steps {
            encode_step(&mut w, step);
        }
        w.finish()
    }

    /// Decodes an artifact from its binary form: [`VERSION`] or
    /// [`VERSION_V4`] (see the module docs' compatibility contract).
    pub fn decode(buf: &[u8]) -> Result<Self, ArtifactError> {
        let mut r = ByteReader::new(buf);
        if r.bytes(MAGIC.len())? != MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        let version = r.u16()?;
        if !(VERSION_V4..=VERSION).contains(&version) {
            return Err(ArtifactError::UnsupportedVersion(version));
        }
        let name = r.str()?;
        let input = [r.u32()? as usize, r.u32()? as usize, r.u32()? as usize];
        let slots = r.u32()? as usize;
        let count = r.u32()? as usize;
        let mut steps = Vec::with_capacity(count.min(1024));
        for _ in 0..count {
            steps.push(decode_step(&mut r, version)?);
        }
        let artifact = ModelArtifact {
            name,
            input,
            slots,
            steps,
        };
        if !r.is_empty() {
            return Err(ArtifactError::Malformed("trailing bytes".into()));
        }
        Ok(artifact)
    }

    /// Decodes an artifact and runs the plan verifier over the result;
    /// a decodable buffer whose plan breaks any semantic invariant is
    /// refused with [`ArtifactError::Rejected`] carrying the full
    /// report.
    pub fn decode_verified(buf: &[u8]) -> Result<Self, ArtifactError> {
        let artifact = Self::decode(buf)?;
        let report = crate::verify::verify(&artifact);
        if report.is_ok() {
            Ok(artifact)
        } else {
            Err(ArtifactError::Rejected(Box::new(report)))
        }
    }

    /// Writes the encoded artifact to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        std::fs::write(path, self.encode())?;
        Ok(())
    }

    /// Reads and decodes an artifact from `path`, verifying the plan
    /// ([`LoadPolicy::Verify`]).
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        Self::load_with(path, LoadPolicy::Verify)
    }

    /// Reads an artifact with an explicit [`LoadPolicy`]. Use
    /// [`LoadPolicy::DecodeOnly`] when the caller verifies itself (the
    /// engine does) or wants to inspect a plan the verifier rejects.
    pub fn load_with(path: impl AsRef<Path>, policy: LoadPolicy) -> Result<Self, ArtifactError> {
        let bytes = std::fs::read(path)?;
        match policy {
            LoadPolicy::Verify => Self::decode_verified(&bytes),
            LoadPolicy::DecodeOnly => Self::decode(&bytes),
        }
    }
}

/// How much checking [`ModelArtifact::load_with`] performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadPolicy {
    /// Decode, then run the plan verifier ([`mod@crate::verify`]); semantic
    /// violations surface as [`ArtifactError::Rejected`]. The default.
    #[default]
    Verify,
    /// Decode only (wire-format checks). For tooling that inspects
    /// broken artifacts, and for callers that verify themselves.
    DecodeOnly,
}

const TAG_PATTERN_CONV: u8 = 0;
const TAG_DENSE_CONV: u8 = 1;
const TAG_MAXPOOL: u8 = 2;
const TAG_GAP: u8 = 3;
const TAG_FLATTEN: u8 = 4;
const TAG_RELU: u8 = 5;
const TAG_FC: u8 = 6;
const TAG_ADD: u8 = 7;
const TAG_QPATTERN_CONV: u8 = 8;
const TAG_QFC: u8 = 9;

const PRECISION_F32: u8 = 0;
const PRECISION_INT8: u8 = 1;

fn encode_step(w: &mut ByteWriter, step: &PlanStep) {
    assert!(step.inputs.len() <= u8::MAX as usize, "step arity");
    w.u8(step.inputs.len() as u8);
    for &s in &step.inputs {
        w.u32(s as u32);
    }
    w.u32(step.output as u32);
    w.u8(match step.precision {
        Precision::F32 => PRECISION_F32,
        Precision::Int8 => PRECISION_INT8,
    });
    encode_exec_config(w, &step.exec);
    // v5 appends the algorithm tag after the fixed-width exec record,
    // so a v4 step record is exactly this one without that byte.
    w.u8(algo_tag(step.exec.algo));
    encode_op(w, &step.op);
}

fn decode_step(r: &mut ByteReader, version: u16) -> Result<PlanStep, ArtifactError> {
    let n = r.u8()? as usize;
    let mut inputs = Vec::with_capacity(n);
    for _ in 0..n {
        inputs.push(r.u32()? as usize);
    }
    let output = r.u32()? as usize;
    let precision = match r.u8()? {
        PRECISION_F32 => Precision::F32,
        PRECISION_INT8 => Precision::Int8,
        other => {
            return Err(ArtifactError::Malformed(format!(
                "unknown precision tag {other}"
            )))
        }
    };
    let mut exec = decode_exec_config(r)?;
    // v4 predates per-step algorithm choice; its steps decode to the
    // direct FKW lowering.
    if version > VERSION_V4 {
        exec.algo = decode_algo_tag(r.u8()?)?;
    }
    let op = decode_op(r)?;
    Ok(PlanStep {
        op,
        inputs,
        output,
        exec,
        precision,
    })
}

const OPT_TAGS: [OptLevel; 4] = [
    OptLevel::NoOpt,
    OptLevel::Reorder,
    OptLevel::ReorderLre,
    OptLevel::Full,
];

const ALGO_TAGS: [ConvAlgo; 3] = [ConvAlgo::Direct, ConvAlgo::Im2col, ConvAlgo::Winograd];

fn algo_tag(algo: ConvAlgo) -> u8 {
    ALGO_TAGS
        .iter()
        .position(|&a| a == algo)
        .expect("every algorithm has a tag") as u8
}

fn decode_algo_tag(tag: u8) -> Result<ConvAlgo, ArtifactError> {
    ALGO_TAGS
        .get(tag as usize)
        .copied()
        .ok_or_else(|| ArtifactError::Malformed(format!("unknown conv algorithm tag {tag}")))
}

fn encode_exec_config(w: &mut ByteWriter, cfg: &ExecConfig) {
    // Validated before writing: the fields below are cast to u16, and a
    // silently truncated config would decode valid-looking but
    // different, breaking the codec's round-trip invariant.
    cfg.validate().expect("encodable exec config");
    let opt = OPT_TAGS
        .iter()
        .position(|&l| l == cfg.opt_level)
        .expect("every opt level has a tag");
    w.u8(opt as u8);
    w.u8(match cfg.tuning.permute {
        LoopPermutation::CoCiHw => 0,
        LoopPermutation::CoHwCi => 1,
    });
    w.u8(u8::from(cfg.tuning.blocked));
    w.u16(cfg.tuning.tile_oc as u16);
    w.u16(cfg.tuning.tile_hw as u16);
    w.u16(cfg.tuning.unroll_oc as u16);
    w.u16(cfg.tuning.unroll_w as u16);
    w.u16(cfg.threads as u16);
}

fn decode_exec_config(r: &mut ByteReader) -> Result<ExecConfig, ArtifactError> {
    let malformed = |msg: String| ArtifactError::Malformed(msg);
    let opt_level = *OPT_TAGS
        .get(r.u8()? as usize)
        .ok_or_else(|| malformed("unknown opt level tag".into()))?;
    let permute = match r.u8()? {
        0 => LoopPermutation::CoCiHw,
        1 => LoopPermutation::CoHwCi,
        other => return Err(malformed(format!("unknown loop permutation tag {other}"))),
    };
    let blocked = match r.u8()? {
        0 => false,
        1 => true,
        other => return Err(malformed(format!("blocked flag must be 0/1, got {other}"))),
    };
    let cfg = ExecConfig {
        opt_level,
        tuning: TuningConfig {
            permute,
            blocked,
            tile_oc: r.u16()? as usize,
            tile_hw: r.u16()? as usize,
            unroll_oc: r.u16()? as usize,
            unroll_w: r.u16()? as usize,
        },
        threads: r.u16()? as usize,
        // The algorithm tag lives outside the fixed-width record (v5
        // appends it); v4 decodes keep the direct lowering.
        algo: ConvAlgo::Direct,
    };
    // Bounds on tile/unroll/thread values are semantic, not wire-format:
    // the verifier checks `cfg.validate()` per step.
    Ok(cfg)
}

fn encode_op(w: &mut ByteWriter, layer: &LayerPlan) {
    match layer {
        LayerPlan::PatternConv {
            name,
            stride,
            pad,
            fkw,
            bias,
            relu,
        } => {
            w.u8(TAG_PATTERN_CONV);
            w.str(name);
            w.u32(*stride as u32);
            w.u32(*pad as u32);
            w.u8(u8::from(*relu));
            encode_opt_f32s(w, bias.as_deref());
            encode_fkw(w, fkw);
        }
        LayerPlan::DenseConv {
            name,
            stride,
            pad,
            weights,
            bias,
            relu,
        } => {
            w.u8(TAG_DENSE_CONV);
            w.str(name);
            w.u32(*stride as u32);
            w.u32(*pad as u32);
            w.u8(u8::from(*relu));
            encode_opt_f32s(w, bias.as_deref());
            encode_tensor(w, weights);
        }
        LayerPlan::MaxPool {
            kernel,
            stride,
            pad,
        } => {
            w.u8(TAG_MAXPOOL);
            w.u32(*kernel as u32);
            w.u32(*stride as u32);
            w.u32(*pad as u32);
        }
        LayerPlan::GlobalAvgPool => w.u8(TAG_GAP),
        LayerPlan::Flatten => w.u8(TAG_FLATTEN),
        LayerPlan::Relu => w.u8(TAG_RELU),
        LayerPlan::Fc {
            name,
            weights,
            bias,
        } => {
            w.u8(TAG_FC);
            w.str(name);
            encode_tensor(w, weights);
            encode_f32s(w, bias);
        }
        LayerPlan::Add { relu } => {
            w.u8(TAG_ADD);
            w.u8(u8::from(*relu));
        }
        LayerPlan::QuantPatternConv {
            name,
            stride,
            pad,
            qfkw,
            bias,
            relu,
        } => {
            w.u8(TAG_QPATTERN_CONV);
            w.str(name);
            w.u32(*stride as u32);
            w.u32(*pad as u32);
            w.u8(u8::from(*relu));
            encode_opt_f32s(w, bias.as_deref());
            encode_qfkw(w, qfkw);
        }
        LayerPlan::QuantFc {
            name,
            out_f,
            in_f,
            qweights,
            scales,
            act_scale,
            bias,
        } => {
            w.u8(TAG_QFC);
            w.str(name);
            w.u32(*out_f as u32);
            w.u32(*in_f as u32);
            w.u32(act_scale.to_bits());
            encode_f32s(w, scales);
            encode_f32s(w, bias);
            encode_i8s(w, qweights);
        }
    }
}

fn decode_op(r: &mut ByteReader) -> Result<LayerPlan, ArtifactError> {
    let tag = r.u8()?;
    Ok(match tag {
        TAG_PATTERN_CONV => {
            let name = r.str()?;
            let stride = r.u32()? as usize;
            let pad = r.u32()? as usize;
            let relu = decode_flag(r)?;
            let bias = decode_opt_f32s(r)?;
            let fkw = decode_fkw(r)?;
            LayerPlan::PatternConv {
                name,
                stride,
                pad,
                fkw,
                bias,
                relu,
            }
        }
        TAG_DENSE_CONV => {
            let name = r.str()?;
            let stride = r.u32()? as usize;
            let pad = r.u32()? as usize;
            let relu = decode_flag(r)?;
            let bias = decode_opt_f32s(r)?;
            let weights = decode_tensor(r)?;
            LayerPlan::DenseConv {
                name,
                stride,
                pad,
                weights,
                bias,
                relu,
            }
        }
        TAG_MAXPOOL => {
            let kernel = r.u32()? as usize;
            let stride = r.u32()? as usize;
            let pad = r.u32()? as usize;
            LayerPlan::MaxPool {
                kernel,
                stride,
                pad,
            }
        }
        TAG_GAP => LayerPlan::GlobalAvgPool,
        TAG_FLATTEN => LayerPlan::Flatten,
        TAG_RELU => LayerPlan::Relu,
        TAG_FC => {
            let name = r.str()?;
            let weights = decode_tensor(r)?;
            let bias = decode_f32s(r)?;
            LayerPlan::Fc {
                name,
                weights,
                bias,
            }
        }
        TAG_ADD => LayerPlan::Add {
            relu: decode_flag(r)?,
        },
        TAG_QPATTERN_CONV => {
            let name = r.str()?;
            let stride = r.u32()? as usize;
            let pad = r.u32()? as usize;
            let relu = decode_flag(r)?;
            let bias = decode_opt_f32s(r)?;
            let qfkw = decode_qfkw(r)?;
            LayerPlan::QuantPatternConv {
                name,
                stride,
                pad,
                qfkw,
                bias,
                relu,
            }
        }
        TAG_QFC => {
            let name = r.str()?;
            let out_f = r.u32()? as usize;
            let in_f = r.u32()? as usize;
            let act_scale = f32::from_bits(r.u32()?);
            let scales = decode_f32s(r)?;
            let bias = decode_f32s(r)?;
            let qweights = decode_i8s(r)?;
            LayerPlan::QuantFc {
                name,
                out_f,
                in_f,
                qweights,
                scales,
                act_scale,
                bias,
            }
        }
        other => {
            return Err(ArtifactError::Malformed(format!(
                "unknown layer tag {other}"
            )))
        }
    })
}

/// The precision-independent half of FKW storage: the five index
/// arrays plus the pattern table, shared byte-for-byte between the
/// `f32` ([`FkwLayer`]) and INT8 ([`QuantFkwLayer`]) payloads.
struct FkwLayout {
    out_c: usize,
    in_c: usize,
    kernel: usize,
    entries_per_kernel: usize,
    patterns: Vec<Pattern>,
    offsets: Vec<u32>,
    reorder: Vec<u16>,
    index: Vec<u16>,
    stride: Vec<u16>,
}

#[allow(clippy::too_many_arguments)]
fn encode_fkw_layout(
    w: &mut ByteWriter,
    out_c: usize,
    in_c: usize,
    kernel: usize,
    entries_per_kernel: usize,
    patterns: &[Pattern],
    offsets: &[u32],
    reorder: &[u16],
    index: &[u16],
    stride: &[u16],
) {
    w.u32(out_c as u32);
    w.u32(in_c as u32);
    w.u32(kernel as u32);
    w.u32(entries_per_kernel as u32);
    w.u32(patterns.len() as u32);
    for p in patterns {
        w.u8(p.kernel() as u8);
        w.u64(p.mask());
    }
    w.u32(offsets.len() as u32);
    for &o in offsets {
        w.u32(o);
    }
    w.u32(reorder.len() as u32);
    for &x in reorder {
        w.u16(x);
    }
    w.u32(index.len() as u32);
    for &x in index {
        w.u16(x);
    }
    w.u32(stride.len() as u32);
    for &x in stride {
        w.u16(x);
    }
}

/// Decodes the shared FKW layout. Only wire-level invariants are
/// enforced here (pattern kernel size and mask bounds, which
/// [`Pattern::from_mask`] would otherwise panic on); the exhaustive
/// index-bounds checks live in the verifier
/// ([`crate::verify::Violation::PayloadInvariant`]).
fn decode_fkw_layout(r: &mut ByteReader) -> Result<FkwLayout, ArtifactError> {
    let out_c = r.u32()? as usize;
    let in_c = r.u32()? as usize;
    let kernel = r.u32()? as usize;
    let entries_per_kernel = r.u32()? as usize;
    let np = r.u32()? as usize;
    let mut patterns = Vec::with_capacity(np.min(256));
    for _ in 0..np {
        let k = r.u8()? as usize;
        let mask = r.u64()?;
        if !(1..=7).contains(&k) {
            return Err(ArtifactError::Malformed(format!("pattern kernel {k}")));
        }
        let valid = (1u64 << (k * k)) - 1;
        if mask & !valid != 0 {
            return Err(ArtifactError::Malformed(
                "pattern mask outside kernel".into(),
            ));
        }
        patterns.push(Pattern::from_mask(k, mask));
    }
    let offsets = r.u32s()?;
    let reorder = r.u16s()?;
    let index = r.u16s()?;
    let stride = r.u16s()?;
    Ok(FkwLayout {
        out_c,
        in_c,
        kernel,
        entries_per_kernel,
        patterns,
        offsets,
        reorder,
        index,
        stride,
    })
}

fn encode_fkw(w: &mut ByteWriter, fkw: &FkwLayer) {
    encode_fkw_layout(
        w,
        fkw.out_c,
        fkw.in_c,
        fkw.kernel,
        fkw.entries_per_kernel,
        &fkw.patterns,
        &fkw.offsets,
        &fkw.reorder,
        &fkw.index,
        &fkw.stride,
    );
    encode_f32s(w, &fkw.weights);
}

fn decode_fkw(r: &mut ByteReader) -> Result<FkwLayer, ArtifactError> {
    let layout = decode_fkw_layout(r)?;
    let weights = decode_f32s(r)?;
    Ok(FkwLayer {
        out_c: layout.out_c,
        in_c: layout.in_c,
        kernel: layout.kernel,
        entries_per_kernel: layout.entries_per_kernel,
        patterns: layout.patterns,
        offsets: layout.offsets,
        reorder: layout.reorder,
        index: layout.index,
        stride: layout.stride,
        weights,
    })
}

fn encode_qfkw(w: &mut ByteWriter, qfkw: &QuantFkwLayer) {
    encode_fkw_layout(
        w,
        qfkw.out_c,
        qfkw.in_c,
        qfkw.kernel,
        qfkw.entries_per_kernel,
        &qfkw.patterns,
        &qfkw.offsets,
        &qfkw.reorder,
        &qfkw.index,
        &qfkw.stride,
    );
    w.u32(qfkw.act_scale.to_bits());
    encode_f32s(w, &qfkw.scales);
    encode_i8s(w, &qfkw.qweights);
}

fn decode_qfkw(r: &mut ByteReader) -> Result<QuantFkwLayer, ArtifactError> {
    let layout = decode_fkw_layout(r)?;
    let act_scale = f32::from_bits(r.u32()?);
    let scales = decode_f32s(r)?;
    let qweights = decode_i8s(r)?;
    Ok(QuantFkwLayer {
        out_c: layout.out_c,
        in_c: layout.in_c,
        kernel: layout.kernel,
        entries_per_kernel: layout.entries_per_kernel,
        patterns: layout.patterns,
        offsets: layout.offsets,
        reorder: layout.reorder,
        index: layout.index,
        stride: layout.stride,
        qweights,
        scales,
        act_scale,
    })
}

fn encode_tensor(w: &mut ByteWriter, t: &Tensor) {
    w.u32(t.shape().len() as u32);
    for &d in t.shape() {
        w.u32(d as u32);
    }
    encode_f32s(w, t.data());
}

fn decode_tensor(r: &mut ByteReader) -> Result<Tensor, ArtifactError> {
    let rank = r.u32()? as usize;
    if rank > 8 {
        return Err(ArtifactError::Malformed(format!("tensor rank {rank}")));
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(r.u32()? as usize);
    }
    let data = decode_f32s(r)?;
    Tensor::from_vec(&shape, data)
        .map_err(|e| ArtifactError::Malformed(format!("tensor payload: {e:?}")))
}

fn encode_f32s(w: &mut ByteWriter, xs: &[f32]) {
    w.u32(xs.len() as u32);
    for &x in xs {
        w.u32(x.to_bits());
    }
}

fn decode_f32s(r: &mut ByteReader) -> Result<Vec<f32>, ArtifactError> {
    let n = r.u32()? as usize;
    r.check_remaining(n * 4)?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(f32::from_bits(r.u32()?));
    }
    Ok(out)
}

fn encode_i8s(w: &mut ByteWriter, xs: &[i8]) {
    w.u32(xs.len() as u32);
    for &x in xs {
        w.u8(x as u8);
    }
}

fn decode_i8s(r: &mut ByteReader) -> Result<Vec<i8>, ArtifactError> {
    let n = r.u32()? as usize;
    Ok(r.bytes(n)?.iter().map(|&b| b as i8).collect())
}

fn encode_opt_f32s(w: &mut ByteWriter, xs: Option<&[f32]>) {
    match xs {
        Some(xs) => {
            w.u8(1);
            encode_f32s(w, xs);
        }
        None => w.u8(0),
    }
}

fn decode_opt_f32s(r: &mut ByteReader) -> Result<Option<Vec<f32>>, ArtifactError> {
    Ok(if decode_flag(r)? {
        Some(decode_f32s(r)?)
    } else {
        None
    })
}

/// Boolean wire flags are canonically 0 or 1; any other byte is a
/// corrupt stream, not a "truthy" value — accepting it would decode to
/// a plan that no longer round-trips bit-identically.
fn decode_flag(r: &mut ByteReader) -> Result<bool, ArtifactError> {
    match r.u8()? {
        0 => Ok(false),
        1 => Ok(true),
        b => Err(ArtifactError::Malformed(format!(
            "flag byte {b} is not 0 or 1"
        ))),
    }
}

/// Little-endian byte sink.
struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    fn new() -> Self {
        ByteWriter { buf: Vec::new() }
    }

    fn finish(self) -> Vec<u8> {
        self.buf
    }

    fn u8(&mut self, x: u8) {
        self.buf.push(x);
    }

    fn u16(&mut self, x: u16) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn u32(&mut self, x: u32) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.buf.extend_from_slice(&x.to_le_bytes());
    }

    fn bytes(&mut self, xs: &[u8]) {
        self.buf.extend_from_slice(xs);
    }

    fn str(&mut self, s: &str) {
        let bytes = s.as_bytes();
        assert!(bytes.len() <= u16::MAX as usize, "name too long");
        self.u16(bytes.len() as u16);
        self.bytes(bytes);
    }
}

/// Little-endian byte source with bounds checking.
struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, pos: 0 }
    }

    fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn check_remaining(&self, n: usize) -> Result<(), ArtifactError> {
        if self.buf.len() - self.pos < n {
            Err(ArtifactError::Truncated)
        } else {
            Ok(())
        }
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        self.check_remaining(n)?;
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.bytes(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ArtifactError> {
        Ok(u16::from_le_bytes(
            self.bytes(2)?.try_into().expect("2 bytes"),
        ))
    }

    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn u16s(&mut self) -> Result<Vec<u16>, ArtifactError> {
        let n = self.u32()? as usize;
        self.check_remaining(n * 2)?;
        (0..n).map(|_| self.u16()).collect()
    }

    fn u32s(&mut self) -> Result<Vec<u32>, ArtifactError> {
        let n = self.u32()? as usize;
        self.check_remaining(n * 4)?;
        (0..n).map(|_| self.u32()).collect()
    }

    fn str(&mut self) -> Result<String, ArtifactError> {
        let n = self.u16()? as usize;
        let bytes = self.bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| ArtifactError::Malformed("non-utf8 name".into()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_model_round_trips() {
        let a = ModelArtifact::chain("empty", [3, 8, 8], vec![]);
        let bytes = a.encode();
        assert_eq!(&bytes[..6], MAGIC);
        let b = ModelArtifact::decode(&bytes).expect("decode");
        assert_eq!(a, b);
    }

    #[test]
    fn dag_plan_round_trips() {
        // input -> relu (slot 1), add(relu, input) -> slot 2.
        let a = ModelArtifact {
            name: "dag".into(),
            input: [2, 4, 4],
            slots: 3,
            steps: vec![
                PlanStep {
                    op: LayerPlan::Relu,
                    inputs: vec![0],
                    output: 1,
                    exec: ExecConfig::default(),
                    precision: Precision::F32,
                },
                PlanStep {
                    op: LayerPlan::Add { relu: true },
                    inputs: vec![1, 0],
                    output: 2,
                    exec: ExecConfig::default(),
                    precision: Precision::F32,
                },
            ],
        };
        let b = ModelArtifact::decode(&a.encode()).expect("decode");
        assert_eq!(a, b);
        assert!(!a.is_chain());
    }

    #[test]
    fn aliasing_and_use_before_def_are_rejected() {
        // A step writing its own input slot.
        let aliased = ModelArtifact {
            name: "alias".into(),
            input: [1, 4, 4],
            slots: 2,
            steps: vec![PlanStep {
                op: LayerPlan::Relu,
                inputs: vec![1],
                output: 1,
                exec: ExecConfig::default(),
                precision: Precision::F32,
            }],
        };
        assert!(matches!(
            ModelArtifact::decode_verified(&aliased.encode()),
            Err(ArtifactError::Rejected(_))
        ));
        // A step reading a slot no earlier step wrote.
        let undef = ModelArtifact {
            name: "undef".into(),
            input: [1, 4, 4],
            slots: 3,
            steps: vec![PlanStep {
                op: LayerPlan::Relu,
                inputs: vec![2],
                output: 1,
                exec: ExecConfig::default(),
                precision: Precision::F32,
            }],
        };
        assert!(matches!(
            ModelArtifact::decode_verified(&undef.encode()),
            Err(ArtifactError::Rejected(_))
        ));
        // An add with chain arity.
        let bad_arity =
            ModelArtifact::chain("arity", [1, 4, 4], vec![LayerPlan::Add { relu: false }]);
        assert!(matches!(
            ModelArtifact::decode_verified(&bad_arity.encode()),
            Err(ArtifactError::Rejected(_))
        ));
    }

    #[test]
    fn huge_unbacked_slot_count_is_rejected_without_allocating() {
        // A tiny buffer declaring a giant slot count must fail with a
        // typed error before any per-slot allocation happens (the
        // verifier checks the slot bound before allocating its per-slot
        // state).
        let mut artifact = ModelArtifact::chain("huge", [1, 4, 4], vec![]);
        artifact.slots = 100_000_000;
        assert!(matches!(
            ModelArtifact::decode_verified(&artifact.encode()),
            Err(ArtifactError::Rejected(_))
        ));
    }

    #[test]
    fn bad_magic_is_rejected() {
        assert!(matches!(
            ModelArtifact::decode(b"NOTDNN rest"),
            Err(ArtifactError::BadMagic)
        ));
    }

    #[test]
    fn future_version_is_rejected() {
        let mut bytes = ModelArtifact::chain("v", [1, 1, 1], vec![]).encode();
        bytes[6] = 0xFF;
        bytes[7] = 0xFF;
        assert!(matches!(
            ModelArtifact::decode(&bytes),
            Err(ArtifactError::UnsupportedVersion(0xFFFF))
        ));
    }

    #[test]
    fn truncation_is_detected_not_panicking() {
        let chain = ModelArtifact::chain(
            "t",
            [2, 4, 4],
            vec![LayerPlan::MaxPool {
                kernel: 2,
                stride: 2,
                pad: 0,
            }],
        );
        for bytes in [&chain.encode()[..], &V4_TUNED_DIRECT_CHAIN[..]] {
            for cut in 0..bytes.len() {
                assert!(
                    matches!(
                        ModelArtifact::decode(&bytes[..cut]),
                        Err(ArtifactError::Truncated)
                    ),
                    "cut at {cut} of {} must fail as truncated",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn versions_outside_v4_and_v5_are_unsupported() {
        for mut bytes in [two_step_chain().encode(), V4_TUNED_DIRECT_CHAIN.to_vec()] {
            for version in [0u16, 1, 2, 3, 6] {
                bytes[6..8].copy_from_slice(&version.to_le_bytes());
                assert!(
                    matches!(
                        ModelArtifact::decode(&bytes),
                        Err(ArtifactError::UnsupportedVersion(v)) if v == version
                    ),
                    "version {version} must be refused"
                );
            }
        }
    }

    #[test]
    fn degenerate_maxpool_window_is_rejected_by_verifier() {
        let bytes = ModelArtifact::chain(
            "z",
            [1, 4, 4],
            vec![LayerPlan::MaxPool {
                kernel: 0,
                stride: 0,
                pad: 0,
            }],
        )
        .encode();
        assert!(matches!(
            ModelArtifact::decode_verified(&bytes),
            Err(ArtifactError::Rejected(_))
        ));
    }

    #[test]
    fn out_of_range_fkw_index_is_rejected_by_verifier() {
        use patdnn_compiler::fkr::filter_kernel_reorder;
        use patdnn_core::pattern_set::PatternSet;
        use patdnn_core::project::prune_layer;
        use patdnn_tensor::rng::Rng;

        let mut rng = Rng::seed_from(1);
        let mut w = Tensor::randn(&[4, 4, 3, 3], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("t", &mut w, &set, 8);
        let order = filter_kernel_reorder(&lp);
        let mut fkw = FkwLayer::from_pruned(&w, &lp, &set, &order);
        // Corrupt one kernel's input-channel index past the layer width.
        fkw.index[0] = fkw.in_c as u16;
        let bytes = ModelArtifact::chain(
            "corrupt",
            [4, 6, 6],
            vec![LayerPlan::PatternConv {
                name: "c".into(),
                stride: 1,
                pad: 1,
                fkw,
                bias: None,
                relu: false,
            }],
        )
        .encode();
        assert!(matches!(
            ModelArtifact::decode_verified(&bytes),
            Err(ArtifactError::Rejected(_))
        ));
    }

    /// A tuned config distinct from the default in every field that has
    /// alternatives.
    fn tuned_exec() -> ExecConfig {
        ExecConfig {
            opt_level: OptLevel::ReorderLre,
            tuning: TuningConfig {
                permute: LoopPermutation::CoCiHw,
                blocked: false,
                tile_oc: 64,
                tile_hw: 8,
                unroll_oc: 2,
                unroll_w: 4,
            },
            threads: 3,
            algo: ConvAlgo::Im2col,
        }
    }

    /// The v4 encoding of [`two_step_chain`] with [`tuned_exec`] on
    /// step 0 (its algorithm set to `Direct`, the only one v4
    /// represents). The codec writes only v5, so these frozen bytes are
    /// the v4 half of the v4 → v5 contract.
    const V4_TUNED_DIRECT_CHAIN: [u8; 91] = [
        80, 65, 84, 68, 78, 78, 4, 0, 1, 0, 116, 1, 0, 0, 0, 4, 0, 0, 0, 4, 0, 0, 0, 3, 0, 0, 0, 2,
        0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 64, 0, 8, 0, 2, 0, 4, 0, 3, 0, 2, 2, 0, 0,
        0, 2, 0, 0, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0, 2, 0, 0, 0, 0, 3, 1, 1, 16, 0, 32, 0, 4, 0, 8, 0,
        1, 0, 4,
    ];

    fn two_step_chain() -> ModelArtifact {
        ModelArtifact::chain(
            "t",
            [1, 4, 4],
            vec![
                LayerPlan::MaxPool {
                    kernel: 2,
                    stride: 2,
                    pad: 0,
                },
                LayerPlan::Flatten,
            ],
        )
    }

    #[test]
    fn v3_round_trips_per_step_exec_configs() {
        let mut a = two_step_chain();
        a.steps[0].exec = tuned_exec();
        let bytes = a.encode();
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), VERSION);
        let b = ModelArtifact::decode(&bytes).expect("decodes");
        assert_eq!(a, b, "per-step configs survive the round trip");
        assert_eq!(b.steps[0].exec, tuned_exec());
        assert_eq!(b.steps[1].exec, ExecConfig::default());
    }

    #[test]
    fn v5_round_trips_per_step_algorithm_choice() {
        let mut a = two_step_chain();
        a.steps[0].exec.algo = ConvAlgo::Winograd;
        a.steps[1].exec = tuned_exec(); // algo: Im2col
        let bytes = a.encode();
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), VERSION);
        let b = ModelArtifact::decode(&bytes).expect("v5 decodes");
        assert_eq!(a, b, "per-step algorithm choices survive the codec");
        assert_eq!(b.steps[0].exec.algo, ConvAlgo::Winograd);
        assert_eq!(b.steps[1].exec.algo, ConvAlgo::Im2col);
    }

    #[test]
    fn v4_bytes_decode_with_direct_algos() {
        let mut a = two_step_chain();
        a.steps[0].exec = tuned_exec();
        a.steps[0].exec.algo = ConvAlgo::Direct;
        let v4 = &V4_TUNED_DIRECT_CHAIN;
        assert_eq!(u16::from_le_bytes([v4[6], v4[7]]), VERSION_V4);
        let b = ModelArtifact::decode(v4).expect("v4 decodes");
        assert_eq!(a, b, "v4 decodes into the tuned direct plan");
        assert!(b.steps.iter().all(|s| s.exec.algo == ConvAlgo::Direct));
        // The v5 re-encode is the v4 stream with the version bumped and
        // one `Direct` algorithm tag after each step's exec record.
        let mut v5 = v4.to_vec();
        v5[6] = 5;
        v5.insert(FIRST_ALGO_OFFSET, 0);
        v5.insert(v5.len() - 1, 0); // step 1 (flatten): exec record, tag, op tag
        assert_eq!(b.encode(), v5);
        assert_eq!(ModelArtifact::decode(&v5).expect("v5"), a);
    }

    /// First step's exec config starts right after magic(6), version(2),
    /// name(2 + 1), input(12), slots(4), count(4), n_inputs(1),
    /// input slot(4), output slot(4), precision(1): byte 41. Field
    /// layout from there: opt(1) permute(1) blocked(1) tile_oc(2)
    /// tile_hw(2) unroll_oc(2) unroll_w(2) threads(2) — 13 bytes, then
    /// the v5 algorithm tag.
    const FIRST_EXEC_OFFSET: usize = 41;

    /// The v5 per-step algorithm tag follows the fixed-width exec record.
    const FIRST_ALGO_OFFSET: usize = FIRST_EXEC_OFFSET + 13;

    /// The first step's precision byte sits right before its exec config.
    const FIRST_PRECISION_OFFSET: usize = FIRST_EXEC_OFFSET - 1;

    #[test]
    fn bad_tile_sizes_are_rejected_by_verifier() {
        // Corrupt the encoded tile fields (encode itself refuses invalid
        // configs, so malformed bytes are forged directly). The bytes
        // decode — tile bounds are semantic — but never verify.
        for (field_offset, value) in [(3u16, 12u16), (3, 0), (5, 2048), (5, 0)] {
            let mut bytes = two_step_chain().encode();
            let at = FIRST_EXEC_OFFSET + field_offset as usize;
            bytes[at..at + 2].copy_from_slice(&value.to_le_bytes());
            assert!(
                matches!(
                    ModelArtifact::decode_verified(&bytes),
                    Err(ArtifactError::Rejected(_))
                ),
                "tile field at +{field_offset} = {value} must be rejected"
            );
        }
    }

    #[test]
    fn unknown_opt_level_tag_is_rejected_at_decode() {
        let a = two_step_chain();
        let mut bytes = a.encode();
        assert_eq!(bytes[FIRST_EXEC_OFFSET], 3, "encoded Full opt level");
        bytes[FIRST_EXEC_OFFSET] = 9;
        assert!(matches!(
            ModelArtifact::decode(&bytes),
            Err(ArtifactError::Malformed(_))
        ));
    }

    #[test]
    fn unknown_algo_tag_is_rejected_at_decode() {
        let a = two_step_chain();
        let mut bytes = a.encode();
        assert_eq!(bytes[FIRST_ALGO_OFFSET], 0, "encoded Direct algo tag");
        bytes[FIRST_ALGO_OFFSET] = 7;
        assert!(matches!(
            ModelArtifact::decode(&bytes),
            Err(ArtifactError::Malformed(msg)) if msg.contains("algorithm")
        ));
    }

    #[test]
    fn zero_threads_is_rejected_by_verifier() {
        let mut bytes = two_step_chain().encode();
        let at = FIRST_EXEC_OFFSET + 11; // threads field
        bytes[at..at + 2].copy_from_slice(&0u16.to_le_bytes());
        assert!(matches!(
            ModelArtifact::decode_verified(&bytes),
            Err(ArtifactError::Rejected(_))
        ));
    }

    #[test]
    #[should_panic(expected = "encodable exec config")]
    fn encode_refuses_invalid_exec_configs_instead_of_truncating() {
        let mut a = two_step_chain();
        // Would truncate to a different, valid-looking value as u16.
        a.steps[0].exec.threads = 65544;
        a.encode();
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = ModelArtifact::chain("t", [1, 2, 2], vec![]).encode();
        bytes.push(0);
        assert!(matches!(
            ModelArtifact::decode(&bytes),
            Err(ArtifactError::Malformed(_))
        ));
    }

    /// A small INT8-quantized artifact: one quantized pattern conv, a
    /// flatten, and a quantized FC.
    fn quantized_artifact(seed: u64) -> ModelArtifact {
        use patdnn_compiler::fkr::filter_kernel_reorder;
        use patdnn_compiler::quant::QuantFkwLayer;
        use patdnn_core::pattern_set::PatternSet;
        use patdnn_core::project::prune_layer;
        use patdnn_tensor::rng::Rng;

        let mut rng = Rng::seed_from(seed);
        let mut w = Tensor::randn(&[4, 3, 3, 3], &mut rng);
        let set = PatternSet::standard(8);
        let lp = prune_layer("qc", &mut w, &set, 6);
        let order = filter_kernel_reorder(&lp);
        let fkw = patdnn_compiler::fkw::FkwLayer::from_pruned(&w, &lp, &set, &order);
        let qfkw = QuantFkwLayer::from_fkw(&fkw, 2.5);
        let in_f = 4 * 6 * 6;
        ModelArtifact::chain(
            "quant",
            [3, 6, 6],
            vec![
                LayerPlan::QuantPatternConv {
                    name: "qc".into(),
                    stride: 1,
                    pad: 1,
                    qfkw,
                    bias: Some(vec![0.1, -0.2, 0.3, 0.0]),
                    relu: true,
                },
                LayerPlan::Flatten,
                LayerPlan::QuantFc {
                    name: "qfc".into(),
                    out_f: 2,
                    in_f,
                    qweights: (0..2 * in_f).map(|i| (i % 255) as u8 as i8).collect(),
                    scales: vec![0.01, 0.02],
                    act_scale: 0.05,
                    bias: vec![0.5, -0.5],
                },
            ],
        )
    }

    #[test]
    fn v4_round_trips_quantized_steps_with_precision_tags() {
        let a = quantized_artifact(51);
        assert_eq!(a.steps[0].precision, Precision::Int8);
        assert_eq!(a.steps[1].precision, Precision::F32);
        assert_eq!(a.steps[2].precision, Precision::Int8);
        let bytes = a.encode();
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), VERSION);
        let b = ModelArtifact::decode(&bytes).expect("decodes");
        assert_eq!(a, b, "quantized payloads survive the round trip");
    }

    #[test]
    fn forged_precision_tag_is_rejected() {
        // Claim Int8 over an f32 payload: typed rejection from the
        // verifier's precision-flow check, not a wrong executor at
        // serve time.
        let mut bytes = two_step_chain().encode();
        assert_eq!(bytes[FIRST_PRECISION_OFFSET], 0, "encoded F32 tag");
        bytes[FIRST_PRECISION_OFFSET] = 1;
        assert!(matches!(
            ModelArtifact::decode_verified(&bytes),
            Err(ArtifactError::Rejected(_))
        ));
        // An unknown precision tag is rejected outright.
        let mut bytes = two_step_chain().encode();
        bytes[FIRST_PRECISION_OFFSET] = 7;
        assert!(matches!(
            ModelArtifact::decode(&bytes),
            Err(ArtifactError::Malformed(_))
        ));
    }

    #[test]
    fn invalid_quant_scales_are_rejected_by_verifier() {
        for bad_scale in [0.0f32, -0.5, f32::NAN, f32::INFINITY] {
            let mut a = quantized_artifact(53);
            let LayerPlan::QuantFc { scales, .. } = &mut a.steps[2].op else {
                panic!("third step is the quant fc");
            };
            scales[1] = bad_scale;
            assert!(
                matches!(
                    ModelArtifact::decode_verified(&a.encode()),
                    Err(ArtifactError::Rejected(_))
                ),
                "scale {bad_scale} must be rejected"
            );
        }
        // And a poisoned activation scale on the conv.
        let mut a = quantized_artifact(54);
        let LayerPlan::QuantPatternConv { qfkw, .. } = &mut a.steps[0].op else {
            panic!("first step is the quant conv");
        };
        qfkw.act_scale = f32::NAN;
        assert!(matches!(
            ModelArtifact::decode_verified(&a.encode()),
            Err(ArtifactError::Rejected(_))
        ));
    }

    #[test]
    fn overflow_prone_accumulation_depth_is_rejected_by_verifier() {
        // A quantized FC whose reduction depth could overflow i32 in the
        // worst case must fail with a typed rejection at verified load,
        // not produce wrapped logits (or panic) at serve time.
        let in_f = 200_000; // > i32::MAX / 127^2
        let a = ModelArtifact::chain(
            "wide",
            [1, 1, in_f],
            vec![
                LayerPlan::Flatten,
                LayerPlan::QuantFc {
                    name: "wide_fc".into(),
                    out_f: 1,
                    in_f,
                    qweights: vec![1i8; in_f],
                    scales: vec![0.01],
                    act_scale: 0.05,
                    bias: vec![0.0],
                },
            ],
        );
        assert!(matches!(
            ModelArtifact::decode_verified(&a.encode()),
            Err(ArtifactError::Rejected(_))
        ));
    }

    #[test]
    fn quantized_artifact_truncation_is_detected_not_panicking() {
        let bytes = quantized_artifact(55).encode();
        for cut in 0..bytes.len() {
            assert!(
                ModelArtifact::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must error"
            );
        }
    }
}
