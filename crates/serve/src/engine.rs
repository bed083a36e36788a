//! The compiled-model inference engine.
//!
//! An [`Engine`] turns a [`ModelArtifact`] into an executable DAG plan:
//! one executor per step (pattern executors over FKW storage for pruned
//! convolutions — main path and 1×1 projection shortcuts alike — the
//! same register tile in its dense case for unpruned or densified ones,
//! and an elementwise `Add` for residual joins) plus per-slot buffer
//! shapes. Steps read and write named
//! buffer *slots* assigned by the compiler's liveness analysis, so a
//! value's buffer is recycled as soon as its last consumer has run.
//! Intermediate activations live in a pool of reusable per-slot scratch
//! buffer sets — a warm engine allocates nothing on the steady-state
//! `infer` path for pattern-conv steps, and concurrent callers each
//! check out their own buffer set, so `infer(&self)` is freely shareable
//! across server workers.
//!
//! Every step handles batch-N inputs; [`Engine::infer_batch`] stacks
//! per-request items into one batched execution (the dynamic-batching
//! fast path) and splits the results back out.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use patdnn_compiler::quant::quantize_slice_into;
use patdnn_compiler::tune::space::ConvAlgo;
use patdnn_runtime::dense::DenseTileConv;
use patdnn_runtime::executor::{effective_gflops, ConvExecutor, StepClock};
use patdnn_runtime::parallel::{ParallelPattern, Schedule};
use patdnn_runtime::pattern_exec::PatternConv;
use patdnn_runtime::quant_exec::QuantPatternConv;
use patdnn_tensor::kernels::{self, PoolWindow};
use patdnn_tensor::{Conv2dGeometry, Tensor};

use crate::algo_exec::WinogradConv;
use crate::artifact::{ArtifactError, LayerPlan, ModelArtifact, Precision};
use crate::ServeError;

/// Wall-time and throughput record of one executed plan step, produced
/// by the profiled inference paths ([`Engine::infer_profiled`],
/// [`Engine::infer_batch_profiled`]) and consumed by
/// [`crate::telemetry::Telemetry`].
#[derive(Debug, Clone)]
pub struct StepTiming {
    /// Plan step index.
    pub index: usize,
    /// Step kind (`pattern-conv`, `quant-fc`, `add`, …).
    pub kind: &'static str,
    /// Numeric precision the step executed at.
    pub precision: Precision,
    /// When the step started.
    pub started: Instant,
    /// Wall time of the step (fused ReLU included).
    pub wall: Duration,
    /// Dense-equivalent FLOPs the step performed (batch included).
    pub flops: f64,
}

impl StepTiming {
    /// Dense-equivalent GFLOP/s achieved by this execution.
    pub fn dense_gflops(&self) -> f64 {
        effective_gflops(self.flops, self.wall)
    }
}

/// Engine construction options.
///
/// Each step's optimization level, tuning parameters, and thread
/// schedule come from its persisted [`crate::artifact::ExecConfig`] — a
/// tuned artifact serves tuned without retuning at load. The only knob
/// left here is a deployment-side thread override for serving a plan on
/// a machine with a different core budget than it was compiled for.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineOptions {
    /// `Some(n)` forces every pattern-conv step to `n` intra-layer
    /// threads (1 = serial), ignoring the artifact's per-step schedule;
    /// `None` (the default) honors each step's persisted config.
    pub threads: Option<usize>,
}

/// One executable step of the plan.
enum StepExec {
    Pattern(PatternConv),
    PatternPar(ParallelPattern),
    /// The dense case of the pattern tile: an unpruned conv, or the
    /// tuner-selected `Im2col` lowering of a pruned one.
    Dense(DenseTileConv),
    /// Tuner-selected Winograd `F(2×2, 3×3)` lowering of a pruned conv.
    Winograd(WinogradConv),
    MaxPool(PoolWindow),
    GlobalAvgPool,
    Flatten,
    Relu,
    Fc(FcExec),
    /// Elementwise residual join of two slots.
    Add,
    /// INT8 pattern convolution (`i8 × i8 → i32`, dequantized output).
    QuantPattern(QuantPatternConv),
    /// INT8 fully-connected layer.
    QuantFc(QuantFcExec),
}

/// Fully-connected executor over pre-packed weight panels: the weight
/// matrix is packed into the micro-kernels' `NR`-column panel layout
/// once at engine build; each call packs the activation batch into
/// `MR`-row panels (pooled scratch) and reduces through the dispatched
/// register-tiled GEMM.
struct FcExec {
    /// Weights in packed-B panel layout (`in_f` deep, `out_f` wide).
    packed_w: Vec<f32>,
    out_f: usize,
    in_f: usize,
    bias: Vec<f32>,
    /// Pool of packed-activation buffers.
    // lock: engine-scratch
    scratch: Mutex<Vec<Vec<f32>>>,
}

impl FcExec {
    fn new(weights: &Tensor, bias: Vec<f32>) -> Self {
        let (out_f, in_f) = (weights.shape()[0], weights.shape()[1]);
        let mut packed_w = vec![0.0f32; kernels::packed_b_len(in_f, out_f)];
        kernels::pack_b_t_f32(in_f, out_f, weights.data(), in_f, &mut packed_w);
        FcExec {
            packed_w,
            out_f,
            in_f,
            bias,
            scratch: Mutex::new(Vec::new()),
        }
    }

    fn run_into(&self, input: &Tensor, out: &mut Tensor) {
        let batch = input.shape()[0];
        let mut ap = self
            .scratch
            .lock()
            .expect("fc scratch")
            .pop()
            .unwrap_or_default();
        ap.resize(kernels::packed_a_len(batch, self.in_f), 0.0);
        kernels::pack_a_f32(batch, self.in_f, input.data(), self.in_f, &mut ap);
        let od = out.data_mut();
        // Seed the accumulating GEMM with the bias.
        for b in 0..batch {
            od[b * self.out_f..(b + 1) * self.out_f].copy_from_slice(&self.bias);
        }
        kernels::gemm_packed_f32(
            kernels::active_kernel(),
            batch,
            self.out_f,
            self.in_f,
            &ap,
            &self.packed_w,
            od,
            self.out_f,
        );
        self.scratch.lock().expect("fc scratch").push(ap);
    }
}

/// INT8 fully-connected executor: quantize the batch with the
/// calibrated activation scale, run the exact `i8 × i8 → i32`
/// panel-packed GEMV, dequantize with per-output-row scales, add the
/// `f32` bias. Weights are pre-packed into the micro-kernels' madd
/// layout at engine build; scratch (quantized inputs + `i32`
/// accumulators) is pooled so the warm path allocates nothing.
struct QuantFcExec {
    /// Quantized weights in packed interleaved-pair panel layout.
    packed_w: Vec<i8>,
    out_f: usize,
    in_f: usize,
    scales: Vec<f32>,
    act_scale: f32,
    bias: Vec<f32>,
    // lock: engine-scratch
    scratch: Mutex<Vec<(Vec<i8>, Vec<i32>)>>,
}

impl QuantFcExec {
    fn new(
        qweights: &[i8],
        out_f: usize,
        in_f: usize,
        scales: Vec<f32>,
        act_scale: f32,
        bias: Vec<f32>,
    ) -> Self {
        let mut packed_w = vec![0i8; kernels::packed_b_i8_len(in_f, out_f)];
        kernels::pack_b_t_i8(in_f, out_f, qweights, &mut packed_w);
        QuantFcExec {
            packed_w,
            out_f,
            in_f,
            scales,
            act_scale,
            bias,
            scratch: Mutex::new(Vec::new()),
        }
    }

    fn run_into(&self, input: &Tensor, out: &mut Tensor) {
        let batch = input.shape()[0];
        let (mut qin, mut acc) = self
            .scratch
            .lock()
            .expect("quant fc scratch")
            .pop()
            .unwrap_or_default();
        qin.resize(batch * self.in_f, 0);
        acc.resize(batch * self.out_f, 0);
        acc.fill(0);
        quantize_slice_into(input.data(), self.act_scale, &mut qin);
        let kernel = kernels::active_kernel();
        for b in 0..batch {
            kernel.gemv_i8(
                self.out_f,
                self.in_f,
                &qin[b * self.in_f..(b + 1) * self.in_f],
                &self.packed_w,
                &mut acc[b * self.out_f..(b + 1) * self.out_f],
            );
        }
        let od = out.data_mut();
        for b in 0..batch {
            for o in 0..self.out_f {
                od[b * self.out_f + o] = acc[b * self.out_f + o] as f32
                    * (self.act_scale * self.scales[o])
                    + self.bias[o];
            }
        }
        self.scratch
            .lock()
            .expect("quant fc scratch")
            .push((qin, acc));
    }
}

struct Step {
    exec: StepExec,
    /// Apply ReLU to this step's output in a pass of its own after it
    /// ran. Only `Winograd` and `Add` steps can ask for it: every tiled
    /// executor (pattern, INT8, dense) fuses the activation into its
    /// epilogue and is built with this `false`.
    relu: bool,
    /// Slots read, in op order (slot 0 is the network input).
    inputs: Vec<usize>,
    /// Slot written (never 0, never one of `inputs`).
    output: usize,
    /// Per-item output shape: `[c, h, w]` or `[features]`.
    out_shape: Vec<usize>,
    /// Artifact step kind, for profiling labels.
    kind: &'static str,
    /// Numeric precision this step executes at.
    precision: Precision,
    /// Dense-equivalent FLOPs per batch item.
    flops_per_item: f64,
}

/// A compiled network ready to serve inference.
pub struct Engine {
    name: String,
    input: [usize; 3],
    steps: Vec<Step>,
    /// Per-slot per-item shape; `None` for slots the plan never writes
    /// (slot 0 — the borrowed input — and any unused declared slots).
    slot_shapes: Vec<Option<Vec<usize>>>,
    artifact: ModelArtifact,
    /// Pool of per-call scratch buffer sets (one tensor per slot).
    // lock: engine-scratch
    scratch: Mutex<Vec<Vec<Tensor>>>,
}

impl Engine {
    /// Builds the executable plan from an artifact.
    ///
    /// The plan verifier ([`mod@crate::verify`]) runs first — slot
    /// lifetimes, shape dataflow, FKW index bounds, accumulation
    /// proofs, exec-config and algorithm eligibility all live there —
    /// and any violation surfaces as
    /// [`ArtifactError::Rejected`]. Construction below then trusts the
    /// verified plan: it re-checks nothing and reuses the shapes the
    /// analysis already propagated.
    pub fn new(artifact: ModelArtifact, opts: EngineOptions) -> Result<Self, ServeError> {
        assert!(
            opts.threads.is_none_or(|t| t > 0),
            "thread override needs at least one thread"
        );
        let (report, facts) = crate::verify::analyze(&artifact);
        if !report.is_ok() {
            return Err(ServeError::Artifact(ArtifactError::Rejected(Box::new(
                report,
            ))));
        }
        let mut steps = Vec::with_capacity(artifact.steps.len());
        for (i, plan_step) in artifact.steps.iter().enumerate() {
            // The shapes the verifier's dataflow pass proved.
            let shape = &facts.in_shapes[i];
            let out_shape = facts.out_shapes[i].clone();
            let chw = |shape: &[usize]| -> [usize; 3] {
                match spatial(shape) {
                    Some(chw) => chw,
                    // A clean report guarantees spatial inputs for
                    // spatial ops.
                    // warm-path: allow(plan verifier rejects non-spatial inputs to spatial ops)
                    None => unreachable!("verified spatial input"),
                }
            };
            let (exec, relu) = match &plan_step.op {
                LayerPlan::PatternConv {
                    stride,
                    pad,
                    fkw,
                    bias,
                    relu,
                    ..
                } => {
                    let [_, h, w] = chw(shape);
                    let geo = Conv2dGeometry::new(
                        fkw.out_c, fkw.in_c, fkw.kernel, fkw.kernel, h, w, *stride, *pad,
                    );
                    // The step's persisted config drives the executor;
                    // only the thread schedule can be overridden at load.
                    let cfg = plan_step.exec;
                    match cfg.algo {
                        // The direct executors fuse the step's ReLU into
                        // their output, so the plane is written once.
                        ConvAlgo::Direct => {
                            let exec = PatternConv::new(
                                geo,
                                fkw.clone(),
                                bias.clone(),
                                cfg.opt_level,
                                cfg.tuning,
                            )
                            .with_relu(*relu);
                            let threads = opts.threads.unwrap_or(cfg.threads);
                            let exec = if threads > 1 {
                                StepExec::PatternPar(ParallelPattern::new(
                                    exec,
                                    threads,
                                    Schedule::Balanced,
                                ))
                            } else {
                                StepExec::Pattern(exec)
                            };
                            (exec, false)
                        }
                        ConvAlgo::Im2col => (
                            StepExec::Dense(
                                DenseTileConv::new(
                                    geo,
                                    &fkw.to_dense(),
                                    bias.clone().unwrap_or_default(),
                                )
                                .with_relu(*relu),
                            ),
                            false,
                        ),
                        // Eligibility was proven by the verifier.
                        ConvAlgo::Winograd => (
                            StepExec::Winograd(WinogradConv::new(
                                geo,
                                &fkw.to_dense(),
                                bias.clone().unwrap_or_default(),
                            )),
                            *relu,
                        ),
                    }
                }
                LayerPlan::DenseConv {
                    stride,
                    pad,
                    weights,
                    bias,
                    relu,
                    ..
                } => {
                    let [_, h, w] = chw(shape);
                    let ws = weights.shape4();
                    let geo = Conv2dGeometry::new(ws.n, ws.c, ws.h, ws.w, h, w, *stride, *pad);
                    (
                        StepExec::Dense(
                            DenseTileConv::new(geo, weights, bias.clone().unwrap_or_default())
                                .with_relu(*relu),
                        ),
                        false,
                    )
                }
                LayerPlan::MaxPool {
                    kernel,
                    stride,
                    pad,
                } => (
                    StepExec::MaxPool(PoolWindow {
                        kernel: *kernel,
                        stride: *stride,
                        pad: *pad,
                    }),
                    false,
                ),
                LayerPlan::GlobalAvgPool => (StepExec::GlobalAvgPool, false),
                LayerPlan::Flatten => (StepExec::Flatten, false),
                LayerPlan::Relu => (StepExec::Relu, false),
                LayerPlan::Fc { weights, bias, .. } => {
                    (StepExec::Fc(FcExec::new(weights, bias.clone())), false)
                }
                LayerPlan::Add { relu } => (StepExec::Add, *relu),
                LayerPlan::QuantPatternConv {
                    stride,
                    pad,
                    qfkw,
                    bias,
                    relu,
                    ..
                } => {
                    let [_, h, w] = chw(shape);
                    let geo = Conv2dGeometry::new(
                        qfkw.out_c,
                        qfkw.in_c,
                        qfkw.kernel,
                        qfkw.kernel,
                        h,
                        w,
                        *stride,
                        *pad,
                    );
                    // INT8 steps honor the persisted opt level and tuning
                    // parameters; they always run serial (their memory
                    // traffic is a quarter of the f32 path's, so the
                    // thread schedule is an f32-only knob today).
                    let cfg = plan_step.exec;
                    let exec = QuantPatternConv::new(
                        geo,
                        qfkw.clone(),
                        bias.clone(),
                        cfg.opt_level,
                        cfg.tuning,
                    )
                    .with_relu(*relu);
                    (StepExec::QuantPattern(exec), false)
                }
                LayerPlan::QuantFc {
                    out_f,
                    in_f,
                    qweights,
                    scales,
                    act_scale,
                    bias,
                    ..
                } => (
                    StepExec::QuantFc(QuantFcExec::new(
                        qweights,
                        *out_f,
                        *in_f,
                        scales.clone(),
                        *act_scale,
                        bias.clone(),
                    )),
                    false,
                ),
            };
            let flops_per_item = step_flops(&plan_step.op, shape, &out_shape);
            steps.push(Step {
                exec,
                relu,
                inputs: plan_step.inputs.clone(),
                output: plan_step.output,
                out_shape,
                kind: plan_step.op.kind(),
                precision: plan_step.precision,
                flops_per_item,
            });
        }
        let slot_shapes = facts.slot_shapes;
        Ok(Engine {
            name: artifact.name.clone(),
            input: artifact.input,
            steps,
            slot_shapes,
            artifact,
            scratch: Mutex::new(Vec::new()),
        })
    }

    /// Loads an artifact from disk and builds the engine. Decode-only
    /// load: [`Engine::new`] runs the verifier itself, so verifying at
    /// load too would walk the plan twice.
    pub fn load(
        path: impl AsRef<std::path::Path>,
        opts: EngineOptions,
    ) -> Result<Self, ServeError> {
        Engine::new(
            ModelArtifact::load_with(path, crate::artifact::LoadPolicy::DecodeOnly)?,
            opts,
        )
    }

    /// The model name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Per-item input shape `[c, h, w]`.
    pub fn input_shape(&self) -> [usize; 3] {
        self.input
    }

    /// Per-item output shape.
    pub fn output_shape(&self) -> &[usize] {
        self.steps
            .last()
            .map_or(&self.input[..], |s| &s.out_shape[..])
    }

    /// The artifact this engine was built from (save it with
    /// [`ModelArtifact::save`]).
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// Number of plan steps.
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Total bytes of weights this engine holds in kernel-native packed
    /// form (GEMM panels, interleaved INT8 panels, the dense tile's
    /// OIHW rows, Winograd-domain tiles), all prepared once at build so
    /// the warm inference path never packs.
    pub fn packed_weight_bytes(&self) -> usize {
        self.steps
            .iter()
            .map(|s| match &s.exec {
                StepExec::Fc(exec) => exec.packed_w.len() * std::mem::size_of::<f32>(),
                StepExec::QuantFc(exec) => exec.packed_w.len(),
                StepExec::Dense(exec) => exec.packed_bytes(),
                StepExec::Winograd(exec) => exec.packed_bytes(),
                _ => 0,
            })
            .sum()
    }

    /// Runs the whole plan on a batched NCHW input.
    ///
    /// The input's trailing dimensions must match the model input; any
    /// batch size works. Per-slot scratch buffers are checked out from
    /// the pool, reused across calls, and returned afterwards; a warm
    /// engine serving a stable batch size reallocates nothing (slot
    /// reuse is shape-exact by construction).
    pub fn infer(&self, input: &Tensor) -> Result<Tensor, ServeError> {
        self.infer_impl(input, None)
    }

    /// Like [`Engine::infer`], additionally timing every plan step into
    /// `profile` (wall time, precision, dense-equivalent FLOPs). The
    /// unprofiled path pays nothing for this: `infer` compiles to the
    /// same loop with the timing branch dead.
    pub fn infer_profiled(
        &self,
        input: &Tensor,
        profile: &mut Vec<StepTiming>,
    ) -> Result<Tensor, ServeError> {
        self.infer_impl(input, Some(profile))
    }

    fn infer_impl(
        &self,
        input: &Tensor,
        mut profile: Option<&mut Vec<StepTiming>>,
    ) -> Result<Tensor, ServeError> {
        let shape = input.shape();
        if shape.len() != 4 || shape[1..] != self.input[..] {
            return Err(ServeError::ShapeMismatch {
                expected: self.input.to_vec(),
                got: shape.to_vec(),
            });
        }
        let batch = shape[0];

        let mut slots = self
            .scratch
            .lock()
            .expect("scratch pool")
            .pop()
            .unwrap_or_default();
        slots.resize_with(self.slot_shapes.len(), || Tensor::zeros(&[0]));
        for (slot, item) in self.slot_shapes.iter().enumerate() {
            let Some(item) = item else {
                continue; // slot 0 (borrowed input) or never written
            };
            let buf = &mut slots[slot];
            let got = buf.shape();
            let fits = got.len() == item.len() + 1 && got[0] == batch && got[1..] == item[..];
            if !fits {
                let mut want = Vec::with_capacity(item.len() + 1);
                want.push(batch);
                want.extend_from_slice(item);
                *buf = Tensor::zeros(&want);
            }
        }

        for (index, step) in self.steps.iter().enumerate() {
            let clock = profile.as_ref().map(|_| StepClock::start());
            // Slot 0 never holds data (the input is the caller's borrow),
            // so park the output buffer there to borrow it mutably while
            // the input slots stay readable.
            slots.swap(0, step.output);
            let (head, rest) = slots.split_at_mut(1);
            let buf = &mut head[0];
            match step.inputs[..] {
                [a] => {
                    let a = if a == 0 { input } else { &rest[a - 1] };
                    run_step(step, &[a], buf);
                }
                [a, b] => {
                    let a = if a == 0 { input } else { &rest[a - 1] };
                    let b = if b == 0 { input } else { &rest[b - 1] };
                    run_step(step, &[a, b], buf);
                }
                // warm-path: allow(step arity validated at engine build)
                _ => unreachable!("step arity validated at engine build"),
            }
            if step.relu {
                buf.map_inplace(|x| x.max(0.0));
            }
            slots.swap(0, step.output);
            if let (Some(sink), Some(clock)) = (profile.as_deref_mut(), clock) {
                let (started, wall) = clock.stop();
                sink.push(StepTiming {
                    index,
                    kind: step.kind,
                    precision: step.precision,
                    started,
                    wall,
                    flops: step.flops_per_item * batch as f64,
                });
            }
        }

        let out = match self.steps.last() {
            Some(s) => slots[s.output].clone(),
            None => input.clone(),
        };
        self.scratch.lock().expect("scratch pool").push(slots);
        Ok(out)
    }

    /// Runs a set of single-item requests as one batched execution and
    /// scatters the per-request outputs (the dynamic-batching path).
    ///
    /// Each input must be `[1, c, h, w]` with the model's item shape.
    pub fn infer_batch(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, ServeError> {
        self.infer_batch_impl(inputs, None)
    }

    /// Like [`Engine::infer_batch`], timing every plan step of the one
    /// batched execution into `profile`.
    pub fn infer_batch_profiled(
        &self,
        inputs: &[Tensor],
        profile: &mut Vec<StepTiming>,
    ) -> Result<Vec<Tensor>, ServeError> {
        self.infer_batch_impl(inputs, Some(profile))
    }

    fn infer_batch_impl(
        &self,
        inputs: &[Tensor],
        profile: Option<&mut Vec<StepTiming>>,
    ) -> Result<Vec<Tensor>, ServeError> {
        if inputs.is_empty() {
            return Ok(Vec::new());
        }
        let item = [self.input[0], self.input[1], self.input[2]];
        for t in inputs {
            let s = t.shape();
            if s.len() != 4 || s[0] != 1 || s[1..] != item[..] {
                return Err(ServeError::ShapeMismatch {
                    expected: item.to_vec(),
                    got: s.to_vec(),
                });
            }
        }
        let item_len: usize = item.iter().product();
        let mut stacked = Tensor::zeros(&[inputs.len(), item[0], item[1], item[2]]);
        for (n, t) in inputs.iter().enumerate() {
            stacked.data_mut()[n * item_len..(n + 1) * item_len].copy_from_slice(t.data());
        }
        let out = self.infer_impl(&stacked, profile)?;
        let out_item: usize = self.output_shape().iter().product();
        let mut per_request = Vec::with_capacity(inputs.len());
        let mut out_shape = vec![1usize];
        out_shape.extend_from_slice(self.output_shape());
        for n in 0..inputs.len() {
            let slice = out.data()[n * out_item..(n + 1) * out_item].to_vec();
            // warm-path: allow(slice length is out_item * 1 by construction, from_vec cannot fail)
            per_request.push(Tensor::from_vec(&out_shape, slice).expect("split batch"));
        }
        Ok(per_request)
    }
}

/// Dense-equivalent FLOPs per batch item for one plan step, derived
/// from the op payload and the shapes flowing through it. Convolutions
/// and FC layers count 2 FLOPs per MAC of their *dense* geometry (the
/// paper's Figure 17 convention, so pruned executors report speedup as
/// higher effective GFLOP/s); data-movement and elementwise steps count
/// one op per touched element.
fn step_flops(op: &LayerPlan, in_shape: &[usize], out_shape: &[usize]) -> f64 {
    let in_elems: f64 = in_shape.iter().product::<usize>() as f64;
    let out_elems: f64 = out_shape.iter().product::<usize>() as f64;
    match op {
        LayerPlan::PatternConv { fkw, .. } => {
            2.0 * (fkw.in_c * fkw.kernel * fkw.kernel) as f64 * out_elems
        }
        LayerPlan::QuantPatternConv { qfkw, .. } => {
            2.0 * (qfkw.in_c * qfkw.kernel * qfkw.kernel) as f64 * out_elems
        }
        LayerPlan::DenseConv { weights, .. } => {
            let ws = weights.shape4();
            2.0 * (ws.c * ws.h * ws.w) as f64 * out_elems
        }
        LayerPlan::MaxPool { kernel, .. } => (kernel * kernel) as f64 * out_elems,
        LayerPlan::GlobalAvgPool => in_elems,
        LayerPlan::Flatten | LayerPlan::Relu | LayerPlan::Add { .. } => out_elems,
        LayerPlan::Fc { weights, .. } => 2.0 * (weights.shape()[0] * weights.shape()[1]) as f64,
        LayerPlan::QuantFc { out_f, in_f, .. } => 2.0 * (out_f * in_f) as f64,
    }
}

/// Extracts `[c, h, w]` when the flowing shape is still spatial.
fn spatial(shape: &[usize]) -> Option<[usize; 3]> {
    match shape {
        [c, h, w] => Some([*c, *h, *w]),
        _ => None,
    }
}

fn run_step(step: &Step, inputs: &[&Tensor], buf: &mut Tensor) {
    let prev = inputs[0];
    match &step.exec {
        StepExec::Pattern(exec) => exec.run_into(prev, buf),
        StepExec::Dense(exec) => exec.run_into(prev, buf),
        StepExec::Winograd(exec) => exec.run_into(prev, buf),
        StepExec::PatternPar(exec) => {
            let out = exec.run(prev);
            buf.data_mut().copy_from_slice(out.data());
        }
        StepExec::MaxPool(window) => {
            let s = prev.shape4();
            kernels::maxpool_planes(
                kernels::active_kernel(),
                prev.data(),
                (s.h, s.w),
                *window,
                buf.data_mut(),
            );
        }
        StepExec::GlobalAvgPool => gap_into(prev, buf),
        StepExec::Flatten | StepExec::Relu => {
            buf.data_mut().copy_from_slice(prev.data());
            if matches!(step.exec, StepExec::Relu) {
                buf.map_inplace(|x| x.max(0.0));
            }
        }
        StepExec::Fc(exec) => exec.run_into(prev, buf),
        StepExec::QuantPattern(exec) => exec.run_into(prev, buf),
        StepExec::QuantFc(exec) => exec.run_into(prev, buf),
        StepExec::Add => {
            let b = inputs[1].data();
            for (o, (&x, &y)) in buf.data_mut().iter_mut().zip(prev.data().iter().zip(b)) {
                *o = x + y;
            }
        }
    }
}

fn gap_into(input: &Tensor, out: &mut Tensor) {
    let s = input.shape4();
    let hw = s.h * s.w;
    for n in 0..s.n {
        for c in 0..s.c {
            let base = (n * s.c + c) * hw;
            let mean = input.data()[base..base + hw].iter().sum::<f32>() / hw as f32;
            out.data_mut()[n * s.c + c] = mean;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_network;
    use patdnn_core::prune::pattern_project_network;
    use patdnn_nn::layer::{Layer, Mode};
    use patdnn_nn::models::small_cnn;
    use patdnn_tensor::rng::Rng;

    fn pruned_cnn(seed: u64) -> patdnn_nn::network::Sequential {
        let mut rng = Rng::seed_from(seed);
        let mut net = small_cnn(3, 8, 4, &mut rng);
        pattern_project_network(&mut net, 8, 2.0);
        net
    }

    #[test]
    fn pruned_network_compiles_to_pattern_plans() {
        let net = pruned_cnn(1);
        let artifact = compile_network("pruned", &net, [3, 8, 8]).expect("compiles");
        let pattern_layers = artifact
            .steps
            .iter()
            .filter(|s| s.op.kind() == "pattern-conv")
            .count();
        assert_eq!(pattern_layers, 2, "both convs compile to pattern executors");
    }

    #[test]
    fn engine_matches_nn_forward() {
        let mut net = pruned_cnn(2);
        let artifact = compile_network("m", &net, [3, 8, 8]).expect("compiles");
        let engine = Engine::new(artifact, EngineOptions::default()).expect("engine");
        let mut rng = Rng::seed_from(3);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let want = net.forward(&x, Mode::Eval);
        let got = engine.infer(&x).expect("infer");
        assert_eq!(got.shape(), want.shape());
        assert!(
            want.approx_eq(&got, 1e-4),
            "engine diverges from nn forward: {:?}",
            want.max_abs_diff(&got)
        );
    }

    #[test]
    fn dense_lowerings_fuse_relu_and_leave_no_post_pass() {
        // An unpruned network compiles to dense-conv steps; the pruned
        // one is forced through the `Im2col` lowering. Either way the
        // plan asks for a ReLU and the step is built without the
        // post-pass: the dense tile's epilogue applies it.
        let mut rng = Rng::seed_from(31);
        let mut unpruned = small_cnn(3, 8, 4, &mut rng);
        let dense = compile_network("dense", &unpruned, [3, 8, 8]).expect("compiles");
        let mut pruned = pruned_cnn(32);
        let mut forced = compile_network("forced", &pruned, [3, 8, 8]).expect("compiles");
        for step in &mut forced.steps {
            if matches!(step.op, LayerPlan::PatternConv { .. }) {
                step.exec.algo = ConvAlgo::Im2col;
            }
        }
        let x = Tensor::randn(&[3, 3, 8, 8], &mut rng);
        for (artifact, net) in [(dense, &mut unpruned), (forced, &mut pruned)] {
            let fused: Vec<bool> = artifact
                .steps
                .iter()
                .map(|s| {
                    matches!(
                        s.op,
                        LayerPlan::DenseConv { relu: true, .. }
                            | LayerPlan::PatternConv { relu: true, .. }
                    )
                })
                .collect();
            let engine = Engine::new(artifact, EngineOptions::default()).expect("engine");
            let mut dense_steps = 0;
            for (step, fused) in engine.steps.iter().zip(fused) {
                if matches!(step.exec, StepExec::Dense(_)) {
                    assert!(fused, "{}: the plan fuses a relu", engine.name());
                    assert!(!step.relu, "{}: and the tile applies it", engine.name());
                    dense_steps += 1;
                }
                assert!(
                    !step.relu || matches!(step.exec, StepExec::Winograd(_) | StepExec::Add),
                    "only winograd and add keep the post-pass"
                );
            }
            assert_eq!(dense_steps, 2, "{}: both convs are dense", engine.name());
            let want = net.forward(&x, Mode::Eval);
            let got = engine.infer(&x).expect("infer");
            assert!(
                want.approx_eq(&got, 1e-4),
                "{} diverges from nn forward: {:?}",
                engine.name(),
                want.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn residual_engine_matches_nn_forward() {
        let mut rng = Rng::seed_from(21);
        let mut net = patdnn_nn::models::resnet_small(10, &mut rng);
        pattern_project_network(&mut net, 8, 3.6);
        let artifact = compile_network("res", &net, [3, 32, 32]).expect("compiles");
        assert!(!artifact.is_chain(), "residual plan is a DAG");
        let engine = Engine::new(artifact, EngineOptions::default()).expect("engine");
        for batch in [1usize, 3] {
            let x = Tensor::randn(&[batch, 3, 32, 32], &mut rng);
            let want = net.forward(&x, Mode::Eval);
            let got = engine.infer(&x).expect("infer");
            assert_eq!(got.shape(), want.shape());
            assert!(
                want.approx_eq(&got, 1e-4),
                "batch {batch}: engine diverges from nn forward: {:?}",
                want.max_abs_diff(&got)
            );
        }
    }

    #[test]
    fn residual_engine_serves_reloaded_artifact() {
        let mut rng = Rng::seed_from(22);
        let mut net = patdnn_nn::models::resnet_small(10, &mut rng);
        pattern_project_network(&mut net, 8, 3.6);
        let artifact = compile_network("res", &net, [3, 32, 32]).expect("compiles");
        let reloaded = crate::ModelArtifact::decode(&artifact.encode()).expect("codec round trip");
        let engine = Engine::new(reloaded, EngineOptions::default()).expect("engine");
        let x = Tensor::randn(&[2, 3, 32, 32], &mut rng);
        let want = net.forward(&x, Mode::Eval);
        let got = engine.infer(&x).expect("infer");
        assert!(want.approx_eq(&got, 1e-4));
    }

    #[test]
    fn scratch_buffers_are_reused_across_calls() {
        let net = pruned_cnn(4);
        let artifact = compile_network("m", &net, [3, 8, 8]).expect("compiles");
        let engine = Engine::new(artifact, EngineOptions::default()).expect("engine");
        let mut rng = Rng::seed_from(5);
        let x = Tensor::randn(&[1, 3, 8, 8], &mut rng);
        let a = engine.infer(&x).expect("first");
        assert_eq!(engine.scratch.lock().unwrap().len(), 1, "buffer set pooled");
        let b = engine.infer(&x).expect("second");
        assert_eq!(engine.scratch.lock().unwrap().len(), 1, "buffer set reused");
        assert_eq!(a, b, "inference is deterministic");
    }

    #[test]
    fn unfittable_window_errors_at_engine_build_not_panic() {
        let net = pruned_cnn(9);
        let mut artifact = compile_network("m", &net, [3, 8, 8]).expect("compiles");
        // Shrink the declared input until the 3x3 convs cannot fit.
        artifact.input = [3, 1, 1];
        assert!(matches!(
            Engine::new(artifact, EngineOptions::default()),
            Err(ServeError::Artifact(_))
        ));
    }

    #[test]
    fn infer_rejects_wrong_shape() {
        let net = pruned_cnn(6);
        let artifact = compile_network("m", &net, [3, 8, 8]).expect("compiles");
        let engine = Engine::new(artifact, EngineOptions::default()).expect("engine");
        let bad = Tensor::zeros(&[1, 3, 9, 9]);
        assert!(matches!(
            engine.infer(&bad),
            Err(ServeError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn threaded_engine_matches_serial() {
        let net = pruned_cnn(7);
        let artifact = compile_network("m", &net, [3, 8, 8]).expect("compiles");
        let serial = Engine::new(artifact.clone(), EngineOptions::default()).expect("engine");
        let par = Engine::new(artifact, EngineOptions { threads: Some(3) }).expect("engine");
        let mut rng = Rng::seed_from(8);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let a = serial.infer(&x).expect("serial");
        let b = par.infer(&x).expect("parallel");
        assert!(a.approx_eq(&b, 1e-5));
    }

    #[test]
    fn per_step_exec_configs_are_honored_without_changing_results() {
        use crate::artifact::ExecConfig;
        use patdnn_compiler::tune::space::{ConvAlgo, LoopPermutation, TuningConfig};
        use patdnn_runtime::pattern_exec::OptLevel;

        let mut net = pruned_cnn(11);
        let mut artifact = compile_network("m", &net, [3, 8, 8]).expect("compiles");
        let reference = Engine::new(artifact.clone(), EngineOptions::default()).expect("engine");

        // Hand every pattern-conv step a different non-default config:
        // a lower opt level, unusual tiles, and a threaded schedule.
        let variants = [
            ExecConfig {
                opt_level: OptLevel::Reorder,
                tuning: TuningConfig::baseline(),
                threads: 1,
                algo: ConvAlgo::Direct,
            },
            ExecConfig {
                opt_level: OptLevel::ReorderLre,
                tuning: TuningConfig {
                    permute: LoopPermutation::CoCiHw,
                    blocked: true,
                    tile_oc: 8,
                    tile_hw: 8,
                    unroll_oc: 2,
                    unroll_w: 2,
                },
                threads: 2,
                algo: ConvAlgo::Direct,
            },
        ];
        let mut next = 0;
        for step in &mut artifact.steps {
            if step.op.kind() == "pattern-conv" {
                step.exec = variants[next % variants.len()];
                next += 1;
            }
        }
        assert_eq!(next, 2, "both convs reconfigured");

        // The tuned plan survives its own codec and infers identically.
        let reloaded = crate::ModelArtifact::decode(&artifact.encode()).expect("round trip");
        assert_eq!(artifact, reloaded, "per-step configs persist");
        let tuned = Engine::new(reloaded, EngineOptions::default()).expect("engine");
        let mut rng = Rng::seed_from(12);
        let x = Tensor::randn(&[2, 3, 8, 8], &mut rng);
        let want = net.forward(&x, Mode::Eval);
        let got = tuned.infer(&x).expect("infer");
        assert!(want.approx_eq(&got, 1e-4), "tuned engine diverges");
        let base = reference.infer(&x).expect("infer");
        assert!(base.approx_eq(&got, 1e-4));
    }

    #[test]
    fn profiled_infer_matches_plain_and_times_every_step() {
        let net = pruned_cnn(15);
        let artifact = compile_network("m", &net, [3, 8, 8]).expect("compiles");
        let plan: Vec<(&'static str, Precision)> = artifact
            .steps
            .iter()
            .map(|s| (s.op.kind(), s.precision))
            .collect();
        let engine = Engine::new(artifact, EngineOptions::default()).expect("engine");
        let mut rng = Rng::seed_from(16);
        let x = Tensor::randn(&[1, 3, 8, 8], &mut rng);
        let plain = engine.infer(&x).expect("plain");
        let mut profile = Vec::new();
        let profiled = engine.infer_profiled(&x, &mut profile).expect("profiled");
        assert_eq!(plain, profiled, "profiling must not change results");
        assert_eq!(profile.len(), plan.len(), "one timing per plan step");
        for (i, t) in profile.iter().enumerate() {
            assert_eq!(t.index, i, "timings are in plan order");
            assert_eq!((t.kind, t.precision), plan[i]);
            assert!(t.flops > 0.0, "step {i} ({}) has work", t.kind);
            assert!(t.dense_gflops() >= 0.0);
        }
        // Conv steps dominate the FLOP count by orders of magnitude.
        let conv_flops: f64 = profile
            .iter()
            .filter(|t| t.kind.ends_with("conv"))
            .map(|t| t.flops)
            .sum();
        let other_flops: f64 = profile
            .iter()
            .filter(|t| !t.kind.ends_with("conv"))
            .map(|t| t.flops)
            .sum();
        assert!(conv_flops > other_flops);
    }

    #[test]
    fn batch_profile_scales_flops_with_batch_size() {
        let net = pruned_cnn(17);
        let artifact = compile_network("m", &net, [3, 8, 8]).expect("compiles");
        let engine = Engine::new(artifact, EngineOptions::default()).expect("engine");
        let mut rng = Rng::seed_from(18);
        let one = vec![Tensor::randn(&[1, 3, 8, 8], &mut rng)];
        let three: Vec<Tensor> = (0..3)
            .map(|_| Tensor::randn(&[1, 3, 8, 8], &mut rng))
            .collect();
        let mut p1 = Vec::new();
        let mut p3 = Vec::new();
        engine.infer_batch_profiled(&one, &mut p1).expect("batch 1");
        let outs = engine
            .infer_batch_profiled(&three, &mut p3)
            .expect("batch 3");
        assert_eq!(outs.len(), 3);
        assert_eq!(p1.len(), p3.len(), "same plan either way");
        for (a, b) in p1.iter().zip(&p3) {
            assert!(
                (b.flops / a.flops - 3.0).abs() < 1e-9,
                "step {} batch-3 flops must be 3x batch-1",
                a.index
            );
        }
    }

    #[test]
    fn thread_override_beats_the_artifact_schedule() {
        use crate::artifact::ExecConfig;
        let net = pruned_cnn(13);
        let mut artifact = compile_network("m", &net, [3, 8, 8]).expect("compiles");
        for step in &mut artifact.steps {
            step.exec = ExecConfig::with_threads(4);
        }
        let mut rng = Rng::seed_from(14);
        let x = Tensor::randn(&[1, 3, 8, 8], &mut rng);
        let honored = Engine::new(artifact.clone(), EngineOptions::default()).expect("engine");
        let forced_serial =
            Engine::new(artifact, EngineOptions { threads: Some(1) }).expect("engine");
        let a = honored.infer(&x).expect("threaded");
        let b = forced_serial.infer(&x).expect("serial");
        assert!(a.approx_eq(&b, 1e-5), "override changes scheduling only");
    }
}
