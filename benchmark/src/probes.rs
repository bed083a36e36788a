//! Stand-alone probes of the layers below the engine: each times one
//! public function on a fixed shape, so a change to a kernel shows here
//! before (and separately from) its effect on a whole plan.
//!
//! Rates are dense-equivalent: the FLOPs an unpruned layer of the same
//! geometry would need, computed from the shape, over the measured time.

use std::time::Instant;

use patdnn_compiler::{FkwLayer, QuantFkwLayer, TuningConfig};
use patdnn_core::prune::pattern_project_network;
use patdnn_nn::network::Sequential;
use patdnn_nn::prelude::Conv2d;
use patdnn_runtime::{OptLevel, PatternConv, QuantPatternConv};
use patdnn_serve::algo_exec::{Im2colConv, WinogradConv};
use patdnn_serve::compile::compile_network;
use patdnn_serve::wire::{read_frame, write_frame, Frame};
use patdnn_serve::{LayerPlan, Priority};
use patdnn_tensor::gemm::gemm_i8_bt;
use patdnn_tensor::kernels::{
    active_kernel, gemm_packed_f32, pack_a_f32, pack_b_f32, packed_a_len, packed_b_len,
};
use patdnn_tensor::rng::Rng;
use patdnn_tensor::{Conv2dGeometry, Tensor};

use crate::common::{rng_for, Metric, INPUT};
use crate::stats::percentile;

/// Each probe repeats its call for about this long after warming up.
const PROBE_SECONDS: f64 = 0.15;

/// Median seconds per call of `f`.
fn p50_seconds(mut f: impl FnMut()) -> f64 {
    for _ in 0..3 {
        f();
    }
    let mut times = Vec::new();
    let begin = Instant::now();
    while begin.elapsed().as_secs_f64() < PROBE_SECONDS || times.len() < 10 {
        let start = Instant::now();
        f();
        times.push(start.elapsed().as_secs_f64());
    }
    percentile(&mut times, 50.0)
}

/// A `channels → channels` 3×3 layer on a `hw × hw` image, pruned to
/// `rate`× connectivity and lowered by the real compiler.
struct PrunedConv {
    geo: Conv2dGeometry,
    fkw: FkwLayer,
    bias: Option<Vec<f32>>,
    input: Tensor,
    output: Tensor,
}

impl PrunedConv {
    fn new(channels: usize, hw: usize, rate: f32, rng: &mut Rng) -> Self {
        let mut net = Sequential::new("probe");
        net.push(Conv2d::new("conv", channels, channels, 3, 1, 1, rng));
        pattern_project_network(&mut net, 8, rate);
        let artifact = compile_network("probe", &net, [channels, hw, hw]).expect("probe compiles");
        let (fkw, bias) = artifact
            .steps
            .iter()
            .find_map(|step| match &step.op {
                LayerPlan::PatternConv { fkw, bias, .. } => Some((fkw.clone(), bias.clone())),
                _ => None,
            })
            .expect("a pruned 3x3 layer lowers to a pattern conv");
        PrunedConv {
            geo: Conv2dGeometry::new(channels, channels, 3, 3, hw, hw, 1, 1),
            fkw,
            bias,
            input: Tensor::randn(&[1, channels, hw, hw], rng),
            output: Tensor::zeros(&[1, channels, hw, hw]),
        }
    }

    /// FLOPs of the unpruned layer.
    fn dense_flops(&self) -> f64 {
        let g = &self.geo;
        2.0 * (g.out_channels * g.in_channels * g.kernel_h * g.kernel_w * g.out_h * g.out_w) as f64
    }

    fn pattern_gflops(&mut self) -> f64 {
        let conv = PatternConv::new(
            self.geo,
            self.fkw.clone(),
            self.bias.clone(),
            OptLevel::Full,
            TuningConfig::tuned_default(),
        );
        let secs = p50_seconds(|| conv.run_into(&self.input, &mut self.output));
        self.dense_flops() / secs / 1e9
    }

    fn quant_gops(&mut self) -> f64 {
        let act_max = self.input.data().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        let conv = QuantPatternConv::new(
            self.geo,
            QuantFkwLayer::from_fkw(&self.fkw, act_max),
            self.bias.clone(),
            OptLevel::Full,
            TuningConfig::tuned_default(),
        );
        let secs = p50_seconds(|| conv.run_into(&self.input, &mut self.output));
        self.dense_flops() / secs / 1e9
    }
}

pub fn run(seed: u64) -> Vec<Metric> {
    let mut rng = rng_for(seed, 30);
    let mut layers = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64| {
        layers.push(Metric::single(name, unit, value));
    };

    // tensor: the packed f32 tile GEMM and the i8 dot-product GEMM at
    // the im2col shape of a 64-filter layer on a 16x16 image.
    let (m, n, k) = (64, 256, 576);
    let gemm_ops = 2.0 * (m * n * k) as f64;
    let a = Tensor::randn(&[m, k], &mut rng);
    let b = Tensor::randn(&[k, n], &mut rng);
    let mut ap = vec![0.0; packed_a_len(m, k)];
    let mut bp = vec![0.0; packed_b_len(k, n)];
    pack_a_f32(m, k, a.data(), k, &mut ap);
    pack_b_f32(k, n, b.data(), n, &mut bp);
    let mut c = vec![0.0f32; m * n];
    let secs = p50_seconds(|| gemm_packed_f32(active_kernel(), m, n, k, &ap, &bp, &mut c, n));
    push(
        "tensor.gemm_packed_f32_gflops",
        "GFLOP/s",
        gemm_ops / secs / 1e9,
    );
    let a8: Vec<i8> = (0..m * k)
        .map(|_| (rng.below(255) as i32 - 127) as i8)
        .collect();
    let b8: Vec<i8> = (0..n * k)
        .map(|_| (rng.below(255) as i32 - 127) as i8)
        .collect();
    let mut c32 = vec![0i32; m * n];
    let secs = p50_seconds(|| {
        c32.fill(0);
        gemm_i8_bt(m, n, k, &a8, &b8, &mut c32);
    });
    push("tensor.gemm_i8_bt_gops", "GOP/s", gemm_ops / secs / 1e9);

    // runtime: the pattern executors on a layer that fits L1/L2 and on a
    // wider one whose weights do not.
    let mut small = PrunedConv::new(64, 16, 3.6, &mut rng);
    push(
        "runtime.pattern_conv_f32_gflops",
        "GFLOP/s",
        small.pattern_gflops(),
    );
    push("runtime.pattern_conv_i8_gops", "GOP/s", small.quant_gops());
    let mut mid = PrunedConv::new(128, 8, 3.6, &mut rng);
    push(
        "runtime.pattern_conv_mid_gflops",
        "GFLOP/s",
        mid.pattern_gflops(),
    );

    // algo_exec: the densified lowerings, on a layer pruned only 1.5x so
    // that Winograd's density gate admits it.
    let mut dense_ish = PrunedConv::new(64, 16, 1.5, &mut rng);
    let weights = dense_ish.fkw.to_dense();
    let bias = dense_ish.bias.clone().unwrap_or_default();
    let flops = dense_ish.dense_flops();
    let im2col = Im2colConv::new(dense_ish.geo, &weights, bias.clone());
    let secs = p50_seconds(|| im2col.run_into(&dense_ish.input, &mut dense_ish.output));
    push("algo_exec.im2col_gflops", "GFLOP/s", flops / secs / 1e9);
    patdnn_serve::winograd_eligible(&dense_ish.geo, &dense_ish.fkw)
        .expect("a 1.5x-pruned stride-1 3x3 layer is Winograd-eligible");
    let winograd = WinogradConv::new(dense_ish.geo, &weights, bias);
    let secs = p50_seconds(|| winograd.run_into(&dense_ish.input, &mut dense_ish.output));
    push("algo_exec.winograd_gflops", "GFLOP/s", flops / secs / 1e9);

    // wire: one Infer frame carrying a 3x32x32 tensor, to and from memory.
    let frame = Frame::Infer {
        id: 1,
        model: "vgg_small".into(),
        priority: Priority::Standard,
        deadline_us: 100_000,
        input: Tensor::randn(&[1, INPUT[0], INPUT[1], INPUT[2]], &mut rng),
    };
    let mut buf = Vec::new();
    let secs = p50_seconds(|| {
        buf.clear();
        write_frame(&mut buf, &frame).expect("writes to memory");
    });
    push("wire.encode_infer_ns_p50", "ns", secs * 1e9);
    let secs = p50_seconds(|| {
        let decoded = read_frame(&mut buf.as_slice()).expect("reads its own frame");
        std::hint::black_box(decoded);
    });
    push("wire.decode_infer_ns_p50", "ns", secs * 1e9);
    push("wire.infer_frame_bytes", "B", buf.len() as f64);
    layers
}
