//! `b1_local`: the paper's own scenario. One caller, no server; one
//! operation sends a frame through four compiled plans in turn, batch 1.
//!
//! All of the time is in `tensor::kernels`, `runtime::{pattern_exec,
//! quant_exec}` and `serve::{engine, algo_exec}`; none is in batching,
//! the wire or the router. Running the whole zoo per frame keeps the
//! operation homogeneous, so the median never sits on the boundary
//! between a fast plan and a slow one.

use std::time::Instant;

use patdnn_compiler::ConvAlgo;
use patdnn_nn::models::{resnet_small, vgg_small};
use patdnn_nn::network::Sequential;
use patdnn_nn::prelude::{Conv2d, Flatten, Linear, MaxPool2d, Relu};
use patdnn_serve::compile::{compile_network, CompileOptions};
use patdnn_serve::engine::{Engine, EngineOptions, StepTiming};
use patdnn_serve::quant::compile_network_int8;
use patdnn_serve::{LayerPlan, ModelArtifact};
use patdnn_tensor::rng::Rng;
use patdnn_tensor::Tensor;

use crate::alloc::count_allocations;
use crate::common::{
    busy_goodput, calibration, frame_pool, median_seconds, model_rng, prune, reference_outputs,
    repeated_setup, rng_for, within, EndToEnd, Metric, Report, RunCfg, CHECK_EVERY, F32_TOL,
    FRAME_POOL, INPUT, INT8_TOL,
};
use crate::stats::{percentile, Timeline};
use crate::trace::Tracer;

/// One compiled plan of the zoo.
struct Plan {
    /// Plan name as it appears in `engine.<name>.b1_p50_us`.
    name: &'static str,
    /// Span name of one inference through this plan.
    span: &'static str,
    engine: Engine,
    /// Index into [`Zoo::nets`] of the network this plan was compiled from.
    net: usize,
    tol: f32,
}

/// The four plans and the pruned networks behind them.
struct Zoo {
    plans: Vec<Plan>,
    nets: Vec<Sequential>,
}

/// A VGG-style chain with 32/64/128 channels: about four times the
/// multiply-accumulates of `vgg_small`, and weights that no longer fit
/// in L1.
fn vgg_mid(rng: &mut Rng) -> Sequential {
    let mut net = Sequential::new("vgg_mid");
    let mut in_c = INPUT[0];
    for (stage, ch) in [32usize, 64, 128].into_iter().enumerate() {
        for half in 1..=2 {
            let name = format!("conv{}_{half}", stage + 1);
            net.push(Conv2d::new(&name, ch, in_c, 3, 1, 1, rng));
            net.push(Relu::new(&format!("relu{}_{half}", stage + 1)));
            in_c = ch;
        }
        net.push(MaxPool2d::new(&format!("pool{}", stage + 1), 2, 2, 0));
    }
    net.push(Flatten::new("flatten"));
    net.push(Linear::new("fc1", 128, 128 * 4 * 4, rng));
    net.push(Relu::new("relu_fc"));
    net.push(Linear::new("fc2", 10, 128, rng));
    net
}

/// Routes every pattern convolution of `artifact` through im2col + GEMM.
fn force_im2col(artifact: &mut ModelArtifact) {
    for step in &mut artifact.steps {
        if matches!(step.op, LayerPlan::PatternConv { .. }) {
            step.exec.algo = ConvAlgo::Im2col;
        }
    }
}

/// Builds, prunes and compiles the zoo, and runs each plan warm.
fn build_zoo(warm: &Tensor) -> Zoo {
    let vgg = prune(vgg_small(10, &mut model_rng(10)));
    let resnet = prune(resnet_small(10, &mut model_rng(11)));
    let mid = prune(vgg_mid(&mut model_rng(12)));

    // `compile_network` is `TunePolicy::Off`: plans that depend only on
    // the weights, never on a timing taken while compiling.
    let direct = compile_network("vgg_small_direct", &vgg, INPUT).expect("vgg_small compiles");
    let mut im2col = direct.clone();
    im2col.name = "vgg_small_im2col".into();
    force_im2col(&mut im2col);
    let int8 = compile_network_int8(
        "resnet_small_int8",
        &resnet,
        INPUT,
        &CompileOptions::default(),
        &calibration(),
    )
    .expect("resnet_small quantizes");
    let mid_direct = compile_network("vgg_mid_direct", &mid, INPUT).expect("vgg_mid compiles");

    let plan = |name, span, artifact, net, tol| Plan {
        name,
        span,
        engine: Engine::new(artifact, EngineOptions::default()).expect("verified plan"),
        net,
        tol,
    };
    let plans = vec![
        plan(
            "vgg_small_direct",
            "engine.infer:vgg_small_direct",
            direct,
            0,
            F32_TOL,
        ),
        plan(
            "vgg_small_im2col",
            "engine.infer:vgg_small_im2col",
            im2col,
            0,
            F32_TOL,
        ),
        plan(
            "resnet_small_int8",
            "engine.infer:resnet_small_int8",
            int8,
            1,
            INT8_TOL,
        ),
        plan(
            "vgg_mid_direct",
            "engine.infer:vgg_mid_direct",
            mid_direct,
            2,
            F32_TOL,
        ),
    ];
    for plan in &plans {
        for _ in 0..3 {
            plan.engine.infer(warm).expect("warm-up inference");
        }
    }
    Zoo {
        plans,
        nets: vec![vgg, resnet, mid],
    }
}

pub fn run(cfg: &RunCfg) -> Report {
    let frames = frame_pool(cfg.seed);
    let (mut zoo, setup_s) = repeated_setup(|| build_zoo(&frames[0]), drop);
    let references: Vec<Vec<Tensor>> = zoo
        .nets
        .iter_mut()
        .map(|net| reference_outputs(net, &frames))
        .collect();

    let origin = Instant::now();
    let mut tracer = Tracer::new(cfg.traced, origin);
    let mut draws = rng_for(cfg.seed, 2);
    let mut latency_ms = Timeline::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut outputs: Vec<Option<Tensor>> = vec![None; zoo.plans.len()];
    while origin.elapsed().as_secs_f64() < cfg.seconds {
        let frame = draws.below(FRAME_POOL);
        let x = &frames[frame];
        let start = Instant::now();
        let root = tracer.open(tracer.ns_at(start), attempted);
        for (plan, slot) in zoo.plans.iter().zip(&mut outputs) {
            *slot = tracer
                .time(plan.span, root, attempted, || plan.engine.infer(x))
                .ok();
        }
        let end = Instant::now();
        tracer.close(root, tracer.ns_at(end));
        latency_ms.push(
            (start - origin).as_secs_f64(),
            (end - start).as_secs_f64() * 1e3,
        );
        let check = attempted % CHECK_EVERY == 0;
        let ok = zoo.plans.iter().zip(&outputs).all(|(plan, out)| {
            out.as_ref()
                .is_some_and(|out| !check || within(out, &references[plan.net][frame], plan.tol))
        });
        failed += u64::from(!ok);
        attempted += 1;
    }

    let segments = latency_ms.segments(cfg.seconds);
    let end_to_end = EndToEnd::new(setup_s, busy_goodput(&segments), &segments);
    let layers = if cfg.traced {
        engine_layers(&zoo, &tracer, &frames)
    } else {
        Vec::new()
    };
    Report {
        attempted,
        failed,
        end_to_end,
        layers,
        tracer,
    }
}

/// The `engine` layer's numbers: per-plan medians from the spans, and
/// three probes of `vgg_small_direct` (batch 8, per-step profile, warm
/// allocations).
fn engine_layers(zoo: &Zoo, tracer: &Tracer, frames: &[Tensor]) -> Vec<Metric> {
    let mut layers = Vec::new();
    let mut b1_p50_us = 0.0;
    for plan in &zoo.plans {
        let mut secs = tracer.durations_s(plan.span);
        let p50_us = percentile(&mut secs, 50.0) * 1e6;
        if plan.name == "vgg_small_direct" {
            b1_p50_us = p50_us;
        }
        layers.push(Metric::single(
            &format!("engine.{}.b1_p50_us", plan.name),
            "us",
            p50_us,
        ));
    }

    let engine = &zoo.plans[0].engine;
    let mut batch = Vec::with_capacity(8 * frames[0].len());
    for frame in &frames[..8] {
        batch.extend_from_slice(frame.data());
    }
    let batch = Tensor::from_vec(&[8, INPUT[0], INPUT[1], INPUT[2]], batch).expect("8 frames");
    for _ in 0..3 {
        engine.infer(&batch).expect("batch-8 warm-up");
    }
    let item_p50_us = median_seconds(60, || {
        std::hint::black_box(engine.infer(&batch).expect("batch-8 inference"));
    }) * 1e6
        / 8.0;
    layers.push(Metric::single(
        "engine.batch8_item_p50_us",
        "us",
        item_p50_us,
    ));
    layers.push(Metric::single(
        "engine.batch_amortization",
        "ratio",
        b1_p50_us / item_p50_us,
    ));

    let (mut conv_s, mut fc_s, mut other_s, mut conv_flops) = (0.0, 0.0, 0.0, 0.0);
    let mut profile: Vec<StepTiming> = Vec::new();
    for frame in frames.iter().cycle().take(100) {
        profile.clear();
        engine
            .infer_profiled(frame, &mut profile)
            .expect("profiled inference");
        for step in &profile {
            let wall = step.wall.as_secs_f64();
            if step.kind.contains("conv") {
                conv_s += wall;
                conv_flops += step.flops;
            } else if step.kind.starts_with("fc") {
                fc_s += wall;
            } else {
                other_s += wall;
            }
        }
    }
    let total_s = conv_s + fc_s + other_s;
    layers.push(Metric::single(
        "engine.conv_time_share",
        "ratio",
        conv_s / total_s,
    ));
    layers.push(Metric::single(
        "engine.fc_time_share",
        "ratio",
        fc_s / total_s,
    ));
    layers.push(Metric::single(
        "engine.other_time_share",
        "ratio",
        other_s / total_s,
    ));
    layers.push(Metric::single(
        "engine.conv_dense_gflops",
        "GFLOP/s",
        conv_flops / conv_s / 1e9,
    ));

    let (_, allocs) = count_allocations(|| engine.infer(&frames[0]).expect("warm inference"));
    layers.push(Metric::single(
        "engine.warm_allocs_per_infer",
        "count",
        allocs as f64,
    ));
    let packed: usize = zoo
        .plans
        .iter()
        .map(|p| p.engine.packed_weight_bytes())
        .sum();
    layers.push(Metric::single(
        "engine.packed_weight_bytes",
        "B",
        packed as f64,
    ));
    layers
}
