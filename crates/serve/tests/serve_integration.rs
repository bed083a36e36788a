//! Integration tests of the serving subsystem: artifact round trips,
//! engine-vs-layerwise equivalence, and dynamic batching correctness.

use std::sync::Arc;
use std::time::Duration;

use patdnn_compiler::tune::space::TuningConfig;
use patdnn_core::prune::pattern_project_network;
use patdnn_nn::layer::{Layer, Mode};
use patdnn_nn::models::{small_cnn, vgg_small};
use patdnn_nn::network::Sequential;
use patdnn_runtime::executor::ConvExecutor;
use patdnn_runtime::pattern_exec::{OptLevel, PatternConv};
use patdnn_serve::batching::BatchPolicy;
use patdnn_serve::compile::compile_network;
use patdnn_serve::engine::{Engine, EngineOptions};
use patdnn_serve::registry::ModelRegistry;
use patdnn_serve::server::{Server, ServerConfig};
use patdnn_serve::{LayerPlan, ModelArtifact, ServeError};
use patdnn_tensor::rng::Rng;
use patdnn_tensor::{Conv2dGeometry, Tensor};

/// Builds a pattern-pruned small CNN (both convs prunable).
fn pruned_cnn(seed: u64) -> Sequential {
    let mut rng = Rng::seed_from(seed);
    let mut net = small_cnn(3, 8, 4, &mut rng);
    pattern_project_network(&mut net, 8, 2.5);
    net
}

/// Artifact codec: save → load → bitwise-equal weights and structure.
#[test]
fn artifact_round_trip_is_bitwise_lossless() {
    let net = pruned_cnn(1);
    let artifact = compile_network("rt", &net, [3, 8, 8]).expect("compiles");
    assert!(
        artifact.steps.iter().any(|s| s.op.kind() == "pattern-conv"),
        "round trip must cover FKW layers"
    );

    let dir = std::env::temp_dir().join("patdnn_serve_roundtrip_test");
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let path = dir.join("model.patdnn");
    artifact.save(&path).expect("save");
    let reloaded = ModelArtifact::load(&path).expect("load");
    std::fs::remove_file(&path).ok();

    assert_eq!(artifact, reloaded, "decoded artifact is structurally equal");
    // Bitwise weight equality, FKW layer by FKW layer.
    for (a, b) in artifact.steps.iter().zip(&reloaded.steps) {
        if let (LayerPlan::PatternConv { fkw: fa, .. }, LayerPlan::PatternConv { fkw: fb, .. }) =
            (&a.op, &b.op)
        {
            let bits_a: Vec<u32> = fa.weights.iter().map(|w| w.to_bits()).collect();
            let bits_b: Vec<u32> = fb.weights.iter().map(|w| w.to_bits()).collect();
            assert_eq!(bits_a, bits_b, "FKW weights bitwise equal");
        }
    }
    // And the re-encoded bytes are identical.
    assert_eq!(artifact.encode(), reloaded.encode());
}

/// Engine vs layerwise reference: the compiled plan must match running
/// each ConvExecutor (and the nn forward pass) by hand.
#[test]
fn engine_matches_layerwise_execution() {
    let mut net = pruned_cnn(2);
    let artifact = compile_network("eq", &net, [3, 8, 8]).expect("compiles");
    let engine = Engine::new(artifact.clone(), EngineOptions::default()).expect("engine");

    let mut rng = Rng::seed_from(3);
    let x = Tensor::randn(&[1, 3, 8, 8], &mut rng);

    // Hand-rolled layerwise execution of the same plan (a chain, so the
    // steps execute in slot-feeding order).
    assert!(artifact.is_chain(), "small_cnn compiles to a chain plan");
    let mut cur = x.clone();
    let mut shape = [3usize, 8, 8];
    for step in &artifact.steps {
        cur = match &step.op {
            LayerPlan::PatternConv {
                stride,
                pad,
                fkw,
                bias,
                relu,
                ..
            } => {
                let geo = Conv2dGeometry::new(
                    fkw.out_c, fkw.in_c, fkw.kernel, fkw.kernel, shape[1], shape[2], *stride, *pad,
                );
                let exec = PatternConv::new(
                    geo,
                    fkw.clone(),
                    bias.clone(),
                    OptLevel::Full,
                    TuningConfig::tuned_default(),
                );
                shape = [geo.out_channels, geo.out_h, geo.out_w];
                let mut out = exec.run(&cur);
                if *relu {
                    out.map_inplace(|v| v.max(0.0));
                }
                out
            }
            LayerPlan::MaxPool {
                kernel,
                stride,
                pad,
            } => {
                let mut pool = patdnn_nn::pool::MaxPool2d::new("p", *kernel, *stride, *pad);
                let out = pool.forward(&cur, Mode::Eval);
                shape = [out.shape()[1], out.shape()[2], out.shape()[3]];
                out
            }
            LayerPlan::Flatten => {
                let n = cur.shape()[0];
                let rest: usize = cur.shape()[1..].iter().product();
                cur.clone().reshape(&[n, rest]).expect("flatten")
            }
            LayerPlan::Fc { weights, bias, .. } => {
                let mut fc = patdnn_nn::linear::Linear::new(
                    "fc",
                    weights.shape()[0],
                    weights.shape()[1],
                    &mut Rng::seed_from(0),
                );
                fc.weight.value = weights.clone();
                fc.bias.value = Tensor::from_vec(&[bias.len()], bias.clone()).expect("bias");
                fc.forward(&cur, Mode::Eval)
            }
            other => panic!("unexpected plan step {}", other.kind()),
        };
    }

    let got = engine.infer(&x).expect("infer");
    assert!(
        cur.approx_eq(&got, 1e-4),
        "engine diverges from layerwise execution: {:?}",
        cur.max_abs_diff(&got)
    );

    // And against the original network's forward pass.
    let want = net.forward(&x, Mode::Eval);
    assert!(
        want.approx_eq(&got, 1e-4),
        "engine diverges from nn forward: {:?}",
        want.max_abs_diff(&got)
    );
}

/// A deeper pruned network (VGG-small) survives compile → save → load →
/// engine with outputs within tolerance of the nn forward pass.
#[test]
fn vgg_small_compiles_and_serves_from_reloaded_artifact() {
    let mut rng = Rng::seed_from(4);
    let mut net = vgg_small(10, &mut rng);
    pattern_project_network(&mut net, 8, 3.6);
    let artifact = compile_network("vgg_small", &net, [3, 32, 32]).expect("compiles");

    let pattern_layers = artifact
        .steps
        .iter()
        .filter(|s| s.op.kind() == "pattern-conv")
        .count();
    assert_eq!(pattern_layers, 6, "all six 3x3 convs compile to FKW");

    let bytes = artifact.encode();
    let reloaded = ModelArtifact::decode(&bytes).expect("decode");
    let engine = Engine::new(reloaded, EngineOptions::default()).expect("engine");

    let x = Tensor::randn(&[2, 3, 32, 32], &mut rng);
    let want = net.forward(&x, Mode::Eval);
    let got = engine.infer(&x).expect("infer");
    assert!(
        want.approx_eq(&got, 1e-4),
        "reloaded engine diverges: {:?}",
        want.max_abs_diff(&got)
    );
}

/// The tuned-plan pipeline end to end: `Estimate` compiles per-layer
/// exec configs, the artifact round-trips them intact, and the
/// reloaded engine serves without retuning, numerically equivalent to
/// the default plan.
#[test]
fn tuned_artifact_serves_tuned_without_retuning() {
    use patdnn_serve::compile::{compile_network_with, CompileOptions};
    use patdnn_serve::TunePolicy;

    let mut rng = Rng::seed_from(35);
    let mut net = patdnn_nn::models::resnet_small(10, &mut rng);
    pattern_project_network(&mut net, 8, 3.6);
    let default_plan = compile_network("tuned", &net, [3, 32, 32]).expect("compiles");
    let tuned_plan = compile_network_with(
        "tuned",
        &net,
        [3, 32, 32],
        &CompileOptions {
            tune: TunePolicy::Estimate,
            ..CompileOptions::default()
        },
    )
    .expect("compiles tuned");

    // The estimator makes per-layer choices: the plan dump must not be
    // one uniform config across pattern-conv steps.
    let configs: Vec<_> = tuned_plan
        .steps
        .iter()
        .filter(|s| s.op.kind() == "pattern-conv")
        .map(|s| s.exec)
        .collect();
    assert!(configs.len() > 1, "resnet_small has several pattern convs");
    assert!(
        configs.iter().any(|c| *c != configs[0]),
        "estimated configs must be non-uniform across layers"
    );

    // The round trip preserves every step's config; the same compile is
    // reproducible (tuning is deterministic under Estimate).
    let reloaded = ModelArtifact::decode(&tuned_plan.encode()).expect("round trip");
    assert_eq!(tuned_plan, reloaded, "per-step configs survive the codec");

    // Tuned and default plans agree numerically with the nn reference.
    let tuned_engine = Engine::new(reloaded, EngineOptions::default()).expect("tuned engine");
    let default_engine = Engine::new(default_plan, EngineOptions::default()).expect("engine");
    let x = Tensor::randn(&[2, 3, 32, 32], &mut rng);
    let want = net.forward(&x, Mode::Eval);
    let tuned_out = tuned_engine.infer(&x).expect("tuned infer");
    let default_out = default_engine.infer(&x).expect("default infer");
    assert!(
        want.approx_eq(&tuned_out, 1e-4),
        "tuned engine diverges from the nn reference: {:?}",
        want.max_abs_diff(&tuned_out)
    );
    assert!(default_out.approx_eq(&tuned_out, 1e-4));
}

/// The INT8 path through the codec: a quantized artifact round-trips
/// structurally equal and the reloaded plan infers bit-identically.
/// (Reading v4 bytes is pinned by the codec's frozen v4 fixture,
/// `artifact::tests::v4_bytes_decode_with_direct_algos`.)
#[test]
fn quantized_artifact_round_trips_and_infers_bit_identically() {
    use patdnn_serve::quant::compile_network_int8;
    use patdnn_serve::{CompileOptions, Precision};

    let mut rng = Rng::seed_from(36);
    let mut net = patdnn_nn::models::resnet_small(10, &mut rng);
    pattern_project_network(&mut net, 8, 3.6);
    let calib = patdnn_nn::calibrate::calibration_batch([3, 32, 32], 4, 37);
    let artifact =
        compile_network_int8("qrt", &net, [3, 32, 32], &CompileOptions::default(), &calib)
            .expect("quantized compile");
    assert!(
        artifact
            .steps
            .iter()
            .any(|s| s.precision == Precision::Int8),
        "plan carries int8 steps"
    );

    // Round trip: structurally equal, bit-identical inference.
    let reloaded = ModelArtifact::decode(&artifact.encode()).expect("decodes");
    assert_eq!(artifact, reloaded);
    let engine_a = Engine::new(artifact.clone(), EngineOptions::default()).expect("engine");
    let engine_b = Engine::new(reloaded, EngineOptions::default()).expect("engine");
    let out_a = engine_a.infer(&calib).expect("infer");
    let out_b = engine_b.infer(&calib).expect("infer");
    let bits_a: Vec<u32> = out_a.data().iter().map(|v| v.to_bits()).collect();
    let bits_b: Vec<u32> = out_b.data().iter().map(|v| v.to_bits()).collect();
    assert_eq!(bits_a, bits_b, "reloaded quantized plan infers identically");
}

/// A quantized model served through the dynamic-batching server:
/// batched results equal per-request engine results, and the outputs
/// track the f32 plan within the calibration tolerance.
#[test]
fn quantized_model_serves_through_dynamic_batching() {
    use patdnn_serve::quant::compile_network_int8;
    use patdnn_serve::CompileOptions;

    let mut rng = Rng::seed_from(38);
    let mut net = vgg_small(10, &mut rng);
    pattern_project_network(&mut net, 8, 3.6);
    let calib = patdnn_nn::calibrate::calibration_batch([3, 32, 32], 4, 39);
    let f32_plan = compile_network("q", &net, [3, 32, 32]).expect("compiles");
    let int8_plan =
        compile_network_int8("q", &net, [3, 32, 32], &CompileOptions::default(), &calib)
            .expect("quantized compile");
    let f32_engine = Engine::new(f32_plan, EngineOptions::default()).expect("engine");

    let registry = Arc::new(ModelRegistry::new());
    let engine = registry.register(
        "q",
        Engine::new(int8_plan, EngineOptions::default()).unwrap(),
    );
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 2,
            batch: BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(5),
                ..BatchPolicy::default()
            },
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    // Serve the calibration items themselves: scales were fit on them,
    // so the deviation bound is the calibrated one.
    let item_len = 3 * 32 * 32;
    let inputs: Vec<Tensor> = (0..4)
        .map(|i| {
            let slice = calib.data()[i * item_len..(i + 1) * item_len].to_vec();
            Tensor::from_vec(&[1, 3, 32, 32], slice).expect("calib item")
        })
        .collect();
    let handles: Vec<_> = inputs
        .iter()
        .map(|x| {
            client
                .request("q")
                .input(x.clone())
                .submit()
                .expect("submit")
        })
        .collect();
    for (x, handle) in inputs.iter().zip(handles) {
        let resp = handle.wait().into_result().expect("served");
        let direct = engine.infer(x).expect("direct");
        assert!(
            direct.approx_eq(&resp.output, 1e-5),
            "batched quantized result diverges from per-request result"
        );
        let reference = f32_engine.infer(x).expect("f32 reference");
        let dev = reference.max_abs_diff(&resp.output).expect("same shape");
        assert!(dev <= 1e-2, "served int8 deviates {dev} from f32");
    }
    server.shutdown();
}

/// A pruned residual model served through the dynamic-batching server:
/// batched results equal per-request engine results.
#[test]
fn residual_model_serves_through_dynamic_batching() {
    let mut rng = Rng::seed_from(32);
    let mut net = patdnn_nn::models::resnet_small(10, &mut rng);
    pattern_project_network(&mut net, 8, 3.6);
    let artifact = compile_network("res", &net, [3, 32, 32]).expect("compiles");
    let registry = Arc::new(ModelRegistry::new());
    let engine = registry.register(
        "res",
        Engine::new(artifact, EngineOptions::default()).unwrap(),
    );
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 2,
            batch: BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(5),
                ..BatchPolicy::default()
            },
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let inputs: Vec<Tensor> = (0..8)
        .map(|_| Tensor::randn(&[1, 3, 32, 32], &mut rng))
        .collect();
    let handles: Vec<_> = inputs
        .iter()
        .map(|x| {
            client
                .request("res")
                .input(x.clone())
                .submit()
                .expect("submit")
        })
        .collect();
    for (x, handle) in inputs.iter().zip(handles) {
        let resp = handle.wait().into_result().expect("served");
        let direct = engine.infer(x).expect("direct");
        assert!(
            direct.approx_eq(&resp.output, 1e-5),
            "batched residual result diverges from per-request result"
        );
    }
    server.shutdown();
}

/// Dynamic batching: results served through the batching queue equal
/// per-request engine results, request by request.
#[test]
fn batched_serving_matches_per_request_inference() {
    let net = pruned_cnn(5);
    let artifact = compile_network("batch", &net, [3, 8, 8]).expect("compiles");
    let registry = Arc::new(ModelRegistry::new());
    let engine = registry.register(
        "batch",
        Engine::new(artifact, EngineOptions::default()).unwrap(),
    );

    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: 2,
            batch: BatchPolicy {
                max_batch: 4,
                max_wait: Duration::from_millis(5),
                ..BatchPolicy::default()
            },
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    );

    // Submit 12 concurrent requests, then compare each against a direct
    // (batch-1) engine run of the same input.
    let mut rng = Rng::seed_from(6);
    let inputs: Vec<Tensor> = (0..12)
        .map(|_| Tensor::randn(&[1, 3, 8, 8], &mut rng))
        .collect();
    let client = server.client();
    let handles: Vec<_> = inputs
        .iter()
        .map(|x| {
            client
                .request("batch")
                .input(x.clone())
                .submit()
                .expect("submit")
        })
        .collect();
    let mut saw_multi_request_batch = false;
    for (x, handle) in inputs.iter().zip(handles) {
        let resp = handle.wait().into_result().expect("served");
        let direct = engine.infer(x).expect("direct");
        assert!(
            direct.approx_eq(&resp.output, 1e-5),
            "batched result diverges from per-request result"
        );
        saw_multi_request_batch |= resp.batch_size > 1;
    }
    assert!(
        saw_multi_request_batch,
        "12 concurrent requests should form at least one multi-request batch"
    );

    let snap = server.metrics().snapshot();
    assert_eq!(snap.requests, 12);
    assert!(snap.batches < 12, "batching amortized executions");
    assert!(snap.p50_ms <= snap.p99_ms);
    server.shutdown();
}

/// Backpressure: a full queue rejects with QueueFull rather than
/// blocking or growing unboundedly — the lifecycle builder surfaces
/// the same typed `QueueFull` (not `Shed`) the legacy shim did.
#[test]
fn queue_backpressure_rejects_overload() {
    let net = pruned_cnn(7);
    let artifact = compile_network("bp", &net, [3, 8, 8]).expect("compiles");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(
        "bp",
        Engine::new(artifact, EngineOptions::default()).unwrap(),
    );

    // One worker held busy by a huge max_wait is enough to fill a tiny
    // queue synchronously.
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 1,
            batch: BatchPolicy {
                max_batch: 64,
                max_wait: Duration::from_secs(3600),
                ..BatchPolicy::default()
            },
            queue_capacity: 2,
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    let x = || Tensor::zeros(&[1, 3, 8, 8]);
    // The worker may grab the first request into its forming batch; the
    // queue holds 2 more; beyond that pushes must fail.
    let mut rejected = false;
    let mut pending = Vec::new();
    for _ in 0..8 {
        match client.request("bp").input(x()).submit() {
            Ok(handle) => pending.push(handle),
            Err(ServeError::QueueFull) => {
                rejected = true;
                break;
            }
            Err(e) => panic!("unexpected error {e}"),
        }
    }
    assert!(rejected, "bounded queue must reject overload");
    assert!(server.metrics().snapshot().rejected >= 1);
}
