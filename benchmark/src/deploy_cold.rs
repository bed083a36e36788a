//! `deploy_cold`: the operator's path. One operation takes a freshly
//! trained pair of networks to two live, verified, answering models:
//! prune → compile (`f32` with the estimator, INT8 with calibration) →
//! encode → save → load with verification → build engines → replace the
//! live registry entries → first inference on each, checked.
//!
//! It exercises `core::prune`, `compiler`, `serve::{compile, tune,
//! quant, artifact, verify}` and engine build and packing, and no
//! steady-state kernel. Writes (encode, save) sit beside reads (load,
//! decode, verify), so moving cost from one to the other shows.

use std::path::PathBuf;
use std::time::Instant;

use patdnn_core::prune::pattern_project_network;
use patdnn_nn::layer::{Layer, Mode};
use patdnn_nn::models::{resnet_small, vgg_small};
use patdnn_nn::network::Sequential;
use patdnn_serve::compile::{compile_network_with, CompileOptions};
use patdnn_serve::engine::{Engine, EngineOptions};
use patdnn_serve::quant::compile_network_int8;
use patdnn_serve::registry::ModelRegistry;
use patdnn_serve::{ModelArtifact, TunePolicy};
use patdnn_tensor::Tensor;

use crate::common::{
    busy_goodput, calibration, frame_pool, median_seconds, model_rng, out_dir, repeated_setup,
    within, EndToEnd, Metric, Report, RunCfg, F32_TOL, FRAME_POOL, INPUT, INT8_TOL,
};
use crate::stats::{percentile, Timeline};
use crate::trace::{Tracer, NO_PARENT};

/// Distinct seeded network pairs the releases cycle through.
const RELEASE_POOL: u64 = 16;

/// Live registry names the releases replace.
const NAMES: [&str; 2] = ["vgg_small", "resnet_small"];

/// The `f32` release is lowered with the estimator; `Measure` would make
/// the plan depend on timings taken while compiling.
fn estimate() -> CompileOptions {
    CompileOptions {
        tune: TunePolicy::Estimate,
        ..CompileOptions::default()
    }
}

struct Site {
    registry: ModelRegistry,
    calibration: Tensor,
    paths: [PathBuf; 2],
}

/// What one release left behind, for the oracle and the probes.
struct Release {
    nets: [Sequential; 2],
    outputs: [Tensor; 2],
    encoded: [Vec<u8>; 2],
    loaded: [ModelArtifact; 2],
}

/// The unpruned pair number `release % RELEASE_POOL`.
fn fresh_pair(release: u64) -> [Sequential; 2] {
    let k = release % RELEASE_POOL;
    [
        vgg_small(10, &mut model_rng(100 + k)),
        resnet_small(10, &mut model_rng(200 + k)),
    ]
}

impl Site {
    fn open() -> Site {
        let dir = out_dir();
        let pid = std::process::id();
        Site {
            registry: ModelRegistry::new(),
            calibration: calibration(),
            paths: NAMES.map(|name| dir.join(format!("deploy-{pid}-{name}.patdnn"))),
        }
    }

    /// One release. Every stage is one span covering both models, so a
    /// stage's median is not a mixture of a VGG and a ResNet.
    fn deploy(
        &self,
        mut nets: [Sequential; 2],
        frame: &Tensor,
        tracer: &mut Tracer,
        root: u32,
        op: u64,
    ) -> Option<Release> {
        tracer.time("core.project", root, op, || {
            for net in &mut nets {
                pattern_project_network(net, 8, 3.6);
            }
        });
        let f32_plan = tracer.time("compile", root, op, || {
            compile_network_with(NAMES[0], &nets[0], INPUT, &estimate())
        });
        let int8_plan = tracer.time("quant", root, op, || {
            compile_network_int8(
                NAMES[1],
                &nets[1],
                INPUT,
                &CompileOptions::default(),
                &self.calibration,
            )
        });
        let plans = [f32_plan.ok()?, int8_plan.ok()?];
        let encoded = tracer.time("artifact.encode", root, op, || {
            [plans[0].encode(), plans[1].encode()]
        });
        let saved = tracer.time("artifact.save", root, op, || {
            plans[0]
                .save(&self.paths[0])
                .and(plans[1].save(&self.paths[1]))
        });
        saved.ok()?;
        // `load` verifies the plan before handing it over.
        let loaded = tracer.time("artifact.load", root, op, || {
            [
                ModelArtifact::load(&self.paths[0]),
                ModelArtifact::load(&self.paths[1]),
            ]
        });
        let [Ok(first), Ok(second)] = loaded else {
            return None;
        };
        let loaded = [first, second];
        let engines = tracer.time("engine.build", root, op, || {
            [
                Engine::new(loaded[0].clone(), EngineOptions::default()),
                Engine::new(loaded[1].clone(), EngineOptions::default()),
            ]
        });
        let [Ok(first), Ok(second)] = engines else {
            return None;
        };
        let live = tracer.time("registry.replace", root, op, || {
            [
                self.registry.register(NAMES[0], first),
                self.registry.register(NAMES[1], second),
            ]
        });
        let outputs = tracer.time("engine.first_infer", root, op, || {
            [live[0].infer(frame), live[1].infer(frame)]
        });
        let [Ok(first), Ok(second)] = outputs else {
            return None;
        };
        Some(Release {
            nets,
            outputs: [first, second],
            encoded,
            loaded,
        })
    }

    fn close(self) {
        for path in &self.paths {
            // A release that failed before saving leaves nothing to remove.
            let _ = std::fs::remove_file(path);
        }
    }
}

pub fn run(cfg: &RunCfg) -> Report {
    let frames = frame_pool(cfg.seed);
    // Set-up is opening the site and bringing the first release live.
    let (site, setup_s) = repeated_setup(
        || {
            let site = Site::open();
            let mut off = Tracer::new(false, Instant::now());
            site.deploy(fresh_pair(0), &frames[0], &mut off, NO_PARENT, 0)
                .expect("the first release deploys");
            site
        },
        Site::close,
    );

    let origin = Instant::now();
    let mut tracer = Tracer::new(cfg.traced, origin);
    let mut latency_ms = Timeline::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut probed = None;
    while origin.elapsed().as_secs_f64() < cfg.seconds {
        // Training is not part of a release: the pair exists before the
        // clock starts.
        let nets = fresh_pair(attempted);
        let frame = &frames[attempted as usize % FRAME_POOL];
        let start = Instant::now();
        let root = tracer.open(tracer.ns_at(start), attempted);
        let mut release = site.deploy(nets, frame, &mut tracer, root, attempted);
        let end = Instant::now();
        tracer.close(root, tracer.ns_at(end));
        latency_ms.push(
            (start - origin).as_secs_f64(),
            (end - start).as_secs_f64() * 1e3,
        );
        // Every first answer is checked against the pruned network's own
        // forward pass, outside the clock.
        let ok = release.as_mut().is_some_and(|r| {
            [F32_TOL, INT8_TOL]
                .into_iter()
                .enumerate()
                .all(|(i, tol)| within(&r.outputs[i], &r.nets[i].forward(frame, Mode::Eval), tol))
        });
        failed += u64::from(!ok);
        // The probes use a release of pair 0, whichever run this is, so
        // that exact counts repeat exactly.
        if attempted % RELEASE_POOL == 0 {
            probed = release.or(probed);
        }
        attempted += 1;
    }

    let segments = latency_ms.segments(cfg.seconds);
    let end_to_end = EndToEnd::new(setup_s, busy_goodput(&segments), &segments);
    let layers = match (&probed, cfg.traced) {
        (Some(release), true) => stage_layers(release, &tracer),
        _ => Vec::new(),
    };
    site.close();
    Report {
        attempted,
        failed,
        end_to_end,
        layers,
        tracer,
    }
}

/// Median milliseconds of nine calls of `f`.
fn p50_ms(f: impl FnMut()) -> f64 {
    median_seconds(9, f) * 1e3
}

/// Per-stage medians from the spans, plus the stages a release does not
/// run on their own (untuned lowering, bare decode, bare verify), probed
/// on a release of pair 0.
fn stage_layers(release: &Release, tracer: &Tracer) -> Vec<Metric> {
    let mut layers = Vec::new();
    let mut push = |name: &str, unit: &'static str, value: f64| {
        layers.push(Metric::single(name, unit, value));
    };
    let span_p50_ms = |span: &str| percentile(&mut tracer.durations_s(span), 50.0) * 1e3;

    push(
        "core.pattern_project_ms_p50",
        "ms",
        span_p50_ms("core.project"),
    );
    let lower_off = p50_ms(|| {
        let plan = compile_network_with(
            NAMES[0],
            &release.nets[0],
            INPUT,
            &CompileOptions::default(),
        );
        std::hint::black_box(plan.expect("compiles untuned"));
    });
    let lower_estimate = span_p50_ms("compile");
    push("compile.lower_off_ms_p50", "ms", lower_off);
    push("compile.lower_estimate_ms_p50", "ms", lower_estimate);
    // The estimator's cost is what tuned lowering adds to untuned.
    push("tune.estimate_ms_p50", "ms", lower_estimate - lower_off);
    push("quant.compile_int8_ms_p50", "ms", span_p50_ms("quant"));

    push(
        "artifact.encode_ms_p50",
        "ms",
        span_p50_ms("artifact.encode"),
    );
    let decode = p50_ms(|| {
        for bytes in &release.encoded {
            std::hint::black_box(ModelArtifact::decode(bytes).expect("decodes its own bytes"));
        }
    });
    push("artifact.decode_ms_p50", "ms", decode);
    push(
        "artifact.load_verified_ms_p50",
        "ms",
        span_p50_ms("artifact.load"),
    );
    let bytes: usize = release.encoded.iter().map(Vec::len).sum();
    push("artifact.encoded_bytes", "B", bytes as f64);
    let verify = p50_ms(|| {
        for plan in &release.loaded {
            assert!(patdnn_serve::verify(plan).is_ok(), "loaded plan verifies");
        }
    });
    push("verify.ms_p50", "ms", verify);
    push("engine.build_ms_p50", "ms", span_p50_ms("engine.build"));
    push(
        "engine.first_infer_ms_p50",
        "ms",
        span_p50_ms("engine.first_infer"),
    );
    push(
        "registry.replace_us_p50",
        "us",
        span_p50_ms("registry.replace") * 1e3,
    );
    layers
}
