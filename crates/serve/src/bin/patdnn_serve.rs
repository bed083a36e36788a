//! `patdnn-serve` — end-to-end serving demo.
//!
//! Builds a network (a VGG-style chain or a ResNet-style residual DAG),
//! pattern-prunes it, compiles it to a model artifact — optionally with
//! the per-layer auto-tuner selecting each step's execution config
//! (`--tune estimate` for the deterministic estimator path, `--tune
//! measure` for GA exploration over real timed runs) — saves and
//! reloads the artifact, dumps the tuned plan, verifies the compiled
//! engine against the original network, then serves a synthetic traffic
//! workload through the dynamic-batching server and reports latency
//! percentiles and throughput.
//!
//! With `--precision int8` the compiled plan is additionally quantized:
//! activation ranges are calibrated on a small sample batch
//! ([`patdnn_nn::calibrate`]), every pattern conv and the FC head get
//! symmetric per-filter INT8 weights, and the artifact (format v5)
//! persists the per-step precision so the reloaded engine serves
//! quantized with no recalibration.
//!
//! Traffic is submitted through the request-lifecycle API
//! ([`patdnn_serve::request`]): `--priority` picks the scheduling
//! class and `--deadline-ms` attaches a per-request deadline — expired
//! requests are dropped *before* execution and reported, never served
//! late. The final report breaks latency out per priority class and
//! counts every terminal state (completed / expired / shed / rejected).
//!
//! With `--telemetry full` (or `sampled:N`) the server records
//! request-scoped trace spans and per-layer execution profiles
//! ([`patdnn_serve::telemetry`]); the report then includes a
//! per-stage latency breakdown and the hottest layers. `--trace-out
//! FILE` additionally dumps every span as Chrome-trace JSON (open in
//! `chrome://tracing` or Perfetto) and implies `--telemetry full`
//! unless a policy was given explicitly.
//!
//! ```text
//! patdnn-serve [--model vgg_small|resnet_small] [--requests N]
//!              [--clients N] [--workers N] [--max-batch N]
//!              [--max-wait-ms N] [--threads N]
//!              [--tune off|estimate|measure] [--budget N]
//!              [--precision f32|int8]
//!              [--priority interactive|standard|batch] [--deadline-ms N]
//!              [--telemetry off|full|sampled:N] [--trace-out FILE]
//!              [--artifact-out FILE]
//! patdnn-serve --listen ADDR [--model ...] [--workers N] [--max-batch N]
//!              [--max-wait-ms N] [--threads N] [--precision f32|int8]
//!              [--max-in-flight N] [--queue-capacity N]
//! patdnn-serve --verify-only FILE
//! ```
//!
//! `--listen ADDR` replaces the synthetic-traffic demo with a network
//! front-end: the compiled model is registered and served over the
//! versioned binary wire protocol ([`patdnn_serve::wire`]) on `ADDR`,
//! with `/metrics` and `/healthz` answered over HTTP on the same port
//! (see [`patdnn_serve::net`]). `--model small_cnn` is also accepted
//! here (a tiny 3x8x8 model, used by the router smoke harness). The
//! process runs until a peer sends the shutdown frame, drains, and
//! exits 0.
//!
//! `--verify-only FILE` is a standalone lint mode: it decodes the
//! artifact (wire-format checks only), runs the plan verifier
//! ([`patdnn_serve::verify`]) over it, prints the full
//! [`patdnn_serve::VerifyReport`], and exits 0 if the plan holds every
//! invariant, 1 if violations were found, 2 if the file does not even
//! decode — without ever building an engine or loading weights into
//! executors. `--artifact-out FILE` makes the demo leave its compiled
//! artifact on disk (instead of a deleted temp file) so it can be fed
//! to `--verify-only` or shipped.

use std::sync::Arc;
use std::time::{Duration, Instant};

use patdnn_core::prune::pattern_project_network;
use patdnn_nn::calibrate::{calibrate_network, calibration_batch};
use patdnn_nn::layer::{Layer, Mode};
use patdnn_nn::models::{resnet_small, vgg_small};
use patdnn_nn::network::Sequential;
use patdnn_serve::batching::BatchPolicy;
use patdnn_serve::compile::{compile_network_with, CompileOptions};
use patdnn_serve::engine::{Engine, EngineOptions};
use patdnn_serve::quant::quantize_artifact;
use patdnn_serve::registry::ModelRegistry;
use patdnn_serve::server::{Server, ServerConfig};
use patdnn_serve::{
    ModelArtifact, Precision, Priority, ServeError, TelemetryPolicy, Terminal, TunePolicy,
};
use patdnn_tensor::rng::Rng;
use patdnn_tensor::Tensor;

struct Args {
    model: String,
    requests: usize,
    clients: usize,
    workers: usize,
    max_batch: usize,
    max_wait_ms: u64,
    threads: usize,
    tune: TunePolicy,
    budget: usize,
    precision: Precision,
    priority: Priority,
    /// Per-request deadline in milliseconds; 0 disables deadlines.
    deadline_ms: u64,
    telemetry: TelemetryPolicy,
    /// Chrome-trace JSON output path; implies full telemetry when no
    /// policy was given explicitly.
    trace_out: Option<std::path::PathBuf>,
    /// Keep the compiled artifact at this path instead of a temp file.
    artifact_out: Option<std::path::PathBuf>,
    /// Serve over TCP on this address instead of running the demo.
    listen: Option<String>,
    /// Admission budget (global in-flight cap) in listen mode.
    max_in_flight: usize,
    /// Bounded request-queue capacity in listen mode.
    queue_capacity: usize,
}

fn parse_args() -> Args {
    let mut args = Args {
        model: "vgg_small".into(),
        requests: 200,
        clients: 4,
        workers: 2,
        max_batch: 8,
        max_wait_ms: 2,
        threads: 1,
        tune: TunePolicy::Off,
        budget: 24,
        precision: Precision::F32,
        priority: Priority::Standard,
        deadline_ms: 0,
        telemetry: TelemetryPolicy::Off,
        trace_out: None,
        artifact_out: None,
        listen: None,
        max_in_flight: 512,
        queue_capacity: 1024,
    };
    let mut telemetry_explicit = false;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let need = |i: usize| -> usize {
            argv.get(i + 1)
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| die(&format!("{} needs a number", argv[i])))
        };
        match argv[i].as_str() {
            "--model" => {
                args.model = argv
                    .get(i + 1)
                    .cloned()
                    .unwrap_or_else(|| die("--model needs a name"));
            }
            "--requests" => args.requests = need(i),
            "--clients" => args.clients = need(i),
            "--workers" => args.workers = need(i),
            "--max-batch" => args.max_batch = need(i),
            "--max-wait-ms" => args.max_wait_ms = need(i) as u64,
            "--threads" => args.threads = need(i),
            "--budget" => args.budget = need(i),
            "--tune" => {
                args.tune = match argv.get(i + 1).map(String::as_str) {
                    Some("off") => TunePolicy::Off,
                    Some("estimate") => TunePolicy::Estimate,
                    Some("measure") => TunePolicy::Measure { budget: 0 },
                    other => die(&format!(
                        "--tune expects off|estimate|measure, got {other:?}"
                    )),
                };
            }
            "--precision" => {
                args.precision = match argv.get(i + 1).map(String::as_str) {
                    Some("f32") => Precision::F32,
                    Some("int8") => Precision::Int8,
                    other => die(&format!("--precision expects f32|int8, got {other:?}")),
                };
            }
            "--priority" => {
                args.priority = match argv.get(i + 1).map(String::as_str) {
                    Some("interactive") => Priority::Interactive,
                    Some("standard") => Priority::Standard,
                    Some("batch") => Priority::Batch,
                    other => die(&format!(
                        "--priority expects interactive|standard|batch, got {other:?}"
                    )),
                };
            }
            "--deadline-ms" => args.deadline_ms = need(i) as u64,
            "--telemetry" => {
                args.telemetry = match argv.get(i + 1).map(String::as_str) {
                    Some("off") => TelemetryPolicy::Off,
                    Some("full") => TelemetryPolicy::Full,
                    Some(v) if v.starts_with("sampled:") => {
                        let every = v["sampled:".len()..].parse().unwrap_or_else(|_| {
                            die("--telemetry sampled:N needs a number after the colon")
                        });
                        TelemetryPolicy::Sampled { every }
                    }
                    other => die(&format!(
                        "--telemetry expects off|full|sampled:N, got {other:?}"
                    )),
                };
                telemetry_explicit = true;
            }
            "--trace-out" => {
                args.trace_out = Some(
                    argv.get(i + 1)
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| die("--trace-out needs a file path")),
                );
            }
            "--artifact-out" => {
                args.artifact_out = Some(
                    argv.get(i + 1)
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| die("--artifact-out needs a file path")),
                );
            }
            "--listen" => {
                args.listen = Some(
                    argv.get(i + 1)
                        .cloned()
                        .unwrap_or_else(|| die("--listen needs an address (host:port)")),
                );
            }
            "--max-in-flight" => args.max_in_flight = need(i),
            "--queue-capacity" => args.queue_capacity = need(i),
            other => die(&format!("unknown flag {other}")),
        }
        i += 2;
    }
    if let TunePolicy::Measure { budget } = &mut args.tune {
        *budget = args.budget;
    }
    for (value, flag) in [
        (args.requests, "--requests"),
        (args.clients, "--clients"),
        (args.workers, "--workers"),
        (args.max_batch, "--max-batch"),
        (args.threads, "--threads"),
        (args.budget, "--budget"),
    ] {
        if value == 0 {
            die(&format!("{flag} must be at least 1"));
        }
    }
    if args.threads > 256 {
        die("--threads must be at most 256 (the artifact codec's bound)");
    }
    // Asking for a trace file without picking a policy means "trace
    // everything": a sampled or off policy would leave holes in it.
    if args.trace_out.is_some() && !telemetry_explicit {
        args.telemetry = TelemetryPolicy::Full;
    }
    args
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: patdnn-serve [--model vgg_small|resnet_small] [--requests N] \
         [--clients N] [--workers N] [--max-batch N] [--max-wait-ms N] [--threads N] \
         [--tune off|estimate|measure] [--budget N] [--precision f32|int8] \
         [--priority interactive|standard|batch] [--deadline-ms N] \
         [--telemetry off|full|sampled:N] [--trace-out FILE] [--artifact-out FILE]\n   \
         or: patdnn-serve --listen ADDR [--model vgg_small|resnet_small|small_cnn] \
         [--workers N] [--max-batch N] [--max-wait-ms N] [--threads N] \
         [--precision f32|int8] [--max-in-flight N] [--queue-capacity N]\n   \
         or: patdnn-serve --verify-only FILE"
    );
    std::process::exit(2);
}

/// The `--verify-only` lint mode: decode, verify, print the report,
/// exit with a code reflecting the outcome. Never builds an engine.
fn verify_only(path: &str) -> ! {
    use patdnn_serve::artifact::LoadPolicy;
    let artifact = match ModelArtifact::load_with(path, LoadPolicy::DecodeOnly) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {path}: {e}");
            std::process::exit(2);
        }
    };
    let report = patdnn_serve::verify(&artifact);
    print!("{report}");
    if report.is_ok() {
        println!();
        std::process::exit(0);
    }
    std::process::exit(1);
}

/// The `--listen` network front-end: compile + register the model,
/// then serve the wire protocol (and the `/metrics` + `/healthz` HTTP
/// shim) on `addr` until a peer sends the shutdown frame. Exits 0
/// after a clean drain.
fn run_listen(args: &Args, addr: &str) -> ! {
    use patdnn_serve::net::{NetServer, NetServerConfig};
    use patdnn_serve::AdmissionPolicy;

    let mut rng = Rng::seed_from(7);
    let (mut net, shape, prune_rate): (Sequential, [usize; 3], f32) = match args.model.as_str() {
        "vgg_small" => (vgg_small(10, &mut rng), [3, 32, 32], 3.6),
        "resnet_small" => (resnet_small(10, &mut rng), [3, 32, 32], 3.6),
        // The tiny model the router smoke fleet serves: compiles in
        // milliseconds, so replica startup is not the bottleneck.
        "small_cnn" => (
            patdnn_nn::models::small_cnn(3, 8, 4, &mut rng),
            [3, 8, 8],
            2.5,
        ),
        other => die(&format!(
            "unknown model {other} (expected vgg_small, resnet_small, or small_cnn)"
        )),
    };
    pattern_project_network(&mut net, 8, prune_rate);
    let compile_opts = CompileOptions {
        tune: args.tune,
        threads: args.threads,
        ..CompileOptions::default()
    };
    let mut artifact = compile_network_with(&args.model, &net, shape, &compile_opts)
        .unwrap_or_else(|e| die(&format!("compile failed: {e}")));
    if args.precision == Precision::Int8 {
        let calib = calibration_batch(shape, 8, 17);
        let profile = calibrate_network(&net, &calib)
            .unwrap_or_else(|e| die(&format!("calibration failed: {e}")));
        artifact = quantize_artifact(&artifact, &profile)
            .unwrap_or_else(|e| die(&format!("quantization failed: {e}")));
    }
    let engine = Engine::new(artifact, EngineOptions::default())
        .unwrap_or_else(|e| die(&format!("engine build failed: {e}")));
    let registry = Arc::new(ModelRegistry::new());
    registry.register(&args.model, engine);
    let server = Server::start(
        registry,
        ServerConfig {
            workers: args.workers,
            batch: BatchPolicy {
                max_batch: args.max_batch,
                max_wait: Duration::from_millis(args.max_wait_ms),
                ..BatchPolicy::default()
            },
            queue_capacity: args.queue_capacity,
            admission: AdmissionPolicy {
                max_in_flight: args.max_in_flight,
                max_per_model: args.max_in_flight,
            },
            telemetry: args.telemetry,
        },
    );
    let net_server = NetServer::bind(server, addr, NetServerConfig::default())
        .unwrap_or_else(|e| die(&format!("bind {addr} failed: {e}")));
    // The harness parses this line to learn the bound port (addr may
    // have been host:0).
    println!("listening on {}", net_server.local_addr());
    println!(
        "serving {} ({}, wire v{}, /metrics + /healthz over HTTP)",
        args.model,
        args.precision.label(),
        patdnn_serve::wire::WIRE_VERSION
    );
    match net_server.serve() {
        Ok(()) => {
            println!("drained and shut down cleanly");
            std::process::exit(0);
        }
        Err(e) => die(&format!("serve failed: {e}")),
    }
}

fn main() {
    // `--verify-only FILE` short-circuits the demo entirely.
    let raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = raw.iter().position(|a| a == "--verify-only") {
        let path = raw
            .get(pos + 1)
            .unwrap_or_else(|| die("--verify-only needs a file path"));
        verify_only(path);
    }

    let args = parse_args();
    if let Some(addr) = args.listen.clone() {
        run_listen(&args, &addr);
    }
    let mut rng = Rng::seed_from(7);

    // 1. Train-stage stand-in: a chain (VGG-style) or residual DAG
    //    (ResNet-style) network, pattern-pruned at the paper's 3.6x
    //    connectivity rate (weight values are random; serving
    //    performance is value-independent).
    println!(
        "[1/5] building and pruning {} (3x32x32 input)...",
        args.model
    );
    let mut net: Sequential = match args.model.as_str() {
        "vgg_small" => vgg_small(10, &mut rng),
        "resnet_small" => resnet_small(10, &mut rng),
        other => die(&format!(
            "unknown model {other} (expected vgg_small or resnet_small)"
        )),
    };
    pattern_project_network(&mut net, 8, 3.6);

    // 2. Compile to an artifact (tuning each layer's execution config
    //    under the selected policy), quantize it if requested, save,
    //    and reload from disk.
    println!(
        "[2/5] compiling to a model artifact (tune policy: {}, precision: {})...",
        args.tune.label(),
        args.precision.label()
    );
    let compile_opts = CompileOptions {
        tune: args.tune,
        threads: args.threads,
        ..CompileOptions::default()
    };
    let mut artifact = compile_network_with(&args.model, &net, [3, 32, 32], &compile_opts)
        .unwrap_or_else(|e| die(&format!("compile failed: {e}")));
    // Calibration inputs double as the int8 verification batch below.
    let calib = calibration_batch([3, 32, 32], 8, 17);
    if args.precision == Precision::Int8 {
        let f32_bytes = artifact.weight_bytes();
        let profile = calibrate_network(&net, &calib)
            .unwrap_or_else(|e| die(&format!("calibration failed: {e}")));
        artifact = quantize_artifact(&artifact, &profile)
            .unwrap_or_else(|e| die(&format!("quantization failed: {e}")));
        println!(
            "      quantized {} steps to int8 ({:.1} KiB -> {:.1} KiB of weights)",
            artifact
                .steps
                .iter()
                .filter(|s| s.precision == Precision::Int8)
                .count(),
            f32_bytes as f64 / 1024.0,
            artifact.weight_bytes() as f64 / 1024.0
        );
    }
    let pattern_layers = artifact
        .steps
        .iter()
        .filter(|s| s.op.kind().starts_with("pattern-conv"))
        .count();
    let joins = artifact
        .steps
        .iter()
        .filter(|s| s.op.kind() == "add")
        .count();
    println!(
        "      {} plan steps ({} pattern-conv, {} residual joins), \
         {} buffer slots, {:.1} KiB of weights",
        artifact.steps.len(),
        pattern_layers,
        joins,
        artifact.slots,
        artifact.weight_bytes() as f64 / 1024.0
    );
    println!("      plan (slots read -> written, per-step precision + exec config):");
    for (i, step) in artifact.steps.iter().enumerate() {
        let cfg = if step.op.kind().starts_with("pattern-conv") {
            format!("  [{}]", step.exec.summary())
        } else {
            String::new()
        };
        println!(
            "        {i:>2} {:<15} {:<4} {:?} -> {}{cfg}",
            step.op.kind(),
            step.precision.label(),
            step.inputs,
            step.output,
        );
    }
    let (path, keep) = match &args.artifact_out {
        Some(p) => (p.clone(), true),
        None => (
            std::env::temp_dir().join(format!("patdnn_serve_demo_{}.patdnn", args.model)),
            false,
        ),
    };
    artifact
        .save(&path)
        .unwrap_or_else(|e| die(&format!("save failed: {e}")));
    // The default load policy runs the plan verifier over the decoded
    // artifact, so a reload doubles as a full invariant check.
    let reloaded = ModelArtifact::load(&path).unwrap_or_else(|e| die(&format!("load failed: {e}")));
    if !keep {
        std::fs::remove_file(&path).ok();
    }
    assert_eq!(artifact, reloaded, "artifact round trip");
    println!("      artifact save -> verified load round trip: OK ({path:?})");

    // 3. Build a fresh engine from the reloaded artifact and verify it
    //    against the original network on the calibration batch. The
    //    engine honors each step's persisted exec config and precision
    //    (a tuned artifact serves tuned; a quantized one quantized).
    println!("[3/5] verifying compiled engine against the nn forward pass...");
    let engine = Engine::new(reloaded, EngineOptions::default())
        .unwrap_or_else(|e| die(&format!("engine build failed: {e}")));
    let want = net.forward(&calib, Mode::Eval);
    let got = engine
        .infer(&calib)
        .unwrap_or_else(|e| die(&format!("infer failed: {e}")));
    let diff = want.max_abs_diff(&got).unwrap_or(f32::INFINITY);
    let tol = match args.precision {
        Precision::F32 => 1e-4,
        Precision::Int8 => 1e-2,
    };
    assert!(
        diff < tol,
        "engine diverges from reference: {diff} (tol {tol})"
    );
    println!("      max |engine - reference| = {diff:.2e} (< {tol:.0e}): OK");

    // 4. Serve synthetic traffic through the dynamic-batching server
    //    via the request-lifecycle API.
    let deadline = (args.deadline_ms > 0).then(|| Duration::from_millis(args.deadline_ms));
    println!(
        "[4/5] serving {} {} requests from {} clients ({} workers, max_batch={}, \
         max_wait={}ms, deadline={})...",
        args.requests,
        args.priority.label(),
        args.clients,
        args.workers,
        args.max_batch,
        args.max_wait_ms,
        match deadline {
            Some(d) => format!("{}ms", d.as_millis()),
            None => "none".into(),
        }
    );
    let registry = Arc::new(ModelRegistry::new());
    registry.register(&args.model, engine);
    let server = Server::start(
        Arc::clone(&registry),
        ServerConfig {
            workers: args.workers,
            batch: BatchPolicy {
                max_batch: args.max_batch,
                max_wait: Duration::from_millis(args.max_wait_ms),
                ..BatchPolicy::default()
            },
            queue_capacity: 1024,
            telemetry: args.telemetry,
            ..ServerConfig::default()
        },
    );
    let serve_client = server.client();

    let start = Instant::now();
    let per_client = args.requests.div_ceil(args.clients.max(1));
    let model = args.model.as_str();
    let priority = args.priority;
    // Terminal-state counts across all clients:
    // [completed, expired, shed, rejected, other].
    // lock: demo-counts
    let counts = std::sync::Mutex::new([0u64; 5]);
    std::thread::scope(|scope| {
        for client in 0..args.clients {
            let serve_client = serve_client.clone();
            let counts = &counts;
            scope.spawn(move || {
                let mut rng = Rng::seed_from(100 + client as u64);
                let mut local = [0u64; 5];
                for _ in 0..per_client {
                    let input = Tensor::randn(&[1, 3, 32, 32], &mut rng);
                    let mut request = serve_client.request(model).input(input).priority(priority);
                    if let Some(d) = deadline {
                        request = request.deadline_in(d);
                    }
                    match request.submit().map(|handle| handle.wait()) {
                        Ok(Terminal::Completed(_)) => local[0] += 1,
                        Ok(Terminal::Expired { .. }) | Err(ServeError::Expired { .. }) => {
                            local[1] += 1
                        }
                        Ok(Terminal::Shed { .. }) | Err(ServeError::Shed { .. }) => local[2] += 1,
                        Err(ServeError::QueueFull) => local[3] += 1,
                        Ok(other) => {
                            eprintln!("client {client}: request ended {other:?}");
                            local[4] += 1;
                        }
                        Err(e) => {
                            eprintln!("client {client}: request failed: {e}");
                            local[4] += 1;
                        }
                    }
                    // Jittered think time keeps arrivals bursty enough
                    // to exercise partial batches.
                    if rng.chance(0.3) {
                        std::thread::sleep(Duration::from_micros(rng.below(500) as u64));
                    }
                }
                let mut totals = counts.lock().expect("counts lock");
                for (t, l) in totals.iter_mut().zip(local) {
                    *t += l;
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();

    // 5. Report.
    println!("[5/5] results");
    let snap = server.metrics().snapshot();
    let [completed, expired, shed, rejected, other] = *counts.lock().expect("counts lock");
    println!(
        "      requests     {completed} completed | {expired} expired | {shed} shed | \
         {rejected} rejected | {other} other"
    );
    println!(
        "      batches      {}  (avg batch {:.2})",
        snap.batches, snap.avg_batch
    );
    println!(
        "      latency ms   p50 {:.3} | p95 {:.3} | p99 {:.3} | mean {:.3}",
        snap.p50_ms, snap.p95_ms, snap.p99_ms, snap.mean_ms
    );
    for class in &snap.classes {
        if class.requests > 0 {
            println!(
                "      {:<12} p50 {:.3} | p99 {:.3} (n={})",
                class.priority.label(),
                class.p50_ms,
                class.p99_ms,
                class.requests
            );
        }
    }
    println!(
        "      throughput   {:.1} QPS over {:.2}s wall ({:.1} window QPS)",
        snap.requests as f64 / wall,
        wall,
        snap.qps
    );
    if server.telemetry().enabled() {
        println!("      stage breakdown (mean ms across traced requests):");
        for stat in server.telemetry().stage_breakdown() {
            if stat.count > 0 {
                println!(
                    "        {:<15} {:.3} (n={})",
                    stat.stage.label(),
                    stat.mean_ms(),
                    stat.count
                );
            }
        }
        let mut layers = server.telemetry().layer_snapshots();
        layers.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
        println!("      hottest layers (by total profiled wall time):");
        for layer in layers.iter().take(5) {
            println!(
                "        step {:>2} {:<15} {:<4} mean {:.3}ms p99 {:.3}ms | {:>7.2} GFLOP/s (n={})",
                layer.step,
                layer.kind,
                layer.precision.label(),
                layer.mean_ms,
                layer.p99_ms,
                layer.gflops,
                layer.count
            );
        }
    }
    if let Some(path) = &args.trace_out {
        let json = server.telemetry().chrome_trace_json();
        std::fs::write(path, &json).unwrap_or_else(|e| die(&format!("trace write failed: {e}")));
        println!(
            "      wrote {} span events to {path:?} (chrome://tracing / Perfetto)",
            server.telemetry().events().len()
        );
    }
    server.shutdown();
}
