//! `wire_fleet`: small requests over loopback TCP to a router in front
//! of two replicas, all inside this process.
//!
//! Each request costs about 0.15 ms of compute, so the time is in
//! `wire` (framing), `net` (a waiter thread per request in flight) and
//! `router` (pool, hash, forward). A kernel change must not move this
//! workload; a multiplexed front-end must.
//!
//! Closed loop: two connections, eight requests outstanding on each.
//! The end-to-end numbers come from the `routed` phase. A traced run
//! first spends a sixth of its time on `ping` and a third on `direct`
//! (the same load straight at one replica), which is where the `net`
//! numbers and the router's forwarding overhead come from.

use std::sync::Arc;
use std::time::{Duration, Instant};

use patdnn_nn::models::small_cnn;
use patdnn_nn::network::Sequential;
use patdnn_serve::compile::compile_network;
use patdnn_serve::engine::{Engine, EngineOptions};
use patdnn_serve::net::{NetClient, NetServer, NetServerConfig, NetServerHandle};
use patdnn_serve::registry::ModelRegistry;
use patdnn_serve::router::{Router, RouterConfig, RouterHandle, RouterServer};
use patdnn_serve::server::{Server, ServerConfig};
use patdnn_serve::{ModelArtifact, Priority, WireOutcome};
use patdnn_tensor::Tensor;

use crate::common::{
    bit_identical, frame_pool, median_seconds, model_rng, prune, reference_outputs, repeated_setup,
    rng_for, thread_count, within, EndToEnd, Metric, Report, RunCfg, CHECK_EVERY, F32_TOL,
    FRAME_POOL, INPUT,
};
use crate::stats::{percentile, Timeline};
use crate::trace::Tracer;

/// Registered model names, hashed over the ring.
const MODELS: usize = 8;
/// Client connections, one generator thread each.
const CONNECTIONS: usize = 2;
/// Requests each connection keeps outstanding.
const WINDOW: usize = 8;
/// The generator reads the process's thread count at its first response
/// and then once per this many.
const THREAD_SAMPLE_EVERY: u64 = 512;

fn model_name(i: usize) -> String {
    format!("cnn{i}")
}

struct Fleet {
    replicas: Vec<NetServerHandle>,
    router: RouterHandle,
    /// The served plans with the pruned networks they came from.
    models: Vec<(ModelArtifact, Sequential)>,
}

impl Fleet {
    fn start(warm: &Tensor) -> Fleet {
        let models: Vec<(ModelArtifact, Sequential)> = (0..MODELS)
            .map(|i| {
                let mut rng = model_rng(40 + i as u64);
                let net = prune(small_cnn(INPUT[0], INPUT[1], 10, &mut rng));
                let artifact =
                    compile_network(&model_name(i), &net, INPUT).expect("small_cnn compiles");
                (artifact, net)
            })
            .collect();
        let replicas: Vec<NetServerHandle> = (0..2)
            .map(|_| {
                let registry = Arc::new(ModelRegistry::new());
                for (artifact, _) in &models {
                    let engine = Engine::new(artifact.clone(), EngineOptions::default());
                    registry.register(&artifact.name, engine.expect("verified plan"));
                }
                let server = Server::start(
                    registry,
                    ServerConfig {
                        workers: 1,
                        ..ServerConfig::default()
                    },
                );
                NetServer::bind(server, "127.0.0.1:0", NetServerConfig::default())
                    .expect("loopback bind")
                    .spawn()
            })
            .collect();
        let router = RouterServer::bind(
            Router::new(RouterConfig {
                replicas: replicas.iter().map(|r| r.addr().to_string()).collect(),
                ..RouterConfig::default()
            }),
            "127.0.0.1:0",
        )
        .expect("loopback bind")
        .spawn();
        let fleet = Fleet {
            replicas,
            router,
            models,
        };
        // Warm every model through the router, so pools are dialled and
        // slot buffers allocated before anything is timed.
        let mut client = NetClient::connect(&fleet.router_addr()).expect("router accepts");
        for i in 0..MODELS {
            for _ in 0..2 {
                let outcome = client.infer(&model_name(i), warm, Priority::Standard, None);
                assert!(
                    outcome.is_ok_and(|o| o.is_completed()),
                    "warm-up request failed"
                );
            }
        }
        fleet
    }

    /// `reference[model][frame]`: what an in-process engine computes from
    /// the same plan, which the wire must return to the bit. The engine
    /// in turn must agree with the network it was compiled from.
    fn reference(&mut self, frames: &[Tensor]) -> Vec<Vec<Tensor>> {
        self.models
            .iter_mut()
            .map(|(artifact, net)| {
                let engine =
                    Engine::new(artifact.clone(), EngineOptions::default()).expect("verified");
                let outputs: Vec<Tensor> = frames
                    .iter()
                    .map(|x| engine.infer(x).expect("reference inference"))
                    .collect();
                let truth = reference_outputs(net, frames);
                assert!(
                    outputs
                        .iter()
                        .zip(&truth)
                        .all(|(o, t)| within(o, t, F32_TOL)),
                    "compiled small_cnn disagrees with its own network"
                );
                outputs
            })
            .collect()
    }

    fn router_addr(&self) -> String {
        self.router.addr().to_string()
    }

    fn stop(self) {
        self.router.shutdown().expect("router drains");
        for replica in self.replicas {
            replica.shutdown(true).expect("replica drains");
        }
    }
}

/// What one closed-loop phase observed.
#[derive(Default)]
struct Phase {
    /// (seconds into the phase the response arrived, latency in ms).
    latency_ms: Timeline,
    attempted: u64,
    failed: u64,
    threads_peak: u64,
}

/// What every connection of a closed-loop phase shares.
#[derive(Clone, Copy)]
struct Load<'a> {
    addr: &'a str,
    seconds: f64,
    seed: u64,
    /// Keeps operation ids unique across phases.
    first_op: u64,
    frames: &'a [Tensor],
    reference: &'a [Vec<Tensor>],
}

/// One connection's generator: keeps `WINDOW` requests outstanding until
/// the phase is over, then drains.
fn drive_connection(
    load: &Load,
    conn: usize,
    begin: Instant,
    mut tracer: Tracer,
) -> (Phase, Tracer) {
    let mut phase = Phase::default();
    let mut draws = rng_for(load.seed, 50 + conn as u64);
    let Ok(mut client) = NetClient::connect(load.addr) else {
        phase.attempted = 1;
        phase.failed = 1;
        return (phase, tracer);
    };
    let names: Vec<String> = (0..MODELS).map(model_name).collect();
    // (id, model, frame, sent, root span) per request in flight.
    let mut in_flight: Vec<(u64, usize, usize, Instant, u32)> = Vec::new();
    let mut next = 0u64;
    loop {
        let open = begin.elapsed().as_secs_f64() < load.seconds && phase.failed == 0;
        while open && in_flight.len() < WINDOW {
            let id = load.first_op + next * CONNECTIONS as u64 + conn as u64;
            next += 1;
            let (model, frame) = (draws.below(MODELS), draws.below(FRAME_POOL));
            let sent = Instant::now();
            let root = tracer.open(tracer.ns_at(sent), id);
            let submitted = tracer.time("net.submit", root, id, || {
                let input = &load.frames[frame];
                client.submit_with_id(id, &names[model], input, Priority::Standard, None)
            });
            phase.attempted += 1;
            if submitted.is_err() {
                phase.failed += 1;
                break;
            }
            in_flight.push((id, model, frame, sent, root));
        }
        if in_flight.is_empty() {
            return (phase, tracer);
        }
        let wait_from = tracer.ns_at(Instant::now());
        let Ok((id, outcome)) = client.recv() else {
            // A transport error loses everything in flight.
            phase.failed += in_flight.len() as u64;
            return (phase, tracer);
        };
        let done = Instant::now();
        let Some(slot) = in_flight.iter().position(|r| r.0 == id) else {
            phase.failed += 1;
            continue;
        };
        let (_, model, frame, sent, root) = in_flight.swap_remove(slot);
        // The wait for this response began when the generator last
        // blocked, or when the request was sent.
        let recv_from = wait_from.max(tracer.ns_at(sent));
        tracer.record("net.recv", recv_from, tracer.ns_at(done), root, id);
        tracer.close(root, tracer.ns_at(done));
        let ok = match outcome {
            WireOutcome::Completed { output, .. } => {
                id % CHECK_EVERY != 0 || bit_identical(&output, &load.reference[model][frame])
            }
            _ => false,
        };
        phase.failed += u64::from(!ok);
        phase.latency_ms.push(
            (done - begin).as_secs_f64(),
            (done - sent).as_secs_f64() * 1e3,
        );
        if phase.latency_ms.len() as u64 % THREAD_SAMPLE_EVERY == 1 {
            phase.threads_peak = phase.threads_peak.max(thread_count());
        }
    }
}

/// Drives `CONNECTIONS` × `WINDOW` outstanding requests for the phase,
/// one generator thread per connection, and merges what they saw.
fn closed_loop(load: &Load, tracer: &mut Tracer) -> Phase {
    let begin = Instant::now();
    let results: Vec<(Phase, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let thread_tracer = tracer.fork();
                scope.spawn(move || drive_connection(load, conn, begin, thread_tracer))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let mut total = Phase::default();
    for (phase, thread_tracer) in results {
        total.latency_ms.extend(phase.latency_ms);
        total.attempted += phase.attempted;
        total.failed += phase.failed;
        total.threads_peak = total.threads_peak.max(phase.threads_peak);
        tracer.absorb(thread_tracer);
    }
    total
}

pub fn run(cfg: &RunCfg) -> Report {
    let frames = frame_pool(cfg.seed);
    let (mut fleet, setup_s) = repeated_setup(|| Fleet::start(&frames[0]), Fleet::stop);
    let reference = fleet.reference(&frames);
    let mut tracer = Tracer::new(cfg.traced, Instant::now());
    let replica_addr = fleet.replicas[0].addr().to_string();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut layers = Vec::new();
    let mut routed_s = cfg.seconds;
    let mut direct_p50_ms = 0.0;
    let router_addr = fleet.router_addr();
    let routed_load = Load {
        addr: &router_addr,
        seconds: routed_s,
        seed: cfg.seed,
        first_op: 1 << 32,
        frames: &frames,
        reference: &reference,
    };

    if cfg.traced {
        let mut push = |name: &str, unit: &'static str, value: f64| {
            layers.push(Metric::single(name, unit, value));
        };
        routed_s = cfg.seconds / 2.0;
        // ping: connection set-up and a bare round trip, no inference.
        let mut connected = true;
        let connect_s = median_seconds(32, || {
            connected &= NetClient::connect(&replica_addr).is_ok();
        });
        let ping_until = Instant::now() + Duration::from_secs_f64(cfg.seconds / 6.0);
        let mut ping_s = Vec::new();
        let mut ping_ok = false;
        if let Ok(mut client) = NetClient::connect(&replica_addr) {
            ping_ok = true;
            while ping_ok && Instant::now() < ping_until {
                let start = Instant::now();
                ping_ok = client.ping().is_ok();
                ping_s.push(start.elapsed().as_secs_f64());
            }
        }
        attempted += 32 + ping_s.len() as u64;
        failed += u64::from(!connected) + u64::from(!ping_ok);
        push("net.connect_p50_us", "us", connect_s * 1e6);
        push(
            "net.ping_rtt_p50_us",
            "us",
            percentile(&mut ping_s, 50.0) * 1e6,
        );

        // direct: the routed load, minus the router.
        let direct_s = cfg.seconds / 3.0;
        let direct = closed_loop(
            &Load {
                addr: &replica_addr,
                seconds: direct_s,
                first_op: 0,
                ..routed_load
            },
            // Only `routed` operations go into the trace: the two phases
            // would otherwise share span names.
            &mut Tracer::new(false, Instant::now()),
        );
        attempted += direct.attempted;
        failed += direct.failed;
        direct_p50_ms = percentile(&mut direct.latency_ms.values(), 50.0);
        push("net.direct_p50_us", "us", direct_p50_ms * 1e3);
        push(
            "net.direct_goodput_per_s",
            "ops/s",
            direct.latency_ms.len() as f64 / direct_s,
        );
    }

    let before = fleet.router.router().metrics_snapshot();
    let routed = closed_loop(
        &Load {
            seconds: routed_s,
            ..routed_load
        },
        &mut tracer,
    );
    let after = fleet.router.router().metrics_snapshot();
    attempted += routed.attempted;
    failed += routed.failed;

    let end_to_end = EndToEnd::new(
        setup_s,
        routed.latency_ms.rate_per_s(routed_s),
        &routed.latency_ms.segments(routed_s),
    );

    if cfg.traced {
        let mut push = |name: &str, unit: &'static str, value: f64| {
            layers.push(Metric::single(name, unit, value));
        };
        push("net.threads_peak", "count", routed.threads_peak as f64);
        push(
            "router.forward_overhead_p50_us",
            "us",
            (end_to_end.latency_p50_ms.value - direct_p50_ms) * 1e3,
        );
        let forwarded: Vec<u64> = after
            .replicas
            .iter()
            .zip(&before.replicas)
            .map(|(a, b)| a.1 - b.1)
            .collect();
        let (least, most) = (
            forwarded.iter().min().copied().unwrap_or(0),
            forwarded.iter().max().copied().unwrap_or(0),
        );
        push(
            "router.replica_balance",
            "ratio",
            least as f64 / most.max(1) as f64,
        );
        push(
            "router.shed_retries",
            "count",
            (after.shed_retries - before.shed_retries) as f64,
        );
        push(
            "router.transport_retries",
            "count",
            (after.transport_retries - before.transport_retries) as f64,
        );
        push(
            "router.ejections",
            "count",
            (after.ejections - before.ejections) as f64,
        );
    }
    fleet.stop();
    Report {
        attempted,
        failed,
        end_to_end,
        layers,
        tracer,
    }
}
