//! `served_open`: requests arrive on a schedule, whether or not the
//! server has kept up, and go through the in-process `Server`/`Client`:
//! queueing, dynamic batching, EDF/priority dispatch and admission.
//!
//! Two phases share one schedule. `steady` (the first two thirds of the
//! run) offers about 40 % of what one worker can serve; latency is read
//! there. `overload` (the last third) offers about 2.5 times what it can
//! serve; goodput — requests answered inside their class's limit — is
//! read there, where shedding and expiry are the correct behaviour.
//!
//! Latency counts from the *intended* send time, so a stall that delays
//! later sends is charged to the requests it delayed.

use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

use patdnn_nn::models::vgg_small;
use patdnn_nn::network::Sequential;
use patdnn_serve::compile::{compile_network, CompileOptions};
use patdnn_serve::engine::{Engine, EngineOptions};
use patdnn_serve::quant::compile_network_int8;
use patdnn_serve::registry::ModelRegistry;
use patdnn_serve::server::{Server, ServerConfig};
use patdnn_serve::{Priority, ResponseHandle, ServeError, TelemetryPolicy, Terminal};
use patdnn_tensor::Tensor;

use crate::common::{
    calibration, frame_pool, model_rng, prune, reference_outputs, repeated_setup, rng_for, within,
    EndToEnd, Metric, Report, RunCfg, CHECK_EVERY, F32_TOL, FRAME_POOL, INPUT, INT8_TOL,
};
use crate::stats::{percentile, Timeline};
use crate::trace::Tracer;

/// Offered load in `steady`, requests per second. Centred once, on the
/// machine this benchmark was defined on, at about 40 % of the 1200 to
/// 1250 requests per second one worker sustains there; frozen since.
pub const STEADY_RPS: f64 = 500.0;

/// Offered load in `overload`: about 2.5 times what one worker sustains.
pub const OVERLOAD_RPS: f64 = 3000.0;

/// Share of the run spent in `steady`.
const STEADY_SHARE: f64 = 2.0 / 3.0;

/// The two registered models: the same pruned network, `f32` and INT8.
const MODELS: [(&str, f32); 2] = [("vgg_small", F32_TOL), ("vgg_small_int8", INT8_TOL)];

/// Scheduling classes with their share of traffic and latency limit.
const CLASSES: [(Priority, f64, Duration); 3] = [
    (Priority::Interactive, 0.20, Duration::from_millis(25)),
    (Priority::Standard, 0.50, Duration::from_millis(100)),
    (Priority::Batch, 0.30, Duration::from_millis(250)),
];

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Intended send time, seconds from the start of the run.
    pub at_s: f64,
    pub model: usize,
    pub class: usize,
    pub frame: usize,
}

/// Poisson arrivals at `STEADY_RPS` until `steady_s`, then at
/// `OVERLOAD_RPS` until `total_s`, with model, class and frame drawn
/// per request — all from `seed`.
pub fn schedule(seed: u64, steady_s: f64, total_s: f64) -> Vec<Arrival> {
    let mut rng = rng_for(seed, 20);
    let mut arrivals = Vec::new();
    let mut at_s = 0.0;
    loop {
        let rate = if at_s < steady_s {
            STEADY_RPS
        } else {
            OVERLOAD_RPS
        };
        // Exponential gap; 1 - u is in (0, 1], so the log is finite.
        at_s += -(1.0 - rng.next_f64()).ln() / rate;
        if at_s >= total_s {
            return arrivals;
        }
        let draw = rng.next_f64();
        let class = if draw < CLASSES[0].1 {
            0
        } else if draw < CLASSES[0].1 + CLASSES[1].1 {
            1
        } else {
            2
        };
        arrivals.push(Arrival {
            at_s,
            model: rng.below(MODELS.len()),
            class,
            frame: rng.below(FRAME_POOL),
        });
    }
}

struct Fleet {
    server: Server,
    net: Sequential,
}

fn start(telemetry: TelemetryPolicy, warm: &Tensor) -> Fleet {
    let net = prune(vgg_small(10, &mut model_rng(10)));
    let f32_plan = compile_network(MODELS[0].0, &net, INPUT).expect("vgg_small compiles");
    let int8_plan = compile_network_int8(
        MODELS[1].0,
        &net,
        INPUT,
        &CompileOptions::default(),
        &calibration(),
    )
    .expect("vgg_small quantizes");
    let registry = Arc::new(ModelRegistry::new());
    for plan in [f32_plan, int8_plan] {
        let name = plan.name.clone();
        let engine = Engine::new(plan, EngineOptions::default()).expect("verified plan");
        registry.register(&name, engine);
    }
    // One worker, and otherwise the shipped defaults: they are what is
    // being measured.
    let server = Server::start(
        registry,
        ServerConfig {
            workers: 1,
            telemetry,
            ..ServerConfig::default()
        },
    );
    let client = server.client();
    for (name, _) in MODELS {
        for _ in 0..3 {
            client.infer(name, warm.clone()).expect("warm-up request");
        }
    }
    Fleet { server, net }
}

/// What the submit thread hands the collector for each request.
struct Submitted {
    index: usize,
    /// Submit call entered / returned, nanoseconds from the origin.
    submit_start_ns: u64,
    submit_end_ns: u64,
    outcome: Result<ResponseHandle, ServeError>,
}

/// Where one request ended up.
enum Outcome {
    /// Answered; latency from the intended send time, and batch size.
    Completed { latency_s: f64, batch: usize },
    /// Refused at the door: admission shed or queue backpressure.
    Shed,
    /// Dropped unexecuted after its deadline.
    Expired,
    /// Anything that must never happen.
    Broken,
}

pub fn run(cfg: &RunCfg) -> Report {
    let frames = frame_pool(cfg.seed);
    // Full telemetry only in the traced run: the untraced numbers are
    // the shipped configuration's.
    let telemetry = if cfg.traced {
        TelemetryPolicy::Full
    } else {
        TelemetryPolicy::Off
    };
    let (mut fleet, setup_s) = repeated_setup(
        || start(telemetry, &frames[0]),
        |fleet| fleet.server.shutdown(),
    );
    let reference = reference_outputs(&mut fleet.net, &frames);

    let steady_s = cfg.seconds * STEADY_SHARE;
    let overload_s = cfg.seconds - steady_s;
    let arrivals = schedule(cfg.seed, steady_s, cfg.seconds);
    let client = fleet.server.client();
    let origin = Instant::now();
    let mut tracer = Tracer::new(cfg.traced, origin);
    let ns_of = |s: f64| (s * 1e9) as u64;

    let (tx, rx) = mpsc::channel::<Submitted>();
    let mut outcomes: Vec<Outcome> = Vec::with_capacity(arrivals.len());
    let mut wrong_outputs = 0u64;
    // Stage totals as they stood when `steady` ended.
    let mut steady_stages = None;
    // How late the generator sent each `steady` request.
    let mut steady_late_s = Vec::new();
    std::thread::scope(|scope| {
        let (arrivals, frames) = (&arrivals, &frames);
        scope.spawn(move || {
            for (index, arrival) in arrivals.iter().enumerate() {
                let (priority, _, limit) = CLASSES[arrival.class];
                let input = frames[arrival.frame].clone();
                let intended = origin + Duration::from_secs_f64(arrival.at_s);
                // Spin, giving the core away between looks at the clock:
                // a sleeping generator wakes up to a millisecond late on
                // an idle virtual CPU, and that lateness is charged to
                // the request.
                while Instant::now() < intended {
                    std::thread::yield_now();
                }
                let submit_start = Instant::now();
                let outcome = client
                    .request(MODELS[arrival.model].0)
                    .input(input)
                    .priority(priority)
                    .deadline(intended + limit)
                    .submit();
                let submit_end = Instant::now();
                let sent = tx.send(Submitted {
                    index,
                    submit_start_ns: (submit_start - origin).as_nanos() as u64,
                    submit_end_ns: (submit_end - origin).as_nanos() as u64,
                    outcome,
                });
                if sent.is_err() {
                    return;
                }
            }
        });

        // The collector: resolves handles in submission order. A handle
        // that resolved long ago just returns at once; the latency used
        // is the server's own, not the time the collector got round to it.
        for submitted in rx {
            let arrival = &arrivals[submitted.index];
            if arrival.at_s >= steady_s && steady_stages.is_none() {
                // Every steady request has resolved by now: the collector
                // works through them in order.
                steady_stages = Some(fleet.server.telemetry().stage_breakdown());
            }
            let op = submitted.index as u64;
            let intended_ns = ns_of(arrival.at_s);
            let root = tracer.open(intended_ns, op);
            tracer.record(
                "generator.late",
                intended_ns,
                submitted.submit_start_ns,
                root,
                op,
            );
            tracer.record(
                "request.submit",
                submitted.submit_start_ns,
                submitted.submit_end_ns,
                root,
                op,
            );
            let late_s = submitted.submit_start_ns.saturating_sub(intended_ns) as f64 / 1e9;
            if arrival.at_s < steady_s {
                steady_late_s.push(late_s);
            }
            let terminal = match submitted.outcome {
                Ok(handle) => handle.wait(),
                Err(ServeError::Shed { retry_after_hint }) => Terminal::Shed { retry_after_hint },
                // Backpressure from a full queue is the same answer to
                // the caller as an admission shed: typed, come back later.
                Err(ServeError::QueueFull) => Terminal::Shed {
                    retry_after_hint: Duration::ZERO,
                },
                Err(ServeError::Expired { missed_by }) => Terminal::Expired { missed_by },
                Err(other) => Terminal::Failed(other),
            };
            let mut end_ns = tracer.ns_at(Instant::now());
            outcomes.push(match terminal {
                Terminal::Completed(response) => {
                    end_ns = submitted.submit_start_ns + response.latency.as_nanos() as u64;
                    if op.is_multiple_of(CHECK_EVERY) {
                        let tol = MODELS[arrival.model].1;
                        let ok = within(&response.output, &reference[arrival.frame], tol);
                        wrong_outputs += u64::from(!ok);
                    }
                    Outcome::Completed {
                        latency_s: late_s + response.latency.as_secs_f64(),
                        batch: response.batch_size,
                    }
                }
                Terminal::Shed { .. } => Outcome::Shed,
                Terminal::Expired { .. } => Outcome::Expired,
                _ => Outcome::Broken,
            });
            tracer.record("server.wait", submitted.submit_end_ns, end_ns, root, op);
            tracer.close(root, end_ns);
        }
    });
    let stages = steady_stages.unwrap_or_else(|| fleet.server.telemetry().stage_breakdown());
    fleet.server.shutdown();

    // Steady: every request should complete. Overload: typed refusals are
    // correct, and only what is answered inside its limit is goodput.
    let mut steady_ms = Timeline::default();
    let mut class_ms: [Vec<f64>; 3] = Default::default();
    let mut good = Timeline::default();
    let mut failed = wrong_outputs;
    let mut steady_missed = 0u64;
    let (mut steady_batch, mut overload_batch) = ((0usize, 0usize), (0usize, 0usize));
    let (mut overload_total, mut overload_shed, mut overload_expired) = (0u64, 0u64, 0u64);
    for (arrival, outcome) in arrivals.iter().zip(&outcomes) {
        let steady = arrival.at_s < steady_s;
        overload_total += u64::from(!steady);
        match outcome {
            Outcome::Completed { latency_s, batch } => {
                let tally = if steady {
                    steady_ms.push(arrival.at_s, latency_s * 1e3);
                    class_ms[arrival.class].push(latency_s * 1e3);
                    &mut steady_batch
                } else {
                    if *latency_s <= CLASSES[arrival.class].2.as_secs_f64() {
                        good.push(arrival.at_s - steady_s, 1.0);
                    }
                    &mut overload_batch
                };
                tally.0 += batch;
                tally.1 += 1;
            }
            Outcome::Shed if !steady => overload_shed += 1,
            Outcome::Expired if !steady => overload_expired += 1,
            // A steady request the server refused or dropped took at
            // least its class's limit. That is a latency, and a bad one,
            // not a wrong answer: on a shared machine a 25 ms stall of
            // the whole process is enough to cause it.
            Outcome::Shed | Outcome::Expired => {
                let limit_ms = CLASSES[arrival.class].2.as_secs_f64() * 1e3;
                steady_ms.push(arrival.at_s, limit_ms);
                class_ms[arrival.class].push(limit_ms);
                steady_missed += 1;
            }
            Outcome::Broken => failed += 1,
        }
    }
    if steady_missed > 0 {
        eprintln!(
            "served_open: {steady_missed} steady requests were shed or expired; each is \
             counted at its class limit"
        );
    }
    if wrong_outputs > 0 {
        eprintln!("served_open: {wrong_outputs} checked outputs were wrong");
    }

    let end_to_end = EndToEnd::new(
        setup_s,
        good.rate_per_s(overload_s),
        &steady_ms.segments(steady_s),
    );

    let mut layers = Vec::new();
    if cfg.traced {
        let mut push = |name: &str, unit: &'static str, value: f64| {
            layers.push(Metric::single(name, unit, value));
        };
        let mut submit_s = tracer.durations_s("request.submit");
        push(
            "request.submit_p50_us",
            "us",
            percentile(&mut submit_s, 50.0) * 1e6,
        );
        push(
            "request.submit_p99_us",
            "us",
            percentile(&mut submit_s, 99.0) * 1e6,
        );
        let share = |n: u64| n as f64 / overload_total.max(1) as f64;
        push("request.shed_share_overload", "ratio", share(overload_shed));
        push(
            "request.expired_share_overload",
            "ratio",
            share(overload_expired),
        );
        let mean = |(sum, n): (usize, usize)| sum as f64 / n.max(1) as f64;
        push("batching.avg_batch_steady", "count", mean(steady_batch));
        push("batching.avg_batch_overload", "count", mean(overload_batch));
        for stage in stages {
            let name = format!(
                "server.stage_{}_mean_us",
                stage.stage.label().replace('-', "_")
            );
            push(&name, "us", stage.mean_ms() * 1e3);
        }
        push(
            "served.interactive_p99_ms",
            "ms",
            percentile(&mut class_ms[0], 99.0),
        );
        push(
            "served.batch_p99_ms",
            "ms",
            percentile(&mut class_ms[2], 99.0),
        );
        push(
            "generator.lateness_p99_us",
            "us",
            percentile(&mut steady_late_s, 99.0) * 1e6,
        );
    }
    Report {
        attempted: arrivals.len() as u64,
        failed,
        end_to_end,
        layers,
        tracer,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_schedule() {
        let a = schedule(7, 2.0, 3.0);
        assert_eq!(a, schedule(7, 2.0, 3.0));
        let b = schedule(8, 2.0, 3.0);
        assert_ne!(a, b, "another seed must give other arrivals");
        assert_ne!(
            a.iter().map(|x| (x.model, x.class)).collect::<Vec<_>>(),
            b.iter().map(|x| (x.model, x.class)).collect::<Vec<_>>(),
            "another seed must give other model and class draws"
        );
    }

    #[test]
    fn the_schedule_follows_the_rates_and_the_mix() {
        let arrivals = schedule(3, 20.0, 30.0);
        assert!(arrivals.windows(2).all(|w| w[0].at_s < w[1].at_s));
        assert!(arrivals.last().expect("non-empty").at_s < 30.0);
        let steady = arrivals.iter().filter(|a| a.at_s < 20.0).count() as f64;
        let overload = arrivals.len() as f64 - steady;
        assert!((steady / 20.0 / STEADY_RPS - 1.0).abs() < 0.05, "{steady}");
        assert!(
            (overload / 10.0 / OVERLOAD_RPS - 1.0).abs() < 0.05,
            "{overload}"
        );
        let n = arrivals.len() as f64;
        for (class, (_, share, _)) in CLASSES.iter().enumerate() {
            let seen = arrivals.iter().filter(|a| a.class == class).count() as f64 / n;
            assert!((seen - share).abs() < 0.02, "class {class}: {seen}");
        }
        let int8 = arrivals.iter().filter(|a| a.model == 1).count() as f64 / n;
        assert!((int8 - 0.5).abs() < 0.02, "{int8}");
    }
}
