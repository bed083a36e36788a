//! Loopback tests of the networked front-end and the shard router:
//! the wire protocol must surface exactly the typed terminals the
//! in-process lifecycle API produces (frozen v1 codes), and the router
//! must retry sheds, survive dead replicas, and expose its counters.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use patdnn_core::prune::pattern_project_network;
use patdnn_nn::models::small_cnn;
use patdnn_serve::batching::BatchPolicy;
use patdnn_serve::compile::compile_network;
use patdnn_serve::engine::{Engine, EngineOptions};
use patdnn_serve::net::{
    http_get, NetClient, NetServer, NetServerConfig, NetServerHandle, PongInfo,
};
use patdnn_serve::registry::ModelRegistry;
use patdnn_serve::request::{AdmissionPolicy, Priority, RETRY_HINT_CEIL, RETRY_HINT_FLOOR};
use patdnn_serve::router::{Router, RouterConfig, RouterHandle, RouterServer};
use patdnn_serve::server::{Server, ServerConfig};
use patdnn_serve::wire::{read_frame, write_frame, write_handshake, Frame};
use patdnn_serve::{ServeError, WireOutcome};
use patdnn_tensor::rng::Rng;
use patdnn_tensor::Tensor;

fn registry_with(name: &str, seed: u64) -> Arc<ModelRegistry> {
    let mut rng = Rng::seed_from(seed);
    let mut net = small_cnn(3, 8, 4, &mut rng);
    pattern_project_network(&mut net, 8, 2.5);
    let artifact = compile_network(name, &net, [3, 8, 8]).expect("compiles");
    let registry = Arc::new(ModelRegistry::new());
    registry.register(
        name,
        Engine::new(artifact, EngineOptions::default()).expect("engine"),
    );
    registry
}

fn input(seed: u64) -> Tensor {
    Tensor::randn(&[1, 3, 8, 8], &mut Rng::seed_from(seed))
}

/// Server whose requests linger in the queue long enough for deadline
/// and cancel races to be deterministic.
fn slow_server(registry: Arc<ModelRegistry>, max_in_flight: usize) -> Server {
    Server::start(
        registry,
        ServerConfig {
            workers: 1,
            batch: BatchPolicy {
                max_batch: 8,
                max_wait: Duration::from_millis(200),
                ..BatchPolicy::default()
            },
            queue_capacity: 64,
            admission: AdmissionPolicy {
                max_in_flight,
                max_per_model: max_in_flight,
            },
            ..ServerConfig::default()
        },
    )
}

/// A remote inference round-trips bit-identically to a direct engine
/// run, over a real TCP socket.
#[test]
fn loopback_inference_matches_direct_engine_run() {
    let registry = registry_with("m", 1);
    let server = Server::start(Arc::clone(&registry), ServerConfig::default());
    let handle = NetServer::bind(server, "127.0.0.1:0", NetServerConfig::default())
        .expect("bind")
        .spawn();

    let x = input(2);
    let want = registry.get("m").expect("model").infer(&x).expect("infer");
    let mut client = NetClient::connect(&handle.addr().to_string()).expect("connect");
    match client
        .infer("m", &x, Priority::Standard, None)
        .expect("wire infer")
    {
        WireOutcome::Completed {
            output,
            latency,
            batch_size,
        } => {
            let bits_want: Vec<u32> = want.data().iter().map(|v| v.to_bits()).collect();
            let bits_got: Vec<u32> = output.data().iter().map(|v| v.to_bits()).collect();
            assert_eq!(bits_want, bits_got, "wire output must be bit-identical");
            assert!(latency > Duration::ZERO);
            assert!(batch_size >= 1);
        }
        other => panic!("expected completion, got {other:?}"),
    }
    // Unknown models fail typed over the wire, with the frozen code.
    match client
        .infer("nope", &x, Priority::Standard, None)
        .expect("wire infer")
    {
        WireOutcome::Rejected(e) => {
            assert!(matches!(e, ServeError::UnknownModel(_)), "got {e:?}");
            assert_eq!(e.code(), ServeError::UnknownModel(String::new()).code());
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    handle.shutdown(true).expect("clean shutdown");
}

/// The satellite parity contract: deadline expiry and cancellation
/// produce the same typed terminals (same v1 codes) over the wire as
/// in-process.
#[test]
fn deadline_and_cancel_terminals_match_in_process() {
    // In-process reference: an aggressive deadline on a slow queue
    // expires before execution; a cancelled token resolves Cancelled.
    let in_process = slow_server(registry_with("m", 3), 64);
    let client = in_process.client();
    let expired_terminal = client
        .request("m")
        .input(input(4))
        .deadline_in(Duration::from_millis(5))
        .submit()
        .expect("submit")
        .wait();
    assert_eq!(expired_terminal.code(), 1, "in-process expiry code");
    let cancel_handle = client
        .request("m")
        .input(input(5))
        .submit()
        .expect("submit");
    cancel_handle.cancel();
    let cancelled_terminal = cancel_handle.wait();
    assert_eq!(cancelled_terminal.code(), 2, "in-process cancel code");
    in_process.shutdown();

    // Same scenarios over the wire.
    let server = slow_server(registry_with("m", 3), 64);
    let handle = NetServer::bind(server, "127.0.0.1:0", NetServerConfig::default())
        .expect("bind")
        .spawn();
    let mut client = NetClient::connect(&handle.addr().to_string()).expect("connect");

    let wire_expired = client
        .infer(
            "m",
            &input(4),
            Priority::Standard,
            Some(Duration::from_millis(5)),
        )
        .expect("wire infer");
    assert_eq!(
        wire_expired.terminal_code(),
        expired_terminal.code(),
        "deadline expiry must carry the same terminal over the wire: {wire_expired:?}"
    );
    match &wire_expired {
        WireOutcome::Rejected(ServeError::Expired { .. }) => {}
        other => panic!("expected typed expiry, got {other:?}"),
    }

    let id = client
        .submit("m", &input(5), Priority::Standard, None)
        .expect("submit");
    client.cancel(id).expect("cancel frame");
    let (got_id, wire_cancelled) = client.recv().expect("response");
    assert_eq!(got_id, id);
    assert_eq!(
        wire_cancelled.terminal_code(),
        cancelled_terminal.code(),
        "cancellation must carry the same terminal over the wire: {wire_cancelled:?}"
    );
    match &wire_cancelled {
        WireOutcome::Rejected(ServeError::Cancelled) => {}
        other => panic!("expected typed cancellation, got {other:?}"),
    }
    handle.shutdown(true).expect("clean shutdown");
}

/// Shed responses cross the wire typed, with a clamped nonzero retry
/// hint (the satellite contract that keeps router retry loops from
/// spinning).
#[test]
fn shed_over_the_wire_carries_clamped_retry_hint() {
    let server = slow_server(registry_with("m", 6), 1);
    let handle = NetServer::bind(server, "127.0.0.1:0", NetServerConfig::default())
        .expect("bind")
        .spawn();
    let mut client = NetClient::connect(&handle.addr().to_string()).expect("connect");

    // First request takes the single in-flight slot and lingers in the
    // 200ms batch window; the second is shed at admission.
    let first = client
        .submit("m", &input(7), Priority::Standard, None)
        .expect("submit");
    let second = client
        .submit("m", &input(8), Priority::Standard, None)
        .expect("submit");
    let (id, outcome) = client.recv().expect("response");
    assert_eq!(id, second, "the shed rejection must come back first");
    match outcome {
        WireOutcome::Rejected(ServeError::Shed { retry_after_hint }) => {
            assert!(
                retry_after_hint >= RETRY_HINT_FLOOR && retry_after_hint <= RETRY_HINT_CEIL,
                "hint {retry_after_hint:?} escaped the clamp band"
            );
        }
        other => panic!("expected typed shed, got {other:?}"),
    }
    let (id, outcome) = client.recv().expect("response");
    assert_eq!(id, first);
    assert!(
        outcome.is_completed(),
        "first request completes: {outcome:?}"
    );
    handle.shutdown(true).expect("clean shutdown");
}

/// The HTTP shim on the wire port: `/healthz` and `/metrics` answer,
/// unknown paths 404, and the metrics reflect served traffic.
#[test]
fn http_shim_serves_metrics_and_healthz() {
    let registry = registry_with("m", 9);
    let server = Server::start(registry, ServerConfig::default());
    let handle = NetServer::bind(server, "127.0.0.1:0", NetServerConfig::default())
        .expect("bind")
        .spawn();
    let addr = handle.addr().to_string();

    let mut client = NetClient::connect(&addr).expect("connect");
    let outcome = client
        .infer("m", &input(10), Priority::Interactive, None)
        .expect("wire infer");
    assert!(outcome.is_completed());

    let health = http_get(&addr, "/healthz").expect("healthz");
    assert!(health.contains("ok models=1"), "got {health:?}");
    let metrics = http_get(&addr, "/metrics").expect("metrics");
    assert!(
        metrics.contains("patdnn_requests_total 1"),
        "served traffic must show up: {metrics:?}"
    );
    assert!(metrics.contains("patdnn_class_requests{class=\"interactive\"} 1"));
    let missing = http_get(&addr, "/nope").expect("request");
    assert!(missing.contains("not found"));
    handle.shutdown(true).expect("clean shutdown");
}

/// Router end-to-end over loopback: a replica at capacity sheds, the
/// router retries on the next replica, and both requests complete.
#[test]
fn router_retries_shed_requests_on_the_next_replica() {
    // Two single-slot replicas over the same model.
    let replica_a = NetServer::bind(
        slow_server(registry_with("m", 11), 1),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind a")
    .spawn();
    let replica_b = NetServer::bind(
        slow_server(registry_with("m", 11), 1),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind b")
    .spawn();

    let router = Arc::new(Router::new(RouterConfig {
        replicas: vec![replica_a.addr().to_string(), replica_b.addr().to_string()],
        ..RouterConfig::default()
    }));
    // Both requests target one model, so both prefer the same replica;
    // the second must be shed there and retried on the other.
    let results: Vec<WireOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|i| {
                let router = Arc::clone(&router);
                scope.spawn(move || {
                    router.route("m", &input(12 + i), Priority::Standard, None, None)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("route"))
            .collect()
    });
    for outcome in &results {
        assert!(outcome.is_completed(), "got {outcome:?}");
    }
    let snap = router.metrics_snapshot();
    assert_eq!(snap.completed, 2);
    assert!(
        snap.shed_retries >= 1,
        "the saturated replica must have caused a retry: {snap:?}"
    );
    assert!(
        snap.replicas.iter().all(|r| r.1 >= 1),
        "both replicas must have served work: {snap:?}"
    );
    replica_a.shutdown(true).expect("drain a");
    replica_b.shutdown(true).expect("drain b");
}

/// A dead replica is retried around, ejected after the configured
/// failures, and the fleet keeps serving; the router front-end port
/// exposes the counters over HTTP.
#[test]
fn router_ejects_dead_replicas_and_keeps_serving() {
    let live = NetServer::bind(
        Server::start(registry_with("m", 13), ServerConfig::default()),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind")
    .spawn();

    // Port 1 is never listening: connects fail fast.
    let router_server = RouterServer::bind(
        Router::new(RouterConfig {
            replicas: vec!["127.0.0.1:1".into(), live.addr().to_string()],
            eject_after: 1,
            cooldown: Duration::from_secs(30),
            connect_timeout: Duration::from_millis(200),
            ..RouterConfig::default()
        }),
        "127.0.0.1:0",
    )
    .expect("bind router");
    let router = router_server.router();
    let handle = router_server.spawn();

    // Route through the router's own wire port, several models so at
    // least one prefers the dead replica first.
    let mut client = NetClient::connect(&handle.addr().to_string()).expect("connect");
    for i in 0..8u64 {
        let outcome = client
            .infer("m", &input(20 + i), Priority::Standard, None)
            .expect("wire infer");
        assert!(outcome.is_completed(), "request {i} got {outcome:?}");
    }
    let snap = router.metrics_snapshot();
    assert_eq!(snap.completed, 8, "{snap:?}");
    // The dead replica is first on the ring for the model or not; in
    // either case no request may fail. If it was preferred, it must now
    // be ejected after one transport failure.
    if snap.transport_retries > 0 {
        assert_eq!(snap.ejections, 1, "{snap:?}");
        assert!(snap.replicas[0].3, "dead replica marked ejected: {snap:?}");
    }

    let metrics = http_get(&handle.addr().to_string(), "/metrics").expect("metrics");
    assert!(
        metrics.contains("patdnn_router_completed_total 8"),
        "got {metrics:?}"
    );
    let health = http_get(&handle.addr().to_string(), "/healthz").expect("healthz");
    assert!(health.contains("ok replicas=2"), "got {health:?}");

    handle.shutdown().expect("router shutdown");
    live.shutdown(true).expect("drain");
}

// ---------------------------------------------------------------------
// Front-end contract: the replica port and the router port are one
// accept/sniff/dispatch loop (`serve::frontend`) over two backends, so
// every wire-level check below runs against both from one body.
// ---------------------------------------------------------------------

/// Which port a front-end check talks to.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Port {
    /// A `NetServer`'s own port.
    Replica,
    /// A `RouterServer` port fronting that `NetServer`.
    Router,
}

const PORTS: [Port; 2] = [Port::Replica, Port::Router];

/// One replica, plus a router in front of it when the router port is
/// the one under test.
struct Fleet {
    replica: NetServerHandle,
    router: Option<RouterHandle>,
}

impl Fleet {
    /// `allow_remote_shutdown` configures the port under test. A replica
    /// behind a router always honors shutdown, so the test can stop it.
    fn start(port: Port, server: Server, allow_remote_shutdown: bool) -> Fleet {
        let replica_cfg = NetServerConfig {
            allow_remote_shutdown: allow_remote_shutdown || port == Port::Router,
        };
        let replica = NetServer::bind(server, "127.0.0.1:0", replica_cfg)
            .expect("bind replica")
            .spawn();
        let router = (port == Port::Router).then(|| {
            let cfg = RouterConfig {
                replicas: vec![replica.addr().to_string()],
                allow_remote_shutdown,
                ..RouterConfig::default()
            };
            RouterServer::bind(Router::new(cfg), "127.0.0.1:0")
                .expect("bind router")
                .spawn()
        });
        Fleet { replica, router }
    }

    /// Address of the port under test.
    fn addr(&self) -> String {
        match &self.router {
            Some(router) => router.addr().to_string(),
            None => self.replica.addr().to_string(),
        }
    }

    /// Drains the port under test and joins its `serve()`; returns the
    /// replica still running behind a router, if any.
    fn shutdown_port(self) -> Option<NetServerHandle> {
        match self.router {
            Some(router) => {
                router.shutdown().expect("router shutdown");
                Some(self.replica)
            }
            None => {
                self.replica.shutdown(true).expect("replica drain");
                None
            }
        }
    }

    fn shutdown(self) {
        if let Some(replica) = self.shutdown_port() {
            replica.shutdown(true).expect("replica drain");
        }
    }
}

/// A wire connection below `NetClient`, for frames it never sends.
fn raw_wire(addr: &str) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write_handshake(&mut stream).expect("handshake");
    stream
}

/// Sends `request` as a connection's first bytes; returns everything
/// the port answers before closing (an HTTP response, status line first).
fn exchange(addr: &str, request: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.write_all(request).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    response
}

#[test]
fn both_ports_serve_bit_identical_outputs_and_report_idle_gauges() {
    for port in PORTS {
        let registry = registry_with("m", 30);
        let server = Server::start(Arc::clone(&registry), ServerConfig::default());
        let fleet = Fleet::start(port, server, true);
        let mut client = NetClient::connect(&fleet.addr()).expect("connect");

        // One model on one replica, nothing in flight: a replica counts
        // its models, a router its replicas and never queues.
        let idle = PongInfo {
            queue_depth: 0,
            in_flight: 0,
            models: 1,
        };
        assert_eq!(client.ping().expect("ping"), idle, "{port:?}");

        let x = input(31);
        let want = registry.get("m").expect("model").infer(&x).expect("infer");
        match client
            .infer("m", &x, Priority::Standard, None)
            .expect("wire")
        {
            WireOutcome::Completed { output, .. } => {
                let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<u32>>();
                assert_eq!(bits(&want), bits(&output), "{port:?}: bit-identical output");
            }
            other => panic!("{port:?}: expected completion, got {other:?}"),
        }
        match client
            .infer("nope", &x, Priority::Standard, None)
            .expect("wire")
        {
            WireOutcome::Rejected(ServeError::UnknownModel(_)) => {}
            other => panic!("{port:?}: expected typed unknown-model, got {other:?}"),
        }
        fleet.shutdown();
    }
}

#[test]
fn both_ports_answer_http_with_a_status_line_or_close_silently() {
    for port in PORTS {
        let server = Server::start(registry_with("m", 32), ServerConfig::default());
        let fleet = Fleet::start(port, server, true);
        let addr = fleet.addr();

        assert!(http_get(&addr, "/healthz")
            .expect("healthz")
            .starts_with("ok "));
        assert!(http_get(&addr, "/metrics")
            .expect("metrics")
            .contains("patdnn_"));
        let missing = exchange(&addr, b"GET /nope HTTP/1.1\r\n\r\n");
        assert!(
            missing.starts_with("HTTP/1.1 404 "),
            "{port:?}: {missing:?}"
        );
        // Regression: non-GET methods used to be dropped with no
        // status line at all.
        for method in ["POST", "HEAD"] {
            let request = format!("{method} /metrics HTTP/1.1\r\n\r\n");
            let refused = exchange(&addr, request.as_bytes());
            assert!(
                refused.starts_with("HTTP/1.1 405 ") && refused.contains("\r\nAllow: GET\r\n"),
                "{port:?}: {method} got {refused:?}"
            );
        }
        // Four bytes that are neither the wire magic nor ASCII: closed
        // without a byte in return.
        let garbage = exchange(&addr, b"\xff\xfe\xfd\xfc");
        assert_eq!(garbage, "", "{port:?}");
        fleet.shutdown();
    }
}

#[test]
fn both_ports_refuse_remote_shutdown_when_configured_and_keep_serving() {
    for port in PORTS {
        let server = Server::start(registry_with("m", 33), ServerConfig::default());
        let fleet = Fleet::start(port, server, false);

        let mut raw = raw_wire(&fleet.addr());
        write_frame(&mut raw, &Frame::Shutdown { drain: true }).expect("shutdown frame");
        match read_frame(&mut raw).expect("answer") {
            Frame::Reject {
                id: 0,
                code,
                message,
                ..
            } => {
                assert_eq!(code, ServeError::Internal(String::new()).code(), "{port:?}");
                assert!(
                    message.contains("remote shutdown disabled"),
                    "{port:?}: {message:?}"
                );
            }
            other => panic!("{port:?}: expected a typed reject, got {other:?}"),
        }
        // The refusing connection and new ones both still serve.
        write_frame(&mut raw, &Frame::Ping { token: 9 }).expect("ping frame");
        assert!(matches!(
            read_frame(&mut raw).expect("pong"),
            Frame::Pong { token: 9, .. }
        ));
        let mut client = NetClient::connect(&fleet.addr()).expect("connect");
        let outcome = client.infer("m", &input(34), Priority::Standard, None);
        assert!(outcome.expect("wire").is_completed(), "{port:?}");

        // A port that refuses remote shutdown has no other stop: it is
        // left to die with the test process. Only a replica behind a
        // refusing router can still be drained.
        if fleet.router.is_some() {
            fleet.replica.shutdown(true).expect("replica drain");
        }
    }
}

#[test]
fn draining_either_port_delivers_every_outstanding_response_first() {
    for port in PORTS {
        let fleet = Fleet::start(port, slow_server(registry_with("m", 35), 64), true);

        // Three requests lingering in the replica's 200ms batch window.
        let mut raw = raw_wire(&fleet.addr());
        for id in 1..=3u64 {
            let frame = Frame::Infer {
                id,
                model: "m".into(),
                priority: Priority::Standard,
                deadline_us: 0,
                input: input(35 + id),
            };
            write_frame(&mut raw, &frame).expect("infer frame");
        }
        // Make sure all three were read before the shutdown frame can
        // overtake them on its own connection.
        write_frame(&mut raw, &Frame::Ping { token: 1 }).expect("ping frame");
        assert!(matches!(
            read_frame(&mut raw).expect("pong"),
            Frame::Pong { .. }
        ));

        let behind = fleet.shutdown_port();
        // `serve()` has returned: the responses must already be in this
        // socket, not merely on their way.
        raw.set_nonblocking(true).expect("nonblocking");
        let mut ids = Vec::new();
        for _ in 0..3 {
            match read_frame(&mut raw) {
                Ok(Frame::Completed { id, .. }) => ids.push(id),
                other => panic!("{port:?}: response not delivered before exit: {other:?}"),
            }
        }
        ids.sort_unstable();
        assert_eq!(ids, [1, 2, 3], "{port:?}");
        if let Some(replica) = behind {
            replica.shutdown(true).expect("replica drain");
        }
    }
}

/// A stand-in replica that accepts one forwarded request, reports its
/// arrival, and hangs up without answering once told to.
fn stalling_replica() -> (String, mpsc::Receiver<()>, mpsc::Sender<()>) {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let (arrived_tx, arrived_rx) = mpsc::channel();
    let (hang_up_tx, hang_up_rx) = mpsc::channel::<()>();
    std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("router dials");
        let mut handshake = [0u8; 6];
        stream.read_exact(&mut handshake).expect("handshake");
        assert!(matches!(read_frame(&mut stream), Ok(Frame::Infer { .. })));
        arrived_tx.send(()).expect("test waits");
        let _ = hang_up_rx.recv();
    });
    (addr, arrived_rx, hang_up_tx)
}

#[test]
fn cancel_reaches_an_in_flight_request_on_either_port() {
    // Replica port: the request lingers in the slow server's batch
    // window, where a cancelled token resolves it `Cancelled`.
    let server = slow_server(registry_with("m", 40), 64);
    let replica = NetServer::bind(server, "127.0.0.1:0", NetServerConfig::default())
        .expect("bind")
        .spawn();
    // Router port: cancellation stops *un-forwarded* attempts, so hold
    // the first attempt at a stalling replica and fail it after the
    // cancel; the router must then give up rather than try the next.
    let (stall_addr, arrived, hang_up) = stalling_replica();
    let router_server = RouterServer::bind(
        Router::new(RouterConfig {
            replicas: vec![stall_addr, "127.0.0.1:1".into()],
            ..RouterConfig::default()
        }),
        "127.0.0.1:0",
    )
    .expect("bind router");
    let router = router_server.router();
    let routed_model = (0..)
        .map(|i| format!("m{i}"))
        .find(|m| router.preference(m)[0] == 0)
        .expect("some model prefers the stalling replica");
    let router_handle = router_server.spawn();

    for port in PORTS {
        let (addr, model) = match port {
            Port::Replica => (replica.addr().to_string(), "m"),
            Port::Router => (router_handle.addr().to_string(), routed_model.as_str()),
        };
        let mut client = NetClient::connect(&addr).expect("connect");
        let id = client
            .submit(model, &input(41), Priority::Standard, None)
            .expect("submit");
        if port == Port::Router {
            arrived.recv().expect("request forwarded");
        }
        client.cancel(id).expect("cancel frame");
        // Frames are handled in order: the pong proves the cancel was.
        client.ping().expect("ping");
        if port == Port::Router {
            hang_up.send(()).expect("stalling replica waits");
        }
        let (got, outcome) = client.recv().expect("response");
        assert_eq!(got, id, "{port:?}");
        assert!(
            matches!(outcome, WireOutcome::Rejected(ServeError::Cancelled)),
            "{port:?}: got {outcome:?}"
        );
    }
    assert_eq!(
        router.metrics_snapshot().forwarded,
        1,
        "cancelled before the second attempt"
    );
    router_handle.shutdown().expect("router shutdown");
    replica.shutdown(true).expect("replica drain");
}

/// Regression: a second `Infer` reusing an in-flight id used to take
/// over the first request's cancel token and produce two responses the
/// client could not tell apart.
#[test]
fn duplicate_in_flight_id_is_rejected_typed_on_either_port() {
    for port in PORTS {
        let fleet = Fleet::start(port, slow_server(registry_with("m", 42), 64), true);
        let mut client = NetClient::connect(&fleet.addr()).expect("connect");
        for seed in [43, 44] {
            client
                .submit_with_id(7, "m", &input(seed), Priority::Standard, None)
                .expect("submit");
        }
        // The first is still in its batch window, so the refusal of the
        // second comes back first — and the first is left untouched.
        let (id, refused) = client.recv().expect("response");
        assert_eq!(id, 7);
        match refused {
            WireOutcome::Rejected(ServeError::Internal(message)) => assert!(
                message.contains("request id 7 already in flight on this connection"),
                "{port:?}: {message:?}"
            ),
            other => panic!("{port:?}: expected a typed reject, got {other:?}"),
        }
        let (id, first) = client.recv().expect("response");
        assert_eq!(id, 7);
        assert!(first.is_completed(), "{port:?}: got {first:?}");
        // The id is free again once its response is out.
        client
            .submit_with_id(7, "m", &input(45), Priority::Standard, None)
            .expect("submit");
        assert!(
            client.recv().expect("response").1.is_completed(),
            "{port:?}"
        );
        fleet.shutdown();
    }
}

/// Regression: `ping` used to discard every frame that was not its
/// pong, losing responses to requests outstanding on the connection.
#[test]
fn ping_keeps_the_responses_it_reads_past() {
    for port in PORTS {
        let server = Server::start(registry_with("m", 46), ServerConfig::default());
        let fleet = Fleet::start(port, server, true);
        let mut client = NetClient::connect(&fleet.addr()).expect("connect");
        // A replica refuses an unknown model from the connection's
        // reader thread, so that reject is on the wire before the pong.
        let id = client
            .submit("nope", &input(47), Priority::Standard, None)
            .expect("submit");
        client.ping().expect("ping");
        let (got, outcome) = client.recv().expect("response survives the ping");
        assert_eq!(got, id, "{port:?}");
        assert!(
            matches!(outcome, WireOutcome::Rejected(ServeError::UnknownModel(_))),
            "{port:?}: got {outcome:?}"
        );
        fleet.shutdown();
    }
}
