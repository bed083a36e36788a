//! The shard router: `patdnn-router`.
//!
//! A [`Router`] fronts a fleet of `patdnn-serve --listen` replica
//! processes and shards requests by *model name* with consistent
//! hashing (FNV-1a over virtual nodes, so adding or removing a replica
//! moves only `1/replicas` of the key space). Each replica gets:
//!
//! - **in-flight accounting** reusing the serving-tier
//!   [`AdmissionPolicy`] — the router refuses to hold more than the
//!   configured number of outstanding requests per replica (and per
//!   model on that replica), shedding locally instead of piling onto a
//!   saturated process;
//! - **retry-on-shed**: a replica answering `Shed` (or an admission
//!   refusal, or a transport failure) sends the request to the next
//!   replica in the model's preference order, with the remaining
//!   deadline budget shrunk by the time already burned;
//! - **health ejection**: `eject_after` consecutive transport failures
//!   take a replica out of rotation for `cooldown`; the first probe
//!   after cooldown readmits it on success or re-ejects on failure.
//!
//! The router speaks the same wire protocol as a replica on its own
//! listen port (plus the `/metrics` and `/healthz` HTTP shim), so
//! clients cannot tell a router from a single replica — the typed
//! terminals and frozen v1 codes are identical.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use patdnn_tensor::Tensor;

use crate::frontend::{Backend, Frontend, InferRequest, MetricsText, Waiter};
use crate::net::{NetClient, NetServerHandle, PongInfo, WireOutcome};
use crate::request::{AdmissionControl, AdmissionPolicy, CancelToken, Priority, RETRY_HINT_FLOOR};
use crate::wire::WireError;
use crate::ServeError;

/// Router knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Replica addresses (`host:port`), each a `patdnn-serve --listen`.
    pub replicas: Vec<String>,
    /// Virtual nodes per replica on the hash ring.
    pub vnodes: usize,
    /// Replicas tried per request before giving up (walks the model's
    /// preference order). Clamped to the replica count.
    pub max_attempts: usize,
    /// Outstanding-request bounds the router enforces *per replica*
    /// (total and per model), reusing the serving-tier policy type.
    pub replica_policy: AdmissionPolicy,
    /// Consecutive transport failures before a replica is ejected.
    pub eject_after: u32,
    /// How long an ejected replica stays out of rotation before the
    /// next probe.
    pub cooldown: Duration,
    /// TCP connect timeout when dialing a replica.
    pub connect_timeout: Duration,
    /// Honor [`crate::wire::Frame::Shutdown`] on the router's own
    /// listen port.
    pub allow_remote_shutdown: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            replicas: Vec::new(),
            vnodes: 64,
            max_attempts: usize::MAX,
            replica_policy: AdmissionPolicy::default(),
            eject_after: 3,
            cooldown: Duration::from_secs(2),
            connect_timeout: Duration::from_secs(2),
            allow_remote_shutdown: true,
        }
    }
}

/// FNV-1a 64-bit with a Murmur3 finalizer — stable and
/// dependency-free. Raw FNV-1a avalanches poorly on short, similar
/// keys (vnode names differ only in their suffix), which visibly
/// unbalances the ring; the finalizer fixes the high-bit spread.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// Per-replica health state.
struct Health {
    consecutive_failures: u32,
    /// When set, the replica is ejected until this instant.
    ejected_until: Option<Instant>,
}

struct Replica {
    addr: String,
    /// Idle connections to this replica (checked out per request,
    /// returned on success, dropped on failure).
    // lock: replica-pool
    pool: Mutex<Vec<NetClient>>,
    /// Router-side in-flight accounting for this replica.
    admission: Arc<AdmissionControl>,
    // lock: replica-health
    health: Mutex<Health>,
    /// Lifetime requests forwarded to this replica.
    forwarded: AtomicU64,
}

/// Monotonic counters the router exposes on `/metrics`.
#[derive(Default)]
struct RouterMetrics {
    forwarded: AtomicU64,
    completed: AtomicU64,
    rejected: AtomicU64,
    shed_retries: AtomicU64,
    transport_retries: AtomicU64,
    exhausted: AtomicU64,
    ejections: AtomicU64,
    readmissions: AtomicU64,
}

/// Point-in-time router counters (see [`Router::metrics_snapshot`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterMetricsSnapshot {
    /// Requests forwarded to a replica (attempts, so retries count).
    pub forwarded: u64,
    /// Requests that resolved `Completed`.
    pub completed: u64,
    /// Requests that resolved to a typed rejection (any non-completed
    /// terminal returned to the client).
    pub rejected: u64,
    /// Retries caused by a replica shedding (remote `Shed` response or
    /// the router's own per-replica admission refusing).
    pub shed_retries: u64,
    /// Retries caused by a transport failure (connect/read/write).
    pub transport_retries: u64,
    /// Requests that ran out of replicas to try.
    pub exhausted: u64,
    /// Replicas taken out of rotation for consecutive failures.
    pub ejections: u64,
    /// Ejected replicas brought back by a successful probe.
    pub readmissions: u64,
    /// Per-replica `(addr, forwarded, in_flight, ejected)` rows.
    pub replicas: Vec<(String, u64, usize, bool)>,
}

/// The shard router core: routing table + per-replica state. Wrap in
/// an [`Arc`] and call [`Router::route`] from any thread; the listen
/// front-end is [`RouterServer`].
pub struct Router {
    cfg: RouterConfig,
    replicas: Vec<Replica>,
    /// Sorted `(hash, replica index)` ring.
    ring: Vec<(u64, usize)>,
    metrics: RouterMetrics,
}

impl Router {
    /// Builds the routing table. Connections are dialed lazily on
    /// first use, so replicas may come up after the router.
    pub fn new(cfg: RouterConfig) -> Router {
        assert!(
            !cfg.replicas.is_empty(),
            "router needs at least one replica"
        );
        assert!(cfg.vnodes > 0, "vnodes must be positive");
        let replicas: Vec<Replica> = cfg
            .replicas
            .iter()
            .map(|addr| Replica {
                addr: addr.clone(),
                pool: Mutex::new(Vec::new()),
                admission: AdmissionControl::new(cfg.replica_policy, None),
                health: Mutex::new(Health {
                    consecutive_failures: 0,
                    ejected_until: None,
                }),
                forwarded: AtomicU64::new(0),
            })
            .collect();
        let mut ring = Vec::with_capacity(replicas.len() * cfg.vnodes);
        for (idx, replica) in replicas.iter().enumerate() {
            for v in 0..cfg.vnodes {
                ring.push((fnv1a(format!("{}#{v}", replica.addr).as_bytes()), idx));
            }
        }
        ring.sort_unstable();
        Router {
            cfg,
            replicas,
            ring,
            metrics: RouterMetrics::default(),
        }
    }

    /// Replica indices in preference order for `model`: walk the ring
    /// clockwise from the model's hash, keeping first occurrences.
    pub fn preference(&self, model: &str) -> Vec<usize> {
        let h = fnv1a(model.as_bytes());
        let start = self.ring.partition_point(|&(vh, _)| vh < h);
        let mut order = Vec::with_capacity(self.replicas.len());
        let mut seen = vec![false; self.replicas.len()];
        for i in 0..self.ring.len() {
            let (_, idx) = self.ring[(start + i) % self.ring.len()];
            if !seen[idx] {
                seen[idx] = true;
                order.push(idx);
                if order.len() == self.replicas.len() {
                    break;
                }
            }
        }
        order
    }

    /// Routes one request: tries the model's preferred replicas in
    /// order, retrying on shed / admission refusal / transport failure,
    /// shrinking the deadline budget by time already burned. Returns
    /// the typed outcome the client sees.
    pub fn route(
        &self,
        model: &str,
        input: &Tensor,
        priority: Priority,
        deadline: Option<Duration>,
        cancel: Option<&CancelToken>,
    ) -> WireOutcome {
        let started = Instant::now();
        let mut best_hint: Option<Duration> = None;
        let mut attempts = 0usize;
        for &idx in self.preference(model).iter() {
            if attempts >= self.cfg.max_attempts.max(1) {
                break;
            }
            if let Some(token) = cancel {
                if token.is_cancelled() {
                    self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    return WireOutcome::Rejected(ServeError::Cancelled);
                }
            }
            // A request whose budget is spent must not be forwarded:
            // "zero expired requests execute" holds across the fleet.
            let remaining = match deadline {
                None => None,
                Some(budget) => {
                    let elapsed = started.elapsed();
                    if elapsed >= budget {
                        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                        return WireOutcome::Rejected(ServeError::Expired {
                            missed_by: elapsed - budget,
                        });
                    }
                    Some(budget - elapsed)
                }
            };
            let replica = &self.replicas[idx];
            if !self.replica_available(replica) {
                continue;
            }
            // Per-replica in-flight accounting: hold a permit for the
            // whole round trip; refusal is a local shed → next replica.
            let Some(_permit) = replica.admission.try_admit(model) else {
                self.metrics.shed_retries.fetch_add(1, Ordering::Relaxed);
                best_hint = Some(best_hint.unwrap_or(RETRY_HINT_FLOOR).max(RETRY_HINT_FLOOR));
                attempts += 1;
                continue;
            };
            attempts += 1;
            replica.forwarded.fetch_add(1, Ordering::Relaxed);
            self.metrics.forwarded.fetch_add(1, Ordering::Relaxed);
            match self.forward(replica, model, input, priority, remaining) {
                Ok(WireOutcome::Rejected(ServeError::Shed { retry_after_hint })) => {
                    self.metrics.shed_retries.fetch_add(1, Ordering::Relaxed);
                    best_hint = Some(match best_hint {
                        Some(h) => h.max(retry_after_hint),
                        None => retry_after_hint,
                    });
                    self.mark_success(replica);
                }
                Ok(outcome) => {
                    self.mark_success(replica);
                    if outcome.is_completed() {
                        self.metrics.completed.fetch_add(1, Ordering::Relaxed);
                    } else {
                        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
                    }
                    return outcome;
                }
                Err(_) => {
                    self.metrics
                        .transport_retries
                        .fetch_add(1, Ordering::Relaxed);
                    self.mark_failure(replica);
                }
            }
        }
        // Every replica shed, failed, or was ejected: the fleet is
        // saturated. Surface a typed shed with the largest hint any
        // replica quoted (clamped to the floor so callers never spin).
        self.metrics.exhausted.fetch_add(1, Ordering::Relaxed);
        self.metrics.rejected.fetch_add(1, Ordering::Relaxed);
        WireOutcome::Rejected(ServeError::Shed {
            retry_after_hint: best_hint.unwrap_or(RETRY_HINT_FLOOR).max(RETRY_HINT_FLOOR),
        })
    }

    /// One forwarding attempt over a pooled connection.
    fn forward(
        &self,
        replica: &Replica,
        model: &str,
        input: &Tensor,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<WireOutcome, WireError> {
        // Pop in its own statement: a match scrutinee's guard temporary
        // lives for the whole match, which would hold the pool lock
        // across the TCP connect below and stall every other request
        // targeting this replica while a dead host times out.
        let pooled = replica.pool.lock().expect("router pool lock").pop();
        let mut conn = match pooled {
            Some(conn) => conn,
            None => NetClient::connect_timeout(&replica.addr, self.cfg.connect_timeout)?,
        };
        match conn.infer(model, input, priority, deadline) {
            Ok(outcome) => {
                replica.pool.lock().expect("router pool lock").push(conn);
                Ok(outcome)
            }
            // Drop the (possibly poisoned) connection on any error.
            Err(e) => Err(e),
        }
    }

    /// Whether the replica is in rotation (not ejected, or its
    /// cooldown has elapsed and it may take a probe).
    fn replica_available(&self, replica: &Replica) -> bool {
        let health = replica.health.lock().expect("router health lock");
        match health.ejected_until {
            None => true,
            Some(until) => Instant::now() >= until,
        }
    }

    fn mark_success(&self, replica: &Replica) {
        let mut health = replica.health.lock().expect("router health lock");
        if health.ejected_until.is_some() {
            self.metrics.readmissions.fetch_add(1, Ordering::Relaxed);
        }
        health.consecutive_failures = 0;
        health.ejected_until = None;
    }

    fn mark_failure(&self, replica: &Replica) {
        let mut health = replica.health.lock().expect("router health lock");
        health.consecutive_failures += 1;
        if health.consecutive_failures >= self.cfg.eject_after {
            if health.ejected_until.is_none() {
                self.metrics.ejections.fetch_add(1, Ordering::Relaxed);
            }
            // (Re-)eject: failed probes push the window out again.
            health.ejected_until = Some(Instant::now() + self.cfg.cooldown);
        }
    }

    /// Point-in-time counters, including per-replica rows.
    pub fn metrics_snapshot(&self) -> RouterMetricsSnapshot {
        let m = &self.metrics;
        RouterMetricsSnapshot {
            forwarded: m.forwarded.load(Ordering::Relaxed),
            completed: m.completed.load(Ordering::Relaxed),
            rejected: m.rejected.load(Ordering::Relaxed),
            shed_retries: m.shed_retries.load(Ordering::Relaxed),
            transport_retries: m.transport_retries.load(Ordering::Relaxed),
            exhausted: m.exhausted.load(Ordering::Relaxed),
            ejections: m.ejections.load(Ordering::Relaxed),
            readmissions: m.readmissions.load(Ordering::Relaxed),
            replicas: self
                .replicas
                .iter()
                .map(|r| {
                    let ejected = {
                        let h = r.health.lock().expect("router health lock");
                        h.ejected_until.is_some_and(|until| Instant::now() < until)
                    };
                    (
                        r.addr.clone(),
                        r.forwarded.load(Ordering::Relaxed),
                        r.admission.in_flight(),
                        ejected,
                    )
                })
                .collect(),
        }
    }

    /// Asks every reachable replica to shut down (drain or
    /// fail-pending). Used by the smoke harness for clean fleet drain.
    pub fn shutdown_replicas(&self, drain: bool) {
        for replica in &self.replicas {
            if let Ok(mut conn) =
                NetClient::connect_timeout(&replica.addr, self.cfg.connect_timeout)
            {
                let _ = conn.shutdown(drain);
            }
        }
    }
}

/// Flat text exposition of the router counters (same shape as the
/// replica `/metrics`).
fn render_router_metrics(snap: &RouterMetricsSnapshot) -> String {
    let mut out = MetricsText::default();
    out.line("patdnn_router_forwarded_total", snap.forwarded);
    out.line("patdnn_router_completed_total", snap.completed);
    out.line("patdnn_router_rejected_total", snap.rejected);
    out.line("patdnn_router_shed_retries_total", snap.shed_retries);
    out.line(
        "patdnn_router_transport_retries_total",
        snap.transport_retries,
    );
    out.line("patdnn_router_exhausted_total", snap.exhausted);
    out.line("patdnn_router_ejections_total", snap.ejections);
    out.line("patdnn_router_readmissions_total", snap.readmissions);
    for (addr, forwarded, in_flight, ejected) in &snap.replicas {
        let tag = format!("{{replica=\"{addr}\"}}");
        out.line(&format!("patdnn_router_replica_forwarded{tag}"), forwarded);
        out.line(&format!("patdnn_router_replica_in_flight{tag}"), in_flight);
        out.line(
            &format!("patdnn_router_replica_ejected{tag}"),
            u8::from(*ejected),
        );
    }
    out.0
}

/// The routed backend: every request is a blocking [`Router::route`]
/// on its waiter thread; nothing is refused on the reader thread.
impl Backend for Arc<Router> {
    fn submit(&self, req: InferRequest, cancel: CancelToken) -> Result<Waiter, ServeError> {
        let router = Arc::clone(self);
        // Cancellation is best-effort: it stops un-forwarded attempts;
        // a request already at a replica resolves there normally.
        Ok(Box::new(move || {
            router.route(
                &req.model,
                &req.input,
                req.priority,
                req.deadline,
                Some(&cancel),
            )
        }))
    }

    /// The router queues nothing itself (`queue_depth` 0) and reports
    /// its replica count where a replica reports its model count.
    fn gauges(&self) -> PongInfo {
        let snap = self.metrics_snapshot();
        PongInfo {
            queue_depth: 0,
            in_flight: snap.replicas.iter().map(|r| r.2 as u64).sum(),
            models: snap.replicas.len() as u32,
        }
    }

    fn healthz(&self) -> (bool, String) {
        let snap = self.metrics_snapshot();
        let replicas = snap.replicas.len();
        let healthy = snap.replicas.iter().filter(|r| !r.3).count();
        let body = format!("ok replicas={replicas} healthy={healthy}\n");
        (healthy > 0, body)
    }

    fn metrics_text(&self) -> String {
        render_router_metrics(&self.metrics_snapshot())
    }
}

/// The router's listen front-end — the same `serve::frontend` loop
/// as [`crate::net::NetServer`], backed by [`Router::route`] instead of
/// a local engine.
pub struct RouterServer {
    router: Arc<Router>,
    frontend: Frontend,
}

impl RouterServer {
    /// Binds `addr` over a routing table.
    pub fn bind(router: Router, addr: &str) -> std::io::Result<RouterServer> {
        let router = Arc::new(router);
        let frontend = Frontend::bind(Arc::clone(&router), addr, router.cfg.allow_remote_shutdown)?;
        Ok(RouterServer { router, frontend })
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    /// Shared handle to the routing core (metrics, fleet shutdown).
    pub fn router(&self) -> Arc<Router> {
        Arc::clone(&self.router)
    }

    /// Accepts connections until a shutdown frame arrives, then waits
    /// for in-flight forwards to finish writing their responses. Stops
    /// the front-end only, whatever the frame's `drain` flag; replicas
    /// are drained separately (see [`Router::shutdown_replicas`]).
    pub fn serve(self) -> std::io::Result<()> {
        self.frontend.serve(|_drain| {})
    }

    /// Runs [`Self::serve`] on a background thread.
    pub fn spawn(self) -> RouterHandle {
        RouterHandle {
            router: self.router(),
            inner: NetServerHandle::spawn(self.local_addr(), move || self.serve()),
        }
    }
}

/// Handle to a [`RouterServer`] running on a background thread.
pub struct RouterHandle {
    router: Arc<Router>,
    inner: NetServerHandle,
}

impl RouterHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr()
    }

    /// Shared handle to the routing core.
    pub fn router(&self) -> Arc<Router> {
        Arc::clone(&self.router)
    }

    /// Sends a shutdown frame to the router's own port and joins.
    pub fn shutdown(self) -> std::io::Result<()> {
        self.inner.shutdown(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_router(addrs: &[&str]) -> Router {
        Router::new(RouterConfig {
            replicas: addrs.iter().map(|s| s.to_string()).collect(),
            cooldown: Duration::from_millis(50),
            eject_after: 2,
            ..RouterConfig::default()
        })
    }

    #[test]
    fn preference_is_deterministic_and_covers_all_replicas() {
        let router = test_router(&["10.0.0.1:7000", "10.0.0.2:7000", "10.0.0.3:7000"]);
        for model in ["vgg16", "resnet50", "tinyconv", "fc-only"] {
            let a = router.preference(model);
            let b = router.preference(model);
            assert_eq!(a, b, "preference order must be deterministic");
            assert_eq!(a.len(), 3, "order must cover every replica");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2], "order must be a permutation");
        }
    }

    #[test]
    fn hashing_spreads_models_across_replicas() {
        let router = test_router(&["a:1", "b:1", "c:1", "d:1"]);
        let mut first_choice = [0usize; 4];
        for i in 0..256 {
            let model = format!("model-{i}");
            first_choice[router.preference(&model)[0]] += 1;
        }
        for (idx, &count) in first_choice.iter().enumerate() {
            assert!(
                count > 16,
                "replica {idx} owns {count}/256 keys — ring is badly unbalanced: {first_choice:?}"
            );
        }
    }

    #[test]
    fn consistent_hashing_moves_few_keys_when_a_replica_joins() {
        let three = test_router(&["a:1", "b:1", "c:1"]);
        let four = test_router(&["a:1", "b:1", "c:1", "d:1"]);
        let mut moved = 0usize;
        let total = 512usize;
        for i in 0..total {
            let model = format!("model-{i}");
            let before = three.preference(&model)[0];
            let after = four.preference(&model)[0];
            // Replica indices 0..=2 name the same addresses in both.
            if after != 3 && after != before {
                moved += 1;
            }
        }
        // Perfect consistent hashing moves 0 keys among the surviving
        // replicas; allow a little slack for vnode boundary effects.
        assert!(
            moved < total / 8,
            "{moved}/{total} keys moved between surviving replicas"
        );
    }

    #[test]
    fn ejection_and_readmission_track_consecutive_failures() {
        let router = test_router(&["127.0.0.1:1", "127.0.0.1:2"]);
        let replica = &router.replicas[0];
        assert!(router.replica_available(replica));
        router.mark_failure(replica);
        assert!(
            router.replica_available(replica),
            "one failure is tolerated"
        );
        router.mark_failure(replica);
        assert!(
            !router.replica_available(replica),
            "eject_after=2 failures ejects"
        );
        assert_eq!(router.metrics_snapshot().ejections, 1);
        // Cooldown elapses → probe allowed; a success readmits.
        std::thread::sleep(Duration::from_millis(60));
        assert!(router.replica_available(replica), "cooldown elapsed: probe");
        router.mark_success(replica);
        assert!(router.replica_available(replica));
        let snap = router.metrics_snapshot();
        assert_eq!(snap.readmissions, 1);
        assert!(!snap.replicas[0].3, "replica no longer marked ejected");
    }

    #[test]
    fn unreachable_fleet_sheds_typed_with_clamped_hint() {
        // Ports in the reserved range: connects fail fast, the router
        // must surface a typed shed whose hint is at least the floor.
        let router = Router::new(RouterConfig {
            replicas: vec!["127.0.0.1:1".into(), "127.0.0.1:9".into()],
            connect_timeout: Duration::from_millis(100),
            ..RouterConfig::default()
        });
        let input = Tensor::from_vec(&[1, 4], vec![0.0; 4]).expect("tensor");
        let outcome = router.route("m", &input, Priority::Standard, None, None);
        match outcome {
            WireOutcome::Rejected(ServeError::Shed { retry_after_hint }) => {
                assert!(retry_after_hint >= RETRY_HINT_FLOOR);
            }
            other => panic!("expected typed shed, got {other:?}"),
        }
        let snap = router.metrics_snapshot();
        assert_eq!(snap.exhausted, 1);
        assert!(snap.transport_retries >= 2, "both replicas were tried");
    }

    #[test]
    fn router_metrics_text_renders_counters_and_replica_rows() {
        let router = test_router(&["a:1", "b:1"]);
        let text = render_router_metrics(&router.metrics_snapshot());
        for needle in [
            "patdnn_router_forwarded_total 0",
            "patdnn_router_shed_retries_total 0",
            "patdnn_router_replica_ejected{replica=\"a:1\"} 0",
            "patdnn_router_replica_in_flight{replica=\"b:1\"} 0",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }
}
