//! The std-only TCP front-end: `patdnn-serve --listen`.
//!
//! A [`NetServer`] binds one TCP port and speaks two protocols,
//! distinguished by sniffing the first bytes of each connection (the
//! accept/sniff/dispatch loop itself is `serve::frontend`, shared with
//! the router's port; this module supplies its local backend):
//!
//! - the binary wire protocol ([`crate::wire`], connections opening
//!   with the `PDNW` magic): inference requests with deadline,
//!   priority, and cancellation mapped straight onto the in-process
//!   [`Client`] lifecycle, so a remote caller sees exactly the typed
//!   terminals an in-process caller does — `Completed`, `Expired`,
//!   `Cancelled`, `Shed { retry_after_hint }` — as frames carrying the
//!   frozen v1 codes;
//! - a minimal HTTP/1.1 shim (connections opening with an ASCII
//!   method): `GET /metrics` returns the serving counters in a flat
//!   Prometheus-style text form, `GET /healthz` a liveness line.
//!
//! One connection can carry many requests concurrently: request ids
//! are client-chosen and echoed back, responses are written under a
//! per-connection writer lock as each request resolves (a dedicated
//! waiter thread per in-flight request blocks on its
//! [`crate::request::ResponseHandle`]). Deadlines arrive as relative
//! budgets and are re-anchored on the server's monotonic clock, so
//! client clock skew cannot expire requests in flight.
//!
//! [`NetClient`] is the matching blocking client — used by the router
//! to forward requests, by the loopback tests, and by anything else
//! that wants typed outcomes ([`WireOutcome`]) over TCP.

use std::collections::VecDeque;
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use patdnn_tensor::Tensor;

use crate::frontend::{Backend, Frontend, InferRequest, MetricsText, Waiter};
use crate::metrics::MetricsSnapshot;
use crate::request::{CancelToken, Client, Priority};
use crate::server::Server;
use crate::wire::{self, duration_to_us, read_frame, write_frame, Frame, WireError};
use crate::ServeError;

/// Network front-end knobs.
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Honor [`Frame::Shutdown`] from peers. On for demo/smoke
    /// deployments (the orchestration harness drains fleets with it);
    /// turn off when the port is exposed beyond the orchestrator.
    pub allow_remote_shutdown: bool,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        NetServerConfig {
            allow_remote_shutdown: true,
        }
    }
}

/// A TCP front-end wrapping a running [`Server`]: the shared
/// `serve::frontend` loop backed by the server's [`Client`].
pub struct NetServer {
    server: Server,
    frontend: Frontend,
}

impl NetServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"`) over a running server.
    pub fn bind(server: Server, addr: &str, cfg: NetServerConfig) -> std::io::Result<NetServer> {
        let frontend = Frontend::bind(server.client(), addr, cfg.allow_remote_shutdown)?;
        Ok(NetServer { server, frontend })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.frontend.local_addr()
    }

    /// Accepts connections until a shutdown frame arrives, then shuts
    /// the inner server down (draining queued work for
    /// `Shutdown { drain: true }`, failing it typed otherwise) and
    /// waits until every in-flight response has been written.
    pub fn serve(self) -> std::io::Result<()> {
        let NetServer { server, frontend } = self;
        // Once the server is down every queued request has a terminal;
        // the front-end then waits for the waiter threads to finish
        // writing them to their sockets.
        frontend.serve(|drain| {
            if drain {
                server.shutdown();
            } else {
                server.shutdown_now();
            }
        })
    }

    /// Runs [`Self::serve`] on a background thread and returns a
    /// handle for tests and embedders.
    pub fn spawn(self) -> NetServerHandle {
        NetServerHandle::spawn(self.local_addr(), move || self.serve())
    }
}

/// Handle to a [`NetServer`] running on a background thread.
pub struct NetServerHandle {
    addr: SocketAddr,
    join: std::thread::JoinHandle<std::io::Result<()>>,
}

impl NetServerHandle {
    /// Runs a front-end's `serve` on a background thread.
    pub(crate) fn spawn(
        addr: SocketAddr,
        serve: impl FnOnce() -> std::io::Result<()> + Send + 'static,
    ) -> NetServerHandle {
        let join = std::thread::spawn(serve);
        NetServerHandle { addr, join }
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sends a shutdown frame (drain or fail-pending) and joins the
    /// serve loop.
    pub fn shutdown(self, drain: bool) -> std::io::Result<()> {
        if let Ok(mut client) = NetClient::connect(&self.addr.to_string()) {
            let _ = client.shutdown(drain);
        }
        self.join.join().expect("front-end thread panicked")
    }
}

/// The local backend: requests map straight onto the in-process
/// lifecycle, so a remote caller sees the terminals a local one does.
impl Backend for Client {
    fn submit(&self, req: InferRequest, cancel: CancelToken) -> Result<Waiter, ServeError> {
        let mut builder = self
            .request(&req.model)
            .input(req.input)
            .priority(req.priority)
            .cancel_token(cancel);
        if let Some(budget) = req.deadline {
            // Relative budget re-anchored on this host's monotonic clock.
            builder = builder.deadline_in(budget);
        }
        let handle = builder.submit()?;
        Ok(Box::new(move || match handle.wait().into_result() {
            Ok(resp) => WireOutcome::Completed {
                output: resp.output,
                latency: resp.latency,
                batch_size: resp.batch_size,
            },
            Err(e) => WireOutcome::Rejected(e),
        }))
    }

    fn gauges(&self) -> PongInfo {
        let snap = self.metrics().snapshot();
        PongInfo {
            queue_depth: snap.queue_depth,
            in_flight: snap.in_flight,
            models: self.models().len() as u32,
        }
    }

    fn healthz(&self) -> (bool, String) {
        let gauges = self.gauges();
        let body = format!(
            "ok models={} in_flight={}\n",
            gauges.models, gauges.in_flight
        );
        (true, body)
    }

    fn metrics_text(&self) -> String {
        render_metrics_text(&self.metrics().snapshot(), self.models().len())
    }
}

/// Flat `name value` exposition of the serving counters (one gauge or
/// counter per line, Prometheus text-format compatible).
fn render_metrics_text(snap: &MetricsSnapshot, models: usize) -> String {
    let mut out = MetricsText::default();
    out.line("patdnn_models", models);
    out.line("patdnn_requests_total", snap.requests);
    out.line("patdnn_batches_total", snap.batches);
    out.line("patdnn_rejected_total", snap.rejected);
    out.line("patdnn_shed_total", snap.shed);
    out.line("patdnn_expired_total", snap.expired);
    out.line("patdnn_cancelled_total", snap.cancelled);
    out.line("patdnn_queue_depth", snap.queue_depth);
    out.line("patdnn_in_flight", snap.in_flight);
    out.float("patdnn_qps", snap.qps);
    out.float("patdnn_latency_p50_ms", snap.p50_ms);
    out.float("patdnn_latency_p99_ms", snap.p99_ms);
    for class in &snap.classes {
        let tag = format!("{{class=\"{}\"}}", class.priority.label());
        out.line(&format!("patdnn_class_requests{tag}"), class.requests);
        out.float(&format!("patdnn_class_latency_p50_ms{tag}"), class.p50_ms);
        out.float(&format!("patdnn_class_latency_p99_ms{tag}"), class.p99_ms);
    }
    out.0
}

// ---------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------

/// The typed outcome a remote request resolves to — the wire-side
/// mirror of [`Terminal`] (`Completed` carries the output; everything
/// else is the typed [`ServeError`] rebuilt from its frozen code).
///
/// [`Terminal`]: crate::request::Terminal
#[derive(Debug)]
#[non_exhaustive]
pub enum WireOutcome {
    /// The request executed; here is its output.
    Completed {
        /// The model output, `[1, ...]`.
        output: Tensor,
        /// Server-side end-to-end latency.
        latency: Duration,
        /// Size of the executed batch this request rode in.
        batch_size: usize,
    },
    /// The request resolved to a typed non-completed terminal.
    Rejected(ServeError),
}

impl WireOutcome {
    /// `true` for [`WireOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, WireOutcome::Completed { .. })
    }

    /// The terminal-state code this outcome corresponds to — equal to
    /// [`Terminal::code`] for the same outcome in-process, which is
    /// what the loopback parity tests assert.
    ///
    /// [`Terminal::code`]: crate::request::Terminal::code
    pub fn terminal_code(&self) -> u16 {
        match self {
            WireOutcome::Completed { .. } => 0,
            WireOutcome::Rejected(ServeError::Expired { .. }) => 1,
            WireOutcome::Rejected(ServeError::Cancelled) => 2,
            WireOutcome::Rejected(ServeError::Shed { .. }) => 3,
            WireOutcome::Rejected(_) => 4,
        }
    }
}

/// Live gauges returned by a ping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PongInfo {
    /// Requests waiting in the remote batch queue.
    pub queue_depth: u64,
    /// Requests holding a remote admission permit.
    pub in_flight: u64,
    /// Models registered on the remote server (a router reports its
    /// replica count here, and a `queue_depth` of 0).
    pub models: u32,
}

/// A blocking client speaking the wire protocol.
///
/// Requests are multiplexed by id, so callers may interleave
/// [`NetClient::submit`] / [`NetClient::recv`]; the convenience
/// [`NetClient::infer`] submits and waits for that id's response.
pub struct NetClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
    /// Frames [`NetClient::ping`] read past while waiting for its
    /// pong, in arrival order; [`NetClient::recv`] takes these first.
    held: VecDeque<Frame>,
}

impl NetClient {
    /// Connects and performs the protocol handshake.
    pub fn connect(addr: &str) -> Result<NetClient, WireError> {
        Self::connect_timeout(addr, Duration::from_secs(5))
    }

    /// Connects with an explicit TCP connect timeout.
    pub fn connect_timeout(addr: &str, timeout: Duration) -> Result<NetClient, WireError> {
        let mut last_err: Option<std::io::Error> = None;
        let addrs = addr.to_socket_addrs().map_err(WireError::Io)?;
        let mut stream = None;
        for candidate in addrs {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => last_err = Some(e),
            }
        }
        let stream = stream.ok_or_else(|| {
            WireError::Io(last_err.unwrap_or_else(|| {
                std::io::Error::new(std::io::ErrorKind::NotFound, "no resolvable address")
            }))
        })?;
        let _ = stream.set_nodelay(true);
        let mut writer = stream.try_clone()?;
        wire::write_handshake(&mut writer)?;
        Ok(NetClient {
            reader: BufReader::new(stream),
            writer,
            next_id: 1,
            held: VecDeque::new(),
        })
    }

    /// Submits one request and returns its id (response read
    /// separately via [`NetClient::recv`]).
    pub fn submit(
        &mut self,
        model: &str,
        input: &Tensor,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<u64, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        self.submit_with_id(id, model, input, priority, deadline)?;
        Ok(id)
    }

    /// Submits with an explicit id (the router reuses upstream ids so
    /// its per-replica connections stay correlated).
    pub fn submit_with_id(
        &mut self,
        id: u64,
        model: &str,
        input: &Tensor,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<(), WireError> {
        self.next_id = self.next_id.max(id + 1);
        let frame = Frame::Infer {
            id,
            model: model.to_owned(),
            priority,
            // `0` is the "no deadline" sentinel on the wire, so a
            // still-live sub-microsecond budget must round up to 1 —
            // truncating it to the sentinel would serve the request
            // deadline-free (the router forwards *remaining* budgets,
            // which legitimately shrink below 1µs).
            deadline_us: deadline.map(|d| duration_to_us(d).max(1)).unwrap_or(0),
            input: input.clone(),
        };
        let mut buffered = BufWriter::new(&mut self.writer);
        write_frame(&mut buffered, &frame)?;
        buffered.flush()?;
        Ok(())
    }

    /// Requests best-effort cancellation of `id`.
    pub fn cancel(&mut self, id: u64) -> Result<(), WireError> {
        write_frame(&mut self.writer, &Frame::Cancel { id })
    }

    /// Blocks for the next response frame, returning `(id, outcome)`.
    pub fn recv(&mut self) -> Result<(u64, WireOutcome), WireError> {
        loop {
            let frame = match self.held.pop_front() {
                Some(frame) => frame,
                None => read_frame(&mut self.reader)?,
            };
            match frame {
                Frame::Completed {
                    id,
                    latency_us,
                    batch_size,
                    output,
                } => {
                    return Ok((
                        id,
                        WireOutcome::Completed {
                            output,
                            latency: Duration::from_micros(latency_us),
                            batch_size: batch_size as usize,
                        },
                    ))
                }
                Frame::Reject {
                    id,
                    code,
                    aux_us,
                    message,
                } => {
                    let err = wire::reject_to_error(code, aux_us, &message)?;
                    return Ok((id, WireOutcome::Rejected(err)));
                }
                // Pongs may interleave with responses when a caller
                // pings over a busy connection.
                Frame::Pong { .. } | Frame::ShutdownAck => continue,
                other => {
                    return Err(WireError::Malformed(format!(
                        "unexpected frame {:#04x} awaiting a response",
                        other.tag()
                    )))
                }
            }
        }
    }

    /// Submits one request and blocks for *its* response (responses to
    /// other outstanding ids arriving first are a protocol error on a
    /// single-threaded connection).
    pub fn infer(
        &mut self,
        model: &str,
        input: &Tensor,
        priority: Priority,
        deadline: Option<Duration>,
    ) -> Result<WireOutcome, WireError> {
        let id = self.submit(model, input, priority, deadline)?;
        let (got, outcome) = self.recv()?;
        if got != id {
            return Err(WireError::Malformed(format!(
                "response id {got} does not match request id {id}"
            )));
        }
        Ok(outcome)
    }

    /// Round-trips a ping, returning the remote gauges. Responses to
    /// outstanding requests that arrive before the pong are held for
    /// the next [`NetClient::recv`].
    pub fn ping(&mut self) -> Result<PongInfo, WireError> {
        let token = 0x50_49_4E_47 ^ self.next_id;
        write_frame(&mut self.writer, &Frame::Ping { token })?;
        loop {
            match read_frame(&mut self.reader)? {
                Frame::Pong {
                    token: got,
                    queue_depth,
                    in_flight,
                    models,
                } if got == token => {
                    return Ok(PongInfo {
                        queue_depth,
                        in_flight,
                        models,
                    })
                }
                other => self.held.push_back(other),
            }
        }
    }

    /// Asks the remote process to shut down and waits for the ack.
    pub fn shutdown(&mut self, drain: bool) -> Result<(), WireError> {
        write_frame(&mut self.writer, &Frame::Shutdown { drain })?;
        loop {
            match read_frame(&mut self.reader) {
                Ok(Frame::ShutdownAck) => return Ok(()),
                // Responses to still-outstanding requests may arrive
                // first; the ack terminates the stream.
                Ok(_) => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// Fetches an HTTP path (e.g. `/metrics`) from a serving or router
/// port, returning the response body. Std-only one-shot GET, shared by
/// the smoke harness and tests.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    stream.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    match response.split_once("\r\n\r\n") {
        Some((_, body)) => Ok(body.to_owned()),
        None => Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "no http header terminator",
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Terminal;

    #[test]
    fn metrics_text_renders_every_counter() {
        let snap = crate::metrics::ServerMetrics::new().snapshot();
        let text = render_metrics_text(&snap, 2);
        for needle in [
            "patdnn_models 2",
            "patdnn_requests_total 0",
            "patdnn_queue_depth 0",
            "patdnn_in_flight 0",
            "patdnn_class_latency_p99_ms{class=\"interactive\"}",
            "patdnn_class_latency_p99_ms{class=\"batch\"}",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    #[test]
    fn wire_outcome_codes_mirror_terminals() {
        let shed = WireOutcome::Rejected(ServeError::Shed {
            retry_after_hint: Duration::from_millis(1),
        });
        assert_eq!(shed.terminal_code(), 3);
        let cancelled = WireOutcome::Rejected(ServeError::Cancelled);
        assert_eq!(cancelled.terminal_code(), 2);
        let expired = WireOutcome::Rejected(ServeError::Expired {
            missed_by: Duration::ZERO,
        });
        assert_eq!(expired.terminal_code(), 1);
        let failed = WireOutcome::Rejected(ServeError::Internal("x".into()));
        assert_eq!(failed.terminal_code(), 4);
        assert!(!failed.is_completed());
        // Codes equal Terminal::code for the same outcomes.
        assert_eq!(Terminal::Cancelled.code(), cancelled.terminal_code());
    }

    #[test]
    fn submit_with_id_advances_the_id_counter() {
        // Pure counter logic (no socket): ids never collide after an
        // explicit id is used.
        let mut next = 1u64;
        for explicit in [5u64, 2, 9] {
            next = next.max(explicit + 1);
        }
        assert_eq!(next, 10);
        let _ = Priority::Standard;
    }
}
