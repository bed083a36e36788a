//! The one wire front-end: how a listening port turns connections
//! into typed response frames.
//!
//! [`crate::net::NetServer`] (a replica's `--listen` port) and
//! [`crate::router::RouterServer`] (the `patdnn-router` port) are the
//! same loop: accept, sniff the first four bytes (`PDNW` → binary wire
//! protocol, printable ASCII → the HTTP/1.1 GET shim, anything else →
//! silent close), then per wire connection a handshake, a writer lock,
//! a registry of in-flight cancel tokens, and the
//! `Infer`/`Cancel`/`Ping`/`Shutdown` dispatch with one waiter thread
//! per in-flight request. What differs between the two ports is the
//! [`Backend`]: how one request resolves, what the `Pong` gauges say,
//! and the `/healthz` and `/metrics` bodies.
//!
//! The threading model (thread per connection, thread per in-flight
//! request) lives here and nowhere else, so replacing it with reactor
//! threads is a change to this module only.

use std::collections::hash_map::{Entry, HashMap};
use std::fmt::{Display, Write as _};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown as SockShutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

use patdnn_tensor::Tensor;

use crate::net::{PongInfo, WireOutcome};
use crate::request::{CancelToken, Priority};
use crate::wire::{self, duration_to_us, read_frame, write_frame, Frame, WireError, WIRE_MAGIC};
use crate::ServeError;

/// One `Infer` frame's payload, with the deadline already decoded from
/// the wire's relative-µs form (`0` → `None`).
pub(crate) struct InferRequest {
    pub(crate) model: String,
    pub(crate) priority: Priority,
    pub(crate) deadline: Option<Duration>,
    pub(crate) input: Tensor,
}

/// An accepted request: blocks until its typed outcome is known. Runs
/// on a waiter thread of its own.
pub(crate) type Waiter = Box<dyn FnOnce() -> WireOutcome + Send>;

/// What answers the requests arriving at a port. Two implementations:
/// the local [`crate::request::Client`] and the shard
/// [`crate::router::Router`].
pub(crate) trait Backend: Send + Sync + 'static {
    /// Starts one request. Called on the connection's reader thread and
    /// must not block: an `Err` is answered from that thread with no
    /// waiter spawned; the returned [`Waiter`] may block.
    fn submit(&self, req: InferRequest, cancel: CancelToken) -> Result<Waiter, ServeError>;

    /// The live gauges a `Ping` reports.
    fn gauges(&self) -> PongInfo;

    /// `GET /healthz`: whether the port can serve at all (`false` is a
    /// 503) and the liveness line.
    fn healthz(&self) -> (bool, String);

    /// The `GET /metrics` body.
    fn metrics_text(&self) -> String;
}

/// Counts in-flight response-waiter threads so shutdown can wait for
/// every response to be written before the process exits.
#[derive(Default)]
struct WaitGroup {
    // lock: waitgroup-count
    count: Mutex<usize>,
    zero: Condvar,
}

impl WaitGroup {
    fn add(&self) {
        *self.count.lock().expect("waitgroup lock") += 1;
    }

    fn done(&self) {
        let mut n = self.count.lock().expect("waitgroup lock");
        *n -= 1;
        if *n == 0 {
            self.zero.notify_all();
        }
    }

    fn wait(&self) {
        let mut n = self.count.lock().expect("waitgroup lock");
        while *n > 0 {
            n = self.zero.wait(n).expect("waitgroup lock");
        }
    }
}

/// State shared by every connection handler.
struct Shared {
    backend: Box<dyn Backend>,
    allow_remote_shutdown: bool,
    /// Set by the first honored shutdown frame, to its `drain` flag;
    /// the accept loop exits on the next wake-up.
    stop: OnceLock<bool>,
    waiters: WaitGroup,
    local_addr: SocketAddr,
}

/// A bound dual-protocol port in front of a [`Backend`].
pub(crate) struct Frontend {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Frontend {
    pub(crate) fn bind(
        backend: impl Backend,
        addr: &str,
        allow_remote_shutdown: bool,
    ) -> std::io::Result<Frontend> {
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(Shared {
            backend: Box::new(backend),
            allow_remote_shutdown,
            stop: OnceLock::new(),
            waiters: WaitGroup::default(),
            local_addr: listener.local_addr()?,
        });
        Ok(Frontend { listener, shared })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Accepts connections until a shutdown frame arrives, runs
    /// `after_stop(drain)` (where the backend's own queued work gets
    /// its terminals), then waits until every in-flight response has
    /// been written.
    pub(crate) fn serve(self, after_stop: impl FnOnce(bool)) -> std::io::Result<()> {
        for stream in self.listener.incoming() {
            if self.shared.stop.get().is_some() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let shared = Arc::clone(&self.shared);
            std::thread::spawn(move || handle_connection(stream, &shared));
        }
        after_stop(self.shared.stop.get().copied().unwrap_or(true));
        self.shared.waiters.wait();
        Ok(())
    }
}

/// Sniffs the protocol and dispatches the connection.
fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let _ = stream.set_nodelay(true);
    let mut head = [0u8; 4];
    if stream.read_exact(&mut head).is_err() {
        return;
    }
    if &head == WIRE_MAGIC {
        let _ = wire_connection(stream, shared);
    } else if head.is_ascii() {
        // An HTTP request line ("GET ", "HEAD", ...): hand the already
        // consumed bytes to the shim.
        let _ = http_connection(stream, &head, &*shared.backend);
    }
    // Anything else: drop the connection silently.
}

/// The write half of one wire connection plus the cancel tokens of its
/// in-flight requests, shared with that connection's waiter threads.
struct Conn {
    // lock: net-writer
    writer: Mutex<TcpStream>,
    // lock: net-inflight
    inflight: Mutex<HashMap<u64, CancelToken>>,
}

impl Conn {
    /// Registers `id` as in flight; `None` when it already is.
    fn register(&self, id: u64) -> Option<CancelToken> {
        match self.inflight.lock().expect("inflight lock").entry(id) {
            Entry::Occupied(_) => None,
            Entry::Vacant(slot) => Some(slot.insert(CancelToken::new()).clone()),
        }
    }

    fn write_locked(&self, frame: &Frame) -> Result<(), WireError> {
        let mut guard = self.writer.lock().expect("net writer lock");
        let mut buffered = BufWriter::new(&mut *guard);
        // lock-order: allow(net-writer serializes whole response frames; holding it across the socket write is the point)
        write_frame(&mut buffered, frame)?;
        buffered.flush()?;
        Ok(())
    }
}

/// The binary protocol loop for one connection.
fn wire_connection(stream: TcpStream, shared: &Arc<Shared>) -> Result<(), WireError> {
    let mut reader = BufReader::new(stream.try_clone()?);
    wire::read_handshake_version(&mut reader)?;
    let conn = Arc::new(Conn {
        writer: Mutex::new(stream),
        inflight: Mutex::new(HashMap::new()),
    });
    // A read error means the peer hung up or sent garbage: the
    // connection is done (in-flight requests still resolve; their
    // writes fail harmlessly if the socket is gone).
    while let Ok(frame) = read_frame(&mut reader) {
        match frame {
            Frame::Infer {
                id,
                model,
                priority,
                deadline_us,
                input,
            } => {
                let req = InferRequest {
                    model,
                    priority,
                    deadline: (deadline_us > 0).then(|| Duration::from_micros(deadline_us)),
                    input,
                };
                let Some(cancel) = conn.register(id) else {
                    // Taking over the id would strand the first
                    // request's token and make the two responses
                    // indistinguishable; the first stays untouched.
                    let err = ServeError::Internal(format!(
                        "request id {id} already in flight on this connection"
                    ));
                    let _ = conn.write_locked(&Frame::reject(id, &err));
                    continue;
                };
                match shared.backend.submit(req, cancel) {
                    Ok(wait) => {
                        shared.waiters.add();
                        let shared = Arc::clone(shared);
                        let conn = Arc::clone(&conn);
                        std::thread::spawn(move || {
                            let outcome = wait();
                            conn.inflight.lock().expect("inflight lock").remove(&id);
                            let _ = conn.write_locked(&outcome_frame(id, outcome));
                            shared.waiters.done();
                        });
                    }
                    // Fast-fail path: submission itself refused (unknown
                    // model, shape mismatch, expired-at-submit, shed,
                    // backpressure...).
                    Err(e) => {
                        conn.inflight.lock().expect("inflight lock").remove(&id);
                        let _ = conn.write_locked(&Frame::reject(id, &e));
                    }
                }
            }
            Frame::Cancel { id } => {
                // Clone the token out so the inflight registry lock is
                // released before signalling.
                let token = conn
                    .inflight
                    .lock()
                    .expect("inflight lock")
                    .get(&id)
                    .cloned();
                if let Some(token) = token {
                    token.cancel();
                }
            }
            Frame::Ping { token } => {
                let gauges = shared.backend.gauges();
                conn.write_locked(&Frame::Pong {
                    token,
                    queue_depth: gauges.queue_depth,
                    in_flight: gauges.in_flight,
                    models: gauges.models,
                })?;
            }
            Frame::Shutdown { drain } => {
                if !shared.allow_remote_shutdown {
                    let err = ServeError::Internal("remote shutdown disabled".into());
                    conn.write_locked(&Frame::reject(0, &err))?;
                    continue;
                }
                let _ = shared.stop.set(drain);
                conn.write_locked(&Frame::ShutdownAck)?;
                // Unblock the accept loop so `serve` can proceed past it.
                let _ = TcpStream::connect(shared.local_addr);
                break;
            }
            // Server-originated frames arriving at the server are a
            // protocol violation; drop the connection.
            _ => break,
        }
    }
    Ok(())
}

/// Renders a typed outcome as its response frame.
fn outcome_frame(id: u64, outcome: WireOutcome) -> Frame {
    match outcome {
        WireOutcome::Completed {
            output,
            latency,
            batch_size,
        } => Frame::Completed {
            id,
            latency_us: duration_to_us(latency),
            batch_size: batch_size as u32,
            output,
        },
        WireOutcome::Rejected(e) => Frame::reject(id, &e),
    }
}

// ---------------------------------------------------------------------
// HTTP/1.1 shim
// ---------------------------------------------------------------------

/// Serves one HTTP request (`GET /metrics`, `GET /healthz`) and closes.
/// Every path takes `GET` only, which each response says (a 405 must).
fn http_connection(
    mut stream: TcpStream,
    head: &[u8; 4],
    backend: &dyn Backend,
) -> std::io::Result<()> {
    let Some((method, path)) = read_http_request(&mut stream, head) else {
        return Ok(());
    };
    let (status, body) = match (method.as_str(), path.as_str()) {
        ("GET", "/healthz") => match backend.healthz() {
            (true, body) => ("200 OK", body),
            (false, body) => ("503 Service Unavailable", body),
        },
        ("GET", "/metrics") => ("200 OK", backend.metrics_text()),
        ("GET", _) => ("404 Not Found", "not found\n".to_owned()),
        _ => ("405 Method Not Allowed", "method not allowed\n".to_owned()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nAllow: GET\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()?;
    let _ = stream.shutdown(SockShutdown::Both);
    Ok(())
}

/// Reads the request line + headers; returns `(method, path)`.
fn read_http_request(stream: &mut TcpStream, head: &[u8]) -> Option<(String, String)> {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut buf = head.to_vec();
    let mut byte = [0u8; 1];
    // Read until the blank line ending the header block (bounded so a
    // hostile peer cannot grow the buffer without limit).
    while !buf.ends_with(b"\r\n\r\n") && !buf.ends_with(b"\n\n") && buf.len() < 16 << 10 {
        match stream.read(&mut byte) {
            Ok(1) => buf.push(byte[0]),
            _ => break,
        }
    }
    let text = String::from_utf8_lossy(&buf);
    let mut parts = text.lines().next()?.split_whitespace();
    Some((parts.next()?.to_owned(), parts.next()?.to_owned()))
}

/// The flat Prometheus-style text exposition both `/metrics` bodies
/// use: one `name value` line per gauge or counter.
#[derive(Default)]
pub(crate) struct MetricsText(pub(crate) String);

impl MetricsText {
    pub(crate) fn line(&mut self, name: &str, value: impl Display) {
        let _ = writeln!(self.0, "{name} {value}");
    }

    /// A fractional gauge, to three decimals.
    pub(crate) fn float(&mut self, name: &str, value: f64) {
        self.line(name, format_args!("{value:.3}"));
    }
}
