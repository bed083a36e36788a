//! Spans recorded from the benchmark's side of each layer boundary.
//!
//! Nothing inside the program under test is instrumented: a span is the
//! time between calling one of a layer's public functions and getting
//! its result back. Spans live in memory and are written out once the
//! run is over.

use std::fmt::Write as _;
use std::time::Instant;

use crate::json;

/// Parent index of a span that has none (every `op` span).
pub const NO_PARENT: u32 = u32::MAX;

/// The name every per-operation root span carries.
const OP: &str = "op";

/// At most this many spans go into the Chrome-trace file; the per-layer
/// numbers always use every span.
const CHROME_SPAN_LIMIT: usize = 50_000;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Identifier shared by every span of one operation.
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span sink. Switched off it records nothing, and every
/// call is one branch.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Self {
        Tracer {
            on,
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty tracer on the same clock, for another thread to fill
    /// and hand back to [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.on, self.origin)
    }

    /// Nanoseconds from the origin to `at`.
    pub fn ns_at(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        op: u64,
    ) -> u32 {
        if !self.on {
            return NO_PARENT;
        }
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    /// Opens the root span of operation `op`; [`Tracer::close`] ends it.
    pub fn open(&mut self, start_ns: u64, op: u64) -> u32 {
        self.record(OP, start_ns, start_ns, NO_PARENT, op)
    }

    pub fn close(&mut self, id: u32, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        op: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = self.ns_at(Instant::now());
        let out = f();
        let end = self.ns_at(Instant::now());
        self.record(name, start, end, parent, op);
        out
    }

    /// Appends another thread's spans, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += offset;
            }
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / 1e9)
            .collect()
    }
}

/// Self time of every span: its duration minus the part of it that its
/// direct children cover (overlapping children are counted once, and a
/// child is clipped to its parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(list) = children.get_mut(span.parent as usize) {
            list.push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

/// Share of all `op` time that child spans cover (1 − self ÷ duration).
pub fn op_coverage(spans: &[Span]) -> f64 {
    let self_ns = self_times_ns(spans);
    let (mut total, mut own) = (0u64, 0u64);
    for (span, own_ns) in spans.iter().zip(self_ns) {
        if span.parent == NO_PARENT {
            total += span.dur_ns();
            own += own_ns;
        }
    }
    if total == 0 {
        0.0
    } else {
        1.0 - own as f64 / total as f64
    }
}

/// The spans as a Chrome-trace (`chrome://tracing`, Perfetto) JSON
/// array of complete events.
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, span) in spans.iter().take(CHROME_SPAN_LIMIT).enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        // Operations of the open-loop workload overlap; spreading them
        // over a few lanes keeps the viewer's nesting intact.
        let _ = write!(
            out,
            "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"op\":{},\"parent\":{}}}}}",
            json::quote(span.name),
            span.op % 16,
            span.start_ns as f64 / 1e3,
            span.dur_ns() as f64 / 1e3,
            span.op,
            if span.parent == NO_PARENT {
                -1
            } else {
                i64::from(span.parent)
            },
        );
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer() -> Tracer {
        Tracer::new(true, Instant::now())
    }

    #[test]
    fn self_time_with_nested_and_adjacent_children() {
        let mut t = tracer();
        let op = t.open(0, 1);
        // Two adjacent children, then a gap, then one with a grandchild.
        let a = t.record("a", 10, 30, op, 1);
        t.record("b", 30, 50, op, 1);
        let c = t.record("c", 60, 90, op, 1);
        t.record("c.inner", 65, 75, c, 1);
        t.close(op, 100);
        let own = self_times_ns(t.spans());
        assert_eq!(own[op as usize], 100 - 20 - 20 - 30);
        assert_eq!(own[a as usize], 20);
        assert_eq!(own[c as usize], 20, "grandchild is charged to c only");
        assert!((op_coverage(t.spans()) - 0.70).abs() < 1e-9);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        let mut t = tracer();
        let op = t.open(100, 7);
        t.record("x", 110, 150, op, 7);
        t.record("y", 140, 160, op, 7);
        // Starts before and ends after the parent: clipped to it.
        t.record("z", 190, 250, op, 7);
        t.close(op, 200);
        assert_eq!(self_times_ns(t.spans())[op as usize], 100 - 50 - 10);
    }

    #[test]
    fn a_switched_off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let op = t.open(0, 1);
        assert_eq!(op, NO_PARENT);
        assert_eq!(t.time("x", op, 1, || 5), 5);
        t.close(op, 10);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let mut a = tracer();
        let op_a = a.open(0, 1);
        a.record("k", 1, 2, op_a, 1);
        let mut b = tracer();
        let op_b = b.open(5, 2);
        b.record("k", 6, 7, op_b, 2);
        a.absorb(b);
        let spans = a.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[3].parent, 2);
        assert_eq!(spans[2].parent, NO_PARENT);
        assert_eq!(a.durations_s("k").len(), 2);
    }

    #[test]
    fn chrome_trace_is_a_json_array_of_complete_events() {
        let mut t = tracer();
        let op = t.open(1_000, 3);
        t.record("engine.infer", 1_500, 2_500, op, 3);
        t.close(op, 3_000);
        let doc = json::parse(&chrome_json(t.spans())).expect("parses");
        let events = doc.as_arr().expect("array");
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1].get("name").and_then(json::Json::as_str),
            Some("engine.infer")
        );
        assert_eq!(events[1].get("dur").and_then(json::Json::as_f64), Some(1.0));
        assert_eq!(
            events[1]
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(json::Json::as_f64),
            Some(0.0)
        );
    }
}
