//! Concurrent metrics recording: many threads hammer `record_batch`,
//! the lifecycle counters, and `snapshot` simultaneously; every
//! snapshot — mid-flight and final — must be internally consistent
//! (no torn counts, class totals never exceeding the global request
//! counter, ordered percentiles).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;

use patdnn_serve::{Priority, ServerMetrics};

const WRITERS: usize = 8;
const ROUNDS: usize = 200;

/// Each writer round records one batch with one request per priority
/// class, so per-class and global totals are exactly predictable.
fn writer_round(m: &ServerMetrics, round: usize) {
    let d = Duration::from_micros(100 + (round % 50) as u64 * 10);
    m.record_batch(&[
        (Priority::Interactive, d),
        (Priority::Standard, d * 2),
        (Priority::Batch, d * 3),
    ]);
    m.record_batch_exec(d);
    m.record_shed();
    m.record_rejected();
    m.record_expired(1);
    m.record_cancelled(1);
}

/// Invariants that must hold for *any* snapshot, torn or not.
fn assert_consistent(s: &patdnn_serve::MetricsSnapshot) {
    let class_total: u64 = s.classes.iter().map(|c| c.requests).sum();
    // Retained samples can lag the request counter (the counter bumps
    // before the rings fill) but must never exceed it.
    assert!(
        class_total <= s.requests,
        "class totals {class_total} exceed global requests {}",
        s.requests
    );
    assert!(
        s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms,
        "percentiles out of order: p50={} p95={} p99={}",
        s.p50_ms,
        s.p95_ms,
        s.p99_ms
    );
    for c in &s.classes {
        assert!(
            c.p50_ms <= c.p99_ms,
            "{}: class percentiles out of order",
            c.priority.label()
        );
    }
    assert!(s.qps >= 0.0 && s.lifetime_qps >= 0.0);
}

#[test]
fn snapshots_stay_consistent_under_concurrent_recording() {
    let metrics = Arc::new(ServerMetrics::new());
    let done = Arc::new(AtomicBool::new(false));
    // The rendezvous that makes "mid-flight" a fact rather than a
    // scheduling accident: every writer parks here after half its
    // rounds, each reader takes its first snapshot of that half-written
    // state, and a second wait releases them all to race for the rest.
    let halfway = Arc::new(Barrier::new(WRITERS + 2));

    std::thread::scope(|scope| {
        for w in 0..WRITERS {
            let metrics = Arc::clone(&metrics);
            let halfway = Arc::clone(&halfway);
            scope.spawn(move || {
                for round in 0..ROUNDS {
                    if round == ROUNDS / 2 {
                        halfway.wait();
                        halfway.wait();
                    }
                    writer_round(&metrics, w * ROUNDS + round);
                }
            });
        }
        // Two readers snapshot continuously while the writers run.
        for _ in 0..2 {
            let metrics = Arc::clone(&metrics);
            let done = Arc::clone(&done);
            let halfway = Arc::clone(&halfway);
            scope.spawn(move || {
                halfway.wait();
                let mid = metrics.snapshot();
                assert_consistent(&mid);
                assert_eq!(
                    mid.requests,
                    (WRITERS * (ROUNDS / 2) * 3) as u64,
                    "every writer is parked exactly halfway"
                );
                let mut taken = 1u32;
                halfway.wait();
                while !done.load(Ordering::Relaxed) {
                    assert_consistent(&metrics.snapshot());
                    taken += 1;
                }
                assert!(taken > 0, "readers must observe mid-flight state");
            });
        }
        // Writers are the scope's other threads; signal the readers
        // once a final settled snapshot is reachable. (Joining happens
        // at scope exit; flip the flag after writers finish by doing
        // the wait in another thread.)
        let metrics = Arc::clone(&metrics);
        let done_flag = Arc::clone(&done);
        scope.spawn(move || {
            let total = (WRITERS * ROUNDS * 3) as u64;
            // Spin until every writer's records are visible.
            while metrics.snapshot().requests < total {
                std::thread::yield_now();
            }
            done_flag.store(true, Ordering::Relaxed);
        });
    });

    // Final snapshot: every count exact, nothing torn or lost.
    let s = metrics.snapshot();
    let rounds_total = (WRITERS * ROUNDS) as u64;
    assert_eq!(s.requests, rounds_total * 3, "3 requests per round");
    assert_eq!(s.batches, rounds_total);
    assert_eq!(s.shed, rounds_total);
    assert_eq!(s.rejected, rounds_total);
    assert_eq!(s.expired, rounds_total);
    assert_eq!(s.cancelled, rounds_total);
    // Volume stayed under the per-class ring capacity, so the class
    // totals must sum exactly to the global counter.
    let class_total: u64 = s.classes.iter().map(|c| c.requests).sum();
    assert_eq!(class_total, s.requests, "class totals sum to global");
    for c in &s.classes {
        assert_eq!(
            c.requests,
            rounds_total,
            "{}: exact per-class count",
            c.priority.label()
        );
        assert!(c.p50_ms > 0.0);
    }
    assert_consistent(&s);
    // The interactive class recorded strictly faster latencies than
    // batch (d vs 3d): aggregation must keep the classes segregated.
    assert!(
        s.class(Priority::Interactive).mean_ms < s.class(Priority::Batch).mean_ms,
        "per-class streams must not bleed into each other"
    );
}
