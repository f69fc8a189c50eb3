//! Loom model checking for [`pgxd::trace::TraceRing`].
//!
//! Compiled only under `--cfg loom`:
//!
//! ```text
//! RUSTFLAGS="--cfg loom" cargo test --release \
//!     --manifest-path crates/pgxd/modelcheck/Cargo.toml --test loom_trace
//! ```
//!
//! The ring is the one lock-free structure tracing adds, and its seqlock
//! slot protocol (CAS-claimed odd/even versions, Release payload stores)
//! is exactly the kind of ordering argument loom exists to check. The
//! models assert interleaving-independent invariants: no drained event is
//! ever torn (its payload words always agree), accounting never loses an
//! emission, and a drain racing an emit only ever misses events — it
//! never invents or corrupts one.

#![cfg(loom)]

use pgxd::sync::{thread, Arc};
use pgxd::trace::{EventKind, TraceEvent, TraceRing};

/// An event whose payload words are entangled (`b == 1000 - a`), so any
/// torn read — half one write, half another — breaks the relation.
fn ev(a: u64) -> TraceEvent {
    TraceEvent {
        t_ns: a,
        dur_ns: 0,
        machine: 0,
        lane: 0,
        kind: EventKind::ChunkSend,
        a,
        b: 1000 - a,
    }
}

fn assert_coherent(events: &[TraceEvent]) {
    for e in events {
        assert_eq!(e.b, 1000 - e.a, "torn event: a={} b={}", e.a, e.b);
    }
}

/// Two writers race into a two-slot ring: every schedule must drain
/// coherent events and account for both emissions.
#[test]
fn two_racing_emitters_never_tear() {
    loom::model(|| {
        let ring = Arc::new(TraceRing::new(2));
        let handles: Vec<_> = (0..2u64)
            .map(|i| {
                let ring = ring.clone();
                thread::spawn(move || ring.emit(ev(i)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let drained = ring.drain();
        assert_eq!(drained.emitted, 2);
        assert_coherent(&drained.events);
        assert_eq!(drained.events.len() as u64 + drained.dropped(), 2);
    });
}

/// A drain racing a concurrent emit: the drain may miss the in-flight
/// event (counted as dropped for that snapshot) but must never surface a
/// torn or phantom one.
#[test]
fn drain_racing_emit_is_coherent() {
    loom::model(|| {
        let ring = Arc::new(TraceRing::new(2));
        ring.emit(ev(7));
        let writer = {
            let ring = ring.clone();
            thread::spawn(move || ring.emit(ev(8)))
        };
        let drained = ring.drain();
        assert_coherent(&drained.events);
        // The pre-existing event is stable; the racing one may or may not
        // be visible. Nothing else can appear.
        assert!(drained.events.len() <= 2);
        assert!(drained.events.iter().any(|e| e.a == 7) || drained.dropped() > 0);
        writer.join().unwrap();
        // Once quiescent, everything emitted is accounted for.
        let settled = ring.drain();
        assert_eq!(settled.emitted, 2);
        assert_coherent(&settled.events);
        assert_eq!(settled.events.len(), 2);
    });
}

/// Overflow under contention: three emissions race into a one-slot ring.
/// Whatever the schedule, exactly one coherent event survives and the
/// other two are counted dropped.
#[test]
fn contended_overflow_keeps_newest_and_counts_drops() {
    loom::model(|| {
        let ring = Arc::new(TraceRing::new(1));
        ring.emit(ev(1));
        let handles: Vec<_> = (2..4u64)
            .map(|i| {
                let ring = ring.clone();
                thread::spawn(move || ring.emit(ev(i)))
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let drained = ring.drain();
        assert_eq!(drained.emitted, 3);
        assert_coherent(&drained.events);
        assert!(drained.events.len() <= 1);
        assert_eq!(drained.dropped(), 3 - drained.events.len() as u64);
    });
}
