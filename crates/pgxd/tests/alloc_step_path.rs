//! The uninstrumented step path allocates nothing: with tracing off,
//! `ctx.step` records one duration into a timer entry
//! that already exists and `phase_scope` only runs its closure, so a warm
//! machine can cross any number of steps without touching the heap.
//!
//! This binary installs the tracking allocator globally, so the count
//! includes every machine thread. One `#[test]`: the counters are
//! process-global. The window is fenced by `ctx.barrier()`, so its
//! quiescence check is held to zero bytes too.

use std::sync::atomic::{AtomicUsize, Ordering};

use pgxd::cluster::{Cluster, ClusterConfig};

#[global_allocator]
static GLOBAL: pgxd_memtrack::TrackingAlloc = pgxd_memtrack::TrackingAlloc;

const P: usize = 4;
const STEPS: usize = 1000;

#[test]
fn warm_steps_and_phase_scopes_allocate_nothing() {
    let before = AtomicUsize::new(0);
    let after = AtomicUsize::new(0);
    Cluster::new(ClusterConfig::new(P)).run(|ctx| {
        // Warm-up: the timer's entry for "s" exists from here on.
        ctx.step("s", |c| c.phase_scope("p", || ()));
        ctx.barrier();
        if ctx.is_master() {
            before.store(pgxd_memtrack::total_allocated_bytes(), Ordering::SeqCst);
        }
        ctx.barrier();
        for _ in 0..STEPS {
            ctx.step("s", |c| c.phase_scope("p", || ()));
        }
        ctx.barrier();
        if ctx.is_master() {
            after.store(pgxd_memtrack::total_allocated_bytes(), Ordering::SeqCst);
        }
    });
    let grown = after.load(Ordering::SeqCst) - before.load(Ordering::SeqCst);
    assert_eq!(grown, 0, "{P} machines x {STEPS} steps allocated {grown} B");
}
