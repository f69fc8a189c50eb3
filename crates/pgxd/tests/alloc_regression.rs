//! Memtrack-based regression test for the exchange pipeline: once the
//! chunk pool is warm, an exchange's allocation churn is dominated by its
//! (unavoidable) output buffer — chunk backing stores circulate through
//! the pool instead of being reallocated, so steady-state churn does not
//! grow with the chunk count.
//!
//! This binary installs the tracking allocator globally, so everything it
//! measures includes the cluster's machine threads. All measurements live
//! in one `#[test]` — the counters are process-global.

use pgxd::cluster::{Cluster, ClusterConfig};

#[global_allocator]
static GLOBAL: pgxd_memtrack::TrackingAlloc = pgxd_memtrack::TrackingAlloc;

const P: usize = 4;
const N_PER_MACHINE: usize = 64 * 1024; // u64 keys
const MEASURED_ROUNDS: usize = 4;

/// Runs `1 + MEASURED_ROUNDS` identical all-to-all exchanges inside one
/// cluster (so the pool stays warm across rounds) and returns
/// `(steady_state_churn_bytes, pool_hits, pool_misses)`, where churn is
/// the cumulative allocation of the measured rounds on all machines and
/// the hit/miss counters are deltas over the same window.
fn measure(buffer_bytes: usize) -> (usize, u64, u64) {
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    static CHURN: AtomicUsize = AtomicUsize::new(0);
    static HITS: AtomicU64 = AtomicU64::new(0);
    static MISSES: AtomicU64 = AtomicU64::new(0);

    let cluster = Cluster::new(
        ClusterConfig::new(P)
            .buffer_bytes(buffer_bytes)
            .workers_per_machine(2),
    );
    cluster.run(|ctx| {
        let data: Vec<u64> = (0..N_PER_MACHINE as u64)
            .map(|i| i.wrapping_mul(0x9e3779b97f4a7c15) ^ ctx.id() as u64)
            .collect();
        // Even split across machines.
        let per_dst = N_PER_MACHINE / P;
        let offsets: Vec<usize> = (0..=P).map(|j| j * per_dst).collect();
        let exchange = |ctx: &mut pgxd::MachineCtx| ctx.exchange(&data, &offsets);

        // Warm-up round fills the pool (all misses land here).
        let _ = exchange(ctx);
        ctx.barrier();
        let before_alloc = pgxd_memtrack::total_allocated_bytes();
        let before_ex = ctx.comm_summary().exchange;
        ctx.barrier();
        for _ in 0..MEASURED_ROUNDS {
            let _ = exchange(ctx);
        }
        ctx.barrier();
        if ctx.is_master() {
            CHURN.store(
                pgxd_memtrack::total_allocated_bytes() - before_alloc,
                Ordering::SeqCst,
            );
            let ex = ctx.comm_summary().exchange.delta_since(&before_ex);
            HITS.store(ex.pool_hits, Ordering::SeqCst);
            MISSES.store(ex.pool_misses, Ordering::SeqCst);
        }
        ctx.barrier();
    });
    (
        CHURN.load(std::sync::atomic::Ordering::SeqCst),
        HITS.load(std::sync::atomic::Ordering::SeqCst),
        MISSES.load(std::sync::atomic::Ordering::SeqCst),
    )
}

#[test]
fn steady_state_exchange_allocation_is_pooled_and_chunk_count_independent() {
    // Unavoidable per-round allocation: every machine's assembled output.
    // A fresh backing store per chunk would allocate every shipped key a
    // second time (≥ 1.75× the output at P = 4), so the 1.4× budget below
    // only holds while chunks come from the pool.
    let out_bytes_per_round = P * N_PER_MACHINE * std::mem::size_of::<u64>();
    let budget = |factor: f64| (out_bytes_per_round as f64 * factor) as usize;

    // 8 KiB buffers: 1024 keys per chunk.
    let (churn_8k, hits, misses) = measure(8 * 1024);
    let per_round_8k = churn_8k / MEASURED_ROUNDS;
    assert!(
        per_round_8k < budget(1.4),
        "pooled exchange churns {per_round_8k} B/round, expected < {} B \
         (output-dominated; chunk buffers must come from the pool)",
        budget(1.4)
    );

    // With a warm pool, acquires are served from recycled buffers.
    let total = hits + misses;
    assert!(total > 0, "exchange recorded no pool activity");
    assert!(
        hits as f64 / total as f64 > 0.8,
        "steady-state pool hit rate {hits}/{total} below 80%"
    );

    // 2 KiB buffers: 4× the chunk count must not change steady-state
    // churn materially — allocation is per-exchange, not per-chunk.
    let (churn_2k, _, _) = measure(2 * 1024);
    let per_round_2k = churn_2k / MEASURED_ROUNDS;
    assert!(
        per_round_2k < budget(1.4),
        "4x chunk count grew steady-state churn to {per_round_2k} B/round"
    );
}
