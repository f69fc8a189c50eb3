//! Memtrack-based bound on what an exchange allocates: its output buffers,
//! the bytes it ships, and a small constant per chunk. A chunk's columns
//! are allocated at the size of what it carries, so allocation follows the
//! bytes on the wire, not the number of chunks or the buffer capacity.
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
/// Bytes a chunk may allocate beyond the bytes it is charged: its fabric
/// envelope, and its share of the receive loop's bookkeeping (both
/// buffer sizes below read 150–180).
const PER_CHUNK_BYTES: usize = 320;

/// One round's totals on all machines together.
#[derive(Debug)]
struct Round {
    allocated: usize,
    bytes_sent: usize,
    chunks: usize,
}

/// Runs `1 + MEASURED_ROUNDS` identical all-to-all exchanges inside one
/// cluster at `buffer_bytes` and returns the mean of the measured rounds.
/// The first round warms the fabric's queues and the checker's ledger.
fn measure(buffer_bytes: usize) -> Round {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
    static SENT: AtomicUsize = AtomicUsize::new(0);
    static CHUNKS: AtomicUsize = AtomicUsize::new(0);

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

        let _ = exchange(ctx);
        ctx.barrier();
        let before_alloc = pgxd_memtrack::total_allocated_bytes();
        let before = ctx.comm_summary();
        ctx.barrier();
        for _ in 0..MEASURED_ROUNDS {
            let _ = exchange(ctx);
        }
        ctx.barrier();
        if ctx.is_master() {
            let allocated = pgxd_memtrack::total_allocated_bytes() - before_alloc;
            let comm = ctx.comm_summary().delta_since(&before);
            ALLOCATED.store(allocated, Ordering::SeqCst);
            SENT.store(comm.bytes_sent as usize, Ordering::SeqCst);
            CHUNKS.store(comm.exchange.chunks_sent as usize, Ordering::SeqCst);
        }
        ctx.barrier();
    });
    Round {
        allocated: ALLOCATED.load(Ordering::SeqCst) / MEASURED_ROUNDS,
        bytes_sent: SENT.load(Ordering::SeqCst) / MEASURED_ROUNDS,
        chunks: CHUNKS.load(Ordering::SeqCst) / MEASURED_ROUNDS,
    }
}

#[test]
fn exchange_allocates_its_output_and_what_it_ships() {
    // Every machine's assembled output: the allocation no exchange avoids.
    let out_bytes = P * N_PER_MACHINE * std::mem::size_of::<u64>();
    let bound = |r: &Round| out_bytes + r.bytes_sent + PER_CHUNK_BYTES * r.chunks;

    // 8 KiB buffers: about 1000 keys a chunk, 17 chunks a stream, the last
    // one short. A chunk reserving the whole buffer for its frames would
    // allocate ≈ 8 KiB more for each short chunk than it ships.
    let at_8k = measure(8 * 1024);
    assert!(
        at_8k.allocated <= bound(&at_8k),
        "8 KiB buffers: {at_8k:?} against {out_bytes} B of output \
         (bound {} B)",
        bound(&at_8k)
    );

    // 2 KiB buffers: four times the chunks.
    let at_2k = measure(2 * 1024);
    assert!(
        at_2k.chunks > 3 * at_8k.chunks,
        "{at_2k:?} against {at_8k:?}"
    );
    assert!(
        at_2k.allocated <= bound(&at_2k),
        "2 KiB buffers: {at_2k:?} against {out_bytes} B of output \
         (bound {} B)",
        bound(&at_2k)
    );
    // Four times the chunks leave allocation within 10 % (it read +3 %):
    // it follows the bytes, not the chunk count.
    assert!(
        at_2k.allocated * 10 <= at_8k.allocated * 11,
        "4x the chunks grew allocation from {} to {} B a round",
        at_8k.allocated,
        at_2k.allocated
    );
}
