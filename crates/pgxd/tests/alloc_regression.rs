//! Memtrack-based bound on what an exchange allocates: its output buffers,
//! the bytes it ships, and a small constant per chunk and per stream. A
//! chunk's columns are allocated at the size of what it carries, so
//! allocation follows the bytes on the wire, not the number of chunks or
//! the buffer capacity. And on what an exchange leaves behind: once it is
//! over the fabric holds no more than before it, so the live bytes read
//! at a barrier stay flat however many exchanges one cluster runs.
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
/// envelope, and its share of the receive loop's bookkeeping (the two
/// buffer sizes below differ by 117 B a chunk).
const PER_CHUNK_BYTES: usize = 256;
/// Bytes a stream may allocate beyond its chunks, once an exchange: its
/// send task, its opener's range lengths and its buffer's frame plan
/// (all-equal keys, one chunk a stream, read 835 B with the chunk).
const PER_STREAM_BYTES: usize = 1024;
/// Streams an exchange round ships: one a machine pair.
const STREAMS: usize = P * (P - 1);
/// Exchanges run after the measured ones, each followed by a barrier at
/// which the live bytes are read.
const RETAINED_ROUNDS: usize = 8;
/// Live bytes the last `RETAINED_ROUNDS - 1` of them may add, in all:
/// room for a fabric queue to reach a new high-water mark (it read at
/// most 3.1 KiB), not for a per-round leak (a mailbox that kept an
/// emptied queue for every tag it had parked added 2.3–7.9 KiB a round).
const RETAINED_SLACK_BYTES: isize = 8 * 1024;

/// One round's totals on all machines together.
#[derive(Debug)]
struct Round {
    allocated: usize,
    bytes_sent: usize,
    chunks: usize,
    /// Live bytes at the last retained round's barrier less those at the
    /// first's.
    retained: isize,
}

/// Machine `m`'s `i`-th key, scattered over the whole `u64` range.
fn scattered(m: u64, i: u64) -> u64 {
    i.wrapping_mul(0x9e3779b97f4a7c15) ^ m
}

/// Runs `1 + MEASURED_ROUNDS + RETAINED_ROUNDS` identical all-to-all
/// exchanges of the keys `key(machine, index)` inside one cluster at
/// `buffer_bytes` and returns the mean of the measured rounds, and what
/// the retained rounds left live. The first round warms the fabric's
/// queues.
fn measure(buffer_bytes: usize, key: fn(u64, u64) -> u64) -> Round {
    use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering};
    static ALLOCATED: AtomicUsize = AtomicUsize::new(0);
    static SENT: AtomicUsize = AtomicUsize::new(0);
    static CHUNKS: AtomicUsize = AtomicUsize::new(0);
    static RETAINED: AtomicIsize = AtomicIsize::new(0);

    let cluster = Cluster::new(
        ClusterConfig::new(P)
            .buffer_bytes(buffer_bytes)
            .workers_per_machine(2),
    );
    cluster.run(|ctx| {
        let data: Vec<u64> = (0..N_PER_MACHINE as u64)
            .map(|i| key(ctx.id() as u64, i))
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
        // Every machine is parked in the second barrier while the master
        // reads.
        let mut first_live = None;
        for _ in 0..RETAINED_ROUNDS {
            let _ = exchange(ctx);
            ctx.barrier();
            if ctx.is_master() {
                let live = pgxd_memtrack::current_bytes() as isize;
                let first = *first_live.get_or_insert(live);
                RETAINED.store(live - first, Ordering::SeqCst);
            }
            ctx.barrier();
        }
    });
    Round {
        allocated: ALLOCATED.load(Ordering::SeqCst) / MEASURED_ROUNDS,
        bytes_sent: SENT.load(Ordering::SeqCst) / MEASURED_ROUNDS,
        chunks: CHUNKS.load(Ordering::SeqCst) / MEASURED_ROUNDS,
        retained: RETAINED.load(Ordering::SeqCst),
    }
}

#[test]
fn exchange_allocates_its_output_and_what_it_ships() {
    // Every machine's assembled output: the allocation no exchange avoids.
    let out_bytes = P * N_PER_MACHINE * std::mem::size_of::<u64>();
    let bound = |r: &Round| {
        out_bytes + r.bytes_sent + PER_CHUNK_BYTES * r.chunks + PER_STREAM_BYTES * STREAMS
    };
    let flat = |what: &str, r: &Round| {
        assert!(
            r.retained <= RETAINED_SLACK_BYTES,
            "{what}: {} more exchanges left {} B more live (slack {RETAINED_SLACK_BYTES} B)",
            RETAINED_ROUNDS - 1,
            r.retained
        );
    };

    // 8 KiB buffers: about 1000 keys a chunk, 17 chunks a stream, the last
    // one short. A chunk reserving the whole buffer for its frames would
    // allocate ≈ 8 KiB more for each short chunk than it ships.
    let at_8k = measure(8 * 1024, scattered);
    assert!(
        at_8k.allocated <= bound(&at_8k),
        "8 KiB buffers: {at_8k:?} against {out_bytes} B of output \
         (bound {} B)",
        bound(&at_8k)
    );
    flat("8 KiB buffers", &at_8k);

    // 2 KiB buffers: four times the chunks. An exchange frees its idle
    // inbox's queue buffer, so this row leaves no more live than the
    // 8 KiB one (an inbox that kept its peak read up to 18 KiB here).
    let at_2k = measure(2 * 1024, scattered);
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
    flat("2 KiB buffers", &at_2k);
    // Four times the chunks leave allocation within 10 % (it read +3 %):
    // it follows the bytes, not the chunk count.
    assert!(
        at_2k.allocated * 10 <= at_8k.allocated * 11,
        "4x the chunks grew allocation from {} to {} B a round",
        at_8k.allocated,
        at_2k.allocated
    );

    // All-equal keys: each stream is one 13-byte frame, whatever it holds.
    // A chunk reserving a whole buffer for its frames would allocate
    // ≈ 8 KiB more than it ships.
    let equal = measure(8 * 1024, |_, _| 7);
    assert!(
        equal.allocated <= bound(&equal),
        "all-equal keys: {equal:?} against {out_bytes} B of output \
         (bound {} B)",
        bound(&equal)
    );
    flat("all-equal keys", &equal);
}
