//! The sort's buffer discipline as a number: a warm sort allocates one
//! receive buffer per machine and little else. Step 6 merges between that
//! buffer and the spent one step 1 left behind, so there is no third
//! `n/p`-sized allocation — a scratch copy of the received data would put
//! the total at `2 × n × 8` B and past the budgets below.
//!
//! Two inputs. All-equal keys, which the investigator splits evenly: every
//! machine receives exactly its input length and the spare is never short.
//! And distinct keys, which the sampled splitters split only nearly evenly:
//! some machines receive a few keys more than they sent, so step 6's spare
//! is a few keys short of what it merges and must be merged through as it
//! is, not regrown.
//!
//! This binary installs the tracking allocator globally, so what it
//! measures includes every machine thread. The counters are process-global:
//! all measurements live in one `#[test]`.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::fault::mix64;
use pgxd_core::DistSorter;

#[global_allocator]
static GLOBAL: pgxd_memtrack::TrackingAlloc = pgxd_memtrack::TrackingAlloc;

const P: usize = 4;
const N_PER_MACHINE: usize = 256 * 1024; // u64 keys
const WARMUPS: usize = 2;
const KEY: usize = std::mem::size_of::<u64>();

/// One warm sort, as the master saw it.
struct WarmSort {
    /// Bytes the whole cluster allocated during the sort.
    allocated: usize,
    /// Bytes the whole cluster handed to the fabric during the sort.
    bytes_sent: usize,
    /// Keys each machine received.
    received: Vec<usize>,
}

/// The `i`-th of machine `id`'s keys, all of them equal.
fn equal(_id: usize, _i: usize) -> u64 {
    7
}

/// The `i`-th of machine `id`'s keys, all of them distinct.
fn distinct(id: usize, i: usize) -> u64 {
    mix64((i * P + id) as u64)
}

/// One `DistSorter::sort` of `key(id, i)` on every machine, after
/// `WARMUPS` identical sorts.
fn warm_sort(workers: usize, key: fn(usize, usize) -> u64) -> WarmSort {
    let cluster = Cluster::new(ClusterConfig::new(P).workers_per_machine(workers));
    let sorter = DistSorter::default();
    let report = cluster.run(|ctx| {
        let id = ctx.id();
        let input = || (0..N_PER_MACHINE).map(|i| key(id, i)).collect::<Vec<u64>>();
        for _ in 0..WARMUPS {
            let _ = sorter.sort(ctx, input());
        }
        let local = input();
        // Nobody allocates or sends between these two barriers, so any
        // machine's reading is the cluster's; the master's is the one used.
        ctx.barrier();
        let before = pgxd_memtrack::total_allocated_bytes();
        let sent_before = ctx.comm_summary().bytes_sent;
        ctx.barrier();
        let part = sorter.sort(ctx, local);
        ctx.barrier();
        let allocated = pgxd_memtrack::total_allocated_bytes() - before;
        let bytes_sent = ctx.comm_summary().bytes_sent - sent_before;
        (allocated, bytes_sent as usize, part.len())
    });
    let (allocated, bytes_sent, _) = report.results[0];
    WarmSort {
        allocated,
        bytes_sent,
        received: report.results.iter().map(|r| r.2).collect(),
    }
}

#[test]
fn a_warm_sort_allocates_one_receive_buffer_per_machine() {
    let key_bytes = P * N_PER_MACHINE * KEY;
    let check = |what: &str, workers: usize, allocated: usize, budget: usize| {
        assert!(
            allocated >= key_bytes,
            "{what}, {workers} worker(s): {allocated} B is less than the receive buffers alone \
             — is the tracking allocator installed?"
        );
        assert!(
            allocated <= budget,
            "{what}, {workers} worker(s): a warm sort of {key_bytes} B of keys allocated \
             {allocated} B, budget {budget} B (one receive buffer per machine; a second \
             n/p-sized buffer anywhere in the pipeline, or a spare regrown to what a machine \
             received, breaks it)"
        );
    };
    for workers in [1, 2] {
        let sort = warm_sort(workers, equal);
        assert_eq!(
            sort.received,
            vec![N_PER_MACHINE; P],
            "every machine must receive what it sent"
        );
        let budget = key_bytes + key_bytes / 4 + (2 << 20);
        check("equal keys", workers, sort.allocated, budget);

        let sort = warm_sort(workers, distinct);
        assert_eq!(sort.received.iter().sum::<usize>(), P * N_PER_MACHINE);
        assert!(
            sort.received.iter().any(|&r| r > N_PER_MACHINE),
            "some machine must receive more than it sent: {:?}",
            sort.received
        );
        // With two workers step 1 leaves a spent buffer of the input's
        // length, which step 5 regrows to what a machine receives when that
        // is more: one exact-length buffer per such machine.
        let step5_growth: usize = match workers {
            1 => 0,
            _ => sort
                .received
                .iter()
                .filter(|&&r| r > N_PER_MACHINE)
                .map(|r| r * KEY)
                .sum(),
        };
        let budget = key_bytes + sort.bytes_sent + key_bytes / 4 + (2 << 20) + step5_growth;
        check("distinct keys", workers, sort.allocated, budget);
    }
}
