//! The sort's buffer discipline as a number: a warm sort allocates one
//! receive buffer per machine and little else. Step 6 merges between that
//! buffer and the spent one step 1 left behind, so there is no third
//! `n/p`-sized allocation — a scratch copy of the received data would put
//! the total at `2 × n × 8` B and past the budget below.
//!
//! The input is all-equal keys, which the investigator splits evenly: every
//! machine receives exactly its input length, the spare never has to grow,
//! and `realloc` accounting stays out of the measurement.
//!
//! This binary installs the tracking allocator globally, so what it
//! measures includes every machine thread. The counters are process-global:
//! all measurements live in one `#[test]`.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_core::DistSorter;

#[global_allocator]
static GLOBAL: pgxd_memtrack::TrackingAlloc = pgxd_memtrack::TrackingAlloc;

const P: usize = 4;
const N_PER_MACHINE: usize = 256 * 1024; // u64 keys
const WARMUPS: usize = 2;

/// Bytes the whole cluster allocates during one `DistSorter::sort`, after
/// `WARMUPS` identical sorts.
fn warm_sort_allocation(workers: usize) -> usize {
    let cluster = Cluster::new(ClusterConfig::new(P).workers_per_machine(workers));
    let sorter = DistSorter::default();
    let report = cluster.run(|ctx| {
        let input = || vec![7u64; N_PER_MACHINE];
        for _ in 0..WARMUPS {
            let _ = sorter.sort(ctx, input());
        }
        let local = input();
        // Nobody allocates between these two barriers, so any machine's
        // reading is the cluster's; the master's is the one returned.
        ctx.barrier();
        let before = pgxd_memtrack::total_allocated_bytes();
        ctx.barrier();
        let part = sorter.sort(ctx, local);
        ctx.barrier();
        let allocated = pgxd_memtrack::total_allocated_bytes() - before;
        assert_eq!(
            part.len(),
            N_PER_MACHINE,
            "machine {} must receive what it sent",
            ctx.id()
        );
        allocated
    });
    report.results[0]
}

#[test]
fn a_warm_sort_allocates_one_receive_buffer_per_machine() {
    let key_bytes = P * N_PER_MACHINE * std::mem::size_of::<u64>();
    let budget = key_bytes + key_bytes / 4 + (2 << 20);
    for workers in [1, 2] {
        let allocated = warm_sort_allocation(workers);
        assert!(
            allocated >= key_bytes,
            "{workers} worker(s): {allocated} B is less than the receive buffers alone — \
             is the tracking allocator installed?"
        );
        assert!(
            allocated <= budget,
            "{workers} worker(s): a warm sort of {key_bytes} B of keys allocated {allocated} B, \
             budget {budget} B (one receive buffer per machine; a second n/p-sized buffer \
             anywhere in the pipeline breaks it)"
        );
    }
}
