//! Step 1's chunk → task pool → parallel k-way merge → pooled buffer path
//! and every step-6 merge, at worker counts the benchmark does not run:
//! workers × [`FinalMergeAlgo`] × input shape, each against
//! `sort_unstable` on the concatenated input.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::metrics::labeled;
use pgxd_algos::exec::MIN_ITEMS_PER_WORKER;
use pgxd_algos::merge::PARALLEL_MERGE_CUTOFF;
use pgxd_core::{DistSorter, FinalMergeAlgo, SortConfig};
use pgxd_datagen::{generate_partitioned, Distribution};

const MACHINES: usize = 2;
/// Keys per machine in the large shapes: four workers each get a chunk
/// worth a task, and the merge of those chunks is worth splitting.
const SHARD: usize = 5 * MIN_ITEMS_PER_WORKER;
const _: () = assert!(SHARD >= PARALLEL_MERGE_CUTOFF);

#[test]
fn every_worker_count_and_final_merge_sorts_every_shape() {
    let large = |dist, seed| generate_partitioned(dist, MACHINES * SHARD, MACHINES, seed);
    let shapes: [(&str, Vec<Vec<u64>>); 6] = [
        ("uniform", large(Distribution::Uniform, 1)),
        // One hot key claims four slots in five (Fig. 3b's collapse case).
        ("skew storm", large(Distribution::skew_storm(0.8), 2)),
        // Four distinct keys: every splitter is a duplicate.
        (
            "duplicate heavy",
            large(Distribution::duplicate_heavy(4), 3),
        ),
        ("all equal", vec![vec![7; SHARD]; MACHINES]),
        ("empty", vec![Vec::new(); MACHINES]),
        ("single", vec![vec![42], Vec::new()]),
    ];
    let merges = [
        FinalMergeAlgo::Balanced,
        FinalMergeAlgo::SequentialKway,
        FinalMergeAlgo::ParallelKway,
    ];
    let merge_phase = labeled("pgxd_sort_phase_ns", &[("phase", "local.merge")]);
    for (name, parts) in &shapes {
        let mut expect = parts.concat();
        expect.sort_unstable();
        for workers in 1..=4 {
            for merge in merges {
                let cluster =
                    Cluster::new(ClusterConfig::new(MACHINES).workers_per_machine(workers));
                let sorter = DistSorter::new(SortConfig::default().final_merge(merge));
                let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
                let what = format!("{name}: {workers} workers, {} final merge", merge.name());
                assert_eq!(report.results.concat(), expect, "{what}");
                // The step-1 merge ran on every machine exactly when there
                // was more than one chunk to merge.
                let merged = report
                    .metrics
                    .histogram(&merge_phase)
                    .map_or(0, |h| h.count);
                let chunked = workers > 1 && parts[0].len() == SHARD;
                assert_eq!(merged, if chunked { MACHINES as u64 } else { 0 }, "{what}");
            }
        }
    }
}
