//! Step 1's chunk → task pool → Fig. 2 tree path and step 6's parallel
//! Fig. 2 tree, at worker and machine counts the
//! benchmark does not run: machines × workers × input shape, each against
//! `sort_unstable` on the concatenated input.
//!
//! Step 6 merges one run per machine, so the machine count picks the shape
//! of the tree: 2 is a single pair, 3 and 5 leave an orphan run at the
//! first level, and 5 has as many first-level pairs as two workers (pairs
//! grouped per thread) but fewer than three or four (each merge split).
//!
//! The batch leg sends three unequal batches through the same grid in one
//! `sort_batch`, so every path of the step-1 buffers runs: the first
//! batch's merged buffer, later batches appended to it, a single-chunk
//! batch, the exchange receiving into the first batch's spare, and
//! the one spare buffer step 6 hands from batch to batch (shrinking and
//! growing on the way).

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::trace::{EventKind, TraceConfig};
use pgxd_algos::exec::MIN_ITEMS_PER_WORKER;
use pgxd_algos::merge::PARALLEL_MERGE_CUTOFF;
use pgxd_core::DistSorter;
use pgxd_datagen::{generate_partitioned, Distribution};

/// Keys per machine in the large shapes: four workers each get a chunk
/// worth a task, and both merges are worth splitting.
const SHARD: usize = 5 * MIN_ITEMS_PER_WORKER;
const _: () = assert!(SHARD >= PARALLEL_MERGE_CUTOFF);

#[test]
fn every_machine_and_worker_count_sorts_every_shape() {
    for machines in [2usize, 3, 5] {
        let large = |dist, seed| generate_partitioned(dist, machines * SHARD, machines, seed);
        let mut single = vec![Vec::new(); machines];
        single[0] = vec![42];
        let shapes: [(&str, Vec<Vec<u64>>); 6] = [
            ("uniform", large(Distribution::Uniform, 1)),
            // One hot key claims four slots in five (Fig. 3b's collapse case).
            ("skew storm", large(Distribution::skew_storm(0.8), 2)),
            // Four distinct keys: every splitter is a duplicate.
            (
                "duplicate heavy",
                large(Distribution::duplicate_heavy(4), 3),
            ),
            ("all equal", vec![vec![7; SHARD]; machines]),
            ("empty", vec![Vec::new(); machines]),
            ("single", single),
        ];
        for (name, parts) in &shapes {
            let mut expect = parts.concat();
            expect.sort_unstable();
            for workers in 1..=4 {
                let config = ClusterConfig::new(machines).workers_per_machine(workers);
                let sorter = DistSorter::default();
                let sort = |ctx: &mut pgxd::MachineCtx| sorter.sort(ctx, parts[ctx.id()].clone());
                let what = format!("{name}: {machines} machines, {workers} workers");
                let report = Cluster::new(config).run(|ctx| sort(ctx).data);
                assert_eq!(report.results.concat(), expect, "{what}");
                // The same cell traced: the step-1 merge ran on every
                // machine exactly when there was more than one chunk to
                // merge.
                let traced = config.trace(TraceConfig::enabled());
                let log = Cluster::new(traced)
                    .run(|ctx| {
                        sort(ctx);
                    })
                    .trace
                    .expect("the run was traced");
                assert_eq!(log.dropped, 0, "{what}");
                let chunked = workers > 1 && parts[0].len() == SHARD;
                for m in 0..machines as u32 {
                    let merges = log
                        .events_of_kind(EventKind::SortPhase)
                        .filter(|e| e.machine == m && log.event_name(e) == "local.merge")
                        .count();
                    assert_eq!(merges, usize::from(chunked), "{what}: machine {m}");
                }
            }
        }
    }
}

#[test]
fn every_machine_and_worker_count_sorts_a_batch_of_three() {
    for machines in [2usize, 3, 5] {
        let batch = |dist, per_machine: usize, seed| {
            generate_partitioned(dist, machines * per_machine, machines, seed)
        };
        // Middling first, so the spare it leaves is too small for the
        // second; the third is a single chunk at any worker count.
        let inputs = [
            batch(Distribution::Uniform, 3 * MIN_ITEMS_PER_WORKER, 4),
            batch(Distribution::duplicate_heavy(4), SHARD, 5),
            batch(Distribution::Uniform, 100, 6),
        ];
        for workers in 1..=4 {
            let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(workers));
            let sorter = DistSorter::default();
            let report = cluster.run(|ctx| {
                let locals = inputs.iter().map(|b| b[ctx.id()].clone()).collect();
                sorter.sort_batch(ctx, locals)
            });
            for (b, input) in inputs.iter().enumerate() {
                let mut expect = input.concat();
                expect.sort_unstable();
                let got: Vec<u64> = report
                    .results
                    .iter()
                    .flat_map(|parts| parts[b].data.iter().copied())
                    .collect();
                assert_eq!(
                    got, expect,
                    "batch {b}: {machines} machines, {workers} workers"
                );
            }
        }
    }
}

/// `n` keys of the benchmark's `expdup` shape from `seed`: `⌊−2 ln u⌋ · 1000`
/// for `u` uniform on `(0, 1]`, so a few values hold most keys and several
/// splitters repeat.
fn expdup(n: usize, seed: u64) -> Vec<u64> {
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    (0..n)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let u = ((x >> 11) + 1) as f64 / (1u64 << 53) as f64;
            (-2.0 * u.ln()).floor() as u64 * 1000
        })
        .collect()
}

/// Runs that coalesce and equal-key groups that step 6 copies rather than
/// merges: machines that receive one key value, presorted input (every
/// run of step 1 and step 6 in order) and reverse-sorted input (every
/// run in the wrong order). The output is the gathered `sort_unstable`,
/// and the largest machine's share, the `imbalance` count, is pinned to
/// what the merge tree alone gave.
#[test]
fn runs_in_order_and_equal_key_groups_keep_output_and_balance() {
    let presorted = |machines: usize| -> Vec<Vec<u64>> {
        (0..machines as u64)
            .map(|m| (m * SHARD as u64..(m + 1) * SHARD as u64).collect())
            .collect()
    };
    let reversed = |machines: usize| -> Vec<Vec<u64>> {
        let mut parts = presorted(machines);
        parts.reverse();
        parts.iter_mut().for_each(|part| part.reverse());
        parts
    };
    // (input, workers, largest machine's share)
    let mut cells: Vec<(String, Vec<Vec<u64>>, usize, usize)> = Vec::new();
    for (machines, largest) in [(4usize, 20_480), (8, 20_493)] {
        let parts: Vec<Vec<u64>> = (0..machines).map(|m| expdup(SHARD, 1 + m as u64)).collect();
        for workers in [1, 2] {
            let name = format!("expdup, {machines} machines");
            cells.push((name, parts.clone(), workers, largest));
        }
    }
    for workers in [2, 4] {
        cells.push(("presorted".into(), presorted(4), workers, 20_488));
        cells.push(("reverse-sorted".into(), reversed(4), workers, 20_488));
    }
    for (name, parts, workers, largest) in &cells {
        let machines = parts.len();
        let mut expect = parts.concat();
        expect.sort_unstable();
        let config = ClusterConfig::new(machines).workers_per_machine(*workers);
        let sorter = DistSorter::default();
        let report = Cluster::new(config).run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
        let what = format!("{name}, {workers} workers");
        assert_eq!(report.results.concat(), expect, "{what}");
        let shares: Vec<usize> = report.results.iter().map(Vec::len).collect();
        assert_eq!(shares.iter().max(), Some(largest), "{what}: {shares:?}");
    }
}
