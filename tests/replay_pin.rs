//! Steps 2–4 replayed outside the sorter, through the public functions the
//! benchmark's stage replay calls (`benchmark/src/layers.rs`), must predict
//! the sorter's own partition. The benchmark refuses a tree where the two
//! diverge (`replay_diverged`); this fails `cargo test` first.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::DEFAULT_BUFFER_BYTES;
use pgxd_core::investigator::splitter_offsets;
use pgxd_core::sampling::{select_regular_samples, select_splitters};
use pgxd_core::{DistSorter, SortConfig};
use pgxd_datagen::{generate_partitioned, Distribution};

const KEY_BYTES: usize = std::mem::size_of::<u64>();

/// Each machine's shard, sorted (what step 1 hands step 2).
fn sorted_shards(shards: &[Vec<u64>]) -> Vec<Vec<u64>> {
    shards
        .iter()
        .map(|keys| {
            let mut data = keys.clone();
            data.sort_unstable();
            data
        })
        .collect()
}

/// Per-machine output sizes as the replay derives them from sorted shards
/// sampled at `budget` keys each, and the number of samples it shipped.
fn replay(sorted: &[Vec<u64>], budget: usize) -> (Vec<usize>, usize) {
    let p = sorted.len();
    let samples: Vec<Vec<u64>> = sorted
        .iter()
        .map(|data| select_regular_samples(data, budget))
        .collect();
    let splitters = select_splitters(&samples, p);
    assert_eq!(splitters.len(), p - 1);
    let offsets: Vec<Vec<usize>> = sorted
        .iter()
        .map(|data| splitter_offsets(data, &splitters, true))
        .collect();
    let sizes = (0..p)
        .map(|dst| offsets.iter().map(|o| o[dst + 1] - o[dst]).sum())
        .collect();
    (sizes, samples.iter().map(Vec::len).sum())
}

#[test]
fn replayed_partition_is_the_sorters() {
    // The floor binds on the first two shapes and not on the third.
    for (machines, shard, dist) in [
        (4usize, 16_384usize, Distribution::Uniform),
        (8, 4096, Distribution::Exponential),
        (4, 262_144, Distribution::Uniform),
    ] {
        let shards = generate_partitioned(dist, machines * shard, machines, 20170529);
        let budget =
            SortConfig::default().samples_per_machine(DEFAULT_BUFFER_BYTES, machines, KEY_BYTES);
        let sizes = Cluster::new(ClusterConfig::new(machines))
            .run(|ctx| DistSorter::default().sort(ctx, shards[ctx.id()].clone()).len())
            .results;
        let (replayed, _) = replay(&sorted_shards(&shards), budget);
        assert_eq!(replayed, sizes, "{machines} x {shard} {}", dist.name());
    }
}

/// `B` batches share the one read buffer the master receives: each batch
/// is budgeted as if the cluster had `p · B` machines, which predicts
/// `sort_batch`'s per-batch partition, and all the samples of all the
/// batches fit one buffer. The shards are large enough that the budget,
/// not the one-in-eight floor, decides the sample.
#[test]
fn sample_budget_is_one_read_buffer_for_any_batch_count() {
    let (machines, batches, shard) = (4usize, 4usize, 8192usize);
    let buffer_bytes = 16 * 1024;
    let inputs: Vec<Vec<Vec<u64>>> = (0..batches)
        .map(|b| {
            generate_partitioned(Distribution::Uniform, machines * shard, machines, 90 + b as u64)
        })
        .collect();
    let budget =
        SortConfig::default().samples_per_machine(buffer_bytes, machines * batches, KEY_BYTES);
    let cluster = Cluster::new(ClusterConfig::new(machines).buffer_bytes(buffer_bytes));
    let sizes = cluster
        .run(|ctx| {
            let locals = inputs.iter().map(|b| b[ctx.id()].clone()).collect();
            let parts = DistSorter::default().sort_batch(ctx, locals);
            parts.iter().map(|part| part.len()).collect::<Vec<_>>()
        })
        .results;
    let mut samples = 0;
    for (b, shards) in inputs.iter().enumerate() {
        let (replayed, shipped) = replay(&sorted_shards(shards), budget);
        let got: Vec<usize> = sizes.iter().map(|per_batch| per_batch[b]).collect();
        assert_eq!(replayed, got, "batch {b} of {batches}");
        samples += shipped;
    }
    let sample_bytes = samples * KEY_BYTES;
    assert!(
        0 < sample_bytes && sample_bytes <= buffer_bytes,
        "B = {batches}: {sample_bytes} B of samples against a {buffer_bytes} B buffer"
    );
}
