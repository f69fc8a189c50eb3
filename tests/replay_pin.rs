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

/// Per-machine output sizes as the replay derives them from sorted shards.
fn replayed_sizes(sorted: &[Vec<u64>]) -> Vec<usize> {
    let p = sorted.len();
    let budget = SortConfig::default().samples_per_machine(
        DEFAULT_BUFFER_BYTES,
        p,
        std::mem::size_of::<u64>(),
    );
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
    (0..p)
        .map(|dst| offsets.iter().map(|o| o[dst + 1] - o[dst]).sum())
        .collect()
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
        let sorted: Vec<Vec<u64>> = shards
            .iter()
            .map(|keys| {
                let mut data = keys.clone();
                data.sort_unstable();
                data
            })
            .collect();
        let sizes = Cluster::new(ClusterConfig::new(machines))
            .run(|ctx| DistSorter::default().sort(ctx, shards[ctx.id()].clone()).len())
            .results;
        assert_eq!(replayed_sizes(&sorted), sizes, "{machines} x {shard} {}", dist.name());
    }
}
