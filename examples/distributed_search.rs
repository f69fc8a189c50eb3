//! The query API on top of a finished sort: distributed binary search
//! (global rank of a key), point location, and top-k / bottom-k — the
//! "retrieving top values ... or implementing binary search on the sorted
//! data" capabilities §III promises.
//!
//! ```text
//! cargo run --release --example distributed_search
//! ```

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_core::api::{bottom_k, global_rank, top_k, GlobalIndex};
use pgxd_core::DistSorter;
use pgxd_datagen::{generate_partitioned, Distribution};

fn main() {
    let machines = 4;
    let n = 500_000;
    let shards = generate_partitioned(Distribution::Normal, n, machines, 7);
    let probe: u64 = shards[0][0]; // some key that definitely exists

    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
    let sorter = DistSorter::default();

    let report = cluster.run(|ctx| {
        let part = sorter.sort(ctx, shards[ctx.id()].clone());

        // Replicated index: every machine learns all ranges and counts.
        let index = GlobalIndex::build(ctx, &part);
        let holders = index.machines_containing(&probe);

        // Exact global rank via one collective.
        let (rank_lo, rank_hi) = global_rank(ctx, &part, &probe);

        // Extremes (delivered on the master).
        let top = top_k(ctx, &part, 5);
        let bottom = bottom_k(ctx, &part, 5);

        (holders, rank_lo, rank_hi, top, bottom)
    });

    let (holders, rank_lo, rank_hi, top, bottom) = &report.results[0];
    println!("probe key {probe}:");
    println!("  held by machine(s) {holders:?}");
    println!(
        "  global rank range [{rank_lo}, {rank_hi}) — {} duplicates",
        rank_hi - rank_lo
    );
    println!("  top-5 keys:    {:?}", top.as_ref().unwrap());
    println!("  bottom-5 keys: {:?}", bottom.as_ref().unwrap());

    // Verify against a flat sort.
    let mut flat: Vec<u64> = shards.concat();
    flat.sort_unstable();
    assert_eq!(*rank_lo, flat.partition_point(|&x| x < probe));
    assert_eq!(*rank_hi, flat.partition_point(|&x| x <= probe));
    println!("\nverified against a flat std sort of all {n} keys.");
}
