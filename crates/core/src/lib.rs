//! # Load-balanced distributed sample sort (the PGX.D sorting library)
//!
//! This crate is the reproduction of the paper's contribution: a
//! distributed sample sort that stays load-balanced even on datasets with
//! many duplicated entries, built on the PGX.D-style runtime in the
//! [`pgxd`] crate.
//!
//! The three mechanisms from the paper:
//!
//! - **Balanced merging** (§IV-A, Fig. 2) — the final merge combines the
//!   `p` received runs pairwise in a power-of-two tree whose merges all run
//!   in parallel and always combine near-equal runs (implemented in
//!   [`pgxd_algos::merge`]). The local sort merges its per-worker runs in
//!   one k-way pass instead, cut into equal parts at exact co-ranks.
//! - **Buffer-sized sampling** (§IV-B) — every machine sends exactly
//!   `256 KiB / p` of regular samples to the master, so the master always
//!   receives one read-buffer of samples: enough for good splitters,
//!   cheap enough to not matter ([`config::SortConfig`]).
//! - **The investigator** (§IV-B, Fig. 3c) — duplicate splitters share
//!   their equal-key range evenly across the destinations they span,
//!   eliminating the load collapse of naive sample sort on duplicated
//!   data ([`investigator`]).
//!
//! Entry point: [`DistSorter`]. Query API on the sorted result:
//! [`api::GlobalIndex`], [`api::global_rank`], [`api::top_k`]. Load and
//! range statistics for evaluation: [`stats`].
//!
//! ```
//! use pgxd::cluster::{Cluster, ClusterConfig};
//! use pgxd_core::{DistSorter, SortConfig};
//!
//! let cluster = Cluster::new(ClusterConfig::new(3));
//! let sorter = DistSorter::new(SortConfig::default());
//! let report = cluster.run(|ctx| {
//!     let shard: Vec<u64> = (0..100).map(|i| (i * 37 + ctx.id() as u64 * 13) % 100).collect();
//!     sorter.sort(ctx, shard).data
//! });
//! let global: Vec<u64> = report.results.concat();
//! assert!(global.windows(2).all(|w| w[0] <= w[1]));
//! ```

pub mod api;
pub mod config;
pub mod investigator;
pub mod item;
pub mod sampling;
pub mod sorter;
pub mod stats;

pub use config::SortConfig;
pub use item::Keyed;
pub use sorter::{steps, DistSorter, SortedPartition};
pub use stats::{LoadStats, RangeStats};

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_algos::exec::even_chunk_bounds;
use pgxd_algos::Key;

/// One-shot convenience: shards `data` evenly over a fresh simulated
/// cluster of `machines` machines (`workers` threads each), runs the full
/// distributed sort, and returns the globally sorted vector.
///
/// For anything beyond a single sort (custom configs, provenance,
/// queries, reuse of the cluster) use [`DistSorter`] directly.
///
/// ```
/// let sorted = pgxd_core::sort_all(vec![5u64, 1, 4, 2, 3], 2, 1);
/// assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
/// ```
pub fn sort_all<K: Key + pgxd::Wire>(data: Vec<K>, machines: usize, workers: usize) -> Vec<K> {
    let machines = machines.max(1);
    let bounds = even_chunk_bounds(data.len(), machines);
    let mut rest = data;
    let mut shards = Vec::with_capacity(machines);
    // Split from the back so each shard is an owned Vec without copies.
    for m in (1..=machines).rev() {
        shards.push(rest.split_off(bounds[m - 1]));
    }
    shards.reverse();

    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(workers.max(1)));
    let sorter = DistSorter::default();
    let report = cluster.run_partitioned(shards, |ctx, shard| sorter.sort(ctx, shard).data);
    report.results.concat()
}

#[cfg(test)]
mod convenience_tests {
    use super::*;

    #[test]
    fn sort_all_roundtrip() {
        let data: Vec<u64> = (0..5000).rev().collect();
        let sorted = sort_all(data, 4, 2);
        assert_eq!(sorted, (0..5000).collect::<Vec<u64>>());
    }

    #[test]
    fn sort_all_empty_and_tiny() {
        assert!(sort_all(Vec::<u64>::new(), 3, 1).is_empty());
        assert_eq!(sort_all(vec![9u64], 5, 1), vec![9]);
    }

    #[test]
    fn sort_all_strings() {
        use pgxd_algos::FixedStr;
        let words = ["pear", "apple", "zig", "mango", "apple", "fig"];
        let keys: Vec<FixedStr<16>> = words.iter().map(|w| FixedStr::new(w)).collect();
        let sorted = sort_all(keys, 3, 1);
        let names: Vec<String> = sorted.iter().map(|s| s.as_str().into_owned()).collect();
        assert_eq!(names, vec!["apple", "apple", "fig", "mango", "pear", "zig"]);
    }
}
