//! Cross-crate integration tests: every distributed sorter against a flat
//! `std` sort, on every distribution, across machine counts, plus
//! cross-system agreement.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_baselines::SparkEngine;
use pgxd_core::{DistSorter, SortConfig};
use pgxd_datagen::{generate_partitioned, partition_even, twitter_like_keys, Distribution};

fn flat_sorted(parts: &[Vec<u64>]) -> Vec<u64> {
    let mut all: Vec<u64> = parts.concat();
    all.sort_unstable();
    all
}

#[test]
fn pgxd_sort_matches_std_all_distributions_and_machine_counts() {
    for dist in Distribution::ALL {
        for machines in [1usize, 2, 5, 9] {
            let parts = generate_partitioned(dist, 12_000, machines, 1);
            let expect = flat_sorted(&parts);
            let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
            let sorter = DistSorter::default();
            let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
            assert_eq!(
                report.results.concat(),
                expect,
                "{} p={machines}",
                dist.name()
            );
        }
    }
}

#[test]
fn all_systems_agree_on_the_same_input() {
    let machines = 4;
    let parts = generate_partitioned(Distribution::RightSkewed, 16_000, machines, 2);
    let expect = flat_sorted(&parts);

    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));

    let sorter = DistSorter::default();
    let pgxd_out = cluster
        .run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data)
        .results
        .concat();

    let engine = SparkEngine::default();
    let spark_out = cluster
        .run(|ctx| engine.sort_by_key(ctx, parts[ctx.id()].clone()).data)
        .results
        .concat();

    assert_eq!(pgxd_out, expect);
    assert_eq!(spark_out, expect);
}

#[test]
fn twitter_like_workload_end_to_end() {
    let machines = 6;
    let keys = twitter_like_keys(12, 8, 3);
    let parts = partition_even(&keys, machines);
    let expect = flat_sorted(&parts);
    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
    let sorter = DistSorter::default();
    let report = cluster.run(|ctx| {
        let part = sorter.sort(ctx, parts[ctx.id()].clone());
        let range = part.range().map(|(a, b)| (*a, *b));
        (part.data, range)
    });
    let flat: Vec<u64> = report.results.iter().flat_map(|(d, _)| d.clone()).collect();
    assert_eq!(flat, expect);
    // Table III property: ranges ascend with machine id.
    let ranges = pgxd_core::RangeStats::new(report.results.iter().map(|(_, r)| *r).collect());
    assert!(ranges.is_ascending());
}

#[test]
fn pgxd_beats_spark_on_load_balance_for_duplicates() {
    // Not a timing test (single-core CI) — a *balance* test: on heavily
    // duplicated data the investigator keeps loads even where Spark's
    // range partitioner collapses.
    let machines = 8;
    let parts: Vec<Vec<u64>> = (0..machines).map(|_| vec![77u64; 2000]).collect();
    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(1));

    let sorter = DistSorter::default();
    let pgxd_sizes: Vec<usize> = cluster
        .run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).len())
        .results;

    let engine = SparkEngine::default();
    let spark_sizes: Vec<usize> = cluster
        .run(|ctx| engine.sort_by_key(ctx, parts[ctx.id()].clone()).data.len())
        .results;

    let pgxd_stats = pgxd_core::LoadStats::new(pgxd_sizes);
    let spark_stats = pgxd_core::LoadStats::new(spark_sizes);
    assert_eq!(pgxd_stats.load_difference(), 0, "{:?}", pgxd_stats.counts);
    assert_eq!(
        spark_stats.max(),
        machines * 2000,
        "{:?}",
        spark_stats.counts
    );
}

#[test]
fn uneven_input_shards_still_sort() {
    // One machine holds 90% of the input; the sort must rebalance it.
    let machines = 4;
    let big = generate_partitioned(Distribution::Uniform, 18_000, 1, 5)
        .pop()
        .unwrap();
    let small = generate_partitioned(Distribution::Uniform, 2_000, 3, 6);
    let mut parts = vec![big];
    parts.extend(small);
    let expect = flat_sorted(&parts);

    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
    let sorter = DistSorter::default();
    let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
    assert_eq!(report.results.concat(), expect);
    // Output is rebalanced even though input was 90/10.
    let sizes: Vec<usize> = report.results.iter().map(|r| r.len()).collect();
    let max = *sizes.iter().max().unwrap();
    assert!(max < 9 * 20_000 / 10, "not rebalanced: {sizes:?}");
}

#[test]
fn some_machines_start_empty() {
    let machines = 5;
    let mut parts = vec![Vec::new(); machines];
    parts[2] = generate_partitioned(Distribution::Normal, 10_000, 1, 7)
        .pop()
        .unwrap();
    let expect = flat_sorted(&parts);
    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
    let sorter = DistSorter::default();
    let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
    assert_eq!(report.results.concat(), expect);
}

#[test]
fn presorted_and_reversed_inputs() {
    let machines = 3;
    let asc: Vec<u64> = (0..9000).collect();
    let desc: Vec<u64> = (0..9000).rev().collect();
    for input in [asc, desc] {
        let parts = partition_even(&input, machines);
        let expect = flat_sorted(&parts);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
        assert_eq!(report.results.concat(), expect);
    }
}

#[test]
fn repeated_sorts_on_one_cluster_are_independent() {
    // Two sorts back-to-back inside the same SPMD closure: collective
    // sequencing must keep their traffic separate.
    let machines = 3;
    let parts_a = generate_partitioned(Distribution::Uniform, 6000, machines, 8);
    let parts_b = generate_partitioned(Distribution::Exponential, 6000, machines, 9);
    let expect_a = flat_sorted(&parts_a);
    let expect_b = flat_sorted(&parts_b);
    let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
    let sorter = DistSorter::default();
    let report = cluster.run(|ctx| {
        let a = sorter.sort(ctx, parts_a[ctx.id()].clone()).data;
        let b = sorter.sort(ctx, parts_b[ctx.id()].clone()).data;
        (a, b)
    });
    let got_a: Vec<u64> = report.results.iter().flat_map(|(a, _)| a.clone()).collect();
    let got_b: Vec<u64> = report.results.iter().flat_map(|(_, b)| b.clone()).collect();
    assert_eq!(got_a, expect_a);
    assert_eq!(got_b, expect_b);
}

#[test]
fn tiny_buffer_sizes_exercise_chunked_exchange() {
    // 128-byte buffers force the exchange through many chunks.
    let machines = 4;
    let parts = generate_partitioned(Distribution::Uniform, 8000, machines, 10);
    let expect = flat_sorted(&parts);
    let cluster = Cluster::new(
        ClusterConfig::new(machines)
            .workers_per_machine(2)
            .buffer_bytes(128),
    );
    let sorter = DistSorter::default();
    let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
    assert_eq!(report.results.concat(), expect);
    assert!(report.comm.messages_sent > 100, "{:?}", report.comm);
}

#[test]
fn workers_sweep_does_not_change_results() {
    let machines = 3;
    let parts = generate_partitioned(Distribution::Normal, 9000, machines, 11);
    let expect = flat_sorted(&parts);
    for workers in [1usize, 2, 4] {
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(workers));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
        assert_eq!(report.results.concat(), expect, "workers={workers}");
    }
}

#[test]
fn sort_config_matrix_all_correct() {
    let machines = 4;
    let parts = generate_partitioned(Distribution::Exponential, 8000, machines, 12);
    let expect = flat_sorted(&parts);
    for investigator in [true, false] {
        let config = SortConfig::default().investigator(investigator);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
        let sorter = DistSorter::new(config);
        let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
        assert_eq!(report.results.concat(), expect, "inv={investigator}");
    }
}
