//! Property tests for the comparison systems: each baseline produces a
//! sorted permutation for arbitrary inputs and machine counts, and the
//! codec round-trips arbitrary records.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_baselines::bitonic::bitonic_sort_dist;
use pgxd_baselines::radix::radix_sort_dist;
use pgxd_baselines::serialize::{decode_all, encode_all};
use pgxd_baselines::SparkEngine;
use pgxd_datagen::partition_even;
use pgxd_datagen::cases::{check, Gen};

fn sorted_copy(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

/// Cases per property.
const CASES: u32 = 20;

#[test]
fn spark_sorts_arbitrary_data() {
    check(CASES, |g| {
        let data = g.vec(0..2500, Gen::u64);
        let machines = g.usize_in(1..6);
        let partitions = g.usize_in(1..6);
        let parts = partition_even(&data, machines);
        let expect = sorted_copy(&data);
        let cluster = Cluster::new(ClusterConfig::new(machines));
        let engine = SparkEngine::new(partitions);
        let report = cluster.run(|ctx| engine.sort_by_key(ctx, parts[ctx.id()].clone()).data);
        assert_eq!(report.results.concat(), expect);
    });
}

#[test]
fn spark_in_memory_matches_disk() {
    check(CASES, |g| {
        let data = g.vec(0..1500, |g| g.u64_in(0..1000));
        let machines = g.usize_in(1..5);
        let parts = partition_even(&data, machines);
        let cluster = Cluster::new(ClusterConfig::new(machines));
        let disk = SparkEngine::default();
        let mem = SparkEngine::default().in_memory_shuffle();
        let a = cluster
            .run(|ctx| disk.sort_by_key(ctx, parts[ctx.id()].clone()).data)
            .results
            .concat();
        let b = cluster
            .run(|ctx| mem.sort_by_key(ctx, parts[ctx.id()].clone()).data)
            .results
            .concat();
        assert_eq!(a, b);
    });
}

#[test]
fn bitonic_sorts_power_of_two_clusters() {
    check(CASES, |g| {
        let data_per_machine = g.vec(0..400, Gen::u64);
        let log_p = g.u32_in(0..4);
        let p = 1usize << log_p;
        // Equal block sizes required by the classical algorithm.
        let shards: Vec<Vec<u64>> = (0..p)
            .map(|m| {
                data_per_machine
                    .iter()
                    .map(|&x| x.rotate_left(m as u32))
                    .collect()
            })
            .collect();
        let mut expect: Vec<u64> = shards.concat();
        expect.sort_unstable();
        let cluster = Cluster::new(ClusterConfig::new(p));
        let shards_ref = &shards;
        let report = cluster.run(|ctx| bitonic_sort_dist(ctx, shards_ref[ctx.id()].clone()));
        assert_eq!(report.results.concat(), expect);
    });
}

#[test]
fn distributed_radix_sorts_arbitrary_data() {
    check(CASES, |g| {
        let data = g.vec(0..2500, Gen::u64);
        let machines = g.usize_in(1..6);
        let parts = partition_even(&data, machines);
        let expect = sorted_copy(&data);
        let cluster = Cluster::new(ClusterConfig::new(machines));
        let report = cluster.run(|ctx| radix_sort_dist(ctx, parts[ctx.id()].clone()));
        assert_eq!(report.results.concat(), expect);
    });
}

#[test]
fn codec_roundtrips() {
    check(CASES, |g| {
        let v = g.vec(0..500, Gen::u64);
        assert_eq!(decode_all::<u64>(&encode_all(&v)), v);
    });
}

#[test]
fn codec_roundtrips_pairs() {
    check(CASES, |g| {
        let v = g.vec(0..300, |g| (g.u64(), g.u64()));
        assert_eq!(decode_all::<(u64, u64)>(&encode_all(&v)), v);
    });
}
