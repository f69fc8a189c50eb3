//! Property tests for the comparison system: the Spark-like baseline
//! produces a sorted permutation for arbitrary inputs and machine counts,
//! and the codec round-trips arbitrary records.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_baselines::serialize::{decode_all, encode_all};
use pgxd_baselines::SparkEngine;
use pgxd_datagen::cases::{check, Gen};
use pgxd_datagen::partition_even;

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
