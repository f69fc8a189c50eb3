//! Property-based integration tests: for *arbitrary* inputs, machine
//! counts, duplication levels, and configurations, every sorter must
//! produce a sorted permutation, the investigator must tile the input,
//! and provenance must be a bijection.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_baselines::SparkEngine;
use pgxd_core::investigator::splitter_offsets_investigated;
use pgxd_core::{DistSorter, SortConfig};
use pgxd_datagen::cases::{check, Gen};
use pgxd_datagen::partition_even;

fn sorted_copy(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

/// Cases per property.
const CASES: u32 = 24;

/// A word of `[a-z]{0,12}`.
fn lowercase_word(g: &mut Gen) -> String {
    let letters = g.vec(0..13, |g| b'a' + g.u32_in(0..26) as u8);
    String::from_utf8(letters).expect("ASCII letters")
}

#[test]
fn distributed_sort_is_sorted_permutation() {
    check(CASES, |g| {
        let data = g.vec(0..3000, Gen::u64);
        let machines = g.usize_in(1..7);
        let workers = g.usize_in(1..3);
        let parts = partition_even(&data, machines);
        let expect = sorted_copy(&data);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(workers));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
        assert_eq!(report.results.concat(), expect);
    });
}

#[test]
fn distributed_sort_heavy_duplicates() {
    check(CASES, |g| {
        let data = g.vec(0..3000, |g| g.u64_in(0..6));
        let machines = g.usize_in(1..7);
        let parts = partition_even(&data, machines);
        let expect = sorted_copy(&data);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(1));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
        assert_eq!(report.results.concat(), expect);
    });
}

#[test]
fn spark_sim_is_sorted_permutation() {
    check(CASES, |g| {
        let data = g.vec(0..2000, Gen::u64);
        let machines = g.usize_in(1..6);
        let parts = partition_even(&data, machines);
        let expect = sorted_copy(&data);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(1));
        let engine = SparkEngine::default();
        let report = cluster.run(|ctx| engine.sort_by_key(ctx, parts[ctx.id()].clone()).data);
        assert_eq!(report.results.concat(), expect);
    });
}

#[test]
fn investigator_offsets_tile_any_sorted_input() {
    check(CASES, |g| {
        let mut data = g.vec(0..500, |g| g.u64_in(0..50));
        let mut splitters = g.vec(0..12, |g| g.u64_in(0..50));
        data.sort_unstable();
        splitters.sort_unstable();
        let offsets = splitter_offsets_investigated(&data, &splitters);
        assert_eq!(offsets.len(), splitters.len() + 2);
        assert_eq!(offsets[0], 0);
        assert_eq!(*offsets.last().unwrap(), data.len());
        for w in offsets.windows(2) {
            assert!(w[0] <= w[1]);
        }
        // Range contents respect the splitter order: everything sent to
        // destination j is <= everything sent to destination j+1.
        for j in 0..offsets.len() - 2 {
            let a = &data[offsets[j]..offsets[j + 1]];
            let b = &data[offsets[j + 1]..offsets[j + 2]];
            if let (Some(&amax), Some(&bmin)) = (a.last(), b.first()) {
                assert!(amax <= bmin);
            }
        }
    });
}

#[test]
fn provenance_is_a_bijection() {
    check(CASES, |g| {
        let data = g.vec(1..1500, Gen::u64);
        let machines = g.usize_in(1..5);
        let parts = partition_even(&data, machines);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(1));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| sorter.sort_keyed(ctx, &parts[ctx.id()]).data);
        let mut seen = std::collections::HashSet::new();
        let mut count = 0;
        for item in report.results.iter().flatten() {
            // Every provenance pair unique, every key correct.
            assert!(seen.insert((item.origin, item.index)));
            assert_eq!(parts[item.origin as usize][item.index as usize], item.key);
            count += 1;
        }
        assert_eq!(count, data.len());
    });
}

#[test]
fn investigator_never_worse_balance_than_naive_on_uniform_splitters() {
    check(CASES, |g| {
        let data = g.vec(50..800, |g| g.u64_in(0..8));
        let machines = g.usize_in(2..8);
        // On heavily duplicated data, the investigator's max share must
        // not exceed the naive partitioner's max share.
        let mut sorted = data.clone();
        sorted.sort_unstable();
        // Build splitters the way the sort would: regular positions.
        let p = machines;
        let splitters: Vec<u64> = (0..p - 1)
            .map(|j| sorted[(j + 1) * sorted.len() / p])
            .collect();
        let inv = splitter_offsets_investigated(&sorted, &splitters);
        let naive = pgxd_algos::search::naive_splitter_offsets(&sorted, &splitters);
        let max_share = |off: &[usize]| off.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0);
        assert!(max_share(&inv) <= max_share(&naive));
    });
}

#[test]
fn batch_sort_each_batch_is_sorted_permutation() {
    check(CASES, |g| {
        let batch_a = g.vec(0..1200, Gen::u64);
        let batch_b = g.vec(0..1200, |g| g.u64_in(0..5));
        let machines = g.usize_in(1..5);
        let parts_a = partition_even(&batch_a, machines);
        let parts_b = partition_even(&batch_b, machines);
        let expect_a = sorted_copy(&batch_a);
        let expect_b = sorted_copy(&batch_b);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(1));
        let sorter = DistSorter::default();
        let report = cluster.run(|ctx| {
            let out = sorter.sort_batch(
                ctx,
                vec![parts_a[ctx.id()].clone(), parts_b[ctx.id()].clone()],
            );
            (out[0].data.clone(), out[1].data.clone())
        });
        let got_a: Vec<u64> = report.results.iter().flat_map(|(a, _)| a.clone()).collect();
        let got_b: Vec<u64> = report.results.iter().flat_map(|(_, b)| b.clone()).collect();
        assert_eq!(got_a, expect_a);
        assert_eq!(got_b, expect_b);
    });
}

#[test]
fn string_keys_sort_like_strings() {
    check(CASES, |g| {
        let words = g.vec(0..600, lowercase_word);
        let machines = g.usize_in(1..5);
        use pgxd_algos::FixedStr;
        let keys: Vec<FixedStr<12>> = words.iter().map(|w| FixedStr::new(w)).collect();
        let mut expect = keys.clone();
        expect.sort();
        let sorted = pgxd_core::sort_all(keys, machines, 1);
        assert_eq!(sorted, expect);
    });
}

#[test]
fn sort_all_matches_std() {
    check(CASES, |g| {
        let data = g.vec(0..2000, Gen::u64);
        let machines = g.usize_in(1..6);
        let expect = sorted_copy(&data);
        assert_eq!(pgxd_core::sort_all(data, machines, 2), expect);
    });
}

#[test]
fn fault_plan_without_drops_is_output_equivalent() {
    check(CASES, |g| {
        let data = g.vec(0..2000, Gen::u64);
        let machines = g.usize_in(1..6);
        let fault_seed = g.u64();
        let delay_permille = g.u32_in(0..400);
        let reorder_permille = g.u32_in(0..600);
        // Any drop-free fault plan only perturbs *timing* (send delays,
        // mailbox drain order); the sorted output must be identical to a
        // fault-free run on the same input. Drops are excluded here
        // because they are also output-equivalent only via redelivery,
        // which the chaos suite covers separately.
        use pgxd::FaultPlan;
        let parts = partition_even(&data, machines);
        let expect = sorted_copy(&data);
        let plan = FaultPlan::enabled(fault_seed)
            .chunk_delay(delay_permille, 50)
            .reorder(reorder_permille)
            .without_drops();
        let run = |plan: FaultPlan| {
            let cluster = Cluster::new(
                ClusterConfig::new(machines)
                    .workers_per_machine(2)
                    .fault(plan),
            );
            let sorter = DistSorter::default();
            let parts_ref = &parts;
            cluster.run(|ctx| sorter.sort(ctx, parts_ref[ctx.id()].clone()).data)
        };
        let faulted = run(plan);
        let clean = run(FaultPlan::disabled());
        assert_eq!(&faulted.results.concat(), &expect);
        assert_eq!(faulted.results, clean.results);
        assert_eq!(
            faulted.comm.exchange.chunks_sent,
            clean.comm.exchange.chunks_sent
        );
    });
}

#[test]
fn sample_factor_sweep_stays_correct() {
    check(CASES, |g| {
        let data = g.vec(0..1200, Gen::u64);
        let factor_milli = g.u64_in(1..2000);
        let machines = 4;
        let parts = partition_even(&data, machines);
        let expect = sorted_copy(&data);
        let config = SortConfig::default().sample_factor(factor_milli as f64 / 1000.0);
        let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(1));
        let sorter = DistSorter::new(config);
        let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
        assert_eq!(report.results.concat(), expect);
    });
}
