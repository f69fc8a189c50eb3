//! Criterion bench for the DESIGN.md ablations: investigator on/off,
//! the Fig. 2 balanced merge vs one k-way pass over the same sorted runs,
//! and the distributed baselines (bitonic, radix) against the PGX.D sort.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_algos::exec::even_chunk_bounds;
use pgxd_algos::kway::kway_merge_into;
use pgxd_algos::merge::balanced_merge_with;
use pgxd_baselines::bitonic::bitonic_sort_dist;
use pgxd_baselines::radix::radix_sort_dist;
use pgxd_bench::runner::{run_pgxd_sort, Workload, DEFAULT_SEED};
use pgxd_core::SortConfig;
use pgxd_datagen::{generate, generate_partitioned, Distribution};

fn bench_investigator(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_investigator");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let workload = Workload::Dist {
        dist: Distribution::Exponential,
        n: 100_000,
        seed: DEFAULT_SEED,
    };
    for inv in [true, false] {
        group.bench_with_input(BenchmarkId::new("investigator", inv), &inv, |b, &inv| {
            b.iter(|| run_pgxd_sort(&workload, 8, 2, SortConfig::default().investigator(inv)));
        });
    }
    group.finish();
}

/// Step 6 alone: the `p = 8` sorted runs a machine holds after the
/// exchange, combined by the Fig. 2 tree (what `DistSorter` runs) and by
/// one loser-tree k-way pass. Both sides get their buffers from the set-up
/// and return them, so only merging is timed.
fn bench_final_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation_final_merge");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let mut data = generate(Distribution::Uniform, 200_000, DEFAULT_SEED);
    let bounds = even_chunk_bounds(data.len(), 8);
    for w in bounds.windows(2) {
        data[w[0]..w[1]].sort_unstable();
    }
    group.bench_function("balanced", |b| {
        b.iter_batched(
            || (data.clone(), vec![0u64; data.len()]),
            |(runs, mut spare)| (balanced_merge_with(runs, &mut spare, &bounds, 2), spare),
            BatchSize::LargeInput,
        );
    });
    group.bench_function("kway", |b| {
        let runs: Vec<&[u64]> = bounds.windows(2).map(|w| &data[w[0]..w[1]]).collect();
        b.iter_batched(
            || vec![0u64; data.len()],
            |mut out| {
                kway_merge_into(&runs, &mut out);
                out
            },
            BatchSize::LargeInput,
        );
    });
    group.finish();
}

fn bench_distributed_baselines(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributed_baselines");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let n = 100_000;
    let machines = 4; // power of two for bitonic
    let parts = generate_partitioned(Distribution::Uniform, n, machines, DEFAULT_SEED);

    group.bench_function("pgxd_sample_sort", |b| {
        let workload = Workload::Dist {
            dist: Distribution::Uniform,
            n,
            seed: DEFAULT_SEED,
        };
        b.iter(|| run_pgxd_sort(&workload, machines, 2, SortConfig::default()));
    });
    group.bench_function("distributed_bitonic", |b| {
        b.iter(|| {
            let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
            cluster.run(|ctx| bitonic_sort_dist(ctx, parts[ctx.id()].clone()))
        });
    });
    group.bench_function("distributed_radix", |b| {
        b.iter(|| {
            let cluster = Cluster::new(ClusterConfig::new(machines).workers_per_machine(2));
            cluster.run(|ctx| radix_sort_dist(ctx, parts[ctx.id()].clone()))
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_investigator,
    bench_final_merge,
    bench_distributed_baselines
);
criterion_main!(benches);
