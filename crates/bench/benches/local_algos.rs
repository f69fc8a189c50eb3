//! Criterion bench for the single-machine kernels: quicksort (step 1) vs
//! TimSort and radix (the baselines' kernels), and the balanced merge.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgxd_algos::exec::even_chunk_bounds;
use pgxd_algos::merge::balanced_merge;
use pgxd_algos::quicksort::quicksort;
use pgxd_algos::radix::radix_sort;
use pgxd_algos::timsort::timsort;
use pgxd_datagen::{generate, Distribution};

fn bench_local_sorts(c: &mut Criterion) {
    let mut group = c.benchmark_group("local_sorts");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let n = 200_000;
    let data = generate(Distribution::Uniform, n, 1);

    group.bench_function(BenchmarkId::new("quicksort", n), |b| {
        b.iter(|| {
            let mut v = data.clone();
            quicksort(&mut v);
            v
        });
    });
    group.bench_function(BenchmarkId::new("timsort", n), |b| {
        b.iter(|| {
            let mut v = data.clone();
            timsort(&mut v);
            v
        });
    });
    group.bench_function(BenchmarkId::new("radix", n), |b| {
        b.iter(|| {
            let mut v = data.clone();
            radix_sort(&mut v);
            v
        });
    });
    group.finish();
}

fn bench_balanced_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("balanced_merge");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let n = 200_000;
    for runs in [4usize, 8, 16] {
        let mut data = generate(Distribution::Uniform, n, 2);
        let bounds = even_chunk_bounds(data.len(), runs);
        for w in bounds.windows(2) {
            data[w[0]..w[1]].sort_unstable();
        }
        group.bench_with_input(BenchmarkId::new("runs", runs), &runs, |b, _| {
            b.iter(|| balanced_merge(data.clone(), &bounds, 2));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_local_sorts, bench_balanced_merge);
criterion_main!(benches);
