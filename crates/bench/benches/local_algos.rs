//! Criterion bench for the single-machine kernels: quicksort (step 1) vs
//! TimSort and radix (the baselines' kernels), the two-run merge kernel on
//! the three shapes of EXPERIMENTS.md's "Merge kernel" table, and the
//! balanced merge tree over it. The merge legs allocate and copy in their
//! set-up, never inside the timed routine.

use criterion::measurement::WallTime;
use criterion::{
    criterion_group, criterion_main, BatchSize, BenchmarkGroup, BenchmarkId, Criterion,
};
use pgxd_algos::exec::even_chunk_bounds;
use pgxd_algos::merge::{balanced_merge_with, merge_into};
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

/// Sorts the first two of `runs` even chunks of `data` and returns them:
/// one pair of the first level of a `runs`-run tree.
fn first_pair<T: Ord + Copy>(mut data: Vec<T>, runs: usize) -> (Vec<T>, Vec<T>) {
    let bounds = even_chunk_bounds(data.len(), runs);
    data.truncate(bounds[2]);
    let mut b = data.split_off(bounds[1]);
    data.sort_unstable();
    b.sort_unstable();
    (data, b)
}

/// Times `merge_into` on one pair, into an output allocated once.
fn bench_pair<T: Ord + Copy>(
    group: &mut BenchmarkGroup<'_, WallTime>,
    name: &str,
    pair: (Vec<T>, Vec<T>),
) {
    let (a, b) = pair;
    let mut out = a.clone();
    out.extend_from_slice(&b);
    group.bench_function(BenchmarkId::new(name, out.len()), |bench| {
        bench.iter(|| merge_into(&a, &b, &mut out));
    });
}

fn bench_merge_into(c: &mut Criterion) {
    let mut group = c.benchmark_group("merge_into");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let uniform = generate(Distribution::Uniform, 4 << 18, 3);
    bench_pair(&mut group, "uniform_u64_4x256Ki", first_pair(uniform, 4));
    let expdup = generate(Distribution::Exponential, 8 << 16, 4);
    bench_pair(&mut group, "expdup_u64_8x64Ki", first_pair(expdup, 8));
    let records: Vec<(u64, [u64; 3])> = generate(Distribution::Uniform, 4 << 16, 5)
        .into_iter()
        .map(|k| (k, [k ^ 1, k ^ 2, k ^ 3]))
        .collect();
    bench_pair(&mut group, "records_32B_4x64Ki", first_pair(records, 4));
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
            // The tree's two buffers come from the set-up and leave through
            // the result, so neither their allocation nor their release is
            // timed.
            b.iter_batched(
                || (data.clone(), vec![0u64; data.len()]),
                |(runs, mut spare)| (balanced_merge_with(runs, &mut spare, &bounds, 2), spare),
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_local_sorts,
    bench_merge_into,
    bench_balanced_merge
);
criterion_main!(benches);
