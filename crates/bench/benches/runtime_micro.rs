//! Microbenchmarks of the runtime substrate itself: collective latency,
//! exchange throughput across buffer sizes, the task manager's scheduling
//! overhead, and the master's splitter selection. These quantify the
//! per-sort fixed costs the paper's §III claims PGX.D keeps low.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pgxd::cluster::{Cluster, ClusterConfig};

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    for p in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("barrier_x100", p), &p, |b, &p| {
            let cluster = Cluster::new(ClusterConfig::new(p));
            b.iter(|| {
                cluster.run(|ctx| {
                    for _ in 0..100 {
                        ctx.barrier();
                    }
                })
            });
        });
        group.bench_with_input(BenchmarkId::new("allgather_1k", p), &p, |b, &p| {
            let cluster = Cluster::new(ClusterConfig::new(p));
            b.iter(|| {
                cluster.run(|ctx| {
                    let v: Vec<u64> = vec![ctx.id() as u64; 1024];
                    ctx.all_gather(v)
                })
            });
        });
    }
    group.finish();
}

fn bench_exchange_buffer_sizes(c: &mut Criterion) {
    let mut group = c.benchmark_group("exchange_throughput");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let n_per_machine = 100_000usize;
    for buffer in [4usize << 10, 64 << 10, 256 << 10] {
        group.bench_with_input(
            BenchmarkId::new("p4_100k_each", format!("{}KiB", buffer >> 10)),
            &buffer,
            |b, &buffer| {
                let cluster = Cluster::new(ClusterConfig::new(4).buffer_bytes(buffer));
                b.iter(|| {
                    cluster.run(|ctx| {
                        let data: Vec<u64> =
                            (0..n_per_machine as u64).map(|i| i + ctx.id() as u64).collect();
                        // Even split to all machines.
                        let quarter = n_per_machine / 4;
                        let offsets: Vec<usize> =
                            (0..=4).map(|j| j * quarter).collect();
                        ctx.exchange_by_offsets(&data, &offsets)
                    })
                });
            },
        );
    }
    group.finish();
}

/// One machine's shard of uniform u64: the step-1 quicksort next to the
/// LSD radix the distributed-radix baseline uses, plus the sequential k-way
/// merge each step-1 merge part runs.
fn bench_local_sort_kernels(c: &mut Criterion) {
    use pgxd_algos::kway::kway_merge_into;
    use pgxd_algos::quicksort::quicksort;
    use pgxd_algos::radix::radix_sort_with_scratch;

    let mut group = c.benchmark_group("local_sort_kernels");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(3));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let n = 1usize << 20;
    let base: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e3779b97f4a7c15)).collect();

    group.bench_function("quicksort_1m", |b| {
        b.iter(|| {
            let mut v = base.clone();
            quicksort(&mut v);
            v
        });
    });
    group.bench_function("radix_1m", |b| {
        let mut scratch = Vec::new();
        b.iter(|| {
            let mut v = base.clone();
            radix_sort_with_scratch(&mut v, &mut scratch);
            v
        });
    });

    // The k-way merge over 8 pre-sorted runs of the same total size.
    let runs_flat: Vec<u64> = {
        let mut v = base.clone();
        let chunk = n / 8;
        for c in v.chunks_mut(chunk) {
            c.sort_unstable();
        }
        v
    };
    let bounds: Vec<usize> = (0..=8).map(|i| i * (n / 8)).collect();
    group.bench_function("kway_merge_8x128k", |b| {
        let mut out = vec![0u64; n];
        b.iter(|| {
            let runs: Vec<&[u64]> =
                bounds.windows(2).map(|w| &runs_flat[w[0]..w[1]]).collect();
            kway_merge_into(&runs, &mut out);
            out.last().copied()
        });
    });
    group.finish();
}

fn bench_task_manager(c: &mut Criterion) {
    let mut group = c.benchmark_group("task_manager");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    group.bench_function("spawn_and_drain_1k_tasks_w4", |b| {
        let tm = pgxd::task::TaskManager::new(4);
        b.iter(|| {
            let counter = std::sync::atomic::AtomicUsize::new(0);
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..1000)
                .map(|_| {
                    let c = &counter;
                    Box::new(move || {
                        c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }) as Box<dyn FnOnce() + Send + '_>
                })
                .collect();
            tm.run_tasks(tasks);
            assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 1000);
        });
    });
    group.finish();
}

/// §IV step 3 on the master: `p − 1` splitters out of `p` sorted sample
/// runs that together fill one 256 KiB read buffer (32 Ki `u64`), at the
/// benchmark's machine counts and at Fig. 5's maximum. Uniform runs overlap
/// everywhere; pairwise-disjoint ones (an already range-partitioned input)
/// are the worst case of a rank selection, which then has to walk the runs
/// one by one where a merge would only copy.
fn bench_select_splitters(c: &mut Criterion) {
    use pgxd_core::sampling::select_splitters;

    let mut group = c.benchmark_group("select_splitters");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_secs(2));
    group.warm_up_time(std::time::Duration::from_secs(1));
    let sample_runs = |p: usize, per_run: usize, disjoint: bool| -> Vec<Vec<u64>> {
        let mut x: u64 = 0x9e3779b97f4a7c15;
        (0..p as u64)
            .map(|i| {
                let mut run: Vec<u64> = (0..per_run)
                    .map(|_| {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        if disjoint {
                            (i << 40) | (x >> 24)
                        } else {
                            x
                        }
                    })
                    .collect();
                run.sort_unstable();
                run
            })
            .collect()
    };
    for (p, per_run) in [(4usize, 8192usize), (8, 4096), (52, 630)] {
        for (shape, disjoint) in [("uniform", false), ("disjoint", true)] {
            let runs = sample_runs(p, per_run, disjoint);
            let id = BenchmarkId::new(shape, format!("p{p}_x{per_run}"));
            group.bench_with_input(id, &runs, |b, runs| b.iter(|| select_splitters(runs, p)));
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_collectives,
    bench_exchange_buffer_sizes,
    bench_local_sort_kernels,
    bench_task_manager,
    bench_select_splitters
);
criterion_main!(benches);
