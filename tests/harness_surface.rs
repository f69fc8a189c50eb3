//! The benchmark harness's import surface, pinned in tier 1. The `use`
//! lines below are `benchmark/src`'s, and the tests call every program
//! item it calls, the way it calls them, so a change that would break the
//! harness's build fails here first.
//!
//! Some items exist for the harness alone, each documented "harness
//! surface: item 12 deletes this": `MachineCtx::pool` with its
//! `ChunkPool::{acquire, release}`, and `ExchangeSummary::{pool_hits,
//! pool_misses}`, which always read 0. No program path calls them:
//! `grep -rn 'pool()\|pool_hits\|pool_misses' crates src` finds only
//! their definitions and the `metrics` unit test that reads them 0.

use std::hint::black_box;

use pgxd::comm::Tag;
use pgxd::metrics::{CommSummary, StepReport};
use pgxd::MachineCtx;
use pgxd::{Cluster, ClusterConfig, RunReport, TraceConfig, DEFAULT_BUFFER_BYTES};
use pgxd_algos::exec::{even_chunk_bounds, MIN_ITEMS_PER_WORKER};
use pgxd_algos::kway::kway_merge_into;
use pgxd_algos::merge::{balanced_merge, plan_multiway_splits};
use pgxd_algos::quicksort::quicksort;
use pgxd_core::investigator::splitter_offsets;
use pgxd_core::sampling::{select_regular_samples, select_splitters};
use pgxd_core::{steps, SortConfig};
use pgxd_core::{DistSorter, SortedPartition};

const P: usize = 4;

/// `P` shards of keys scattered over `0..2^40`.
fn shards(per_machine: usize) -> Vec<Vec<u64>> {
    (0..P as u64)
        .map(|m| {
            (0..per_machine as u64)
                .map(|i| (i * 2_654_435_761 + m * 97) % (1 << 40))
                .collect()
        })
        .collect()
}

/// The harness's step-1 to step-4 replay: chunks through the kernel, the
/// k-way merge of the worker runs, samples, splitters and the
/// investigator's offsets.
#[test]
fn the_replayed_pipeline_functions_keep_their_shapes() {
    let workers = 2;
    let mut sorted = Vec::new();
    for shard in shards(4 * MIN_ITEMS_PER_WORKER) {
        let mut data = shard;
        let chunks = workers.min((data.len() / MIN_ITEMS_PER_WORKER).max(1));
        let bounds = even_chunk_bounds(data.len(), chunks);
        for pair in bounds.windows(2) {
            quicksort(black_box(&mut data[pair[0]..pair[1]]));
        }
        let mut merged = vec![data[0]; data.len()];
        let runs: Vec<&[u64]> = bounds.windows(2).map(|b| &data[b[0]..b[1]]).collect();
        let rows = plan_multiway_splits(&runs, chunks);
        let mut rest: &mut [u64] = &mut merged;
        for row in rows.windows(2) {
            let part: Vec<&[u64]> = runs
                .iter()
                .zip(row[0].iter().zip(&row[1]))
                .map(|(run, (&lo, &hi))| &run[lo..hi])
                .collect();
            let len = part.iter().map(|r| r.len()).sum();
            let (segment, tail) = std::mem::take(&mut rest).split_at_mut(len);
            kway_merge_into(&part, segment);
            rest = tail;
        }
        assert!(merged.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(balanced_merge(data.clone(), &bounds, workers), merged);
        sorted.push(merged);
    }
    let per_machine = SortConfig::default().samples_per_machine(
        DEFAULT_BUFFER_BYTES,
        P,
        std::mem::size_of::<u64>(),
    );
    let samples: Vec<Vec<u64>> = sorted
        .iter()
        .map(|data| select_regular_samples(data, per_machine))
        .collect();
    let splitters = select_splitters(&samples, P);
    assert_eq!(splitters.len(), P - 1);
    for data in &sorted {
        let offsets = splitter_offsets(data, &splitters, true);
        assert_eq!((offsets.len(), offsets[P]), (P + 1, data.len()));
    }
    assert_eq!(steps::ALL.len(), 6);
}

/// The harness's end-to-end passes: a fresh cluster per sort and a
/// long-lived one, `sort` for keys and `sort_pairs` for records, and the
/// report fields it reads.
#[test]
fn sorts_and_their_reports_read_as_the_harness_reads_them() {
    let input = shards(20_000);
    for trace in [TraceConfig::disabled(), TraceConfig::enabled()] {
        let config = ClusterConfig::new(P).workers_per_machine(2).trace(trace);
        let sorter = DistSorter::new(SortConfig::default());
        let report: RunReport<Vec<u64>> = Cluster::new(config)
            .try_run(|ctx: &mut MachineCtx| {
                let part: SortedPartition<u64> = sorter.sort(ctx, input[ctx.id()].clone());
                ctx.barrier();
                part.data
            })
            .unwrap_or_else(|e| panic!("{}", e.to_string()));
        assert_eq!(
            report.results.iter().map(Vec::len).sum::<usize>(),
            P * 20_000
        );
        let steps: &StepReport = &report.steps;
        for step in steps::ALL {
            assert!(steps.max_across_machines(step) >= steps.mean_across_machines(step));
        }
        let comm: CommSummary = report.comm;
        assert!(comm.bytes_sent > 0 && comm.messages_sent > 0 && comm.max_recv_bytes > 0);
        assert_eq!((comm.exchange.pool_hits, comm.exchange.pool_misses), (0, 0));
        assert!(report.wall_time.as_nanos() > 0);
    }
    let records: Vec<Vec<(u64, [u64; 3])>> = input
        .iter()
        .map(|s| s.iter().map(|&k| (k, [k; 3])).collect())
        .collect();
    let report = Cluster::new(ClusterConfig::new(P)).run(|ctx| {
        DistSorter::new(SortConfig::default())
            .sort_pairs(ctx, records[ctx.id()].clone())
            .data
    });
    assert!(report.results.iter().flatten().all(|r| r.1 == [r.0; 3]));
}

/// The harness's runtime probes, inside one cluster: the untyped exchange,
/// the collectives, the pool probe, the task manager and a ping-pong.
#[test]
fn runtime_probes_run_as_the_harness_runs_them() {
    let report = Cluster::new(ClusterConfig::new(P).workers_per_machine(2)).run(|ctx| {
        let id = ctx.id();
        let data: Vec<u64> = (0..100).map(|i| i * P as u64 + id as u64).collect();
        let offsets: Vec<usize> = (0..=P).map(|j| j * 25).collect();
        ctx.barrier();
        let (received, bounds) = ctx.exchange_by_offsets(&data, &offsets);
        assert_eq!((received.len(), bounds.len()), (100, P + 1));
        let from_master = ctx.is_master().then(|| vec![7u64; 3]);
        let gathered = ctx.gather_to_master(vec![id as u64]);
        assert_eq!(gathered.is_some(), ctx.is_master());
        assert_eq!(ctx.broadcast_from_master(from_master), vec![7; 3]);
        ctx.barrier();

        let chunk_items = ctx.buffer_bytes() / std::mem::size_of::<u64>();
        let pool = ctx.pool().clone();
        pool.release(pool.acquire::<u64>(chunk_items));
        for _ in 0..10 {
            let buf = black_box(pool.acquire::<u64>(chunk_items));
            assert!(buf.is_empty() && buf.capacity() >= chunk_items);
            pool.release(buf);
        }
        let workers = ctx.workers();
        let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..workers)
            .map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>)
            .collect();
        ctx.tasks().run_tasks(tasks);
        let task: Box<dyn FnOnce() + Send> = Box::new(|| ());
        ctx.tasks().run_tasks_overlapping(vec![task], || ());
        ctx.barrier();

        let comm = ctx.comm_mut();
        if comm.id() == 0 {
            comm.send_vec(1, Tag::user(0, 0), vec![0u8; 64]);
            assert_eq!(comm.recv_vec::<u8>(Tag::user(1, 0)).1.len(), 64);
        } else if comm.id() == 1 {
            let chunk = comm.recv_vec::<u8>(Tag::user(0, 0)).1;
            comm.send_vec(0, Tag::user(1, 0), chunk);
        }
        ctx.barrier();
        id
    });
    assert_eq!(report.results, (0..P).collect::<Vec<_>>());
    assert_eq!(
        (
            report.comm.exchange.pool_hits,
            report.comm.exchange.pool_misses
        ),
        (0, 0)
    );
}
