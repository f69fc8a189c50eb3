//! The layer pass: where a sort's time goes, layer by layer. Informational,
//! never gated.
//!
//! Order: (1) an untraced baseline, the same code as the end-to-end pass;
//! (2) ten plain sorts whose program-reported step timers account for the
//! wall time; (3) a replay of the pipeline stage by stage through each
//! layer's public functions on the workload's real shapes, every stage's
//! output feeding the next and the final output verified; (4) micro-probes
//! of the runtime's fixed costs; (5) ten sorts with the program's own trace
//! on, for its overhead.

use crate::measure::{cluster_config, make_input, measure, Budget, Measured};
use crate::spans::{timed, MachineSpan, Spans, HARNESS};
use crate::stats::{median, percentile};
use crate::verify::verify;
use crate::workload::{Item, Mode, SplitMix64, Workload};
use pgxd::comm::Tag;
use pgxd::{Cluster, TraceConfig, DEFAULT_BUFFER_BYTES};
use pgxd_algos::exec::{even_chunk_bounds, MIN_ITEMS_PER_WORKER};
use pgxd_algos::kway::kway_merge_into;
use pgxd_algos::merge::{balanced_merge, plan_multiway_splits};
use pgxd_algos::quicksort::quicksort;
use pgxd_core::investigator::splitter_offsets;
use pgxd_core::sampling::{select_regular_samples, select_splitters};
use pgxd_core::{steps, SortConfig};
use std::hint::black_box;

/// Sorts per accounting pass and per traced pass.
const ACCOUNTED_SORTS: usize = 10;
/// Closed-loop accounting: one run of this many sorts after 10 warm-ups.
const ACCOUNTED_LOOP_SORTS: usize = 200;
const EXCHANGE_ROUNDS: usize = 10;
const COLLECTIVE_ROUNDS: usize = 10;
const BARRIER_ROUNDS: usize = 1000;
const POOL_CYCLES: usize = 100_000;
const TASK_ROUNDS: usize = 2000;
const PING_ROUNDS: usize = 2000;
const SPINUP_RUNS: usize = 20;

pub struct LayerPass {
    /// `(name, value, unit)`, in the order of the README's table.
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    pub first_error: Option<String>,
    pub spans: Spans,
}

pub fn layer_pass<T: Item>(w: &Workload, seed: u64, budget: Budget) -> Result<LayerPass, String> {
    let mut spans = Spans::new();
    let mut out: Vec<(String, f64, &'static str)> = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| out.push((name.to_string(), value, unit));

    let baseline = measure::<T>(w, seed, 1, budget, TraceConfig::disabled())?;
    let plain = accounted_sorts::<T>(w, seed, TraceConfig::disabled(), "sort", &mut spans)?;

    // (2) The program's own step timers, mean across machines, per sort.
    let closed = w.mode == Mode::ClosedLoop;
    let mut per_step: Vec<Vec<f64>> = vec![Vec::new(); steps::ALL.len()];
    let (mut unattributed, mut step_wait) = (Vec::new(), Vec::new());
    for run in &plain.runs {
        let sorts = run.sorts as f64;
        let wall = if closed {
            plain.sort_s.iter().sum::<f64>() / plain.sort_s.len() as f64
        } else {
            run.wall_time.as_secs_f64()
        };
        let (mut attributed, mut waited) = (0.0, 0.0);
        for (slot, step) in per_step.iter_mut().zip(steps::ALL) {
            let mean = run.steps.mean_across_machines(step).as_secs_f64() / sorts;
            let max = run.steps.max_across_machines(step).as_secs_f64() / sorts;
            slot.push(mean);
            attributed += mean;
            waited += max - mean;
        }
        unattributed.push(wall - attributed);
        step_wait.push(waited);
    }
    for (values, step) in per_step.iter().zip(steps::ALL) {
        put(&format!("core.sorter.{step}_s"), median(values), "s");
    }
    put("core.sorter.unattributed_s", median(&unattributed), "s");
    put("core.sorter.step_wait_s", median(&step_wait), "s");

    // (3) Replay.
    let (shards, fp) = make_input::<T>(w, seed)?;
    let req = spans.new_request();
    let replayed = spans.record("replay", 0, req, HARNESS, |spans, parent| {
        replay(w, &shards, spans, Under { parent, req })
    })?;
    verify(&replayed.outputs, &fp).map_err(|e| format!("replay_diverged: {e}"))?;
    let replay_sizes: Vec<usize> = replayed.outputs.iter().map(Vec::len).collect();
    if replay_sizes != plain.output_sizes {
        return Err(format!(
            "replay_diverged: replay output sizes {replay_sizes:?}, DistSorter's {:?}",
            plain.output_sizes
        ));
    }
    let mean_s = |span: &str| {
        let secs = spans.secs_of(span);
        secs.iter().sum::<f64>() / secs.len().max(1) as f64
    };
    let slowest_s = |span: &str, rounds| median(&per_round_max(&spans, span, rounds));
    let probe_us = |span: &str, rounds: usize| mean_s(span) * 1e6 / rounds as f64;
    let kernel_s: f64 = spans.secs_of("algos.quicksort").iter().sum();
    put("algos.kernel_keys_per_s", w.n as f64 / kernel_s, "keys/s");
    // Zero where the workload bypasses the layer (one worker: one run, no merge).
    put("algos.local_merge_s", mean_s("algos.local_merge"), "s");
    put("algos.final_merge_s", mean_s("algos.balanced_merge"), "s");
    put(
        "core.sampling.select_s",
        mean_s("core.sampling.select_regular_samples"),
        "s",
    );
    put(
        "core.sampling.splitters_s",
        mean_s("core.sampling.select_splitters"),
        "s",
    );
    let sample_bytes = replayed.samples_per_machine * w.machines * w.item_bytes();
    put("core.sampling.sample_bytes", sample_bytes as f64, "B");
    put(
        "core.investigator.offsets_s",
        mean_s("core.investigator.splitter_offsets"),
        "s",
    );
    put(
        "core.investigator.dup_splitters",
        replayed.dup_splitters as f64,
        "count",
    );
    let exchange_s = slowest_s("pgxd.machine.exchange_by_offsets", EXCHANGE_ROUNDS);
    put("pgxd.machine.exchange_s", exchange_s, "s");
    let mib = (w.n * w.item_bytes()) as f64 / (1u64 << 20) as f64;
    put("pgxd.machine.exchange_mib_per_s", mib / exchange_s, "MiB/s");
    let gather_bcast_s = slowest_s("pgxd.machine.gather_bcast", COLLECTIVE_ROUNDS);
    put("pgxd.machine.gather_bcast_s", gather_bcast_s, "s");
    let barrier_us = probe_us("pgxd.machine.barrier_rounds", BARRIER_ROUNDS);
    put("pgxd.machine.barrier_us", barrier_us, "us");

    // (4) Probes, plus the counters the plain sorts' reports carry.
    let pool_cycle_ns = probe_us("pgxd.pool.acquire_release", POOL_CYCLES) * 1e3;
    put("pgxd.pool.cycle_ns", pool_cycle_ns, "ns");
    let sorts: f64 = plain.runs.iter().map(|r| r.sorts as f64).sum();
    let hits: u64 = plain.runs.iter().map(|r| r.comm.exchange.pool_hits).sum();
    let misses: u64 = plain.runs.iter().map(|r| r.comm.exchange.pool_misses).sum();
    let hit_rate = hits as f64 / (hits + misses).max(1) as f64;
    put("pgxd.pool.hit_rate", hit_rate, "fraction");
    put("pgxd.pool.misses_per_sort", misses as f64 / sorts, "count");
    let run_tasks_us = probe_us("pgxd.task.run_tasks", TASK_ROUNDS);
    put("pgxd.task.run_tasks_us", run_tasks_us, "us");
    let overlap_us = probe_us("pgxd.task.run_tasks_overlapping", TASK_ROUNDS);
    put("pgxd.task.overlap_us", overlap_us, "us");
    let chunk_rtt_us = probe_us("pgxd.comm.ping_pong", PING_ROUNDS);
    put("pgxd.comm.chunk_rtt_us", chunk_rtt_us, "us");
    let messages: u64 = plain.runs.iter().map(|r| r.comm.messages_sent).sum();
    put(
        "pgxd.comm.messages_per_sort",
        messages as f64 / sorts,
        "count",
    );
    // Bytes addressed to the busiest receiver over the mean receiver's.
    let hotspot: Vec<f64> = plain
        .runs
        .iter()
        .map(|r| {
            (r.comm.max_recv_bytes * w.machines as u64) as f64 / r.comm.bytes_sent.max(1) as f64
        })
        .collect();
    put("pgxd.comm.hotspot_share", median(&hotspot), "ratio");
    let req = spans.new_request();
    for _ in 0..SPINUP_RUNS {
        spans.record("pgxd.cluster.empty_run", 0, req, HARNESS, |_, _| {
            Cluster::new(cluster_config(w, TraceConfig::disabled())).run(|_| ())
        });
    }
    let spinup_s = median(&spans.secs_of("pgxd.cluster.empty_run"));
    put("pgxd.cluster.spinup_s", spinup_s, "s");
    let overhead: Vec<f64> = plain
        .runs
        .iter()
        .map(|r| r.outside.saturating_sub(r.wall_time).as_secs_f64())
        .collect();
    put("pgxd.cluster.run_overhead_s", median(&overhead), "s");

    // (5) The program's trace rings on.
    let traced = accounted_sorts::<T>(w, seed, TraceConfig::enabled(), "sort.traced", &mut spans)?;
    let plain_p50 = median(&plain.sort_s);
    let trace_overhead = median(&traced.sort_s) / plain_p50 - 1.0;
    put("pgxd.trace.overhead_frac", trace_overhead, "fraction");

    put("bench.sort_s_p90", percentile(&baseline.sort_s, 90.0), "s");
    put("bench.iterations", baseline.sort_s.len() as f64, "count");
    let span_overhead = plain_p50 / median(&baseline.sort_s) - 1.0;
    put("bench.span_overhead_frac", span_overhead, "fraction");
    put("proc.peak_rss_mib", peak_rss_mib(), "MiB");
    put("host.calib_keys_per_s", calibrate(), "keys/s");

    let passes = [&baseline, &plain, &traced];
    Ok(LayerPass {
        metrics: out,
        attempted: passes.iter().map(|m| m.attempted).sum(),
        failed: passes.iter().map(|m| m.failed).sum(),
        first_error: passes.iter().find_map(|m| m.first_error.clone()),
        spans,
    })
}

/// A short fixed-count pass whose cluster runs become spans: the clock that
/// `measure` keeps around each `try_run` call is the span.
fn accounted_sorts<T: Item>(
    w: &Workload,
    seed: u64,
    trace: TraceConfig,
    name: &'static str,
    spans: &mut Spans,
) -> Result<Measured, String> {
    let (shape, budget) = match w.mode {
        Mode::FreshCluster => (
            Workload { warmups: 1, ..*w },
            Budget::Iters(ACCOUNTED_SORTS),
        ),
        Mode::ClosedLoop => (
            Workload { warmups: 10, ..*w },
            Budget::Iters(ACCOUNTED_LOOP_SORTS),
        ),
    };
    let m = measure::<T>(&shape, seed, 1, budget, trace)?;
    for run in &m.runs {
        let req = spans.new_request();
        spans.adopt(name, req, run.started, run.outside);
    }
    Ok(m)
}

/// Where the replay's spans hang: its root span and its request.
#[derive(Clone, Copy)]
struct Under {
    parent: u32,
    req: u32,
}

/// Times one call made on behalf of `machine` on the benchmark's thread.
fn leaf<R>(
    spans: &mut Spans,
    under: Under,
    name: &'static str,
    machine: usize,
    f: impl FnOnce() -> R,
) -> R {
    spans.record(name, under.parent, under.req, machine as i64, |_, _| f())
}

struct Replayed<T> {
    outputs: Vec<Vec<T>>,
    dup_splitters: usize,
    samples_per_machine: usize,
}

/// The six steps, one public function at a time. Stages that are local to a
/// machine run here on the benchmark's thread, one machine after the other,
/// so their spans are uncontended; the collective stages run inside one
/// cluster of the workload's shape, between barriers.
fn replay<T: Item>(
    w: &Workload,
    shards: &[Vec<T>],
    spans: &mut Spans,
    under: Under,
) -> Result<Replayed<T>, String> {
    let p = w.machines;

    // Step 1: per-worker chunks through the kernel, then the k-way merge of
    // the worker runs (the sorter's rule for how many chunks).
    let mut sorted: Vec<Vec<T>> = Vec::with_capacity(p);
    for (m, shard) in shards.iter().enumerate() {
        let mut data = shard.clone();
        let chunks = w.workers.min((data.len() / MIN_ITEMS_PER_WORKER).max(1));
        let bounds = even_chunk_bounds(data.len(), chunks);
        for pair in bounds.windows(2) {
            let chunk = &mut data[pair[0]..pair[1]];
            leaf(spans, under, "algos.quicksort", m, || {
                quicksort(black_box(chunk))
            });
        }
        if chunks > 1 {
            let mut merged = vec![data[0]; data.len()];
            leaf(spans, under, "algos.local_merge", m, || {
                let runs: Vec<&[T]> = bounds.windows(2).map(|b| &data[b[0]..b[1]]).collect();
                let rows = plan_multiway_splits(&runs, chunks);
                let mut rest: &mut [T] = &mut merged;
                for row in rows.windows(2) {
                    let part: Vec<&[T]> = runs
                        .iter()
                        .zip(row[0].iter().zip(&row[1]))
                        .map(|(run, (&lo, &hi))| &run[lo..hi])
                        .collect();
                    let len = part.iter().map(|r| r.len()).sum();
                    let (segment, tail) = std::mem::take(&mut rest).split_at_mut(len);
                    kway_merge_into(&part, segment);
                    rest = tail;
                }
            });
            data = merged;
        }
        sorted.push(data);
    }

    // Steps 2-4: buffer-sized regular samples, splitters, investigator.
    let samples_per_machine = SortConfig::default().samples_per_machine(
        DEFAULT_BUFFER_BYTES,
        p,
        std::mem::size_of::<T>(),
    );
    let mut samples: Vec<Vec<T>> = Vec::with_capacity(p);
    for (m, data) in sorted.iter().enumerate() {
        samples.push(leaf(
            spans,
            under,
            "core.sampling.select_regular_samples",
            m,
            || select_regular_samples(data, samples_per_machine),
        ));
    }
    let splitters = leaf(spans, under, "core.sampling.select_splitters", 0, || {
        select_splitters(&samples, p)
    });
    let dup_splitters = splitters.windows(2).filter(|s| s[0] == s[1]).count();
    let mut offsets: Vec<Vec<usize>> = Vec::with_capacity(p);
    for (m, data) in sorted.iter().enumerate() {
        offsets.push(leaf(
            spans,
            under,
            "core.investigator.splitter_offsets",
            m,
            || splitter_offsets(data, &splitters, true),
        ));
    }

    // Step 5 and the probes, inside a cluster.
    let epoch = spans.epoch();
    let report = spans.record(
        "replay.cluster_run",
        under.parent,
        under.req,
        HARNESS,
        |_, _| {
            let body = |ctx: &mut pgxd::MachineCtx| {
                let id = ctx.id();
                let mut mine: Vec<MachineSpan> = Vec::new();
                let mut received = None;
                for _ in 0..EXCHANGE_ROUNDS {
                    ctx.barrier();
                    received = Some(timed(
                        epoch,
                        "pgxd.machine.exchange_by_offsets",
                        &mut mine,
                        || ctx.exchange_by_offsets(&sorted[id], &offsets[id]),
                    ));
                    ctx.barrier();
                }
                for _ in 0..COLLECTIVE_ROUNDS {
                    let payload = samples[id].clone();
                    let from_master = ctx.is_master().then(|| splitters.clone());
                    ctx.barrier();
                    timed(epoch, "pgxd.machine.gather_bcast", &mut mine, || {
                        let gathered = ctx.gather_to_master(payload);
                        black_box((gathered, ctx.broadcast_from_master(from_master)));
                    });
                    ctx.barrier();
                }
                timed(epoch, "pgxd.machine.barrier_rounds", &mut mine, || {
                    for _ in 0..BARRIER_ROUNDS {
                        ctx.barrier();
                    }
                });
                if id == 0 {
                    probe_machine_local::<T>(ctx, epoch, &mut mine);
                }
                ctx.barrier();
                if id < 2 {
                    ping_pong(ctx, epoch, &mut mine);
                }
                ctx.barrier();
                (received.expect("at least one exchange round"), mine)
            };
            let run = Cluster::new(cluster_config(w, TraceConfig::disabled())).try_run(body);
            run.map_err(|e| format!("replay cluster run failed: {e}"))
        },
    )?;

    // Step 6: the balanced merge of the p received runs.
    let mut outputs = Vec::with_capacity(p);
    for (m, ((data, bounds), mine)) in report.results.into_iter().enumerate() {
        spans.absorb(under.parent, under.req, m, &mine);
        outputs.push(leaf(spans, under, "algos.balanced_merge", m, || {
            balanced_merge(data, &bounds, w.workers)
        }));
    }
    Ok(Replayed {
        outputs,
        dup_splitters,
        samples_per_machine,
    })
}

/// Fixed costs one machine pays alone; the other machines wait at a barrier.
fn probe_machine_local<T: Item>(
    ctx: &mut pgxd::MachineCtx,
    epoch: std::time::Instant,
    mine: &mut Vec<MachineSpan>,
) {
    // One exchange chunk: a buffer's worth of items, warm in the pool.
    let chunk_items = ctx.buffer_bytes() / std::mem::size_of::<T>();
    let pool = ctx.pool().clone();
    pool.release(pool.acquire::<T>(chunk_items));
    timed(epoch, "pgxd.pool.acquire_release", mine, || {
        for _ in 0..POOL_CYCLES {
            pool.release(black_box(pool.acquire::<T>(chunk_items)));
        }
    });
    let workers = ctx.workers();
    timed(epoch, "pgxd.task.run_tasks", mine, || {
        for _ in 0..TASK_ROUNDS {
            let tasks: Vec<Box<dyn FnOnce() + Send>> = (0..workers)
                .map(|_| Box::new(|| ()) as Box<dyn FnOnce() + Send>)
                .collect();
            ctx.tasks().run_tasks(tasks);
        }
    });
    timed(epoch, "pgxd.task.run_tasks_overlapping", mine, || {
        for _ in 0..TASK_ROUNDS {
            let task: Box<dyn FnOnce() + Send> = Box::new(|| ());
            ctx.tasks().run_tasks_overlapping(vec![task], || ());
        }
    });
}

/// Machines 0 and 1 bounce one buffer-sized chunk; the span on machine 0
/// covers `PING_ROUNDS` round trips.
fn ping_pong(ctx: &mut pgxd::MachineCtx, epoch: std::time::Instant, mine: &mut Vec<MachineSpan>) {
    let (there, back) = (0u16, 1u16);
    let comm = ctx.comm_mut();
    if comm.id() == 0 {
        let mut chunk = vec![0u8; DEFAULT_BUFFER_BYTES];
        timed(epoch, "pgxd.comm.ping_pong", mine, || {
            for round in 0..PING_ROUNDS as u64 {
                comm.send_vec(1, Tag::user(there, round), std::mem::take(&mut chunk));
                chunk = comm.recv_vec::<u8>(Tag::user(back, round)).1;
            }
        });
    } else {
        for round in 0..PING_ROUNDS as u64 {
            let chunk = comm.recv_vec::<u8>(Tag::user(there, round)).1;
            comm.send_vec(0, Tag::user(back, round), chunk);
        }
    }
}

/// For a stage every machine runs between barriers: each round's slowest
/// machine.
fn per_round_max(spans: &Spans, name: &str, rounds: usize) -> Vec<f64> {
    let mut worst = vec![0.0f64; rounds];
    let mut seen = std::collections::BTreeMap::<i64, usize>::new();
    for s in spans.all.iter().filter(|s| s.name == name) {
        let round = seen.entry(s.machine).or_insert(0);
        worst[*round] = worst[*round].max(s.secs());
        *round += 1;
    }
    worst
}

fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        });
    kib.unwrap_or(0.0) / 1024.0
}

/// Single-thread `sort_unstable` on 2^20 `u64`: how fast this host is today.
fn calibrate() -> f64 {
    let mut rng = SplitMix64::new(1);
    let keys: Vec<u64> = (0..1 << 20).map(|_| rng.next_u64()).collect();
    let secs: Vec<f64> = (0..5)
        .map(|_| {
            let mut copy = keys.clone();
            let start = std::time::Instant::now();
            black_box(&mut copy).sort_unstable();
            start.elapsed().as_secs_f64()
        })
        .collect();
    keys.len() as f64 / median(&secs)
}
