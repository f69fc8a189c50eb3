//! Chaos harness: the full distributed sort under the deterministic
//! fault-injection plane, across adversarial key distributions.
//!
//! Every cell of the plan × distribution matrix must produce exactly the
//! flat-sorted reference — faults may slow a run down or reorder its
//! mailbox, never corrupt it. Runs are seeded end to end: any failing cell
//! replays bit-identically from its `(plan seed, data seed)` pair. Clean
//! completion also implies a quiescent fabric (in every build, a barrier
//! or the teardown panics on an undelivered packet). The last three
//! tests take the exchange's stream openers through the fault plane, each
//! under a hard bound: a parked opener, a machine that dies before its
//! openers, and a deadline that expires while receivers wait for them.

use std::collections::BTreeMap;
use std::sync::mpsc::{self, RecvTimeoutError};
use std::time::{Duration, Instant};

use pgxd::cluster::{Cluster, ClusterConfig, RunReport};
use pgxd::comm::kinds;
use pgxd::fault::FaultPlan;
use pgxd::trace::EventKind;
use pgxd::{RunErrorKind, TraceConfig};
use pgxd_core::DistSorter;
use pgxd_datagen::{generate_partitioned, partition_even, Distribution};

const MACHINES: usize = 4;
const N: usize = 6_000;

/// Both shapes of the exchange. An even share of these `N`-key sorts is 375
/// keys per destination: 256-byte buffers hold at most 243 distinct packed
/// keys (one byte each behind a header), so they cut such a stream into two
/// chunks or more, which the worker pool sends while the machine receives.
/// (A run of one repeated key is a bare header however long it is.)
/// At the default 256 KiB a stream is a single chunk whatever the skew, and
/// the machine thread flushes it itself before it receives — the shape in
/// which drop-with-redelivery parks a stream's *only* chunk and the
/// end-of-stream flush alone delivers it.
const BUFFERS: [usize; 2] = [256, pgxd::DEFAULT_BUFFER_BYTES];

/// The adversarial input set: the two new chaos distributions plus the
/// classic pathological orders and a uniform control.
fn inputs(data_seed: u64) -> Vec<(&'static str, Vec<Vec<u64>>)> {
    let presorted: Vec<u64> = (0..N as u64).map(|i| i * 7).collect();
    let reversed: Vec<u64> = (0..N as u64).rev().map(|i| i * 7).collect();
    vec![
        (
            "skew-storm",
            generate_partitioned(Distribution::skew_storm(0.85), N, MACHINES, data_seed),
        ),
        (
            "duplicate-heavy",
            generate_partitioned(Distribution::duplicate_heavy(16), N, MACHINES, data_seed),
        ),
        ("pre-sorted", partition_even(&presorted, MACHINES)),
        ("reverse", partition_even(&reversed, MACHINES)),
        (
            "uniform",
            generate_partitioned(Distribution::Uniform, N, MACHINES, data_seed),
        ),
    ]
}

fn plans(seed: u64) -> Vec<(&'static str, FaultPlan)> {
    vec![
        ("delays", FaultPlan::delays(seed)),
        ("reorders", FaultPlan::reorders(seed)),
        ("drops", FaultPlan::drops(seed)),
        ("straggler", FaultPlan::straggler(seed, 1)),
        ("chaos", FaultPlan::chaos(seed)),
    ]
}

fn flat_sorted(parts: &[Vec<u64>]) -> Vec<u64> {
    let mut all: Vec<u64> = parts.concat();
    all.sort_unstable();
    all
}

fn sort_under(plan: FaultPlan, buffer_bytes: usize, parts: &[Vec<u64>]) -> Vec<u64> {
    let cluster = Cluster::new(
        ClusterConfig::new(MACHINES)
            .workers_per_machine(2)
            .buffer_bytes(buffer_bytes)
            .fault(plan),
    );
    let sorter = DistSorter::default();
    cluster
        .run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data)
        .results
        .concat()
}

#[test]
fn fault_matrix_sorts_exactly() {
    // 5 plans × 5 distributions × 2 buffer sizes = 50 cells, all seeded.
    for (dist_name, parts) in inputs(101) {
        let expect = flat_sorted(&parts);
        for (plan_name, plan) in plans(17) {
            for buffer_bytes in BUFFERS {
                let got = sort_under(plan, buffer_bytes, &parts);
                assert_eq!(
                    got, expect,
                    "cell plan={plan_name} dist={dist_name} buffer={buffer_bytes} corrupted the sort"
                );
            }
        }
    }
}

#[test]
fn chaos_schedule_replays_from_its_seed() {
    // Same seed ⇒ same fault schedule ⇒ same verdict, same traffic, and
    // the same injected schedule. Drop-with-redelivery keeps the totals
    // equal whichever chunks it drops, so the schedule itself is compared:
    // 256-byte buffers cut each stream into several chunks, and a send
    // lane's order of flushes and sends shows which chunks were held back.
    let parts = generate_partitioned(Distribution::skew_storm(0.85), N, MACHINES, 5);
    let run = || {
        let cluster = Cluster::new(
            ClusterConfig::new(MACHINES)
                .workers_per_machine(2)
                .buffer_bytes(256)
                .trace(TraceConfig::enabled())
                .fault(FaultPlan::chaos(99)),
        );
        let sorter = DistSorter::default();
        let parts_ref = &parts;
        cluster.run(|ctx| sorter.sort(ctx, parts_ref[ctx.id()].clone()).data)
    };
    let a = run();
    let b = run();
    assert_eq!(a.results, b.results);
    assert_eq!(a.comm.bytes_sent, b.comm.bytes_sent);
    assert_eq!(a.comm.messages_sent, b.comm.messages_sent);
    assert_eq!(a.comm.exchange.chunks_sent, b.comm.exchange.chunks_sent);
    let schedule = send_schedule(&a);
    assert!(
        schedule.values().any(|lane| held_back(lane)),
        "the plan dropped no chunk mid-stream"
    );
    assert_eq!(
        schedule,
        send_schedule(&b),
        "the injected schedule did not replay"
    );
}

/// A chunk held back and sent behind a later one: two flushes in a row on
/// one send lane.
fn held_back(lane: &[(EventKind, u64)]) -> bool {
    lane.windows(2)
        .any(|w| w[0].0 == EventKind::ChunkFlush && w[1].0 == EventKind::ChunkFlush)
}

#[test]
fn drops_reorder_packed_chunks_without_corrupting_them() {
    // Keys in pairs `2^(8k)` apart (k = 1..=4), pairs `2^40` apart, whole
    // pairs to a machine. 23-byte buffers hold a header and two keys of up
    // to five bytes, so a sorted range packs pair by pair, and each pair's
    // span needs exactly one byte more than `2^(8k) − 1` would. Drop-with-
    // redelivery then sends some of those chunks behind later ones.
    const PAIRS: u64 = N as u64 / 2;
    let keys: Vec<u64> = (0..PAIRS)
        .flat_map(|j| {
            let c = j * 7919 % PAIRS;
            [c << 40, c << 40 | 1 << (8 * (1 + c % 4))]
        })
        .collect();
    let parts = partition_even(&keys, MACHINES);
    let cluster = Cluster::new(
        ClusterConfig::new(MACHINES)
            .workers_per_machine(2)
            .buffer_bytes(23)
            .trace(TraceConfig::enabled())
            .fault(FaultPlan::drops(41)),
    );
    let sorter = DistSorter::default();
    let report = cluster.run(|ctx| sorter.sort(ctx, parts[ctx.id()].clone()).data);
    assert_eq!(report.results.concat(), flat_sorted(&parts));
    let schedule = send_schedule(&report);
    assert!(
        schedule.values().any(|lane| held_back(lane)),
        "the plan dropped no chunk mid-stream"
    );
}

/// Per (machine, lane): the exchange's buffer flushes and fabric sends in
/// emission order, with their byte counts. A chunk the plan drops is a
/// flush with no send behind it, and its redelivery a send with no flush.
fn send_schedule<R>(report: &RunReport<R>) -> BTreeMap<(u32, u32), Vec<(EventKind, u64)>> {
    let trace = report.trace.as_ref().expect("tracing was enabled");
    assert_eq!(
        trace.dropped, 0,
        "the per-machine cap must hold the whole run"
    );
    let mut lanes: BTreeMap<(u32, u32), Vec<(EventKind, u64)>> = BTreeMap::new();
    for e in &trace.events {
        if matches!(e.kind, EventKind::ChunkFlush | EventKind::ChunkSend) {
            lanes
                .entry((e.machine, e.lane))
                .or_default()
                .push((e.kind, e.b));
        }
    }
    lanes
}

#[test]
fn kill_mid_exchange_is_a_structured_error_not_a_hang() {
    // Machine 1 dies partway through the sort's exchange traffic; the run
    // must come back as a structured error within the step timeout, with
    // the packets it stranded counted as residue (not panicking) on the
    // surviving teardown path.
    let parts = generate_partitioned(Distribution::duplicate_heavy(64), N, MACHINES, 7);
    // Machine 1's first mainline receive is the splitter broadcast and the
    // next p − 1 = 3 are the exchange's stream openers, which it takes
    // before any data chunk however skewed the routing is: threshold 3
    // lands among them, after its own openers went out, so the victim
    // always dies mid-exchange.
    let plan = FaultPlan::chaos(31)
        .kill(1, 3)
        .step_timeout(Duration::from_secs(5));
    for buffer_bytes in BUFFERS {
        let cluster = Cluster::new(
            ClusterConfig::new(MACHINES)
                .workers_per_machine(2)
                .buffer_bytes(buffer_bytes)
                .fault(plan),
        );
        let sorter = DistSorter::default();
        let parts_ref = &parts;
        let started = Instant::now();
        let err = cluster
            .try_run(|ctx| sorter.sort(ctx, parts_ref[ctx.id()].clone()).data)
            .expect_err("killed machine must fail the run");
        let elapsed = started.elapsed();
        assert_eq!(err.kind, RunErrorKind::InjectedKill);
        assert_eq!(err.machine, Some(1));
        assert!(
            elapsed < Duration::from_secs(60),
            "survivors must not hang; took {elapsed:?} with {buffer_bytes}-byte buffers"
        );
        // Machine 1 took one opener before it died, and an aborted run
        // takes no more. A machine ships its openers before it receives
        // any, and this seed parks none of the openers to machine 1, so
        // either a second one reached machine 1 or machine 1's opener to a
        // machine that never got to send it one was stranded.
        assert!(
            err.residual >= 1,
            "the victim's openers strand at least one packet; residual {}",
            err.residual
        );
    }
}

#[test]
fn hung_step_times_out_under_the_sorter_closure_shape() {
    // A machine that stalls past the step timeout before the collective
    // (and then returns without it) converts the barrier into a
    // StepTimeout within the configured bound.
    let plan = FaultPlan::enabled(3).step_timeout(Duration::from_millis(250));
    let cluster = Cluster::new(ClusterConfig::new(3).fault(plan));
    let started = Instant::now();
    let err = cluster
        .try_run(|ctx| {
            if ctx.id() == 0 {
                std::thread::sleep(Duration::from_secs(2));
            } else {
                ctx.barrier();
            }
        })
        .expect_err("must time out");
    assert_eq!(err.kind, RunErrorKind::StepTimeout);
    assert!(started.elapsed() < Duration::from_secs(10));
}

#[test]
fn traced_chaos_run_keeps_trace_invariants() {
    // Tracing and fault injection compose: no events dropped at the
    // per-machine cap, and the trace's ChunkSend count must equal the stats
    // counter — the fault plane's park/flush path may not double-count.
    let parts = generate_partitioned(Distribution::skew_storm(0.7), N, MACHINES, 13);
    let cluster = Cluster::new(
        ClusterConfig::new(MACHINES)
            .workers_per_machine(2)
            .buffer_bytes(4096)
            .trace(TraceConfig::enabled())
            .fault(FaultPlan::chaos(55)),
    );
    let sorter = DistSorter::default();
    let parts_ref = &parts;
    let report = cluster.run(|ctx| sorter.sort(ctx, parts_ref[ctx.id()].clone()).data);
    let expect = flat_sorted(&parts);
    assert_eq!(report.results.concat(), expect);
    let trace = report.trace.expect("tracing was enabled");
    assert_eq!(
        trace.dropped, 0,
        "the per-machine cap must hold the whole run"
    );
    let chunk_sends = trace.events_of_kind(EventKind::ChunkSend).count() as u64;
    assert_eq!(chunk_sends, report.comm.exchange.chunks_sent);
}

#[test]
fn try_run_ok_carries_the_full_report() {
    let parts = generate_partitioned(Distribution::Uniform, N, MACHINES, 23);
    let cluster = Cluster::new(
        ClusterConfig::new(MACHINES)
            .workers_per_machine(2)
            .fault(FaultPlan::delays(77)),
    );
    let sorter = DistSorter::default();
    let parts_ref = &parts;
    let report = cluster
        .try_run(|ctx| sorter.sort(ctx, parts_ref[ctx.id()].clone()).data)
        .expect("benign plan must succeed");
    assert_eq!(report.results.concat(), flat_sorted(&parts));
    assert!(report.comm.bytes_sent > 0);
}

/// Runs `f` on a thread of its own and returns what it returns, failing
/// the test if that takes longer than `limit`: a run that hangs fails
/// here instead of stalling the suite.
fn within<R: Send + 'static>(limit: Duration, f: impl FnOnce() -> R + Send + 'static) -> R {
    let (tx, rx) = mpsc::channel();
    let run = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(limit) {
        Ok(out) => out,
        Err(RecvTimeoutError::Timeout) => panic!("the run did not end within {limit:?}"),
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(run.join().expect_err("the thread sent nothing"))
        }
    }
}

/// Machine `id` of `p` in a bare exchange: `100·p` keys, distinct across
/// machines, a hundred for every machine.
fn hundreds(p: usize, id: usize) -> (Vec<u64>, Vec<usize>) {
    let data: Vec<u64> = (0..100 * p as u64)
        .map(|k| k * p as u64 + id as u64)
        .collect();
    let offsets = (0..=p).map(|d| d * 100).collect();
    (data, offsets)
}

#[test]
fn a_parked_opener_is_delivered_behind_its_streams_later_chunks() {
    // Every stream's first message is dropped and parked: with one key a
    // chunk, each opener arrives after the 99 later chunks of its stream,
    // which wait in the receiver's mailbox until it does. Redelivery is the
    // plan's promise, so the run completes, exactly; were an opener
    // stranded, the step deadline would end it in a structured timeout.
    let p = 4;
    let plan = FaultPlan::enabled(5)
        .drop_chunks(1000, 1)
        .step_timeout(Duration::from_secs(10));
    let config = ClusterConfig::new(p)
        .buffer_bytes(1)
        .trace(TraceConfig::enabled())
        .fault(plan);
    let report = within(Duration::from_secs(60), move || {
        Cluster::new(config)
            .try_run(|ctx| {
                let (data, offsets) = hundreds(p, ctx.id());
                ctx.exchange(&data, &offsets)
            })
            .map_err(|err| err.message)
    })
    .expect("a parked opener is redelivered");
    for (dst, (out, bounds)) in report.results.iter().enumerate() {
        assert_eq!(bounds, &vec![0, 100, 200, 300, 400], "machine {dst}");
        for src in 0..p {
            let (data, _) = hundreds(p, src);
            assert_eq!(
                out[src * 100..(src + 1) * 100],
                data[dst * 100..(dst + 1) * 100]
            );
        }
    }
    // Every message still went out once: an opener and 99 chunks a stream.
    assert_eq!(report.comm.messages_sent, (p * (p - 1) * 100) as u64);
    // Each stream's lane shows the parking: its first two flushes (the
    // opener and the chunk after it) came before its first send.
    let trace = report.trace.expect("tracing was enabled");
    assert_eq!(trace.dropped, 0);
    for m in 0..p as u32 {
        for dst in (0..p as u32).filter(|&dst| dst != m) {
            let lane: Vec<EventKind> = trace
                .events
                .iter()
                .filter(|e| e.machine == m && e.lane == 1 + dst)
                .filter(|e| matches!(e.kind, EventKind::ChunkFlush | EventKind::ChunkSend))
                .map(|e| e.kind)
                .collect();
            assert_eq!(lane[..2], [EventKind::ChunkFlush; 2], "{m} → {dst}");
        }
    }
}

#[test]
fn a_machine_that_dies_before_its_openers_fails_the_run() {
    // Machine 1 is killed at its first receive, the splitter-like
    // broadcast before the exchange: it never opens a stream, and the
    // others block waiting for its openers until the abort releases them.
    let p = 4;
    let plan = FaultPlan::enabled(9)
        .kill(1, 1)
        .step_timeout(Duration::from_secs(10));
    let err = within(Duration::from_secs(60), move || {
        Cluster::new(ClusterConfig::new(p).fault(plan))
            .try_run(|ctx| {
                let from_master = ctx.is_master().then(|| vec![7u64]);
                ctx.broadcast_from_master(from_master);
                let (data, offsets) = hundreds(p, ctx.id());
                ctx.exchange(&data, &offsets)
            })
            .map(|_| ())
            .expect_err("the killed machine fails the run")
    });
    assert_eq!(err.kind, RunErrorKind::InjectedKill, "{}", err.message);
    assert_eq!(err.machine, Some(1));
    assert!(
        err.peer_aborts >= 1,
        "the survivors unwind: {}",
        err.message
    );
}

#[test]
fn the_step_deadline_ends_a_wait_for_openers() {
    // Machine 2 reaches the exchange a second late; the others send their
    // openers and wait for its, past a 200 ms deadline.
    let p = 3;
    let plan = FaultPlan::enabled(11).step_timeout(Duration::from_millis(200));
    let err = within(Duration::from_secs(60), move || {
        Cluster::new(ClusterConfig::new(p).fault(plan))
            .try_run(|ctx| {
                if ctx.id() == 2 {
                    std::thread::sleep(Duration::from_secs(1));
                }
                let (data, offsets) = hundreds(p, ctx.id());
                ctx.exchange(&data, &offsets)
            })
            .map(|_| ())
            .expect_err("the late machine fails the run")
    });
    assert_eq!(err.kind, RunErrorKind::StepTimeout, "{}", err.message);
    assert_ne!(err.machine, Some(2), "{}", err.message);
    let waiting = format!(
        "waiting for tag Tag {{ kind: {}, seq: 0 }}",
        kinds::EXCHANGE_OPEN
    );
    assert!(err.message.contains(&waiting), "{}", err.message);
}
