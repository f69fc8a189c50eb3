//! Cluster construction and SPMD execution. A run returns its records
//! typed: a [`RunReport`] on success, a [`RunError`] carrying the same
//! `comm`, `per_dst_bytes` and `steps` when a machine fails.

use crate::comm::CommManager;
use crate::fault::{
    self, ClusterBarrier, FaultInjector, FaultPlan, InjectedFailure, RunError, RunErrorKind,
};
use crate::machine::MachineCtx;
use crate::metrics::{CommStats, CommSummary, StepReport};
use crate::net::NetworkModel;
use crate::sync::Mutex;
use crate::task::TaskManager;
use crate::trace::{TraceCollector, TraceConfig, TraceLog};
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a simulated cluster.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of simulated machines (the paper's "processors").
    pub machines: usize,
    /// Worker threads per machine (the paper uses 32 on real hardware;
    /// scale to your host).
    pub workers_per_machine: usize,
    /// Data-manager read/request buffer size in bytes (§IV-B: 256 KiB).
    pub buffer_bytes: usize,
    /// Network cost model for modeled wire time.
    pub net: NetworkModel,
    /// Structured-tracing configuration (off by default; see
    /// [`crate::trace`]).
    pub trace: TraceConfig,
    /// Fault-injection plan (off by default; see [`crate::fault`]).
    pub fault: FaultPlan,
}

impl ClusterConfig {
    /// A config with `machines` machines and defaults matching the paper
    /// (256 KiB buffers, 56 Gb/s InfiniBand model, 2 workers/machine —
    /// a laptop-friendly stand-in for the paper's 32).
    pub fn new(machines: usize) -> Self {
        assert!(machines > 0, "need at least one machine");
        ClusterConfig {
            machines,
            workers_per_machine: 2,
            buffer_bytes: crate::DEFAULT_BUFFER_BYTES,
            net: NetworkModel::default(),
            trace: TraceConfig::disabled(),
            fault: FaultPlan::disabled(),
        }
    }

    /// Sets the worker thread count per machine.
    pub fn workers_per_machine(mut self, workers: usize) -> Self {
        self.workers_per_machine = workers.max(1);
        self
    }

    /// Sets the data-manager buffer size in bytes.
    pub fn buffer_bytes(mut self, bytes: usize) -> Self {
        self.buffer_bytes = bytes.max(1);
        self
    }

    /// Sets the network cost model.
    pub fn network(mut self, net: NetworkModel) -> Self {
        self.net = net;
        self
    }

    /// Sets the tracing configuration.
    pub fn trace(mut self, trace: TraceConfig) -> Self {
        self.trace = trace;
        self
    }

    /// Sets the fault-injection plan.
    pub fn fault(mut self, fault: FaultPlan) -> Self {
        self.fault = fault;
        self
    }
}

/// Results of one cluster run.
#[derive(Debug)]
pub struct RunReport<R> {
    /// Per-machine return values, indexed by machine id.
    pub results: Vec<R>,
    /// Cluster-wide communication totals for the run, from the
    /// [`CommStats`] cells the fabric and the exchange count into.
    pub comm: CommSummary,
    /// Per-machine step timings, from each machine's
    /// [`MachineCtx::step`] timer.
    pub steps: StepReport,
    /// Wall time from first machine start to last machine finish.
    pub wall_time: Duration,
    /// The merged event trace, when the run's [`TraceConfig`] enabled it.
    pub trace: Option<TraceLog>,
    /// Bytes addressed to each machine, indexed by destination — the
    /// per-receiver skew view behind
    /// [`CommSummary::max_recv_bytes`](crate::metrics::CommSummary).
    pub per_dst_bytes: Vec<u64>,
}

/// A simulated cluster: spawns one OS thread per machine and runs SPMD
/// closures on it. Reusable — each [`Cluster::run`] builds a fresh fabric
/// so runs never share state.
#[derive(Debug, Clone, Copy)]
pub struct Cluster {
    config: ClusterConfig,
}

impl Cluster {
    /// A cluster with the given configuration.
    pub fn new(config: ClusterConfig) -> Self {
        Cluster { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.config
    }

    /// Like [`Cluster::run`], but *moves* one input shard into each
    /// machine instead of making the closure clone from shared state —
    /// the natural shape for "each machine owns its data" workloads.
    ///
    /// `inputs.len()` must equal the machine count.
    pub fn run_partitioned<I, R, F>(&self, inputs: Vec<I>, f: F) -> RunReport<R>
    where
        I: Send,
        R: Send,
        F: Fn(&mut MachineCtx, I) -> R + Sync,
    {
        assert_eq!(
            inputs.len(),
            self.config.machines,
            "need exactly one input shard per machine"
        );
        let slots: Vec<Mutex<Option<I>>> =
            inputs.into_iter().map(|i| Mutex::new(Some(i))).collect();
        let slots_ref = &slots;
        let f = &f;
        self.run(move |ctx| {
            let input = slots_ref[ctx.id()]
                .lock()
                .take()
                .expect("input shard taken twice");
            f(ctx, input)
        })
    }

    /// Runs `f` once per machine (SPMD) and collects results and metrics.
    ///
    /// # Panics
    /// Propagates any machine panic after all machines stop: string
    /// payloads re-panic as `machine thread panicked: {msg}`, typed
    /// payloads (`std::panic::panic_any`) propagate intact via
    /// `resume_unwind`, and injected failures (fault-plan kills and step
    /// timeouts) re-panic with their description. Use
    /// [`Cluster::try_run`] to receive failures as values instead.
    pub fn run<R, F>(&self, f: F) -> RunReport<R>
    where
        R: Send,
        F: Fn(&mut MachineCtx) -> R + Sync,
    {
        match self.run_inner(f) {
            Ok(report) => report,
            Err(failed) => {
                let FailedRun { payload, error } = *failed;
                // Re-panic with the machine's own message (the payload of
                // a joined panic is opaque otherwise), so cluster tests
                // can match on the original diagnostic. Typed payloads
                // (std::panic::panic_any) propagate intact.
                let described = payload.is::<InjectedFailure>()
                    || payload.is::<&str>()
                    || payload.is::<String>();
                if described {
                    panic!("machine thread panicked: {}", error.message);
                }
                std::panic::resume_unwind(payload)
            }
        }
    }

    /// Like [`Cluster::run`], but converts machine failures — panics,
    /// fault-plan kills, step timeouts — into a structured [`RunError`]
    /// instead of panicking. The first failing machine (in machine order,
    /// skipping sympathetic peer aborts) is reported as primary. The error
    /// carries the run's flight record: what moved before the abort, the
    /// steps every machine completed, and the packets still in flight
    /// ([`RunError::residual`]), so tests can assert what a dead machine
    /// stranded.
    // The error is the run's whole post-mortem and is built once per failed
    // run; boxing it would change the signature the benchmark and every
    // caller pin.
    #[allow(clippy::result_large_err)]
    pub fn try_run<R, F>(&self, f: F) -> Result<RunReport<R>, RunError>
    where
        R: Send,
        F: Fn(&mut MachineCtx) -> R + Sync,
    {
        self.run_inner(f).map_err(|failed| failed.error)
    }

    /// The shared engine of [`run`](Cluster::run) and
    /// [`try_run`](Cluster::try_run): spawns the machines, catches each
    /// machine's unwind so the *first* failure aborts the run (instead of
    /// the scope's opaque "a scoped thread panicked"), and classifies the
    /// surviving wreckage.
    fn run_inner<R, F>(&self, f: F) -> Result<RunReport<R>, Box<FailedRun>>
    where
        R: Send,
        F: Fn(&mut MachineCtx) -> R + Sync,
    {
        let p = self.config.machines;
        // ClusterConfig's fields are pub, so a struct-literal config can
        // bypass the machines > 0 assert in ClusterConfig::new.
        assert!(p > 0, "need at least one machine");
        let plan = self.config.fault;
        let stats = Arc::new(CommStats::new(p, self.config.net));
        // The barrier doubles as the run's control plane: the one abort
        // flag and the plan's step deadline.
        let barrier = Arc::new(ClusterBarrier::new(p, plan.step_timeout));
        let injector = plan
            .is_armed()
            .then(|| Arc::new(FaultInjector::new(plan, p, self.config.net)));
        // The collector is the shared epoch for all machines.
        let collector = self.config.trace.enabled.then(|| TraceCollector::new(p));
        let comms = CommManager::fabric_with(
            p,
            stats.clone(),
            barrier.clone(),
            injector.clone(),
            collector.as_ref(),
        );
        let start = Instant::now();

        let mut results: Vec<Option<R>> = (0..p).map(|_| None).collect();
        let mut timers = vec![Vec::new(); p];
        let mut failures: Vec<MachineFailure> = Vec::new();
        {
            let f = &f;
            std::thread::scope(|scope| {
                let mut handles = Vec::with_capacity(p);
                for comm in comms {
                    let machine_id = comm.id();
                    let barrier = barrier.clone();
                    let workers = self.config.workers_per_machine;
                    let buffer_bytes = self.config.buffer_bytes;
                    let injector = injector.clone();
                    handles.push(scope.spawn(move || {
                        // Built outside the unwind boundary, so a machine
                        // that fails still hands back the steps it
                        // completed.
                        let mut ctx = MachineCtx::new(
                            comm,
                            TaskManager::with_fault(workers, machine_id, injector),
                            buffer_bytes,
                        );
                        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| f(&mut ctx)));
                        if outcome.is_err() {
                            // First failure wins the race to abort: every
                            // peer blocked at a barrier or a receive
                            // unwinds promptly. This runs before `ctx`
                            // drops this machine's inbox, so a peer
                            // mid-send here unwinds as `PeerAborted`
                            // instead of failing on the closed link.
                            barrier.abort();
                        }
                        // Dropping the context publishes that this machine
                        // returned: a peer waiting for it, at a barrier or
                        // in a receive, can then find its wait can never
                        // end instead of hanging.
                        (machine_id, outcome, ctx.into_steps())
                    }));
                }
                for h in handles {
                    // The machine body is fully caught above; a panic out
                    // of the wrapper itself is a runtime bug.
                    let (id, outcome, steps) = h.join().expect("machine wrapper panicked");
                    timers[id] = steps;
                    match outcome {
                        Ok(r) => results[id] = Some(r),
                        Err(payload) => failures.push(MachineFailure {
                            machine: id,
                            payload,
                        }),
                    }
                }
            });
        }
        let steps = StepReport {
            per_machine: timers,
        };

        if !failures.is_empty() {
            let is_peer_abort = |fail: &MachineFailure| {
                matches!(
                    fail.payload.downcast_ref::<InjectedFailure>(),
                    Some(InjectedFailure::PeerAborted)
                )
            };
            let peer_aborts = failures.iter().filter(|fl| is_peer_abort(fl)).count();
            // Primary = first real failure in machine order; sympathetic
            // aborts only ever lead if nothing else unwound with a payload.
            let idx = failures
                .iter()
                .position(|fl| !is_peer_abort(fl))
                .unwrap_or(0);
            let primary = failures.swap_remove(idx);
            let (kind, message) = classify(&*primary.payload);
            let error = RunError {
                kind,
                machine: Some(primary.machine),
                message,
                peer_aborts,
                residual: barrier.residual(),
                comm: stats.summary(),
                per_dst_bytes: stats.per_dst_snapshot(),
                steps,
            };
            return Err(Box::new(FailedRun {
                payload: primary.payload,
                error,
            }));
        }

        // Every machine has exited and dropped its context: any packet
        // still unconsumed is a protocol bug the run masked.
        let undelivered = barrier.undelivered();
        assert!(
            undelivered.is_empty(),
            "undelivered packet(s) at fabric teardown: {}",
            fault::describe_undelivered(&undelivered)
        );

        Ok(RunReport {
            results: results
                .into_iter()
                .map(|r| r.expect("missing result"))
                .collect(),
            comm: stats.summary(),
            steps,
            wall_time: start.elapsed(),
            trace: collector.map(|c| c.collect()),
            per_dst_bytes: stats.per_dst_snapshot(),
        })
    }
}

/// One machine's caught unwind.
struct MachineFailure {
    machine: usize,
    payload: Box<dyn Any + Send>,
}

/// A failed run: the primary machine's panic payload (what
/// [`Cluster::run`] re-raises) and its [`RunError`] (what
/// [`Cluster::try_run`] returns).
struct FailedRun {
    payload: Box<dyn Any + Send>,
    error: RunError,
}

/// The [`RunErrorKind`] and message of a machine's panic payload.
fn classify(payload: &(dyn Any + Send)) -> (RunErrorKind, String) {
    match payload.downcast_ref::<InjectedFailure>() {
        Some(injected @ InjectedFailure::Kill { .. }) => {
            (RunErrorKind::InjectedKill, injected.to_string())
        }
        Some(injected @ InjectedFailure::Timeout { .. }) => {
            (RunErrorKind::StepTimeout, injected.to_string())
        }
        Some(injected @ InjectedFailure::PeerAborted) => {
            // Only possible if *every* failure was sympathetic — the
            // primary cause exited without a payload.
            (RunErrorKind::MachinePanic, injected.to_string())
        }
        None => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string());
            (RunErrorKind::MachinePanic, msg)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spmd_closure_sees_identities() {
        let cluster = Cluster::new(ClusterConfig::new(5));
        let report = cluster.run(|ctx| (ctx.id(), ctx.num_machines(), ctx.is_master()));
        for (i, &(id, p, master)) in report.results.iter().enumerate() {
            assert_eq!(id, i);
            assert_eq!(p, 5);
            assert_eq!(master, i == 0);
        }
    }

    #[test]
    fn gather_and_broadcast_roundtrip() {
        let cluster = Cluster::new(ClusterConfig::new(4));
        let report = cluster.run(|ctx| {
            let gathered = ctx.gather_to_master(vec![ctx.id() as u64 * 10]);
            let splitters = if ctx.is_master() {
                let all: Vec<u64> = gathered.unwrap().concat();
                Some(all)
            } else {
                None
            };
            ctx.broadcast_from_master(splitters)
        });
        for r in &report.results {
            assert_eq!(*r, vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn run_partitioned_moves_inputs() {
        let cluster = Cluster::new(ClusterConfig::new(3));
        let inputs: Vec<Vec<u64>> = (0..3).map(|m| vec![m as u64; m + 1]).collect();
        let report = cluster.run_partitioned(inputs, |ctx, shard| {
            assert_eq!(shard.len(), ctx.id() + 1);
            shard.iter().sum::<u64>()
        });
        assert_eq!(report.results, vec![0, 2, 6]);
    }

    #[test]
    #[should_panic(expected = "one input shard per machine")]
    fn run_partitioned_rejects_wrong_shard_count() {
        let cluster = Cluster::new(ClusterConfig::new(3));
        let _ = cluster.run_partitioned(vec![1u8], |_, _| ());
    }

    #[test]
    fn all_to_all_transposes() {
        let cluster = Cluster::new(ClusterConfig::new(3));
        let report = cluster.run(|ctx| {
            let parts: Vec<Vec<u64>> = (0..3)
                .map(|dst| vec![(ctx.id() * 100 + dst) as u64])
                .collect();
            ctx.all_to_all(parts)
        });
        // Machine j receives from src i the value i*100 + j.
        for (j, rec) in report.results.iter().enumerate() {
            for (i, v) in rec.iter().enumerate() {
                assert_eq!(v[0], (i * 100 + j) as u64);
            }
        }
    }

    #[test]
    fn all_gather_everyone_sees_all() {
        let cluster = Cluster::new(ClusterConfig::new(4));
        let report = cluster.run(|ctx| ctx.all_gather(vec![ctx.id() as u32]));
        for rec in &report.results {
            let flat: Vec<u32> = rec.concat();
            assert_eq!(flat, vec![0, 1, 2, 3]);
        }
    }

    #[test]
    fn exchange_by_offsets_redistributes() {
        // Each machine holds 0..30 + id*1000 marker-free values and sends
        // thirds to machines 0,1,2. Receivers must see source-ordered runs.
        let cluster = Cluster::new(ClusterConfig::new(3));
        let report = cluster.run(|ctx| {
            let id = ctx.id() as u64;
            let data: Vec<u64> = (0..30).map(|i| id * 100 + i).collect();
            let offsets = vec![0, 10, 20, 30];
            ctx.exchange(&data, &offsets)
        });
        for (m, (out, bounds)) in report.results.iter().enumerate() {
            assert_eq!(bounds, &vec![0, 10, 20, 30]);
            assert_eq!(out.len(), 30);
            for src in 0..3 {
                let run = &out[bounds[src]..bounds[src + 1]];
                let expect: Vec<u64> = (0..10)
                    .map(|i| src as u64 * 100 + m as u64 * 10 + i)
                    .collect();
                assert_eq!(run, expect.as_slice(), "machine {m} run from {src}");
            }
        }
    }

    #[test]
    fn exchange_with_empty_ranges() {
        // Machine 0 sends everything to machine 1; others send nothing.
        let cluster = Cluster::new(ClusterConfig::new(3));
        let report = cluster.run(|ctx| {
            let data: Vec<u64> = if ctx.id() == 0 {
                (0..100).collect()
            } else {
                vec![]
            };
            let offsets = if ctx.id() == 0 {
                vec![0, 0, 100, 100]
            } else {
                vec![0, 0, 0, 0]
            };
            ctx.exchange(&data, &offsets)
        });
        assert!(report.results[0].0.is_empty());
        assert_eq!(report.results[1].0, (0..100).collect::<Vec<u64>>());
        assert!(report.results[2].0.is_empty());
    }

    #[test]
    fn exchange_chunks_through_tiny_buffers() {
        // Force many chunk flushes: a 64-byte buffer packs 51 consecutive
        // u64 keys (one byte each behind a 13-byte header).
        let cluster = Cluster::new(ClusterConfig::new(2).buffer_bytes(64));
        let report = cluster.run(|ctx| {
            let id = ctx.id() as u64;
            let data: Vec<u64> = (0..1000).map(|i| id * 10_000 + i).collect();
            // Both machines keep their low half and send the high half.
            let offsets = vec![0, 500, 1000];
            ctx.exchange(&data, &offsets)
        });
        let (out0, b0) = &report.results[0];
        assert_eq!(b0, &vec![0, 500, 1000]);
        assert_eq!(out0[..500], (0..500).collect::<Vec<u64>>()[..]);
        assert_eq!(out0[500..], (10_000..10_500).collect::<Vec<u64>>()[..]);
        // Chunking must not change totals but must raise message counts.
        let per_stream = 500u64.div_ceil(51);
        assert_eq!(report.comm.exchange.chunks_sent, 2 * per_stream);
        assert_eq!(report.comm.messages_sent, 2 * per_stream);
    }

    /// Runs a two-machine exchange of `data` split in half, one element a
    /// chunk, in which machine 1 first slips machine 0 a rogue chunk —
    /// `frames` and `rest` at `offset` of its stream, with the exchange's
    /// data tag (its collective sequence number, 0) — and returns machine
    /// 0's failure message. Machine 0 takes it after machine 1's opener,
    /// ahead of the stream's one honest later chunk.
    fn rogue_chunk_message<W: crate::wire::Wire>(
        data: [W; 4],
        offset: usize,
        frames: Vec<u8>,
        rest: Vec<W::Rest>,
    ) -> String {
        let err = Cluster::new(ClusterConfig::new(2).buffer_bytes(1))
            .try_run(|ctx| {
                if ctx.id() == 1 {
                    let tag = crate::comm::Tag {
                        kind: crate::comm::kinds::EXCHANGE_DATA,
                        seq: 0,
                    };
                    let sender = ctx.comm_mut().sender();
                    sender.send_offset_chunk(0, tag, offset, frames.clone(), rest.clone());
                }
                ctx.exchange(&data, &[0, 2, 4]).1
            })
            .expect_err("machine 0 must refuse the chunk");
        assert_eq!(err.machine, Some(0), "{}", err.message);
        err.message
    }

    /// One width-0 frame of `n` keys equal to 9.
    fn bare_frame(n: u8) -> Vec<u8> {
        let mut frame = vec![0u8; 13];
        frame[0] = 9;
        frame[8] = n;
        frame
    }

    #[test]
    fn a_raw_chunk_past_the_output_is_refused() {
        // Machine 1's stream to machine 0 is 2 elements; a chunk addressed
        // at 5 starts past it, whatever it holds.
        let data = [(1u64, 1u32), (2, 2), (3, 3), (4, 4)];
        let message = rogue_chunk_message(data, 5, bare_frame(2), vec![((), 7u32); 2]);
        let expected = "chunk from machine 1 at stream offset 5 overruns its opener's counts: \
                        its stream holds 2 keys";
        assert!(message.contains(expected), "{message}");
    }

    #[test]
    fn a_packed_chunk_past_its_run_is_refused_naming_its_source() {
        // One width-0 frame of two keys (9, 9) at offset 1 of a 2-key run.
        let message = rogue_chunk_message([1u64, 2, 3, 4], 1, bare_frame(2), vec![(); 2]);
        let expected = "chunk from machine 1 at stream offset 1 overruns its opener's counts: \
                        2 keys, 1 left in its run";
        assert!(message.contains(expected), "{message}");
    }

    #[test]
    fn a_chunk_whose_rest_column_is_short_is_refused_naming_its_frame() {
        // Two keys in the frames, one value beside them.
        let data = [(1u64, 1u32), (2, 2), (3, 3), (4, 4)];
        let message = rogue_chunk_message(data, 0, bare_frame(2), vec![((), 7u32)]);
        let expected = "chunk frame 0 reaches key 2 of a rest column of 1";
        assert!(message.contains(expected), "{message}");
    }

    #[test]
    fn single_machine_cluster_works() {
        let cluster = Cluster::new(ClusterConfig::new(1));
        let report = cluster.run(|ctx| {
            let g = ctx.gather_to_master(vec![7u8]).unwrap();
            let b = ctx.broadcast_from_master(Some(vec![1u8]));
            let a = ctx.all_to_all(vec![vec![9u8]]);
            let (out, bounds) = ctx.exchange(&[1u64, 2, 3], &[0, 3]);
            (g, b, a, out, bounds)
        });
        let (g, b, a, out, bounds) = &report.results[0];
        assert_eq!(g[0], vec![7]);
        assert_eq!(b, &vec![1]);
        assert_eq!(a[0], vec![9]);
        assert_eq!(out, &vec![1, 2, 3]);
        assert_eq!(bounds, &vec![0, 3]);
        assert_eq!(report.comm.bytes_sent, 0);
    }

    #[test]
    fn step_timers_collected() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let report = cluster.run(|ctx| {
            ctx.step("compute", |_| {
                std::thread::sleep(Duration::from_millis(5));
            });
        });
        assert!(report.steps.max_across_machines("compute") >= Duration::from_millis(5));
        assert_eq!(report.steps.step_names(), vec!["compute"]);
    }

    #[test]
    fn consecutive_collectives_do_not_cross_talk() {
        // A fast machine racing ahead to collective #2 must not have its
        // packets consumed by a slow machine still in collective #1.
        let cluster = Cluster::new(ClusterConfig::new(3));
        let report = cluster.run(|ctx| {
            if ctx.id() == 2 {
                std::thread::sleep(Duration::from_millis(10));
            }
            let first = ctx.all_gather(vec![ctx.id() as u64]);
            let second = ctx.all_gather(vec![ctx.id() as u64 + 100]);
            (first, second)
        });
        for (first, second) in &report.results {
            assert_eq!(first.concat(), vec![0, 1, 2]);
            assert_eq!(second.concat(), vec![100, 101, 102]);
        }
    }

    #[test]
    fn disabled_tracing_yields_no_log() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let report = cluster.run(|ctx| {
            ctx.step("noop", |_| {});
            ctx.barrier();
        });
        assert!(report.trace.is_none());
    }

    #[test]
    fn enabled_tracing_captures_steps_barriers_and_exchange() {
        const BARRIERS: u64 = 3;
        let cluster = Cluster::new(ClusterConfig::new(3).trace(TraceConfig::enabled()));
        let report = cluster.run(|ctx| {
            ctx.barrier();
            ctx.step("scatter", |ctx| {
                let id = ctx.id() as u64;
                let data: Vec<u64> = (0..300).map(|i| id * 1000 + i).collect();
                let offsets = vec![0, 100, 200, 300];
                ctx.exchange(&data, &offsets)
            });
            ctx.barrier();
            ctx.barrier();
        });
        let log = report.trace.expect("tracing was enabled");
        assert_eq!(log.machines, 3);
        assert_eq!(log.dropped, 0, "the per-machine cap must hold this run");
        use crate::trace::EventKind;
        for m in 0..3u32 {
            // Barrier k is the k-th barrier span of each machine.
            let indices: Vec<u64> = log
                .events_of_kind(EventKind::Barrier)
                .filter(|e| e.machine == m)
                .map(|e| e.a)
                .collect();
            assert_eq!(indices, (0..BARRIERS).collect::<Vec<u64>>(), "machine {m}");
        }
        assert_eq!(log.barrier_skews().len() as u64, BARRIERS);
        for m in 0..3u32 {
            assert!(
                log.events_of_kind(EventKind::Step).any(|e| e.machine == m),
                "machine {m} has a step span"
            );
            assert!(
                log.events_of_kind(EventKind::Barrier)
                    .any(|e| e.machine == m),
                "machine {m} has a barrier span"
            );
            assert!(
                log.events_of_kind(EventKind::ChunkSend)
                    .any(|e| e.machine == m),
                "machine {m} sent chunks"
            );
            assert!(
                log.events_of_kind(EventKind::ChunkRecv)
                    .any(|e| e.machine == m),
                "machine {m} received chunks"
            );
            assert!(
                log.events_of_kind(EventKind::ChunkPlace)
                    .any(|e| e.machine == m),
                "machine {m} placed chunks"
            );
        }
        assert_eq!(log.step_gantt().len(), 3);
        assert!(log.step_gantt().iter().all(|r| r.name == "scatter"));
        assert!(!log.per_destination_byte_timelines().is_empty());
        // The exported JSON is non-trivial.
        let json = log.to_chrome_json();
        assert!(json.contains("\"name\":\"scatter\""));
    }

    #[test]
    fn comm_bytes_scale_with_payload() {
        let cluster = Cluster::new(ClusterConfig::new(2));
        let small = cluster.run(|ctx| {
            let _ = ctx.all_gather(vec![0u64; 10]);
        });
        let big = cluster.run(|ctx| {
            let _ = ctx.all_gather(vec![0u64; 10_000]);
        });
        assert!(big.comm.bytes_sent > 100 * small.comm.bytes_sent);
    }
}
