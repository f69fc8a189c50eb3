//! Deterministic, seed-driven fault injection for the simulated cluster.
//!
//! The paper's central robustness claim (§IV) is that the asynchronous,
//! buffer-chunked exchange tolerates slow machines without idling or
//! deadlock. This module turns that claim into something a test can
//! attack on purpose: a [`FaultPlan`] rides on
//! [`ClusterConfig`](crate::cluster::ClusterConfig) (off by default, one
//! branch per site when disabled, exactly like
//! [`TraceConfig`](crate::trace::TraceConfig)) and arms the runtime's
//! existing layers with injected adversity:
//!
//! - **`CommSender`** — per-chunk send delays with deterministic jitter
//!   derived from the [`NetworkModel`]'s modeled wire time, and bounded
//!   drop-with-redelivery (a chunk's first delivery attempt is parked and
//!   re-sent behind the next chunk of its stream, or at stream end — the
//!   offset-addressed §IV-C protocol must absorb the reordering).
//! - **`CommManager`** — reordering within the mailbox: when several
//!   early arrivals are parked under one tag, the delivery order is
//!   shuffled by the seed instead of FIFO.
//! - **`TaskManager`** — straggler workers: every task pickup on a
//!   designated machine is delayed, and steps can be paused at their
//!   boundary (pause/resume) on any machine.
//! - **`Cluster`** — a machine can be killed mid-step via an injected
//!   panic, and a configurable per-step timeout converts a hung barrier
//!   or a starved receive into a structured [`RunError`] through
//!   [`Cluster::try_run`](crate::cluster::Cluster::try_run) instead of a
//!   wedged process.
//!
//! # Determinism contract
//!
//! Every injection decision is a pure function of the plan's `seed`, the
//! site (delay / drop / reorder / pause / pickup), and that site's own
//! event index — e.g. "the 7th chunk of the 2→0 stream". Per-stream chunk
//! indices are deterministic because each (src, dst) stream is produced
//! sequentially by one send task, so a failing chaos schedule replays
//! exactly from its seed. Sites whose event index depends on OS
//! scheduling (worker pickup order, the victim's Nth receive) still draw
//! the same decision *sequence* from the seed; the verdicts the chaos
//! harness asserts (sorted output, checker quiescence, structured errors)
//! are schedule-independent by design.
//!
//! # Timeout semantics
//!
//! `step_timeout` bounds every blocking wait a machine performs inside a
//! step: barrier waits and fabric receives. When it elapses, the waiter
//! marks the run aborted (so every peer unwinds promptly instead of
//! hanging), and [`Cluster::try_run`](crate::cluster::Cluster::try_run)
//! reports a [`RunErrorKind::StepTimeout`]. That error names the machine
//! whose wait ran out — a waiter, not the machine it waited for; the
//! holdout is the slowest machine of a step in [`RunError::steps`]. Without
//! a plan, receives keep the legacy two-minute protocol-bug guard and
//! barriers never time out.

use crate::checker::ResidualReport;
use crate::comm::Tag;
use crate::metrics::{CommSummary, StepReport};
use crate::net::NetworkModel;
use crate::sync::{Condvar, Mutex};
use std::any::Any;
use std::collections::HashMap;
// Monotonic counters only (never gate control flow): plain std atomics,
// same policy as `metrics` (see `sync` module docs). The abort flag *is*
// control flow but is intentionally racy-read (a late observer just
// unwinds one poll later).
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deterministic fault-injection plan. All probabilities are in
/// permille (0–1000) so the plan stays `Copy`/`Eq`-friendly; every
/// decision derives from `seed` (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master switch. `false` (the default) keeps every fault site at one
    /// branch of cost.
    pub enabled: bool,
    /// Seed all injection decisions derive from.
    pub seed: u64,
    /// Probability (‰) that an exchange chunk's send is delayed.
    pub chunk_delay_permille: u32,
    /// Upper bound of the uniform component of a chunk delay, in µs. The
    /// delay additionally rides on the network model's jittered wire time
    /// for the chunk ([`NetworkModel::jittered_packet_time`]).
    pub chunk_delay_max_micros: u64,
    /// Probability (‰) that a parked mailbox queue is drained out of
    /// order instead of FIFO.
    pub reorder_permille: u32,
    /// Probability (‰) that a chunk's first delivery attempt is "dropped"
    /// (parked at the sender and redelivered behind the next chunk of its
    /// stream, or at stream end).
    pub drop_permille: u32,
    /// Bound on drop-with-redelivery events per (src, dst) stream.
    pub max_drops_per_stream: u64,
    /// Machine whose workers straggle (every task pickup delayed).
    pub straggler_machine: Option<usize>,
    /// Upper bound of the per-pickup straggler delay, in µs.
    pub straggler_delay_micros: u64,
    /// Probability (‰) that a machine pauses at a step boundary.
    pub step_pause_permille: u32,
    /// Upper bound of a step-boundary pause, in µs.
    pub step_pause_micros: u64,
    /// Machine to kill via an injected panic.
    pub kill_machine: Option<usize>,
    /// Fault-point crossings (receives) on the victim before the kill
    /// fires — letting tests place the kill mid-exchange.
    pub kill_after_events: u64,
    /// Per-step timeout: bounds barrier waits and fabric receives, and
    /// converts a hung run into a structured [`RunError`] under
    /// [`Cluster::try_run`](crate::cluster::Cluster::try_run).
    pub step_timeout: Option<Duration>,
}

impl FaultPlan {
    /// The default: no fault plane at all.
    pub fn disabled() -> Self {
        FaultPlan {
            enabled: false,
            seed: 0,
            chunk_delay_permille: 0,
            chunk_delay_max_micros: 0,
            reorder_permille: 0,
            drop_permille: 0,
            max_drops_per_stream: 0,
            straggler_machine: None,
            straggler_delay_micros: 0,
            step_pause_permille: 0,
            step_pause_micros: 0,
            kill_machine: None,
            kill_after_events: 0,
            step_timeout: None,
        }
    }

    /// An armed plan with no faults configured yet; chain the builder
    /// methods below to add adversity.
    pub fn enabled(seed: u64) -> Self {
        FaultPlan {
            enabled: true,
            seed,
            ..FaultPlan::disabled()
        }
    }

    /// Preset: delayed chunks (15% of chunks, ≤ 200 µs + jittered wire
    /// time each).
    pub fn delays(seed: u64) -> Self {
        FaultPlan::enabled(seed).chunk_delay(150, 200)
    }

    /// Preset: mailbox reordering on 40% of multi-entry drains.
    pub fn reorders(seed: u64) -> Self {
        FaultPlan::enabled(seed).reorder(400)
    }

    /// Preset: bounded drop-with-redelivery on 20% of chunks.
    pub fn drops(seed: u64) -> Self {
        FaultPlan::enabled(seed).drop_chunks(200, 64)
    }

    /// Preset: one straggler machine (every task pickup ≤ 300 µs late,
    /// every step boundary pausable).
    pub fn straggler(seed: u64, machine: usize) -> Self {
        FaultPlan::enabled(seed)
            .straggle(machine, 300)
            .step_pause(500, 400)
    }

    /// Preset: everything except kills — delays, reordering, drops,
    /// a straggler on machine 0, and step pauses.
    pub fn chaos(seed: u64) -> Self {
        FaultPlan::enabled(seed)
            .chunk_delay(100, 150)
            .reorder(300)
            .drop_chunks(120, 32)
            .straggle(0, 150)
            .step_pause(250, 200)
    }

    /// Arms per-chunk send delays.
    pub fn chunk_delay(mut self, permille: u32, max_micros: u64) -> Self {
        self.chunk_delay_permille = permille.min(1000);
        self.chunk_delay_max_micros = max_micros;
        self
    }

    /// Arms mailbox reordering.
    pub fn reorder(mut self, permille: u32) -> Self {
        self.reorder_permille = permille.min(1000);
        self
    }

    /// Arms bounded drop-with-redelivery.
    pub fn drop_chunks(mut self, permille: u32, max_per_stream: u64) -> Self {
        self.drop_permille = permille.min(1000);
        self.max_drops_per_stream = max_per_stream;
        self
    }

    /// Disarms drops (keeps everything else) — the configuration the
    /// output-equivalence property test sweeps.
    pub fn without_drops(mut self) -> Self {
        self.drop_permille = 0;
        self.max_drops_per_stream = 0;
        self
    }

    /// Makes `machine`'s workers straggle on every task pickup.
    pub fn straggle(mut self, machine: usize, delay_micros: u64) -> Self {
        self.straggler_machine = Some(machine);
        self.straggler_delay_micros = delay_micros;
        self
    }

    /// Arms step-boundary pauses (pause/resume) on every machine.
    pub fn step_pause(mut self, permille: u32, max_micros: u64) -> Self {
        self.step_pause_permille = permille.min(1000);
        self.step_pause_micros = max_micros;
        self
    }

    /// Kills `machine` with an injected panic at its `after_events`-th
    /// fault-point crossing (receive).
    pub fn kill(mut self, machine: usize, after_events: u64) -> Self {
        self.kill_machine = Some(machine);
        self.kill_after_events = after_events;
        self
    }

    /// Bounds every barrier wait and fabric receive by `timeout`.
    pub fn step_timeout(mut self, timeout: Duration) -> Self {
        self.step_timeout = Some(timeout);
        self
    }

    /// `true` when any fault (not just the master switch) is armed.
    pub fn is_armed(&self) -> bool {
        self.enabled
            && (self.chunk_delay_permille > 0
                || self.reorder_permille > 0
                || self.drop_permille > 0
                || self.straggler_machine.is_some()
                || self.step_pause_permille > 0
                || self.kill_machine.is_some()
                || self.step_timeout.is_some())
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::disabled()
    }
}

/// SplitMix64 finalizer: the one hash every injection decision derives
/// from. Public so tests can predict schedules from seeds.
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// Injection sites, folded into the hash so the same event index draws
/// independent decisions per site.
mod site {
    pub const DELAY: u64 = 1;
    pub const DELAY_LEN: u64 = 2;
    pub const REORDER: u64 = 3;
    pub const REORDER_PICK: u64 = 4;
    pub const DROP: u64 = 5;
    pub const PAUSE: u64 = 6;
    pub const PAUSE_LEN: u64 = 7;
    pub const PICKUP: u64 = 8;
}

fn decision(seed: u64, site: u64, stream: u64, seq: u64) -> u64 {
    mix64(seed ^ mix64(site ^ mix64(stream.wrapping_mul(0x2545f4914f6cdd1d) ^ seq)))
}

fn chance(seed: u64, site: u64, stream: u64, seq: u64, permille: u32) -> bool {
    permille > 0 && decision(seed, site, stream, seq) % 1000 < permille as u64
}

/// A chunk whose first delivery attempt was "dropped": parked at the
/// sender, re-sent behind the next chunk of its stream or at stream end.
pub(crate) struct HeldChunk {
    pub(crate) wire_bytes: usize,
    pub(crate) payload: Box<dyn Any + Send>,
}

/// Typed panic payload for injected failures. [`Cluster::try_run`]
/// converts these into [`RunError`]s; [`Cluster::run`] re-panics with the
/// display form.
///
/// [`Cluster::try_run`]: crate::cluster::Cluster::try_run
/// [`Cluster::run`]: crate::cluster::Cluster::run
#[derive(Debug)]
pub(crate) enum InjectedFailure {
    /// The plan killed this machine.
    Kill { machine: usize },
    /// A step timeout elapsed at a barrier or a receive.
    Timeout { machine: usize, context: String },
    /// A peer failed first; this machine unwound in sympathy.
    PeerAborted,
}

impl std::fmt::Display for InjectedFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InjectedFailure::Kill { machine } => {
                write!(f, "fault plan killed machine {machine}")
            }
            InjectedFailure::Timeout { machine, context } => {
                write!(f, "machine {machine}: step timeout {context}")
            }
            InjectedFailure::PeerAborted => write!(f, "peer machine failed; run aborted"),
        }
    }
}

/// Why [`Cluster::try_run`](crate::cluster::Cluster::try_run) failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunErrorKind {
    /// A machine's SPMD closure (or the runtime under it) panicked.
    MachinePanic,
    /// The fault plan's kill fired.
    InjectedKill,
    /// The configured per-step timeout elapsed at a barrier or receive.
    StepTimeout,
}

/// A structured run failure: what failed, where, and the run's flight
/// record — what moved before the abort, the steps every machine
/// completed, and what the protocol checker's ledger still held when the
/// surviving machines tore down.
#[derive(Debug, Clone)]
pub struct RunError {
    /// Failure class.
    pub kind: RunErrorKind,
    /// Machine the primary failure was observed on.
    pub machine: Option<usize>,
    /// The primary failure's message (panic payload or injected-failure
    /// description).
    pub message: String,
    /// Peers that unwound in sympathy after the primary failure.
    pub peer_aborts: usize,
    /// Checker-ledger debris at teardown (in-flight packets / chunk
    /// custody the dead machine stranded). `None` in builds without the
    /// checker. A failed run legitimately strands state; the surviving
    /// teardown path reports it here instead of panicking.
    pub residual: Option<ResidualReport>,
    /// Communication totals up to the abort, as on
    /// [`RunReport::comm`](crate::cluster::RunReport::comm).
    pub comm: CommSummary,
    /// Bytes addressed to each machine up to the abort, indexed by
    /// destination; they sum to `comm.bytes_sent`.
    pub per_dst_bytes: Vec<u64>,
    /// The steps each machine completed, including machines that unwound
    /// (a step cut short by the failure is not recorded).
    /// [`StepReport::slowest_machine`] names the holdout.
    pub steps: StepReport,
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let kind = match self.kind {
            RunErrorKind::MachinePanic => "machine panic",
            RunErrorKind::InjectedKill => "injected kill",
            RunErrorKind::StepTimeout => "step timeout",
        };
        match self.machine {
            Some(m) => write!(f, "cluster run failed ({kind} on machine {m}): {}", self.message),
            None => write!(f, "cluster run failed ({kind}): {}", self.message),
        }
    }
}

impl std::error::Error for RunError {}

/// Outcome of one [`ClusterBarrier::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BarrierWait {
    /// Everyone arrived; proceed.
    Released,
    /// A peer aborted the run; unwind.
    Aborted,
    /// This waiter's step timeout elapsed first; it has already marked
    /// the run aborted on behalf of everyone.
    TimedOut,
}

struct BarrierGen {
    arrived: usize,
    generation: u64,
}

/// An abortable, optionally timeout-bounded barrier. Replaces
/// `std::sync::Barrier` in [`Cluster`](crate::cluster::Cluster) runs so a
/// dead machine can never wedge the survivors: aborting wakes every
/// waiter, and (with a plan-configured `step_timeout`) a barrier nobody
/// completes converts into a structured failure instead of a hang.
///
/// Built on [`crate::sync`] so loom builds compile; under loom the
/// timeout degrades to a plain wait (cluster runs are not loom-modeled).
pub(crate) struct ClusterBarrier {
    n: usize,
    timeout: Option<Duration>,
    aborted: AtomicBool,
    state: Mutex<BarrierGen>,
    cv: Condvar,
}

impl ClusterBarrier {
    pub(crate) fn new(n: usize, timeout: Option<Duration>) -> Self {
        ClusterBarrier {
            n,
            timeout,
            aborted: AtomicBool::new(false),
            state: Mutex::new(BarrierGen {
                arrived: 0,
                generation: 0,
            }),
            cv: Condvar::new(),
        }
    }

    /// Waits for all `n` machines (or an abort, or the timeout).
    pub(crate) fn wait(&self) -> BarrierWait {
        let mut g = self.state.lock();
        if self.aborted.load(Ordering::Acquire) {
            return BarrierWait::Aborted;
        }
        g.arrived += 1;
        if g.arrived == self.n {
            g.arrived = 0;
            g.generation = g.generation.wrapping_add(1);
            self.cv.notify_all();
            return BarrierWait::Released;
        }
        let gen = g.generation;
        // Wall clock only arms the abort timeout; it never orders replayed
        // events.
        let deadline = self.timeout.map(|t| Instant::now() + t);
        loop {
            if self.aborted.load(Ordering::Acquire) {
                return BarrierWait::Aborted;
            }
            if g.generation != gen {
                return BarrierWait::Released;
            }
            match deadline {
                // Condvar wait on the barrier's own mutex — the guard is
                // released for the wait; no other lock is held.
                None => g = self.cv.wait(g),
                Some(d) => {
                    // Timeout-expiry check — aborts the run, never feeds
                    // replayed ordering.
                    let now = Instant::now();
                    if now >= d {
                        // This generation can never complete: a peer died
                        // or stalled past the plan's budget. Abort the run
                        // so every machine unwinds instead of hanging.
                        self.aborted.store(true, Ordering::Release);
                        self.cv.notify_all();
                        return BarrierWait::TimedOut;
                    }
                    let (g2, _timed_out) = self.cv.wait_for(g, d - now);
                    g = g2;
                }
            }
        }
    }

    /// Marks the run aborted and wakes every barrier waiter. Idempotent.
    pub(crate) fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        // Taking the lock pairs the store with any waiter that checked the
        // flag and is about to park — no lost wakeup.
        let _g = self.state.lock();
        self.cv.notify_all();
    }

    /// `true` once any machine has failed (or a timeout fired).
    pub(crate) fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }
}

/// The armed fault plane of one cluster run: the plan plus per-site event
/// counters and the parked-chunk table. Shared (`Arc`) by every machine's
/// sender, receiver, task manager, and context.
pub struct FaultInjector {
    plan: FaultPlan,
    p: usize,
    net: NetworkModel,
    control: Arc<ClusterBarrier>,
    /// Per-(src, dst) chunk sequence numbers, `src * p + dst`.
    stream_seq: Vec<AtomicU64>,
    /// Drop-with-redelivery events consumed per (src, dst) stream.
    drops_done: Vec<AtomicU64>,
    /// Per-machine mainline fault-point crossings (kill countdown).
    events: Vec<AtomicU64>,
    /// Per-machine step-boundary counters.
    steps: Vec<AtomicU64>,
    /// Per-machine worker task-pickup counters.
    pickups: Vec<AtomicU64>,
    /// Chunks parked by drop-with-redelivery, keyed (src, dst, tag).
    held: Mutex<HashMap<(usize, usize, Tag), HeldChunk>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("plan", &self.plan)
            .field("machines", &self.p)
            .finish_non_exhaustive()
    }
}

impl FaultInjector {
    pub(crate) fn new(plan: FaultPlan, p: usize, net: NetworkModel, control: Arc<ClusterBarrier>) -> Self {
        let counters = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        FaultInjector {
            plan,
            p,
            net,
            control,
            stream_seq: counters(p * p),
            drops_done: counters(p * p),
            events: counters(p),
            steps: counters(p),
            pickups: counters(p),
            held: Mutex::new(HashMap::new()),
        }
    }

    /// The plan this injector executes.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    fn stream(&self, src: usize, dst: usize) -> usize {
        src * self.p + dst
    }

    /// `true` once the run is aborted (a peer failed); senders drop
    /// packets instead of panicking on torn-down links.
    pub(crate) fn is_aborted(&self) -> bool {
        self.control.is_aborted()
    }

    /// Timeout for one blocking receive.
    pub(crate) fn recv_timeout(&self) -> Option<Duration> {
        self.plan.step_timeout
    }

    /// Next sequence number of the (src, dst) chunk stream.
    pub(crate) fn next_chunk_seq(&self, src: usize, dst: usize) -> u64 {
        self.stream_seq[self.stream(src, dst)].fetch_add(1, Ordering::Relaxed)
    }

    /// The injected delay for chunk `seq` of the (src, dst) stream, if
    /// any: a seed-chosen uniform component plus the network model's
    /// jittered wire time for the chunk.
    pub(crate) fn chunk_send_delay(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        wire_bytes: usize,
    ) -> Option<Duration> {
        let stream = self.stream(src, dst) as u64;
        if !chance(self.plan.seed, site::DELAY, stream, seq, self.plan.chunk_delay_permille) {
            return None;
        }
        let h = decision(self.plan.seed, site::DELAY_LEN, stream, seq);
        let uniform = Duration::from_micros(h % (self.plan.chunk_delay_max_micros + 1));
        Some(uniform + self.net.jittered_packet_time(wire_bytes, h))
    }

    /// Whether chunk `seq` of the (src, dst) stream should have its first
    /// delivery attempt dropped (bounded per stream).
    pub(crate) fn should_drop_chunk(&self, src: usize, dst: usize, seq: u64) -> bool {
        if self.plan.drop_permille == 0 {
            return false;
        }
        let s = self.stream(src, dst);
        if self.drops_done[s].load(Ordering::Relaxed) >= self.plan.max_drops_per_stream {
            return false;
        }
        if chance(self.plan.seed, site::DROP, s as u64, seq, self.plan.drop_permille) {
            self.drops_done[s].fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Parks a dropped chunk; returns a previously parked chunk of the
    /// same stream, which the caller must send now (at most one chunk is
    /// ever held back per stream).
    pub(crate) fn park_chunk(
        &self,
        src: usize,
        dst: usize,
        tag: Tag,
        wire_bytes: usize,
        payload: Box<dyn Any + Send>,
    ) -> Option<HeldChunk> {
        self.held
            .lock()
            .insert((src, dst, tag), HeldChunk { wire_bytes, payload })
    }

    /// Takes the parked chunk of a stream for redelivery, if any.
    pub(crate) fn take_held(&self, src: usize, dst: usize, tag: Tag) -> Option<HeldChunk> {
        self.held.lock().remove(&(src, dst, tag))
    }

    /// Index to drain from a parked mailbox queue of length `len`
    /// (`recv_seq` is the receiver's drain counter). 0 = FIFO.
    pub(crate) fn mailbox_pick(&self, machine: usize, len: usize, recv_seq: u64) -> usize {
        if !chance(
            self.plan.seed,
            site::REORDER,
            machine as u64,
            recv_seq,
            self.plan.reorder_permille,
        ) {
            return 0;
        }
        (decision(self.plan.seed, site::REORDER_PICK, machine as u64, recv_seq) % len as u64) as usize
    }

    /// A mainline fault point (one per blocking receive). Fires the
    /// plan's kill when the victim's crossing count reaches the
    /// threshold.
    pub(crate) fn fault_point(&self, machine: usize) {
        if self.plan.kill_machine == Some(machine) {
            let crossed = self.events[machine].fetch_add(1, Ordering::Relaxed) + 1;
            if crossed == self.plan.kill_after_events.max(1) {
                std::panic::panic_any(InjectedFailure::Kill { machine });
            }
        }
    }

    /// Pause/resume at a step boundary: sleeps a seed-chosen duration
    /// with probability `step_pause_permille`.
    pub(crate) fn step_pause(&self, machine: usize) {
        if self.plan.step_pause_permille == 0 {
            return;
        }
        let seq = self.steps[machine].fetch_add(1, Ordering::Relaxed);
        if chance(self.plan.seed, site::PAUSE, machine as u64, seq, self.plan.step_pause_permille) {
            let h = decision(self.plan.seed, site::PAUSE_LEN, machine as u64, seq);
            std::thread::sleep(Duration::from_micros(h % (self.plan.step_pause_micros + 1)));
        }
    }

    /// Straggler injection: delays one worker task pickup on the
    /// designated machine.
    pub(crate) fn worker_pickup(&self, machine: usize) {
        if self.plan.straggler_machine != Some(machine) {
            return;
        }
        let seq = self.pickups[machine].fetch_add(1, Ordering::Relaxed);
        let h = decision(self.plan.seed, site::PICKUP, machine as u64, seq);
        std::thread::sleep(Duration::from_micros(h % (self.plan.straggler_delay_micros + 1)));
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_default_and_unarmed() {
        let plan = FaultPlan::default();
        assert!(!plan.enabled);
        assert!(!plan.is_armed());
        assert_eq!(plan, FaultPlan::disabled());
    }

    #[test]
    fn builders_arm_the_plan() {
        let plan = FaultPlan::enabled(7)
            .chunk_delay(100, 50)
            .reorder(200)
            .drop_chunks(300, 8)
            .straggle(1, 25)
            .step_pause(100, 10)
            .kill(2, 4)
            .step_timeout(Duration::from_secs(1));
        assert!(plan.is_armed());
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.straggler_machine, Some(1));
        assert_eq!(plan.kill_machine, Some(2));
        assert_eq!(plan.without_drops().drop_permille, 0);
        // Permille values clamp at 1000.
        assert_eq!(FaultPlan::enabled(0).reorder(5000).reorder_permille, 1000);
    }

    #[test]
    fn decisions_are_deterministic_in_the_seed() {
        for site in [site::DELAY, site::DROP, site::REORDER] {
            for seq in 0..64 {
                assert_eq!(decision(9, site, 3, seq), decision(9, site, 3, seq));
                assert!(chance(9, site, 3, seq, 1000));
                assert!(!chance(9, site, 3, seq, 0));
            }
        }
        // Different seeds disagree somewhere.
        assert!((0..64).any(|s| decision(1, site::DELAY, 0, s) != decision(2, site::DELAY, 0, s)));
    }

    fn injector(plan: FaultPlan, p: usize) -> FaultInjector {
        let barrier = Arc::new(ClusterBarrier::new(p, None));
        FaultInjector::new(plan, p, NetworkModel::default(), barrier)
    }

    #[test]
    fn drops_are_bounded_per_stream() {
        let inj = injector(FaultPlan::enabled(3).drop_chunks(1000, 5), 2);
        let dropped = (0..100).filter(|&s| inj.should_drop_chunk(0, 1, s)).count();
        assert_eq!(dropped, 5);
        // The other stream has its own budget.
        assert!(inj.should_drop_chunk(1, 0, 0));
    }

    #[test]
    fn park_holds_at_most_one_chunk_per_stream() {
        let inj = injector(FaultPlan::enabled(1).drop_chunks(1000, 8), 2);
        let tag = Tag::user(0, 0);
        assert!(inj.park_chunk(0, 1, tag, 8, Box::new(1u64)).is_none());
        // Parking a second chunk evicts (returns) the first.
        let prev = inj.park_chunk(0, 1, tag, 16, Box::new(2u64)).expect("first chunk returned");
        assert_eq!(prev.wire_bytes, 8);
        let held = inj.take_held(0, 1, tag).expect("second chunk parked");
        assert_eq!(held.wire_bytes, 16);
        assert!(inj.take_held(0, 1, tag).is_none());
    }

    #[test]
    fn mailbox_pick_in_bounds_and_fifo_when_unarmed() {
        let armed = injector(FaultPlan::enabled(5).reorder(1000), 2);
        for seq in 0..200 {
            let pick = armed.mailbox_pick(0, 7, seq);
            assert!(pick < 7);
        }
        // Some pick is actually reordered.
        assert!((0..200).any(|s| armed.mailbox_pick(0, 7, s) != 0));
        let unarmed = injector(FaultPlan::enabled(5), 2);
        assert!((0..200).all(|s| unarmed.mailbox_pick(0, 7, s) == 0));
    }

    #[test]
    fn chunk_delay_respects_probability_extremes() {
        let always = injector(FaultPlan::enabled(2).chunk_delay(1000, 10), 2);
        assert!(always.chunk_send_delay(0, 1, 0, 1024).is_some());
        let never = injector(FaultPlan::enabled(2), 2);
        assert!(never.chunk_send_delay(0, 1, 0, 1024).is_none());
    }

    #[test]
    fn barrier_releases_all_waiters() {
        let b = Arc::new(ClusterBarrier::new(3, None));
        let mut joins = Vec::new();
        for _ in 0..2 {
            let b = b.clone();
            joins.push(crate::sync::thread::spawn(move || b.wait()));
        }
        assert_eq!(b.wait(), BarrierWait::Released);
        for j in joins {
            assert_eq!(j.join().unwrap(), BarrierWait::Released);
        }
    }

    #[test]
    fn barrier_abort_wakes_waiters() {
        let b = Arc::new(ClusterBarrier::new(2, None));
        let waiter = {
            let b = b.clone();
            crate::sync::thread::spawn(move || b.wait())
        };
        // Give the waiter a moment to park, then abort instead of arriving.
        std::thread::sleep(Duration::from_millis(20));
        b.abort();
        assert_eq!(waiter.join().unwrap(), BarrierWait::Aborted);
        assert!(b.is_aborted());
        // Later arrivals see the abort immediately.
        assert_eq!(b.wait(), BarrierWait::Aborted);
    }

    #[test]
    fn barrier_times_out_and_aborts_the_run() {
        let b = ClusterBarrier::new(2, Some(Duration::from_millis(30)));
        let start = Instant::now();
        assert_eq!(b.wait(), BarrierWait::TimedOut);
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(b.is_aborted());
    }

    #[test]
    fn kill_fires_exactly_once_at_threshold() {
        let inj = injector(FaultPlan::enabled(0).kill(1, 3), 2);
        inj.fault_point(0); // wrong machine: never fires
        inj.fault_point(1);
        inj.fault_point(1);
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| inj.fault_point(1)));
        let payload = hit.expect_err("third crossing kills");
        let failure = payload.downcast_ref::<InjectedFailure>().expect("typed payload");
        assert!(matches!(failure, InjectedFailure::Kill { machine: 1 }));
        // Past the threshold the machine is already dead in practice; the
        // counter keeps counting but never re-fires.
        inj.fault_point(1);
    }

    #[test]
    fn run_error_displays_kind_and_machine() {
        let err = RunError {
            kind: RunErrorKind::InjectedKill,
            machine: Some(2),
            message: "fault plan killed machine 2".into(),
            peer_aborts: 3,
            residual: None,
            comm: CommSummary::default(),
            per_dst_bytes: vec![0; 4],
            steps: StepReport::default(),
        };
        let text = err.to_string();
        assert!(text.contains("injected kill"));
        assert!(text.contains("machine 2"));
    }
}
