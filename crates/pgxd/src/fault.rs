//! Deterministic, seed-driven fault injection for the simulated cluster.
//!
//! The paper's central robustness claim (§IV) is that the asynchronous,
//! buffer-chunked exchange tolerates slow machines without idling or
//! deadlock. This module turns that claim into something a test can
//! attack on purpose: a [`FaultPlan`] rides on
//! [`ClusterConfig`](crate::cluster::ClusterConfig) (off by default; a run
//! builds a [`FaultInjector`] only for a plan that [arms](FaultPlan::is_armed)
//! something, so every site costs one branch otherwise) and arms the
//! runtime's existing layers with injected adversity:
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
//!   panic, and a configurable per-step timeout converts a machine that
//!   stalls past it into a structured [`RunError`] through
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
//! harness asserts (sorted output, fabric quiescence, structured errors)
//! are schedule-independent by design.
//!
//! # Timeout semantics
//!
//! `step_timeout` bounds every blocking wait a machine performs inside a
//! step: barrier waits and fabric receives. Both read it from one place,
//! the run's `ClusterBarrier`, which also owns the run's one abort flag.
//! When the deadline passes, the waiter marks the run aborted (so every
//! peer unwinds promptly instead of hanging), and
//! [`Cluster::try_run`](crate::cluster::Cluster::try_run) reports a
//! [`RunErrorKind::StepTimeout`]. That error names the machine whose wait
//! ran out — a waiter, not the machine it waited for; the holdout is the
//! slowest machine of a step in [`RunError::steps`]. A starved receive's
//! message also names the tag it waited for and the tags parked in its
//! mailbox. The deadline is the plan's one clock, the guard against a
//! machine that computes forever; a run whose plan sets none is never cut
//! off by time.
//!
//! A wait that can never end needs no clock. Each machine publishes what
//! it waits for, and a waiter whose slice comes up empty checks one rule,
//! `ClusterBarrier`'s stall rule: when every live machine waits, no
//! receiver has a packet in its inbox queue and no barrier waiter's
//! generation has been released, nothing can wake anyone. The waiter then
//! aborts the run with a panic naming every machine's state, which
//! `try_run` reports as [`RunErrorKind::MachinePanic`], deadline or not.

use crate::comm::Tag;
use crate::metrics::{CommSummary, StepReport};
use crate::net::NetworkModel;
use crate::sync::{Condvar, Mutex};
use std::any::Any;
use std::collections::HashMap;
// Plain std atomics, as in `metrics` (see `sync` module docs): the
// injector's counters never gate control flow; the abort flag *is* control
// flow but is intentionally racy-read (a late observer just unwinds one
// poll later); and the packet counts are read under the barrier's lock or
// after the join, in the order the comment beside them gives.
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deterministic fault-injection plan. All probabilities are in
/// permille (0–1000) so the plan stays `Copy`/`Eq`-friendly; every
/// decision derives from `seed` (see module docs).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
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
    /// converts a machine that stalls past it into a structured
    /// [`RunError`] under
    /// [`Cluster::try_run`](crate::cluster::Cluster::try_run).
    pub step_timeout: Option<Duration>,
}

impl FaultPlan {
    /// The default: no fault plane at all.
    pub fn disabled() -> Self {
        FaultPlan {
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

    /// A seeded plan with no faults configured yet; chain the builder
    /// methods below to add adversity.
    pub fn enabled(seed: u64) -> Self {
        FaultPlan {
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

    /// `true` when any fault or the step timeout is set.
    pub fn is_armed(&self) -> bool {
        self.chunk_delay_permille > 0
            || self.reorder_permille > 0
            || self.drop_permille > 0
            || self.straggler_machine.is_some()
            || self.step_pause_permille > 0
            || self.kill_machine.is_some()
            || self.step_timeout.is_some()
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
    /// A machine's SPMD closure (or the runtime under it) panicked: a
    /// protocol check failed, or a wait could never end.
    MachinePanic,
    /// The fault plan's kill fired.
    InjectedKill,
    /// The configured per-step timeout elapsed at a barrier or receive.
    StepTimeout,
}

/// A structured run failure: what failed, where, and the run's flight
/// record — what moved before the abort, the steps every machine
/// completed, and how many packets the fabric still held when the
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
    /// Packets sent but never consumed, summed over every machine's
    /// inbox and mailbox at teardown: what the failure stranded. A failed
    /// run legitimately strands packets; a clean one that did would panic
    /// instead.
    pub residual: usize,
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
            Some(m) => write!(
                f,
                "cluster run failed ({kind} on machine {m}): {}",
                self.message
            ),
            None => write!(f, "cluster run failed ({kind}): {}", self.message),
        }
    }
}

impl std::error::Error for RunError {}

/// Outcome of one [`ClusterBarrier::wait`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BarrierWait {
    /// Everyone arrived; proceed.
    Released,
    /// A peer aborted the run; unwind.
    Aborted,
    /// This waiter's step timeout elapsed first; it has already marked
    /// the run aborted on behalf of everyone.
    TimedOut,
    /// The stall rule found that this generation can never complete; the
    /// waiter has aborted the run. Its own state, then every other
    /// machine's.
    NeverEnds(String),
    /// Everyone arrived, but packets were still in flight: each machine
    /// whose inbox or mailbox held any, with how many.
    Undelivered(Vec<(usize, usize)>),
}

/// `(machine, packets)` pairs as a diagnostic: "2 in machine 1's inbox or
/// mailbox, …".
pub(crate) fn describe_undelivered(held: &[(usize, usize)]) -> String {
    let each: Vec<String> = (held.iter())
        .map(|(m, n)| format!("{n} in machine {m}'s inbox or mailbox"))
        .collect();
    each.join(", ")
}

/// What a machine waits for, as it last published it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Not in a wait, or in one that has not come up empty yet.
    Running,
    /// In a receive for this tag, a slice of which came up empty.
    Receiving(Tag),
    /// At this barrier generation.
    Barrier(u64),
    /// Returned from the run: it waits for nothing and sends nothing.
    Returned,
}

impl std::fmt::Display for Wait {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Wait::Running => write!(f, "running"),
            Wait::Receiving(tag) => write!(f, "waiting for tag {tag:?}"),
            Wait::Barrier(g) => write!(f, "at barrier generation {g}"),
            Wait::Returned => write!(f, "returned from the run"),
        }
    }
}

/// How long a waiter sleeps between two checks of the stall rule when no
/// step deadline is nearer.
const SLICE: Duration = Duration::from_millis(25);

struct BarrierGen {
    arrived: usize,
    generation: u64,
    /// The last released generation's verdict: what
    /// [`ClusterBarrier::undelivered`] read while every machine was
    /// parked, empty when the fabric was quiescent.
    undelivered: Vec<(usize, usize)>,
    /// Each machine's published wait, by machine.
    waits: Vec<Wait>,
    /// Each machine's unfinished send tasks: a machine with any counts as
    /// running whatever its own thread waits for.
    sending: Vec<usize>,
}

/// The run's control plane: an abortable barrier that owns the run's one
/// abort flag, its step deadline, its in-flight count per inbox and what
/// each machine waits for. Every fabric is built around one
/// ([`CommManager::fabric_with`]): the senders and the receive loop read
/// the flag and the deadline here, so a dead machine can never wedge the
/// survivors, and count each packet in when it enters an inbox and out
/// when its receiver consumes it, so a packet parked in a mailbox still
/// counts. The last machine to arrive at a barrier reads the counts while
/// every machine is parked in it, when no packet can move: a barrier is
/// the one point where every packet sent must have been consumed, and
/// every waiter of that generation unwinds alike on the verdict.
/// Aborting wakes every waiter, and (with the plan's `step_timeout`) a
/// wait past the deadline converts into a structured failure instead of
/// a hang. A wait that can never end does so at once, deadline or not:
/// see `ClusterBarrier::verdict`, the stall rule.
///
/// [`CommManager::fabric_with`]: crate::comm::CommManager::fabric_with
///
/// Built on [`crate::sync`] so loom builds compile; under loom a timed
/// wait degrades to a plain wait (cluster runs are not loom-modeled).
pub(crate) struct ClusterBarrier {
    n: usize,
    timeout: Option<Duration>,
    aborted: AtomicBool,
    /// Packets each machine's inbox or mailbox holds, by machine.
    in_flight: Vec<AtomicUsize>,
    /// Packets each machine's mailbox holds, by machine.
    parked: Vec<AtomicUsize>,
    state: Mutex<BarrierGen>,
    cv: Condvar,
}

impl ClusterBarrier {
    pub(crate) fn new(n: usize, timeout: Option<Duration>) -> Self {
        let counts = || (0..n).map(|_| AtomicUsize::new(0)).collect();
        ClusterBarrier {
            n,
            timeout,
            aborted: AtomicBool::new(false),
            in_flight: counts(),
            parked: counts(),
            state: Mutex::new(BarrierGen {
                arrived: 0,
                generation: 0,
                undelivered: Vec::new(),
                waits: vec![Wait::Running; n],
                sending: vec![0; n],
            }),
            cv: Condvar::new(),
        }
    }

    // The counts are updated `AcqRel` and read `Acquire`. A packet is
    // counted in before its sender's queue lock publishes it, and counted
    // out after its receiver's queue lock took it, so a count never goes
    // below zero. A packet is parked after its in-flight count went up, so
    // the stall rule, which reads `parked` before `in_flight`, never counts
    // a receiver's inbox queue short. The quiescence reads happen under
    // the barrier's lock with every machine parked, or after the join.

    /// Counts a packet entering `dst`'s inbox, before it is queued.
    pub(crate) fn packet_sent(&self, dst: usize) {
        self.in_flight[dst].fetch_add(1, Ordering::AcqRel);
    }

    /// Counts a packet out of `dst`'s inbox: consumed by its receiver, or
    /// refused by a queue whose receiver is gone.
    pub(crate) fn packet_taken(&self, dst: usize) {
        self.in_flight[dst].fetch_sub(1, Ordering::AcqRel);
    }

    /// Counts a packet into `dst`'s mailbox, after its receiver pulled it.
    pub(crate) fn packet_parked(&self, dst: usize) {
        self.parked[dst].fetch_add(1, Ordering::AcqRel);
    }

    /// Counts a packet out of `dst`'s mailbox, before it is consumed.
    pub(crate) fn packet_unparked(&self, dst: usize) {
        self.parked[dst].fetch_sub(1, Ordering::AcqRel);
    }

    /// Packets in machine `m`'s inbox queue, or pulled from it and not yet
    /// consumed or parked: what can still end a receive.
    fn queued(&self, m: usize) -> usize {
        let parked = self.parked[m].load(Ordering::Acquire);
        self.in_flight[m]
            .load(Ordering::Acquire)
            .saturating_sub(parked)
    }

    /// Each machine whose inbox or mailbox holds packets, with how many.
    pub(crate) fn undelivered(&self) -> Vec<(usize, usize)> {
        (self.in_flight.iter().enumerate())
            .map(|(m, n)| (m, n.load(Ordering::Acquire)))
            .filter(|&(_, n)| n > 0)
            .collect()
    }

    /// Packets sent but not consumed, over the whole fabric.
    pub(crate) fn residual(&self) -> usize {
        self.undelivered().iter().map(|&(_, n)| n).sum()
    }

    /// A released generation's outcome, from its verdict.
    fn released(g: &BarrierGen) -> BarrierWait {
        if g.undelivered.is_empty() {
            BarrierWait::Released
        } else {
            BarrierWait::Undelivered(g.undelivered.clone())
        }
    }

    /// How long a waiter sleeps between two checks of the stall rule and
    /// of its deadline.
    pub(crate) fn slice(&self) -> Duration {
        self.timeout
            .map_or(SLICE, |t| (t / 8).clamp(Duration::from_millis(1), SLICE))
    }

    /// The stall rule, the one place that decides that a wait can never
    /// end, read under the lock that every published wait is written
    /// under. The run can never progress when every live machine waits
    /// (none running, none with an unfinished send task), no receiver
    /// has a packet in its inbox queue, and no barrier waiter's generation
    /// has been released. Then `me`'s wait can never end: this aborts the
    /// run and returns every other machine's state, each as "; machine m
    /// …". `None` while the run can progress, or once it is aborted.
    ///
    /// Every sender is a running machine's thread or one of its send
    /// tasks, so a machine the rule reads as waiting sends nothing until
    /// it publishes that it runs, under this lock; and a receiver counts a
    /// packet out only after it has published that it runs. So a snapshot
    /// read under the lock that looks stuck is stuck.
    fn verdict(&self, g: &BarrierGen, me: usize) -> Option<String> {
        if self.aborted.load(Ordering::Acquire) {
            return None;
        }
        let stuck = (0..self.n).all(|m| match g.waits[m] {
            Wait::Returned => true,
            _ if g.sending[m] > 0 => false,
            Wait::Running => false,
            Wait::Receiving(_) => self.queued(m) == 0,
            Wait::Barrier(generation) => generation == g.generation,
        });
        if !stuck {
            return None;
        }
        self.aborted.store(true, Ordering::Release);
        self.cv.notify_all();
        let others = (0..self.n).filter(|&m| m != me);
        Some(
            others
                .map(|m| format!("; machine {m} {}", g.waits[m]))
                .collect(),
        )
    }

    /// Publishes that `me` waits in a receive for `tag` which came up
    /// empty for a slice, and checks the stall rule: `Some` (the other
    /// machines' states) when the receive can never end, the run now
    /// aborted.
    pub(crate) fn receiving(&self, me: usize, tag: Tag) -> Option<String> {
        let mut g = self.state.lock();
        g.waits[me] = Wait::Receiving(tag);
        self.verdict(&g, me)
    }

    /// Publishes that `me` runs again, after a wait it published.
    pub(crate) fn running(&self, me: usize) {
        self.state.lock().waits[me] = Wait::Running;
    }

    /// Publishes that `me` returned from the run, and wakes every barrier
    /// waiter to check the stall rule. Idempotent.
    pub(crate) fn returned(&self, me: usize) {
        let mut g = self.state.lock();
        g.waits[me] = Wait::Returned;
        self.cv.notify_all();
    }

    /// Counts one unfinished send task of machine `me` until the returned
    /// guard drops: while any is alive, `me` counts as running.
    pub(crate) fn sending(self: &Arc<Self>, me: usize) -> Sending {
        self.state.lock().sending[me] += 1;
        Sending {
            control: self.clone(),
            machine: me,
        }
    }

    /// Waits for all `n` machines (or an abort, the timeout, or the stall
    /// rule's verdict), then reports whether any packet was in flight when
    /// the last of them arrived. `me` is the arriving machine.
    pub(crate) fn wait(&self, me: usize) -> BarrierWait {
        let mut g = self.state.lock();
        if self.aborted.load(Ordering::Acquire) {
            return BarrierWait::Aborted;
        }
        g.arrived += 1;
        if g.arrived == self.n {
            g.arrived = 0;
            g.generation = g.generation.wrapping_add(1);
            // Every machine is parked here, so no packet moves while this
            // reads the counts. A quiescent fabric allocates nothing.
            g.undelivered = self.undelivered();
            self.cv.notify_all();
            return Self::released(&g);
        }
        let gen = g.generation;
        g.waits[me] = Wait::Barrier(gen);
        // Wall clock only arms the abort timeout; it never orders replayed
        // events.
        let deadline = self.timeout.map(|t| Instant::now() + t);
        let outcome = loop {
            if self.aborted.load(Ordering::Acquire) {
                break BarrierWait::Aborted;
            }
            if g.generation != gen {
                // No later generation can have released: it needs this
                // machine too.
                break Self::released(&g);
            }
            if let Some(others) = self.verdict(&g, me) {
                break BarrierWait::NeverEnds(format!("{}{others}", Wait::Barrier(gen)));
            }
            let mut slice = self.slice();
            if let Some(d) = deadline {
                // Timeout-expiry check — aborts the run, never feeds
                // replayed ordering.
                let now = Instant::now();
                if now >= d {
                    // A peer stalled past the plan's budget. Abort the run
                    // so every machine unwinds instead of hanging.
                    self.aborted.store(true, Ordering::Release);
                    self.cv.notify_all();
                    break BarrierWait::TimedOut;
                }
                slice = slice.min(d - now);
            }
            // Condvar wait on the barrier's own mutex — the guard is
            // released for the wait; no other lock is held.
            g = self.cv.wait_for(g, slice).0;
        };
        g.waits[me] = Wait::Running;
        outcome
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

    /// The step deadline every barrier wait and fabric receive of the run
    /// is bounded by; `None` when the plan sets no `step_timeout`.
    pub(crate) fn timeout(&self) -> Option<Duration> {
        self.timeout
    }
}

/// One unfinished send task of a machine, counted by
/// [`ClusterBarrier::sending`] until it drops, with its task's closure.
pub(crate) struct Sending {
    control: Arc<ClusterBarrier>,
    machine: usize,
}

impl Drop for Sending {
    fn drop(&mut self) {
        if std::thread::panicking() {
            // A send task that panics leaves its streams, and any task
            // queued behind it, unfinished: abort the run, or its receivers
            // would wait for them with this machine counted as running.
            self.control.abort();
        }
        self.control.state.lock().sending[self.machine] -= 1;
    }
}

/// The armed fault plane of one cluster run: the plan plus per-site event
/// counters and the parked-chunk table. Shared (`Arc`) by every machine's
/// sender, receiver, task manager, and context.
pub struct FaultInjector {
    plan: FaultPlan,
    p: usize,
    net: NetworkModel,
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
    pub(crate) fn new(plan: FaultPlan, p: usize, net: NetworkModel) -> Self {
        let counters = |n: usize| (0..n).map(|_| AtomicU64::new(0)).collect();
        FaultInjector {
            plan,
            p,
            net,
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
        if !chance(
            self.plan.seed,
            site::DELAY,
            stream,
            seq,
            self.plan.chunk_delay_permille,
        ) {
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
        if chance(
            self.plan.seed,
            site::DROP,
            s as u64,
            seq,
            self.plan.drop_permille,
        ) {
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
        self.held.lock().insert(
            (src, dst, tag),
            HeldChunk {
                wire_bytes,
                payload,
            },
        )
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
        (decision(self.plan.seed, site::REORDER_PICK, machine as u64, recv_seq) % len as u64)
            as usize
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
        if chance(
            self.plan.seed,
            site::PAUSE,
            machine as u64,
            seq,
            self.plan.step_pause_permille,
        ) {
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
        std::thread::sleep(Duration::from_micros(
            h % (self.plan.straggler_delay_micros + 1),
        ));
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_is_default_and_unarmed() {
        let plan = FaultPlan::default();
        assert!(!plan.is_armed());
        // A seed alone arms nothing.
        assert!(!FaultPlan::enabled(9).is_armed());
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
        FaultInjector::new(plan, p, NetworkModel::default())
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
        let prev = inj
            .park_chunk(0, 1, tag, 16, Box::new(2u64))
            .expect("first chunk returned");
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

    /// A barrier waiter on its own thread, joined by the test.
    fn waiter(b: &Arc<ClusterBarrier>, me: usize) -> crate::sync::thread::JoinHandle<BarrierWait> {
        let b = b.clone();
        #[allow(
            clippy::disallowed_methods,
            reason = "a test waiter on the barrier, joined by the test"
        )]
        crate::sync::thread::spawn(move || b.wait(me))
    }

    #[test]
    fn barrier_releases_all_waiters() {
        let b = Arc::new(ClusterBarrier::new(3, None));
        let joins = [waiter(&b, 1), waiter(&b, 2)];
        assert_eq!(b.wait(0), BarrierWait::Released);
        for j in joins {
            assert_eq!(j.join().unwrap(), BarrierWait::Released);
        }
    }

    #[test]
    fn barrier_abort_wakes_waiters() {
        let b = Arc::new(ClusterBarrier::new(2, None));
        let parked = waiter(&b, 0);
        // Give the waiter a moment to park, then abort instead of arriving.
        std::thread::sleep(Duration::from_millis(20));
        b.abort();
        assert_eq!(parked.join().unwrap(), BarrierWait::Aborted);
        assert!(b.is_aborted());
        // Later arrivals see the abort immediately.
        assert_eq!(b.wait(1), BarrierWait::Aborted);
    }

    #[test]
    fn departure_ends_a_barrier_it_would_have_to_complete() {
        let b = Arc::new(ClusterBarrier::new(3, None));
        let parked = waiter(&b, 0);
        // Machine 2 returns instead of arriving; machine 1 still runs, so
        // the waiter waits on through several slices.
        b.returned(2);
        std::thread::sleep(4 * SLICE);
        assert!(!parked.is_finished());
        assert!(!b.is_aborted());
        // Once machine 1 returns too, the generation can never complete:
        // the waiter's rule ends it, naming both, and aborts the run.
        b.returned(1);
        let BarrierWait::NeverEnds(states) = parked.join().unwrap() else {
            panic!("the stall rule must end the wait");
        };
        assert_eq!(
            states,
            "at barrier generation 0; machine 1 returned from the run; \
             machine 2 returned from the run"
        );
        assert!(b.is_aborted());
        // A late arriver finds the run aborted.
        assert_eq!(b.wait(0), BarrierWait::Aborted);
    }

    #[test]
    fn a_generation_released_before_a_departure_reads_released() {
        let b = Arc::new(ClusterBarrier::new(2, None));
        let parked = waiter(&b, 0);
        // Complete the waiter's generation and return at once, before the
        // waiter (usually) wakes: it still passed the barrier.
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(b.wait(1), BarrierWait::Released);
        b.returned(1);
        assert_eq!(parked.join().unwrap(), BarrierWait::Released);
        // The next generation can never complete, and its arriver finds
        // so as it arrives.
        assert_eq!(
            b.wait(0),
            BarrierWait::NeverEnds(
                "at barrier generation 1; machine 1 returned from the run".into()
            )
        );
    }

    #[test]
    fn waiters_released_but_not_yet_woken_are_not_stuck() {
        // Machines 1 and 2 wait at generation 0, which machine 0 released
        // as the last arriver before entering a receive; they have not
        // woken yet to publish that they run.
        let b = ClusterBarrier::new(3, None);
        {
            let mut g = b.state.lock();
            g.waits[1] = Wait::Barrier(0);
            g.waits[2] = Wait::Barrier(0);
            g.generation = 1;
        }
        assert_eq!(b.receiving(0, Tag::user(0, 0)), None);
        // Unreleased, the same waits can never end.
        b.state.lock().generation = 0;
        let others = b.receiving(0, Tag::user(0, 0)).expect("stuck");
        assert_eq!(
            others,
            "; machine 1 at barrier generation 0; machine 2 at barrier generation 0"
        );
    }

    #[test]
    fn a_packet_pulled_but_not_yet_consumed_is_not_stuck() {
        // Machine 1 waits for `tag` and has pulled its packet from the
        // inbox, but not yet left its wait: the packet still counts in.
        let tag = Tag::user(0, 1);
        let b = ClusterBarrier::new(2, None);
        b.packet_sent(1);
        b.state.lock().waits[1] = Wait::Receiving(tag);
        assert_eq!(b.receiving(0, Tag::user(0, 0)), None);
        // Parked in the mailbox instead, under another tag, it wakes no one.
        b.packet_parked(1);
        let others = b.receiving(0, Tag::user(0, 0)).expect("stuck");
        assert_eq!(others, format!("; machine 1 waiting for tag {tag:?}"));
    }

    #[test]
    fn a_machine_whose_send_tasks_run_is_not_stuck() {
        // Machine 1's thread waits in a receive while one of its send
        // tasks still runs; once the task ends, nothing can feed anyone.
        let b = Arc::new(ClusterBarrier::new(2, None));
        let task = b.sending(1);
        assert_eq!(b.receiving(1, Tag::user(0, 1)), None);
        assert_eq!(b.receiving(0, Tag::user(0, 0)), None);
        drop(task);
        assert!(b.receiving(0, Tag::user(0, 0)).is_some());
    }

    #[test]
    fn every_waiter_reads_the_verdict_on_packets_in_flight() {
        let b = Arc::new(ClusterBarrier::new(2, None));
        b.packet_sent(1);
        let parked = waiter(&b, 0);
        // Whichever arrives last reads the counts; the other, its verdict.
        let held = BarrierWait::Undelivered(vec![(1, 1)]);
        assert_eq!(b.wait(1), held);
        assert_eq!(parked.join().unwrap(), held);
        assert_eq!(b.residual(), 1);
    }

    #[test]
    fn barrier_times_out_and_aborts_the_run() {
        let b = ClusterBarrier::new(2, Some(Duration::from_millis(30)));
        let start = Instant::now();
        assert_eq!(b.wait(0), BarrierWait::TimedOut);
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
        let failure = payload
            .downcast_ref::<InjectedFailure>()
            .expect("typed payload");
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
            residual: 0,
            comm: CommSummary::default(),
            per_dst_bytes: vec![0; 4],
            steps: StepReport::default(),
        };
        let text = err.to_string();
        assert!(text.contains("injected kill"));
        assert!(text.contains("machine 2"));
    }
}
