//! In-flight health monitoring: an optional sampler over the run's
//! [`CommStats`] and its own step/barrier hooks that watches a run *while
//! it executes* and turns what it sees into structured verdicts.
//!
//! # How it samples
//!
//! Two triggers share one evaluation path ([`HealthMonitor::sample`]):
//!
//! - **Step boundaries.** [`MachineCtx::step`](crate::machine::MachineCtx)
//!   notifies the monitor when a step starts and ends, and
//!   [`barrier`](crate::machine::MachineCtx::barrier) crossings refresh
//!   the machine's progress clock. Boundary-driven samples catch skew
//!   between machines at the moments the algorithm itself considers
//!   significant.
//! - **An interval watchdog.** A thread spawned through
//!   [`crate::sync::thread`] wakes every
//!   [`HealthConfig::interval`] and samples, so a run that has stopped
//!   making progress (a straggler stuck mid-step, a deadlocked exchange)
//!   is still observed — nothing else is running to trigger a boundary
//!   sample precisely when one is most needed.
//!
//! # Verdicts
//!
//! - [`HealthVerdict::StalledStep`]: a machine has made no progress for
//!   [`HealthConfig::stall_after`] while some peer progressed recently —
//!   the relative condition distinguishes "one machine is stuck" from
//!   "the whole cluster is inside a long compute step".
//! - [`HealthVerdict::Straggler`]: a completed step took one machine
//!   [`HealthConfig::straggler_ratio`]× the cluster median.
//! - [`HealthVerdict::PoolMissStorm`]: a sampling window in which
//!   [`ChunkPool`](crate::pool::ChunkPool) acquisitions mostly missed —
//!   buffers are not being recycled (undersized pool, leak, or a
//!   placement bug).
//! - [`HealthVerdict::DstByteSkew`]: one receiver's inbound bytes exceed
//!   [`HealthConfig::skew_ratio`]× the per-machine mean — the splitter
//!   produced an unbalanced partition (the hotspot Fig. 9 quantifies).
//!
//! Each verdict is recorded once (deduplicated per machine/step) into the
//! [`HealthReport`] attached to
//! [`RunReport::health`](crate::cluster::RunReport::health), and to
//! [`RunError::health`](crate::fault::RunError) when the run aborts.
//!
//! Each report also carries what had moved when the monitor last looked
//! ([`HealthReport::comm`], [`HealthReport::per_dst_bytes`]), so an
//! aborted run's flight record still says who sent how much to whom.
//!
//! # Ordering policy
//!
//! Progress clocks and done-flags are `std::sync::atomic` `Relaxed`
//! statistics like the comm counters (see [`crate::metrics`]): a
//! late-observed tick can only delay a verdict by one sample, never
//! corrupt control flow. The shutdown handshake with the watchdog thread
//! is real synchronization and goes through the [`crate::sync`] shim.

use crate::metrics::{json_escape, CommStats, CommSummary, ExchangeSummary};
use crate::sync::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of the in-flight health monitor. Disabled by default;
/// [`HealthConfig::enabled`] turns it on with thresholds sized for the
/// bench workloads, and the builder methods tune individual detectors.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Master switch: when false, no monitor (and no watchdog thread) is
    /// created and the only run cost is one branch per step hook.
    pub enabled: bool,
    /// Watchdog sampling interval.
    pub interval: Duration,
    /// A machine with no progress for this long — while a peer progressed
    /// within half this window — is flagged as stalled.
    pub stall_after: Duration,
    /// A completed step is a straggler verdict when one machine took more
    /// than this multiple of the cluster median.
    pub straggler_ratio: f64,
    /// Straggler floor: steps whose slowest machine is under this are
    /// never flagged (median noise on tiny steps is meaningless).
    pub straggler_min: Duration,
    /// Pool-miss storm: miss fraction a sampling window must exceed.
    pub miss_storm_rate: f64,
    /// Pool-miss storm: minimum misses in the window (ignore cold-start
    /// windows where every acquisition legitimately allocates).
    pub miss_storm_min: u64,
    /// Per-destination byte skew: max/mean ratio that flags a receiver.
    pub skew_ratio: f64,
    /// Skew floor in bytes: receivers under this are never flagged.
    pub skew_min_bytes: u64,
}

impl HealthConfig {
    /// Monitoring off (the default).
    pub fn disabled() -> Self {
        HealthConfig {
            enabled: false,
            ..HealthConfig::enabled()
        }
    }

    /// Monitoring on with default thresholds.
    pub fn enabled() -> Self {
        HealthConfig {
            enabled: true,
            interval: Duration::from_millis(5),
            stall_after: Duration::from_millis(150),
            straggler_ratio: 1.75,
            straggler_min: Duration::from_millis(10),
            miss_storm_rate: 0.5,
            miss_storm_min: 64,
            skew_ratio: 2.0,
            skew_min_bytes: 1 << 20,
        }
    }

    /// Sets the watchdog sampling interval.
    pub fn interval(mut self, interval: Duration) -> Self {
        self.interval = interval.max(Duration::from_micros(100));
        self
    }

    /// Sets the stall threshold.
    pub fn stall_after(mut self, after: Duration) -> Self {
        self.stall_after = after;
        self
    }

    /// Sets the straggler ratio and floor.
    pub fn straggler(mut self, ratio: f64, min: Duration) -> Self {
        self.straggler_ratio = ratio.max(1.0);
        self.straggler_min = min;
        self
    }

    /// Sets the pool-miss storm rate and floor.
    pub fn miss_storm(mut self, rate: f64, min: u64) -> Self {
        self.miss_storm_rate = rate.clamp(0.0, 1.0);
        self.miss_storm_min = min;
        self
    }

    /// Sets the per-destination skew ratio and byte floor.
    pub fn skew(mut self, ratio: f64, min_bytes: u64) -> Self {
        self.skew_ratio = ratio.max(1.0);
        self.skew_min_bytes = min_bytes;
        self
    }
}

impl Default for HealthConfig {
    fn default() -> Self {
        HealthConfig::disabled()
    }
}

/// One detector firing. Ratios are fixed-point ×100 so verdicts stay
/// `Eq`-comparable in tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthVerdict {
    /// A completed step where `machine` took `slowdown_x100 / 100`× the
    /// cluster median.
    Straggler {
        /// The slow machine.
        machine: usize,
        /// The step it lagged on.
        step: &'static str,
        /// Its duration over the cluster median, ×100.
        slowdown_x100: u64,
    },
    /// `machine` made no progress for `stalled_for` while a peer was
    /// still moving.
    StalledStep {
        /// The quiet machine.
        machine: usize,
        /// The step it was last seen in (`"startup"` before its first).
        step: &'static str,
        /// How long it had been quiet when flagged.
        stalled_for: Duration,
    },
    /// A sampling window dominated by pool misses.
    PoolMissStorm {
        /// Misses in the window.
        misses: u64,
        /// Miss fraction of the window's acquisitions, ×100.
        rate_x100: u64,
    },
    /// One receiver drawing far more bytes than the per-machine mean.
    DstByteSkew {
        /// The overloaded receiver.
        machine: usize,
        /// Bytes addressed to it so far.
        bytes: u64,
        /// Mean bytes per receiver at the same instant.
        mean_bytes: u64,
    },
}

impl HealthVerdict {
    /// Stable kind tag (used by the JSON export and CI validation).
    pub fn kind(&self) -> &'static str {
        match self {
            HealthVerdict::Straggler { .. } => "straggler",
            HealthVerdict::StalledStep { .. } => "stalled_step",
            HealthVerdict::PoolMissStorm { .. } => "pool_miss_storm",
            HealthVerdict::DstByteSkew { .. } => "dst_byte_skew",
        }
    }

    /// The machine the verdict names, when it names one.
    pub fn machine(&self) -> Option<usize> {
        match self {
            HealthVerdict::Straggler { machine, .. }
            | HealthVerdict::StalledStep { machine, .. }
            | HealthVerdict::DstByteSkew { machine, .. } => Some(*machine),
            HealthVerdict::PoolMissStorm { .. } => None,
        }
    }

    /// The step the verdict names, when it names one.
    pub fn step(&self) -> Option<&'static str> {
        match self {
            HealthVerdict::Straggler { step, .. }
            | HealthVerdict::StalledStep { step, .. } => Some(step),
            _ => None,
        }
    }

    fn to_json(&self) -> String {
        match self {
            HealthVerdict::Straggler {
                machine,
                step,
                slowdown_x100,
            } => format!(
                "{{\"kind\":\"straggler\",\"machine\":{machine},\"step\":\"{}\",\"slowdown_x100\":{slowdown_x100}}}",
                json_escape(step)
            ),
            HealthVerdict::StalledStep {
                machine,
                step,
                stalled_for,
            } => format!(
                "{{\"kind\":\"stalled_step\",\"machine\":{machine},\"step\":\"{}\",\"stalled_for_ns\":{}}}",
                json_escape(step),
                stalled_for.as_nanos()
            ),
            HealthVerdict::PoolMissStorm { misses, rate_x100 } => format!(
                "{{\"kind\":\"pool_miss_storm\",\"misses\":{misses},\"rate_x100\":{rate_x100}}}"
            ),
            HealthVerdict::DstByteSkew {
                machine,
                bytes,
                mean_bytes,
            } => format!(
                "{{\"kind\":\"dst_byte_skew\",\"machine\":{machine},\"bytes\":{bytes},\"mean_bytes\":{mean_bytes}}}"
            ),
        }
    }
}

impl std::fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HealthVerdict::Straggler {
                machine,
                step,
                slowdown_x100,
            } => write!(
                f,
                "machine {machine} straggled on step `{step}` ({}.{:02}x the cluster median)",
                slowdown_x100 / 100,
                slowdown_x100 % 100
            ),
            HealthVerdict::StalledStep {
                machine,
                step,
                stalled_for,
            } => write!(
                f,
                "machine {machine} stalled in step `{step}` for {stalled_for:?} while peers progressed"
            ),
            HealthVerdict::PoolMissStorm { misses, rate_x100 } => write!(
                f,
                "pool-miss storm: {misses} misses ({rate_x100}% of acquisitions) in one sampling window"
            ),
            HealthVerdict::DstByteSkew {
                machine,
                bytes,
                mean_bytes,
            } => write!(
                f,
                "receiver skew: machine {machine} drew {bytes} bytes vs a {mean_bytes}-byte mean"
            ),
        }
    }
}

/// What the monitor concluded about a run. Attached to
/// [`RunReport::health`](crate::cluster::RunReport::health) on success
/// and to [`RunError::health`](crate::fault::RunError) on abort, so the
/// flight-recorder view survives the crash it is most useful for.
#[derive(Debug, Clone, Default)]
pub struct HealthReport {
    /// Evaluation passes taken (boundary- plus watchdog-driven).
    pub samples: u64,
    /// Every detector firing, in detection order, deduplicated.
    pub verdicts: Vec<HealthVerdict>,
    /// Communication totals as the monitor last saw them (the whole run
    /// on a clean finish; everything that moved before the abort on
    /// failure).
    pub comm: CommSummary,
    /// Bytes addressed to each machine at the same instant, indexed by
    /// destination; they sum to `comm.bytes_sent`.
    pub per_dst_bytes: Vec<u64>,
}

impl HealthReport {
    /// `true` when no detector fired.
    pub fn is_quiet(&self) -> bool {
        self.verdicts.is_empty()
    }

    /// The straggler verdicts.
    pub fn stragglers(&self) -> impl Iterator<Item = &HealthVerdict> {
        self.verdicts
            .iter()
            .filter(|v| matches!(v, HealthVerdict::Straggler { .. }))
    }

    /// The stalled-step verdicts.
    pub fn stalls(&self) -> impl Iterator<Item = &HealthVerdict> {
        self.verdicts
            .iter()
            .filter(|v| matches!(v, HealthVerdict::StalledStep { .. }))
    }

    /// JSON export (schema `pgxd-health/2`): samples, verdicts, the comm
    /// totals and the per-destination bytes.
    pub fn to_json(&self) -> String {
        let verdicts: Vec<String> = self.verdicts.iter().map(|v| v.to_json()).collect();
        let per_dst: Vec<String> = self.per_dst_bytes.iter().map(u64::to_string).collect();
        let (c, x) = (&self.comm, &self.comm.exchange);
        format!(
            "{{\"schema\":\"pgxd-health/2\",\"samples\":{},\"verdicts\":[{}],\
             \"comm\":{{\"bytes_sent\":{},\"messages_sent\":{},\"modeled_wire_ns\":{},\
             \"max_recv_bytes\":{},\"bottleneck_wire_ns\":{},\"exchange\":{{\"chunks_sent\":{},\
             \"chunks_recycled\":{},\"pool_hits\":{},\"pool_misses\":{},\"bytes_placed\":{}}}}},\
             \"per_dst_bytes\":[{}]}}",
            self.samples,
            verdicts.join(","),
            c.bytes_sent,
            c.messages_sent,
            c.modeled_wire_time.as_nanos(),
            c.max_recv_bytes,
            c.bottleneck_wire_time.as_nanos(),
            x.chunks_sent,
            x.chunks_recycled,
            x.pool_hits,
            x.pool_misses,
            x.bytes_placed,
            per_dst.join(",")
        )
    }
}

impl std::fmt::Display for HealthReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.verdicts.is_empty() {
            return write!(f, "healthy ({} samples, no verdicts)", self.samples);
        }
        write!(f, "{} verdicts over {} samples:", self.verdicts.len(), self.samples)?;
        for v in &self.verdicts {
            write!(f, "\n  - {v}")?;
        }
        Ok(())
    }
}

/// One step name's durations, summed per machine as machines complete
/// it: the straggler detector's table.
struct StepTally {
    step: &'static str,
    /// Total ns per machine; `None` until the machine first reports.
    ns: Vec<Option<u64>>,
    /// Dedup: machines already flagged as stragglers on this step.
    flagged: Vec<bool>,
}

/// Aggregated mutable monitor state, one lock.
struct MonitorState {
    samples: u64,
    verdicts: Vec<HealthVerdict>,
    /// One tally per step name, in first-seen order.
    steps: Vec<StepTally>,
    /// Last step each machine entered (`None` before its first).
    current_step: Vec<Option<&'static str>>,
    /// Dedup: machines already flagged as stalled.
    stall_flagged: Vec<bool>,
    /// Dedup: receivers already flagged for byte skew.
    skew_flagged: Vec<bool>,
    /// Dedup: one storm verdict per run.
    storm_flagged: bool,
    /// Exchange counters at the previous sample (window deltas).
    last_exchange: ExchangeSummary,
}

/// The in-flight sampler: shared between every machine's hooks and the
/// watchdog thread. Created by the cluster when
/// [`HealthConfig::enabled`] is set.
pub struct HealthMonitor {
    cfg: HealthConfig,
    p: usize,
    stats: Arc<CommStats>,
    /// The monitor's clock: progress stamps are ns since this instant.
    epoch: Instant,
    /// Per-machine progress clock: ns since `epoch` of the last
    /// step/barrier boundary. Relaxed statistics — see the module docs.
    progress_ns: Vec<AtomicU64>,
    /// Per-machine "closure returned" flags: a finished machine is
    /// excluded from stall detection.
    done: Vec<AtomicBool>,
    /// Per-machine "parked at a barrier" flags: a parked machine is a
    /// *victim* of a stall, not a suspect — and its parked peers are the
    /// strongest evidence the quiet machine really is stuck (their
    /// progress clocks stop too, so clocks alone cannot tell a straggler
    /// from a cluster-wide long step).
    waiting: Vec<AtomicBool>,
    state: Mutex<MonitorState>,
    shutdown: Mutex<bool>,
    wake: Condvar,
}

impl std::fmt::Debug for HealthMonitor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HealthMonitor")
            .field("p", &self.p)
            .finish_non_exhaustive()
    }
}

impl HealthMonitor {
    /// A monitor over `p` machines sampling `stats`.
    pub(crate) fn new(cfg: HealthConfig, p: usize, stats: Arc<CommStats>) -> Self {
        HealthMonitor {
            cfg,
            p,
            stats,
            epoch: Instant::now(),
            progress_ns: (0..p).map(|_| AtomicU64::new(0)).collect(),
            done: (0..p).map(|_| AtomicBool::new(false)).collect(),
            waiting: (0..p).map(|_| AtomicBool::new(false)).collect(),
            state: Mutex::new(MonitorState {
                samples: 0,
                verdicts: Vec::new(),
                steps: Vec::new(),
                current_step: vec![None; p],
                stall_flagged: vec![false; p],
                skew_flagged: vec![false; p],
                storm_flagged: false,
                last_exchange: ExchangeSummary::default(),
            }),
            shutdown: Mutex::new(false),
            wake: Condvar::new(),
        }
    }

    /// Nanoseconds since the monitor was created.
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Marks machine `machine` as making progress *now*.
    // Progress clock is a statistic; a stale read delays a verdict by one
    // sample at most.
    pub(crate) fn note_progress(&self, machine: usize) {
        self.progress_ns[machine].store(self.now_ns(), Ordering::Relaxed);
    }

    /// A step began on `machine`.
    pub(crate) fn note_step_start(&self, machine: usize, step: &'static str) {
        self.note_progress(machine);
        self.state.lock().current_step[machine] = Some(step);
    }

    /// A step completed on `machine` in `elapsed` — adds the duration to
    /// the machine's sum for that step (straggler analysis) and runs a
    /// boundary-driven sample.
    // One tally per distinct step name, allocated the first time any machine
    // reports it.
    pub(crate) fn note_step_end(&self, machine: usize, step: &'static str, elapsed: Duration) {
        self.note_progress(machine);
        {
            let mut st = self.state.lock();
            let at = match st.steps.iter().position(|t| t.step == step) {
                Some(at) => at,
                None => {
                    st.steps.push(StepTally {
                        step,
                        ns: vec![None; self.p],
                        flagged: vec![false; self.p],
                    });
                    st.steps.len() - 1
                }
            };
            let ns = elapsed.as_nanos().min(u64::MAX as u128) as u64;
            let sum = &mut st.steps[at].ns[machine];
            *sum = Some(sum.unwrap_or(0).saturating_add(ns));
        }
        self.sample();
    }

    /// Machine `machine` is about to park at a cluster barrier.
    // Advisory flag for the stall detector; a stale read shifts a verdict by
    // one sample at most.
    pub(crate) fn note_wait_begin(&self, machine: usize) {
        self.note_progress(machine);
        self.waiting[machine].store(true, Ordering::Relaxed);
    }

    /// Machine `machine` was released from the barrier.
    // Advisory flag for the stall detector; a stale read shifts a verdict by
    // one sample at most.
    pub(crate) fn note_wait_end(&self, machine: usize) {
        self.waiting[machine].store(false, Ordering::Relaxed);
        self.note_progress(machine);
    }

    /// Machine `machine`'s closure returned (or unwound): stop expecting
    /// progress from it.
    // Done-flag is advisory; a racing sampler at worst evaluates the machine
    // once more.
    pub(crate) fn note_done(&self, machine: usize) {
        self.done[machine].store(true, Ordering::Relaxed);
        self.note_progress(machine);
    }

    /// One evaluation pass over the current progress and comm state. Called
    /// from step boundaries and the watchdog; also exposed for tests.
    // Reads of progress/done statistic cells; the stall detector tolerates
    // staleness by construction.
    pub fn sample(&self) {
        let now = self.now_ns();
        let stall_ns = self.cfg.stall_after.as_nanos().min(u64::MAX as u128) as u64;
        let progress: Vec<(bool, bool, u64)> = (0..self.p)
            .map(|m| {
                (
                    self.done[m].load(Ordering::Relaxed),
                    self.waiting[m].load(Ordering::Relaxed),
                    self.progress_ns[m].load(Ordering::Relaxed),
                )
            })
            .collect();
        let exchange = self.stats.exchange.summary();
        let per_dst = self.stats.per_dst_snapshot();

        let mut st = self.state.lock();
        st.samples += 1;

        // Stalls: a quiet machine is stuck only relative to its peers —
        // either some peer progressed recently, or peers are parked at a
        // barrier this machine never reached. (Parked peers' progress
        // clocks stop too, so the second clause is what catches a
        // long-stuck straggler; without it, everyone quiet would be
        // indistinguishable from a cluster-wide long compute step.)
        let freshest_peer_age = |skip: usize| {
            progress
                .iter()
                .enumerate()
                .filter(|(m, _)| *m != skip)
                .map(|(_, (done, _, at))| if *done { 0 } else { now.saturating_sub(*at) })
                .min()
                .unwrap_or(u64::MAX)
        };
        let peer_parked = |skip: usize| {
            progress
                .iter()
                .enumerate()
                .any(|(m, (done, waiting, _))| m != skip && !done && *waiting)
        };
        for (m, &(done, waiting, at)) in progress.iter().enumerate() {
            if done || waiting || st.stall_flagged[m] {
                continue;
            }
            let age = now.saturating_sub(at);
            if age >= stall_ns && (freshest_peer_age(m) <= stall_ns / 2 || peer_parked(m)) {
                st.stall_flagged[m] = true;
                let step = st.current_step[m].unwrap_or("startup");
                let v = HealthVerdict::StalledStep {
                    machine: m,
                    step,
                    stalled_for: Duration::from_nanos(age),
                };
                st.verdicts.push(v);
            }
        }

        // Pool-miss storm over the window since the previous sample.
        let delta = exchange.delta_since(&st.last_exchange);
        st.last_exchange = exchange;
        let acquisitions = delta.pool_hits + delta.pool_misses;
        if !st.storm_flagged
            && delta.pool_misses >= self.cfg.miss_storm_min
            && acquisitions > 0
            && delta.pool_misses as f64 / acquisitions as f64 > self.cfg.miss_storm_rate
        {
            st.storm_flagged = true;
            let v = HealthVerdict::PoolMissStorm {
                misses: delta.pool_misses,
                rate_x100: delta.pool_misses * 100 / acquisitions,
            };
            st.verdicts.push(v);
        }

        // Per-destination byte skew.
        if self.p > 1 {
            let total: u64 = per_dst.iter().sum();
            let mean = total / self.p as u64;
            for (m, &bytes) in per_dst.iter().enumerate() {
                if st.skew_flagged[m] || bytes < self.cfg.skew_min_bytes || mean == 0 {
                    continue;
                }
                if bytes as f64 > self.cfg.skew_ratio * mean as f64 {
                    st.skew_flagged[m] = true;
                    let v = HealthVerdict::DstByteSkew {
                        machine: m,
                        bytes,
                        mean_bytes: mean,
                    };
                    st.verdicts.push(v);
                }
            }
        }

        // Stragglers over fully-reported steps.
        self.eval_stragglers(&mut st);
    }

    /// Flags steps where one machine took `straggler_ratio`× the median.
    /// Only evaluates steps every machine has reported, so a step still
    /// running somewhere is not judged on partial data.
    fn eval_stragglers(&self, st: &mut MonitorState) {
        if self.p < 2 {
            return;
        }
        let min_ns = self.cfg.straggler_min.as_nanos().min(u64::MAX as u128) as u64;
        let MonitorState { steps, verdicts, .. } = st;
        for tally in steps.iter_mut() {
            let Some(per_machine) = tally.ns.iter().copied().collect::<Option<Vec<u64>>>() else {
                continue;
            };
            let mut sorted = per_machine.clone();
            sorted.sort_unstable();
            // Lower median: with an even machine count the upper middle
            // may BE the straggler (p = 2 degenerates to max), which
            // could never exceed a ratio of itself.
            let median = sorted[(self.p - 1) / 2].max(1);
            for (m, &ns) in per_machine.iter().enumerate() {
                if ns >= min_ns
                    && ns as f64 > self.cfg.straggler_ratio * median as f64
                    && !tally.flagged[m]
                {
                    tally.flagged[m] = true;
                    verdicts.push(HealthVerdict::Straggler {
                        machine: m,
                        step: tally.step,
                        slowdown_x100: ns * 100 / median,
                    });
                }
            }
        }
    }

    /// The watchdog body: sample every `interval` until shut down.
    pub(crate) fn watchdog_loop(&self) {
        let mut g = self.shutdown.lock();
        while !*g {
            // Condvar wait releases the shutdown lock for the sleep; no other
            // lock is held.
            let (g2, timed_out) = self.wake.wait_for(g, self.cfg.interval);
            g = g2;
            if *g {
                return;
            }
            if timed_out {
                drop(g);
                self.sample();
                // Deliberate re-acquire — sample() must run with the shutdown
                // lock dropped, so the guard cannot be hoisted out of the
                // iteration.
                g = self.shutdown.lock();
            }
        }
    }

    /// Tells the watchdog to exit (idempotent).
    pub(crate) fn request_shutdown(&self) {
        *self.shutdown.lock() = true;
        self.wake.notify_all();
    }

    /// Final evaluation + report. Call after the watchdog has been shut
    /// down and joined.
    pub(crate) fn report(&self) -> HealthReport {
        self.sample();
        let comm = self.stats.summary();
        let per_dst_bytes = self.stats.per_dst_snapshot();
        let st = self.state.lock();
        HealthReport {
            samples: st.samples,
            verdicts: st.verdicts.clone(),
            comm,
            per_dst_bytes,
        }
    }
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;
    use crate::net::NetworkModel;

    fn monitor(p: usize, cfg: HealthConfig) -> (HealthMonitor, Arc<CommStats>) {
        let stats = Arc::new(CommStats::new(p, NetworkModel::default()));
        (HealthMonitor::new(cfg, p, stats.clone()), stats)
    }

    #[test]
    fn quiet_run_yields_quiet_report() {
        let (mon, _stats) = monitor(2, HealthConfig::enabled());
        for m in 0..2 {
            mon.note_step_start(m, "work");
            mon.note_step_end(m, "work", Duration::from_millis(20));
            mon.note_done(m);
        }
        let report = mon.report();
        assert!(report.is_quiet(), "verdicts: {:?}", report.verdicts);
        assert!(report.samples >= 2);
        assert_eq!(report.per_dst_bytes, vec![0, 0]);
    }

    #[test]
    fn straggler_step_is_flagged_with_machine_and_step() {
        let cfg = HealthConfig::enabled().straggler(1.5, Duration::from_millis(1));
        let (mon, _stats) = monitor(4, cfg);
        for m in 0..4 {
            let ms = if m == 2 { 400 } else { 20 };
            mon.note_step_start(m, "local_sort");
            mon.note_step_end(m, "local_sort", Duration::from_millis(ms));
        }
        let report = mon.report();
        let straggler = report.stragglers().next().expect("straggler flagged");
        assert_eq!(straggler.machine(), Some(2));
        assert_eq!(straggler.step(), Some("local_sort"));
        // Deduplicated: sampling again does not re-flag.
        mon.sample();
        assert_eq!(mon.report().stragglers().count(), 1);
    }

    #[test]
    fn straggler_needs_full_step_reports() {
        let cfg = HealthConfig::enabled().straggler(1.5, Duration::from_millis(1));
        let (mon, _stats) = monitor(3, cfg);
        mon.note_step_end(0, "s", Duration::from_millis(100));
        mon.note_step_end(1, "s", Duration::from_millis(5));
        // Machine 2 has not reported: no judgment on partial data.
        assert!(mon.report().is_quiet());
        mon.note_step_end(2, "s", Duration::from_millis(5));
        assert_eq!(mon.report().stragglers().count(), 1);
    }

    #[test]
    fn step_sums_stay_bounded_over_a_long_run() {
        // 4 machines × 6 steps × 1 000 rounds leave one sum per (step,
        // machine), and a machine 10× slower on one step is flagged once.
        // (Mid-round, a machine one step ahead reads at most 2× the
        // median, below the 5× ratio.)
        let cfg = HealthConfig::enabled().straggler(5.0, Duration::from_millis(1));
        let (mon, _stats) = monitor(4, cfg);
        let steps = ["s0", "s1", "s2", "s3", "s4", "s5"];
        for _ in 0..1000 {
            for step in steps {
                for m in 0..4 {
                    let ms = if (m, step) == (2, "s3") { 10 } else { 1 };
                    mon.note_step_end(m, step, Duration::from_millis(ms));
                }
            }
        }
        let sums: usize = mon.state.lock().steps.iter().map(|t| t.ns.len()).sum();
        assert_eq!(sums, 24);
        let report = mon.report();
        let flagged: Vec<_> = report.stragglers().map(|v| (v.machine(), v.step())).collect();
        assert_eq!(flagged, [(Some(2), Some("s3"))], "{report}");
    }

    #[test]
    fn stall_requires_moving_peer() {
        let cfg = HealthConfig::enabled().stall_after(Duration::from_millis(20));
        let (mon, _stats) = monitor(2, cfg);
        mon.note_step_start(0, "exchange");
        mon.note_step_start(1, "exchange");
        std::thread::sleep(Duration::from_millis(40));
        // Both quiet: the whole cluster is inside a long step — no stall.
        mon.sample();
        assert_eq!(mon.report().stalls().count(), 0);
        // Peer 1 moves; machine 0 still quiet → stall names machine 0.
        mon.note_progress(1);
        mon.sample();
        let report = mon.report();
        let stall = report.stalls().next().expect("stall flagged");
        assert_eq!(stall.machine(), Some(0));
        assert_eq!(stall.step(), Some("exchange"));
        // Once flagged, stays flagged once.
        mon.sample();
        assert_eq!(mon.report().stalls().count(), 1);
    }

    #[test]
    fn parked_peers_expose_the_holdout() {
        let cfg = HealthConfig::enabled().stall_after(Duration::from_millis(20));
        let (mon, _stats) = monitor(3, cfg);
        mon.note_step_start(0, "exchange");
        mon.note_wait_begin(1);
        mon.note_wait_begin(2);
        std::thread::sleep(Duration::from_millis(45));
        // Nobody's clock moved — but two machines are parked at a barrier
        // machine 0 never reached, which convicts machine 0.
        mon.sample();
        let report = mon.report();
        let stall = report.stalls().next().expect("stall flagged");
        assert_eq!(stall.machine(), Some(0));
        assert_eq!(stall.step(), Some("exchange"));
        // The parked victims themselves are not flagged.
        assert_eq!(report.stalls().count(), 1);
    }

    #[test]
    fn finished_machines_do_not_stall() {
        let cfg = HealthConfig::enabled().stall_after(Duration::from_millis(10));
        let (mon, _stats) = monitor(2, cfg);
        mon.note_done(0);
        std::thread::sleep(Duration::from_millis(25));
        mon.note_progress(1);
        mon.sample();
        assert_eq!(mon.report().stalls().count(), 0);
    }

    #[test]
    fn pool_miss_storm_fires_on_windowed_delta() {
        let cfg = HealthConfig::enabled().miss_storm(0.5, 10);
        let (mon, stats) = monitor(2, cfg);
        // Window 1: healthy — mostly hits.
        for _ in 0..100 {
            stats.exchange.record_pool_hit();
        }
        stats.exchange.record_pool_miss();
        mon.sample();
        assert!(mon.report().is_quiet());
        // Window 2: storm — all misses.
        for _ in 0..50 {
            stats.exchange.record_pool_miss();
        }
        mon.sample();
        let report = mon.report();
        assert_eq!(
            report
                .verdicts
                .iter()
                .filter(|v| v.kind() == "pool_miss_storm")
                .count(),
            1
        );
    }

    #[test]
    fn dst_byte_skew_names_the_receiver() {
        let cfg = HealthConfig::enabled().skew(2.0, 1000);
        let (mon, stats) = monitor(4, cfg);
        for dst in 0..4 {
            stats.record_packet(1000, dst);
        }
        stats.record_packet(20_000, 3);
        mon.sample();
        let report = mon.report();
        let skew = report
            .verdicts
            .iter()
            .find(|v| v.kind() == "dst_byte_skew")
            .expect("skew flagged");
        assert_eq!(skew.machine(), Some(3));
    }

    #[test]
    fn watchdog_samples_until_shutdown() {
        let cfg = HealthConfig::enabled().interval(Duration::from_millis(2));
        let (mon, _stats) = monitor(2, cfg);
        let mon = Arc::new(mon);
        let m2 = mon.clone();
        let h = crate::sync::thread::spawn(move || m2.watchdog_loop());
        std::thread::sleep(Duration::from_millis(30));
        mon.request_shutdown();
        h.join().unwrap();
        assert!(mon.report().samples >= 3, "watchdog sampled while idle");
    }

    #[test]
    fn report_json_is_balanced_and_tagged() {
        let cfg = HealthConfig::enabled().straggler(1.5, Duration::from_millis(1));
        let (mon, _stats) = monitor(2, cfg);
        mon.note_step_end(0, "s", Duration::from_millis(50));
        mon.note_step_end(1, "s", Duration::from_millis(2));
        let json = mon.report().to_json();
        assert!(json.starts_with("{\"schema\":\"pgxd-health/2\""));
        assert!(json.contains("\"verdicts\":["));
        assert!(json.contains("\"kind\":\"straggler\""));
        assert!(json.contains("\"comm\":{\"bytes_sent\":0,"));
        assert!(json.ends_with("\"per_dst_bytes\":[0,0]}"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn report_json_escapes_the_step_name() {
        // The step name is whatever the caller handed `ctx.step`.
        let cfg = HealthConfig::enabled().straggler(1.5, Duration::from_millis(1));
        let (mon, _stats) = monitor(2, cfg);
        mon.note_step_end(0, "a\"b", Duration::from_millis(50));
        mon.note_step_end(1, "a\"b", Duration::from_millis(2));
        let json = mon.report().to_json();
        assert!(json.contains("\"kind\":\"straggler\""));
        assert!(json.contains("\"step\":\"a\\\"b\","), "{json}");
    }
}
