//! Runtime accounting: communication counters and per-step wall timers.
//!
//! Every experiment in the paper's §V reads one of these: Fig. 5/6/8 read
//! total wall time, Fig. 7 reads the per-step breakdown, Fig. 9 reads
//! communication bytes / modeled wire time, Table II/III read the load
//! statistics the sort itself reports.
//!
//! # One record per fact
//!
//! Each fact has one writer and one typed reader:
//!
//! - what moved: the fabric and the exchange pipeline count into the
//!   [`CommStats`] cells shared by every machine of a run;
//!   [`CommStats::summary`] and [`CommStats::per_dst_snapshot`] become
//!   [`RunReport::comm`](crate::cluster::RunReport::comm) and
//!   [`RunReport::per_dst_bytes`](crate::cluster::RunReport::per_dst_bytes);
//! - how long a step took: [`MachineCtx::step`](crate::machine::MachineCtx::step)
//!   records it in its machine's [`StepTimer`], and the per-machine lists
//!   become [`RunReport::steps`](crate::cluster::RunReport::steps)
//!   ([`StepReport`]);
//! - *when* anything happened: the opt-in trace rings ([`crate::trace`]).
//!
//! A failed run's [`RunError`](crate::fault::RunError) carries the same
//! three records, read after the run like a report's; diagnosing a run is
//! reading them ([`StepReport::slowest_machine`]), not a second instrument.
//!
//! ## Ordering policy
//!
//! Every [`Counter`] is a `std::sync::atomic` cell updated `Relaxed`, and
//! deliberately *not* [`crate::sync`]: these are monotonic statistics
//! that never gate control flow, so keeping them invisible to loom keeps
//! the model checker's state space tractable. The `atomics-ordering`
//! analyze pass audits this file; every `Relaxed` site carries an inline
//! justification.

use crate::net::NetworkModel;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A monotonic counter: one atomic cell, updated with one `fetch_add` per
/// event, `Relaxed` — see the module docs for the ordering policy.
#[derive(Debug, Default)]
pub struct Counter {
    cell: AtomicU64,
}

impl Counter {
    /// Adds one.
    // analyze: allow(atomics-ordering): monotonic statistic, never gates
    // control flow; readers tolerate staleness by design.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    // analyze: allow(atomics-ordering): monotonic statistic, never gates
    // control flow; readers tolerate staleness by design.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    // analyze: allow(atomics-ordering): statistics read; no
    // happens-before obligation on the value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// `s` with the characters a JSON string may not hold verbatim escaped
/// (quote, backslash, control characters); the caller adds the quotes.
/// The one escaper behind both hand-written exporters: [`crate::trace`]
/// and the `exp` result writer.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Communication accounting
// ---------------------------------------------------------------------------

/// Cluster-wide communication counters, shared by every machine's comm
/// manager. All counters are monotonic and relaxed — they are statistics,
/// not synchronization (see the module docs).
#[derive(Debug, Default)]
pub struct CommStats {
    /// Payload bytes handed to the fabric (sender side).
    pub bytes_sent: Counter,
    /// Number of packets handed to the fabric.
    pub messages_sent: Counter,
    /// Modeled wire nanoseconds accumulated from the network model.
    pub modeled_wire_nanos: Counter,
    /// §IV-C exchange-pipeline counters (chunk pool + placement).
    pub exchange: ExchangeStats,
    /// Bytes addressed to each machine — the per-receiver view that
    /// exposes hotspots (a bad splitter overloads one receiver's link
    /// even when the aggregate volume is unchanged).
    per_dst_bytes: Vec<Counter>,
    net: NetworkModel,
}

/// Counters for the offset-addressed exchange hot path: how many chunks
/// moved, how often the [`ChunkPool`](crate::pool::ChunkPool) satisfied a
/// buffer request from recycled memory, and how many payload bytes were
/// memcpy-placed into output buffers. Fig. 7's harness prints these next
/// to the step breakdown so the "exchange is cheap" claim is auditable.
#[derive(Debug, Default)]
pub struct ExchangeStats {
    /// Data chunks handed to the fabric by `RequestBuffer` flushes.
    pub chunks_sent: Counter,
    /// Spent chunk buffers returned to the pool after placement.
    pub chunks_recycled: Counter,
    /// Buffer acquisitions served from the pool.
    pub pool_hits: Counter,
    /// Buffer acquisitions that fell back to a fresh allocation.
    pub pool_misses: Counter,
    /// Payload bytes copied into exchange output buffers.
    pub bytes_placed: Counter,
}

impl ExchangeStats {
    /// Records a pool acquisition served from recycled memory.
    pub fn record_pool_hit(&self) {
        self.pool_hits.inc();
    }

    /// Records a pool acquisition that had to allocate.
    pub fn record_pool_miss(&self) {
        self.pool_misses.inc();
    }

    /// Records a spent buffer returned to the pool.
    pub fn record_recycled(&self) {
        self.chunks_recycled.inc();
    }

    /// Records one data chunk handed to the fabric.
    pub fn record_chunk_sent(&self) {
        self.chunks_sent.inc();
    }

    /// Records `bytes` memcpy-placed into an exchange output buffer.
    pub fn record_bytes_placed(&self, bytes: usize) {
        self.bytes_placed.add(bytes as u64);
    }

    /// Snapshot of the counters.
    pub fn summary(&self) -> ExchangeSummary {
        ExchangeSummary {
            chunks_sent: self.chunks_sent.get(),
            chunks_recycled: self.chunks_recycled.get(),
            pool_hits: self.pool_hits.get(),
            pool_misses: self.pool_misses.get(),
            bytes_placed: self.bytes_placed.get(),
        }
    }
}

/// Immutable snapshot of [`ExchangeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExchangeSummary {
    /// Data chunks handed to the fabric.
    pub chunks_sent: u64,
    /// Spent chunk buffers returned to the pool.
    pub chunks_recycled: u64,
    /// Pool acquisitions served from recycled memory.
    pub pool_hits: u64,
    /// Pool acquisitions that allocated fresh memory.
    pub pool_misses: u64,
    /// Payload bytes memcpy-placed into output buffers.
    pub bytes_placed: u64,
}

impl ExchangeSummary {
    /// Fraction of buffer acquisitions served by the pool, in `[0, 1]`.
    /// Zero when no acquisition has happened yet.
    pub fn pool_hit_rate(&self) -> f64 {
        let total = self.pool_hits + self.pool_misses;
        if total == 0 {
            0.0
        } else {
            self.pool_hits as f64 / total as f64
        }
    }

    /// Difference between two snapshots (later minus earlier). Saturating:
    /// a swapped or reset snapshot pair clamps to zero instead of
    /// underflow-panicking in debug builds.
    pub fn delta_since(&self, earlier: &ExchangeSummary) -> ExchangeSummary {
        ExchangeSummary {
            chunks_sent: self.chunks_sent.saturating_sub(earlier.chunks_sent),
            chunks_recycled: self.chunks_recycled.saturating_sub(earlier.chunks_recycled),
            pool_hits: self.pool_hits.saturating_sub(earlier.pool_hits),
            pool_misses: self.pool_misses.saturating_sub(earlier.pool_misses),
            bytes_placed: self.bytes_placed.saturating_sub(earlier.bytes_placed),
        }
    }
}

impl CommStats {
    /// Stats for a `p`-machine cluster under the given network model.
    /// (`Default` gives no per-destination tracking — tests, ad-hoc
    /// fabrics.)
    pub fn new(p: usize, net: NetworkModel) -> Self {
        CommStats {
            per_dst_bytes: (0..p).map(|_| Counter::default()).collect(),
            net,
            ..CommStats::default()
        }
    }

    /// Records one packet of `bytes` addressed to machine `dst`.
    pub fn record_packet(&self, bytes: usize, dst: usize) {
        self.bytes_sent.add(bytes as u64);
        self.messages_sent.inc();
        self.modeled_wire_nanos
            .add(self.net.packet_time(bytes).as_nanos() as u64);
        if let Some(slot) = self.per_dst_bytes.get(dst) {
            slot.add(bytes as u64);
        }
    }

    /// Bytes addressed to each machine, indexed by destination.
    pub fn per_dst_snapshot(&self) -> Vec<u64> {
        self.per_dst_bytes.iter().map(|b| b.get()).collect()
    }

    /// Snapshot of the counters.
    pub fn summary(&self) -> CommSummary {
        let max_recv = self.per_dst_snapshot().into_iter().max().unwrap_or(0);
        CommSummary {
            bytes_sent: self.bytes_sent.get(),
            messages_sent: self.messages_sent.get(),
            modeled_wire_time: Duration::from_nanos(self.modeled_wire_nanos.get()),
            max_recv_bytes: max_recv,
            bottleneck_wire_time: Duration::from_secs_f64(
                max_recv as f64 / self.net.bandwidth_bytes_per_sec,
            ),
            exchange: self.exchange.summary(),
        }
    }
}

/// Immutable snapshot of [`CommStats`].
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CommSummary {
    /// Payload bytes handed to the fabric.
    pub bytes_sent: u64,
    /// Packets handed to the fabric.
    pub messages_sent: u64,
    /// Wire time the network model charges for that traffic in aggregate.
    pub modeled_wire_time: Duration,
    /// Bytes addressed to the most-loaded receiver.
    pub max_recv_bytes: u64,
    /// Wire time of the most-loaded receiver's inbound link — the
    /// hotspot view of communication overhead (Fig. 9).
    pub bottleneck_wire_time: Duration,
    /// Exchange-pipeline counters (chunk pool + placement).
    pub exchange: ExchangeSummary,
}

impl CommSummary {
    /// Difference between two snapshots (later minus earlier) for the
    /// monotonic scalar counters. The hotspot fields (`max_recv_bytes`,
    /// `bottleneck_wire_time`) are kept from `self` — a max is not
    /// delta-able. Saturating: a swapped or reset snapshot pair clamps to
    /// zero instead of underflow-panicking in debug builds.
    pub fn delta_since(&self, earlier: &CommSummary) -> CommSummary {
        CommSummary {
            bytes_sent: self.bytes_sent.saturating_sub(earlier.bytes_sent),
            messages_sent: self.messages_sent.saturating_sub(earlier.messages_sent),
            modeled_wire_time: self.modeled_wire_time.saturating_sub(earlier.modeled_wire_time),
            max_recv_bytes: self.max_recv_bytes,
            bottleneck_wire_time: self.bottleneck_wire_time,
            exchange: self.exchange.delta_since(&earlier.exchange),
        }
    }
}

// ---------------------------------------------------------------------------
// Step timing
// ---------------------------------------------------------------------------

/// Wall-clock durations of named algorithm steps, one timer per machine.
///
/// [`MachineCtx::step`](crate::machine::MachineCtx::step) is its only
/// writer: the sorting algorithm brackets each of its six §IV steps with
/// it, and the cluster report aggregates the timers into the Fig. 7
/// breakdown ([`StepReport`]).
#[derive(Debug, Default)]
pub struct StepTimer {
    steps: Vec<(&'static str, Duration)>,
}

impl StepTimer {
    /// Records `elapsed` under `name`. Repeated names accumulate (a step
    /// run once per sort of a long-lived cluster, or inside a loop).
    pub fn record(&mut self, name: &'static str, elapsed: Duration) {
        if let Some(entry) = self.steps.iter_mut().find(|(n, _)| *n == name) {
            entry.1 += elapsed;
        } else {
            self.steps.push((name, elapsed));
        }
    }

    /// The recorded `(name, total duration)` pairs, in first-seen order.
    pub fn into_steps(self) -> Vec<(&'static str, Duration)> {
        self.steps
    }
}

/// Per-machine step timings collected after a cluster run.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// `per_machine[m]` = the `(step, duration)` list machine `m` recorded.
    pub per_machine: Vec<Vec<(&'static str, Duration)>>,
}

/// Nearest-rank index for percentile `pct` over `len` sorted samples.
fn nearest_rank_index(len: usize, pct: f64) -> usize {
    let pct = pct.clamp(0.0, 100.0);
    let rank = ((pct / 100.0 * len as f64).ceil() as usize).saturating_sub(1);
    rank.min(len.saturating_sub(1))
}

impl StepReport {
    fn durations_of<'a>(&'a self, step: &'a str) -> impl Iterator<Item = Duration> + 'a {
        self.per_machine.iter().map(move |steps| {
            steps
                .iter()
                .find(|(n, _)| *n == step)
                .map(|(_, d)| *d)
                .unwrap_or_default()
        })
    }

    /// Maximum duration of `step` across machines — the critical-path view
    /// used by Fig. 7 (a step is as slow as its slowest machine).
    pub fn max_across_machines(&self, step: &str) -> Duration {
        self.durations_of(step).max().unwrap_or_default()
    }

    /// Mean duration of `step` across machines.
    pub fn mean_across_machines(&self, step: &str) -> Duration {
        if self.per_machine.is_empty() {
            return Duration::ZERO;
        }
        let total: Duration = self.durations_of(step).sum();
        total / self.per_machine.len() as u32
    }

    /// Nearest-rank percentile of `step`'s duration across machines
    /// (`pct` in `(0, 100]`). Machines that never recorded the step count
    /// as zero, matching [`max_across_machines`](Self::max_across_machines)
    /// and [`mean_across_machines`](Self::mean_across_machines).
    pub fn percentile_across_machines(&self, step: &str, pct: f64) -> Duration {
        if self.per_machine.is_empty() {
            return Duration::ZERO;
        }
        let mut durs: Vec<Duration> = self.durations_of(step).collect();
        durs.sort_unstable();
        durs[nearest_rank_index(durs.len(), pct)]
    }

    /// Median duration of `step` across machines (nearest-rank p50).
    pub fn p50_across_machines(&self, step: &str) -> Duration {
        self.percentile_across_machines(step, 50.0)
    }

    /// 95th-percentile duration of `step` across machines — with
    /// [`p50_across_machines`](Self::p50_across_machines), the straggler
    /// view Fig. 7 prints next to max/mean.
    pub fn p95_across_machines(&self, step: &str) -> Duration {
        self.percentile_across_machines(step, 95.0)
    }

    /// The machine slowest in `step` (lowest id on a tie) and its time over
    /// the step's lower median, [`p50_across_machines`](Self::p50_across_machines)
    /// (a zero median counts as 1 ns); `None` for an empty report. The
    /// caller judges the ratio. A step's time includes waiting in its
    /// collectives, so a machine that waited on a slow peer reads slow too:
    /// read the earliest slow step.
    pub fn slowest_machine(&self, step: &str) -> Option<(usize, f64)> {
        let (machine, slowest) = self
            .durations_of(step)
            .enumerate()
            .max_by_key(|&(m, d)| (d, std::cmp::Reverse(m)))?;
        let median = self.p50_across_machines(step).as_nanos().max(1);
        Some((machine, slowest.as_nanos() as f64 / median as f64))
    }

    /// All step names observed, in first-seen order across machines.
    pub fn step_names(&self) -> Vec<&'static str> {
        let mut names: Vec<&'static str> = Vec::new();
        for steps in &self.per_machine {
            for (n, _) in steps {
                if !names.contains(n) {
                    names.push(n);
                }
            }
        }
        names
    }
}

/// Shared handle to cluster-wide stats, cloned into every machine.
pub type SharedCommStats = Arc<CommStats>;

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn comm_stats_accumulate() {
        let net = NetworkModel::infiniband_56g();
        let stats = CommStats::new(2, net);
        stats.record_packet(1000, 0);
        stats.record_packet(2000, 1);
        let s = stats.summary();
        assert_eq!(s.bytes_sent, 3000);
        assert_eq!(s.messages_sent, 2);
        assert!(s.modeled_wire_time >= net.latency * 2);
        assert_eq!(s.max_recv_bytes, 2000);
        assert!(s.bottleneck_wire_time > Duration::ZERO);
        assert_eq!(stats.per_dst_snapshot(), vec![1000, 2000]);
    }

    #[test]
    fn comm_summary_delta() {
        let stats = CommStats::default();
        stats.record_packet(100, 0);
        let before = stats.summary();
        stats.record_packet(900, 1);
        let delta = stats.summary().delta_since(&before);
        assert_eq!(delta.bytes_sent, 900);
        assert_eq!(delta.messages_sent, 1);
    }

    #[test]
    fn hotspot_tracking_finds_overloaded_receiver() {
        let stats = CommStats::new(4, NetworkModel::default());
        for dst in 0..4 {
            stats.record_packet(100, dst);
        }
        stats.record_packet(5000, 2); // hotspot
        let s = stats.summary();
        assert_eq!(s.max_recv_bytes, 5100);
        // Out-of-range destinations are counted in totals only.
        stats.record_packet(50, 99);
        assert_eq!(stats.summary().bytes_sent, s.bytes_sent + 50);
        assert_eq!(stats.summary().max_recv_bytes, 5100);
    }

    #[test]
    fn exchange_stats_accumulate_and_delta() {
        let stats = CommStats::default();
        stats.exchange.record_chunk_sent();
        stats.exchange.record_pool_miss();
        stats.exchange.record_bytes_placed(4096);
        let before = stats.summary().exchange;
        assert_eq!(before.chunks_sent, 1);
        assert_eq!(before.pool_misses, 1);
        assert_eq!(before.bytes_placed, 4096);
        assert_eq!(before.pool_hit_rate(), 0.0);
        stats.exchange.record_pool_hit();
        stats.exchange.record_pool_hit();
        stats.exchange.record_pool_miss();
        stats.exchange.record_recycled();
        let now = stats.summary().exchange;
        assert!((now.pool_hit_rate() - 0.5).abs() < 1e-12);
        let delta = now.delta_since(&before);
        assert_eq!(delta.chunks_sent, 0);
        assert_eq!(delta.pool_hits, 2);
        assert_eq!(delta.pool_misses, 1);
        assert_eq!(delta.chunks_recycled, 1);
        // Empty summary reports a 0 hit rate, not NaN.
        assert_eq!(ExchangeSummary::default().pool_hit_rate(), 0.0);
    }

    #[test]
    fn step_timer_accumulates_repeats() {
        let mut t = StepTimer::default();
        t.record("merge", Duration::from_millis(5));
        t.record("merge", Duration::from_millis(7));
        t.record("sample", Duration::from_millis(1));
        assert_eq!(
            t.into_steps(),
            vec![("merge", Duration::from_millis(12)), ("sample", Duration::from_millis(1))]
        );
    }

    #[test]
    fn step_report_aggregations() {
        let report = StepReport {
            per_machine: vec![
                vec![("a", Duration::from_millis(10)), ("b", Duration::from_millis(1))],
                vec![("a", Duration::from_millis(20))],
            ],
        };
        assert_eq!(report.max_across_machines("a"), Duration::from_millis(20));
        assert_eq!(report.mean_across_machines("a"), Duration::from_millis(15));
        assert_eq!(report.max_across_machines("b"), Duration::from_millis(1));
        assert_eq!(report.step_names(), vec!["a", "b"]);
        assert_eq!(report.max_across_machines("zz"), Duration::ZERO);
    }

    #[test]
    fn delta_since_saturates_on_swapped_snapshots() {
        // Passing snapshots in the wrong order (or diffing against a
        // freshly reset counter set) must clamp to zero, not underflow.
        let stats = CommStats::default();
        stats.record_packet(100, 0);
        stats.exchange.record_chunk_sent();
        stats.exchange.record_pool_hit();
        stats.exchange.record_pool_miss();
        stats.exchange.record_recycled();
        stats.exchange.record_bytes_placed(64);
        let before = stats.summary();
        stats.record_packet(900, 1);
        stats.exchange.record_chunk_sent();

        // Swapped order: earlier.delta_since(&later).
        let swapped = before.delta_since(&stats.summary());
        assert_eq!(swapped.bytes_sent, 0);
        assert_eq!(swapped.messages_sent, 0);
        assert_eq!(swapped.modeled_wire_time, Duration::ZERO);
        assert_eq!(swapped.exchange.chunks_sent, 0);

        // Reset counters: a default (all-zero) snapshot diffed against a
        // live one.
        let reset = CommSummary::default().delta_since(&before);
        assert_eq!(reset.bytes_sent, 0);
        assert_eq!(reset.exchange.chunks_recycled, 0);
        assert_eq!(reset.exchange.pool_hits, 0);
        assert_eq!(reset.exchange.pool_misses, 0);
        assert_eq!(reset.exchange.bytes_placed, 0);

        let ex_swapped = before.exchange.delta_since(&stats.summary().exchange);
        assert_eq!(ex_swapped, ExchangeSummary::default());
    }

    #[test]
    fn step_report_percentiles() {
        let ms = Duration::from_millis;
        let report = StepReport {
            per_machine: vec![
                vec![("a", ms(10))],
                vec![("a", ms(20))],
                vec![("a", ms(30))],
                vec![("a", ms(100))],
            ],
        };
        // Nearest-rank over [10, 20, 30, 100].
        assert_eq!(report.p50_across_machines("a"), ms(20));
        assert_eq!(report.p95_across_machines("a"), ms(100));
        assert_eq!(report.percentile_across_machines("a", 25.0), ms(10));
        assert_eq!(report.percentile_across_machines("a", 100.0), ms(100));
        // Missing step counts as zero per machine, like max/mean.
        assert_eq!(report.p50_across_machines("zz"), Duration::ZERO);
        // Single machine: every percentile is its value.
        let one = StepReport {
            per_machine: vec![vec![("a", ms(7))]],
        };
        assert_eq!(one.p50_across_machines("a"), ms(7));
        assert_eq!(one.p95_across_machines("a"), ms(7));
        // Empty report.
        assert_eq!(StepReport::default().p95_across_machines("a"), Duration::ZERO);
    }

    fn report(per_machine: &[&[u64]]) -> StepReport {
        let steps = |ms: &&[u64]| ms.iter().map(|&t| ("s", Duration::from_millis(t))).collect();
        StepReport {
            per_machine: per_machine.iter().map(steps).collect(),
        }
    }

    #[test]
    fn slowest_machine_names_the_straggler_over_the_lower_median() {
        assert_eq!(report(&[&[20], &[20], &[400], &[30]]).slowest_machine("s"), Some((2, 20.0)));
        // p = 2: the lower median is the faster machine, so the slower one
        // reads above 1x (an upper median would be itself).
        assert_eq!(report(&[&[10], &[30]]).slowest_machine("s"), Some((1, 3.0)));
        // A tie names the lowest id.
        assert_eq!(report(&[&[5], &[9], &[9]]).slowest_machine("s"), Some((1, 1.0)));
        assert_eq!(StepReport::default().slowest_machine("s"), None);
    }

    #[test]
    fn slowest_machine_counts_a_missing_step_as_zero() {
        // Like max/mean: [10, 20, 0] has lower median 10.
        assert_eq!(report(&[&[10], &[20], &[]]).slowest_machine("s"), Some((1, 2.0)));
    }

    #[test]
    fn slowest_machine_of_one_machine_is_itself() {
        assert_eq!(report(&[&[7]]).slowest_machine("s"), Some((0, 1.0)));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }
}
