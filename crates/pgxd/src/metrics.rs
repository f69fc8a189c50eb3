//! Runtime metrics: the always-on registry, communication accounting,
//! and per-step wall timers.
//!
//! Every experiment in the paper's §V reads one of these: Fig. 5/6/8 read
//! total wall time, Fig. 7 reads the per-step breakdown, Fig. 9 reads
//! communication bytes / modeled wire time, Table II/III read the load
//! statistics the sort itself reports.
//!
//! # The metrics plane (v2)
//!
//! [`MetricsRegistry`] is a cluster-wide, always-on registry of named
//! [`Counter`]s, [`Gauge`]s, and log₂-bucketed [`Histogram`]s. Every
//! runtime layer registers into it — the comm manager and exchange
//! pipeline ([`CommStats::register_into`]), the chunk pool (through the
//! shared [`ExchangeStats`] cells), the barrier and step hooks on
//! [`MachineCtx`](crate::machine::MachineCtx), the task manager's pickup
//! counter, the fault plane, and the sorter's load statistics. A metric
//! handle is an `Arc`'d atomic cell: registration (cold) takes the
//! registry lock once; the hot path is a single
//! `fetch_add(1, Relaxed)`.
//!
//! ## Ordering policy
//!
//! Everything here is `std::sync::atomic` with `Relaxed` ordering, and
//! deliberately *not* [`crate::sync`]: these are monotonic statistics
//! that never gate control flow, so keeping them invisible to loom keeps
//! the model checker's state space tractable. The `atomics-ordering`
//! analyze pass audits this file; every `Relaxed` site carries an
//! `analyze: allow(atomics-ordering)` justification.
//!
//! ## Snapshots and exporters
//!
//! [`MetricsRegistry::snapshot`] produces an immutable
//! [`MetricsSnapshot`] that can be merged across machines
//! ([`MetricsSnapshot::merge`], counters sum / gauges max / histogram
//! buckets add) and exported as Prometheus text
//! ([`MetricsSnapshot::to_prometheus_text`]) or JSON
//! ([`MetricsSnapshot::to_json`]). The in-flight health monitor
//! ([`crate::health`]) samples the same registry while the run executes.

use crate::net::NetworkModel;
use crate::sync::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Metric primitives
// ---------------------------------------------------------------------------

/// A monotonic counter: an `Arc`'d atomic cell, cheap to clone into every
/// layer that records it. One `fetch_add` per event, `Relaxed` — see the
/// module docs for the ordering policy.
#[derive(Debug, Clone, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

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

    /// `true` when `other` shares this counter's cell (registered alias).
    pub fn same_cell(&self, other: &Counter) -> bool {
        Arc::ptr_eq(&self.cell, &other.cell)
    }
}

/// A last-value gauge (also supports monotone-max updates). Same cell
/// shape and ordering policy as [`Counter`].
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    cell: Arc<AtomicU64>,
}

impl Gauge {
    /// A fresh gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    // analyze: allow(atomics-ordering): last-writer-wins statistic; no
    // consumer derives a happens-before edge from it.
    pub fn set(&self, v: u64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Raises the value to `v` if larger.
    // analyze: allow(atomics-ordering): monotone max of a statistic.
    pub fn set_max(&self, v: u64) {
        self.cell.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    // analyze: allow(atomics-ordering): statistics read; no
    // happens-before obligation on the value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// Number of log₂ buckets a [`Histogram`] holds. Bucket 0 is the value 0;
/// bucket `i` (for `1 <= i < 63`) covers `[2^(i-1), 2^i - 1]`; bucket 63
/// saturates (`>= 2^62`).
pub const HISTOGRAM_BUCKETS: usize = 64;

#[derive(Debug)]
struct HistogramCore {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

/// A lock-free log₂-bucketed histogram for latencies (ns) and sizes
/// (bytes): concurrent writers each pay one bucket `fetch_add` plus the
/// count/sum/max updates, all `Relaxed`. Extraction (p50/p95/p99) and
/// cross-machine merge happen on [`HistogramSnapshot`]s.
#[derive(Debug, Clone)]
pub struct Histogram {
    core: Arc<HistogramCore>,
}

/// The bucket a value lands in (see [`HISTOGRAM_BUCKETS`]).
pub fn histogram_bucket(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` ([`u64::MAX`] for the saturation
/// bucket) — the value percentile extraction reports for the bucket.
pub fn histogram_bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl Default for Histogram {
    // analyze: allow(hot-path-alloc): one shared core per histogram,
    // allocated at registration; recording is lock- and alloc-free.
    fn default() -> Self {
        Histogram {
            core: Arc::new(HistogramCore {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                max: AtomicU64::new(0),
            }),
        }
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    // analyze: allow(atomics-ordering): independent monotonic statistic
    // cells; a reader snapshotting mid-update sees a histogram that is
    // merely a moment older, never torn control flow.
    pub fn record(&self, v: u64) {
        self.core.buckets[histogram_bucket(v)].fetch_add(1, Ordering::Relaxed);
        self.core.count.fetch_add(1, Ordering::Relaxed);
        self.core.sum.fetch_add(v, Ordering::Relaxed);
        self.core.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Records a duration in nanoseconds (saturating at `u64::MAX`).
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Folds another histogram's current contents into this one (the
    /// cross-machine merge for live histograms; snapshots merge via
    /// [`HistogramSnapshot::merge`]).
    // analyze: allow(atomics-ordering): statistic-to-statistic copy; both
    // sides tolerate concurrent updates by design.
    pub fn merge_from(&self, other: &Histogram) {
        for i in 0..HISTOGRAM_BUCKETS {
            let n = other.core.buckets[i].load(Ordering::Relaxed);
            if n > 0 {
                self.core.buckets[i].fetch_add(n, Ordering::Relaxed);
            }
        }
        self.core.count.fetch_add(other.core.count.load(Ordering::Relaxed), Ordering::Relaxed);
        self.core.sum.fetch_add(other.core.sum.load(Ordering::Relaxed), Ordering::Relaxed);
        self.core.max.fetch_max(other.core.max.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Immutable snapshot (buckets, count, sum, max).
    // analyze: allow(atomics-ordering): statistics reads; the snapshot is
    // advisory and per-cell consistent, which is all consumers need.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.core.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: self.core.count.load(Ordering::Relaxed),
            sum: self.core.sum.load(Ordering::Relaxed),
            max: self.core.max.load(Ordering::Relaxed),
        }
    }
}

/// Immutable view of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (saturation aside).
    pub sum: u64,
    /// Largest observed value.
    pub max: u64,
}

/// Nearest-rank index for percentile `pct` over `len` sorted samples.
/// The single percentile definition shared by [`StepReport`] and
/// [`HistogramSnapshot`] (and through them, the bench harness).
pub fn nearest_rank_index(len: usize, pct: f64) -> usize {
    let pct = pct.clamp(0.0, 100.0);
    let rank = ((pct / 100.0 * len as f64).ceil() as usize).saturating_sub(1);
    rank.min(len.saturating_sub(1))
}

impl HistogramSnapshot {
    /// Nearest-rank percentile: the upper bound of the bucket the ranked
    /// observation falls in, clamped to the observed max (so a sparse
    /// histogram never reports a value larger than anything recorded).
    /// Zero when empty.
    pub fn percentile(&self, pct: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = nearest_rank_index(self.count as usize, pct) as u64;
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen > rank {
                return histogram_bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Median (nearest-rank p50).
    pub fn p50(&self) -> u64 {
        self.percentile(50.0)
    }

    /// 95th percentile.
    pub fn p95(&self) -> u64 {
        self.percentile(95.0)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(99.0)
    }

    /// Mean observed value (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Adds another snapshot's observations (cross-machine merge).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (i, &n) in other.buckets.iter().enumerate() {
            self.buckets[i] += n;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }
}

// ---------------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------------

/// Renders `family{k="v",...}` — the canonical labeled-metric name used
/// as a registry key (and understood label-wise by the Prometheus
/// exporter).
// analyze: allow(hot-path-alloc): name rendering happens at metric
// registration; hot paths hold pre-registered handles (see machine.rs
// step_hists) and never re-render names.
pub fn labeled(family: &str, labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return family.to_string();
    }
    let mut s = String::with_capacity(family.len() + 16 * labels.len());
    s.push_str(family);
    s.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(k);
        s.push_str("=\"");
        s.push_str(v);
        s.push('"');
    }
    s.push('}');
    s
}

#[derive(Default)]
struct RegistryInner {
    counters: Vec<(String, Counter)>,
    gauges: Vec<(String, Gauge)>,
    histograms: Vec<(String, Histogram)>,
}

/// The always-on metrics registry of one cluster run: named counters,
/// gauges, and histograms, shared (`Arc`) by every machine. Lookup and
/// registration take the registry lock (cold path, setup and step
/// boundaries only); recording through a handle is lock-free.
pub struct MetricsRegistry {
    epoch: Instant,
    inner: Mutex<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry {
            epoch: Instant::now(),
            inner: Mutex::new(RegistryInner::default()),
        }
    }
}

impl MetricsRegistry {
    /// A fresh, empty registry; its epoch (for [`Self::now_ns`]) is the
    /// construction instant.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Nanoseconds since the registry was created — the shared clock
    /// progress gauges and the health monitor report against.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// The counter named `name`, creating it at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut g = self.inner.lock();
        if let Some((_, c)) = g.counters.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Counter::new();
        g.counters.push((name.to_string(), c.clone()));
        c
    }

    /// Registers an *existing* counter cell under `name` — how
    /// [`CommStats`] shares its hot-path cells with the registry instead
    /// of double-counting. Replaces any previous registration of `name`.
    pub fn register_counter(&self, name: &str, c: &Counter) {
        let mut g = self.inner.lock();
        if let Some(slot) = g.counters.iter_mut().find(|(n, _)| n == name) {
            slot.1 = c.clone();
        } else {
            g.counters.push((name.to_string(), c.clone()));
        }
    }

    /// The gauge named `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut g = self.inner.lock();
        if let Some((_, c)) = g.gauges.iter().find(|(n, _)| n == name) {
            return c.clone();
        }
        let c = Gauge::new();
        g.gauges.push((name.to_string(), c.clone()));
        c
    }

    /// The histogram named `name`, creating it empty on first use.
    // analyze: allow(hot-path-alloc): first-use registration — callers
    // cache the returned handle (machine.rs step_hists), so steady-state
    // recording never re-enters here.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut g = self.inner.lock();
        if let Some((_, h)) = g.histograms.iter().find(|(n, _)| n == name) {
            return h.clone();
        }
        let h = Histogram::new();
        g.histograms.push((name.to_string(), h.clone()));
        h
    }

    /// An immutable snapshot of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        // Clone the (name, handle) pairs under the lock, read the cells
        // after releasing it: the registry lock only guards the name map,
        // and the handles are lock-free to read.
        let g = self.inner.lock();
        let counter_handles: Vec<(String, Counter)> = g.counters.to_vec();
        let gauge_handles: Vec<(String, Gauge)> = g.gauges.to_vec();
        let histogram_handles: Vec<(String, Histogram)> = g.histograms.to_vec();
        drop(g);
        let mut counters: Vec<(String, u64)> =
            counter_handles.into_iter().map(|(n, c)| (n, c.get())).collect();
        let mut gauges: Vec<(String, u64)> =
            gauge_handles.into_iter().map(|(n, c)| (n, c.get())).collect();
        let mut histograms: Vec<(String, HistogramSnapshot)> =
            histogram_handles.into_iter().map(|(n, h)| (n, h.snapshot())).collect();
        counters.sort_by(|a, b| a.0.cmp(&b.0));
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            taken_at_ns: self.now_ns(),
            counters,
            gauges,
            histograms,
        }
    }
}

/// Shared handle to a run's metrics registry.
pub type SharedMetrics = Arc<MetricsRegistry>;

// ---------------------------------------------------------------------------
// Snapshots and exporters
// ---------------------------------------------------------------------------

/// Immutable snapshot of a [`MetricsRegistry`]: the unit of export
/// (Prometheus text / JSON) and of cross-machine merge.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// When the snapshot was taken, ns since the registry epoch.
    pub taken_at_ns: u64,
    /// `(name, value)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` for every gauge, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, snapshot)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Splits a canonical metric name into `(family, labels)` — `labels` is
/// the `k="v",...` interior, empty when unlabeled.
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(i) => (&name[..i], name[i + 1..].trim_end_matches('}')),
        None => (name, ""),
    }
}

/// `s` with the characters a JSON string may not hold verbatim escaped
/// (quote, backslash, control characters); the caller adds the quotes.
/// The one escaper behind every hand-written exporter: this module,
/// [`crate::trace`], [`crate::health`] and the `exp` result writer.
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

impl MetricsSnapshot {
    /// Value of the counter named exactly `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Value of the gauge named exactly `name`.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The histogram named exactly `name`.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Every counter of `family` (label variants included), in name
    /// order.
    pub fn counters_of_family<'a>(&'a self, family: &'a str) -> impl Iterator<Item = (&'a str, u64)> {
        self.counters
            .iter()
            .filter(move |(n, _)| split_labels(n).0 == family)
            .map(|(n, v)| (n.as_str(), *v))
    }

    /// Merges another machine's snapshot into this one: counters sum,
    /// gauges keep the max, histograms add bucket-wise. Names union.
    // analyze: allow(hot-path-alloc): snapshot merge runs at report/
    // gather granularity (once per run or per gather), not per element.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (n, v) in &other.counters {
            match self.counters.iter_mut().find(|(mine, _)| mine == n) {
                Some(slot) => slot.1 += v,
                None => self.counters.push((n.clone(), *v)),
            }
        }
        for (n, v) in &other.gauges {
            match self.gauges.iter_mut().find(|(mine, _)| mine == n) {
                Some(slot) => slot.1 = slot.1.max(*v),
                None => self.gauges.push((n.clone(), *v)),
            }
        }
        for (n, h) in &other.histograms {
            match self.histograms.iter_mut().find(|(mine, _)| mine == n) {
                Some(slot) => slot.1.merge(h),
                None => self.histograms.push((n.clone(), h.clone())),
            }
        }
        self.counters.sort_by(|a, b| a.0.cmp(&b.0));
        self.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        self.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        self.taken_at_ns = self.taken_at_ns.max(other.taken_at_ns);
    }

    /// Prometheus text exposition (one `# TYPE` line per family; labeled
    /// variants share the family's type line; histograms emit cumulative
    /// `_bucket{le=...}` series plus `_sum`/`_count`).
    pub fn to_prometheus_text(&self) -> String {
        let mut out = String::new();
        let mut last_family = "";
        for (name, v) in &self.counters {
            let (family, _) = split_labels(name);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} counter\n"));
                last_family = family;
            }
            out.push_str(&format!("{name} {v}\n"));
        }
        last_family = "";
        for (name, v) in &self.gauges {
            let (family, _) = split_labels(name);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} gauge\n"));
                last_family = family;
            }
            out.push_str(&format!("{name} {v}\n"));
        }
        last_family = "";
        for (name, h) in &self.histograms {
            let (family, labels) = split_labels(name);
            if family != last_family {
                out.push_str(&format!("# TYPE {family} histogram\n"));
                last_family = family;
            }
            let with = |extra: &str| {
                if labels.is_empty() {
                    format!("{{{extra}}}")
                } else {
                    format!("{{{labels},{extra}}}")
                }
            };
            let label_suffix = if labels.is_empty() {
                String::new()
            } else {
                format!("{{{labels}}}")
            };
            let mut cumulative = 0u64;
            let top = h
                .buckets
                .iter()
                .rposition(|&n| n > 0)
                .unwrap_or(0)
                .min(HISTOGRAM_BUCKETS - 2);
            for (i, &n) in h.buckets.iter().enumerate().take(top + 1) {
                cumulative += n;
                let le = histogram_bucket_upper(i);
                out.push_str(&format!(
                    "{family}_bucket{} {cumulative}\n",
                    with(&format!("le=\"{le}\""))
                ));
            }
            out.push_str(&format!(
                "{family}_bucket{} {}\n",
                with("le=\"+Inf\""),
                h.count
            ));
            out.push_str(&format!("{family}_sum{label_suffix} {}\n", h.sum));
            out.push_str(&format!("{family}_count{label_suffix} {}\n", h.count));
        }
        out
    }

    /// JSON export (schema `pgxd-metrics/1`): counters and gauges as
    /// name→value maps, histograms with count/sum/max, the extracted
    /// p50/p95/p99, and the raw bucket counts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        out.push_str(&format!(
            "\"schema\":\"pgxd-metrics/1\",\"taken_at_ns\":{},",
            self.taken_at_ns
        ));
        out.push_str("\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(n)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(n)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (n, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let buckets: Vec<String> = {
                let top = h.buckets.iter().rposition(|&b| b > 0).map_or(0, |t| t + 1);
                h.buckets[..top].iter().map(|b| b.to_string()).collect()
            };
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"buckets\":[{}]}}",
                json_escape(n),
                h.count,
                h.sum,
                h.max,
                h.p50(),
                h.p95(),
                h.p99(),
                buckets.join(",")
            ));
        }
        out.push_str("}}");
        out
    }
}

// ---------------------------------------------------------------------------
// Communication accounting (registry-backed cells)
// ---------------------------------------------------------------------------

/// Cluster-wide communication counters, shared by every machine's comm
/// manager. All counters are monotonic and relaxed — they are statistics,
/// not synchronization (see the module docs). The cells are registry
/// [`Counter`]s, so [`CommStats::register_into`] shares them with the
/// [`MetricsRegistry`] instead of double-counting on the hot path.
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

    /// Shares the exchange cells with `registry` under their canonical
    /// names.
    pub fn register_into(&self, registry: &MetricsRegistry) {
        registry.register_counter("pgxd_exchange_chunks_sent_total", &self.chunks_sent);
        registry.register_counter("pgxd_exchange_chunks_recycled_total", &self.chunks_recycled);
        registry.register_counter("pgxd_pool_hits_total", &self.pool_hits);
        registry.register_counter("pgxd_pool_misses_total", &self.pool_misses);
        registry.register_counter("pgxd_exchange_bytes_placed_total", &self.bytes_placed);
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
            bytes_sent: Counter::new(),
            messages_sent: Counter::new(),
            modeled_wire_nanos: Counter::new(),
            exchange: ExchangeStats::default(),
            per_dst_bytes: (0..p).map(|_| Counter::new()).collect(),
            net,
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

    /// Shares every comm cell (totals, exchange, per-destination bytes)
    /// with `registry` under the canonical `pgxd_comm_*` names — the
    /// "registration" that makes the registry the single source of truth
    /// without a second hot-path `fetch_add`.
    pub fn register_into(&self, registry: &MetricsRegistry) {
        registry.register_counter("pgxd_comm_bytes_sent_total", &self.bytes_sent);
        registry.register_counter("pgxd_comm_messages_total", &self.messages_sent);
        registry.register_counter("pgxd_comm_wire_nanos_total", &self.modeled_wire_nanos);
        for (dst, c) in self.per_dst_bytes.iter().enumerate() {
            let dst = dst.to_string();
            registry.register_counter(&labeled("pgxd_comm_dst_bytes_total", &[("dst", &dst)]), c);
        }
        self.exchange.register_into(registry);
    }

    /// Bytes addressed to each machine, indexed by destination.
    // analyze: allow(hot-path-alloc): O(p) counter snapshot at watchdog
    // sampling cadence.
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

/// Wall-clock timer for named algorithm steps, one per machine.
///
/// The sorting algorithm brackets each of its six §IV steps with
/// [`StepTimer::time`]; the cluster report aggregates them into the Fig. 7
/// breakdown.
#[derive(Debug, Default)]
pub struct StepTimer {
    steps: Vec<(&'static str, Duration)>,
}

impl StepTimer {
    /// Creates an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Times `f`, recording the duration under `name`. Repeated names
    /// accumulate (useful for loops).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// Records an externally measured duration under `name`.
    pub fn record(&mut self, name: &'static str, elapsed: Duration) {
        if let Some(entry) = self.steps.iter_mut().find(|(n, _)| *n == name) {
            entry.1 += elapsed;
        } else {
            self.steps.push((name, elapsed));
        }
    }

    /// The recorded `(name, total duration)` pairs, in first-seen order.
    pub fn steps(&self) -> &[(&'static str, Duration)] {
        &self.steps
    }

    /// Duration recorded for `name` (zero if absent).
    pub fn get(&self, name: &str) -> Duration {
        self.steps
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, d)| *d)
            .unwrap_or_default()
    }

    /// Sum of all recorded steps.
    pub fn total(&self) -> Duration {
        self.steps.iter().map(|(_, d)| *d).sum()
    }
}

/// Per-machine step timings collected after a cluster run.
#[derive(Debug, Clone, Default)]
pub struct StepReport {
    /// `per_machine[m]` = the `(step, duration)` list machine `m` recorded.
    pub per_machine: Vec<Vec<(&'static str, Duration)>>,
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
    /// (`pct` in `(0, 100]`), via the same [`nearest_rank_index`] the
    /// registry histograms use. Machines that never recorded the step
    /// count as zero, matching
    /// [`max_across_machines`](Self::max_across_machines) and
    /// [`mean_across_machines`](Self::mean_across_machines).
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
        let mut t = StepTimer::new();
        t.record("merge", Duration::from_millis(5));
        t.record("merge", Duration::from_millis(7));
        t.record("sample", Duration::from_millis(1));
        assert_eq!(t.get("merge"), Duration::from_millis(12));
        assert_eq!(t.get("sample"), Duration::from_millis(1));
        assert_eq!(t.get("missing"), Duration::ZERO);
        assert_eq!(t.total(), Duration::from_millis(13));
        assert_eq!(t.steps().len(), 2);
    }

    #[test]
    fn step_timer_times_closures() {
        let mut t = StepTimer::new();
        let out = t.time("work", || {
            std::thread::sleep(Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        assert!(t.get("work") >= Duration::from_millis(2));
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

    // --- registry -------------------------------------------------------

    #[test]
    fn counters_and_gauges_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("pgxd_test_total");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name, same cell.
        let again = reg.counter("pgxd_test_total");
        assert!(c.same_cell(&again));
        again.inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("pgxd_test_gauge");
        g.set(9);
        g.set_max(3); // lower: no change
        assert_eq!(g.get(), 9);
        g.set_max(12);
        assert_eq!(g.get(), 12);

        let snap = reg.snapshot();
        assert_eq!(snap.counter("pgxd_test_total"), Some(6));
        assert_eq!(snap.gauge("pgxd_test_gauge"), Some(12));
        assert_eq!(snap.counter("absent"), None);
    }

    #[test]
    fn register_counter_shares_the_cell() {
        let reg = MetricsRegistry::new();
        let stats = CommStats::new(2, NetworkModel::default());
        stats.register_into(&reg);
        stats.record_packet(1000, 1);
        stats.exchange.record_pool_hit();
        let snap = reg.snapshot();
        assert_eq!(snap.counter("pgxd_comm_bytes_sent_total"), Some(1000));
        assert_eq!(snap.counter("pgxd_comm_messages_total"), Some(1));
        assert_eq!(snap.counter("pgxd_pool_hits_total"), Some(1));
        assert_eq!(snap.counter("pgxd_comm_dst_bytes_total{dst=\"0\"}"), Some(0));
        assert_eq!(snap.counter("pgxd_comm_dst_bytes_total{dst=\"1\"}"), Some(1000));
        // The registry view and the CommSummary view are the same cells.
        assert_eq!(stats.summary().bytes_sent, 1000);
        let dsts: Vec<u64> = snap
            .counters_of_family("pgxd_comm_dst_bytes_total")
            .map(|(_, v)| v)
            .collect();
        assert_eq!(dsts, stats.per_dst_snapshot());
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(histogram_bucket(0), 0);
        assert_eq!(histogram_bucket(1), 1);
        assert_eq!(histogram_bucket(2), 2);
        assert_eq!(histogram_bucket(3), 2);
        assert_eq!(histogram_bucket(4), 3);
        assert_eq!(histogram_bucket(1023), 10);
        assert_eq!(histogram_bucket(1024), 11);
        assert_eq!(histogram_bucket(u64::MAX), HISTOGRAM_BUCKETS - 1);
        assert_eq!(histogram_bucket(1u64 << 62), HISTOGRAM_BUCKETS - 1);
        assert_eq!(histogram_bucket_upper(0), 0);
        assert_eq!(histogram_bucket_upper(1), 1);
        assert_eq!(histogram_bucket_upper(10), 1023);
        assert_eq!(histogram_bucket_upper(HISTOGRAM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_saturates_at_top_bucket() {
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(1u64 << 63);
        let s = h.snapshot();
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 2);
        assert_eq!(s.count, 2);
        assert_eq!(s.max, u64::MAX);
        // The saturated percentile is clamped to the observed max, not
        // some bucket bound beyond it.
        assert_eq!(s.percentile(50.0), u64::MAX);
    }

    #[test]
    fn empty_snapshot_percentiles_are_zero() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p95(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0.0);
        // And a default (bucketless) snapshot behaves the same.
        assert_eq!(HistogramSnapshot::default().p99(), 0);
    }

    #[test]
    fn histogram_percentiles_track_nearest_rank() {
        let h = Histogram::new();
        // 90 small values (bucket of 100 ⇒ upper bound 127), 10 large
        // (bucket of 100_000 ⇒ upper bound 131071).
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..10 {
            h.record(100_000);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 100);
        assert_eq!(s.p50(), 127);
        assert!(s.p95() >= 100_000);
        // Clamped to the observed max.
        assert_eq!(s.p95(), 100_000.min(s.p95()));
        assert_eq!(s.max, 100_000);
    }

    #[test]
    fn concurrent_writers_then_merge() {
        let reg = Arc::new(MetricsRegistry::new());
        let h = reg.histogram("pgxd_concurrent_ns");
        std::thread::scope(|scope| {
            for t in 0..4 {
                let h = h.clone();
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(t * 1000 + i);
                    }
                });
            }
        });
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);

        // Live merge: a second histogram folds in; counts add exactly.
        let other = Histogram::new();
        for i in 0..500u64 {
            other.record(i);
        }
        h.merge_from(&other);
        let merged = h.snapshot();
        assert_eq!(merged.count, 4500);
        assert_eq!(merged.buckets.iter().sum::<u64>(), 4500);

        // Snapshot merge agrees with live merge on count/sum.
        let mut a = s.clone();
        a.merge(&other.snapshot());
        assert_eq!(a.count, merged.count);
        assert_eq!(a.sum, merged.sum);
        assert_eq!(a.max, merged.max);
    }

    #[test]
    fn snapshot_merge_unions_and_sums() {
        let ra = MetricsRegistry::new();
        ra.counter("shared_total").add(5);
        ra.counter("only_a_total").add(1);
        ra.gauge("g").set(10);
        ra.histogram("h").record(8);
        let rb = MetricsRegistry::new();
        rb.counter("shared_total").add(7);
        rb.counter("only_b_total").add(2);
        rb.gauge("g").set(4);
        rb.histogram("h").record(32);

        let mut merged = ra.snapshot();
        merged.merge(&rb.snapshot());
        assert_eq!(merged.counter("shared_total"), Some(12));
        assert_eq!(merged.counter("only_a_total"), Some(1));
        assert_eq!(merged.counter("only_b_total"), Some(2));
        assert_eq!(merged.gauge("g"), Some(10)); // max wins
        let h = merged.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 40);
    }

    #[test]
    fn prometheus_text_format() {
        let reg = MetricsRegistry::new();
        reg.counter("pgxd_a_total").add(3);
        reg.counter(&labeled("pgxd_dst_total", &[("dst", "0")])).add(1);
        reg.counter(&labeled("pgxd_dst_total", &[("dst", "1")])).add(2);
        reg.gauge("pgxd_g").set(7);
        let h = reg.histogram(&labeled("pgxd_lat_ns", &[("step", "x")]));
        h.record(100);
        h.record(1000);
        let text = reg.snapshot().to_prometheus_text();
        assert!(text.contains("# TYPE pgxd_a_total counter\npgxd_a_total 3\n"));
        // One TYPE line covers both label variants.
        assert_eq!(text.matches("# TYPE pgxd_dst_total counter").count(), 1);
        assert!(text.contains("pgxd_dst_total{dst=\"0\"} 1\n"));
        assert!(text.contains("pgxd_dst_total{dst=\"1\"} 2\n"));
        assert!(text.contains("# TYPE pgxd_g gauge\npgxd_g 7\n"));
        assert!(text.contains("# TYPE pgxd_lat_ns histogram\n"));
        assert!(text.contains("pgxd_lat_ns_bucket{step=\"x\",le=\"127\"} 1\n"));
        assert!(text.contains("pgxd_lat_ns_bucket{step=\"x\",le=\"+Inf\"} 2\n"));
        assert!(text.contains("pgxd_lat_ns_sum{step=\"x\"} 1100\n"));
        assert!(text.contains("pgxd_lat_ns_count{step=\"x\"} 2\n"));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn json_export_escapes_and_structures() {
        let reg = MetricsRegistry::new();
        reg.counter(&labeled("pgxd_dst_total", &[("dst", "0")])).add(4);
        reg.histogram("pgxd_h").record(5);
        let json = reg.snapshot().to_json();
        assert!(json.starts_with("{\"schema\":\"pgxd-metrics/1\""));
        // Label quotes are escaped.
        assert!(json.contains("\"pgxd_dst_total{dst=\\\"0\\\"}\":4"));
        assert!(json.contains("\"pgxd_h\":{\"count\":1,\"sum\":5,\"max\":5"));
        assert!(json.contains("\"p50\":5"));
        // Still a structurally balanced object.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn labeled_renders_canonical_names() {
        assert_eq!(labeled("f", &[]), "f");
        assert_eq!(labeled("f", &[("a", "1")]), "f{a=\"1\"}");
        assert_eq!(labeled("f", &[("a", "1"), ("b", "x")]), "f{a=\"1\",b=\"x\"}");
    }
}
