//! Structured runtime tracing: one event log per machine, a
//! cluster-level collector, and Chrome-trace/JSONL exporters.
//!
//! The paper's whole evaluation (§V) is an observability exercise —
//! per-step wall times, communication volume, load balance — but
//! end-of-run aggregates ([`CommSummary`](crate::metrics::CommSummary),
//! [`StepReport`](crate::metrics::StepReport)) cannot *show* the §IV-C
//! send-while-receive overlap or where a bad splitter stalls one machine.
//! This module records timestamped spans and instant events at every
//! interesting runtime edge (step begin/end, barrier enter/leave, task
//! start/end, chunk flush/send/receive/place) and merges them on one
//! clock so a whole cluster run can be replayed event-by-event in
//! `chrome://tracing` / Perfetto.
//!
//! # Overhead budget
//!
//! Tracing is off by default ([`TraceConfig::disabled`]). Every emission
//! site in the runtime holds an `Option<Arc<MachineTrace>>` that is `None`
//! when tracing is off, so a release run without tracing pays ~one
//! predictable branch per event site and touches no shared state. With
//! tracing on, an emission reads the clock, takes the machine's sink lock
//! and pushes one event. A sort emits tens to a few hundred events per
//! machine, so the lock is all but uncontended, and the log costs memory
//! in proportion to what it holds.
//!
//! # Event log + overflow policy
//!
//! Each machine has one sink: a locked `Vec` that grows on demand up to
//! 64 Ki events per run. Every thread of the machine pushes to it — the
//! mainline and its send tasks. A
//! lane (0 = mainline, 1.. = worker/destination lanes) is a label on the
//! event, not a buffer. Past the cap the sink keeps the **first** events
//! and counts the rest in [`TraceLog::dropped`], so nothing is lost
//! silently.
//!
//! # Collection
//!
//! Nothing reads a sink while its run is live: [`TraceCollector::collect`]
//! runs after the machines have joined (or, in tests, after a caught
//! panic). Step and phase spans carry their `&'static str` name until
//! then; collect numbers the names into [`TraceLog::names`]. It numbers
//! barrier spans too: only the mainline enters barriers, so the k-th
//! barrier span of every machine is barrier k.

use crate::metrics::json_escape;
use crate::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Lane index of a machine's mainline (SPMD closure) thread.
pub const LANE_MAIN: u32 = 0;

/// Events one machine keeps per run; [`TraceLog::dropped`] counts the rest.
const EVENTS_PER_MACHINE: usize = 64 * 1024;

/// Tracing configuration, carried by
/// [`ClusterConfig`](crate::cluster::ClusterConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceConfig {
    /// Whether the runtime emits events at all.
    pub enabled: bool,
}

impl TraceConfig {
    /// Tracing off (the default): emission sites fold to one branch.
    pub fn disabled() -> Self {
        TraceConfig { enabled: false }
    }

    /// Tracing on.
    pub fn enabled() -> Self {
        TraceConfig { enabled: true }
    }
}

/// What one trace event describes. Span kinds carry a duration; instant
/// kinds mark a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// One §IV algorithm step (`a` indexes [`TraceLog::names`]). Span.
    Step,
    /// One barrier crossing, enter→leave (`a` = per-machine barrier
    /// index, matching across machines in SPMD order). Span.
    Barrier,
    /// One task-manager task (`a` = caller-supplied label, e.g. the
    /// destination of an exchange send task; `b` = task index). Span.
    Task,
    /// The exchange receive loop, first wait→tiling check. Span.
    RecvLoop,
    /// A request buffer flushed a chunk (`a` = dst, `b` = encoded bytes).
    ChunkFlush,
    /// A chunk entered the fabric (`a` = dst, `b` = wire bytes).
    ChunkSend,
    /// A chunk arrived at this machine (`a` = src, `b` = wire bytes).
    ChunkRecv,
    /// A chunk was placed — copied, or unpacked — (`a` = element offset,
    /// `b` = element bytes).
    ChunkPlace,
    /// One sub-step phase span within a step (`a` indexes [`TraceLog::names`]).
    SortPhase,
}

impl EventKind {
    /// Whether this kind is a span (has a meaningful duration).
    pub fn is_span(self) -> bool {
        matches!(
            self,
            EventKind::Step
                | EventKind::Barrier
                | EventKind::Task
                | EventKind::RecvLoop
                | EventKind::SortPhase
        )
    }

    /// Stable lowercase label (JSONL `kind` field, Chrome fallback name).
    pub fn label(self) -> &'static str {
        match self {
            EventKind::Step => "step",
            EventKind::Barrier => "barrier",
            EventKind::Task => "task",
            EventKind::RecvLoop => "recv_loop",
            EventKind::ChunkFlush => "chunk_flush",
            EventKind::ChunkSend => "chunk_send",
            EventKind::ChunkRecv => "chunk_recv",
            EventKind::ChunkPlace => "chunk_place",
            EventKind::SortPhase => "sort_phase",
        }
    }

    /// Chrome trace category.
    fn category(self) -> &'static str {
        match self {
            EventKind::Step => "step",
            EventKind::Barrier => "barrier",
            EventKind::Task | EventKind::RecvLoop => "exchange",
            EventKind::ChunkFlush
            | EventKind::ChunkSend
            | EventKind::ChunkRecv
            | EventKind::ChunkPlace => "chunk",
            EventKind::SortPhase => "step",
        }
    }

    /// Names for the `a`/`b` payloads in exported args.
    fn arg_names(self) -> (&'static str, &'static str) {
        match self {
            EventKind::Step => ("name_id", "unused"),
            EventKind::Barrier => ("barrier_index", "unused"),
            EventKind::Task => ("label", "task_index"),
            EventKind::RecvLoop => ("expected_elems", "unused"),
            EventKind::ChunkFlush | EventKind::ChunkSend => ("dst", "bytes"),
            EventKind::ChunkRecv => ("src", "bytes"),
            EventKind::ChunkPlace => ("offset", "bytes"),
            EventKind::SortPhase => ("name_id", "unused"),
        }
    }
}

/// One recorded event: a span (`dur_ns > 0` or a span [`EventKind`]) or an
/// instant, on machine `machine`, lane `lane`, with two kind-specific
/// payload words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the cluster's trace epoch (span start time).
    pub t_ns: u64,
    /// Span duration in nanoseconds (0 for instants).
    pub dur_ns: u64,
    /// Machine id.
    pub machine: u32,
    /// Lane: 0 = mainline thread, 1.. = worker/destination lanes.
    pub lane: u32,
    /// Event kind.
    pub kind: EventKind,
    /// First payload word (meaning depends on `kind`).
    pub a: u64,
    /// Second payload word (meaning depends on `kind`).
    pub b: u64,
}

impl TraceEvent {
    /// End time of the event (`t_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.t_ns.saturating_add(self.dur_ns)
    }
}

/// What one machine emitted in a run: the kept events in emission order,
/// each with the name a step or phase span carries (`""` otherwise), and
/// the count of events past the cap.
#[derive(Debug, Default)]
struct Sink {
    events: Vec<(TraceEvent, &'static str)>,
    dropped: u64,
}

/// One machine's trace sink on the cluster's unified clock. Shared by
/// `Arc` between the machine's mainline thread, its send workers and its
/// comm sender clones.
#[derive(Debug)]
pub struct MachineTrace {
    machine: u32,
    epoch: Instant,
    sink: Mutex<Sink>,
}

impl MachineTrace {
    /// Nanoseconds since the cluster's trace epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Emits an instant event at the current time.
    pub fn instant(&self, lane: u32, kind: EventKind, a: u64, b: u64) {
        self.emit(self.event(lane, kind, self.now_ns(), 0, a, b), "");
    }

    /// Emits a span that started at `start_ns` (from [`now_ns`]) and ends
    /// now.
    ///
    /// [`now_ns`]: MachineTrace::now_ns
    pub fn span_since(&self, lane: u32, kind: EventKind, start_ns: u64, a: u64, b: u64) {
        let dur_ns = self.now_ns().saturating_sub(start_ns);
        self.emit(self.event(lane, kind, start_ns, dur_ns, a, b), "");
    }

    /// Emits a mainline [`EventKind::Step`] or [`EventKind::SortPhase`]
    /// span named `name` that started at `start_ns` and ends now; collect
    /// turns the name into its index in [`TraceLog::names`].
    pub fn span_since_named(&self, kind: EventKind, start_ns: u64, name: &'static str) {
        let dur_ns = self.now_ns().saturating_sub(start_ns);
        self.emit(self.event(LANE_MAIN, kind, start_ns, dur_ns, 0, 0), name);
    }

    fn event(
        &self,
        lane: u32,
        kind: EventKind,
        t_ns: u64,
        dur_ns: u64,
        a: u64,
        b: u64,
    ) -> TraceEvent {
        TraceEvent {
            t_ns,
            dur_ns,
            machine: self.machine,
            lane,
            kind,
            a,
            b,
        }
    }

    /// Appends this machine's kept events to `out`: a step or phase span's
    /// `a` becomes its name's index in `names` (pushed on first sight), a
    /// barrier span's `a` its order among this machine's barriers.
    /// Returns `(emitted, dropped)`.
    fn collect_into(&self, names: &mut Vec<&'static str>, out: &mut Vec<TraceEvent>) -> (u64, u64) {
        let sink = self.sink.lock();
        let mut barriers = 0;
        for &(mut ev, name) in &sink.events {
            match ev.kind {
                EventKind::Step | EventKind::SortPhase => {
                    ev.a = match names.iter().position(|n| *n == name) {
                        Some(i) => i as u64,
                        None => {
                            names.push(name);
                            names.len() as u64 - 1
                        }
                    };
                }
                EventKind::Barrier => {
                    ev.a = barriers;
                    barriers += 1;
                }
                _ => {}
            }
            out.push(ev);
        }
        (sink.events.len() as u64 + sink.dropped, sink.dropped)
    }

    /// Keeps `ev` if the machine is under its cap, counts it otherwise.
    fn emit(&self, ev: TraceEvent, name: &'static str) {
        let mut sink = self.sink.lock();
        if sink.events.len() < EVENTS_PER_MACHINE {
            sink.events.push((ev, name));
        } else {
            sink.dropped += 1;
        }
    }
}

/// The cluster-level collector: owns one [`MachineTrace`] per machine and
/// merges their sinks into a [`TraceLog`] after a run.
#[derive(Debug)]
pub struct TraceCollector {
    machines: Vec<Arc<MachineTrace>>,
}

impl TraceCollector {
    /// A collector for `machines` machines sharing one epoch,
    /// `Instant::now()` at construction.
    pub fn new(machines: usize) -> Self {
        let epoch = Instant::now();
        TraceCollector {
            machines: (0..machines)
                .map(|m| {
                    Arc::new(MachineTrace {
                        machine: m as u32,
                        epoch,
                        sink: Mutex::default(),
                    })
                })
                .collect(),
        }
    }

    /// The sink for machine `id`.
    pub fn machine(&self, id: usize) -> Arc<MachineTrace> {
        self.machines[id].clone()
    }

    /// Merges every machine's events on the unified clock, numbering step
    /// and phase names and each machine's barriers on the way.
    pub fn collect(&self) -> TraceLog {
        let mut names = Vec::new();
        let mut events = Vec::new();
        let (mut emitted, mut dropped) = (0, 0);
        for mt in &self.machines {
            let (e, d) = mt.collect_into(&mut names, &mut events);
            emitted += e;
            dropped += d;
        }
        // Stable, so same-time events keep their emission order.
        events.sort_by_key(|e| (e.t_ns, e.machine, e.lane));
        TraceLog {
            machines: self.machines.len(),
            events,
            names: names.into_iter().map(String::from).collect(),
            emitted,
            dropped,
        }
    }
}

/// One row of the per-machine step Gantt view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GanttRow {
    /// Machine id.
    pub machine: u32,
    /// Step name.
    pub name: String,
    /// Span start, ns since the trace epoch.
    pub start_ns: u64,
    /// Span duration in ns.
    pub dur_ns: u64,
}

/// A merged, clock-unified event log for one cluster run, with exporters
/// and derived analytics.
#[derive(Debug, Clone, Default)]
pub struct TraceLog {
    /// Number of machines in the traced cluster.
    pub machines: usize,
    /// All kept events, sorted by start time.
    pub events: Vec<TraceEvent>,
    /// Step and phase names, in order of first emission (`Step` and
    /// `SortPhase` events index this with `a`).
    pub names: Vec<String>,
    /// Events emitted across all machines, kept or not.
    pub emitted: u64,
    /// Events past a machine's cap of 64 Ki per run: counted, not kept.
    pub dropped: u64,
}

impl TraceLog {
    /// Display name of an event: the interned step name for step spans,
    /// a destination-qualified label for tasks, the kind label otherwise.
    pub fn event_name(&self, ev: &TraceEvent) -> String {
        match ev.kind {
            EventKind::Step | EventKind::SortPhase => self
                .names
                .get(ev.a as usize)
                .cloned()
                .unwrap_or_else(|| format!("step#{}", ev.a)),
            EventKind::Task => format!("send→{}", ev.a),
            k => k.label().to_string(),
        }
    }

    /// The run's step spans as Gantt rows, in event order.
    pub fn step_gantt(&self) -> Vec<GanttRow> {
        self.events
            .iter()
            .filter(|e| e.kind == EventKind::Step)
            .map(|e| GanttRow {
                machine: e.machine,
                name: self.event_name(e),
                start_ns: e.t_ns,
                dur_ns: e.dur_ns,
            })
            .collect()
    }

    /// Per-machine exchange overlap ratio: the time a machine spent both
    /// sending (a [`EventKind::Task`] span live) *and* receiving
    /// ([`EventKind::RecvLoop`] span live), over the time it spent doing
    /// either. `> 0` demonstrates §IV-C send-while-receive; `0` for
    /// machines with no exchange activity.
    pub fn exchange_overlap_ratios(&self) -> Vec<f64> {
        (0..self.machines as u32)
            .map(|m| {
                let send = union_intervals(self.spans_of(m, EventKind::Task));
                let recv = union_intervals(self.spans_of(m, EventKind::RecvLoop));
                let both = intersect_len(&send, &recv);
                let either = union_len(&send, &recv);
                if either == 0 {
                    0.0
                } else {
                    both as f64 / either as f64
                }
            })
            .collect()
    }

    /// Barrier wait skew: for each barrier index `k`, the spread between
    /// the first and the last machine *arriving* at it (max enter − min
    /// enter, ns). Sorted by index.
    pub fn barrier_skews(&self) -> Vec<(u64, u64)> {
        let mut arrivals: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        for e in self.events.iter().filter(|e| e.kind == EventKind::Barrier) {
            let entry = arrivals.entry(e.a).or_insert((u64::MAX, 0));
            entry.0 = entry.0.min(e.t_ns);
            entry.1 = entry.1.max(e.t_ns);
        }
        arrivals
            .into_iter()
            .map(|(k, (min, max))| (k, max.saturating_sub(min)))
            .collect()
    }

    /// Per-`(src, dst)` cumulative byte timelines from
    /// [`EventKind::ChunkSend`] events: each point is `(t_ns, cumulative
    /// bytes src has sent to dst)`.
    pub fn per_destination_byte_timelines(&self) -> BTreeMap<(u32, u32), Vec<(u64, u64)>> {
        let mut out: BTreeMap<(u32, u32), Vec<(u64, u64)>> = BTreeMap::new();
        for e in self
            .events
            .iter()
            .filter(|e| e.kind == EventKind::ChunkSend)
        {
            let series = out.entry((e.machine, e.a as u32)).or_default();
            let cum = series.last().map(|&(_, c)| c).unwrap_or(0) + e.b;
            series.push((e.t_ns, cum));
        }
        out
    }

    /// Spans of `kind` on machine `m` as `(start, end)` ns intervals.
    fn spans_of(&self, m: u32, kind: EventKind) -> Vec<(u64, u64)> {
        self.events
            .iter()
            .filter(|e| e.machine == m && e.kind == kind && e.dur_ns > 0)
            .map(|e| (e.t_ns, e.end_ns()))
            .collect()
    }

    /// Exports the Chrome `trace_event` JSON format (the "JSON Array
    /// wrapped in an object" flavor), loadable in `chrome://tracing` and
    /// Perfetto: spans as `ph:"X"` complete events, instants as `ph:"i"`,
    /// `pid` = machine, `tid` = lane, timestamps in microseconds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 160 + 1024);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        let mut first = true;
        let push = |s: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        for m in 0..self.machines {
            push(
                format!(
                    "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{m},\"tid\":0,\
                     \"args\":{{\"name\":\"machine {m}\"}}}}"
                ),
                &mut out,
                &mut first,
            );
        }
        for ev in &self.events {
            let name = json_escape(&self.event_name(ev));
            let (an, bn) = ev.kind.arg_names();
            let args = format!("{{\"{an}\":{},\"{bn}\":{}}}", ev.a, ev.b);
            let ts = ev.t_ns as f64 / 1000.0;
            let line = if ev.kind.is_span() {
                let dur = ev.dur_ns as f64 / 1000.0;
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{ts:.3},\
                     \"dur\":{dur:.3},\"pid\":{},\"tid\":{},\"args\":{args}}}",
                    ev.kind.category(),
                    ev.machine,
                    ev.lane,
                )
            } else {
                format!(
                    "{{\"name\":\"{name}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\
                     \"ts\":{ts:.3},\"pid\":{},\"tid\":{},\"args\":{args}}}",
                    ev.kind.category(),
                    ev.machine,
                    ev.lane,
                )
            };
            push(line, &mut out, &mut first);
        }
        out.push_str("]}");
        out
    }

    /// Exports one JSON object per line (compact machine-readable log).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 120);
        for ev in &self.events {
            let (an, bn) = ev.kind.arg_names();
            out.push_str(&format!(
                "{{\"t_ns\":{},\"dur_ns\":{},\"machine\":{},\"lane\":{},\
                 \"kind\":\"{}\",\"name\":\"{}\",\"{an}\":{},\"{bn}\":{}}}\n",
                ev.t_ns,
                ev.dur_ns,
                ev.machine,
                ev.lane,
                ev.kind.label(),
                json_escape(&self.event_name(ev)),
                ev.a,
                ev.b,
            ));
        }
        out
    }

    /// Events of a given kind (convenience for validations).
    pub fn events_of_kind(&self, kind: EventKind) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }
}

/// Merges overlapping `(start, end)` intervals.
fn union_intervals(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
    v.sort_unstable();
    let mut out: Vec<(u64, u64)> = Vec::with_capacity(v.len());
    for (s, e) in v {
        match out.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Total length of the intersection of two merged interval lists.
fn intersect_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let (mut i, mut j, mut total) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        let lo = a[i].0.max(b[j].0);
        let hi = a[i].1.min(b[j].1);
        if lo < hi {
            total += hi - lo;
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Total length of the union of two merged interval lists.
fn union_len(a: &[(u64, u64)], b: &[(u64, u64)]) -> u64 {
    let merged = union_intervals(a.iter().chain(b.iter()).copied().collect());
    merged.iter().map(|(s, e)| e - s).sum()
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn overflow_keeps_the_first_events_and_counts_the_rest() {
        let c = TraceCollector::new(1);
        let m = c.machine(0);
        for i in 0..EVENTS_PER_MACHINE as u64 + 3 {
            m.instant(LANE_MAIN, EventKind::ChunkSend, i, 10_000 + i);
        }
        let log = c.collect();
        assert_eq!(log.emitted, EVENTS_PER_MACHINE as u64 + 3);
        assert_eq!(log.dropped, 3);
        assert_eq!(log.events.len(), EVENTS_PER_MACHINE);
        // The survivors are exactly the first events, in emission order.
        for (i, e) in log.events.iter().enumerate() {
            assert_eq!((e.a, e.b), (i as u64, 10_000 + i as u64));
        }
    }

    #[test]
    fn ring_roundtrips_events_in_order() {
        let c = TraceCollector::new(1);
        let m = c.machine(0);
        for i in 0..5 {
            m.instant(LANE_MAIN, EventKind::ChunkSend, i, 10_000 - i);
        }
        let log = c.collect();
        assert_eq!((log.emitted, log.dropped, log.events.len()), (5, 0, 5));
        let got: Vec<(u64, u64)> = log.events.iter().map(|e| (e.a, e.b)).collect();
        assert_eq!(got, (0..5).map(|i| (i, 10_000 - i)).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_emitters_never_produce_torn_events() {
        // 4 threads × 500 events into one machine's sink: all are kept,
        // and every event has a coherent (a, b) pair.
        let c = TraceCollector::new(1);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let m = c.machine(0);
                s.spawn(move || {
                    for i in 0..500 {
                        let a = t * 500 + i;
                        m.instant(1 + t as u32, EventKind::ChunkSend, a, 10_000 - a);
                    }
                });
            }
        });
        let log = c.collect();
        assert_eq!((log.emitted, log.dropped), (2000, 0));
        let mut seen: Vec<u64> = log.events.iter().map(|e| e.a).collect();
        for e in &log.events {
            assert_eq!(e.b, 10_000 - e.a, "torn event: a={} b={}", e.a, e.b);
            assert_eq!(u64::from(e.lane), 1 + e.a / 500, "lane of event {}", e.a);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..2000).collect::<Vec<u64>>());
    }

    #[test]
    fn collector_merges_machines_on_one_clock() {
        let c = TraceCollector::new(2);
        let m0 = c.machine(0);
        let m1 = c.machine(1);
        m0.instant(LANE_MAIN, EventKind::ChunkFlush, 1, 64);
        m1.instant(1, EventKind::ChunkSend, 0, 128);
        let start = m0.now_ns();
        m0.span_since_named(EventKind::Step, start, "local_sort");
        m1.span_since_named(EventKind::Step, start, "local_sort");
        let log = c.collect();
        assert_eq!(log.machines, 2);
        assert_eq!(log.events.len(), 4);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.names, vec!["local_sort"], "one name, numbered once");
        let gantt = log.step_gantt();
        assert_eq!(gantt.len(), 2);
        assert!(gantt.iter().all(|r| r.name == "local_sort"));
        // Sorted on the unified clock.
        assert!(log.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn chrome_export_shapes_spans_and_instants() {
        let c = TraceCollector::new(1);
        let m = c.machine(0);
        m.emit(
            m.event(LANE_MAIN, EventKind::Step, 1000, 2000, 0, 0),
            "exchange",
        );
        m.instant(LANE_MAIN, EventKind::ChunkSend, 3, 4096);
        let json = c.collect().to_chrome_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"traceEvents\":["));
        assert!(json.contains("\"name\":\"exchange\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1.000"));
        assert!(json.contains("\"dur\":2.000"));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("\"dst\":3,\"bytes\":4096"));
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let c = TraceCollector::new(1);
        let m = c.machine(0);
        m.instant(LANE_MAIN, EventKind::ChunkSend, 1, 256);
        m.instant(LANE_MAIN, EventKind::ChunkRecv, 1, 512);
        let jsonl = c.collect().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert!(l.contains("\"kind\":\"chunk_"));
        }
    }

    #[test]
    fn overlap_ratio_from_synthetic_spans() {
        let mk = |kind, t, d| TraceEvent {
            t_ns: t,
            dur_ns: d,
            machine: 0,
            lane: 0,
            kind,
            a: 0,
            b: 0,
        };
        let log = TraceLog {
            machines: 2,
            events: vec![
                // Machine 0: send [0,100), recv [50,150): both during
                // [50,100) = 50; either = 150.
                mk(EventKind::Task, 0, 100),
                mk(EventKind::RecvLoop, 50, 100),
            ],
            ..Default::default()
        };
        let ratios = log.exchange_overlap_ratios();
        assert!((ratios[0] - 50.0 / 150.0).abs() < 1e-9);
        assert_eq!(ratios[1], 0.0, "machine with no exchange activity");
    }

    #[test]
    fn barrier_skew_spreads_arrivals() {
        let mk = |m, t| TraceEvent {
            t_ns: t,
            dur_ns: 5,
            machine: m,
            lane: 0,
            kind: EventKind::Barrier,
            a: 0,
            b: 0,
        };
        let log = TraceLog {
            machines: 3,
            events: vec![mk(0, 100), mk(1, 170), mk(2, 130)],
            ..Default::default()
        };
        assert_eq!(log.barrier_skews(), vec![(0, 70)]);
    }

    #[test]
    fn byte_timelines_accumulate_per_destination() {
        let mk = |t, dst, bytes| TraceEvent {
            t_ns: t,
            dur_ns: 0,
            machine: 0,
            lane: 0,
            kind: EventKind::ChunkSend,
            a: dst,
            b: bytes,
        };
        let log = TraceLog {
            machines: 2,
            events: vec![mk(10, 1, 100), mk(20, 1, 50), mk(15, 2, 7)],
            ..Default::default()
        };
        let tl = log.per_destination_byte_timelines();
        assert_eq!(tl[&(0, 1)], vec![(10, 100), (20, 150)]);
        assert_eq!(tl[&(0, 2)], vec![(15, 7)]);
    }

    #[test]
    fn interval_math() {
        assert_eq!(
            union_intervals(vec![(5, 10), (0, 6), (20, 30)]),
            vec![(0, 10), (20, 30)]
        );
        assert_eq!(intersect_len(&[(0, 10)], &[(5, 20)]), 5);
        assert_eq!(intersect_len(&[(0, 5)], &[(5, 10)]), 0);
        assert_eq!(union_len(&[(0, 10)], &[(5, 20), (30, 40)]), 30);
    }

    #[test]
    fn sort_phase_spans_resolve_names_but_stay_off_step_gantt() {
        let c = TraceCollector::new(1);
        let m = c.machine(0);
        let t0 = m.now_ns();
        m.span_since_named(EventKind::SortPhase, t0, "local.merge");
        m.span_since_named(EventKind::Step, t0, "local_sort");
        let log = c.collect();
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.names, vec!["local.merge", "local_sort"]);
        let phase_spans: Vec<&TraceEvent> = log
            .events
            .iter()
            .filter(|e| e.kind == EventKind::SortPhase)
            .collect();
        assert_eq!(phase_spans.len(), 1);
        assert_eq!(log.event_name(phase_spans[0]), "local.merge");
        // The step Gantt view stays a pure §IV step view.
        let gantt = log.step_gantt();
        assert_eq!(gantt.len(), 1);
        assert_eq!(gantt[0].name, "local_sort");
    }
}
