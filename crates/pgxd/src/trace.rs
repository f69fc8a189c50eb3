//! Structured runtime tracing: lock-free per-machine event rings, a
//! cluster-level collector, and Chrome-trace/JSONL exporters.
//!
//! The paper's whole evaluation (§V) is an observability exercise —
//! per-step wall times, communication volume, load balance — but
//! end-of-run aggregates ([`CommSummary`](crate::metrics::CommSummary),
//! [`StepReport`](crate::metrics::StepReport)) cannot *show* the §IV-C
//! send-while-receive overlap or where a bad splitter stalls one machine.
//! This module records timestamped spans and instant events at every
//! interesting runtime edge (step begin/end, barrier enter/leave, task
//! start/end, chunk flush/send/receive/place, pool hit/miss, protocol
//! checker verdicts) and merges them on one clock so a whole cluster run
//! can be replayed event-by-event in `chrome://tracing` / Perfetto.
//!
//! # Overhead budget
//!
//! Tracing is off by default ([`TraceConfig::disabled`]). Every emission
//! site in the runtime holds an `Option<Arc<MachineTrace>>` that is `None`
//! when tracing is off, so a release run without tracing pays ~one
//! predictable branch per event site and touches no shared state. With
//! tracing on, an emission is one `fetch_add` to claim a ring slot plus
//! seven uncontended atomic stores — no locks, no allocation.
//!
//! # Ring overflow policy
//!
//! Each machine owns a small set of fixed-capacity rings (one per lane:
//! lane 0 is the machine's mainline thread, lanes 1.. its worker tasks).
//! A ring never blocks a producer: when it is full the **oldest** event is
//! overwritten (the newest events are the ones a post-mortem wants), and
//! the loss is accounted — `emitted - collected = dropped`, reported in
//! the [`TraceLog`]. Writers claim a monotonically increasing sequence
//! number with `fetch_add`; each slot carries a seqlock-style version so
//! a drain concurrent with emission either reads a consistent event or
//! skips the slot (counted as dropped), never a torn mix. The whole ring
//! is built from [`crate::sync::atomic`] — no `unsafe`, and `--cfg loom`
//! model-checks the emit/drain handoff (`tests/loom_trace.rs`).

use crate::metrics::json_escape;
use crate::sync::atomic::{AtomicU64, Ordering};
use crate::sync::{thread, Mutex};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Lane index of a machine's mainline (SPMD closure) thread.
pub const LANE_MAIN: u32 = 0;

/// Protocol-checker verdict codes carried in the `a` payload of
/// [`EventKind::Checker`] instants.
pub mod violation {
    /// A packet surfaced that was never sent (tag mismatch / duplicate).
    pub const PHANTOM_DELIVERY: u64 = 1;
    /// A pool handed the same allocation out twice.
    pub const DOUBLE_ACQUIRE: u64 = 2;
    /// A chunk was released into a pool free list twice.
    pub const DOUBLE_RELEASE: u64 = 3;
    /// Quiescence check found sent-but-unreceived packets.
    pub const UNDELIVERED_PACKETS: u64 = 4;
    /// Quiescence check found chunks checked out but never released.
    pub const LEAKED_CHUNKS: u64 = 5;
    /// §IV-C offset ledger: two spans overlapped.
    pub const OFFSET_OVERLAP: u64 = 6;
    /// §IV-C offset ledger: a gap was never written.
    pub const OFFSET_GAP: u64 = 7;

    /// Human-readable label for a verdict code.
    pub fn label(code: u64) -> &'static str {
        match code {
            PHANTOM_DELIVERY => "phantom_delivery",
            DOUBLE_ACQUIRE => "double_acquire",
            DOUBLE_RELEASE => "double_release",
            UNDELIVERED_PACKETS => "undelivered_packets",
            LEAKED_CHUNKS => "leaked_chunks",
            OFFSET_OVERLAP => "offset_overlap",
            OFFSET_GAP => "offset_gap",
            _ => "unknown_violation",
        }
    }
}

/// Tracing configuration, carried by
/// [`ClusterConfig`](crate::cluster::ClusterConfig).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Whether the runtime emits events at all.
    pub enabled: bool,
    /// Capacity (events) of each per-lane ring. Zero keeps the drop
    /// accounting but retains no events.
    pub ring_capacity: usize,
}

impl TraceConfig {
    /// Default per-lane ring capacity: 64 Ki events (~3 MiB per lane).
    pub const DEFAULT_RING_CAPACITY: usize = 64 * 1024;

    /// Tracing off (the default): emission sites fold to one branch.
    pub fn disabled() -> Self {
        TraceConfig {
            enabled: false,
            ring_capacity: 0,
        }
    }

    /// Tracing on with the default ring capacity.
    pub fn enabled() -> Self {
        TraceConfig {
            enabled: true,
            ring_capacity: Self::DEFAULT_RING_CAPACITY,
        }
    }

    /// Sets the per-lane ring capacity in events.
    pub fn ring_capacity(mut self, events: usize) -> Self {
        self.ring_capacity = events;
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::disabled()
    }
}

/// What one trace event describes. Span kinds carry a duration; instant
/// kinds mark a point in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// One §IV algorithm step (`a` = interned name id). Span.
    Step,
    /// One barrier crossing, enter→leave (`a` = per-machine barrier
    /// index, matching across machines in SPMD order). Span.
    Barrier,
    /// One task-manager task (`a` = caller-supplied label, e.g. the
    /// destination of an exchange send task; `b` = task index). Span.
    Task,
    /// The exchange receive loop, first wait→ledger close. Span.
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
    /// A pool acquisition served from recycled memory (`a` = bytes).
    PoolHit,
    /// A pool acquisition that allocated fresh memory (`a` = bytes).
    PoolMiss,
    /// A protocol-checker verdict (`a` = [`violation`] code), emitted
    /// just before the checker panics.
    Checker,
    /// One sub-step phase span within a step (`a` = interned name id).
    SortPhase,
}

impl EventKind {
    fn as_u64(self) -> u64 {
        match self {
            EventKind::Step => 1,
            EventKind::Barrier => 2,
            EventKind::Task => 3,
            EventKind::RecvLoop => 4,
            EventKind::ChunkFlush => 5,
            EventKind::ChunkSend => 6,
            EventKind::ChunkRecv => 7,
            EventKind::ChunkPlace => 8,
            EventKind::PoolHit => 9,
            EventKind::PoolMiss => 10,
            EventKind::Checker => 11,
            EventKind::SortPhase => 12,
        }
    }

    fn from_u64(v: u64) -> Option<EventKind> {
        Some(match v {
            1 => EventKind::Step,
            2 => EventKind::Barrier,
            3 => EventKind::Task,
            4 => EventKind::RecvLoop,
            5 => EventKind::ChunkFlush,
            6 => EventKind::ChunkSend,
            7 => EventKind::ChunkRecv,
            8 => EventKind::ChunkPlace,
            9 => EventKind::PoolHit,
            10 => EventKind::PoolMiss,
            11 => EventKind::Checker,
            12 => EventKind::SortPhase,
            _ => return None,
        })
    }

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
            EventKind::PoolHit => "pool_hit",
            EventKind::PoolMiss => "pool_miss",
            EventKind::Checker => "checker",
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
            EventKind::PoolHit | EventKind::PoolMiss => "pool",
            EventKind::Checker => "checker",
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
            EventKind::PoolHit | EventKind::PoolMiss => ("bytes", "unused"),
            EventKind::Checker => ("violation", "unused"),
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
    fn encode(&self) -> [u64; 6] {
        [
            self.t_ns,
            self.dur_ns,
            (u64::from(self.machine) << 32) | u64::from(self.lane),
            self.kind.as_u64(),
            self.a,
            self.b,
        ]
    }

    fn decode(words: &[u64; 6]) -> Option<TraceEvent> {
        Some(TraceEvent {
            t_ns: words[0],
            dur_ns: words[1],
            machine: (words[2] >> 32) as u32,
            lane: (words[2] & 0xffff_ffff) as u32,
            kind: EventKind::from_u64(words[3])?,
            a: words[4],
            b: words[5],
        })
    }

    /// End time of the event (`t_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.t_ns.saturating_add(self.dur_ns)
    }
}

/// One ring slot: a seqlock-style version word plus the encoded event.
///
/// Version protocol (`seq` = the event's global sequence number):
/// `0` = never written, `2*seq + 1` = a writer for `seq` is mid-write,
/// `2*seq + 2` = the event for `seq` is published. Writers claim a slot
/// by CAS from an even (quiescent) version to their odd one, so payload
/// writes are exclusive; readers validate the version around their copy.
struct Slot {
    version: AtomicU64,
    words: [AtomicU64; 6],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            version: AtomicU64::new(0),
            words: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }
}

/// Snapshot returned by [`TraceRing::drain`].
#[derive(Debug, Clone)]
pub struct RingDrain {
    /// Events recovered, oldest first.
    pub events: Vec<TraceEvent>,
    /// Total events ever emitted to the ring (including dropped ones).
    pub emitted: u64,
}

impl RingDrain {
    /// Events lost to overwrite (oldest-dropped) or skipped mid-write.
    pub fn dropped(&self) -> u64 {
        self.emitted.saturating_sub(self.events.len() as u64)
    }
}

/// A lock-free fixed-capacity MPMC event ring with oldest-overwritten
/// overflow. Built entirely from [`crate::sync::atomic`]; see the module
/// docs for the slot protocol and `tests/loom_trace.rs` for the model
/// check of the emit/drain handoff.
pub struct TraceRing {
    head: AtomicU64,
    slots: Vec<Slot>,
}

impl TraceRing {
    /// A ring retaining up to `capacity` events. Capacity 0 counts
    /// emissions but retains nothing.
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            head: AtomicU64::new(0),
            slots: (0..capacity).map(|_| Slot::new()).collect(),
        }
    }

    /// Retention capacity in events.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever emitted (including overwritten ones).
    pub fn emitted(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records `ev`, overwriting the oldest retained event when full.
    /// Never blocks beyond waiting out another writer's seven stores to
    /// the same (lapped) slot.
    pub fn emit(&self, ev: TraceEvent) {
        // analyze: allow(atomics-ordering): monotone slot-claim counter on
        // a single-writer ring — the event payload is published by the
        // per-slot seqlock version `store(Release)` below, never by
        // `head`; `head` only sizes reader snapshots.
        let seq = self.head.fetch_add(1, Ordering::Relaxed);
        let cap = self.slots.len();
        if cap == 0 {
            return;
        }
        let slot = &self.slots[(seq % cap as u64) as usize];
        let begin = seq * 2 + 1;
        let end = begin + 1;
        loop {
            let v = slot.version.load(Ordering::Acquire);
            if v >= end {
                // A writer with a newer sequence already owns this slot:
                // our event is the older of the two, so it is the one the
                // oldest-dropped policy discards (head still counts it).
                return;
            }
            if v % 2 == 1 {
                // An older writer is mid-publish; let it finish.
                thread::yield_now();
                continue;
            }
            if slot
                .version
                .compare_exchange(v, begin, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break;
            }
        }
        // Exclusive until the version flips even again: only the writer
        // that installed `begin` stores the payload.
        let words = ev.encode();
        for (w, &val) in slot.words.iter().zip(words.iter()) {
            w.store(val, Ordering::Release);
        }
        slot.version.store(end, Ordering::Release);
    }

    /// Snapshot of the retained events, oldest first, with the emission
    /// total. Safe to call while producers are still emitting: slots
    /// mid-write (or overwritten during the copy) are skipped and show up
    /// in the drop count instead of as torn events.
    pub fn drain(&self) -> RingDrain {
        let emitted = self.head.load(Ordering::Acquire);
        let mut tagged: Vec<(u64, TraceEvent)> = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            let v1 = slot.version.load(Ordering::Acquire);
            if v1 == 0 || v1 % 2 == 1 {
                continue;
            }
            let mut words = [0u64; 6];
            for (out, w) in words.iter_mut().zip(slot.words.iter()) {
                *out = w.load(Ordering::Acquire);
            }
            let v2 = slot.version.load(Ordering::Acquire);
            if v1 != v2 {
                continue; // overwritten mid-copy
            }
            let seq = v1 / 2 - 1;
            if let Some(ev) = TraceEvent::decode(&words) {
                tagged.push((seq, ev));
            }
        }
        tagged.sort_unstable_by_key(|(seq, _)| *seq);
        RingDrain {
            events: tagged.into_iter().map(|(_, e)| e).collect(),
            emitted,
        }
    }
}

impl std::fmt::Debug for TraceRing {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceRing")
            .field("capacity", &self.slots.len())
            .field("emitted", &self.emitted())
            .finish()
    }
}

/// Cluster-shared intern table for step names (step spans carry a name id
/// in their `a` payload so ring slots stay fixed-size POD).
#[derive(Default)]
struct NameTable {
    names: Mutex<Vec<&'static str>>,
}

impl NameTable {
    fn intern(&self, name: &'static str) -> u64 {
        let mut names = self.names.lock();
        if let Some(i) = names.iter().position(|n| *n == name) {
            return i as u64;
        }
        names.push(name);
        (names.len() - 1) as u64
    }

    fn snapshot(&self) -> Vec<String> {
        self.names.lock().iter().map(|n| n.to_string()).collect()
    }
}

/// One machine's trace sink: per-lane event rings on the cluster's
/// unified clock. Shared by `Arc` between the machine's mainline thread,
/// its send workers, its comm sender clones, its chunk pool, and the
/// protocol checker.
pub struct MachineTrace {
    machine: u32,
    epoch: Instant,
    rings: Vec<TraceRing>,
    names: Arc<NameTable>,
    barrier_seq: AtomicU64,
}

impl MachineTrace {
    /// Nanoseconds since the cluster's trace epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// This sink's machine id.
    pub fn machine(&self) -> u32 {
        self.machine
    }

    /// Interns a step name, returning the id step spans carry.
    pub fn intern(&self, name: &'static str) -> u64 {
        self.names.intern(name)
    }

    /// The next barrier index on this machine (SPMD order makes index `k`
    /// the same barrier on every machine).
    pub fn next_barrier_index(&self) -> u64 {
        // analyze: allow(atomics-ordering): per-machine label counter —
        // SPMD order makes index `k` the same barrier everywhere; no data
        // is published through it.
        self.barrier_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Emits an instant event at the current time.
    pub fn instant(&self, lane: u32, kind: EventKind, a: u64, b: u64) {
        self.emit(TraceEvent {
            t_ns: self.now_ns(),
            dur_ns: 0,
            machine: self.machine,
            lane,
            kind,
            a,
            b,
        });
    }

    /// Emits a span that started at `start_ns` (from [`now_ns`]) and ends
    /// now.
    ///
    /// [`now_ns`]: MachineTrace::now_ns
    pub fn span_since(&self, lane: u32, kind: EventKind, start_ns: u64, a: u64, b: u64) {
        self.emit(TraceEvent {
            t_ns: start_ns,
            dur_ns: self.now_ns().saturating_sub(start_ns),
            machine: self.machine,
            lane,
            kind,
            a,
            b,
        });
    }

    /// Emits a fully formed event (lane routing: `lane % ring count`).
    pub fn emit(&self, ev: TraceEvent) {
        let ring = &self.rings[ev.lane as usize % self.rings.len()];
        ring.emit(ev);
    }
}

impl std::fmt::Debug for MachineTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MachineTrace")
            .field("machine", &self.machine)
            .field("lanes", &self.rings.len())
            .finish()
    }
}

/// The cluster-level collector: owns one [`MachineTrace`] per machine and
/// merges their rings into a [`TraceLog`] after (or during) a run.
pub struct TraceCollector {
    config: TraceConfig,
    machines: Vec<Arc<MachineTrace>>,
}

impl TraceCollector {
    /// A collector for `machines` machines with `lanes` rings each
    /// (lane 0 = mainline, 1.. = workers), sharing one epoch and name
    /// table. The epoch is `Instant::now()` at construction.
    pub fn new(machines: usize, lanes: usize, config: TraceConfig) -> Self {
        let epoch = Instant::now();
        let names = Arc::new(NameTable::default());
        let lanes = lanes.max(1);
        TraceCollector {
            config,
            machines: (0..machines)
                .map(|m| {
                    Arc::new(MachineTrace {
                        machine: m as u32,
                        epoch,
                        rings: (0..lanes)
                            .map(|_| TraceRing::new(config.ring_capacity))
                            .collect(),
                        names: names.clone(),
                        barrier_seq: AtomicU64::new(0),
                    })
                })
                .collect(),
        }
    }

    /// The sink for machine `id`.
    pub fn machine(&self, id: usize) -> Arc<MachineTrace> {
        self.machines[id].clone()
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.machines.len()
    }

    /// Drains every ring and merges the events on the unified clock.
    pub fn collect(&self) -> TraceLog {
        let mut events = Vec::new();
        let mut emitted = 0u64;
        let mut per_machine_dropped = vec![0u64; self.machines.len()];
        for (m, mt) in self.machines.iter().enumerate() {
            for ring in &mt.rings {
                let drained = ring.drain();
                emitted += drained.emitted;
                per_machine_dropped[m] += drained.dropped();
                events.extend(drained.events);
            }
        }
        events.sort_by_key(|e| (e.t_ns, e.machine, e.lane));
        let dropped = per_machine_dropped.iter().sum();
        let names = self
            .machines
            .first()
            .map(|mt| mt.names.snapshot())
            .unwrap_or_default();
        TraceLog {
            machines: self.machines.len(),
            ring_capacity: self.config.ring_capacity,
            events,
            names,
            emitted,
            dropped,
            per_machine_dropped,
        }
    }
}

impl std::fmt::Debug for TraceCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceCollector")
            .field("machines", &self.machines.len())
            .field("config", &self.config)
            .finish()
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
    /// Per-lane ring capacity the run used.
    pub ring_capacity: usize,
    /// All recovered events, sorted by start time.
    pub events: Vec<TraceEvent>,
    /// Interned step names (`Step` events index this with `a`).
    pub names: Vec<String>,
    /// Total events emitted across all rings.
    pub emitted: u64,
    /// Events lost to ring overflow (oldest-dropped) or concurrent drain.
    pub dropped: u64,
    /// Drop counts per machine.
    pub per_machine_dropped: Vec<u64>,
}

impl TraceLog {
    /// Display name of an event: the interned step name for step spans,
    /// a destination-qualified label for tasks, the violation label for
    /// checker instants, the kind label otherwise.
    pub fn event_name(&self, ev: &TraceEvent) -> String {
        match ev.kind {
            EventKind::Step | EventKind::SortPhase => self
                .names
                .get(ev.a as usize)
                .cloned()
                .unwrap_or_else(|| format!("step#{}", ev.a)),
            EventKind::Task => format!("send→{}", ev.a),
            EventKind::Checker => format!("checker:{}", violation::label(ev.a)),
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
        for e in self.events.iter().filter(|e| e.kind == EventKind::ChunkSend) {
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

    fn ev(t: u64, a: u64) -> TraceEvent {
        TraceEvent {
            t_ns: t,
            dur_ns: 0,
            machine: 0,
            lane: 0,
            kind: EventKind::ChunkSend,
            a,
            b: 10_000 - a,
        }
    }

    #[test]
    fn ring_roundtrips_events_in_order() {
        let ring = TraceRing::new(8);
        for i in 0..5 {
            ring.emit(ev(i * 10, i));
        }
        let d = ring.drain();
        assert_eq!(d.emitted, 5);
        assert_eq!(d.dropped(), 0);
        assert_eq!(d.events.len(), 5);
        for (i, e) in d.events.iter().enumerate() {
            assert_eq!(e.a, i as u64);
            assert_eq!(e.b, 10_000 - i as u64);
        }
    }

    #[test]
    fn ring_overflow_drops_oldest_and_counts() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.emit(ev(i, i));
        }
        let d = ring.drain();
        assert_eq!(d.emitted, 10);
        assert_eq!(d.events.len(), 4);
        assert_eq!(d.dropped(), 6);
        // The survivors are exactly the newest four, oldest first.
        let kept: Vec<u64> = d.events.iter().map(|e| e.a).collect();
        assert_eq!(kept, vec![6, 7, 8, 9]);
    }

    #[test]
    fn zero_capacity_ring_counts_but_retains_nothing() {
        let ring = TraceRing::new(0);
        for i in 0..3 {
            ring.emit(ev(i, i));
        }
        let d = ring.drain();
        assert_eq!(d.emitted, 3);
        assert!(d.events.is_empty());
        assert_eq!(d.dropped(), 3);
    }

    #[test]
    fn concurrent_emitters_never_produce_torn_events() {
        // 4 threads × 500 events into a 64-slot ring: heavy overwrite
        // traffic. Every drained event must have a coherent (a, b) pair.
        let ring = std::sync::Arc::new(TraceRing::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let ring = ring.clone();
                s.spawn(move || {
                    for i in 0..500 {
                        ring.emit(ev(i, t * 500 + i));
                    }
                });
            }
        });
        let d = ring.drain();
        assert_eq!(d.emitted, 2000);
        assert_eq!(d.events.len(), 64);
        for e in &d.events {
            assert_eq!(e.b, 10_000 - e.a, "torn event: a={} b={}", e.a, e.b);
        }
    }

    #[test]
    fn drain_while_emitting_is_coherent() {
        let ring = std::sync::Arc::new(TraceRing::new(16));
        std::thread::scope(|s| {
            let r2 = ring.clone();
            s.spawn(move || {
                for i in 0..2000 {
                    r2.emit(ev(i, i % 500));
                }
            });
            for _ in 0..50 {
                for e in &ring.drain().events {
                    assert_eq!(e.b, 10_000 - e.a, "torn event under concurrent drain");
                }
            }
        });
    }

    #[test]
    fn collector_merges_machines_on_one_clock() {
        let c = TraceCollector::new(2, 2, TraceConfig::enabled().ring_capacity(16));
        let m0 = c.machine(0);
        let m1 = c.machine(1);
        let id = m0.intern("local_sort");
        assert_eq!(m1.intern("local_sort"), id, "name table is shared");
        m0.instant(LANE_MAIN, EventKind::PoolMiss, 64, 0);
        m1.instant(1, EventKind::PoolHit, 128, 0);
        let start = m0.now_ns();
        m0.span_since(LANE_MAIN, EventKind::Step, start, id, 0);
        let log = c.collect();
        assert_eq!(log.machines, 2);
        assert_eq!(log.events.len(), 3);
        assert_eq!(log.dropped, 0);
        assert_eq!(log.names, vec!["local_sort"]);
        let gantt = log.step_gantt();
        assert_eq!(gantt.len(), 1);
        assert_eq!(gantt[0].name, "local_sort");
        // Sorted on the unified clock.
        assert!(log.events.windows(2).all(|w| w[0].t_ns <= w[1].t_ns));
    }

    #[test]
    fn chrome_export_shapes_spans_and_instants() {
        let c = TraceCollector::new(1, 1, TraceConfig::enabled().ring_capacity(8));
        let m = c.machine(0);
        let id = m.intern("exchange");
        m.emit(TraceEvent {
            t_ns: 1000,
            dur_ns: 2000,
            machine: 0,
            lane: 0,
            kind: EventKind::Step,
            a: id,
            b: 0,
        });
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
        let c = TraceCollector::new(1, 1, TraceConfig::enabled().ring_capacity(8));
        let m = c.machine(0);
        m.instant(LANE_MAIN, EventKind::PoolHit, 256, 0);
        m.instant(LANE_MAIN, EventKind::PoolMiss, 512, 0);
        let jsonl = c.collect().to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert!(l.contains("\"kind\":\"pool_"));
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
    fn event_kind_codes_roundtrip() {
        for k in [
            EventKind::Step,
            EventKind::Barrier,
            EventKind::Task,
            EventKind::RecvLoop,
            EventKind::ChunkFlush,
            EventKind::ChunkSend,
            EventKind::ChunkRecv,
            EventKind::ChunkPlace,
            EventKind::PoolHit,
            EventKind::PoolMiss,
            EventKind::Checker,
            EventKind::SortPhase,
        ] {
            assert_eq!(EventKind::from_u64(k.as_u64()), Some(k));
        }
        assert_eq!(EventKind::from_u64(0), None);
        assert_eq!(EventKind::from_u64(999), None);
    }

    #[test]
    fn sort_phase_spans_resolve_names_but_stay_off_step_gantt() {
        let c = TraceCollector::new(1, 1, TraceConfig::enabled().ring_capacity(8));
        let m = c.machine(0);
        let step_id = m.intern("local_sort");
        let phase_id = m.intern("local.merge");
        let t0 = m.now_ns();
        m.span_since(LANE_MAIN, EventKind::SortPhase, t0, phase_id, 0);
        m.span_since(LANE_MAIN, EventKind::Step, t0, step_id, 0);
        let log = c.collect();
        assert_eq!(log.events.len(), 2);
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
