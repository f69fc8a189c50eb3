//! Per-machine execution context: identity, managers, collectives, and
//! step timing.
//!
//! A [`MachineCtx`] is handed to the SPMD closure for each simulated
//! machine. Collectives follow MPI-style semantics: every machine must
//! call the same collectives in the same order (an internal sequence
//! number enforces packet matching across consecutive collectives).

use crate::buffer::{self, RequestBuffer};
use crate::comm::{kinds, CommManager, Opened, Tag};
use crate::fault::{self, BarrierWait, FaultInjector, InjectedFailure};
use crate::metrics::{CommSummary, SharedCommStats, StepTimer};
use crate::task::{self, TaskManager};
use crate::trace::{EventKind, MachineTrace, LANE_MAIN};
use crate::wire::{Opaque, Sealed, Wire};
use std::any::{Any, TypeId};
use std::sync::Arc;

/// The master machine's id (the paper's "Master" is processor 0).
pub const MASTER: usize = 0;

/// Context for one simulated machine inside a running cluster.
pub struct MachineCtx {
    id: usize,
    p: usize,
    comm: CommManager,
    task: TaskManager,
    timer: StepTimer,
    buffer_bytes: usize,
    stats: SharedCommStats,
    /// The run's fault plane; `None` (one branch per site) when no
    /// [`FaultPlan`](crate::fault::FaultPlan) is armed.
    fault: Option<Arc<FaultInjector>>,
    /// This machine's trace sink; `None` (one branch per event site) when
    /// the run is untraced.
    trace: Option<Arc<MachineTrace>>,
    collective_seq: u64,
}

impl MachineCtx {
    pub(crate) fn new(comm: CommManager, task: TaskManager, buffer_bytes: usize) -> Self {
        // The cells the fabric already counts into: one set per run.
        let stats = comm.stats().clone();
        let trace = comm.trace().cloned();
        let fault = comm.fault().cloned();
        MachineCtx {
            id: comm.id(),
            p: comm.num_machines(),
            comm,
            task,
            timer: StepTimer::default(),
            buffer_bytes,
            stats,
            fault,
            trace,
            collective_seq: 0,
        }
    }

    /// This machine's id in `0..num_machines()`.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of machines in the cluster.
    pub fn num_machines(&self) -> usize {
        self.p
    }

    /// `true` on the master machine (id 0).
    pub fn is_master(&self) -> bool {
        self.id == MASTER
    }

    /// The machine's task manager (worker pool).
    pub fn tasks(&self) -> &TaskManager {
        &self.task
    }

    /// Number of worker threads on this machine.
    pub fn workers(&self) -> usize {
        self.task.workers()
    }

    /// The data manager's read/request buffer size in bytes (§IV-B).
    pub fn buffer_bytes(&self) -> usize {
        self.buffer_bytes
    }

    /// harness surface: item 12 deletes this. No program path calls it.
    #[doc(hidden)]
    pub fn pool(&self) -> &ChunkPool {
        &ChunkPool
    }

    /// Mutable access to the raw communication manager, for protocols the
    /// collectives don't cover.
    pub fn comm_mut(&mut self) -> &mut CommManager {
        &mut self.comm
    }

    /// Times `f` under `name` in this machine's step timer — the one
    /// record of a step's duration, read back as
    /// [`RunReport::steps`](crate::cluster::RunReport::steps). Traced runs
    /// also get a [`EventKind::Step`] span on the mainline lane, so the
    /// six §IV steps appear as Gantt rows without the algorithm layer
    /// knowing about tracing. A step that unwinds records nothing.
    pub fn step<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if let Some(f) = &self.fault {
            // Pause/resume at the step boundary (straggler machines).
            f.step_pause(self.id);
        }
        let t0 = self.trace.as_ref().map(|t| t.now_ns());
        let start = std::time::Instant::now();
        let out = f(self);
        self.timer.record(name, start.elapsed());
        if let (Some(t), Some(t0)) = (&self.trace, t0) {
            t.span_since_named(EventKind::Step, t0, name);
        }
        out
    }

    /// Times `f` as a [`EventKind::SortPhase`] span under `name` on the
    /// mainline lane — a sub-step phase (the step-1 merge of the worker runs)
    /// nested inside a [`Self::step`] Gantt row. Free when tracing is off.
    pub fn phase_scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(t) = &self.trace else { return f() };
        let t0 = t.now_ns();
        let out = f();
        t.span_since_named(EventKind::SortPhase, t0, name);
        out
    }

    /// The steps this machine completed, consuming the context (and with
    /// it the machine's inbox).
    pub(crate) fn into_steps(self) -> Vec<(&'static str, std::time::Duration)> {
        self.timer.into_steps()
    }

    /// Snapshot of the cluster-wide communication counters (useful for
    /// bracketing a step: snapshot before and after, subtract).
    pub fn comm_summary(&self) -> CommSummary {
        self.stats.summary()
    }

    /// Synchronizes all machines, and checks that the fabric is
    /// quiescent: a barrier is the one point where every packet sent must
    /// have been consumed, so a packet still in an inbox or mailbox here
    /// is a protocol bug. The last machine to arrive reads the fabric's
    /// in-flight counts while every other one is parked, and every machine
    /// unwinds alike on the verdict, which names each machine holding
    /// packets.
    ///
    /// A peer's failure (or this machine's own step timeout) unwinds with
    /// a typed payload instead of deadlocking the cluster, and a barrier
    /// that can never complete (the control plane's stall rule: say, a
    /// peer returned from the run instead of arriving) with a panic naming
    /// every machine's state;
    /// [`Cluster::try_run`](crate::cluster::Cluster::try_run) converts
    /// each into a structured [`RunError`](crate::fault::RunError).
    // The only way out of a barrier whose peers are dead is to unwind; the
    // typed payload keeps the failure attributable.
    pub fn barrier(&self) {
        // The span covers enter → leave; collect numbers it by its order
        // on this machine, which SPMD ordering makes comparable across
        // machines (barrier wait skew in the trace's derived views).
        let t0 = self.trace.as_ref().map(|t| t.now_ns());
        // The run's control plane, which the fabric was built around.
        match self.comm.control().wait(self.id) {
            BarrierWait::Released => {}
            BarrierWait::Aborted => std::panic::panic_any(InjectedFailure::PeerAborted),
            BarrierWait::TimedOut => std::panic::panic_any(InjectedFailure::Timeout {
                machine: self.id,
                context: "at barrier".to_string(),
            }),
            BarrierWait::NeverEnds(states) => {
                panic!("machine {}: wait can never end: {states}", self.id)
            }
            BarrierWait::Undelivered(held) => panic!(
                "machine {}: undelivered packet(s) at barrier: {}",
                self.id,
                fault::describe_undelivered(&held)
            ),
        }
        if let (Some(t), Some(t0)) = (&self.trace, t0) {
            t.span_since(LANE_MAIN, EventKind::Barrier, t0, 0, 0);
        }
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.collective_seq;
        self.collective_seq += 1;
        s
    }

    /// Gathers one `Vec<T>` from every machine onto the master. Returns
    /// `Some(per_source)` on the master (indexed by source id), `None`
    /// elsewhere.
    // Collective indexing is bounded by the machine count and a missing packet
    // is a protocol bug worth a panic.
    pub fn gather_to_master<T: Send + 'static>(&mut self, data: Vec<T>) -> Option<Vec<Vec<T>>> {
        let tag = Tag {
            kind: kinds::GATHER,
            seq: self.next_seq(),
        };
        if self.id != MASTER {
            self.comm.send_vec(MASTER, tag, data);
            return None;
        }
        let mut parts: Vec<Option<Vec<T>>> = (0..self.p).map(|_| None).collect();
        parts[MASTER] = Some(data);
        for _ in 1..self.p {
            let (src, v) = self.comm.recv_vec::<T>(tag);
            assert!(
                parts[src].replace(v).is_none(),
                "second gather part from machine {src}"
            );
        }
        Some(
            parts
                .into_iter()
                .map(|v| v.expect("missing gather part"))
                .collect(),
        )
    }

    /// Broadcasts a `Vec<T>` from the master to everyone. The master
    /// passes `Some(data)`, everyone else `None`; all machines return the
    /// broadcast value.
    ///
    /// The payload ships as one shared `Arc<Vec<T>>` — the master does not
    /// clone it per receiver; wire-byte accounting still charges every
    /// receiver the full payload.
    // A missing broadcast packet is a protocol bug; crashing beats silently
    // desynchronizing the step.
    pub fn broadcast_from_master<T: Send + Sync + Clone + 'static>(
        &mut self,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        let tag = Tag {
            kind: kinds::BROADCAST,
            seq: self.next_seq(),
        };
        if self.id != MASTER {
            let (src, v) = self.comm.recv_shared_vec::<T>(tag);
            assert_eq!(
                src, MASTER,
                "broadcast part from machine {src}, not the master"
            );
            return v;
        }
        let shared = Arc::new(data.expect("the master must supply the broadcast data"));
        let sender = self.comm.sender();
        for dst in 0..self.p {
            if dst != MASTER {
                sender.send_shared_vec(dst, tag, shared.clone());
            }
        }
        // Usually receivers still hold their handles, costing the master
        // one local clone — instead of the p − 1 clones an owned broadcast
        // pays.
        Arc::try_unwrap(shared).unwrap_or_else(|a| (*a).clone())
    }

    /// Simple all-to-all: machine `i` sends `parts[j]` to machine `j`;
    /// returns the `p` vectors received, indexed by source.
    // Indexing is by machine id < p (asserted on entry) and a missing packet
    // is a protocol bug.
    pub fn all_to_all<T: Send + 'static>(&mut self, parts: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(parts.len(), self.p, "one part per destination required");
        let tag = Tag {
            kind: kinds::ALL_TO_ALL,
            seq: self.next_seq(),
        };
        let mut received: Vec<Option<Vec<T>>> = (0..self.p).map(|_| None).collect();
        let mut parts = parts;
        // Stagger destinations so machine 0 isn't everyone's first target.
        for step in 1..self.p {
            let dst = (self.id + step) % self.p;
            let payload = std::mem::take(&mut parts[dst]);
            self.comm.send_vec(dst, tag, payload);
        }
        received[self.id] = Some(std::mem::take(&mut parts[self.id]));
        for _ in 1..self.p {
            let (src, v) = self.comm.recv_vec::<T>(tag);
            assert!(
                received[src].replace(v).is_none(),
                "second all_to_all part from machine {src}"
            );
        }
        received
            .into_iter()
            .map(|v| v.expect("missing all_to_all part"))
            .collect()
    }

    /// All-gather: everyone contributes a `Vec<T>` and receives all `p`
    /// contributions, indexed by source. Each contribution ships as one
    /// shared payload (no per-receiver clone on the contributor).
    // Indexing is by machine id < p and a missing packet is a protocol bug
    // worth a panic.
    pub fn all_gather<T: Send + Sync + Clone + 'static>(&mut self, data: Vec<T>) -> Vec<Vec<T>> {
        let tag = Tag {
            kind: kinds::ALL_GATHER,
            seq: self.next_seq(),
        };
        let shared = Arc::new(data);
        let sender = self.comm.sender();
        for dst in 0..self.p {
            if dst != self.id {
                sender.send_shared_vec(dst, tag, shared.clone());
            }
        }
        let mut received: Vec<Option<Vec<T>>> = (0..self.p).map(|_| None).collect();
        let mine = Arc::try_unwrap(shared).unwrap_or_else(|a| (*a).clone());
        received[self.id] = Some(mine);
        for _ in 1..self.p {
            let (src, v) = self.comm.recv_shared_vec::<T>(tag);
            assert!(
                received[src].replace(v).is_none(),
                "second all_gather part from machine {src}"
            );
        }
        received
            .into_iter()
            .map(|v| v.expect("missing all_gather part"))
            .collect()
    }

    /// The §IV-C asynchronous exchange. `data` is this machine's local
    /// array; `send_offsets` cuts it into `B·p` consecutive ranges
    /// (`B·p + 1` entries, `B ≥ 1` batches), range `i` going to machine
    /// `i % p` as part of batch `i / p`. A plain all-to-all is `B = 1`:
    /// `p + 1` offsets, `data[send_offsets[j]..send_offsets[j+1]]` to
    /// destination `j`. Every machine must pass the same `B`.
    ///
    /// Semantics reproduced from the paper:
    /// 1. per-range element counts reach every receiver before its data,
    ///    so it can preallocate its output and place every chunk at a
    ///    precomputed slot: each send stream (this machine's ranges for one
    ///    destination, batch after batch) opens with one message carrying
    ///    its `B` range lengths and its first chunk, and an empty stream
    ///    with the lengths alone. A receiver takes its `p − 1` openers, lays
    ///    its output out from their counts and turns each later chunk's
    ///    offset in its stream into a slot itself (the `alltoallv` idiom),
    ///    so no sender waits for anyone before it sends. The counts are
    ///    also all the batch identity that travels: keys ship untagged;
    /// 2. data moves in data-manager buffer-sized chunks
    ///    ([`MachineCtx::buffer_bytes`]) addressed to offsets in their
    ///    stream — each the elements' [`Wire`] images in packed frames and
    ///    their rest raw ([`buffer`]) — so the receiver unpacks each
    ///    arriving chunk straight into place while still sending its own
    ///    outgoing data (no barrier between send and receive). The
    ///    machine's own thread ships every opener first, so no receiver
    ///    waits on a stream queued behind another; the workers ship the
    ///    rest. A machine none of whose remote ranges exceeds one buffer
    ///    has nothing to overlap — each range is a single flush — so it
    ///    flushes the rest itself and then receives, instead of handing it
    ///    to its workers. The fabric is unbounded, a send never waits for a
    ///    receive, so every machine decides this for itself from its own
    ///    offsets;
    /// 3. returns `(assembled, bounds)` laid out batch-major, source-minor
    ///    (`B·p + 1` bounds): `assembled[bounds[b·p + s]..bounds[b·p + s + 1]]`
    ///    is the batch-`b` run received from machine `s` (runs stay
    ///    contiguous so the final merge can consume them and provenance
    ///    stays recoverable).
    pub fn exchange<W: Wire>(
        &mut self,
        data: &[W],
        send_offsets: &[usize],
    ) -> (Vec<W>, Vec<usize>) {
        self.exchange_into(data, send_offsets, Vec::new())
    }

    /// [`MachineCtx::exchange`] into `spent`'s allocation: a buffer the
    /// caller no longer needs, whose contents are discarded, grown if what
    /// arrives outnumbers its capacity.
    // Offset arithmetic is verified against the openers' counts and the
    // placements' tiling; bounds checks panicking here catch corruption
    // rather than writing stray bytes.
    pub fn exchange_into<W: Wire>(
        &mut self,
        data: &[W],
        send_offsets: &[usize],
        spent: Vec<W>,
    ) -> (Vec<W>, Vec<usize>) {
        let (id, p) = (self.id, self.p);
        let ranges = send_offsets.len().saturating_sub(1);
        assert!(
            ranges > 0 && ranges.is_multiple_of(p),
            "need B·p+1 send offsets (B ≥ 1 batches)"
        );
        assert_eq!(*send_offsets.last().unwrap(), data.len());
        let seq = self.next_seq();
        let open_tag = Tag {
            kind: kinds::EXCHANGE_OPEN,
            seq,
        };
        let data_tag = Tag {
            kind: kinds::EXCHANGE_DATA,
            seq,
        };
        let sender = self.comm.sender();
        let buffer_bytes = self.buffer_bytes;

        // One send stream per destination (staggered so machine 0 is not
        // everyone's first target): that destination's range of every
        // batch. This thread opens every stream, shipping its range lengths
        // and its first chunk, so each receiver can lay its output out as
        // soon as every machine has done so, however few workers carry the
        // rest; a task per destination ships the rest of its stream.
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::with_capacity(p.saturating_sub(1));
        for step in 1..p {
            let dst = (id + step) % p;
            let counts: Vec<u64> = (dst..ranges)
                .step_by(p)
                .map(|i| (send_offsets[i + 1] - send_offsets[i]) as u64)
                .collect();
            let mut buf = RequestBuffer::new(dst, data_tag, buffer_bytes);
            buf.open(open_tag, counts);
            let first = (dst..ranges)
                .step_by(p)
                .find(|&i| send_offsets[i] < send_offsets[i + 1]);
            let opened = first.map_or(0, |i| {
                buf.send_chunk(&data[send_offsets[i]..send_offsets[i + 1]], 0, &sender)
            });
            let sender = sender.clone();
            // Until the task ends this machine counts as running for the
            // stall rule, whatever its own thread waits for.
            let sending = self.comm.control().sending(id);
            let lane = 1 + tasks.len() as u32;
            let index = tasks.len() as u64;
            tasks.push(task::traced_task(
                self.trace.clone(),
                lane,
                dst as u64,
                index,
                Box::new(move || {
                    let _sending = sending;
                    // `at` is the stream offset the range starts at; the
                    // opener carried the head of the first non-empty one.
                    let mut at = 0;
                    for i in (dst..ranges).step_by(p) {
                        let slice = &data[send_offsets[i]..send_offsets[i + 1]];
                        let skip = if Some(i) == first { opened } else { 0 };
                        buf.send(&slice[skip..], at + skip, &sender);
                        at += slice.len();
                    }
                    buf.finish::<W>(&sender);
                }),
            ));
        }

        // The receive side: the openers, then the output laid out from
        // their counts, the self parts copied in, and every chunk unpacked
        // into its slots and dropped.
        let comm = &mut self.comm;
        let stats = &self.stats;
        let trace = &self.trace;
        let receive = move || {
            let loop_start = trace.as_ref().map(|t| t.now_ns());
            let openers = comm.recv_openers::<W::Rest>(open_tag, ranges / p);
            let bounds = layout(&openers, send_offsets, id);
            let total = bounds[ranges];
            // Every slot is written exactly once below (self-copies and
            // per-source chunks tile [0, total) by construction of the
            // layout), which `assert_tiling` proves from the `(slot, len)`
            // span of each before `set_len`.
            let mut assembled = spent;
            assembled.clear();
            assembled.reserve_exact(total);
            let out = &mut assembled.spare_capacity_mut()[..total];
            let mut spans = Vec::new();

            // Self parts: one memcpy per batch straight into place, no
            // fabric involved.
            let mut self_len = 0usize;
            for own in (id..ranges).step_by(p) {
                let self_slice = &data[send_offsets[own]..send_offsets[own + 1]];
                let base = bounds[own];
                out[base..base + self_slice.len()].write_copy_of_slice(self_slice);
                stats
                    .exchange
                    .record_bytes_placed(std::mem::size_of_val(self_slice));
                spans.push((base, self_slice.len()));
                if let Some(t) = trace {
                    let bytes = std::mem::size_of_val(self_slice) as u64;
                    t.instant(LANE_MAIN, EventKind::ChunkPlace, base as u64, bytes);
                }
                self_len += self_slice.len();
            }

            // The chunks the openers carried first, then the data tag's.
            let expected_remote = total - self_len;
            let mut held = openers.into_iter().enumerate().filter_map(|(src, opener)| {
                let (_, frames, rest, wire_bytes) = opener?;
                (!rest.is_empty()).then_some((src, frames, rest, wire_bytes))
            });
            let mut remote_received = 0usize;
            let mut images = Vec::new();
            while remote_received < expected_remote {
                let (src, offset, frames, rest, wire_bytes) = match held.next() {
                    Some((src, frames, rest, wire_bytes)) => (src, 0, frames, rest, wire_bytes),
                    None => {
                        let pkt = comm.recv_packet(data_tag);
                        let (src, wire_bytes) = (pkt.src, pkt.wire_bytes);
                        let (offset, frames, rest) = pkt.into_value::<buffer::Chunk<W::Rest>>();
                        (src, offset, frames, rest, wire_bytes)
                    }
                };
                let len = rest.len();
                let slot = stream_slot(&bounds, p, src, offset, len);
                W::decode(
                    &frames,
                    &rest,
                    &mut out[slot..slot + len],
                    &mut images,
                    Sealed,
                );
                spans.push((slot, len));
                remote_received += len;
                let bytes = len * std::mem::size_of::<W>();
                stats.exchange.record_bytes_placed(bytes);
                if let Some(t) = trace {
                    t.instant(
                        LANE_MAIN,
                        EventKind::ChunkRecv,
                        src as u64,
                        wire_bytes as u64,
                    );
                    t.instant(LANE_MAIN, EventKind::ChunkPlace, slot as u64, bytes as u64);
                }
            }
            comm.release_idle_inbox();
            assert_tiling(&mut spans, total, id);
            if let (Some(t), Some(t0)) = (trace, loop_start) {
                t.span_since(
                    LANE_MAIN,
                    EventKind::RecvLoop,
                    t0,
                    expected_remote as u64,
                    0,
                );
            }
            // SAFETY: `total` is within the capacity, and every one of the
            // `total` slots was written: `assert_tiling` proved that the
            // self-copies and the placed chunks cover each slot exactly
            // once, and a copy or a chunk's decode writes each slot it
            // covers.
            unsafe { assembled.set_len(total) };
            (assembled, bounds)
        };
        // The workers run the send tasks while the receive side drains
        // arrivals — true send-while-receive — unless every remote range
        // fits one request buffer: then the openers carried each stream's
        // first range whole, a task is at most one flush per later batch, a
        // thread costs more than all of them, and the caller runs them
        // first.
        let one_buffer = buffer::capacity_elems::<W>(buffer_bytes);
        let single_flushes = (0..ranges)
            .filter(|i| i % p != id)
            .all(|i| send_offsets[i + 1] - send_offsets[i] <= one_buffer);
        if single_flushes {
            self.task.run_tasks_on_caller(tasks);
            receive()
        } else {
            self.task.run_tasks_overlapping(tasks, receive)
        }
    }

    /// [`MachineCtx::exchange`] for an element type with no [`Wire`] bound
    /// in sight: the benchmark harness replays the exchange generically
    /// over its own item trait. `u64` takes the typed path, byte for byte;
    /// any other type ships whole behind a constant image (a width-0 frame
    /// per chunk, then the elements raw). This entry, its type test and its
    /// slice views go when the harness reads the sorter's own records
    /// (ROADMAP item 12).
    pub fn exchange_by_offsets<T: Copy + Send + Sync + 'static>(
        &mut self,
        data: &[T],
        send_offsets: &[usize],
    ) -> (Vec<T>, Vec<usize>) {
        if TypeId::of::<T>() == TypeId::of::<u64>() {
            // SAFETY: the TypeIds match, so `T` is `u64`: the same pointer,
            // length and borrow describe `data` as `&[u64]`.
            let keys =
                unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<u64>(), data.len()) };
            let (out, bounds) = self.exchange(keys, send_offsets);
            let out: Box<dyn Any> = Box::new(out);
            return (*out.downcast::<Vec<T>>().expect("`T` is `u64`"), bounds);
        }
        // SAFETY: `Opaque<T>` is `repr(transparent)` over `T`, so the same
        // pointer, length and borrow describe `data` as `&[Opaque<T>]`.
        let items =
            unsafe { std::slice::from_raw_parts(data.as_ptr().cast::<Opaque<T>>(), data.len()) };
        let (out, bounds) = self.exchange(items, send_offsets);
        (out.into_iter().map(|item| item.0).collect(), bounds)
    }
}

/// The `B·p + 1` run bounds of a receiver's output, laid out batch by
/// batch, arrivals from lower-numbered sources first, from the range
/// lengths `openers` carried (indexed by source) and this machine's own
/// send offsets `own`, whose ranges for itself are the runs it copies in.
// Sources are machine ids < p, and every other machine's opener was
// received with `B` range lengths.
fn layout<R>(openers: &[Option<Opened<R>>], own: &[usize], id: usize) -> Vec<usize> {
    let p = openers.len();
    let ranges = own.len() - 1;
    let mut bounds = Vec::with_capacity(ranges + 1);
    bounds.push(0usize);
    for b in 0..ranges / p {
        for opener in openers {
            let len = match opener {
                Some((lens, ..)) => lens[b] as usize,
                None => own[b * p + id + 1] - own[b * p + id],
            };
            bounds.push(bounds[bounds.len() - 1] + len);
        }
    }
    bounds
}

/// Panics unless the `(slot, len)` spans machine `id` placed tile its
/// output `[0, total)` exactly once (§IV-C: the precomputed write offsets
/// are disjoint and complete): sorted, each starts where the one before it
/// ends, and the last ends at `total`. An exchange places tens to hundreds
/// of spans, so the sort costs nothing measurable.
fn assert_tiling(spans: &mut [(usize, usize)], total: usize, id: usize) {
    spans.sort_unstable();
    let mut end = 0;
    for &(slot, len) in spans.iter().filter(|&&(_, len)| len > 0) {
        assert!(
            slot == end,
            "machine {id}: exchange placement [{slot}, {}) {} the placements before it, \
             which end at {end}",
            slot + len,
            if slot < end {
                "overlaps"
            } else {
                "leaves a gap after"
            }
        );
        end += len;
    }
    assert!(
        end == total,
        "machine {id}: exchange placements end at {end}, not at its output's {total}"
    );
}

/// The output slot of the `len` elements at `offset` in `src`'s stream,
/// whose runs `bounds` lays out (`B·p + 1` bounds, run `b·p + src` the
/// stream's `b`-th range). Panics, naming the source, unless the elements
/// lie inside one run: a chunk never spans two ranges.
fn stream_slot(bounds: &[usize], p: usize, src: usize, offset: usize, len: usize) -> usize {
    let mut at = offset;
    for run in (src..bounds.len() - 1).step_by(p) {
        let n = bounds[run + 1] - bounds[run];
        if at < n {
            assert!(
                len <= n - at,
                "chunk from machine {src} at stream offset {offset} overruns its opener's \
                 counts: {len} keys, {} left in its run",
                n - at
            );
            return bounds[run] + at;
        }
        at -= n;
    }
    panic!(
        "chunk from machine {src} at stream offset {offset} overruns its opener's counts: \
         its stream holds {} keys",
        offset - at
    )
}

/// harness surface: item 12 deletes this. What the benchmark's pool probe
/// still calls: `acquire` allocates, `release` drops.
#[doc(hidden)]
#[derive(Clone, Debug, Default)]
pub struct ChunkPool;

impl ChunkPool {
    /// harness surface: item 12 deletes this. An empty `Vec` with room for
    /// `cap_elems` elements.
    pub fn acquire<T>(&self, cap_elems: usize) -> Vec<T> {
        Vec::with_capacity(cap_elems)
    }

    /// harness surface: item 12 deletes this. Drops `buf`.
    pub fn release<T>(&self, buf: Vec<T>) {
        drop(buf);
    }
}
