//! Per-machine execution context: identity, managers, collectives, and
//! step timing.
//!
//! A [`MachineCtx`] is handed to the SPMD closure for each simulated
//! machine. Collectives follow MPI-style semantics: every machine must
//! call the same collectives in the same order (an internal sequence
//! number enforces packet matching across consecutive collectives).

use crate::buffer::RequestBuffer;
use crate::checker;
use crate::comm::{kinds, CommManager, Tag};
use crate::fault::{BarrierWait, ClusterBarrier, FaultInjector, InjectedFailure};
use crate::metrics::{CommSummary, SharedCommStats, StepTimer};
use crate::pool::ChunkPool;
use crate::task::{self, TaskManager};
use crate::trace::{EventKind, MachineTrace, LANE_MAIN};
use std::mem::{ManuallyDrop, MaybeUninit};
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
    barrier: Arc<ClusterBarrier>,
    buffer_bytes: usize,
    stats: SharedCommStats,
    /// The run's fault plane; `None` (one branch per site) when no
    /// [`FaultPlan`](crate::fault::FaultPlan) is armed.
    fault: Option<Arc<FaultInjector>>,
    /// Recycled chunk backing stores for the exchange pipeline, shared
    /// between this machine's receive thread and its send workers.
    pool: Arc<ChunkPool>,
    /// This machine's trace sink; `None` (one branch per event site) when
    /// the run is untraced.
    trace: Option<Arc<MachineTrace>>,
    collective_seq: u64,
}

impl MachineCtx {
    pub(crate) fn new(
        mut comm: CommManager,
        task: TaskManager,
        barrier: Arc<ClusterBarrier>,
        buffer_bytes: usize,
        trace: Option<Arc<MachineTrace>>,
    ) -> Self {
        // The cells the fabric already counts into: one set per run.
        let stats = comm.stats().clone();
        let mut pool = ChunkPool::with_checker(stats.clone(), comm.checker().clone(), comm.id());
        if let Some(t) = &trace {
            // Attach the sink before the pool is shared and before any
            // sender clones are handed out, so every copy carries it.
            pool.set_trace(t.clone());
            comm.set_trace(t.clone());
            comm.checker().attach_trace(comm.id(), t.clone());
        }
        // Receives must observe peer aborts and the plan's step timeout.
        comm.set_control(barrier.clone());
        let fault = comm.fault().cloned();
        let pool = Arc::new(pool);
        MachineCtx {
            id: comm.id(),
            p: comm.num_machines(),
            comm,
            task,
            timer: StepTimer::default(),
            barrier,
            buffer_bytes,
            pool,
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

    /// This machine's chunk pool (recycled exchange buffers).
    pub fn pool(&self) -> &Arc<ChunkPool> {
        &self.pool
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
        let pre = self.trace.as_ref().map(|t| (t.intern(name), t.now_ns()));
        let start = std::time::Instant::now();
        let out = f(self);
        self.timer.record(name, start.elapsed());
        if let Some((name_id, t0)) = pre {
            if let Some(t) = &self.trace {
                t.span_since(LANE_MAIN, EventKind::Step, t0, name_id, 0);
            }
        }
        out
    }

    /// Times `f` as a [`EventKind::SortPhase`] span under `name` on the
    /// mainline lane — a sub-step phase (the step-1 or step-6 k-way merge)
    /// nested inside a [`Self::step`] Gantt row. Free when tracing is off.
    pub fn phase_scope<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let Some(t) = &self.trace else { return f() };
        let name_id = t.intern(name);
        let t0 = t.now_ns();
        let out = f();
        t.span_since(LANE_MAIN, EventKind::SortPhase, t0, name_id, 0);
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

    /// Synchronizes all machines.
    ///
    /// In debug builds (or with the `checker` feature) the barrier also
    /// verifies the fabric is quiescent: a barrier is the one point where
    /// every packet sent must have been consumed and every pooled chunk
    /// returned, so an undelivered packet or a leaked chunk here is a
    /// protocol bug. The check runs between two waits — after the first,
    /// every machine is parked inside this function, so the ledger cannot
    /// change under the scan; the verdict is computed from shared state,
    /// so all machines agree (a failure panics everywhere at once instead
    /// of deadlocking the survivors).
    pub fn barrier(&self) {
        // The span covers enter → leave; `a` is the per-machine barrier
        // index, which SPMD ordering makes comparable across machines
        // (barrier wait skew in the trace's derived views).
        let pre = self
            .trace
            .as_ref()
            .map(|t| (t.now_ns(), t.next_barrier_index()));
        self.wait_or_unwind();
        if checker::ENABLED {
            self.comm.checker().check_quiescent("barrier", Some(self.id));
            self.wait_or_unwind();
        }
        if let Some((t0, index)) = pre {
            if let Some(t) = &self.trace {
                t.span_since(LANE_MAIN, EventKind::Barrier, t0, index, 0);
            }
        }
    }

    /// One abortable barrier wait. A peer's failure (or this machine's own
    /// step timeout) unwinds with a typed payload instead of deadlocking
    /// the cluster; [`Cluster::try_run`](crate::cluster::Cluster::try_run)
    /// converts the payload into a structured [`RunError`](crate::fault::RunError).
    // The only way out of a barrier whose peers are dead is to unwind; the
    // typed payload keeps the failure attributable.
    fn wait_or_unwind(&self) {
        match self.barrier.wait() {
            BarrierWait::Released => {}
            BarrierWait::Aborted => std::panic::panic_any(InjectedFailure::PeerAborted),
            BarrierWait::TimedOut => std::panic::panic_any(InjectedFailure::Timeout {
                machine: self.id,
                context: "at barrier".to_string(),
            }),
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
            debug_assert!(parts[src].is_none(), "duplicate gather from {src}");
            parts[src] = Some(v);
        }
        Some(parts.into_iter().map(|v| v.expect("missing gather part")).collect())
    }

    /// Broadcasts a `Vec<T>` from the master to everyone. The master
    /// passes `Some(data)`, everyone else `None`; all machines return the
    /// broadcast value.
    ///
    /// The payload ships as one shared `Arc<Vec<T>>` — the master does not
    /// clone it per receiver; wire-byte accounting still charges every
    /// receiver the full payload.
    pub fn broadcast_from_master<T: Send + Sync + Clone + 'static>(
        &mut self,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        let tag = Tag {
            kind: kinds::BROADCAST,
            seq: self.next_seq(),
        };
        self.broadcast_shared(MASTER, data, tag)
    }

    /// Broadcasts a `Vec<T>` from an arbitrary `root` to everyone. The
    /// root passes `Some(data)`, everyone else `None`; all machines
    /// return the broadcast value. Ships one shared payload like
    /// [`broadcast_from_master`](MachineCtx::broadcast_from_master).
    pub fn broadcast_from<T: Send + Sync + Clone + 'static>(
        &mut self,
        root: usize,
        data: Option<Vec<T>>,
    ) -> Vec<T> {
        assert!(root < self.p, "broadcast root out of range");
        let tag = Tag {
            kind: kinds::BROADCAST,
            seq: self.next_seq(),
        };
        self.broadcast_shared(root, data, tag)
    }

    // A missing broadcast packet is a protocol bug; crashing beats silently
    // desynchronizing the step.
    fn broadcast_shared<T: Send + Sync + Clone + 'static>(
        &mut self,
        root: usize,
        data: Option<Vec<T>>,
        tag: Tag,
    ) -> Vec<T> {
        if self.id == root {
            let data = data.expect("broadcast root must supply data");
            let shared = Arc::new(data);
            let sender = self.comm.sender();
            for dst in 0..self.p {
                if dst != root {
                    sender.send_shared_vec(dst, tag, shared.clone());
                }
            }
            // Usually receivers still hold their handles, costing the root
            // one local clone — instead of the p − 1 clones an owned
            // broadcast pays.
            Arc::try_unwrap(shared).unwrap_or_else(|a| (*a).clone())
        } else {
            let (src, v) = self.comm.recv_shared_vec::<T>(tag);
            debug_assert_eq!(src, root);
            v
        }
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
            debug_assert!(received[src].is_none());
            received[src] = Some(v);
        }
        received
            .into_iter()
            .map(|v| v.expect("missing all_to_all part"))
            .collect()
    }

    /// All-gather: everyone contributes a `Vec<T>` and receives all `p`
    /// contributions, indexed by source. Each contribution ships as one
    /// shared payload (no per-receiver clone on the contributor).
    pub fn all_gather<T: Send + Sync + Clone + 'static>(&mut self, data: Vec<T>) -> Vec<Vec<T>> {
        let tag = Tag {
            kind: kinds::ALL_GATHER,
            seq: self.next_seq(),
        };
        self.all_gather_with_tag(data, tag)
    }

    /// The §IV-C asynchronous exchange. `data` is this machine's local
    /// array; `send_offsets` cuts it into `B·p` consecutive ranges
    /// (`B·p + 1` entries, `B ≥ 1` batches), range `i` going to machine
    /// `i % p` as part of batch `i / p`. A plain all-to-all is `B = 1`:
    /// `p + 1` offsets, `data[send_offsets[j]..send_offsets[j+1]]` to
    /// destination `j`. Every machine must pass the same `B`.
    ///
    /// Semantics reproduced from the paper:
    /// 1. per-range element counts are exchanged first, so every receiver
    ///    can preallocate its output and every sender knows the
    ///    receiver-side offset to address its chunks at — the counts are
    ///    also all the batch identity that travels: keys ship untagged;
    /// 2. data moves in data-manager buffer-sized chunks
    ///    ([`MachineCtx::buffer_bytes`]) addressed to absolute offsets, so
    ///    the receiver writes each arriving chunk straight into place
    ///    while still sending its own outgoing data (no barrier between
    ///    send and receive). A machine none of whose remote ranges exceeds
    ///    one buffer has nothing to overlap — each stream is a single
    ///    flush — so it flushes them itself and then receives, instead of
    ///    handing them to its workers. The fabric is unbounded, a send
    ///    never waits for a receive, so every machine decides this for
    ///    itself from its own offsets;
    /// 3. returns `(assembled, bounds)` laid out batch-major, source-minor
    ///    (`B·p + 1` bounds): `assembled[bounds[b·p + s]..bounds[b·p + s + 1]]`
    ///    is the batch-`b` run received from machine `s` (runs stay
    ///    contiguous so the final merge can consume them and provenance
    ///    stays recoverable).
    // Offset arithmetic is verified by the count phase (and the debug
    // checker's offset tiling); bounds checks panicking here catch corruption
    // rather than writing stray bytes.
    pub fn exchange_by_offsets<T: Copy + Send + Sync + 'static>(
        &mut self,
        data: &[T],
        send_offsets: &[usize],
    ) -> (Vec<T>, Vec<usize>) {
        let (id, p) = (self.id, self.p);
        let ranges = send_offsets.len().saturating_sub(1);
        assert!(
            ranges > 0 && ranges.is_multiple_of(p),
            "need B·p+1 send offsets (B ≥ 1 batches)"
        );
        assert_eq!(*send_offsets.last().unwrap(), data.len());

        // --- 1. count exchange ------------------------------------------------
        let counts_tag = Tag {
            kind: kinds::EXCHANGE_COUNTS,
            seq: self.next_seq(),
        };
        let (bounds, send_bases) = self.exchange_count_phase(send_offsets, counts_tag);
        let total = bounds[ranges];

        // --- 2. overlapped send/receive --------------------------------------
        let data_tag = Tag {
            kind: kinds::EXCHANGE_DATA,
            seq: self.next_seq(),
        };
        let mut out: Vec<MaybeUninit<T>> = Vec::with_capacity(total);
        // SAFETY: MaybeUninit slots carry no validity invariant; every slot
        // is written exactly once below (self-copies + per-source chunks tile
        // [0, total) by construction of the count matrix), asserted by the
        // placement accounting before the final transmute (and verified
        // span-by-span by the protocol checker's offset ledger in debug
        // builds).
        unsafe { out.set_len(total) };
        let mut ledger = self.comm.checker().offset_ledger(id, data_tag, total);

        // Self parts: one memcpy per batch straight into place, no fabric
        // involved.
        let mut self_len = 0usize;
        for own in (id..ranges).step_by(p) {
            let self_slice = &data[send_offsets[own]..send_offsets[own + 1]];
            let base = bounds[own];
            // SAFETY: `base + len <= total` by construction of `bounds`;
            // `MaybeUninit<T>` is layout-identical to `T`, and `data`
            // cannot alias the freshly allocated `out`.
            unsafe {
                std::ptr::copy_nonoverlapping(
                    self_slice.as_ptr(),
                    out.as_mut_ptr().add(base).cast::<T>(),
                    self_slice.len(),
                );
            }
            self.stats
                .exchange
                .record_bytes_placed(std::mem::size_of_val(self_slice));
            ledger.record(base, self_slice.len());
            if let Some(t) = &self.trace {
                t.instant(
                    LANE_MAIN,
                    EventKind::ChunkPlace,
                    base as u64,
                    std::mem::size_of_val(self_slice) as u64,
                );
            }
            self_len += self_slice.len();
        }

        let expected_remote = total - self_len;
        let sender = self.comm.sender();
        let buffer_bytes = self.buffer_bytes;

        // One send task per destination (staggered so machine 0 is not
        // everyone's first target), streaming that destination's range of
        // every batch.
        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> =
            Vec::with_capacity(p.saturating_sub(1));
        for step in 1..p {
            let dst = (id + step) % p;
            if (dst..ranges)
                .step_by(p)
                .all(|i| send_offsets[i] == send_offsets[i + 1])
            {
                continue;
            }
            let sender = sender.clone();
            let pool = self.pool.clone();
            let send_bases = &send_bases;
            let lane = 1 + tasks.len() as u32;
            let index = tasks.len() as u64;
            tasks.push(task::traced_task(
                self.trace.clone(),
                lane,
                dst as u64,
                index,
                Box::new(move || {
                    for i in (dst..ranges).step_by(p) {
                        let slice = &data[send_offsets[i]..send_offsets[i + 1]];
                        if slice.is_empty() {
                            continue;
                        }
                        let mut buf: RequestBuffer<T> =
                            RequestBuffer::new(dst, data_tag, buffer_bytes, send_bases[i], &pool);
                        buf.push_slice(slice, &sender);
                        buf.finish(&sender);
                    }
                    // Fault plans may have parked a chunk of this stream
                    // (drop-with-redelivery); the stream is over, so force
                    // it out. No-op without a plan.
                    sender.flush_held_chunks(dst, data_tag);
                }),
            ));
        }

        // The receive loop: place each arriving chunk with one memcpy and
        // hand its backing store to the pool, where this machine's send
        // tasks (and the next exchange) pick it back up. Arriving chunks
        // were acquired from the *sender's* pool, hence `release_inbound`.
        let comm = &mut self.comm;
        let pool = &self.pool;
        let stats = &self.stats;
        let trace = &self.trace;
        let out_ptr = out.as_mut_ptr();
        let receive = move || {
            let loop_start = trace.as_ref().map(|t| t.now_ns());
            let mut remote_received = 0usize;
            while remote_received < expected_remote {
                let pkt = comm.recv_packet(data_tag);
                let src = pkt.src;
                let (offset, chunk) = pkt.into_value::<(usize, Vec<T>)>();
                // SAFETY: the sender addressed this chunk inside the run
                // reserved for it by the count matrix, so
                // `offset + len <= total`; only this thread writes `out`.
                unsafe {
                    std::ptr::copy_nonoverlapping(
                        chunk.as_ptr(),
                        out_ptr.add(offset).cast::<T>(),
                        chunk.len(),
                    );
                }
                ledger.record(offset, chunk.len());
                remote_received += chunk.len();
                let bytes = chunk.len() * std::mem::size_of::<T>();
                stats.exchange.record_bytes_placed(bytes);
                if let Some(t) = trace {
                    t.instant(LANE_MAIN, EventKind::ChunkRecv, src as u64, bytes as u64);
                    t.instant(LANE_MAIN, EventKind::ChunkPlace, offset as u64, bytes as u64);
                }
                pool.release_inbound(chunk);
            }
            // Debug builds: prove the self-copy and the arrived chunks
            // tiled [0, total) exactly once (§IV-C disjoint placement).
            ledger.finish();
            if let (Some(t), Some(t0)) = (trace, loop_start) {
                t.span_since(
                    LANE_MAIN,
                    EventKind::RecvLoop,
                    t0,
                    expected_remote as u64,
                    0,
                );
            }
            remote_received
        };
        // The workers run the send tasks while the receive loop drains
        // arrivals — true send-while-receive — unless every remote range
        // fits one request buffer: then a task is one flush, a thread
        // costs more than all of them, and the caller runs them first.
        let one_buffer = RequestBuffer::<T>::capacity_elems(buffer_bytes);
        let single_flushes = (0..ranges)
            .filter(|i| i % p != id)
            .all(|i| send_offsets[i + 1] - send_offsets[i] <= one_buffer);
        let placed = if single_flushes {
            self.task.run_tasks_on_caller(tasks);
            receive()
        } else {
            self.task.run_tasks_overlapping(tasks, receive)
        };
        assert_eq!(
            self_len + placed,
            total,
            "exchange did not fill the output buffer"
        );

        let out = {
            let mut md = ManuallyDrop::new(out);
            let (ptr, len, cap) = (md.as_mut_ptr(), md.len(), md.capacity());
            // SAFETY: all `total` slots initialized (asserted above);
            // Vec<MaybeUninit<T>> and Vec<T> share layout for the same T.
            unsafe { Vec::from_raw_parts(ptr as *mut T, len, cap) }
        };
        (out, bounds)
    }

    /// Count phase of the exchange: all-gathers every machine's per-range
    /// counts and derives the receiver-side run bounds (batch-major,
    /// source-minor) and the receiver-side base offset of each of this
    /// machine's send ranges.
    // The count matrix is dense p×B·p (the row-length assert rejects a peer
    // with another batch count); indexing by machine id and range cannot miss.
    fn exchange_count_phase(
        &mut self,
        send_offsets: &[usize],
        counts_tag: Tag,
    ) -> (Vec<usize>, Vec<usize>) {
        let my_counts: Vec<u64> = send_offsets
            .windows(2)
            .map(|w| (w[1] - w[0]) as u64)
            .collect();
        let ranges = my_counts.len();
        let matrix = self.all_gather_with_tag(my_counts, counts_tag);
        assert!(
            matrix.iter().all(|row| row.len() == ranges),
            "every machine must exchange the same number of batches"
        );

        // Every receiver lays its runs out batch by batch, arrivals from
        // lower-numbered sources first; walking each destination's layout
        // gives this machine's own bounds and where its ranges land.
        let mut bounds = Vec::with_capacity(ranges + 1);
        bounds.push(0usize);
        let mut send_bases = vec![0usize; ranges];
        for dst in 0..self.p {
            let mut at = 0usize;
            for batch in (0..ranges).step_by(self.p) {
                for (src, row) in matrix.iter().enumerate() {
                    if src == self.id {
                        send_bases[batch + dst] = at;
                    }
                    at += row[batch + dst] as usize;
                    if dst == self.id {
                        bounds.push(at);
                    }
                }
            }
        }
        (bounds, send_bases)
    }

    /// All-gather with a caller-provided tag (used by the exchange's count
    /// phase so counts and data cannot be confused). One shared payload
    /// per contributor; per-receiver wire accounting is unchanged.
    // Indexing is by machine id < p and a missing packet is a protocol bug
    // worth a panic.
    fn all_gather_with_tag<T: Send + Sync + Clone + 'static>(
        &mut self,
        data: Vec<T>,
        tag: Tag,
    ) -> Vec<Vec<T>> {
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
            debug_assert!(received[src].is_none());
            received[src] = Some(v);
        }
        received
            .into_iter()
            .map(|v| v.expect("missing all_gather part"))
            .collect()
    }
}
