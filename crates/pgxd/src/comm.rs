//! The communication manager: point-to-point typed message passing
//! between simulated machines, with byte accounting against the network
//! model.
//!
//! Machines exchange [`Packet`]s over the unbounded queues of
//! [`crate::sync`], one inbox per machine (the fabric). Payloads still move
//! by ownership, with no serialization step on the fabric; what a payload
//! holds is its sender's choice. Exchange chunks and the sorted runs
//! [`CommSender::send_runs`] ships both carry their elements in the two
//! columns of [`crate::buffer`] — the [`Wire`] images in packed frames,
//! the rest raw — so either message is charged the bytes its keys need
//! plus whatever rides beside them. The *Spark* baseline serializes every
//! record at its stage boundaries instead (see `pgxd-baselines`), which is
//! one of the mechanisms behind the paper's 2–3× gap.
//!
//! Tag discipline: collectives stamp every packet with a sequence number
//! managed by [`MachineCtx`](crate::machine::MachineCtx) so that two
//! consecutive collectives can never steal each other's packets even when
//! machines run ahead; a per-machine mailbox holds early arrivals.

use crate::buffer;
use crate::fault::{ClusterBarrier, FaultInjector, InjectedFailure};
use crate::metrics::SharedCommStats;
use crate::sync::{Receiver, Sender};
use crate::trace::{EventKind, MachineTrace, TraceCollector};
use crate::wire::Wire;
use std::any::Any;
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// Message tag: `(kind, sequence)`. Collectives derive these; user code
/// can use [`Tag::user`]. Ordered so diagnostics can list tags
/// deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag {
    /// Namespace of the message (collective kind or user-defined).
    pub kind: u16,
    /// Sequence number within the namespace.
    pub seq: u64,
}

impl Tag {
    /// A user-namespace tag. Kinds 0..=15 are reserved for collectives.
    // Tag-kind overflow is a caller bug the API contract promises to reject
    // loudly.
    pub fn user(kind: u16, seq: u64) -> Tag {
        Tag {
            kind: kind.checked_add(16).expect("user tag kind overflow"),
            seq,
        }
    }
}

/// Reserved collective tag kinds.
pub mod kinds {
    /// Gather-to-master payloads.
    pub const GATHER: u16 = 1;
    /// Master-to-all broadcast payloads.
    pub const BROADCAST: u16 = 2;
    /// Simple all-to-all payloads.
    pub const ALL_TO_ALL: u16 = 3;
    /// All-gather payloads.
    pub const ALL_GATHER: u16 = 4;
    /// Offset-addressed exchange: the stream openers, each a stream's
    /// range lengths and its first chunk.
    pub const EXCHANGE_OPEN: u16 = 5;
    /// Offset-addressed exchange: every later chunk of a stream.
    pub const EXCHANGE_DATA: u16 = 6;
}

/// A stream opener as received: its range lengths, its chunk's frames and
/// rest column, and its wire bytes.
pub(crate) type Opened<R> = (Vec<u64>, Vec<u8>, Vec<R>, usize);

/// A fabric packet: opaque owned payload plus accounting metadata.
pub struct Packet {
    /// Sender machine id.
    pub src: usize,
    /// Message tag.
    pub tag: Tag,
    /// Bytes this payload would occupy on the wire.
    pub wire_bytes: usize,
    payload: Box<dyn Any + Send>,
}

/// The send half of a machine's communication manager. Cheap to clone, so
/// a machine can send from a helper thread while its main thread receives
/// (the §IV-C "send while receiving" pattern). The stall rule counts a
/// machine as running while its exchange's send tasks run
/// ([`MachineCtx::exchange`](crate::machine::MachineCtx::exchange)); it
/// does not see any other helper, so a helper that sends while every
/// machine's own thread waits must be one of those tasks.
#[derive(Clone)]
pub struct CommSender {
    id: usize,
    links: Vec<Sender<Packet>>,
    stats: SharedCommStats,
    /// This machine's trace sink; `None` (one branch per send) when the
    /// run is untraced.
    trace: Option<Arc<MachineTrace>>,
    /// The run's fault plane; `None` (one branch per send) when no
    /// [`FaultPlan`](crate::fault::FaultPlan) is armed.
    fault: Option<Arc<FaultInjector>>,
    /// The run's control plane: its one abort flag, its step deadline and
    /// the fabric's in-flight count per inbox.
    control: Arc<ClusterBarrier>,
}

impl CommSender {
    /// This machine's id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Number of machines.
    pub fn num_machines(&self) -> usize {
        self.links.len()
    }

    /// Sends an owned `Vec<T>` to `dst`. Wire bytes = `len * size_of::<T>()`.
    /// Self-sends are delivered but not charged to the network.
    pub fn send_vec<T: Send + 'static>(&self, dst: usize, tag: Tag, data: Vec<T>) {
        let wire_bytes = std::mem::size_of::<T>() * data.len();
        self.send_packet(dst, tag, wire_bytes, envelope(data));
    }

    /// Sends sorted runs, one per batch, to `dst` in one message, received
    /// with [`CommManager::recv_runs`]: every run's frames, then every
    /// run's rest column ([`crate::buffer`]), charged the frames' length
    /// plus the rest column's.
    pub fn send_runs<W: Wire>(&self, dst: usize, tag: Tag, runs: Vec<Vec<W>>) {
        let (frames, rest) = buffer::pack_runs(&runs);
        let wire_bytes = frames.len() + std::mem::size_of_val(&rest[..]);
        self.send_packet(dst, tag, wire_bytes, envelope((frames, rest)));
    }

    /// Opens a §IV-C exchange stream to `dst`: the stream's `B` range
    /// lengths and its first chunk, whose offset is 0 by construction, as
    /// its image column's `frames` and its `rest` column (both empty for a
    /// stream with nothing in it). Wire bytes = the `8·B` count words plus
    /// both columns; the opener is counted as a chunk in
    /// [`ExchangeStats`](crate::metrics::ExchangeStats).
    pub fn send_opener<R: Send + 'static>(
        &self,
        dst: usize,
        tag: Tag,
        counts: Vec<u64>,
        frames: Vec<u8>,
        rest: Vec<R>,
    ) {
        let wire_bytes =
            std::mem::size_of_val(&counts[..]) + frames.len() + std::mem::size_of_val(&rest[..]);
        let payload = envelope::<buffer::Opener<R>>((counts, frames, rest));
        self.send_exchange_message(dst, tag, wire_bytes, payload);
    }

    /// Sends one later chunk of a §IV-C exchange stream: the elements at
    /// offset `offset` of the stream to `dst`, as their image column's
    /// `frames` and their `rest` column. Wire bytes = both columns plus the
    /// offset header; the chunk is counted in
    /// [`ExchangeStats`](crate::metrics::ExchangeStats).
    pub fn send_offset_chunk<R: Send + 'static>(
        &self,
        dst: usize,
        tag: Tag,
        offset: usize,
        frames: Vec<u8>,
        rest: Vec<R>,
    ) {
        let wire_bytes =
            frames.len() + std::mem::size_of_val(&rest[..]) + std::mem::size_of::<usize>();
        let payload = envelope::<buffer::Chunk<R>>((offset, frames, rest));
        self.send_exchange_message(dst, tag, wire_bytes, payload);
    }

    /// An exchange message through the fault plane: delayed, or parked by
    /// drop-with-redelivery, when the plan says so.
    fn send_exchange_message(
        &self,
        dst: usize,
        tag: Tag,
        wire_bytes: usize,
        payload: Box<dyn Any + Send>,
    ) {
        if let Some(f) = &self.fault {
            let seq = f.next_chunk_seq(self.id, dst);
            if let Some(delay) = f.chunk_send_delay(self.id, dst, seq, wire_bytes) {
                std::thread::sleep(delay);
            }
            if f.should_drop_chunk(self.id, dst, seq) {
                // Drop-with-redelivery: park this chunk (its first delivery
                // attempt is "lost"); the previously parked chunk of its
                // stream and tag, if any, goes out now in its place, so at
                // most one chunk per stream and tag is ever outstanding and
                // every chunk is eventually delivered — behind later
                // traffic. An opener parked this way arrives after its
                // stream's later chunks, which wait in the mailbox for it.
                if let Some(prev) = f.park_chunk(self.id, dst, tag, wire_bytes, payload) {
                    self.send_chunk_packet(dst, tag, prev.wire_bytes, prev.payload);
                }
                return;
            }
        }
        self.send_chunk_packet(dst, tag, wire_bytes, payload);
    }

    /// Re-sends the stream's parked chunk for `tag`, if the fault plane
    /// held one back. A request buffer calls this for both of its tags
    /// after its stream's final flush, so drop-with-redelivery can never
    /// strand a chunk. One branch when no plan is armed.
    pub fn flush_held_chunks(&self, dst: usize, tag: Tag) {
        if let Some(f) = &self.fault {
            if let Some(held) = f.take_held(self.id, dst, tag) {
                self.send_chunk_packet(dst, tag, held.wire_bytes, held.payload);
            }
        }
    }

    /// The single exit point for exchange chunks: stats and trace are
    /// recorded here, at the moment the chunk actually enters the fabric,
    /// so a parked-then-redelivered chunk is accounted exactly once.
    fn send_chunk_packet(
        &self,
        dst: usize,
        tag: Tag,
        wire_bytes: usize,
        payload: Box<dyn Any + Send>,
    ) {
        self.stats.exchange.record_chunk_sent();
        if let Some(t) = &self.trace {
            // Lane 1 + dst keeps each destination's send stream on its own
            // timeline row (and off the mainline lane).
            t.instant(
                1 + dst as u32,
                EventKind::ChunkSend,
                dst as u64,
                wire_bytes as u64,
            );
        }
        self.send_packet(dst, tag, wire_bytes, payload);
    }

    /// This machine's trace sink, if the run is traced (used by
    /// [`RequestBuffer`](crate::buffer::RequestBuffer) to mark flushes).
    pub(crate) fn trace(&self) -> Option<&Arc<MachineTrace>> {
        self.trace.as_ref()
    }

    /// Sends a shared (refcounted) `Vec<T>` to `dst`. The collectives use
    /// this to ship one payload to `p − 1` receivers without cloning the
    /// data per receiver; each send is still charged full wire bytes, so
    /// the network accounting is identical to an owned [`send_vec`].
    ///
    /// [`send_vec`]: CommSender::send_vec
    pub fn send_shared_vec<T: Send + Sync + 'static>(
        &self,
        dst: usize,
        tag: Tag,
        data: std::sync::Arc<Vec<T>>,
    ) {
        let wire_bytes = std::mem::size_of::<T>() * data.len();
        self.send_packet(dst, tag, wire_bytes, envelope(data));
    }

    // `dst` is a machine id < p and a dropped fabric receiver means a peer
    // died mid-step — crash, don't hang.
    fn send_packet(&self, dst: usize, tag: Tag, wire_bytes: usize, payload: Box<dyn Any + Send>) {
        // Once any machine has failed, the run is unwinding: drop the
        // packet on the floor instead of racing the victim's receiver
        // teardown (and never let a worker task's send panic usurp the
        // primary failure). The flag goes up before a failed machine's
        // inbox goes away: the cluster raises it for a panic or a kill,
        // a timed-out waiter before it unwinds.
        if self.control.is_aborted() {
            return;
        }
        // Counted in before it is queued, so its receiver never counts it
        // out first.
        self.control.packet_sent(dst);
        let sent = self.links[dst].send(Packet {
            src: self.id,
            tag,
            wire_bytes,
            payload,
        });
        if sent.is_err() {
            self.control.packet_taken(dst);
            if !self.control.is_aborted() {
                // A send error with no abort in flight is a protocol bug (a
                // machine returned while peers still address it), not a
                // fault injection: keep the loud crash. When the abort flag
                // is up the receiver's teardown is expected; the caller
                // unwinds via its next controlled receive or barrier wait
                // instead.
                panic!("fabric receiver dropped — machine exited early");
            }
            return;
        }
        // Charged once it is in the fabric.
        if dst != self.id {
            self.stats.record_packet(wire_bytes, dst);
        }
    }
}

/// A payload boxed for the fabric.
// The boxed payload IS the wire format — the in-process fabric ships
// `Box<dyn Any>` envelopes, one per message (an exchange chunk's amortized
// over the chunk's elements).
fn envelope<T: Send + 'static>(payload: T) -> Box<dyn Any + Send> {
    Box::new(payload)
}

/// A machine's full communication manager: the send half plus the inbox
/// and mailbox for tag-matched receives.
pub struct CommManager {
    sender: CommSender,
    inbox: Receiver<Packet>,
    /// Early arrivals parked until something asks for their tag.
    mailbox: HashMap<Tag, VecDeque<Packet>>,
    /// Mailbox drain counter (the event index mailbox-reorder decisions
    /// derive from).
    recv_seq: u64,
}

impl CommManager {
    /// Wires up a full fabric for `p` machines, returning one manager per
    /// machine, under a control plane of its own with no step deadline.
    pub fn fabric(p: usize, stats: SharedCommStats) -> Vec<CommManager> {
        Self::fabric_with(p, stats, Arc::new(ClusterBarrier::new(p, None)), None, None)
    }

    /// [`CommManager::fabric`] for a cluster run: the run's control plane
    /// and its fault plane (`None` for a fault-free fabric) on every
    /// sender and, on a traced run, each machine's trace sink on its
    /// sender.
    pub(crate) fn fabric_with(
        p: usize,
        stats: SharedCommStats,
        control: Arc<ClusterBarrier>,
        fault: Option<Arc<FaultInjector>>,
        trace: Option<&TraceCollector>,
    ) -> Vec<CommManager> {
        let mut txs = Vec::with_capacity(p);
        let mut rxs = Vec::with_capacity(p);
        for _ in 0..p {
            let (tx, rx) = crate::sync::unbounded();
            txs.push(tx);
            rxs.push(rx);
        }
        rxs.into_iter()
            .enumerate()
            .map(|(id, inbox)| CommManager {
                sender: CommSender {
                    id,
                    links: txs.clone(),
                    stats: stats.clone(),
                    trace: trace.map(|c| c.machine(id)),
                    fault: fault.clone(),
                    control: control.clone(),
                },
                inbox,
                mailbox: HashMap::new(),
                recv_seq: 0,
            })
            .collect()
    }

    /// This machine's trace sink, if the run is traced.
    pub(crate) fn trace(&self) -> Option<&Arc<MachineTrace>> {
        self.sender.trace()
    }

    /// The run's control plane this fabric was built around.
    pub(crate) fn control(&self) -> &Arc<ClusterBarrier> {
        &self.sender.control
    }

    /// The statistics cells every sender on this fabric counts into.
    pub(crate) fn stats(&self) -> &SharedCommStats {
        &self.sender.stats
    }

    /// The run's fault plane, if a plan is armed.
    pub(crate) fn fault(&self) -> Option<&Arc<FaultInjector>> {
        self.sender.fault.as_ref()
    }

    /// Counts a packet out of this machine's inbox as it is handed to its
    /// consumer.
    fn note_delivered(&self) {
        self.sender.control.packet_taken(self.sender.id);
    }

    /// This machine's id.
    pub fn id(&self) -> usize {
        self.sender.id
    }

    /// Number of machines on the fabric.
    pub fn num_machines(&self) -> usize {
        self.sender.num_machines()
    }

    /// A clonable send handle (for send-while-receive patterns).
    pub fn sender(&self) -> CommSender {
        self.sender.clone()
    }

    /// Sends an owned `Vec<T>` to `dst`.
    pub fn send_vec<T: Send + 'static>(&self, dst: usize, tag: Tag, data: Vec<T>) {
        self.sender.send_vec(dst, tag, data)
    }

    /// Takes one parked packet with `tag` from the mailbox. FIFO, unless
    /// the fault plane reorders the drain of a multi-entry queue. A tag
    /// leaves the mailbox with its last packet: every exchange uses fresh
    /// tags, so an emptied queue kept would never be used again.
    fn take_parked(&mut self, tag: Tag) -> Option<Packet> {
        let queue = self.mailbox.get_mut(&tag)?;
        let len = queue.len();
        let pick = match &self.sender.fault {
            Some(f) if len > 1 => {
                let seq = self.recv_seq;
                self.recv_seq += 1;
                f.mailbox_pick(self.sender.id, len, seq)
            }
            _ => 0,
        };
        let pkt = queue.remove(pick);
        if queue.is_empty() {
            self.mailbox.remove(&tag);
        }
        self.sender.control.packet_unparked(self.sender.id);
        pkt
    }

    /// Receives the next packet with `tag` from any source, blocking.
    /// Polls in short slices so a peer's failure (the run's abort flag)
    /// unwinds this machine promptly — once the run is aborted no receive
    /// takes a packet, even one parked in the mailbox, so what the failure
    /// stranded stays counted. After each slice that comes up empty it
    /// publishes what it waits for and checks the control plane's stall
    /// rule: a receive that can never be served aborts the run and panics
    /// with a message naming the tag it waited for, the tags parked in its
    /// mailbox and every other machine's state, which
    /// [`Cluster::try_run`](crate::cluster::Cluster::try_run) reports as
    /// a `MachinePanic`. The plan's `step_timeout`, when set, bounds the
    /// whole wait: past it the receive aborts the run and panics with a
    /// typed `InjectedFailure::Timeout` payload naming the same tags,
    /// which `try_run` converts into a `StepTimeout`.
    pub fn recv_packet(&mut self, tag: Tag) -> Packet {
        let id = self.sender.id;
        if let Some(f) = self.sender.fault.as_ref() {
            // Mainline fault point: the plan's kill fires here.
            f.fault_point(id);
        }
        if self.sender.control.is_aborted() {
            std::panic::panic_any(InjectedFailure::PeerAborted);
        }
        if let Some(pkt) = self.take_parked(tag) {
            self.note_delivered();
            return pkt;
        }
        let ctrl = &self.sender.control;
        let deadline = ctrl.timeout().map(|t| Instant::now() + t);
        let slice = ctrl.slice();
        // Whether this receive has published that it waits.
        let mut waiting = false;
        loop {
            if ctrl.is_aborted() {
                std::panic::panic_any(InjectedFailure::PeerAborted);
            }
            match self.inbox.recv_timeout(slice) {
                Some(pkt) if pkt.tag == tag => {
                    // Running again before the packet is counted out, so
                    // the stall rule never reads this machine waiting with
                    // nothing to take.
                    if waiting {
                        ctrl.running(id);
                    }
                    self.note_delivered();
                    return pkt;
                }
                Some(pkt) => {
                    ctrl.packet_parked(id);
                    self.mailbox.entry(pkt.tag).or_default().push_back(pkt);
                }
                None if deadline.is_some_and(|d| Instant::now() >= d) => {
                    // This machine is starved past the step budget: a peer
                    // stalled. Abort the run (waking every barrier waiter)
                    // and unwind with a typed payload.
                    ctrl.abort();
                    std::panic::panic_any(InjectedFailure::Timeout {
                        machine: id,
                        context: self.awaiting(tag),
                    });
                }
                None => {
                    waiting = true;
                    if let Some(others) = ctrl.receiving(id, tag) {
                        panic!(
                            "machine {id}: wait can never end: {}{others}",
                            self.awaiting(tag)
                        );
                    }
                }
            }
        }
    }

    /// "waiting for tag … (mailbox holds tags {…})": what a starved
    /// receive for `tag` reports.
    fn awaiting(&self, tag: Tag) -> String {
        let parked: BTreeSet<_> = self.mailbox.keys().collect();
        format!("waiting for tag {tag:?} (mailbox holds tags {parked:?})")
    }

    /// Frees the inbox's queue buffer if nothing is waiting in it: an
    /// exchange calls it when its receive loop ends, so the inbox does not
    /// keep the peak of its largest burst for the rest of the run.
    pub(crate) fn release_idle_inbox(&self) {
        self.inbox.release_if_empty();
    }

    /// Receives a `Vec<T>` with `tag` from any source; returns `(src, data)`.
    pub fn recv_vec<T: Send + 'static>(&mut self, tag: Tag) -> (usize, Vec<T>) {
        let pkt = self.recv_packet(tag);
        (pkt.src, downcast_payload(pkt.payload, pkt.tag))
    }

    /// Receives a single value with `tag` from any source.
    pub fn recv_value<T: Send + 'static>(&mut self, tag: Tag) -> (usize, T) {
        let pkt = self.recv_packet(tag);
        (pkt.src, downcast_value(pkt.payload, pkt.tag))
    }

    /// Receives a [`CommSender::send_runs`] message with `tag` from any
    /// source; returns `(src, runs)`.
    pub fn recv_runs<W: Wire>(&mut self, tag: Tag) -> (usize, Vec<Vec<W>>) {
        let pkt = self.recv_packet(tag);
        let (frames, rest): (Vec<u8>, Vec<W::Rest>) = downcast_value(pkt.payload, pkt.tag);
        (pkt.src, buffer::unpack_runs(&frames, rest))
    }

    /// Receives the `p − 1` stream openers of an exchange (`tag`), indexed
    /// by source (`None` for this machine): each other machine's `batches`
    /// range lengths and the first chunk of its stream. Panics, naming the
    /// source, on an opener whose count list is not `batches` long or a
    /// second opener from one source.
    // One slot per machine, once per exchange.
    pub(crate) fn recv_openers<R: Send + 'static>(
        &mut self,
        tag: Tag,
        batches: usize,
    ) -> Vec<Option<Opened<R>>> {
        let mut openers: Vec<Option<Opened<R>>> = (0..self.num_machines()).map(|_| None).collect();
        for _ in 1..openers.len() {
            let pkt = self.recv_packet(tag);
            let (src, wire_bytes) = (pkt.src, pkt.wire_bytes);
            let (lens, frames, rest) = downcast_value::<buffer::Opener<R>>(pkt.payload, pkt.tag);
            assert!(
                lens.len() == batches,
                "opener from machine {src} carries {} range lengths, not B = {batches}",
                lens.len()
            );
            let opened = (lens, frames, rest, wire_bytes);
            assert!(
                openers[src].replace(opened).is_none(),
                "second opener from machine {src}"
            );
        }
        openers
    }

    /// Receives a shared `Vec<T>` (sent with
    /// [`CommSender::send_shared_vec`]) and resolves it to an owned vector:
    /// the last receiver to drop its handle takes the allocation for free,
    /// everyone else clones locally — at most one clone per receiver
    /// instead of `p − 1` clones on the sender.
    // The clone is this collective's documented fallback — the last
    // receiver takes the allocation for free, earlier receivers clone once
    // locally instead of the sender cloning p-1 times.
    pub fn recv_shared_vec<T: Clone + Send + Sync + 'static>(
        &mut self,
        tag: Tag,
    ) -> (usize, Vec<T>) {
        let pkt = self.recv_packet(tag);
        let src = pkt.src;
        let shared: std::sync::Arc<Vec<T>> = downcast_value(pkt.payload, pkt.tag);
        let data = std::sync::Arc::try_unwrap(shared).unwrap_or_else(|a| (*a).clone());
        (src, data)
    }
}

impl Drop for CommManager {
    /// A machine whose manager drops has returned from the run: it waits
    /// for nothing and sends nothing more, which the stall rule reads.
    fn drop(&mut self) {
        self.sender.control.returned(self.sender.id);
    }
}

/// Unwraps a payload known to be `Vec<T>`.
pub fn downcast_payload<T: 'static>(payload: Box<dyn Any + Send>, tag: Tag) -> Vec<T> {
    *payload.downcast::<Vec<T>>().unwrap_or_else(|_| {
        panic!(
            "payload type mismatch for tag {tag:?}: expected Vec<{}>",
            std::any::type_name::<T>()
        )
    })
}

/// Unwraps a payload known to be `T`.
pub fn downcast_value<T: 'static>(payload: Box<dyn Any + Send>, tag: Tag) -> T {
    *payload.downcast::<T>().unwrap_or_else(|_| {
        panic!(
            "payload type mismatch for tag {tag:?}: expected {}",
            std::any::type_name::<T>()
        )
    })
}

impl Packet {
    /// Consumes the packet, returning its typed value payload.
    pub fn into_value<T: 'static>(self) -> T {
        downcast_value(self.payload, self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::CommStats;
    use std::sync::Arc;

    fn fabric2() -> Vec<CommManager> {
        CommManager::fabric(2, Arc::new(CommStats::new(2, Default::default())))
    }

    #[test]
    fn send_recv_roundtrip() {
        let mut f = fabric2();
        let m1 = f.pop().unwrap();
        let mut m0 = f.pop().unwrap();
        let tag = Tag::user(0, 1);
        m1.send_vec(0, tag, vec![1u64, 2, 3]);
        let (src, data) = m0.recv_vec::<u64>(tag);
        assert_eq!(src, 1);
        assert_eq!(data, vec![1, 2, 3]);
    }

    #[test]
    fn mailbox_holds_out_of_order_tags() {
        let mut f = fabric2();
        let m1 = f.pop().unwrap();
        let mut m0 = f.pop().unwrap();
        let early = Tag::user(0, 2);
        let wanted = Tag::user(0, 1);
        m1.send_vec(0, early, vec![9u8]);
        m1.send_vec(0, wanted, vec![7u8]);
        let (_, first) = m0.recv_vec::<u8>(wanted);
        assert_eq!(first, vec![7]);
        let (_, second) = m0.recv_vec::<u8>(early);
        assert_eq!(second, vec![9]);
    }

    #[test]
    fn self_send_not_charged() {
        let stats = Arc::new(CommStats::new(2, Default::default()));
        let mut f = CommManager::fabric(2, stats.clone());
        let _m1 = f.pop().unwrap();
        let mut m0 = f.pop().unwrap();
        let tag = Tag::user(1, 0);
        m0.send_vec(0, tag, vec![1u32, 2]);
        let (src, v) = m0.recv_vec::<u32>(tag);
        assert_eq!(src, 0);
        assert_eq!(v, vec![1, 2]);
        assert_eq!(stats.summary().bytes_sent, 0);
    }

    #[test]
    fn remote_send_charged_by_size() {
        let stats = Arc::new(CommStats::new(2, Default::default()));
        let mut f = CommManager::fabric(2, stats.clone());
        let m1 = f.pop().unwrap();
        let mut m0 = f.pop().unwrap();
        let tag = Tag::user(2, 0);
        m1.send_vec(0, tag, vec![0u64; 100]);
        let _ = m0.recv_vec::<u64>(tag);
        assert_eq!(stats.summary().bytes_sent, 800);
        assert_eq!(stats.summary().messages_sent, 1);
    }

    #[test]
    fn offset_chunk_roundtrip_counts_and_charges() {
        let stats = Arc::new(CommStats::new(2, Default::default()));
        let mut f = CommManager::fabric(2, stats.clone());
        let m1 = f.pop().unwrap();
        let mut m0 = f.pop().unwrap();
        let tag = Tag::user(5, 0);
        m1.sender()
            .send_offset_chunk(0, tag, 17, vec![9u8; 5], vec![1u32, 2, 3]);
        let (src, chunk) = m0.recv_value::<buffer::Chunk<u32>>(tag);
        assert_eq!((src, chunk), (1, (17, vec![9; 5], vec![1, 2, 3])));
        let s = stats.summary();
        assert_eq!(s.bytes_sent, 5 + 3 * 4 + 8);
        assert_eq!(s.exchange.chunks_sent, 1);
    }

    #[test]
    fn runs_roundtrip_packed_for_u64_and_raw_otherwise() {
        let stats = Arc::new(CommStats::new(2, Default::default()));
        let mut f = CommManager::fabric(2, stats.clone());
        let m1 = f.pop().unwrap();
        let mut m0 = f.pop().unwrap();
        let tag = Tag::user(7, 0);
        // Three u64 runs: a 13-byte header each, then one and two bytes a key.
        let keys = vec![vec![10u64, 20, 30], vec![], vec![5, 300]];
        m1.sender().send_runs(0, tag, keys.clone());
        assert_eq!(m0.recv_runs::<u64>(tag), (1, keys));
        assert_eq!(stats.summary().bytes_sent, 3 * 13 + 3 + 2 * 2);
        // Pairs: the same frames for their keys, then the values raw, and
        // no word per run boundary.
        let pairs = vec![vec![(1u64, 2u32)], vec![(3, 4), (5, 6)]];
        m1.sender().send_runs(0, tag, pairs.clone());
        assert_eq!(m0.recv_runs::<(u64, u32)>(tag), (1, pairs));
        assert_eq!(
            stats.summary().bytes_sent,
            3 * 13 + 7 + (13 + 13 + 2) + 3 * 4
        );
        assert_eq!(stats.summary().messages_sent, 2);
    }

    #[test]
    fn shared_vec_roundtrip_charged_full_bytes() {
        let stats = Arc::new(CommStats::new(2, Default::default()));
        let mut f = CommManager::fabric(2, stats.clone());
        let m1 = f.pop().unwrap();
        let mut m0 = f.pop().unwrap();
        let tag = Tag::user(6, 0);
        let payload = Arc::new(vec![7u32; 50]);
        m1.sender().send_shared_vec(0, tag, payload.clone());
        let (src, data) = m0.recv_shared_vec::<u32>(tag);
        assert_eq!(src, 1);
        assert_eq!(data, *payload);
        // Accounting matches an owned send of the same vector.
        assert_eq!(stats.summary().bytes_sent, 50 * 4);
    }

    #[test]
    #[should_panic(expected = "payload type mismatch")]
    fn type_mismatch_panics() {
        let mut f = fabric2();
        let m1 = f.pop().unwrap();
        let mut m0 = f.pop().unwrap();
        let tag = Tag::user(4, 0);
        m1.send_vec(0, tag, vec![1u64]);
        let _ = m0.recv_vec::<u32>(tag);
    }
}
