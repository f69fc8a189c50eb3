//! The data manager's request buffers (§III / §IV-B).
//!
//! PGX.D buffers outgoing remote writes per destination and ships a buffer
//! when it reaches its maximum size (256 KiB, the empirically tuned value
//! the sampling step also keys off) or when the worker finishes its
//! scheduled tasks. [`RequestBuffer`] reproduces that: elements pushed for
//! a destination accumulate until the buffer holds `capacity_bytes` worth,
//! then flush as one [`OffsetChunk`] packet tagged for the exchange.

use crate::comm::{CommSender, Tag};
use crate::pool::ChunkPool;
use crate::trace::EventKind;

/// A chunk of exchange data addressed to a receiver-side element offset,
/// so the receiver can write it straight into its preallocated output
/// (the §IV-C offset-write mechanism).
pub struct OffsetChunk<T> {
    /// Element offset in the receiver's assembled output buffer.
    pub offset: usize,
    /// The elements themselves.
    pub data: Vec<T>,
}

/// Per-destination outgoing buffer that flushes at a byte capacity. Chunk
/// backing stores are acquired from the machine's [`ChunkPool`] — in a
/// steady-state exchange the receiver releases consumed chunks back, so
/// the same allocations circulate for the whole run.
pub struct RequestBuffer<'p, T> {
    dst: usize,
    tag: Tag,
    /// Elements per chunk under the byte capacity (at least 1), computed
    /// once at construction.
    cap_elems: usize,
    /// Receiver-side element offset the *next* flushed chunk starts at.
    next_offset: usize,
    buf: Vec<T>,
    flushed_chunks: usize,
    /// Recycled backing stores for flushed chunks.
    pool: &'p ChunkPool,
}

impl<'p, T: Send + Copy + 'static> RequestBuffer<'p, T> {
    /// A buffer for `dst`, starting at receiver-side offset `base_offset`.
    pub fn new(
        dst: usize,
        tag: Tag,
        capacity_bytes: usize,
        base_offset: usize,
        pool: &'p ChunkPool,
    ) -> Self {
        let cap_elems = Self::capacity_elems(capacity_bytes);
        RequestBuffer {
            dst,
            tag,
            cap_elems,
            next_offset: base_offset,
            buf: pool.acquire(cap_elems),
            flushed_chunks: 0,
            pool,
        }
    }

    /// Elements that fit under the byte capacity (at least 1). The exchange
    /// reads it too: a range no longer than this leaves its stream in one
    /// chunk.
    pub(crate) fn capacity_elems(capacity_bytes: usize) -> usize {
        (capacity_bytes / std::mem::size_of::<T>().max(1)).max(1)
    }

    /// Queues one element, flushing if the buffer reaches capacity.
    pub fn push(&mut self, value: T, sender: &CommSender) {
        self.buf.push(value);
        if self.buf.len() >= self.cap_elems {
            self.flush(sender);
        }
    }

    /// Queues a slice, flushing as capacity boundaries are crossed. The
    /// copy into the buffer is a bulk `extend_from_slice` (memcpy for the
    /// `Copy` element types the exchange moves), not an element loop.
    pub fn push_slice(&mut self, values: &[T], sender: &CommSender) {
        let mut rest = values;
        while !rest.is_empty() {
            let room = self.cap_elems - self.buf.len();
            let take = room.min(rest.len());
            self.buf.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buf.len() >= self.cap_elems {
                self.flush(sender);
            }
        }
    }

    /// Ships whatever is buffered as one offset-addressed chunk.
    pub fn flush(&mut self, sender: &CommSender) {
        if self.buf.is_empty() {
            return;
        }
        let fresh = self.pool.acquire(self.cap_elems);
        let data = std::mem::replace(&mut self.buf, fresh);
        let offset = self.next_offset;
        self.next_offset += data.len();
        self.flushed_chunks += 1;
        self.note_flush(sender, data.len());
        sender.send_offset_chunk(self.dst, self.tag, offset, data);
    }

    /// Flushes any remainder and retires the buffer. Unlike
    /// [`flush`](RequestBuffer::flush), no replacement backing store is
    /// acquired — and an unused backing store is returned to the pool — so
    /// a steady-state exchange's acquires and releases balance exactly (the
    /// protocol checker's chunk-custody ledger verifies this balance at
    /// every barrier in debug builds).
    pub fn finish(mut self, sender: &CommSender) {
        let data = std::mem::take(&mut self.buf);
        if data.is_empty() {
            if data.capacity() > 0 {
                self.pool.release(data);
            }
            return;
        }
        let offset = self.next_offset;
        self.next_offset += data.len();
        self.flushed_chunks += 1;
        self.note_flush(sender, data.len());
        sender.send_offset_chunk(self.dst, self.tag, offset, data);
    }

    /// Marks a buffer flush in the run's trace (distinct from the
    /// [`ChunkSend`](EventKind::ChunkSend) the sender emits: a flush is
    /// the data-manager capacity edge, a send is the fabric edge).
    fn note_flush(&self, sender: &CommSender, elems: usize) {
        if let Some(t) = sender.trace() {
            t.instant(
                1 + self.dst as u32,
                EventKind::ChunkFlush,
                self.dst as u64,
                (elems * std::mem::size_of::<T>()) as u64,
            );
        }
    }

    /// Number of chunks flushed so far.
    pub fn flushed_chunks(&self) -> usize {
        self.flushed_chunks
    }

    /// Elements currently buffered (not yet flushed).
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// The destination machine.
    pub fn dst(&self) -> usize {
        self.dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommManager;
    use crate::metrics::CommStats;
    use std::sync::Arc;

    /// A two-machine fabric plus a chunk pool on the same stats.
    fn fabric2() -> (Vec<CommManager>, ChunkPool) {
        let stats = Arc::new(CommStats::new(2, Default::default()));
        (CommManager::fabric(2, stats.clone()), ChunkPool::new(stats))
    }

    #[test]
    fn flushes_on_capacity() {
        let (mut f, pool) = fabric2();
        let mut m1 = f.pop().unwrap();
        let m0 = f.pop().unwrap();
        let tag = Tag::user(0, 0);
        // capacity = 32 bytes = 4 u64 elements
        let mut buf: RequestBuffer<u64> = RequestBuffer::new(1, tag, 32, 100, &pool);
        let sender = m0.sender();
        for v in 0..10u64 {
            buf.push(v, &sender);
        }
        assert_eq!(buf.flushed_chunks(), 2);
        assert_eq!(buf.pending(), 2);
        buf.flush(&sender);
        assert_eq!(buf.flushed_chunks(), 3);

        // Receiver sees three chunks with consecutive offsets.
        let (_, c1) = m1.recv_value::<(usize, Vec<u64>)>(tag);
        let (_, c2) = m1.recv_value::<(usize, Vec<u64>)>(tag);
        let (_, c3) = m1.recv_value::<(usize, Vec<u64>)>(tag);
        assert_eq!(c1.0, 100);
        assert_eq!(c1.1, vec![0, 1, 2, 3]);
        assert_eq!(c2.0, 104);
        assert_eq!(c2.1, vec![4, 5, 6, 7]);
        assert_eq!(c3.0, 108);
        assert_eq!(c3.1, vec![8, 9]);
    }

    #[test]
    fn push_slice_spans_multiple_chunks() {
        let (mut f, pool) = fabric2();
        let mut m1 = f.pop().unwrap();
        let m0 = f.pop().unwrap();
        let tag = Tag::user(0, 1);
        let mut buf: RequestBuffer<u32> = RequestBuffer::new(1, tag, 16, 0, &pool); // 4 elems
        let values: Vec<u32> = (0..11).collect();
        buf.push_slice(&values, &m0.sender());
        buf.flush(&m0.sender());
        let mut got = vec![0u32; 11];
        for _ in 0..3 {
            let (_, (off, data)) = m1.recv_value::<(usize, Vec<u32>)>(tag);
            got[off..off + data.len()].copy_from_slice(&data);
        }
        assert_eq!(got, values);
    }

    #[test]
    fn pooled_buffer_recycles_chunk_backing_stores() {
        let stats = Arc::new(CommStats::new(2, Default::default()));
        let mut f = CommManager::fabric(2, stats.clone());
        let mut m1 = f.pop().unwrap();
        let m0 = f.pop().unwrap();
        let tag = Tag::user(0, 9);
        let pool = ChunkPool::new(stats.clone());
        // 32 bytes = 4 u64 elements per chunk.
        let mut buf: RequestBuffer<u64> = RequestBuffer::new(1, tag, 32, 0, &pool);
        let sender = m0.sender();
        for round in 0..3u64 {
            for v in 0..4u64 {
                buf.push(round * 4 + v, &sender);
            }
            // Receiver consumes the chunk and returns its backing store.
            let (_, (off, data)) = m1.recv_value::<(usize, Vec<u64>)>(tag);
            assert_eq!(off as u64, round * 4);
            pool.release(data);
        }
        let ex = stats.summary().exchange;
        assert_eq!(ex.chunks_sent, 3);
        assert_eq!(ex.chunks_recycled, 3);
        // First two acquisitions (initial buf + first flush replacement)
        // miss; once chunks start coming back, flushes hit the pool.
        assert!(ex.pool_hits >= 1, "expected recycled buffers to be reused");
    }

    #[test]
    fn empty_flush_is_noop() {
        let (mut f, pool) = fabric2();
        let _m1 = f.pop().unwrap();
        let m0 = f.pop().unwrap();
        let mut buf: RequestBuffer<u64> = RequestBuffer::new(1, Tag::user(0, 2), 64, 0, &pool);
        buf.flush(&m0.sender());
        assert_eq!(buf.flushed_chunks(), 0);
    }

    #[test]
    fn tiny_capacity_still_makes_progress() {
        let (mut f, pool) = fabric2();
        let mut m1 = f.pop().unwrap();
        let m0 = f.pop().unwrap();
        let tag = Tag::user(0, 3);
        // capacity smaller than one element: every push flushes.
        let mut buf: RequestBuffer<u64> = RequestBuffer::new(1, tag, 1, 0, &pool);
        buf.push(5, &m0.sender());
        buf.push(6, &m0.sender());
        assert_eq!(buf.flushed_chunks(), 2);
        let (_, (o1, d1)) = m1.recv_value::<(usize, Vec<u64>)>(tag);
        assert_eq!((o1, d1), (0, vec![5]));
        let (_, (o2, d2)) = m1.recv_value::<(usize, Vec<u64>)>(tag);
        assert_eq!((o2, d2), (1, vec![6]));
    }
}
