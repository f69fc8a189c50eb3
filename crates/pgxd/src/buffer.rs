//! The data manager's request buffers (§III / §IV-B).
//!
//! PGX.D buffers outgoing remote writes per destination and ships a buffer
//! when it reaches its maximum size (256 KiB, the empirically tuned value
//! the sampling step also keys off) or when the worker finishes its
//! scheduled tasks. [`RequestBuffer`] reproduces that: elements pushed for
//! a destination fill one chunk until its *encoded* size reaches
//! `capacity_bytes`, and then the chunk ships as one packet tagged for the
//! exchange, addressed to the receiver-side element offset it starts at
//! (the §IV-C offset write): `(offset, Vec<T>)`, or `(offset, Vec<u8>)`
//! when packed. A chunk always takes its first element, so a capacity
//! below one element (or one header) still ships one element per chunk.
//!
//! The element type alone selects what a chunk carries (`packs`):
//! - A `u64` chunk is packed in frame-of-reference form: a
//!   `PACKED_HEADER_BYTES` header, then every key minus the chunk's
//!   smallest, little-endian, in the `w` bytes that `max − min` needs. The
//!   header holds the smallest key (8 bytes), the key count (4) and `w`
//!   (1). A chunk of one repeated key has `w = 0` and no body. Width comes
//!   from the chunk's actual minimum and maximum, so unsorted and
//!   full-range input round-trip too; `unpack_into` is the receiving
//!   half.
//! - Every other type ships raw: the elements themselves, `size_of::<T>()`
//!   bytes each.
//!
//! The same frame carries the sorter's sample and splitter runs
//! ([`CommSender::send_runs`](crate::comm::CommSender::send_runs)): a
//! message of `B` `u64` runs is one frame per run, back to back, with no
//! boundary words between them (`pack_runs` / `unpack_runs`). An empty run
//! is a header alone.

use crate::comm::{CommSender, Tag};
use crate::pool::ChunkPool;
use crate::trace::EventKind;
use std::any::{Any, TypeId};

/// Bytes of a packed chunk's header: smallest key, key count, byte width.
pub(crate) const PACKED_HEADER_BYTES: usize = 13;

/// Whether exchange chunks of `T` are packed: `u64` alone. The comparison
/// folds to a constant at monomorphisation.
pub(crate) fn packs<T: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<u64>()
}

/// Bytes per key a packed chunk spends on a span of `max − min`.
pub(crate) fn packed_width(span: u64) -> usize {
    (u64::BITS - span.leading_zeros()).div_ceil(8) as usize
}

/// The number of keys in a packed chunk, read from its header.
pub(crate) fn packed_len(chunk: &[u8]) -> usize {
    let mut count = [0u8; 4];
    count.copy_from_slice(&chunk[8..12]);
    u32::from_le_bytes(count) as usize
}

/// Unpacks a packed chunk into `out`, which is exactly `packed_len`
/// slots long; `slot` makes a key into what a slot holds (the exchange
/// fills `MaybeUninit<u64>` output).
pub(crate) fn unpack_into<S>(chunk: &[u8], out: &mut [S], slot: impl Fn(u64) -> S + Copy) {
    let min = read_le(&chunk[..8]);
    let width = usize::from(chunk[12]);
    let body = &chunk[PACKED_HEADER_BYTES..];
    assert_eq!(body.len(), out.len() * width, "packed chunk body length");
    match width {
        0 => out.iter_mut().for_each(|s| *s = slot(min)),
        1 => unpack_body::<S, 1>(body, min, out, slot),
        2 => unpack_body::<S, 2>(body, min, out, slot),
        3 => unpack_body::<S, 3>(body, min, out, slot),
        4 => unpack_body::<S, 4>(body, min, out, slot),
        5 => unpack_body::<S, 5>(body, min, out, slot),
        6 => unpack_body::<S, 6>(body, min, out, slot),
        7 => unpack_body::<S, 7>(body, min, out, slot),
        8 => unpack_body::<S, 8>(body, min, out, slot),
        w => panic!("packed chunk width {w} > 8"),
    }
}

/// `min` plus each `W`-byte little-endian offset of `body`. Every key
/// whose 8-byte window stays inside `body` takes one load and a mask; the
/// last few are assembled byte-wise.
fn unpack_body<S, const W: usize>(body: &[u8], min: u64, out: &mut [S], slot: impl Fn(u64) -> S) {
    let mask = u64::MAX >> (64 - 8 * W);
    let wide = if body.len() < 8 {
        0
    } else {
        ((body.len() - 8) / W + 1).min(out.len())
    };
    let (head, tail) = out.split_at_mut(wide);
    for (i, s) in head.iter_mut().enumerate() {
        let mut window = [0u8; 8];
        window.copy_from_slice(&body[i * W..i * W + 8]);
        *s = slot(min + (u64::from_le_bytes(window) & mask));
    }
    for (src, s) in body[wide * W..].chunks_exact(W).zip(tail) {
        *s = slot(min + read_le(src));
    }
}

/// A little-endian integer of up to 8 bytes.
fn read_le(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// `value` as the `B` it is, or `value` back when `A` is another type. The
/// check folds at monomorphisation: it is how a generic message reaches
/// the `u64` codec.
pub(crate) fn cast<A: 'static, B: 'static>(value: A) -> Result<B, A> {
    let mut slot = Some(value);
    let taken = (&mut slot as &mut dyn Any)
        .downcast_mut::<Option<B>>()
        .and_then(Option::take);
    match (taken, slot) {
        (Some(b), _) => Ok(b),
        (None, Some(a)) => Err(a),
        (None, None) => unreachable!("the slot is emptied only as the type it holds"),
    }
}

/// Writes a packed frame's header into its first `PACKED_HEADER_BYTES`.
fn write_header(frame: &mut [u8], min: u64, count: usize, width: usize) {
    frame[..8].copy_from_slice(&min.to_le_bytes());
    frame[8..12].copy_from_slice(&(count as u32).to_le_bytes());
    frame[12] = width as u8;
}

/// Each key minus `min` into `body`, `width` bytes apiece; a width of 0
/// writes nothing.
fn pack_keys<T: 'static>(keys: &[T], min: u64, width: usize, body: &mut [u8]) {
    match width {
        1 => pack_body::<T, 1>(keys, min, body),
        2 => pack_body::<T, 2>(keys, min, body),
        3 => pack_body::<T, 3>(keys, min, body),
        4 => pack_body::<T, 4>(keys, min, body),
        5 => pack_body::<T, 5>(keys, min, body),
        6 => pack_body::<T, 6>(keys, min, body),
        7 => pack_body::<T, 7>(keys, min, body),
        8 => pack_body::<T, 8>(keys, min, body),
        _ => {}
    }
}

/// `runs` as one message: a packed frame per run, back to back. Each
/// frame's width comes from its run's smallest and largest key.
pub(crate) fn pack_runs(runs: &[Vec<u64>]) -> Vec<u8> {
    let keys: usize = runs.iter().map(Vec::len).sum();
    let mut message = Vec::with_capacity(runs.len() * PACKED_HEADER_BYTES + keys * 8);
    for run in runs {
        assert!(
            run.len() <= u32::MAX as usize,
            "a runs frame holds at most u32::MAX keys"
        );
        let (min, max) = match run.first() {
            Some(&first) => run
                .iter()
                .fold((first, first), |(lo, hi), &k| (lo.min(k), hi.max(k))),
            None => (0, 0),
        };
        let width = packed_width(max - min);
        let start = message.len();
        message.resize(start + PACKED_HEADER_BYTES + run.len() * width, 0);
        let frame = &mut message[start..];
        write_header(frame, min, run.len(), width);
        pack_keys(run, min, width, &mut frame[PACKED_HEADER_BYTES..]);
    }
    message
}

/// The runs of a [`pack_runs`] message, in order.
// analyze: allow(hot-path-alloc): the runs are what the message carries —
// one vector per run, B per message.
pub(crate) fn unpack_runs(message: &[u8]) -> Vec<Vec<u64>> {
    let mut runs = Vec::new();
    let mut rest = message;
    while !rest.is_empty() {
        let have = rest.len();
        assert!(
            have >= PACKED_HEADER_BYTES,
            "runs frame {} truncated: {have} of its {PACKED_HEADER_BYTES} header bytes",
            runs.len()
        );
        let len = packed_len(rest);
        let end = PACKED_HEADER_BYTES + len * usize::from(rest[12]);
        assert!(
            have >= end,
            "runs frame {} truncated: {have} of its {end} bytes",
            runs.len()
        );
        let mut run = vec![0; len];
        unpack_into(&rest[..end], &mut run, |k| k);
        runs.push(run);
        rest = &rest[end..];
    }
    runs
}

/// `value` read as the `u64` it is: only called while a packed chunk is
/// open, that is when `T` is `u64`, and the check folds away.
#[inline(always)]
fn key<T: 'static>(value: &T) -> u64 {
    match (value as &dyn Any).downcast_ref::<u64>() {
        Some(&k) => k,
        None => unreachable!("packed chunks carry u64 keys"),
    }
}

/// The chunk a [`RequestBuffer`] is filling.
enum Open<T> {
    /// Raw elements.
    Raw(Vec<T>),
    /// A packed chunk: header room plus the body so far.
    Packed(Packed),
}

impl<T> Default for Open<T> {
    /// No chunk: an unallocated raw one.
    fn default() -> Self {
        Open::Raw(Vec::default())
    }
}

/// An open packed chunk: `bytes` is the header room plus `count` keys
/// relative to `min`, at the width of `max − min`.
struct Packed {
    bytes: Vec<u8>,
    min: u64,
    max: u64,
    count: usize,
}

/// Keys per block when measuring how many keys a packed chunk takes: a
/// block that fits whole is accepted on its minimum and maximum alone.
const SPAN_BLOCK: usize = 64;

impl Packed {
    /// An empty chunk in `bytes`: header room, no keys.
    fn new(mut bytes: Vec<u8>) -> Self {
        bytes.resize(PACKED_HEADER_BYTES, 0);
        Packed {
            bytes,
            min: 0,
            max: 0,
            count: 0,
        }
    }

    /// Whether `count` keys spanning `min..=max` fit `capacity` bytes. A
    /// chunk always takes its first key.
    fn fits(count: usize, min: u64, max: u64, capacity: usize) -> bool {
        count == 1
            || (count <= u32::MAX as usize
                && PACKED_HEADER_BYTES + count * packed_width(max - min) <= capacity)
    }

    /// Whether no further key can join: the width never shrinks.
    fn is_full(&self, capacity: usize) -> bool {
        self.count > 0 && !Self::fits(self.count + 1, self.min, self.max, capacity)
    }

    /// How many leading `keys` join this chunk under `capacity`, and the
    /// chunk's span once they have.
    fn take<T: 'static>(&self, keys: &[T], capacity: usize) -> (usize, u64, u64) {
        let (mut min, mut max) = if self.count == 0 {
            (u64::MAX, 0)
        } else {
            (self.min, self.max)
        };
        let mut taken = 0;
        for block in keys.chunks(SPAN_BLOCK) {
            let (lo, hi) = block
                .iter()
                .fold((min, max), |(lo, hi), k| (lo.min(key(k)), hi.max(key(k))));
            if Self::fits(self.count + taken + block.len(), lo, hi, capacity) {
                (min, max, taken) = (lo, hi, taken + block.len());
                continue;
            }
            for k in block {
                let (lo, hi) = (min.min(key(k)), max.max(key(k)));
                if !Self::fits(self.count + taken + 1, lo, hi, capacity) {
                    break;
                }
                (min, max, taken) = (lo, hi, taken + 1);
            }
            break;
        }
        (taken, min, max)
    }

    /// Appends `keys`, after which the chunk spans `min..=max`. Keys
    /// already in the body are re-encoded first if the frame moved.
    fn append<T: 'static>(&mut self, keys: &[T], min: u64, max: u64) {
        let width = packed_width(max - min);
        if self.count > 0 && (min, width) != (self.min, packed_width(self.max - self.min)) {
            self.rebase(min, width);
        }
        let start = self.bytes.len();
        self.bytes.resize(start + keys.len() * width, 0);
        pack_keys(keys, min, width, &mut self.bytes[start..]);
        (self.min, self.max, self.count) = (min, max, self.count + keys.len());
    }

    /// Re-encodes the body against a new smallest key `min` at `width`
    /// bytes per key, never narrower than today's. Back to front, so each
    /// key is read before a wider write can reach it.
    fn rebase(&mut self, min: u64, width: usize) {
        let old = packed_width(self.max - self.min);
        self.bytes
            .resize(PACKED_HEADER_BYTES + self.count * width, 0);
        let body = &mut self.bytes[PACKED_HEADER_BYTES..];
        for i in (0..self.count).rev() {
            let k = self.min + read_le(&body[i * old..(i + 1) * old]);
            body[i * width..(i + 1) * width].copy_from_slice(&(k - min).to_le_bytes()[..width]);
        }
    }

    /// Writes the header: the chunk as it travels.
    fn seal(mut self) -> Vec<u8> {
        let width = packed_width(self.max - self.min);
        write_header(&mut self.bytes, self.min, self.count, width);
        self.bytes
    }
}

/// Each key minus `min`, in `W` little-endian bytes.
fn pack_body<T: 'static, const W: usize>(keys: &[T], min: u64, body: &mut [u8]) {
    for (dst, k) in body.chunks_exact_mut(W).zip(keys) {
        dst.copy_from_slice(&(key(k) - min).to_le_bytes()[..W]);
    }
}

/// Per-destination outgoing buffer that flushes at a byte capacity. Chunk
/// backing stores are acquired from the machine's [`ChunkPool`] — in a
/// steady-state exchange the receiver releases consumed chunks back, so
/// the same allocations circulate for the whole run.
pub struct RequestBuffer<'p, T> {
    dst: usize,
    tag: Tag,
    capacity_bytes: usize,
    /// Elements per raw chunk under the byte capacity (at least 1),
    /// computed once at construction.
    cap_elems: usize,
    /// Receiver-side element offset the *next* flushed chunk starts at.
    next_offset: usize,
    open: Open<T>,
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
        RequestBuffer {
            dst,
            tag,
            capacity_bytes,
            cap_elems: Self::capacity_elems(capacity_bytes),
            next_offset: base_offset,
            open: Self::empty_chunk(pool, capacity_bytes),
            pool,
        }
    }

    /// Elements a chunk always has room for (at least 1). The exchange
    /// reads it too: a range no longer than this leaves its stream in one
    /// chunk, whatever its keys.
    pub(crate) fn capacity_elems(capacity_bytes: usize) -> usize {
        let room = if packs::<T>() {
            capacity_bytes.saturating_sub(PACKED_HEADER_BYTES)
        } else {
            capacity_bytes
        };
        (room / std::mem::size_of::<T>().max(1)).max(1)
    }

    /// An empty chunk backed by the pool: room for `capacity_bytes`, or
    /// for a header and one key if that is more.
    fn empty_chunk(pool: &ChunkPool, capacity_bytes: usize) -> Open<T> {
        if !packs::<T>() {
            return Open::Raw(pool.acquire(Self::capacity_elems(capacity_bytes)));
        }
        // A packed chunk owns its pooled store until `seal` ships it: the
        // receiver hands it back with `release_inbound`, or `finish` does
        // with `release` if the chunk never took a key.
        let bytes = pool.acquire(capacity_bytes.max(PACKED_HEADER_BYTES + 8));
        let chunk = Packed::new(bytes);
        Open::Packed(chunk)
    }

    /// Queues a slice, shipping each chunk as it fills. A raw chunk fills
    /// by bulk `extend_from_slice` (memcpy for the `Copy` element types the
    /// exchange moves); a packed one takes the longest run of keys whose
    /// encoding fits and packs them in one pass.
    pub fn push_slice(&mut self, values: &[T], sender: &CommSender) {
        let mut rest = values;
        while !rest.is_empty() {
            let full = match &mut self.open {
                Open::Raw(buf) => {
                    let take = (self.cap_elems - buf.len()).min(rest.len());
                    buf.extend_from_slice(&rest[..take]);
                    rest = &rest[take..];
                    buf.len() >= self.cap_elems
                }
                Open::Packed(chunk) => {
                    let (take, min, max) = chunk.take(rest, self.capacity_bytes);
                    chunk.append(&rest[..take], min, max);
                    rest = &rest[take..];
                    !rest.is_empty() || chunk.is_full(self.capacity_bytes)
                }
            };
            if full {
                let next = Self::empty_chunk(self.pool, self.capacity_bytes);
                let chunk = std::mem::replace(&mut self.open, next);
                self.ship(chunk, sender);
            }
        }
    }

    /// Ships `chunk` as one offset-addressed packet.
    fn ship(&mut self, chunk: Open<T>, sender: &CommSender) {
        let offset = self.next_offset;
        match chunk {
            Open::Raw(data) => {
                self.next_offset += data.len();
                self.note_flush(sender, std::mem::size_of_val(&data[..]));
                sender.send_offset_chunk(self.dst, self.tag, offset, data);
            }
            Open::Packed(chunk) => {
                self.next_offset += chunk.count;
                let bytes = chunk.seal();
                self.note_flush(sender, bytes.len());
                sender.send_offset_chunk(self.dst, self.tag, offset, bytes);
            }
        }
    }

    /// Ships any remainder and retires the buffer. No replacement backing
    /// store is acquired — and an unused backing store is returned to the
    /// pool — so a steady-state exchange's acquires and releases balance
    /// exactly (the protocol checker's chunk-custody ledger verifies this
    /// balance at every barrier in debug builds).
    pub fn finish(mut self, sender: &CommSender) {
        match std::mem::take(&mut self.open) {
            Open::Raw(buf) if buf.is_empty() => self.pool.release(buf),
            Open::Packed(chunk) if chunk.count == 0 => self.pool.release(chunk.bytes),
            chunk => self.ship(chunk, sender),
        }
    }

    /// Marks a buffer flush in the run's trace (distinct from the
    /// [`ChunkSend`](EventKind::ChunkSend) the sender emits: a flush is
    /// the data-manager capacity edge, a send is the fabric edge).
    fn note_flush(&self, sender: &CommSender, bytes: usize) {
        if let Some(t) = sender.trace() {
            t.instant(
                1 + self.dst as u32,
                EventKind::ChunkFlush,
                self.dst as u64,
                bytes as u64,
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommManager;
    use crate::metrics::{CommStats, SharedCommStats};
    use std::sync::Arc;

    /// Machines 0 and 1 of a two-machine fabric, plus a chunk pool on the
    /// same stats.
    fn fabric2() -> (CommManager, CommManager, ChunkPool, SharedCommStats) {
        let stats = Arc::new(CommStats::new(2, Default::default()));
        let mut f = CommManager::fabric(2, stats.clone());
        let m1 = f.pop().unwrap();
        let m0 = f.pop().unwrap();
        (m0, m1, ChunkPool::new(stats.clone()), stats)
    }

    /// The next packed chunk for `tag`: `(offset, keys, encoded bytes)`.
    fn recv_packed(m: &mut CommManager, tag: Tag) -> (usize, Vec<u64>, usize) {
        let (_, (offset, chunk)) = m.recv_value::<(usize, Vec<u8>)>(tag);
        let mut keys = vec![0u64; packed_len(&chunk)];
        unpack_into(&chunk, &mut keys, |k| k);
        (offset, keys, chunk.len())
    }

    /// Packs `keys` through one buffer at `capacity` bytes and returns the
    /// chunks it shipped, decoded.
    fn packed_chunks(keys: &[u64], capacity: usize) -> Vec<(usize, Vec<u64>, usize)> {
        let (m0, mut m1, pool, stats) = fabric2();
        let tag = Tag::user(0, 7);
        let mut buf: RequestBuffer<u64> = RequestBuffer::new(1, tag, capacity, 0, &pool);
        buf.push_slice(keys, &m0.sender());
        buf.finish(&m0.sender());
        let chunks = stats.summary().exchange.chunks_sent as usize;
        (0..chunks).map(|_| recv_packed(&mut m1, tag)).collect()
    }

    #[test]
    fn width_is_the_bytes_of_the_span() {
        for (span, w) in [
            (0u64, 0),
            (1, 1),
            (255, 1),
            (256, 2),
            (65_535, 2),
            (65_536, 3),
        ] {
            assert_eq!(packed_width(span), w, "span {span}");
        }
        for k in 1..8 {
            assert_eq!(packed_width((1u64 << (8 * k)) - 1), k);
            assert_eq!(packed_width(1u64 << (8 * k)), k + 1);
        }
        assert_eq!(packed_width(u64::MAX), 8);
    }

    #[test]
    fn flushes_on_capacity() {
        let (m0, mut m1, pool, _) = fabric2();
        let tag = Tag::user(0, 0);
        // Keys 0..10 span one byte: a header plus four keys is 17 bytes.
        let cap = PACKED_HEADER_BYTES + 4;
        let mut buf: RequestBuffer<u64> = RequestBuffer::new(1, tag, cap, 100, &pool);
        let keys: Vec<u64> = (0..10).collect();
        buf.push_slice(&keys, &m0.sender());
        buf.finish(&m0.sender());
        assert_eq!(recv_packed(&mut m1, tag), (100, vec![0, 1, 2, 3], cap));
        assert_eq!(recv_packed(&mut m1, tag), (104, vec![4, 5, 6, 7], cap));
        assert_eq!(
            recv_packed(&mut m1, tag),
            (108, vec![8, 9], PACKED_HEADER_BYTES + 2)
        );

        // Any other element type ships raw: 32 bytes are four `u64` pairs.
        let mut raw: RequestBuffer<(u32, u32)> = RequestBuffer::new(1, tag, 32, 100, &pool);
        let pairs: Vec<(u32, u32)> = (0..10).map(|i| (i, 7)).collect();
        raw.push_slice(&pairs, &m0.sender());
        raw.finish(&m0.sender());
        for (offset, range) in [(100, 0..4), (104, 4..8), (108, 8..10)] {
            let (_, chunk) = m1.recv_value::<(usize, Vec<(u32, u32)>)>(tag);
            assert_eq!(chunk, (offset, pairs[range].to_vec()));
        }
    }

    #[test]
    fn a_chunk_is_the_longest_run_whose_encoding_fits() {
        // 64 bytes: 51 body bytes after the header. 0..=255 spans one byte,
        // so 51 keys fit; 256 widens the span to two bytes.
        let mut keys: Vec<u64> = (0..40).collect();
        keys.extend([256, 257, 300]);
        keys.extend(1000..1100);
        let chunks = packed_chunks(&keys, 64);
        let lens: Vec<usize> = chunks.iter().map(|c| c.1.len()).collect();
        // 40 one-byte keys then 256: 41 keys at two bytes is 95 bytes, so
        // the first chunk stops at 40 keys — the longest run that fits.
        assert_eq!(lens[0], 40);
        assert!(chunks.iter().all(|c| c.2 <= 64));
        let back: Vec<u64> = chunks.iter().flat_map(|c| c.1.clone()).collect();
        assert_eq!(back, keys);
        // Every offset is where the previous chunk ended.
        let mut at = 0;
        for (offset, part, _) in &chunks {
            assert_eq!(*offset, at);
            at += part.len();
        }
    }

    #[test]
    fn push_slice_spans_multiple_chunks() {
        // Unsorted, repeated and full-range keys pushed in pieces: a later
        // piece widens and re-bases the chunk the earlier one left open.
        let (m0, mut m1, pool, stats) = fabric2();
        let tag = Tag::user(0, 1);
        let keys: Vec<u64> = vec![
            500,
            500,
            500,
            499,
            510,
            7,
            1 << 20,
            3,
            3,
            0,
            u64::MAX,
            42,
            1 << 40,
            9,
            9,
            9,
        ];
        let mut buf: RequestBuffer<u64> = RequestBuffer::new(1, tag, 40, 0, &pool);
        for piece in keys.chunks(3) {
            buf.push_slice(piece, &m0.sender());
        }
        buf.finish(&m0.sender());
        let chunks = stats.summary().exchange.chunks_sent;
        assert!(chunks > 1);
        let mut got = vec![0u64; keys.len()];
        for _ in 0..chunks {
            let (offset, part, bytes) = recv_packed(&mut m1, tag);
            assert!(bytes <= 40 || part.len() == 1);
            got[offset..offset + part.len()].copy_from_slice(&part);
        }
        assert_eq!(got, keys);

        // The same stream through a raw element type.
        let mut raw: RequestBuffer<u32> = RequestBuffer::new(1, tag, 16, 0, &pool);
        let values: Vec<u32> = (0..11).collect();
        raw.push_slice(&values[..5], &m0.sender());
        raw.push_slice(&values[5..], &m0.sender());
        raw.finish(&m0.sender());
        let mut got = vec![0u32; 11];
        for _ in 0..3 {
            let (_, (off, data)) = m1.recv_value::<(usize, Vec<u32>)>(tag);
            got[off..off + data.len()].copy_from_slice(&data);
        }
        assert_eq!(got, values);
    }

    #[test]
    fn one_repeated_key_is_a_header_alone() {
        let chunks = packed_chunks(&[7; 10_000], 64);
        assert_eq!(chunks, vec![(0, vec![7; 10_000], PACKED_HEADER_BYTES)]);
    }

    #[test]
    fn pooled_buffer_recycles_chunk_backing_stores() {
        let (m0, mut m1, pool, stats) = fabric2();
        let tag = Tag::user(0, 9);
        // Room for four one-byte keys: each round fills and ships a chunk.
        let cap = PACKED_HEADER_BYTES + 4;
        let mut buf: RequestBuffer<u64> = RequestBuffer::new(1, tag, cap, 0, &pool);
        for round in 0..3u64 {
            let keys: Vec<u64> = (0..4).map(|v| round * 4 + v).collect();
            buf.push_slice(&keys, &m0.sender());
            // Receiver consumes the chunk and returns its backing store.
            let (_, (off, chunk)) = m1.recv_value::<(usize, Vec<u8>)>(tag);
            assert_eq!(off as u64, round * 4);
            pool.release(chunk);
        }
        buf.finish(&m0.sender());
        let ex = stats.summary().exchange;
        assert_eq!(ex.chunks_sent, 3);
        // Three shipped chunks came back, and `finish` returned the unused
        // fourth backing store.
        assert_eq!(ex.chunks_recycled, 4);
        // First two acquisitions (initial buf + first flush replacement)
        // miss; once chunks start coming back, flushes hit the pool.
        assert!(ex.pool_hits >= 1, "expected recycled buffers to be reused");
    }

    #[test]
    fn empty_flush_is_noop() {
        // Finishing a buffer nothing was pushed to ships nothing and hands
        // its backing store back to the pool.
        let (m0, _m1, pool, stats) = fabric2();
        let packed: RequestBuffer<u64> = RequestBuffer::new(1, Tag::user(0, 2), 64, 0, &pool);
        packed.finish(&m0.sender());
        let raw: RequestBuffer<u32> = RequestBuffer::new(1, Tag::user(0, 2), 64, 0, &pool);
        raw.finish(&m0.sender());
        let ex = stats.summary().exchange;
        assert_eq!((ex.chunks_sent, ex.chunks_recycled), (0, 2));
        assert!(pool.held_bytes() > 0);
    }

    /// Packs `runs` into one message, checks that it is `bytes` long and
    /// decodes back to `runs`, and returns it.
    fn runs_round_trip(runs: &[Vec<u64>], bytes: usize) -> Vec<u8> {
        let message = pack_runs(runs);
        assert_eq!(message.len(), bytes, "{runs:?}");
        assert_eq!(unpack_runs(&message), runs);
        message
    }

    #[test]
    fn a_run_is_one_frame_at_its_span_width() {
        let h = PACKED_HEADER_BYTES;
        runs_round_trip(&[vec![]], h);
        runs_round_trip(&[vec![42]], h);
        // All-equal keys: width 0, the header alone.
        runs_round_trip(&[vec![u64::MAX; 5]], h);
        runs_round_trip(&[vec![0, u64::MAX]], h + 2 * 8);
        for k in 1..8 {
            let edge = 1u64 << (8 * k);
            runs_round_trip(&[vec![0, edge - 1]], h + 2 * k);
            runs_round_trip(&[vec![0, edge]], h + 2 * (k + 1));
            runs_round_trip(&[vec![edge - 1, edge]], h + 2);
        }
        // Unsorted keys take the width of their true span.
        runs_round_trip(&[vec![300, 1, 44]], h + 3 * 2);
        assert_eq!(unpack_runs(&[]), Vec::<Vec<u64>>::new());
    }

    #[test]
    fn runs_sit_back_to_back_with_no_boundary_words() {
        let runs = vec![vec![7, 8, 9], vec![], vec![1 << 20, (1 << 20) + 70_000]];
        let h = PACKED_HEADER_BYTES;
        let message = runs_round_trip(&runs, (h + 3) + h + (h + 2 * 3));
        // The empty middle run is a header alone: smallest key 0, count 0,
        // width 0, right where the first frame ends.
        assert_eq!(message[h + 3..2 * h + 3], [0; 13]);
        assert_eq!(packed_len(&message[2 * h + 3..]), 2);
    }

    #[test]
    #[should_panic(expected = "runs frame 1 truncated")]
    fn a_truncated_runs_message_panics() {
        let message = pack_runs(&[vec![1, 2, 3], vec![1000, 9]]);
        let _ = unpack_runs(&message[..message.len() - 1]);
    }

    #[test]
    #[should_panic(expected = "runs frame 0 truncated")]
    fn a_message_shorter_than_a_header_panics() {
        let _ = unpack_runs(&pack_runs(&[vec![5]])[..PACKED_HEADER_BYTES - 1]);
    }

    #[test]
    fn tiny_capacity_still_makes_progress() {
        // A capacity below one header (or one element): a key per chunk,
        // and a chunk of one key spans nothing.
        let chunks = packed_chunks(&[5, 6, 6], 1);
        let one = |offset, key| (offset, vec![key], PACKED_HEADER_BYTES);
        assert_eq!(chunks, vec![one(0, 5), one(1, 6), one(2, 6)]);

        let (m0, mut m1, pool, _) = fabric2();
        let tag = Tag::user(0, 3);
        let mut raw: RequestBuffer<u32> = RequestBuffer::new(1, tag, 1, 0, &pool);
        raw.push_slice(&[5, 6], &m0.sender());
        raw.finish(&m0.sender());
        let (_, (o1, d1)) = m1.recv_value::<(usize, Vec<u32>)>(tag);
        assert_eq!((o1, d1), (0, vec![5]));
        let (_, (o2, d2)) = m1.recv_value::<(usize, Vec<u32>)>(tag);
        assert_eq!((o2, d2), (1, vec![6]));
    }
}
