//! The data manager's request buffers (§III / §IV-B), and the packed frame
//! codec they share with the sorter's run messages.
//!
//! PGX.D buffers outgoing remote writes per destination and ships a buffer
//! when it reaches its maximum size (256 KiB, the empirically tuned value
//! the sampling step also keys off) or when the worker finishes its
//! scheduled tasks. [`RequestBuffer`] reproduces that for one send range:
//! it cuts the range into chunks whose *encoded* size is at most
//! `capacity_bytes` and ships each as one packet tagged for the exchange,
//! addressed to the receiver-side element offset it starts at (the §IV-C
//! offset write): `(offset, Vec<u8>)` from
//! [`send_packed`](RequestBuffer::send_packed), `(offset, Vec<T>)` from
//! [`send_raw`](RequestBuffer::send_raw). A chunk always takes its first
//! element, so a capacity below one element (or one header) still ships
//! one element per chunk.
//!
//! The element type alone selects what a chunk carries (`packs`):
//! - A `u64` chunk is packed frames, back to back. A frame is a
//!   `PACKED_HEADER_BYTES` header — its smallest key (8 bytes), its key
//!   count (4) and a byte width `w` (1) — then each key minus the
//!   smallest, little-endian, in the `w` bytes that the frame's
//!   `max − min` needs. A frame of one repeated key has `w = 0` and no
//!   body. Widths come from the actual minimum and maximum, so unsorted and
//!   full-range input round-trip too, and every frame decodes on its own.
//! - Every other type ships raw: the elements themselves, `size_of::<T>()`
//!   bytes each.
//!
//! Where a frame ends (`pack_frames`): the encoder walks the keys in
//! `BLOCK`-key blocks and adds each block to the open frame unless a fresh
//! frame for it is cheaper than widening the open one. A fresh frame costs
//! a header plus the block at its own width; widening costs the block, and
//! every key already in the frame, at the width of both. A run of equal
//! keys thus ships as a bare header, and keys past a byte edge pay the
//! wider width only in their own frame. The encoder is handed a whole
//! range, so it writes each frame once, at its final width. The codec is
//! written for `u64` alone, not generic over the element type: it compiles
//! once, here, instead of once in every crate that sorts `u64`.
//!
//! The same frames carry the sorter's sample and splitter runs
//! ([`CommSender::send_runs`](crate::comm::CommSender::send_runs)): a
//! message of `B` `u64` runs is each run's frames, back to back, with the
//! top bit of the width byte (`RUN_END`) set on each run's last frame, so
//! the marks cost no bytes (`pack_runs` / `unpack_runs`). An empty run is
//! a header alone. `frames` is the one decoder, for chunks and runs alike.

use crate::comm::{CommSender, Tag};
use crate::pool::ChunkPool;
use crate::trace::EventKind;
use std::any::{Any, TypeId};

/// Bytes of a frame's header: smallest key, key count, byte width.
const PACKED_HEADER_BYTES: usize = 13;

/// Keys per block the encoder prices: a block joins the open frame or
/// opens a fresh one, whole.
const BLOCK: usize = 32;

/// The width byte's bit that marks the last frame of a run in a runs
/// message.
const RUN_END: u8 = 0x80;

/// Whether exchange chunks of `T` are packed: `u64` alone. The comparison
/// folds to a constant at monomorphisation.
pub(crate) fn packs<T: 'static>() -> bool {
    TypeId::of::<T>() == TypeId::of::<u64>()
}

/// Bytes per key a frame spends on a span of `max − min`.
fn packed_width(span: u64) -> usize {
    (u64::BITS - span.leading_zeros()).div_ceil(8) as usize
}

/// Elements a chunk of `T` always has room for under `capacity_bytes` (at
/// least 1). The exchange reads it too: a range no longer than this
/// leaves its stream in one chunk, whatever its keys, because the frames
/// `pack_frames` cuts are never larger than one frame over the same keys.
pub(crate) fn capacity_elems<T: 'static>(capacity_bytes: usize) -> usize {
    let room = if packs::<T>() {
        capacity_bytes.saturating_sub(PACKED_HEADER_BYTES)
    } else {
        capacity_bytes
    };
    (room / std::mem::size_of::<T>().max(1)).max(1)
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

/// A frame the encoder plans: `len` keys from `start`, spanning
/// `min..=max`.
#[derive(Clone, Copy)]
struct Frame {
    start: usize,
    len: usize,
    min: u64,
    max: u64,
}

impl Frame {
    /// The frame of an empty run: a header alone.
    const EMPTY: Frame = Frame {
        start: 0,
        len: 0,
        min: 0,
        max: 0,
    };

    /// `keys[start..start + len]` as one frame (`len ≥ 1`).
    fn of(keys: &[u64], start: usize, len: usize) -> Self {
        let first = keys[start];
        let (min, max) = keys[start..start + len]
            .iter()
            .fold((first, first), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        Frame {
            start,
            len,
            min,
            max,
        }
    }

    fn width(self) -> usize {
        packed_width(self.max - self.min)
    }

    /// Encoded length: header and body.
    fn bytes(self) -> usize {
        PACKED_HEADER_BYTES + self.len * self.width()
    }
}

/// The cost rule: `block`, the keys right after `open`, joins `open`
/// unless a fresh frame for it costs less than widening `open` to cover
/// it. Returns the frame this closes, if any, and the frame left open.
fn place(open: Option<Frame>, block: Frame) -> (Option<Frame>, Frame) {
    let Some(open) = open else {
        return (None, block);
    };
    let joined = Frame {
        len: open.len + block.len,
        min: open.min.min(block.min),
        max: open.max.max(block.max),
        ..open
    };
    if joined.len <= u32::MAX as usize && joined.bytes() - open.bytes() <= block.bytes() {
        (None, joined)
    } else {
        (Some(open), block)
    }
}

/// Appends to `out` the frames of the longest head of `keys` that fits
/// `capacity` bytes — at least one key — and returns how many keys they
/// hold; with `run_end`, the last frame carries the mark. Empty `keys` is
/// one empty frame.
///
/// The frames are never larger than one frame over the same keys. Widening
/// a frame that holds a full block by a byte costs at least `BLOCK` bytes,
/// more than a fresh header, so every frame keeps its first block's width.
/// A fresh frame is cut only where the frame before it or the block that
/// opens it is narrower than the keys' whole span; a frame narrower than
/// that saves a byte on each of its `BLOCK` or more keys, which pays for
/// both headers it can be charged with, and a short last block that opens
/// a frame saves more than its header by the rule itself.
fn pack_frames(keys: &[u64], capacity: usize, run_end: bool, out: &mut Vec<u8>) -> usize {
    let (mut written, mut open, mut at) = (0, None, 0);
    while at < keys.len() {
        let block = BLOCK.min(keys.len() - at);
        let fits = |head: Frame| {
            let (closed, next) = place(open, head);
            written + closed.map_or(0, Frame::bytes) + next.bytes() <= capacity
        };
        // The block, or at the end of a chunk the longest head of it that
        // keeps the frames inside `capacity`, found by bisection (the cost
        // only grows with the head). A chunk's first key is taken whatever
        // it costs.
        let mut head = Frame::of(keys, at, block);
        if !fits(head) {
            let (mut lo, mut hi) = (usize::from(at == 0), block);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if fits(Frame::of(keys, at, mid)) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            if lo == 0 {
                break;
            }
            head = Frame::of(keys, at, lo);
        }
        let (closed, next) = place(open, head);
        if let Some(frame) = closed {
            written += write_frame(keys, frame, false, out);
        }
        (open, at) = (Some(next), at + head.len);
        if head.len < block {
            break;
        }
    }
    write_frame(keys, open.unwrap_or(Frame::EMPTY), run_end, out);
    at
}

/// Appends `frame` of `keys` to `out`, header then body; returns its
/// length.
fn write_frame(keys: &[u64], frame: Frame, run_end: bool, out: &mut Vec<u8>) -> usize {
    let (width, bytes) = (frame.width(), frame.bytes());
    let at = out.len();
    out.resize(at + bytes, 0);
    let dst = &mut out[at..];
    dst[..8].copy_from_slice(&frame.min.to_le_bytes());
    dst[8..12].copy_from_slice(&(frame.len as u32).to_le_bytes());
    dst[12] = width as u8 | if run_end { RUN_END } else { 0 };
    let keys = &keys[frame.start..frame.start + frame.len];
    let body = &mut dst[PACKED_HEADER_BYTES..];
    match width {
        1 => pack_body::<1>(keys, frame.min, body),
        2 => pack_body::<2>(keys, frame.min, body),
        3 => pack_body::<3>(keys, frame.min, body),
        4 => pack_body::<4>(keys, frame.min, body),
        5 => pack_body::<5>(keys, frame.min, body),
        6 => pack_body::<6>(keys, frame.min, body),
        7 => pack_body::<7>(keys, frame.min, body),
        8 => pack_body::<8>(keys, frame.min, body),
        _ => {}
    }
    bytes
}

/// Each key minus `min`, in `W` little-endian bytes.
fn pack_body<const W: usize>(keys: &[u64], min: u64, body: &mut [u8]) {
    for (dst, k) in body.chunks_exact_mut(W).zip(keys) {
        dst.copy_from_slice(&(k - min).to_le_bytes()[..W]);
    }
}

/// A frame as read off the wire: `len` keys, each `min` plus a
/// `width`-byte offset in `body`.
struct Encoded<'a> {
    min: u64,
    len: usize,
    width: usize,
    run_end: bool,
    body: &'a [u8],
}

/// The frames of a packed message, in order. Panics, naming the message
/// kind `what` and the frame, when the bytes end inside a frame (so a
/// message whose frames do not tile it exactly is refused) or a width is
/// over 8.
fn frames<'a>(message: &'a [u8], what: &'static str) -> impl Iterator<Item = Encoded<'a>> {
    let (mut rest, mut index) = (message, 0);
    std::iter::from_fn(move || {
        if rest.is_empty() {
            return None;
        }
        let have = rest.len();
        assert!(
            have >= PACKED_HEADER_BYTES,
            "{what} frame {index} truncated: {have} of its {PACKED_HEADER_BYTES} header bytes"
        );
        let mut count = [0u8; 4];
        count.copy_from_slice(&rest[8..12]);
        let len = u32::from_le_bytes(count) as usize;
        let width = usize::from(rest[12] & !RUN_END);
        assert!(width <= 8, "{what} frame {index} width {width} > 8");
        let end = PACKED_HEADER_BYTES + len * width;
        assert!(
            have >= end,
            "{what} frame {index} truncated: {have} of its {end} bytes"
        );
        let frame = Encoded {
            min: read_le(&rest[..8]),
            len,
            width,
            run_end: rest[12] & RUN_END != 0,
            body: &rest[PACKED_HEADER_BYTES..end],
        };
        (rest, index) = (&rest[end..], index + 1);
        Some(frame)
    })
}

impl Encoded<'_> {
    /// The frame's keys into `out`, which is `len` slots long; `slot`
    /// makes a key into what a slot holds.
    fn unpack<S>(&self, out: &mut [S], slot: impl Fn(u64) -> S + Copy) {
        let (body, min) = (self.body, self.min);
        match self.width {
            1 => unpack_body::<S, 1>(body, min, out, slot),
            2 => unpack_body::<S, 2>(body, min, out, slot),
            3 => unpack_body::<S, 3>(body, min, out, slot),
            4 => unpack_body::<S, 4>(body, min, out, slot),
            5 => unpack_body::<S, 5>(body, min, out, slot),
            6 => unpack_body::<S, 6>(body, min, out, slot),
            7 => unpack_body::<S, 7>(body, min, out, slot),
            8 => unpack_body::<S, 8>(body, min, out, slot),
            _ => out.iter_mut().for_each(|s| *s = slot(min)),
        }
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

/// Unpacks a packed chunk into the head of `out` and returns how many keys
/// it held; `slot` makes a key into what a slot holds (the exchange fills
/// `MaybeUninit<u64>` output). Panics, naming the frame, if the frames do
/// not tile the chunk or their keys run past `out`.
pub(crate) fn unpack_into<S>(chunk: &[u8], out: &mut [S], slot: impl Fn(u64) -> S + Copy) -> usize {
    let mut at = 0;
    for (index, frame) in frames(chunk, "chunk").enumerate() {
        let room = out.len() - at;
        assert!(
            frame.len <= room,
            "chunk frame {index} runs past the output: {} keys, {room} slots left",
            frame.len
        );
        frame.unpack(&mut out[at..at + frame.len], slot);
        at += frame.len;
    }
    at
}

/// `runs` as one message: each run's frames, back to back, its last one
/// marked.
pub(crate) fn pack_runs(runs: &[Vec<u64>]) -> Vec<u8> {
    let keys: usize = runs.iter().map(Vec::len).sum();
    let mut message = Vec::with_capacity(runs.len() * PACKED_HEADER_BYTES + keys * 8);
    for run in runs {
        pack_frames(run, usize::MAX, true, &mut message);
    }
    message
}

/// The runs of a [`pack_runs`] message, in order.
// analyze: allow(hot-path-alloc): the runs are what the message carries —
// one vector per run, B per message.
pub(crate) fn unpack_runs(message: &[u8]) -> Vec<Vec<u64>> {
    let (mut runs, mut run) = (Vec::new(), Vec::new());
    let mut ended = true;
    for frame in frames(message, "runs") {
        let at = run.len();
        run.resize(at + frame.len, 0);
        frame.unpack(&mut run[at..], |k| k);
        ended = frame.run_end;
        if ended {
            runs.push(std::mem::take(&mut run));
        }
    }
    assert!(ended, "runs message ends inside run {}", runs.len());
    runs
}

/// A destination's outgoing request buffer, which flushes at a byte
/// capacity. Chunk backing stores are acquired from the machine's
/// [`ChunkPool`] — in a steady-state exchange the receiver releases
/// consumed chunks back, so the same allocations circulate for the whole
/// run.
pub struct RequestBuffer<'p> {
    dst: usize,
    tag: Tag,
    capacity_bytes: usize,
    pool: &'p ChunkPool,
}

impl<'p> RequestBuffer<'p> {
    /// A buffer for `dst` that ships chunks tagged `tag`.
    pub fn new(dst: usize, tag: Tag, capacity_bytes: usize, pool: &'p ChunkPool) -> Self {
        RequestBuffer {
            dst,
            tag,
            capacity_bytes,
            pool,
        }
    }

    /// Ships `keys`, a `u64` send range whose first key lands at
    /// receiver-side offset `offset`, in packed chunks: each the longest
    /// head of the rest whose frames fit.
    pub fn send_packed(&self, keys: &[u64], mut offset: usize, sender: &CommSender) {
        let mut rest = keys;
        while !rest.is_empty() {
            // A chunk outgrows the capacity only by its one-key minimum.
            let mut chunk: Vec<u8> = self
                .pool
                .acquire(self.capacity_bytes.max(PACKED_HEADER_BYTES + 8));
            let taken = pack_frames(rest, self.capacity_bytes, false, &mut chunk);
            self.ship(offset, chunk.len(), chunk, sender);
            (offset, rest) = (offset + taken, &rest[taken..]);
        }
    }

    /// Ships `values`, a send range of any type but `u64`, raw: each chunk
    /// as many whole elements as fit, in one bulk copy.
    pub fn send_raw<T: Send + Copy + 'static>(
        &self,
        values: &[T],
        mut offset: usize,
        sender: &CommSender,
    ) {
        assert!(!packs::<T>(), "a u64 range ships packed");
        let cap = capacity_elems::<T>(self.capacity_bytes);
        for part in values.chunks(cap) {
            let mut chunk: Vec<T> = self.pool.acquire(cap);
            chunk.extend_from_slice(part);
            self.ship(offset, std::mem::size_of_val(part), chunk, sender);
            offset += part.len();
        }
    }

    /// Ships `chunk`, `bytes` long, as one offset-addressed packet, and
    /// marks the flush in the run's trace (distinct from the
    /// [`ChunkSend`](EventKind::ChunkSend) the sender emits: a flush is
    /// the data-manager capacity edge, a send is the fabric edge).
    fn ship<C: Send + 'static>(
        &self,
        offset: usize,
        bytes: usize,
        chunk: Vec<C>,
        sender: &CommSender,
    ) {
        if let Some(t) = sender.trace() {
            t.instant(
                1 + self.dst as u32,
                EventKind::ChunkFlush,
                self.dst as u64,
                bytes as u64,
            );
        }
        sender.send_offset_chunk(self.dst, self.tag, offset, chunk);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommManager;
    use crate::metrics::{CommStats, SharedCommStats};
    use std::sync::Arc;

    const H: usize = PACKED_HEADER_BYTES;

    /// Machines 0 and 1 of a two-machine fabric, plus a chunk pool on the
    /// same stats.
    fn fabric2() -> (CommManager, CommManager, ChunkPool, SharedCommStats) {
        let stats = Arc::new(CommStats::new(2, Default::default()));
        let mut f = CommManager::fabric(2, stats.clone());
        let m1 = f.pop().unwrap();
        let m0 = f.pop().unwrap();
        (m0, m1, ChunkPool::new(stats.clone()), stats)
    }

    /// The keys of a packed chunk.
    fn unpack_chunk(chunk: &[u8]) -> Vec<u64> {
        let mut keys = vec![0u64; frames(chunk, "chunk").map(|f| f.len).sum()];
        assert_eq!(unpack_into(chunk, &mut keys, |k| k), keys.len());
        keys
    }

    /// The next packed chunk for `tag`: `(offset, keys, encoded bytes)`.
    fn recv_packed(m: &mut CommManager, tag: Tag) -> (usize, Vec<u64>, usize) {
        let (_, (offset, chunk)) = m.recv_value::<(usize, Vec<u8>)>(tag);
        (offset, unpack_chunk(&chunk), chunk.len())
    }

    /// Sends `keys` as one range through a buffer at `capacity` bytes and
    /// returns the chunks it shipped, decoded.
    fn packed_chunks(keys: &[u64], capacity: usize) -> Vec<(usize, Vec<u64>, usize)> {
        let (m0, mut m1, pool, stats) = fabric2();
        let tag = Tag::user(0, 7);
        RequestBuffer::new(1, tag, capacity, &pool).send_packed(keys, 0, &m0.sender());
        let chunks = stats.summary().exchange.chunks_sent as usize;
        (0..chunks).map(|_| recv_packed(&mut m1, tag)).collect()
    }

    /// The encoded length of `keys` as one frame, which a cut never exceeds.
    fn one_frame(keys: &[u64]) -> usize {
        match keys {
            [] => H,
            _ => Frame::of(keys, 0, keys.len()).bytes(),
        }
    }

    /// [`packed_chunks`], checked against the codec's contract: the chunks
    /// decode back to `keys`, their offsets tile the range, and each fits
    /// `capacity` (unless it holds one key) and is no larger than one frame
    /// over its keys.
    fn checked_chunks(keys: &[u64], capacity: usize) -> Vec<(usize, Vec<u64>, usize)> {
        let chunks = packed_chunks(keys, capacity);
        let mut at = 0;
        for (offset, part, bytes) in &chunks {
            assert_eq!(*offset, at, "capacity {capacity}: offsets tile the range");
            assert_eq!(part[..], keys[at..at + part.len()], "capacity {capacity}");
            assert!(*bytes <= capacity || part.len() == 1, "capacity {capacity}");
            assert!(*bytes <= one_frame(part), "capacity {capacity}: {part:?}");
            at += part.len();
        }
        assert_eq!(at, keys.len(), "capacity {capacity}");
        chunks
    }

    /// Packs `runs` into one message, checks that it is `bytes` long (no
    /// larger than a frame per run) and decodes back to `runs`, and
    /// returns it.
    fn runs_round_trip(runs: &[Vec<u64>], bytes: usize) -> Vec<u8> {
        let message = pack_runs(runs);
        assert_eq!(message.len(), bytes, "{runs:?}");
        assert!(bytes <= runs.iter().map(|r| one_frame(r)).sum(), "{runs:?}");
        assert_eq!(unpack_runs(&message), runs);
        message
    }

    /// The property inputs: unsorted and sorted keys of every width, runs of
    /// equal keys (some a whole number of blocks long, some not), `0` and
    /// `u64::MAX` alternating, and sorted keys across every `2^(8k)`.
    fn shapes() -> Vec<(&'static str, Vec<u64>)> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let unsorted: Vec<u64> = (0..700).map(|_| next() >> (next() % 64)).collect();
        let mut sorted = unsorted.clone();
        sorted.sort_unstable();
        let lens = [1, 7, 32, 45, 64, 100];
        let runs = (0..24u64).flat_map(|v| std::iter::repeat_n(v * 1000, lens[v as usize % 6]));
        let extremes = (0..90).map(|i| [0, u64::MAX, i][i as usize % 3]);
        let edges = (1..8).flat_map(|k| {
            let edge = 1u64 << (8 * k);
            edge - 40..edge + 40
        });
        vec![
            ("unsorted", unsorted),
            ("sorted", sorted),
            ("equal runs", runs.collect()),
            ("0 and u64::MAX", extremes.collect()),
            ("every 2^(8k)", edges.collect()),
        ]
    }

    #[test]
    fn codec_round_trips_within_capacity_and_one_frame() {
        for (what, keys) in shapes() {
            for capacity in (1..=300).chain([crate::DEFAULT_BUFFER_BYTES]) {
                let chunks = checked_chunks(&keys, capacity);
                if capacity >= H + 8 * keys.len() {
                    assert_eq!(
                        chunks.len(),
                        1,
                        "{what}: a range of capacity_elems is one chunk"
                    );
                }
            }
            // The same keys as runs across block edges, empty ones between.
            let runs: Vec<Vec<u64>> = keys
                .chunks(2 * BLOCK + 1)
                .flat_map(|piece| {
                    let (a, b) = piece.split_at(piece.len() / 3);
                    [a.to_vec(), vec![], b.to_vec()]
                })
                .collect();
            let message = pack_runs(&runs);
            assert!(
                message.len() <= runs.iter().map(|r| one_frame(r)).sum(),
                "{what}"
            );
            assert_eq!(unpack_runs(&message), runs, "{what}");
        }
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
        let cap = H + 4;
        let keys: Vec<u64> = (0..10).collect();
        RequestBuffer::new(1, tag, cap, &pool).send_packed(&keys, 100, &m0.sender());
        assert_eq!(recv_packed(&mut m1, tag), (100, vec![0, 1, 2, 3], cap));
        assert_eq!(recv_packed(&mut m1, tag), (104, vec![4, 5, 6, 7], cap));
        assert_eq!(recv_packed(&mut m1, tag), (108, vec![8, 9], H + 2));

        // Any other element type ships raw: 32 bytes are four `u64` pairs.
        let pairs: Vec<(u32, u32)> = (0..10).map(|i| (i, 7)).collect();
        RequestBuffer::new(1, tag, 32, &pool).send_raw(&pairs, 100, &m0.sender());
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
        let chunks = checked_chunks(&keys, 64);
        // 40 one-byte keys then 256: 41 keys fit neither one frame (two
        // bytes a key, 95 bytes) nor two (a second header, 66 bytes or
        // more), so the first chunk stops at 40 keys.
        assert_eq!(chunks[0].1.len(), 40);
        assert_eq!(chunks[0].2, H + 40);
    }

    #[test]
    fn a_frame_ends_where_a_header_costs_less_than_a_wider_width() {
        // Two blocks of one-byte keys, then two blocks of keys 2^16 higher:
        // the first block past the edge would widen the frame to three
        // bytes, re-encoding its 64 keys too (224 bytes), against 45 bytes
        // for a fresh frame. Keys past the edge cost their own width only.
        let low: Vec<u64> = (0..64).collect();
        let high: Vec<u64> = (0..64).map(|k| (1 << 16) + 3 * k).collect();
        let keys = [low, high].concat();
        let chunks = checked_chunks(&keys, crate::DEFAULT_BUFFER_BYTES);
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].2, 2 * H + 64 + 64);
        // A narrower block opens its own frame when the bytes it saves pay
        // the header: after 64 two-byte keys, 32 one-byte keys save 32
        // bytes against 13.
        let wide: Vec<u64> = (0..64).map(|k| k * 300).collect();
        let narrow: Vec<u64> = (0..32).map(|k| 20_000 + k).collect();
        let keys = [wide, narrow].concat();
        assert_eq!(checked_chunks(&keys, 1 << 20)[0].2, 2 * H + 128 + 32);
    }

    #[test]
    fn duplicate_runs_ship_as_bare_headers() {
        // Ten blocks of 0, then ten of 1000: two width-0 frames.
        let keys = [[0u64; 320], [1000; 320]].concat();
        let chunks = checked_chunks(&keys, crate::DEFAULT_BUFFER_BYTES);
        assert_eq!(chunks, vec![(0, keys.clone(), 2 * H)]);
        let message = runs_round_trip(&[keys.clone(), keys], 4 * H);
        assert_eq!((message[12], message[H + 12]), (0, RUN_END), "widths");
    }

    #[test]
    fn one_repeated_key_is_a_header_alone() {
        let chunks = packed_chunks(&[7; 10_000], 64);
        assert_eq!(chunks, vec![(0, vec![7; 10_000], H)]);
    }

    #[test]
    fn pooled_buffer_recycles_chunk_backing_stores() {
        let (m0, mut m1, pool, stats) = fabric2();
        let tag = Tag::user(0, 9);
        // Room for four one-byte keys: each round ships one chunk.
        let buf = RequestBuffer::new(1, tag, H + 4, &pool);
        for round in 0..3u64 {
            let keys: Vec<u64> = (0..4).map(|v| round * 4 + v).collect();
            buf.send_packed(&keys, round as usize * 4, &m0.sender());
            // Receiver consumes the chunk and returns its backing store.
            let (_, (off, chunk)) = m1.recv_value::<(usize, Vec<u8>)>(tag);
            assert_eq!(off as u64, round * 4);
            pool.release(chunk);
        }
        let ex = stats.summary().exchange;
        assert_eq!(ex.chunks_sent, 3);
        // The three shipped chunks came back; no store was acquired unused.
        assert_eq!(ex.chunks_recycled, 3);
        // The first acquisition misses; once chunks come back, sends hit
        // the pool.
        assert_eq!((ex.pool_misses, ex.pool_hits), (1, 2));
    }

    #[test]
    fn empty_flush_is_noop() {
        // An empty range ships nothing and takes no backing store.
        let (m0, _m1, pool, stats) = fabric2();
        RequestBuffer::new(1, Tag::user(0, 2), 64, &pool).send_packed(&[], 0, &m0.sender());
        RequestBuffer::new(1, Tag::user(0, 2), 64, &pool).send_raw::<u32>(&[], 0, &m0.sender());
        let ex = stats.summary().exchange;
        assert_eq!((ex.chunks_sent, ex.pool_misses, ex.pool_hits), (0, 0, 0));
        assert_eq!(pool.held_bytes(), 0);
    }

    #[test]
    fn a_run_is_one_frame_at_its_span_width() {
        runs_round_trip(&[vec![]], H);
        runs_round_trip(&[vec![42]], H);
        // All-equal keys: width 0, the header alone.
        runs_round_trip(&[vec![u64::MAX; 5]], H);
        runs_round_trip(&[vec![0, u64::MAX]], H + 2 * 8);
        for k in 1..8 {
            let edge = 1u64 << (8 * k);
            runs_round_trip(&[vec![0, edge - 1]], H + 2 * k);
            runs_round_trip(&[vec![0, edge]], H + 2 * (k + 1));
            runs_round_trip(&[vec![edge - 1, edge]], H + 2);
        }
        // Unsorted keys take the width of their true span.
        runs_round_trip(&[vec![300, 1, 44]], H + 3 * 2);
        assert_eq!(unpack_runs(&[]), Vec::<Vec<u64>>::new());
    }

    #[test]
    fn runs_sit_back_to_back_with_no_boundary_words() {
        let runs = vec![vec![7, 8, 9], vec![], vec![1 << 20, (1 << 20) + 70_000]];
        let message = runs_round_trip(&runs, (H + 3) + H + (H + 2 * 3));
        // The empty middle run is a header alone: smallest key 0, count 0,
        // width 0 with the run's end marked, right where the first frame
        // ends.
        let mut empty = [0; H];
        empty[12] = RUN_END;
        assert_eq!(message[H + 3..2 * H + 3], empty);
        assert_eq!(message[2 * H + 3 + 8], 2, "the last frame's count");
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
        let _ = unpack_runs(&pack_runs(&[vec![5]])[..H - 1]);
    }

    #[test]
    #[should_panic(expected = "runs message ends inside run 1")]
    fn a_runs_message_cut_between_frames_panics() {
        // The second run is two frames (a block of 0 then a block of
        // 2^40): a message cut after the first ends inside it.
        let second = [[0u64; 32], [1 << 40; 32]].concat();
        let message = pack_runs(&[vec![1], second]);
        let _ = unpack_runs(&message[..2 * H]);
    }

    /// A chunk of two frames, 100 keys: 64 one-byte keys, then 36 keys of
    /// 2^40 at width 0.
    fn two_frame_chunk() -> Vec<u8> {
        let keys = [(0..64).collect(), vec![1u64 << 40; 36]].concat();
        let mut chunk = Vec::new();
        assert_eq!(pack_frames(&keys, 1 << 20, false, &mut chunk), 100);
        assert_eq!(chunk.len(), 2 * H + 64);
        chunk
    }

    #[test]
    #[should_panic(expected = "chunk frame 1 truncated: 12 of its 13 header bytes")]
    fn a_chunk_whose_last_frame_is_cut_short_panics() {
        let chunk = two_frame_chunk();
        let _ = unpack_into(&chunk[..chunk.len() - 1], &mut [0u64; 100], |k| k);
    }

    #[test]
    #[should_panic(expected = "chunk frame 2 truncated: 5 of its 13 header bytes")]
    fn a_chunk_with_bytes_past_its_frames_panics() {
        let mut chunk = two_frame_chunk();
        chunk.extend([0; 5]);
        let _ = unpack_into(&chunk, &mut [0u64; 200], |k| k);
    }

    #[test]
    #[should_panic(expected = "chunk frame 1 runs past the output: 36 keys, 35 slots left")]
    fn a_chunk_past_its_output_panics() {
        let _ = unpack_into(&two_frame_chunk(), &mut [0u64; 99], |k| k);
    }

    #[test]
    fn tiny_capacity_still_makes_progress() {
        // A capacity below one header (or one element): a key per chunk,
        // and a chunk of one key spans nothing.
        let chunks = checked_chunks(&[5, 6, 6], 1);
        let one = |offset, key| (offset, vec![key], H);
        assert_eq!(chunks, vec![one(0, 5), one(1, 6), one(2, 6)]);

        let (m0, mut m1, pool, _) = fabric2();
        let tag = Tag::user(0, 3);
        RequestBuffer::new(1, tag, 1, &pool).send_raw(&[5u32, 6], 0, &m0.sender());
        let (_, (o1, d1)) = m1.recv_value::<(usize, Vec<u32>)>(tag);
        assert_eq!((o1, d1), (0, vec![5]));
        let (_, (o2, d2)) = m1.recv_value::<(usize, Vec<u32>)>(tag);
        assert_eq!((o2, d2), (1, vec![6]));
    }
}
