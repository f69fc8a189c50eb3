//! The data manager's request buffers (§III / §IV-B), and the packed frame
//! codec they share with the sorter's run messages.
//!
//! PGX.D buffers outgoing remote writes per destination and ships a buffer
//! when it reaches its maximum size (256 KiB, the empirically tuned value
//! the sampling step also keys off) or when the worker finishes its
//! scheduled tasks. [`RequestBuffer`] reproduces that for one send stream:
//! it cuts each range of the stream into chunks whose *encoded* size is at
//! most `capacity_bytes` and ships each as one packet tagged for the
//! exchange, addressed to the offset in the stream it starts at (the §IV-C
//! offset write; the receiver turns it into an output slot). A chunk always
//! takes its first element, so a capacity below one element (or one header)
//! still ships one element per chunk. An exchange stream's first chunk is
//! its opener: it carries the stream's range lengths in place of its
//! offset, which is 0, and an empty stream's opener carries the lengths
//! alone.
//!
//! Every chunk has one layout, whatever it carries: its elements split by
//! their [`Wire`] impl into two columns, `(offset, frames, rest)`, or
//! `(counts, frames, rest)` for an opener.
//! - The image column is packed frames, back to back. A frame is a
//!   `PACKED_HEADER_BYTES` header — its smallest key (8 bytes), its key
//!   count (4) and a byte width `w` (1) — then each key minus the
//!   smallest, little-endian, in the `w` bytes that the frame's
//!   `max − min` needs. A frame of one repeated key has `w = 0` and no
//!   body. Widths come from the actual minimum and maximum, so unsorted and
//!   full-range input round-trip too, and every frame decodes on its own.
//! - The rest column is the elements' [`Wire::Rest`] values, raw, one per
//!   key: nothing for a `u64` chunk, a record's payload for a record.
//!
//! A chunk is charged its frames, its rest column and its 8-byte offset;
//! an opener its frames, its rest column and 8 bytes a range length.
//!
//! Where a frame ends (`plan_frames`): the encoder walks the keys in
//! `BLOCK`-key blocks and adds each block to the open frame unless a fresh
//! frame for it is cheaper than widening the open one. A fresh frame costs
//! a header plus the block at its own width; widening costs the block, and
//! every key already in the frame, at the width of both. A run of equal
//! keys thus ships as a bare header, and keys past a byte edge pay the
//! wider width only in their own frame. Once a full block leaves the open
//! frame one key wide, the encoder sweeps every following whole block of
//! that key into it with a branch-free equality test a key and no span
//! fold: the rule's own decision for those blocks, so a run of one key
//! costs a compare a key. The encoder is handed a whole
//! range, so it writes each frame once, at its final width. The codec is
//! written for `u64` alone, not generic over the element type: it compiles
//! once, here, instead of once in every crate that sorts.
//!
//! The same two columns carry the sorter's sample and splitter runs
//! ([`CommSender::send_runs`](crate::comm::CommSender::send_runs)): a
//! message of `B` runs is each run's frames, back to back, with the top
//! bit of the width byte (`RUN_END`) set on each run's last frame, so the
//! marks cost no bytes, and then the rest column of every run in order
//! (`pack_runs` / `unpack_runs`). An empty run is a header alone. `frames`
//! is the one decoder, for chunks and runs alike.

use crate::comm::{CommSender, Tag};
use crate::trace::EventKind;
use crate::wire::Wire;
use std::mem::MaybeUninit;

/// Bytes of a frame's header: smallest key, key count, byte width.
const PACKED_HEADER_BYTES: usize = 13;

/// Keys per block the encoder prices: a block joins the open frame or
/// opens a fresh one, whole.
const BLOCK: usize = 32;

/// The width byte's bit that marks the last frame of a run in a runs
/// message.
const RUN_END: u8 = 0x80;

/// An exchange chunk as it travels: the stream offset of its first
/// element, its image column's frames, and its rest column.
pub(crate) type Chunk<R> = (usize, Vec<u8>, Vec<R>);

/// An exchange stream's opener as it travels: the stream's range lengths,
/// one a batch, then its first chunk's frames and rest column (empty when
/// the stream is).
pub(crate) type Opener<R> = (Vec<u64>, Vec<u8>, Vec<R>);

/// Bytes per key a frame spends on a span of `max − min`.
fn packed_width(span: u64) -> usize {
    (u64::BITS - span.leading_zeros()).div_ceil(8) as usize
}

/// Elements a chunk of `W` always has room for under `capacity_bytes` (at
/// least 1): a header, and eight image bytes plus the rest per element.
/// The exchange reads it too: a range no longer than this leaves its
/// stream in one chunk, whatever its keys, because the frames
/// `plan_frames` cuts are never larger than one frame over the same keys.
pub(crate) fn capacity_elems<W: Wire>(capacity_bytes: usize) -> usize {
    let per_elem = 8 + std::mem::size_of::<W::Rest>();
    (capacity_bytes.saturating_sub(PACKED_HEADER_BYTES) / per_elem).max(1)
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

/// Plans into `plan` (cleared first) the frames of the longest head of
/// `keys` that fits `capacity` bytes together with `rest_bytes` per key of
/// rest column — at least one key — and returns how many keys they hold.
/// Empty `keys` is one empty frame.
///
/// The frames are never larger than one frame over the same keys. Widening
/// a frame that holds a full block by a byte costs at least `BLOCK` bytes,
/// more than a fresh header, so every frame keeps its first block's width.
/// A fresh frame is cut only where the frame before it or the block that
/// opens it is narrower than the keys' whole span; a frame narrower than
/// that saves a byte on each of its `BLOCK` or more keys, which pays for
/// both headers it can be charged with, and a short last block that opens
/// a frame saves more than its header by the rule itself.
fn plan_frames(keys: &[u64], capacity: usize, rest_bytes: usize, plan: &mut Vec<Frame>) -> usize {
    plan.clear();
    let (mut written, mut open, mut at) = (0, None, 0);
    while at < keys.len() {
        let block = BLOCK.min(keys.len() - at);
        let fits = |head: Frame| {
            let (closed, next) = place(open, head);
            let rest = (head.start + head.len) * rest_bytes;
            written + closed.map_or(0, Frame::bytes) + next.bytes() + rest <= capacity
        };
        // The block, or at the end of a chunk the longest head of it that
        // keeps the chunk inside `capacity`, found by bisection (the cost
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
            written += frame.bytes();
            plan.push(frame);
        }
        (open, at) = (Some(next), at + head.len);
        if head.len < block {
            break;
        }
        if next.min == next.max {
            let swept = sweep_equal(keys, next, capacity.saturating_sub(written), rest_bytes);
            open = Some(Frame {
                len: next.len + swept,
                ..next
            });
            at += swept;
        }
    }
    plan.push(open.unwrap_or(Frame::EMPTY));
    at
}

/// The keys of the whole blocks right after `open`, a frame of one key
/// `v`, that equal `v` and fit `room` bytes with it, counting `rest_bytes`
/// a key, and the frame's `u32` length: what the cost rule gives such
/// blocks one by one (each joins `open` at no cost), without folding each
/// block's span. A branch-free compare a key.
// A chunk's first key is taken even past `capacity`, so `room` may not hold
// a header and `end` may fall short of `at`: then nothing is swept.
fn sweep_equal(keys: &[u64], open: Frame, room: usize, rest_bytes: usize) -> usize {
    let (at, v) = (open.start + open.len, open.min);
    let by_bytes = match rest_bytes {
        0 => keys.len(),
        r => room.saturating_sub(PACKED_HEADER_BYTES) / r,
    };
    let end = keys
        .len()
        .min(by_bytes)
        .min(at + (u32::MAX as usize - open.len));
    keys[at..end.max(at)]
        .chunks_exact(BLOCK)
        .take_while(|block| block.iter().fold(true, |ok, &k| ok & (k == v)))
        .count()
        * BLOCK
}

/// Appends the frames of `plan` over `keys` to `out`, reserving their
/// length at once; with `run_end`, the last frame carries the mark.
fn write_frames(keys: &[u64], plan: &[Frame], run_end: bool, out: &mut Vec<u8>) {
    out.reserve_exact(plan.iter().map(|frame| frame.bytes()).sum());
    for (i, &frame) in plan.iter().enumerate() {
        write_frame(keys, frame, run_end && i + 1 == plan.len(), out);
    }
}

/// Appends `frame` of `keys` to `out`, header then body.
fn write_frame(keys: &[u64], frame: Frame, run_end: bool, out: &mut Vec<u8>) {
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

/// The frames of a packed column, in order. Panics, naming the message
/// kind `what` and the frame, when the bytes end inside a frame (so a
/// column whose frames do not tile it exactly is refused) or a width is
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

/// Unpacks a chunk's image column `frames`, whose rest column holds `rest`
/// elements, into the head of `out`. Panics, naming the frame, if the
/// frames do not tile the column, their keys outnumber the rest column or
/// run past `out`, or they end short of the rest column.
pub(crate) fn unpack_column(frames: &[u8], rest: usize, out: &mut [u64]) {
    unpack_column_into(frames, rest, out, |k| k);
}

/// [`unpack_column`] into uninitialised slots: how a `u64` chunk lands in
/// the exchange's output.
pub(crate) fn unpack_column_uninit(frames: &[u8], rest: usize, out: &mut [MaybeUninit<u64>]) {
    unpack_column_into(frames, rest, out, MaybeUninit::new);
}

/// [`unpack_column`] for any slot a key can make; `pgxd` instantiates it
/// for its two callers alone, so the decoder compiles once, here.
fn unpack_column_into<S>(
    frames_bytes: &[u8],
    rest: usize,
    out: &mut [S],
    slot: impl Fn(u64) -> S + Copy,
) {
    let mut at = 0;
    for (index, frame) in frames(frames_bytes, "chunk").enumerate() {
        assert!(
            at + frame.len <= rest,
            "chunk frame {index} reaches key {} of a rest column of {rest}",
            at + frame.len
        );
        let room = out.len() - at;
        assert!(
            frame.len <= room,
            "chunk frame {index} runs past the output: {} keys, {room} slots left",
            frame.len
        );
        frame.unpack(&mut out[at..at + frame.len], slot);
        at += frame.len;
    }
    assert_eq!(
        at, rest,
        "chunk frames hold {at} keys, its rest column {rest}"
    );
}

/// `runs` as one message: each run's frames, back to back, its last one
/// marked, and the rest column of every run after them.
// One message per sample or splitter collective; the image scratch
// allocates only for elements that are not their own images.
pub(crate) fn pack_runs<W: Wire>(runs: &[Vec<W>]) -> (Vec<u8>, Vec<W::Rest>) {
    let elems: usize = runs.iter().map(Vec::len).sum();
    let mut frames = Vec::with_capacity(runs.len() * PACKED_HEADER_BYTES + elems * 8);
    let (mut rest, mut scratch, mut plan) = (Vec::with_capacity(elems), Vec::new(), Vec::new());
    for run in runs {
        let keys = W::images(run, &mut scratch);
        plan_frames(keys, usize::MAX, 0, &mut plan);
        write_frames(keys, &plan, true, &mut frames);
        rest.extend(run.iter().map(W::rest));
    }
    (frames, rest)
}

/// The runs of a [`pack_runs`] message, in order. Panics, naming the
/// frame, if the frames do not tile the message, the message ends inside a
/// run, or the rest column does not hold one element per key.
// The runs are what the message carries — one vector per run, B per
// message.
pub(crate) fn unpack_runs<W: Wire>(frames: &[u8], rest: Vec<W::Rest>) -> Vec<Vec<W>> {
    let runs = run_keys(frames, rest.len());
    let mut rest = rest.into_iter();
    let join = |keys: Vec<u64>| {
        keys.into_iter()
            .zip(rest.by_ref())
            .map(|(k, r)| W::join(k, r))
            .collect()
    };
    runs.into_iter().map(join).collect()
}

/// The key images of a runs message's frames, one vector per run, checked
/// against a rest column of `total` elements.
fn run_keys(frames_bytes: &[u8], total: usize) -> Vec<Vec<u64>> {
    let (mut runs, mut run) = (Vec::new(), Vec::new());
    let (mut ended, mut at) = (true, 0);
    for (index, frame) in frames(frames_bytes, "runs").enumerate() {
        at += frame.len;
        assert!(
            at <= total,
            "runs frame {index} reaches key {at} of a rest column of {total}"
        );
        let start = run.len();
        run.resize(start + frame.len, 0);
        frame.unpack(&mut run[start..], |k| k);
        ended = frame.run_end;
        if ended {
            runs.push(std::mem::take(&mut run));
        }
    }
    assert!(ended, "runs message ends inside run {}", runs.len());
    assert_eq!(
        at, total,
        "runs frames hold {at} keys, their rest column {total}"
    );
    runs
}

/// A destination's outgoing request buffer, which flushes at a byte
/// capacity. Each chunk it ships owns columns sized to what it carries;
/// the receiver frees them once it has decoded the chunk.
pub struct RequestBuffer {
    dst: usize,
    tag: Tag,
    capacity_bytes: usize,
    /// The image column of the elements being cut into a chunk, when they
    /// are not their own images.
    images: Vec<u64>,
    /// The frames planned for the chunk being cut.
    plan: Vec<Frame>,
    /// The opener's tag, once [`RequestBuffer::open`] made this buffer's
    /// stream an exchange stream.
    open_tag: Option<Tag>,
    /// The stream's range lengths, until its opener has shipped.
    counts: Option<Vec<u64>>,
}

impl RequestBuffer {
    /// A buffer for `dst` that ships chunks tagged `tag`.
    // One buffer per destination stream; its image scratch stays empty for
    // `u64` and is reused across the stream's chunks otherwise.
    pub fn new(dst: usize, tag: Tag, capacity_bytes: usize) -> Self {
        RequestBuffer {
            dst,
            tag,
            capacity_bytes,
            images: Vec::new(),
            plan: Vec::new(),
            open_tag: None,
            counts: None,
        }
    }

    /// Makes the stream an exchange stream: its first chunk ships as the
    /// stream's opener, tagged `tag`, carrying the range lengths `counts`
    /// instead of its offset.
    pub fn open(&mut self, tag: Tag, counts: Vec<u64>) {
        self.open_tag = Some(tag);
        self.counts = Some(counts);
    }

    /// Ships `items`, a send range whose first element is at offset
    /// `offset` of the stream, in chunks: each the longest head of the rest
    /// whose frames and rest column fit the capacity.
    pub fn send<W: Wire>(&mut self, items: &[W], mut offset: usize, sender: &CommSender) {
        let mut at = 0;
        while at < items.len() {
            let taken = self.send_chunk(&items[at..], offset, sender);
            (offset, at) = (offset + taken, at + taken);
        }
    }

    /// Ships the longest head of `items` (non-empty) whose frames and rest
    /// column fit the capacity, at least one element, as one chunk at
    /// offset `offset` of the stream — or as the stream's opener, if the
    /// stream is open and its opener has not shipped. Returns how many
    /// elements it took.
    // A chunk's two columns are the message it ships, allocated at the size
    // it carries and freed by the receiver once decoded.
    pub fn send_chunk<W: Wire>(
        &mut self,
        items: &[W],
        offset: usize,
        sender: &CommSender,
    ) -> usize {
        let rest_bytes = std::mem::size_of::<W::Rest>();
        // A chunk whose elements carry a rest holds at most this many (its
        // frames take a header at least), so their images are gathered a
        // chunk's worth at a time, while the elements are still in cache
        // for the rest column. Without a rest there is no such bound.
        let window = match rest_bytes {
            0 => usize::MAX,
            r => (self.capacity_bytes.saturating_sub(PACKED_HEADER_BYTES) / r).max(1),
        };
        let head = &items[..items.len().min(window)];
        let keys = W::images(head, &mut self.images);
        let taken = plan_frames(keys, self.capacity_bytes, rest_bytes, &mut self.plan);
        let mut frames = Vec::new();
        write_frames(keys, &self.plan, false, &mut frames);
        let rest: Vec<W::Rest> = head[..taken].iter().map(W::rest).collect();
        let bytes = frames.len() + taken * rest_bytes;
        // Flush marker: the data-manager capacity edge, distinct from the
        // `ChunkSend` the sender emits at the fabric edge.
        if let Some(t) = sender.trace() {
            t.instant(
                1 + self.dst as u32,
                EventKind::ChunkFlush,
                self.dst as u64,
                bytes as u64,
            );
        }
        match (self.open_tag, self.counts.take()) {
            (Some(tag), Some(counts)) => {
                assert_eq!(offset, 0, "a stream's first chunk is at offset 0");
                sender.send_opener(self.dst, tag, counts, frames, rest);
            }
            _ => sender.send_offset_chunk(self.dst, self.tag, offset, frames, rest),
        }
        taken
    }

    /// Ends the stream: an opener that has not shipped (the stream was
    /// empty) goes alone, and a chunk of either tag that the fault plane
    /// parked is delivered.
    // An empty stream's opener carries empty columns; `Vec::new` reserves
    // nothing.
    pub fn finish<W: Wire>(mut self, sender: &CommSender) {
        if let Some(tag) = self.open_tag {
            if let Some(counts) = self.counts.take() {
                sender.send_opener::<W::Rest>(self.dst, tag, counts, Vec::new(), Vec::new());
            }
            sender.flush_held_chunks(self.dst, tag);
        }
        sender.flush_held_chunks(self.dst, self.tag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::CommManager;
    use crate::metrics::{CommStats, SharedCommStats};
    use crate::wire::Opaque;
    use pgxd_algos::{Desc, FixedStr};
    use std::fmt::Debug;
    use std::sync::Arc;

    const H: usize = PACKED_HEADER_BYTES;

    /// Machines 0 and 1 of a two-machine fabric, and their stats.
    fn fabric2() -> (CommManager, CommManager, SharedCommStats) {
        let stats = Arc::new(CommStats::new(2, Default::default()));
        let mut f = CommManager::fabric(2, stats.clone());
        let m1 = f.pop().unwrap();
        let m0 = f.pop().unwrap();
        (m0, m1, stats)
    }

    /// A chunk's elements: its frames unpacked and joined with its rest
    /// column.
    fn decode_chunk<W: Wire>(frames: &[u8], rest: Vec<W::Rest>) -> Vec<W> {
        let mut keys = vec![0u64; rest.len()];
        unpack_column(frames, rest.len(), &mut keys);
        keys.into_iter()
            .zip(rest)
            .map(|(k, r)| W::join(k, r))
            .collect()
    }

    /// The next chunk for `tag`: `(offset, elements, frame and rest bytes)`.
    fn recv_chunk<W: Wire>(m: &mut CommManager, tag: Tag) -> (usize, Vec<W>, usize) {
        let (_, (offset, frames, rest)) = m.recv_value::<Chunk<W::Rest>>(tag);
        let bytes = frames.len() + std::mem::size_of_val(&rest[..]);
        (offset, decode_chunk(&frames, rest), bytes)
    }

    /// Sends `items` as one range through a buffer at `capacity` bytes and
    /// returns the chunks it shipped, decoded.
    fn sent_chunks<W: Wire>(items: &[W], capacity: usize) -> Vec<(usize, Vec<W>, usize)> {
        let (m0, mut m1, stats) = fabric2();
        let tag = Tag::user(0, 7);
        RequestBuffer::new(1, tag, capacity).send(items, 0, &m0.sender());
        let chunks = stats.summary().exchange.chunks_sent as usize;
        (0..chunks).map(|_| recv_chunk(&mut m1, tag)).collect()
    }

    /// The encoded length of `keys` as one frame, which a cut never exceeds.
    fn one_frame(keys: &[u64]) -> usize {
        match keys {
            [] => H,
            _ => Frame::of(keys, 0, keys.len()).bytes(),
        }
    }

    /// [`sent_chunks`], checked against the codec's contract: the chunks
    /// decode back to `items`, their offsets tile the range, and each fits
    /// `capacity` (unless it holds one element) and is no larger than one
    /// frame over its images plus its rest column.
    fn checked_chunks<W: Wire + PartialEq + Debug>(
        items: &[W],
        capacity: usize,
    ) -> Vec<(usize, Vec<W>, usize)> {
        let chunks = sent_chunks(items, capacity);
        let mut at = 0;
        for (offset, part, bytes) in &chunks {
            assert_eq!(*offset, at, "capacity {capacity}: offsets tile the range");
            assert_eq!(part[..], items[at..at + part.len()], "capacity {capacity}");
            assert!(*bytes <= capacity || part.len() == 1, "capacity {capacity}");
            let images: Vec<u64> = part.iter().map(W::image).collect();
            let rest = part.len() * std::mem::size_of::<W::Rest>();
            assert!(
                *bytes <= one_frame(&images) + rest,
                "capacity {capacity}: {part:?}"
            );
            at += part.len();
        }
        assert_eq!(at, items.len(), "capacity {capacity}");
        chunks
    }

    /// Packs `runs` into one message, checks that its frames are `bytes`
    /// long (no larger than a frame per run) and that it decodes back to
    /// `runs`, and returns the frames.
    fn runs_round_trip(runs: &[Vec<u64>], bytes: usize) -> Vec<u8> {
        let (frames, rest) = pack_runs(runs);
        assert_eq!(frames.len(), bytes, "{runs:?}");
        assert!(bytes <= runs.iter().map(|r| one_frame(r)).sum(), "{runs:?}");
        assert_eq!(unpack_runs::<u64>(&frames, rest), runs);
        frames
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

    /// The [`Wire`] contract on `items`: every element joins back from its
    /// image and rest, and the image keeps the element order.
    fn joins_back_in_order<W: Wire + Ord + Debug>(items: &[W], what: &str) {
        for x in items {
            assert_eq!(W::join(x.image(), x.rest()), *x, "{what}: join");
        }
        let mut sorted = items.to_vec();
        sorted.sort();
        for pair in sorted.windows(2) {
            assert!(pair[0].image() <= pair[1].image(), "{what}: {pair:?}");
        }
    }

    /// The codec's contract for one element type at every capacity from 1
    /// to 300 bytes and at the default buffer: chunks round-trip, fit, and
    /// a range of [`capacity_elems`] elements is one chunk; and the same
    /// elements as runs across block edges, empty ones between, round-trip
    /// in one message no larger than a frame per run plus the rest column.
    fn round_trips<W: Wire + PartialEq + Debug>(items: &[W], what: &str) {
        for capacity in (1..=300).chain([crate::DEFAULT_BUFFER_BYTES]) {
            checked_chunks(items, capacity);
            let one = capacity_elems::<W>(capacity).min(items.len());
            assert!(
                sent_chunks(&items[..one], capacity).len() <= 1,
                "{what}: a range of capacity_elems is one chunk at {capacity} B"
            );
        }
        let runs: Vec<Vec<W>> = items
            .chunks(2 * BLOCK + 1)
            .flat_map(|piece| {
                let (a, b) = piece.split_at(piece.len() / 3);
                [a.to_vec(), vec![], b.to_vec()]
            })
            .collect();
        let (frames, rest) = pack_runs(&runs);
        let images = |r: &Vec<W>| r.iter().map(W::image).collect::<Vec<u64>>();
        assert!(
            frames.len() <= runs.iter().map(|r| one_frame(&images(r))).sum(),
            "{what}"
        );
        assert_eq!(rest.len(), items.len(), "{what}");
        assert_eq!(unpack_runs::<W>(&frames, rest), runs, "{what}");
    }

    #[test]
    fn codec_round_trips_within_capacity_and_one_frame() {
        for (what, keys) in shapes() {
            round_trips(&keys, what);
            for capacity in [H + 8 * keys.len(), crate::DEFAULT_BUFFER_BYTES] {
                assert_eq!(sent_chunks(&keys, capacity).len(), 1, "{what}");
            }
        }
    }

    #[test]
    fn every_wire_impl_round_trips_in_two_columns() {
        for (what, keys) in shapes() {
            joins_back_in_order(&keys, what);
            let desc: Vec<Desc<u64>> = keys.iter().map(|&k| Desc(k)).collect();
            joins_back_in_order(&desc, what);
            // Descending order is the ascending complement.
            assert!(
                desc.iter().zip(&keys).all(|(d, &k)| d.image() == !k),
                "{what}"
            );
            round_trips(&desc, what);
            let records: Vec<(u64, [u64; 3])> = keys.iter().map(|&k| (k, [!k, k, 7])).collect();
            joins_back_in_order(&records, what);
            round_trips(&records, what);
            let nested: Vec<(Desc<u64>, u32)> = keys.iter().map(|&k| (Desc(k), k as u32)).collect();
            joins_back_in_order(&nested, what);
            round_trips(&nested, what);
            let strings: Vec<FixedStr<9>> =
                keys.iter().map(|k| FixedStr::new(&k.to_string())).collect();
            joins_back_in_order(&strings, what);
            assert!(
                strings.iter().all(|s| s.image() == 0),
                "{what}: a constant image"
            );
            round_trips(&strings, what);
            let opaque: Vec<Opaque<(u32, u64)>> =
                keys.iter().map(|&k| Opaque((k as u32, k))).collect();
            round_trips(&opaque, what);
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
        let (m0, mut m1, _) = fabric2();
        let tag = Tag::user(0, 0);
        // Keys 0..10 span one byte: a header plus four keys is 17 bytes.
        let cap = H + 4;
        let keys: Vec<u64> = (0..10).collect();
        RequestBuffer::new(1, tag, cap).send(&keys, 100, &m0.sender());
        assert_eq!(recv_chunk(&mut m1, tag), (100, vec![0, 1, 2, 3], cap));
        assert_eq!(recv_chunk(&mut m1, tag), (104, vec![4, 5, 6, 7], cap));
        assert_eq!(recv_chunk(&mut m1, tag), (108, vec![8, 9], H + 2));

        // A pair ships its key in the frames and its value raw beside them:
        // five bytes a pair, so a header and 20 bytes are four pairs.
        let pairs: Vec<(u64, u32)> = (0..10).map(|i| (i, 7)).collect();
        RequestBuffer::new(1, tag, H + 20).send(&pairs, 100, &m0.sender());
        for (offset, range, bytes) in [
            (100, 0..4, H + 20),
            (104, 4..8, H + 20),
            (108, 8..10, H + 10),
        ] {
            let chunk = recv_chunk::<(u64, u32)>(&mut m1, tag);
            assert_eq!(chunk, (offset, pairs[range].to_vec(), bytes));
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
        // With a 24-byte rest beside each key, the rest column takes its
        // share of the same 64 bytes: two one-byte keys and their rests.
        let records: Vec<(u64, [u64; 3])> = keys.iter().map(|&k| (k, [k; 3])).collect();
        let chunks = checked_chunks(&records, 64);
        assert_eq!((chunks[0].1.len(), chunks[0].2), (2, H + 2 + 2 * 24));
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
        let chunks = sent_chunks(&[7u64; 10_000], 64);
        assert_eq!(chunks, vec![(0, vec![7; 10_000], H)]);
    }

    #[test]
    fn a_chunk_reserves_what_it_carries() {
        let (m0, mut m1, stats) = fabric2();
        let tag = Tag::user(0, 9);
        let cap = crate::DEFAULT_BUFFER_BYTES;
        // Three one-byte keys under a 256 KiB buffer: the frames column
        // reserves the one frame it holds, not the buffer.
        RequestBuffer::new(1, tag, cap).send(&[1u64, 2, 3], 0, &m0.sender());
        let (_, (_, frames, rest)) = m1.recv_value::<Chunk<()>>(tag);
        assert_eq!((frames.len(), rest.len()), (H + 3, 3));
        assert_eq!(frames.capacity(), H + 3);
        // A run of equal keys: a bare header.
        RequestBuffer::new(1, tag, cap).send(&[9u64; 1000], 0, &m0.sender());
        let (_, (_, frames, _)) = m1.recv_value::<Chunk<()>>(tag);
        assert_eq!((frames.len(), frames.capacity()), (H, H));
        // Pairs: the rest column holds exactly the pairs the chunk took.
        let pairs: Vec<(u64, u32)> = (0..5).map(|i| (i, 7)).collect();
        RequestBuffer::new(1, tag, cap).send(&pairs, 0, &m0.sender());
        let (_, (_, frames, rest)) = m1.recv_value::<Chunk<((), u32)>>(tag);
        assert_eq!((frames.len(), rest.len(), rest.capacity()), (H + 5, 5, 5));
        assert_eq!(frames.capacity(), H + 5);
        // Full chunks reserve their frames too, however many.
        let keys: Vec<u64> = (0..100_000).map(|k| k * 1_000_003).collect();
        RequestBuffer::new(1, tag, cap).send(&keys, 0, &m0.sender());
        // The three sends above shipped one chunk each.
        let chunks = stats.summary().exchange.chunks_sent - 3;
        assert!(chunks > 1, "{chunks} chunks");
        for _ in 0..chunks {
            let (_, (_, frames, _)) = m1.recv_value::<Chunk<()>>(tag);
            assert_eq!(frames.capacity(), frames.len());
        }
    }

    #[test]
    fn empty_flush_is_noop() {
        // An empty range ships nothing.
        let (m0, _m1, stats) = fabric2();
        RequestBuffer::new(1, Tag::user(0, 2), 64).send::<u64>(&[], 0, &m0.sender());
        RequestBuffer::new(1, Tag::user(0, 2), 64).send::<(u64, u32)>(&[], 0, &m0.sender());
        assert_eq!(stats.summary().exchange.chunks_sent, 0);
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
        assert_eq!(unpack_runs::<u64>(&[], Vec::new()), Vec::<Vec<u64>>::new());
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
        // Pairs add their rest column after the frames, and nothing else.
        let pairs: Vec<Vec<(u64, u32)>> = runs
            .iter()
            .map(|run| run.iter().map(|&k| (k, k as u32)).collect())
            .collect();
        let (frames, rest) = pack_runs(&pairs);
        assert_eq!((frames, rest.len()), (message, 5));
    }

    #[test]
    #[should_panic(expected = "runs frame 1 truncated")]
    fn a_truncated_runs_message_panics() {
        let (frames, rest) = pack_runs(&[vec![1u64, 2, 3], vec![1000, 9]]);
        let _ = unpack_runs::<u64>(&frames[..frames.len() - 1], rest);
    }

    #[test]
    #[should_panic(expected = "runs frame 0 truncated")]
    fn a_message_shorter_than_a_header_panics() {
        let (frames, rest) = pack_runs(&[vec![5u64]]);
        let _ = unpack_runs::<u64>(&frames[..H - 1], rest);
    }

    #[test]
    #[should_panic(expected = "runs message ends inside run 1")]
    fn a_runs_message_cut_between_frames_panics() {
        // The second run is two frames (a block of 0 then a block of
        // 2^40): a message cut after the first ends inside it.
        let second = [[0u64; 32], [1 << 40; 32]].concat();
        let (frames, rest) = pack_runs(&[vec![1], second]);
        let _ = unpack_runs::<u64>(&frames[..2 * H], rest);
    }

    #[test]
    #[should_panic(expected = "runs frame 1 reaches key 3 of a rest column of 2")]
    fn a_runs_message_whose_rest_column_is_short_panics() {
        let (frames, mut rest) = pack_runs(&[vec![(1u64, 7u32)], vec![(2, 8), (3, 9)]]);
        rest.pop();
        let _ = unpack_runs::<(u64, u32)>(&frames, rest);
    }

    /// A chunk of two frames, 100 keys: 64 one-byte keys, then 36 keys of
    /// 2^40 at width 0.
    fn two_frame_chunk() -> Vec<u8> {
        let keys = [(0..64).collect(), vec![1u64 << 40; 36]].concat();
        let (mut plan, mut chunk) = (Vec::new(), Vec::new());
        assert_eq!(plan_frames(&keys, 1 << 20, 0, &mut plan), 100);
        write_frames(&keys, &plan, false, &mut chunk);
        assert_eq!(chunk.len(), 2 * H + 64);
        chunk
    }

    #[test]
    #[should_panic(expected = "chunk frame 1 truncated: 12 of its 13 header bytes")]
    fn a_chunk_whose_last_frame_is_cut_short_panics() {
        let chunk = two_frame_chunk();
        unpack_column(&chunk[..chunk.len() - 1], 100, &mut [0u64; 100]);
    }

    #[test]
    #[should_panic(expected = "chunk frame 2 truncated: 5 of its 13 header bytes")]
    fn a_chunk_with_bytes_past_its_frames_panics() {
        let mut chunk = two_frame_chunk();
        chunk.extend([0; 5]);
        unpack_column(&chunk, 100, &mut [0u64; 200]);
    }

    #[test]
    #[should_panic(expected = "chunk frame 1 runs past the output: 36 keys, 35 slots left")]
    fn a_chunk_past_its_output_panics() {
        unpack_column(&two_frame_chunk(), 100, &mut [0u64; 99]);
    }

    #[test]
    #[should_panic(expected = "chunk frame 1 reaches key 100 of a rest column of 99")]
    fn a_chunk_whose_rest_column_is_short_panics() {
        unpack_column(&two_frame_chunk(), 99, &mut [0u64; 100]);
    }

    /// The planner without its equal-run sweep: every block priced by the
    /// cost rule alone, the oracle the sweep must match frame for frame.
    fn plan_by_block(keys: &[u64], capacity: usize, rest_bytes: usize) -> (Vec<Frame>, usize) {
        let (mut plan, mut written, mut open, mut at) = (Vec::new(), 0, None, 0);
        while at < keys.len() {
            let block = BLOCK.min(keys.len() - at);
            let fits = |head: Frame| {
                let (closed, next) = place(open, head);
                let rest = (head.start + head.len) * rest_bytes;
                written + closed.map_or(0, Frame::bytes) + next.bytes() + rest <= capacity
            };
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
                written += frame.bytes();
                plan.push(frame);
            }
            (open, at) = (Some(next), at + head.len);
            if head.len < block {
                break;
            }
        }
        plan.push(open.unwrap_or(Frame::EMPTY));
        (plan, at)
    }

    #[test]
    fn sweeping_runs_of_one_key_plans_the_frames_the_blocks_do() {
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // Runs of one key, whole blocks and not, between distinct keys.
        let mut mixed: Vec<u64> = (0..50).map(|i| i * 3).collect();
        for (v, len) in [(200, 5000), (201, 64), (202, 33), (203, 1), (500, 1000)] {
            mixed.extend(std::iter::repeat_n(v, len));
            mixed.extend((0..37).map(|i| 1000 + v * 50 + i));
        }
        mixed.extend(std::iter::repeat_n(u64::MAX, 700));
        // The same, shuffled by pieces: runs of one key above and below
        // their neighbours, and unsorted keys of every width between.
        let mut unsorted: Vec<u64> = Vec::new();
        for piece in mixed.chunks(97).rev() {
            unsorted.extend(piece);
            unsorted.extend((0..20).map(|_| next() >> (next() % 64)));
        }
        let equal = vec![7u64; 3 * 4096 + 5];
        for (what, keys) in [("mixed", mixed), ("unsorted", unsorted), ("equal", equal)] {
            for rest_bytes in [0, 24, 32] {
                let one_key = H + 8 + rest_bytes;
                let capacities = [1, one_key, one_key + 1, 2 * one_key, 300, 4096, 1 << 18];
                for capacity in capacities {
                    let mut plan = Vec::new();
                    let mut at = 0;
                    while at < keys.len() {
                        let taken = plan_frames(&keys[at..], capacity, rest_bytes, &mut plan);
                        let (expect, expect_taken) =
                            plan_by_block(&keys[at..], capacity, rest_bytes);
                        let frames = |plan: &[Frame]| -> Vec<(usize, usize, u64, u64)> {
                            plan.iter()
                                .map(|f| (f.start, f.len, f.min, f.max))
                                .collect()
                        };
                        let case = format!("{what}, {capacity} B, rest {rest_bytes} B, key {at}");
                        assert_eq!(taken, expect_taken, "{case}");
                        assert_eq!(frames(&plan), frames(&expect), "{case}");
                        at += taken;
                    }
                }
            }
        }
    }

    #[test]
    fn tiny_capacity_still_makes_progress() {
        // A capacity below one header (or one element): a key per chunk,
        // and a chunk of one key spans nothing.
        let chunks = checked_chunks(&[5u64, 6, 6], 1);
        let one = |offset, key| (offset, vec![key], H);
        assert_eq!(chunks, vec![one(0, 5), one(1, 6), one(2, 6)]);

        // The same for an element with a rest column: one pair a chunk.
        let pairs = [(5u64, 1u32), (6, 2)];
        let chunks = checked_chunks(&pairs, 1);
        assert_eq!(
            chunks,
            vec![(0, vec![pairs[0]], H + 4), (1, vec![pairs[1]], H + 4)]
        );
    }
}
