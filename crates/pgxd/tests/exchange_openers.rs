//! The exchange's stream openers. Every send stream (one source's ranges
//! for one destination, batch after batch) opens with one message: its `B`
//! range lengths, 8 bytes each, and its first chunk, whose offset they
//! replace. An empty stream's opener is the lengths alone. A receiver lays
//! its output out from its `p − 1` openers, so the exchange has no count
//! round: these tests pin its bytes and messages, and refuse openers and
//! chunks that break the layout, naming their source. `tests/chaos.rs`
//! ends every failure around the openers in a structured error within a
//! hard bound.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::comm::{kinds, Tag};
use pgxd::RunErrorKind;

/// A frame header: smallest key (8), key count (4), byte width (1).
const HEADER: u64 = 13;

/// One range length in an opener, and one stream offset on a later chunk.
const WORD: u64 = 8;

#[test]
fn an_exchange_of_empty_ranges_is_one_opener_a_stream() {
    for p in [2usize, 5, 16] {
        for batches in [1usize, 3] {
            let report = Cluster::new(ClusterConfig::new(p).workers_per_machine(1))
                .run(|ctx| ctx.exchange::<u64>(&[], &vec![0; batches * p + 1]));
            for (out, bounds) in &report.results {
                assert!(out.is_empty());
                assert_eq!(bounds, &vec![0; batches * p + 1]);
            }
            let (streams, b) = ((p * (p - 1)) as u64, batches as u64);
            let what = format!("p = {p}, B = {batches}");
            assert_eq!(report.comm.bytes_sent, streams * WORD * b, "{what}");
            assert_eq!(report.comm.messages_sent, streams, "{what}");
            assert_eq!(report.comm.exchange.chunks_sent, streams, "{what}");
        }
    }
}

/// Machine `src`'s range `i` (destination `i % 3`, batch `i / 3`) in the
/// mixed shape: its length, and its one key, repeated, so each non-empty
/// range is a single width-0 frame, a bare header.
fn mixed_len(src: usize, i: usize) -> usize {
    [[5, 0, 0, 0, 0, 7], [0, 3, 0, 2, 0, 0], [1, 0, 4, 6, 0, 0]][src][i]
}

fn mixed_key(src: usize, i: usize) -> u64 {
    (src as u64) << 8 | i as u64
}

#[test]
fn a_mixed_shape_with_empty_streams_is_pinned() {
    // Three machines, two batches. Streams (source → destination):
    // 0 → 1 and 1 → 2 and 2 → 1 are empty: an opener of two lengths,
    // 16 B. 0 → 2 and 1 → 0 carry one range: the opener, 16 B and a
    // header. 2 → 0 carries both: the opener with the first range's
    // header, then a chunk of a header behind its 8-byte offset.
    let (p, batches) = (3usize, 2usize);
    let report = Cluster::new(ClusterConfig::new(p)).run(|ctx| {
        let src = ctx.id();
        let mut data = Vec::new();
        let mut offsets = vec![0];
        for i in 0..batches * p {
            data.extend(std::iter::repeat_n(mixed_key(src, i), mixed_len(src, i)));
            offsets.push(data.len());
        }
        ctx.exchange(&data, &offsets)
    });
    for (dst, (out, bounds)) in report.results.iter().enumerate() {
        let mut expect = Vec::new();
        let mut expect_bounds = vec![0];
        for b in 0..batches {
            for src in 0..p {
                let i = b * p + dst;
                expect.extend(std::iter::repeat_n(mixed_key(src, i), mixed_len(src, i)));
                expect_bounds.push(expect.len());
            }
        }
        assert_eq!(out, &expect, "machine {dst}");
        assert_eq!(bounds, &expect_bounds, "machine {dst}");
    }
    let opener = 2 * WORD;
    let bytes = 3 * opener + 2 * (opener + HEADER) + (opener + HEADER + WORD + HEADER);
    assert_eq!(bytes, 156);
    assert_eq!(report.comm.bytes_sent, bytes);
    assert_eq!(report.comm.messages_sent, 7);
}

#[test]
fn an_opener_whose_count_list_is_not_b_long_is_refused_naming_its_source() {
    // Machine 1 exchanges two batches, machine 0 one: each gets an opener
    // of the other's length, and whichever refuses first is the failure.
    let err = Cluster::new(ClusterConfig::new(2))
        .try_run(|ctx| {
            let batches = 1 + ctx.id();
            ctx.exchange::<u64>(&[], &vec![0; batches * 2 + 1])
        })
        .map(|_| ())
        .expect_err("the batch counts disagree");
    assert_eq!(err.kind, RunErrorKind::MachinePanic, "{}", err.message);
    let expected = match err.machine {
        Some(0) => "opener from machine 1 carries 2 range lengths, not B = 1",
        Some(1) => "opener from machine 0 carries 1 range lengths, not B = 2",
        other => panic!("failure on {other:?}: {}", err.message),
    };
    assert!(err.message.contains(expected), "{}", err.message);
}

#[test]
fn a_chunk_past_its_openers_counts_is_refused_naming_its_source() {
    // Machine 1's stream to machine 0 is three keys, a chunk each at one
    // byte a buffer. It first slips machine 0 a chunk of two keys at
    // offset 2 of that stream, where one is left.
    let err = Cluster::new(ClusterConfig::new(2).buffer_bytes(1))
        .try_run(|ctx| {
            if ctx.id() == 1 {
                let tag = Tag {
                    kind: kinds::EXCHANGE_DATA,
                    seq: 0,
                };
                let mut frame = vec![0u8; HEADER as usize];
                frame[8] = 2;
                ctx.comm_mut()
                    .sender()
                    .send_offset_chunk(0, tag, 2, frame, vec![(); 2]);
            }
            ctx.exchange(&[1u64, 2, 3, 4, 5, 6], &[0, 3, 6])
        })
        .expect_err("machine 0 must refuse the chunk");
    assert_eq!(err.kind, RunErrorKind::MachinePanic, "{}", err.message);
    assert_eq!(err.machine, Some(0), "{}", err.message);
    let expected = "chunk from machine 1 at stream offset 2 overruns its opener's counts: \
                    2 keys, 1 left in its run";
    assert!(err.message.contains(expected), "{}", err.message);
}
