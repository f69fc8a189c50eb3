//! Steps 2–4 replayed outside the sorter, through the public functions the
//! benchmark's stage replay calls (`benchmark/src/layers.rs`), must predict
//! the sorter's own partition. The benchmark refuses a tree where the two
//! diverge (`replay_diverged`); this fails `cargo test` first.
//!
//! The replayed samples, splitters and ranges also predict, exactly, every
//! byte and message the sort puts on the wire: the sample gather, the
//! splitter broadcast, the exchange's count rows, and each exchange chunk,
//! each in its wire format — packed frame-of-reference frames for `u64`
//! keys, raw for everything else.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::DEFAULT_BUFFER_BYTES;
use pgxd_core::investigator::splitter_offsets;
use pgxd_core::sampling::{select_regular_samples, select_splitters};
use pgxd_core::{DistSorter, SortConfig};
use pgxd_datagen::{generate_partitioned, Distribution};

const KEY_BYTES: usize = std::mem::size_of::<u64>();

/// The receiver-side offset every exchange chunk travels behind.
const OFFSET_BYTES: usize = 8;

/// A packed frame's header: smallest key (8), key count (4), byte width (1).
const PACKED_HEADER_BYTES: usize = 13;

/// Each machine's shard, sorted (what step 1 hands step 2).
fn sorted_shards<K: Ord + Clone>(shards: &[Vec<K>]) -> Vec<Vec<K>> {
    shards
        .iter()
        .map(|keys| {
            let mut data = keys.clone();
            data.sort_unstable();
            data
        })
        .collect()
}

/// What the replay derives from sorted shards sampled at `budget` keys
/// each: per-machine output sizes, the samples each machine ships, the
/// splitters the master broadcasts, and each machine's `p + 1` send
/// offsets.
struct Replayed<K> {
    sizes: Vec<usize>,
    samples: Vec<Vec<K>>,
    splitters: Vec<K>,
    offsets: Vec<Vec<usize>>,
}

fn replay<K: Ord + Copy + Send + Sync + 'static>(sorted: &[Vec<K>], budget: usize) -> Replayed<K> {
    let p = sorted.len();
    let samples: Vec<Vec<K>> = sorted
        .iter()
        .map(|data| select_regular_samples(data, budget))
        .collect();
    let splitters = select_splitters(&samples, p);
    assert_eq!(splitters.len(), p - 1);
    let offsets: Vec<Vec<usize>> = sorted
        .iter()
        .map(|data| splitter_offsets(data, &splitters, true))
        .collect();
    let sizes = (0..p)
        .map(|dst| offsets.iter().map(|o| o[dst + 1] - o[dst]).sum())
        .collect();
    Replayed {
        sizes,
        samples,
        splitters,
        offsets,
    }
}

/// Bytes per key of a packed frame whose keys span `max − min`.
fn width(span: u64) -> usize {
    (64 - span.leading_zeros() as usize).div_ceil(8)
}

/// A packed frame: smallest key, largest key, key count.
type Frame = (u64, u64, usize);

fn frame_bytes((lo, hi, n): Frame) -> usize {
    PACKED_HEADER_BYTES + n * width(hi - lo)
}

/// The frames the encoder cuts `keys` into: 32-key blocks from the first
/// key, each joining the frame before it unless a frame of its own (a
/// header plus the block at its own width) costs less than widening that
/// frame to cover the block.
fn frames(keys: &[u64]) -> Vec<Frame> {
    let mut frames: Vec<Frame> = Vec::new();
    for block in keys.chunks(32) {
        let own = (
            *block.iter().min().unwrap(),
            *block.iter().max().unwrap(),
            block.len(),
        );
        match frames.last_mut() {
            Some(last) => {
                let joined = (last.0.min(own.0), last.1.max(own.1), last.2 + own.2);
                if frame_bytes(joined) - frame_bytes(*last) <= frame_bytes(own) {
                    *last = joined;
                } else {
                    frames.push(own);
                }
            }
            None => frames.push(own),
        }
    }
    frames
}

/// Encoded bytes of `keys`: its frames, or a header alone when it is empty.
fn encoded(keys: &[u64]) -> usize {
    frames(keys)
        .into_iter()
        .map(frame_bytes)
        .sum::<usize>()
        .max(PACKED_HEADER_BYTES)
}

/// Wire bytes of a sample or splitter run of `u64` keys: its frames. The
/// mark on a run's last frame is a bit of its width byte.
fn packed_run(keys: &[u64]) -> usize {
    encoded(keys)
}

/// `(wire bytes, chunks)` of one send range of `u64` keys: each chunk is
/// the longest head of what is left whose frames fit the buffer (a chunk
/// always takes its first key). A longer head never encodes shorter, so
/// the head is found by bisection.
fn packed_range(keys: &[u64], buffer: usize) -> (usize, usize) {
    let (mut bytes, mut chunks, mut rest) = (0, 0, keys);
    while !rest.is_empty() {
        // `lo` keys fit (or are the one a chunk always takes), `hi` do not.
        let (mut lo, mut hi) = (1, rest.len() + 1);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if encoded(&rest[..mid]) <= buffer {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        bytes += OFFSET_BYTES + encoded(&rest[..lo]);
        chunks += 1;
        rest = &rest[lo..];
    }
    (bytes, chunks)
}

/// Wire bytes of a run of raw elements: the elements themselves.
fn raw_run<K>(keys: &[K]) -> usize {
    std::mem::size_of_val(keys)
}

/// `(wire bytes, chunks)` of one send range of raw elements: as many as
/// fit the buffer per chunk, at their own width.
fn raw_range<K>(keys: &[K], buffer: usize) -> (usize, usize) {
    let chunks = keys
        .len()
        .div_ceil((buffer / std::mem::size_of::<K>()).max(1));
    (chunks * OFFSET_BYTES + std::mem::size_of_val(keys), chunks)
}

/// How an element type travels: `run` prices a sample or splitter run,
/// `range` one send range of the exchange.
struct Wire<K> {
    run: fn(&[K]) -> usize,
    range: fn(&[K], usize) -> (usize, usize),
}

/// `u64` keys: packed frames for runs and chunks alike.
const PACKED: Wire<u64> = Wire {
    run: packed_run,
    range: packed_range,
};

/// Every other element type: raw.
fn raw<K>() -> Wire<K> {
    Wire {
        run: raw_run::<K>,
        range: raw_range::<K>,
    }
}

/// Sorts `shards` with `DistSorter::sort` and checks its output, its
/// partition, and its wire bytes and messages against the replay; `wire`
/// prices each message in the element type's format.
fn assert_replayed<K>(shards: &[Vec<K>], wire: Wire<K>, what: &str)
where
    K: Ord + Copy + Send + Sync + std::fmt::Debug + 'static,
{
    let p = shards.len();
    let key_bytes = std::mem::size_of::<K>();
    let budget = SortConfig::default().samples_per_machine(DEFAULT_BUFFER_BYTES, p, key_bytes);
    let report = Cluster::new(ClusterConfig::new(p)).run(|ctx| {
        DistSorter::default()
            .sort(ctx, shards[ctx.id()].clone())
            .data
    });
    let mut expect = shards.concat();
    expect.sort_unstable();
    assert!(report.results.concat() == expect, "{what}: output");
    let sorted = sorted_shards(shards);
    let replayed = replay(&sorted, budget);
    let sizes: Vec<usize> = report.results.iter().map(Vec::len).collect();
    assert_eq!(replayed.sizes, sizes, "{what}: partition");

    // Samples to the master, p − 1 splitters to everyone else, and a row of
    // p counts from every machine to every other one.
    let p_ = p as u64;
    let samples: usize = replayed.samples[1..].iter().map(|s| (wire.run)(s)).sum();
    let mut bytes =
        samples as u64 + (p_ - 1) * (wire.run)(&replayed.splitters) as u64 + p_ * (p_ - 1) * p_ * 8;
    let mut messages = 2 * (p_ - 1) + p_ * (p_ - 1);
    for (src, data) in sorted.iter().enumerate() {
        for dst in (0..p).filter(|&dst| dst != src) {
            let cut = &replayed.offsets[src];
            let (b, chunks) = (wire.range)(&data[cut[dst]..cut[dst + 1]], DEFAULT_BUFFER_BYTES);
            bytes += b as u64;
            messages += chunks as u64;
        }
    }
    assert_eq!(report.comm.bytes_sent, bytes, "{what}: wire bytes");
    assert_eq!(report.comm.messages_sent, messages, "{what}: messages");
}

#[test]
fn replayed_partition_is_the_sorters() {
    // The floor binds on the first two shapes and not on the third.
    for (machines, shard, dist) in [
        (4usize, 16_384usize, Distribution::Uniform),
        (8, 4096, Distribution::Exponential),
        (4, 262_144, Distribution::Uniform),
    ] {
        let shards = generate_partitioned(dist, machines * shard, machines, 20170529);
        let what = format!("{machines} x {shard} {}", dist.name());
        assert_replayed(&shards, PACKED, &what);
    }

    // Duplicate runs, the shape of the benchmark's `expdup_4m`: 8 machines,
    // about 39 % of the keys 0 and the rest multiples of 1000, so runs of
    // one key ship as bare width-0 frames.
    let (machines, shard) = (8, 32_768);
    let shards = generate_partitioned(
        Distribution::Exponential,
        machines * shard,
        machines,
        20170529,
    );
    let sorted = sorted_shards(&shards);
    let budget =
        SortConfig::default().samples_per_machine(DEFAULT_BUFFER_BYTES, machines, KEY_BYTES);
    let replayed = replay(&sorted, budget);
    let bare = (0..machines)
        .flat_map(|src| {
            (0..machines)
                .filter(move |&dst| dst != src)
                .map(move |dst| (src, dst))
        })
        .flat_map(|(src, dst)| {
            frames(&sorted[src][replayed.offsets[src][dst]..replayed.offsets[src][dst + 1]])
        })
        .filter(|&(lo, hi, _)| lo == hi)
        .count();
    assert!(bare > machines, "{bare} width-0 frames");
    assert_replayed(&shards, PACKED, "8 x 32768 exponential, duplicate runs");

    // The packed format's edge cases, end to end: every shard holds `0` and
    // `u64::MAX` and keys on both sides of every `2^(8k)`, so each sample
    // run is eight bytes wide and some send range straddles every edge.
    let shards = every_width_shards(4, 60);
    let sorted = sorted_shards(&shards);
    let budget = SortConfig::default().samples_per_machine(DEFAULT_BUFFER_BYTES, 4, KEY_BYTES);
    let replayed = replay(&sorted, budget);
    assert!(replayed
        .samples
        .iter()
        .all(|s| width(s[s.len() - 1] - s[0]) == 8));
    let ranges: Vec<&[u64]> = (0..4)
        .flat_map(|src| {
            let (data, cut) = (&sorted[src], &replayed.offsets[src]);
            let remote = (0..4).filter(move |&dst| dst != src);
            remote.map(move |dst| &data[cut[dst]..cut[dst + 1]])
        })
        .collect();
    for k in 1..8 {
        let edge = 1u64 << (8 * k);
        let straddles = |r: &&[u64]| r.first() < Some(&edge) && r.last() >= Some(&edge);
        assert!(
            ranges.iter().any(straddles),
            "no range straddles 2^{}",
            8 * k
        );
    }
    assert_replayed(&shards, PACKED, "0 and u64::MAX with every 2^(8k)");
}

/// `machines` shards of `2 + 16 · per_edge` keys each: `0` and `u64::MAX`,
/// `per_edge` keys just above the one and just below the other, and
/// `per_edge` keys on each side of every `2^(8k)` for `k` in 1..8. Every
/// shard takes its own keys; `per_edge · machines` stays below 256.
fn every_width_shards(machines: u64, per_edge: u64) -> Vec<Vec<u64>> {
    (0..machines)
        .map(|m| {
            let mut shard = vec![u64::MAX, 0];
            for j in 0..per_edge {
                let d = j * machines + m;
                shard.extend([d + 1, u64::MAX - 1 - d]);
                for k in 1..8 {
                    let edge = 1u64 << (8 * k);
                    shard.extend([edge + d, edge - 1 - d]);
                }
            }
            shard
        })
        .collect()
}

#[test]
fn records_travel_raw_at_their_width() {
    // 32-byte records, the benchmark's `records_1m` element: every chunk
    // carries as many whole records as fit the buffer.
    let machines = 4;
    let keys = generate_partitioned(Distribution::Uniform, machines * 16_384, machines, 20170529);
    let shards: Vec<Vec<(u64, [u64; 3])>> = keys
        .iter()
        .map(|shard| shard.iter().map(|&k| (k, [k, !k, 7])).collect())
        .collect();
    assert_replayed(&shards, raw(), "records");
}

/// `B` batches share the one read buffer the master receives: each batch
/// is budgeted as if the cluster had `p · B` machines, which predicts
/// `sort_batch`'s per-batch partition, and all the samples of all the
/// batches fit one buffer. The shards are large enough that the budget,
/// not the one-in-eight floor, decides the sample.
#[test]
fn sample_budget_is_one_read_buffer_for_any_batch_count() {
    let (machines, batches, shard) = (4usize, 4usize, 8192usize);
    let buffer_bytes = 16 * 1024;
    let inputs: Vec<Vec<Vec<u64>>> = (0..batches)
        .map(|b| {
            generate_partitioned(
                Distribution::Uniform,
                machines * shard,
                machines,
                90 + b as u64,
            )
        })
        .collect();
    let budget =
        SortConfig::default().samples_per_machine(buffer_bytes, machines * batches, KEY_BYTES);
    let cluster = Cluster::new(ClusterConfig::new(machines).buffer_bytes(buffer_bytes));
    let sizes = cluster
        .run(|ctx| {
            let locals = inputs.iter().map(|b| b[ctx.id()].clone()).collect();
            let parts = DistSorter::default().sort_batch(ctx, locals);
            parts.iter().map(|part| part.len()).collect::<Vec<_>>()
        })
        .results;
    let mut samples = 0;
    for (b, shards) in inputs.iter().enumerate() {
        let replayed = replay(&sorted_shards(shards), budget);
        let got: Vec<usize> = sizes.iter().map(|per_batch| per_batch[b]).collect();
        assert_eq!(replayed.sizes, got, "batch {b} of {batches}");
        samples += replayed.samples.iter().map(Vec::len).sum::<usize>();
    }
    let sample_bytes = samples * KEY_BYTES;
    assert!(
        0 < sample_bytes && sample_bytes <= buffer_bytes,
        "B = {batches}: {sample_bytes} B of samples against a {buffer_bytes} B buffer"
    );
}
