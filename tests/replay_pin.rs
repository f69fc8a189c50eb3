//! Steps 2–4 replayed outside the sorter, through the public functions the
//! benchmark's stage replay calls (`benchmark/src/layers.rs`), must predict
//! the sorter's own partition. The benchmark refuses a tree where the two
//! diverge (`replay_diverged`); this fails `cargo test` first.
//!
//! The replayed ranges also predict, exactly, every byte and message the
//! sort puts on the wire: the sample gather, the splitter broadcast, the
//! exchange's count rows, and each exchange chunk in its wire format —
//! packed frame-of-reference for `u64` keys, raw for everything else.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::DEFAULT_BUFFER_BYTES;
use pgxd_core::investigator::splitter_offsets;
use pgxd_core::sampling::{select_regular_samples, select_splitters};
use pgxd_core::{DistSorter, SortConfig};
use pgxd_datagen::{generate_partitioned, Distribution};

const KEY_BYTES: usize = std::mem::size_of::<u64>();

/// The receiver-side offset every exchange chunk travels behind.
const OFFSET_BYTES: usize = 8;

/// A packed chunk's header: smallest key (8), key count (4), byte width (1).
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
/// each: per-machine output sizes, the samples each machine ships, and
/// each machine's `p + 1` send offsets.
struct Replayed {
    sizes: Vec<usize>,
    samples: Vec<usize>,
    offsets: Vec<Vec<usize>>,
}

fn replay<K: Ord + Copy + Send + Sync + 'static>(sorted: &[Vec<K>], budget: usize) -> Replayed {
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
        samples: samples.iter().map(Vec::len).collect(),
        offsets,
    }
}

/// Bytes per key of a packed chunk whose keys span `max − min`.
fn width(span: u64) -> usize {
    (64 - span.leading_zeros() as usize).div_ceil(8)
}

/// `(wire bytes, chunks)` of one send range of `u64` keys: each packed
/// chunk is the longest run whose header and body fit the buffer (a chunk
/// always takes its first key).
fn packed_range(keys: &[u64], buffer: usize) -> (usize, usize) {
    let (mut bytes, mut chunks, mut rest) = (0, 0, keys);
    while !rest.is_empty() {
        let (mut lo, mut hi, mut n) = (rest[0], rest[0], 1);
        while n < rest.len() {
            let (l, h) = (lo.min(rest[n]), hi.max(rest[n]));
            if PACKED_HEADER_BYTES + (n + 1) * width(h - l) > buffer {
                break;
            }
            (lo, hi, n) = (l, h, n + 1);
        }
        bytes += OFFSET_BYTES + PACKED_HEADER_BYTES + n * width(hi - lo);
        chunks += 1;
        rest = &rest[n..];
    }
    (bytes, chunks)
}

/// `(wire bytes, chunks)` of one send range of raw elements: as many as
/// fit the buffer per chunk, at their own width.
fn raw_range<K>(keys: &[K], buffer: usize) -> (usize, usize) {
    let chunks = keys
        .len()
        .div_ceil((buffer / std::mem::size_of::<K>()).max(1));
    (chunks * OFFSET_BYTES + std::mem::size_of_val(keys), chunks)
}

/// Sorts `shards` with `DistSorter::sort` and checks its partition, and its
/// wire bytes and messages, against the replay; `range` prices one send
/// range in the element type's chunk format.
fn assert_replayed<K>(shards: &[Vec<K>], range: fn(&[K], usize) -> (usize, usize), what: &str)
where
    K: Ord + Copy + Send + Sync + 'static,
{
    let p = shards.len();
    let key_bytes = std::mem::size_of::<K>();
    let budget = SortConfig::default().samples_per_machine(DEFAULT_BUFFER_BYTES, p, key_bytes);
    let report = Cluster::new(ClusterConfig::new(p)).run(|ctx| {
        DistSorter::default()
            .sort(ctx, shards[ctx.id()].clone())
            .len()
    });
    let sorted = sorted_shards(shards);
    let replayed = replay(&sorted, budget);
    assert_eq!(replayed.sizes, report.results, "{what}: partition");

    // Samples to the master, p − 1 splitters to everyone else, and a row of
    // p counts from every machine to every other one.
    let p_ = p as u64;
    let mut bytes = (replayed.samples[1..].iter().sum::<usize>() * key_bytes) as u64
        + (p_ - 1) * (p_ - 1) * key_bytes as u64
        + p_ * (p_ - 1) * p_ * 8;
    let mut messages = 2 * (p_ - 1) + p_ * (p_ - 1);
    for (src, data) in sorted.iter().enumerate() {
        for dst in (0..p).filter(|&dst| dst != src) {
            let cut = &replayed.offsets[src];
            let (b, chunks) = range(&data[cut[dst]..cut[dst + 1]], DEFAULT_BUFFER_BYTES);
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
        assert_replayed(&shards, packed_range, &what);
    }
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
    assert_replayed(&shards, raw_range, "records");
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
        samples += replayed.samples.iter().sum::<usize>();
    }
    let sample_bytes = samples * KEY_BYTES;
    assert!(
        0 < sample_bytes && sample_bytes <= buffer_bytes,
        "B = {batches}: {sample_bytes} B of samples against a {buffer_bytes} B buffer"
    );
}
