//! Steps 2–4 replayed outside the sorter, through the public functions the
//! benchmark's stage replay calls (`benchmark/src/layers.rs`), must predict
//! the sorter's own partition. The benchmark refuses a tree where the two
//! diverge (`replay_diverged`); this fails `cargo test` first.
//!
//! The replayed samples, splitters and ranges also predict, exactly, every
//! byte and message the sort puts on the wire: the sample gather, the
//! splitter broadcast, and each exchange stream — its opener (the stream's
//! range lengths and its first chunk) and every later chunk — each in its
//! one wire format: the elements' `u64` images in packed frame-of-reference
//! frames, then whatever else they hold, raw.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::{MachineCtx, DEFAULT_BUFFER_BYTES};
use pgxd_core::investigator::splitter_offsets;
use pgxd_core::sampling::{select_regular_samples, select_splitters};
use pgxd_core::{DistSorter, Keyed, SortConfig};
use pgxd_datagen::{generate_partitioned, Distribution};

const KEY_BYTES: usize = std::mem::size_of::<u64>();

/// The stream offset every exchange chunk but a stream's first travels
/// behind.
const OFFSET_BYTES: usize = 8;

/// One range length in a stream's opener, which carries one a batch in
/// place of its first chunk's offset.
const COUNT_BYTES: usize = 8;

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

/// How an element type travels: the `u64` image its key packs as, and the
/// bytes of everything else it holds, which ship raw beside the frames.
struct Columns<K> {
    image: fn(&K) -> u64,
    rest: usize,
}

/// Bare `u64` keys: the key is the image, and nothing rides beside it.
const KEYS: Columns<u64> = Columns {
    image: |&k| k,
    rest: 0,
};

impl<K> Columns<K> {
    fn images(&self, items: &[K]) -> Vec<u64> {
        items.iter().map(self.image).collect()
    }

    /// Wire bytes of a sample or splitter run: its frames, then its rest
    /// column. The mark on a run's last frame is a bit of its width byte.
    fn run(&self, items: &[K]) -> usize {
        encoded(&self.images(items)) + items.len() * self.rest
    }

    /// `(wire bytes, chunks)` of one send range: each chunk is the longest
    /// head of what is left whose frames and rest column fit the buffer (a
    /// chunk always takes its first element). A longer head never encodes
    /// shorter, so the head is found by bisection.
    fn range(&self, items: &[K], buffer: usize) -> (usize, usize) {
        let keys = self.images(items);
        let (mut bytes, mut chunks, mut at) = (0, 0, 0);
        while at < keys.len() {
            // `lo` elements fit (or are the one a chunk always takes), `hi`
            // do not.
            let (mut lo, mut hi) = (1, keys.len() - at + 1);
            let fits = |n: usize| encoded(&keys[at..at + n]) + n * self.rest <= buffer;
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if fits(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            bytes += OFFSET_BYTES + encoded(&keys[at..at + lo]) + lo * self.rest;
            chunks += 1;
            at += lo;
        }
        (bytes, chunks)
    }

    /// `(wire bytes, messages)` of one exchange stream, its ranges one a
    /// batch: every range in chunks, the first chunk the stream's opener,
    /// whose range lengths replace its offset. An empty stream is its
    /// opener's range lengths alone.
    fn stream(&self, ranges: &[&[K]], buffer: usize) -> (usize, usize) {
        let (mut bytes, mut chunks) = (COUNT_BYTES * ranges.len(), 0);
        for range in ranges {
            let (b, c) = self.range(range, buffer);
            (bytes, chunks) = (bytes + b, chunks + c);
        }
        match chunks {
            0 => (bytes, 1),
            _ => (bytes - OFFSET_BYTES, chunks),
        }
    }
}

/// One machine's part of a sort: its shard of each batch in, its slice of
/// each batch's output out.
type Sort<K> = fn(&DistSorter, &mut MachineCtx, Vec<Vec<K>>) -> Vec<Vec<K>>;

/// `DistSorter::sort`, on a batch of one.
fn plain<K: pgxd_algos::Key + pgxd::Wire>(
    sorter: &DistSorter,
    ctx: &mut MachineCtx,
    mut shards: Vec<Vec<K>>,
) -> Vec<Vec<K>> {
    assert_eq!(shards.len(), 1, "a plain sort is one batch");
    vec![sorter.sort(ctx, shards.pop().unwrap()).data]
}

/// `DistSorter::sort_batch`.
fn batched<K: pgxd_algos::Key + pgxd::Wire>(
    sorter: &DistSorter,
    ctx: &mut MachineCtx,
    shards: Vec<Vec<K>>,
) -> Vec<Vec<K>> {
    let parts = sorter.sort_batch(ctx, shards);
    parts.into_iter().map(|part| part.data).collect()
}

/// Sorts `batches` (each one shard per machine) with `sort` and checks
/// each batch's output and partition, and the run's wire bytes and
/// messages, against the replay; `columns` prices each message in the
/// element type's format. Returns the run's wire bytes and messages.
fn assert_replayed<K>(
    batches: &[Vec<Vec<K>>],
    sort: Sort<K>,
    columns: Columns<K>,
    what: &str,
) -> (u64, u64)
where
    K: Ord + Copy + Send + Sync + std::fmt::Debug + 'static,
{
    let p = batches[0].len();
    let key_bytes = std::mem::size_of::<K>();
    let budget = SortConfig::default().samples_per_machine(
        DEFAULT_BUFFER_BYTES,
        p * batches.len(),
        key_bytes,
    );
    let report = Cluster::new(ClusterConfig::new(p)).run(|ctx| {
        let shards = batches
            .iter()
            .map(|shards| shards[ctx.id()].clone())
            .collect();
        sort(&DistSorter::default(), ctx, shards)
    });
    let sorted: Vec<Vec<Vec<K>>> = batches.iter().map(|shards| sorted_shards(shards)).collect();
    let replayed: Vec<Replayed<K>> = sorted.iter().map(|s| replay(s, budget)).collect();
    for (b, (shards, replayed)) in batches.iter().zip(&replayed).enumerate() {
        let mut expect = shards.concat();
        expect.sort_unstable();
        let got: Vec<K> = report
            .results
            .iter()
            .flat_map(|parts| parts[b].clone())
            .collect();
        assert!(got == expect, "{what}: batch {b} output");
        let sizes: Vec<usize> = report.results.iter().map(|parts| parts[b].len()).collect();
        assert_eq!(replayed.sizes, sizes, "{what}: batch {b} partition");
    }

    // Every machine but the master ships its sample runs in one message,
    // and the master the splitter runs to every other machine in one each.
    let samples: usize = replayed
        .iter()
        .flat_map(|r| &r.samples[1..])
        .map(|s| columns.run(s))
        .sum();
    let splitters: usize = replayed.iter().map(|r| columns.run(&r.splitters)).sum();
    let mut bytes = (samples + (p - 1) * splitters) as u64;
    let mut messages = 2 * (p as u64 - 1);
    // One stream per ordered pair of machines, a range of every batch.
    for src in 0..p {
        for dst in (0..p).filter(|&dst| dst != src) {
            let ranges: Vec<&[K]> = sorted
                .iter()
                .zip(&replayed)
                .map(|(sorted, r)| &sorted[src][r.offsets[src][dst]..r.offsets[src][dst + 1]])
                .collect();
            let (b, m) = columns.stream(&ranges, DEFAULT_BUFFER_BYTES);
            bytes += b as u64;
            messages += m as u64;
        }
    }
    assert_eq!(report.comm.bytes_sent, bytes, "{what}: wire bytes");
    assert_eq!(report.comm.messages_sent, messages, "{what}: messages");
    (bytes, messages)
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
        assert_replayed(std::slice::from_ref(&shards), plain, KEYS, &what);
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
    let what = "8 x 32768 exponential, duplicate runs";
    assert_replayed(std::slice::from_ref(&shards), plain, KEYS, what);

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
    assert_replayed(
        std::slice::from_ref(&shards),
        plain,
        KEYS,
        "0 and u64::MAX with every 2^(8k)",
    );
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
fn records_pack_their_keys_beside_a_raw_payload() {
    // 32-byte records, the benchmark's `records_1m` element: the key packs
    // in the frames and the 24-byte payload travels raw beside it, each
    // chunk as many records as fit the buffer. A send range is about half
    // a megabyte, so it is cut into chunks.
    let machines = 4;
    let keys = generate_partitioned(Distribution::Uniform, machines * 65_536, machines, 20170529);
    let shards: Vec<Vec<(u64, [u64; 3])>> = keys
        .iter()
        .map(|shard| shard.iter().map(|&k| (k, [k, !k, 7])).collect())
        .collect();
    let records = Columns {
        image: |r: &(u64, [u64; 3])| r.0,
        rest: 24,
    };
    let (bytes, _) = assert_replayed(std::slice::from_ref(&shards), plain, records, "records");
    // The keys are uniform on all of `u64`, yet a 32-key block of a sorted
    // range spans far less: they ship narrower than the eight bytes they
    // took raw.
    let raw = (machines * 65_536 * 32) as u64;
    assert!(bytes < raw, "{bytes} B against {raw} B raw");
}

#[test]
fn a_descending_sort_ships_exactly_what_the_complemented_keys_do() {
    // `Desc<u64>`'s image is the complement of its key: sorting descending
    // is, on the wire, sorting `!key` ascending.
    let machines = 4;
    let shards = generate_partitioned(Distribution::Normal, machines * 16_384, machines, 20170529);
    let complemented: Vec<Vec<u64>> = shards
        .iter()
        .map(|shard| shard.iter().map(|&k| !k).collect())
        .collect();
    let run = |descending: bool| {
        let shards = if descending { &shards } else { &complemented };
        Cluster::new(ClusterConfig::new(machines)).run(|ctx| {
            let sorter = DistSorter::default();
            let shard = shards[ctx.id()].clone();
            match descending {
                true => sorter.sort_descending(ctx, shard).data,
                false => sorter.sort(ctx, shard).data.iter().map(|&k| !k).collect(),
            }
        })
    };
    let (desc, asc) = (run(true), run(false));
    assert_eq!(desc.results, asc.results);
    assert_eq!(desc.comm.bytes_sent, asc.comm.bytes_sent);
    assert_eq!(desc.comm.messages_sent, asc.comm.messages_sent);
    let complemented = std::slice::from_ref(&complemented);
    let (bytes, messages) = assert_replayed(complemented, plain, KEYS, "complemented keys");
    assert_eq!(
        (desc.comm.bytes_sent, desc.comm.messages_sent),
        (bytes, messages)
    );
}

#[test]
fn a_provenance_sort_packs_its_keys_beside_origin_and_index() {
    // `Keyed<u64>`: the key packs, and its origin (4 bytes) and index (8),
    // 16 bytes with their alignment, ride raw beside it.
    let machines = 4;
    let keys = generate_partitioned(
        Distribution::Exponential,
        machines * 8192,
        machines,
        20170529,
    );
    let shards: Vec<Vec<Keyed<u64>>> = keys
        .iter()
        .enumerate()
        .map(|(m, shard)| pgxd_core::item::tag_with_provenance(shard, m))
        .collect();
    let keyed = Columns {
        image: |k: &Keyed<u64>| k.key,
        rest: 16,
    };
    let sort_keyed: Sort<Keyed<u64>> = |sorter, ctx, shards| {
        let keys: Vec<u64> = shards[0].iter().map(|k| k.key).collect();
        vec![sorter.sort_keyed(ctx, &keys).data]
    };
    assert_replayed(
        std::slice::from_ref(&shards),
        sort_keyed,
        keyed,
        "provenance",
    );
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

/// The shapes that move the openers most, each pinned to its figures as
/// well as to the model: three batches in one exchange, so every opener
/// carries three range lengths; a machine with nothing for one
/// destination, whose stream there is an opener of range lengths alone;
/// and eight machines over six distinct keys, runs of one key cut across
/// machines by the investigator.
#[test]
fn openers_carry_every_batch_and_open_empty_streams() {
    let machines = 4;
    let dists = [
        Distribution::Uniform,
        Distribution::Exponential,
        Distribution::Normal,
    ];
    let inputs: Vec<Vec<Vec<u64>>> = (0..3)
        .map(|b| generate_partitioned(dists[b], machines * 16_384, machines, 20170529 + b as u64))
        .collect();
    let figures = assert_replayed(&inputs, batched, KEYS, "sort_batch, B = 3");
    assert_eq!(figures, (476_957, 42), "sort_batch, B = 3");

    // Machine 0 holds keys of the lower half only: the top splitter sits
    // near two thirds of the range, so it has nothing for machine 3.
    let n = machines * 16_384;
    let mut shards = generate_partitioned(Distribution::Uniform, n, machines, 20170529);
    shards[0].iter_mut().for_each(|k| *k /= 2);
    let budget =
        SortConfig::default().samples_per_machine(DEFAULT_BUFFER_BYTES, machines, KEY_BYTES);
    let cut = &replay(&sorted_shards(&shards), budget).offsets[0];
    assert!(
        cut[3] == cut[4] && cut[2] < cut[3],
        "machine 0's ranges: {cut:?}"
    );
    let figures = assert_replayed(
        std::slice::from_ref(&shards),
        plain,
        KEYS,
        "an empty stream",
    );
    assert_eq!(figures, (225_924, 18), "an empty stream");

    let machines = 8;
    let six_keys = Distribution::duplicate_heavy(6);
    let shards = generate_partitioned(six_keys, machines * 4096, machines, 20170529);
    let what = "8 machines, 6 distinct keys";
    let figures = assert_replayed(std::slice::from_ref(&shards), plain, KEYS, what);
    assert_eq!(figures, (11_600, 70), "{what}");
}
