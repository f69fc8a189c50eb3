//! The untyped `exchange_by_offsets`, which the benchmark harness replays
//! generically over its own item trait, against the typed `exchange` the
//! sorter calls. `u64` must take the typed path byte for byte; any other
//! element type ships whole behind a constant image, so its chunks are the
//! elements raw behind one width-0 frame header and the offset (the range
//! length, in a stream's opener).

use pgxd::cluster::{Cluster, ClusterConfig, RunReport};
use pgxd::MachineCtx;

const P: usize = 4;

/// A frame header: smallest key (8), key count (4), byte width (1).
const HEADER: usize = 13;

/// The stream offset every later chunk travels behind, and the one range
/// length an opener carries in its place (`B = 1`).
const OFFSET: usize = 8;

/// Machine `m`'s `i`-th element, as a key.
fn key(m: usize, i: usize) -> u64 {
    ((m as u64) << 40) | ((i as u64 * 0x9e37) % 1_000_003)
}

/// Machine `m`'s send offsets: `len(m, dst)` elements to each destination.
fn offsets(m: usize, len: &impl Fn(usize, usize) -> usize) -> Vec<usize> {
    let mut offsets = vec![0];
    for dst in 0..P {
        offsets.push(offsets[dst] + len(m, dst));
    }
    offsets
}

/// One exchange of a machine's elements: the typed or the untyped entry.
type Exchange<T> = fn(&mut MachineCtx, &[T], &[usize]) -> (Vec<T>, Vec<usize>);

/// One exchange per machine of `make(m, i)` elements cut by `len`, through
/// `exchange`, at `buffer` bytes.
fn run<T: Copy + Send + Sync + 'static>(
    buffer: usize,
    len: &(impl Fn(usize, usize) -> usize + Sync),
    make: fn(usize, usize) -> T,
    exchange: Exchange<T>,
) -> RunReport<(Vec<T>, Vec<usize>)> {
    Cluster::new(
        ClusterConfig::new(P)
            .buffer_bytes(buffer)
            .workers_per_machine(2),
    )
    .run(|ctx| {
        let m = ctx.id();
        let cut = offsets(m, len);
        let data: Vec<T> = (0..cut[P]).map(|i| make(m, i)).collect();
        exchange(ctx, &data, &cut)
    })
}

/// Uneven ranges: some empty, some many chunks long.
fn uneven(m: usize, dst: usize) -> usize {
    [0, 1, 700, 3000][(m + 2 * dst) % 4]
}

#[test]
fn u64_through_the_untyped_entry_is_the_typed_exchange() {
    for buffer in [64, 4096, pgxd::DEFAULT_BUFFER_BYTES] {
        let typed = run(buffer, &uneven, key, |ctx, data, cut| {
            ctx.exchange(data, cut)
        });
        let untyped = run(buffer, &uneven, key, |ctx, data, cut| {
            ctx.exchange_by_offsets(data, cut)
        });
        assert_eq!(typed.results, untyped.results, "buffer {buffer}");
        assert_eq!(
            typed.comm.bytes_sent, untyped.comm.bytes_sent,
            "buffer {buffer}"
        );
        assert_eq!(
            typed.comm.messages_sent, untyped.comm.messages_sent,
            "buffer {buffer}"
        );
        assert!(typed.comm.exchange.chunks_sent > 0);
    }
}

#[test]
fn any_other_item_ships_raw_behind_a_bare_header() {
    // A 16-byte element with no `Wire` impl.
    type Item = (u32, u64);
    let make = |m: usize, i: usize| (i as u32, key(m, i));
    let size = std::mem::size_of::<Item>();
    for buffer in [64, 4096, pgxd::DEFAULT_BUFFER_BYTES] {
        let report = run(buffer, &uneven, make, |ctx, data, cut| {
            ctx.exchange_by_offsets(data, cut)
        });
        // Every element arrives where the typed exchange would put it.
        for (dst, (out, bounds)) in report.results.iter().enumerate() {
            let expect: Vec<Item> = (0..P)
                .flat_map(|src| {
                    let cut = offsets(src, &uneven);
                    (cut[dst]..cut[dst + 1]).map(move |i| make(src, i))
                })
                .collect();
            assert_eq!(out, &expect, "buffer {buffer}, machine {dst}");
            assert_eq!(bounds.len(), P + 1);
        }
        // A chunk is a width-0 frame header, its elements raw, and the
        // offset: as many elements as fit beside the header. An empty
        // stream is its opener's range length alone.
        let per_chunk = ((buffer - HEADER) / size).max(1);
        let (mut bytes, mut chunks) = (0u64, 0u64);
        for src in 0..P {
            for dst in (0..P).filter(|&dst| dst != src) {
                let n = uneven(src, dst);
                let c = n.div_ceil(per_chunk);
                chunks += c.max(1) as u64;
                bytes += (c * (HEADER + OFFSET) + n * size).max(OFFSET) as u64;
            }
        }
        assert_eq!(report.comm.exchange.chunks_sent, chunks, "buffer {buffer}");
        assert_eq!(report.comm.bytes_sent, bytes, "buffer {buffer}");
        assert_eq!(report.comm.messages_sent, chunks, "buffer {buffer}");
    }
}
