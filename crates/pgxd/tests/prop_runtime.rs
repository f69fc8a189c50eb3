//! Property tests for the distributed runtime: collectives and the
//! offset-addressed exchange preserve data exactly for arbitrary shapes,
//! machine counts, and buffer sizes.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd_datagen::cases::{check, Gen};
use pgxd_datagen::SplitMix64;

/// Deterministic pseudo-random monotone offsets cutting `0..len` into
/// `ranges` consecutive (possibly empty) ranges.
fn monotone_cuts(len: usize, ranges: usize, seed: u64) -> Vec<usize> {
    let mut offsets = vec![0usize];
    let mut rng = SplitMix64::new(seed);
    for _ in 1..ranges {
        let prev = *offsets.last().unwrap();
        offsets.push(rng.range_u64(prev as u64..len as u64 + 1) as usize);
    }
    offsets.push(len);
    offsets
}

/// Cases per property.
const CASES: u32 = 24;

#[test]
fn all_to_all_is_exact_transpose() {
    check(CASES, |g| {
        let p = g.usize_in(1..7);
        let payload = g.vec(0..50, Gen::u64);
        let cluster = Cluster::new(ClusterConfig::new(p));
        let payload_ref = &payload;
        let report = cluster.run(|ctx| {
            let parts: Vec<Vec<u64>> = (0..ctx.num_machines())
                .map(|dst| {
                    payload_ref
                        .iter()
                        .map(|&x| x ^ (ctx.id() as u64) << 32 ^ dst as u64)
                        .collect()
                })
                .collect();
            ctx.all_to_all(parts)
        });
        for (dst, received) in report.results.iter().enumerate() {
            assert_eq!(received.len(), p);
            for (src, block) in received.iter().enumerate() {
                let expect: Vec<u64> = payload
                    .iter()
                    .map(|&x| x ^ (src as u64) << 32 ^ dst as u64)
                    .collect();
                assert_eq!(block, &expect);
            }
        }
    });
}

#[test]
fn gather_then_broadcast_roundtrips() {
    check(CASES, |g| {
        let p = g.usize_in(1..8);
        let data = g.vec(0..40, Gen::u32);
        let cluster = Cluster::new(ClusterConfig::new(p));
        let data_ref = &data;
        let report = cluster.run(|ctx| {
            let mine: Vec<u32> = data_ref.iter().map(|&x| x ^ ctx.id() as u32).collect();
            let gathered = ctx.gather_to_master(mine);
            let flat = gathered.map(|rows| rows.concat());
            ctx.broadcast_from_master(flat)
        });
        let expect: Vec<u32> = (0..p)
            .flat_map(|m| data.iter().map(move |&x| x ^ m as u32))
            .collect();
        for r in &report.results {
            assert_eq!(r, &expect);
        }
    });
}

#[test]
fn exchange_preserves_multiset_and_run_order() {
    check(CASES, |g| {
        let p = g.usize_in(1..6);
        let workers = g.usize_in(1..4);
        let rounds = g.usize_in(1..3);
        let shard_lens = g.vec(1..6, |g| g.usize_in(0..120));
        let cuts_seed = g.u64();
        let buffer_bytes = g.select(&[8usize, 16, 64, 256, 256 * 1024]);
        // Build per-machine shards of sorted data and random cut points.
        // `workers` exercises the worker-driven send path; `rounds > 1`
        // runs consecutive exchanges on one cluster.
        let p = p.min(shard_lens.len()).max(1);
        let shards: Vec<Vec<u64>> = (0..p)
            .map(|m| {
                let len = shard_lens[m % shard_lens.len()];
                (0..len as u64).map(|i| i * 3 + m as u64).collect()
            })
            .collect();
        let cluster = Cluster::new(
            ClusterConfig::new(p)
                .buffer_bytes(buffer_bytes)
                .workers_per_machine(workers),
        );
        let shards_ref = &shards;
        let report = cluster.run(|ctx| {
            let data = shards_ref[ctx.id()].clone();
            let offsets = monotone_cuts(data.len(), ctx.num_machines(), cuts_seed);
            let mut result = ctx.exchange(&data, &offsets);
            for _ in 1..rounds {
                result = ctx.exchange(&data, &offsets);
            }
            result
        });

        // Global multiset preserved (per round; rounds are identical).
        let mut received_all: Vec<u64> = report
            .results
            .iter()
            .flat_map(|(out, _)| out.clone())
            .collect();
        let mut sent_all: Vec<u64> = shards.iter().flatten().copied().collect();
        received_all.sort_unstable();
        sent_all.sort_unstable();
        assert_eq!(received_all, sent_all);

        // Per-source runs arrive contiguous and in source order (the data
        // was sorted per machine, so each received run must be sorted).
        for (out, bounds) in &report.results {
            assert_eq!(bounds.len(), p + 1);
            assert_eq!(*bounds.last().unwrap(), out.len());
            for w in bounds.windows(2) {
                let run = &out[w[0]..w[1]];
                assert!(run.windows(2).all(|x| x[0] <= x[1]));
            }
        }
    });
}

/// Machine `m`'s shard of `len` keys in one of the shapes a packed `u64`
/// chunk has to carry: sorted; unsorted; full-range (`0` and `u64::MAX` in
/// every range of three keys or more); one repeated key; or straddling
/// `edge = 2^(8k)`, so that a chunk's span is `edge` or just past it and
/// needs one byte more than `edge − 1` does.
fn shard(g: &mut Gen, shape: usize, len: usize, m: usize) -> Vec<u64> {
    let edge = 1u64 << (8 * g.usize_in(1..8));
    let base = g.u64_in(0..1 << 20);
    let key = g.u64();
    (0..len as u64)
        .map(|i| match shape {
            0 => i * 5 + m as u64,
            1 => g.u64(),
            2 => [0, u64::MAX, g.u64()][i as usize % 3],
            3 => key,
            _ => base + g.select(&[0, edge - 1, edge, edge + 1]),
        })
        .collect()
}

#[test]
fn exchange_places_every_range_where_the_layout_says() {
    check(CASES, |g| {
        let p = g.usize_in(1..5);
        let batches = g.usize_in(1..4);
        let shard_len = g.usize_in(0..200);
        let cuts_seed = g.u64();
        // Below one packed header, a few keys, and the default.
        let buffer_bytes = g.select(&[8usize, 16, 64, 256 * 1024]);
        let shape = g.usize_in(0..5);
        // The closed-form model of the exchange: send range `b·p + dst` of
        // source `s` is, verbatim, run `b·p + s` of destination `dst`.
        let shards: Vec<Vec<u64>> = (0..p).map(|m| shard(g, shape, shard_len, m)).collect();
        let offsets: Vec<Vec<usize>> = (0..p)
            .map(|m| monotone_cuts(shard_len, batches * p, cuts_seed ^ m as u64))
            .collect();
        let cluster = Cluster::new(
            ClusterConfig::new(p)
                .buffer_bytes(buffer_bytes)
                .workers_per_machine(2),
        );
        let (shards_ref, offsets_ref) = (&shards, &offsets);
        let report =
            cluster.run(move |ctx| ctx.exchange(&shards_ref[ctx.id()], &offsets_ref[ctx.id()]));
        for (dst, (out, bounds)) in report.results.iter().enumerate() {
            assert_eq!(bounds.len(), batches * p + 1);
            assert_eq!((bounds[0], bounds[batches * p]), (0, out.len()));
            for batch in 0..batches {
                for src in 0..p {
                    let sent = &offsets[src][batch * p + dst..];
                    let run = &bounds[batch * p + src..];
                    assert_eq!(
                        &out[run[0]..run[1]],
                        &shards[src][sent[0]..sent[1]],
                        "batch {} from {} at {}",
                        batch,
                        src,
                        dst
                    );
                }
            }
        }
    });
}

#[test]
fn all_gather_identical_everywhere() {
    check(CASES, |g| {
        let p = g.usize_in(1..8);
        let data = g.vec(0..30, |g| g.u32() as u16);
        let cluster = Cluster::new(ClusterConfig::new(p));
        let data_ref = &data;
        let report = cluster.run(|ctx| {
            let mine: Vec<u16> = data_ref
                .iter()
                .map(|&x| x.wrapping_add(ctx.id() as u16))
                .collect();
            ctx.all_gather(mine)
        });
        let reference = &report.results[0];
        for r in &report.results {
            assert_eq!(r, reference);
        }
        assert_eq!(reference.len(), p);
    });
}

#[test]
fn exchange_stress_many_small_buffers() {
    // Deterministic stress: 6 machines, 1-element buffer chunks, uneven
    // shards — maximal chunk fragmentation.
    let p = 6;
    let shards: Vec<Vec<u64>> = (0..p)
        .map(|m| {
            (0..(m * 37 + 11) as u64)
                .map(|i| i * 7 + m as u64)
                .collect()
        })
        .collect();
    let cluster = Cluster::new(ClusterConfig::new(p).buffer_bytes(8));
    let shards_ref = &shards;
    let report = cluster.run(|ctx| {
        let data = shards_ref[ctx.id()].clone();
        // Send everything to machine (id+1) % p.
        let dst = (ctx.id() + 1) % 6;
        let mut offsets = vec![0usize; 7];
        for (j, slot) in offsets.iter_mut().enumerate() {
            *slot = if j > dst { data.len() } else { 0 };
        }
        ctx.exchange(&data, &offsets)
    });
    for (m, (out, _)) in report.results.iter().enumerate() {
        let src = (m + 6 - 1) % 6;
        assert_eq!(out, &shards[src], "machine {m}");
    }
    // One message per element plus count traffic.
    assert!(report.comm.messages_sent as usize > shards.iter().map(|s| s.len()).sum::<usize>() / 2);
}
