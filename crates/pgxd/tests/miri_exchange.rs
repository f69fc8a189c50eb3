//! Small, deterministic exercises of the exchange pipeline's unsafe code
//! — `MaybeUninit` output assembly, `ptr::copy_nonoverlapping` placement,
//! and the chunk pool's type-erased `Vec::from_raw_parts` recycling —
//! sized so `cargo miri test -p pgxd --test miri_exchange` finishes in
//! minutes. CI runs exactly that command; the same tests also run natively
//! in the normal test sweep.

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::metrics::CommStats;
use pgxd::pool::ChunkPool;
use std::sync::Arc;

#[test]
fn pool_roundtrip_and_drop_are_sound() {
    let stats = Arc::new(CommStats::default());
    let pool = ChunkPool::new(stats);
    // Mix types and capacities so hits rebuild Vecs through the erased
    // (TypeId, byte-capacity) key, then drop the pool with buffers parked.
    for round in 0..3 {
        let a: Vec<u64> = pool.acquire(16);
        let b: Vec<u32> = pool.acquire(24);
        let c: Vec<(u32, u64)> = pool.acquire(8);
        assert!(a.capacity() >= 16 && b.capacity() >= 24 && c.capacity() >= 8);
        pool.release(a);
        pool.release(b);
        if round < 2 {
            pool.release(c); // leave one type unparked on the last round
        }
    }
    assert!(pool.held_bytes() > 0);
    drop(pool); // Drop impl frees parked buffers via their drop_fn
}

#[test]
fn small_exchange_places_every_element_exactly_once() {
    // 3 machines, 2 workers, 16-byte buffers (2 u64 per chunk): enough to
    // drive worker-side sends, pooled flush/finish, and memcpy placement
    // through every unsafe block with a handful of elements.
    let p = 3;
    let cluster = Cluster::new(
        ClusterConfig::new(p).buffer_bytes(16).workers_per_machine(2),
    );
    let report = cluster.run(|ctx| {
        let id = ctx.id() as u64;
        let data: Vec<u64> = (0..9).map(|i| id * 100 + i).collect();
        let offsets = vec![0usize, 3, 6, 9];
        // Two rounds so the second runs against a warm pool.
        let _ = ctx.exchange_by_offsets(&data, &offsets);
        ctx.exchange_by_offsets(&data, &offsets)
    });
    for (m, (out, bounds)) in report.results.iter().enumerate() {
        assert_eq!(bounds, &vec![0, 3, 6, 9]);
        let expect: Vec<u64> = (0..p as u64)
            .flat_map(|src| (0..3).map(move |i| src * 100 + m as u64 * 3 + i))
            .collect();
        assert_eq!(out, &expect, "machine {m}");
    }
}

#[test]
fn one_buffer_exchange_flushed_by_the_machine_thread() {
    // The same nine elements under the default 256 KiB buffer: every
    // stream fits one chunk, so the machine thread flushes its own sends
    // and then receives — the other route through the same unsafe blocks
    // (the two cases around this one only ever send from worker threads).
    let p = 3;
    let cluster = Cluster::new(ClusterConfig::new(p).workers_per_machine(2));
    let report = cluster.run(|ctx| {
        let id = ctx.id() as u64;
        let data: Vec<u64> = (0..9).map(|i| id * 100 + i).collect();
        let offsets = vec![0usize, 3, 6, 9];
        let _ = ctx.exchange_by_offsets(&data, &offsets);
        ctx.exchange_by_offsets(&data, &offsets)
    });
    for (m, (out, bounds)) in report.results.iter().enumerate() {
        assert_eq!(bounds, &vec![0, 3, 6, 9]);
        let expect: Vec<u64> = (0..p as u64)
            .flat_map(|src| (0..3).map(move |i| src * 100 + m as u64 * 3 + i))
            .collect();
        assert_eq!(out, &expect, "machine {m}");
    }
}

#[test]
fn exchange_with_empty_and_lopsided_ranges() {
    // Some machines send nothing to some destinations (empty chunk paths),
    // machine 2 receives nothing at all (zero-length MaybeUninit output).
    let p = 3;
    let cluster = Cluster::new(
        ClusterConfig::new(p).buffer_bytes(8).workers_per_machine(1),
    );
    let report = cluster.run(|ctx| {
        let data: Vec<u64> = (0..4).map(|i| ctx.id() as u64 * 10 + i).collect();
        // Machines 0 and 2 send everything to 1; machine 1 sends to 0.
        // Machine 2 receives nothing at all (zero-length output buffer).
        let dst = (ctx.id() + 1) % 2;
        let mut offsets = vec![0usize; p + 1];
        for (j, slot) in offsets.iter_mut().enumerate() {
            *slot = if j > dst { data.len() } else { 0 };
        }
        ctx.exchange_by_offsets(&data, &offsets)
    });
    let (out0, _) = &report.results[0];
    let (out1, _) = &report.results[1];
    let (out2, _) = &report.results[2];
    assert_eq!(out0, &vec![10, 11, 12, 13]);
    assert_eq!(out1, &vec![0, 1, 2, 3, 20, 21, 22, 23]);
    assert!(out2.is_empty());
}
