//! Which thread sends: the §IV-C exchange hands its send streams to the
//! worker pool so they overlap the receive loop — unless no remote range
//! exceeds one request buffer, when every stream is a single flush and the
//! machine thread flushes them itself before it starts receiving. Each
//! machine decides from its own send offsets; these tests read the decision
//! off the trace, on both sides of the rule.
//!
//! A caller-flushed machine is exact to recognise: every one of its send
//! `Task` spans ends before its `RecvLoop` span begins. An overlapped one is
//! recognised by a positive [`TraceLog::exchange_overlap_ratios`] entry,
//! which only means something if a send cannot finish before its thread has
//! been scheduled — so the runs that expect overlap put every chunk on a
//! slow wire (a fault plan that delays each chunk by at least half the
//! network model's latency).

use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::fault::FaultPlan;
use pgxd::metrics::CommSummary;
use pgxd::net::NetworkModel;
use pgxd::trace::{EventKind, TraceConfig, TraceLog};
use pgxd::DEFAULT_BUFFER_BYTES;
use std::time::Duration;

const P: usize = 4;

/// A key and `(source, range, index in the range)`, which says where the
/// item has to land. Keys alternate `0` and `u64::MAX`, so every frame spans
/// all of `u64` and packs each key at eight bytes: a chunk is a header and
/// 20 bytes an item, and holds exactly [`items_per_buffer`] of them.
type Item = (u64, (u32, u32, u32));

/// The frame header every chunk starts with.
const HEADER: usize = 13;

fn item(src: usize, range: usize, k: usize) -> Item {
    let key = if k.is_multiple_of(2) { 0 } else { u64::MAX };
    (key, (src as u32, range as u32, k as u32))
}

fn traced() -> ClusterConfig {
    ClusterConfig::new(P)
        .workers_per_machine(2)
        .trace(TraceConfig::enabled())
}

/// Every chunk send sleeps 4–12 ms plus its transfer time.
fn slow_wire(config: ClusterConfig) -> ClusterConfig {
    let net = NetworkModel {
        latency: Duration::from_millis(8),
        ..NetworkModel::default()
    };
    config
        .network(net)
        .fault(FaultPlan::enabled(7).chunk_delay(1000, 0))
}

/// One traced exchange of `batches · P` ranges per machine, machine `m`'s
/// range `i` holding `len(m, i)` items. Checks that every item arrived in
/// its batch-major, source-minor place.
fn exchange(
    config: ClusterConfig,
    batches: usize,
    len: impl Fn(usize, usize) -> usize + Sync,
) -> (TraceLog, CommSummary) {
    let ranges = batches * P;
    let report = Cluster::new(config).run(|ctx| {
        let me = ctx.id();
        let mut data: Vec<Item> = Vec::new();
        let mut offsets = vec![0usize];
        for i in 0..ranges {
            data.extend((0..len(me, i)).map(|k| item(me, i, k)));
            offsets.push(data.len());
        }
        ctx.exchange(&data, &offsets)
    });
    for (dst, (out, bounds)) in report.results.iter().enumerate() {
        let mut expect: Vec<Item> = Vec::new();
        let mut expect_bounds = vec![0usize];
        for batch in 0..batches {
            for src in 0..P {
                let i = batch * P + dst;
                expect.extend((0..len(src, i)).map(|k| item(src, i, k)));
                expect_bounds.push(expect.len());
            }
        }
        assert_eq!(bounds, &expect_bounds, "machine {dst}");
        assert!(out == &expect, "machine {dst} assembled the wrong items");
    }
    (report.trace.expect("tracing was enabled"), report.comm)
}

/// `true` when machine `m` sent something and each of its send tasks was
/// over before its receive loop began.
fn caller_flushed(log: &TraceLog, m: usize) -> bool {
    let of = |kind| {
        log.events_of_kind(kind)
            .filter(move |e| e.machine == m as u32)
    };
    let receive_began = of(EventKind::RecvLoop)
        .map(|e| e.t_ns)
        .min()
        .expect("every machine runs a receive loop");
    of(EventKind::Task).count() > 0 && of(EventKind::Task).all(|e| e.end_ns() <= receive_began)
}

fn items_per_buffer(buffer_bytes: usize) -> usize {
    (buffer_bytes - HEADER) / 20
}

#[test]
fn ranges_of_one_buffer_are_flushed_before_the_receive_loop() {
    let per_range = 2000;
    assert!(per_range <= items_per_buffer(DEFAULT_BUFFER_BYTES));
    let (log, comm) = exchange(traced(), 1, |_, _| per_range);
    for m in 0..P {
        assert!(caller_flushed(&log, m), "machine {m}");
        let sends = log
            .events_of_kind(EventKind::Task)
            .filter(|e| e.machine == m as u32);
        assert_eq!(sends.count(), P - 1, "one send task per destination");
    }
    assert_eq!(log.exchange_overlap_ratios(), vec![0.0; P]);
    // Per ordered pair of machines: one opener, the range's items behind a
    // frame header and the range's 8-byte length. Nothing else is on the
    // wire.
    let pairs = (P * (P - 1)) as u64;
    let opener_bytes = (HEADER + per_range * 20 + 8) as u64;
    assert_eq!(comm.messages_sent, pairs);
    assert_eq!(comm.bytes_sent, pairs * opener_bytes);
    assert_eq!(comm.exchange.chunks_sent, pairs);
}

#[test]
fn the_same_ranges_in_small_buffers_overlap_their_sends() {
    // 2000 items are six 4 KiB buffers: streams worth a thread.
    let (log, comm) = exchange(slow_wire(traced().buffer_bytes(4096)), 1, |_, _| 2000);
    let ratios = log.exchange_overlap_ratios();
    assert!(
        ratios.iter().all(|&r| r > 0.0),
        "every machine sends while it receives, got {ratios:?}"
    );
    for m in 0..P {
        assert!(!caller_flushed(&log, m), "machine {m}");
    }
    let chunks_per_stream = 2000usize.div_ceil(items_per_buffer(4096)) as u64;
    assert_eq!(
        comm.exchange.chunks_sent,
        (P * (P - 1)) as u64 * chunks_per_stream
    );
}

#[test]
fn one_item_past_the_buffer_is_what_moves_a_machine_to_its_workers() {
    let buffer = 4096;
    let fits = items_per_buffer(buffer);
    // Everyone sends exactly one buffer everywhere; machine 2's range for
    // machine 0 alone is one item longer.
    let len = move |m: usize, i: usize| fits + usize::from(m == 2 && i == 0);
    let (log, _) = exchange(slow_wire(traced().buffer_bytes(buffer)), 1, len);
    let ratios = log.exchange_overlap_ratios();
    for m in 0..P {
        if m == 2 {
            assert!(ratios[m] > 0.0, "machine 2 overlaps, got {ratios:?}");
            assert!(!caller_flushed(&log, m));
        } else {
            assert!(caller_flushed(&log, m), "machine {m}");
            assert_eq!(ratios[m], 0.0, "machine {m}");
        }
    }
}

#[test]
fn a_long_self_range_does_not_count() {
    // The self range never touches a buffer: it is copied into place. Only
    // what crosses the fabric decides.
    let buffer = 4096;
    let fits = items_per_buffer(buffer);
    let len = move |m: usize, i: usize| if i == m { 100 * fits } else { fits / 2 };
    let (log, _) = exchange(traced().buffer_bytes(buffer), 1, len);
    for m in 0..P {
        assert!(caller_flushed(&log, m), "machine {m}");
    }
    assert_eq!(log.exchange_overlap_ratios(), vec![0.0; P]);
}

#[test]
fn batches_are_judged_range_by_range() {
    // Three batches: a destination's stream is three ranges, each its own
    // buffer, so three buffers' worth to one destination still is single
    // flushes — and one long range in any batch still is not.
    let buffer = 4096;
    let fits = items_per_buffer(buffer);
    let (log, comm) = exchange(traced().buffer_bytes(buffer), 3, move |_, _| fits);
    for m in 0..P {
        assert!(caller_flushed(&log, m), "machine {m}");
    }
    assert_eq!(comm.exchange.chunks_sent, (3 * P * (P - 1)) as u64);

    // Machine 1's last-batch range for machine 3.
    let len = move |m: usize, i: usize| fits + usize::from(m == 1 && i == 2 * P + 3);
    let (log, _) = exchange(slow_wire(traced().buffer_bytes(buffer)), 3, len);
    let ratios = log.exchange_overlap_ratios();
    for m in 0..P {
        assert_eq!(caller_flushed(&log, m), m != 1, "machine {m}");
        assert_eq!(ratios[m] > 0.0, m == 1, "machine {m}, got {ratios:?}");
    }
}
