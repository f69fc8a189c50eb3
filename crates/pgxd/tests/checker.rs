//! Integration tests proving each protocol-checker diagnostic actually
//! fires — an undelivered packet, a delivery nobody sent, and a malformed
//! offset tiling each produce their documented panic.
//!
//! Compiled only when the checker hooks are (debug builds or the
//! `checker` feature); in a plain `--release` test sweep the whole file
//! vanishes rather than failing its `#[should_panic]` expectations.

#![cfg(any(debug_assertions, feature = "checker"))]

use pgxd::checker::{OffsetLedger, ProtocolChecker};
use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::comm::Tag;
use std::sync::atomic::{AtomicBool, Ordering};

#[test]
fn clean_run_passes_barriers_and_teardown() {
    // Balanced traffic must sail through the barrier quiescence check and
    // the teardown check without a false positive.
    let cluster = Cluster::new(ClusterConfig::new(3));
    let report = cluster.run(|ctx| {
        let gathered = ctx.all_gather(vec![ctx.id() as u64]);
        ctx.barrier();
        let (out, _) = ctx.exchange(&[ctx.id() as u64; 6], &[0, 2, 4, 6]);
        ctx.barrier();
        (gathered, out)
    });
    assert_eq!(report.results.len(), 3);
}

#[test]
#[should_panic(expected = "undelivered packet")]
fn undelivered_packet_reported_at_teardown() {
    // Machine 0 sends a packet nobody ever receives; every machine exits
    // normally, and the teardown sweep on the calling thread reports it.
    // Machine 1 outlives the send (its inbox must exist to be sent to) but
    // does not meet machine 0 at a barrier, which would report it first.
    let sent = AtomicBool::new(false);
    let cluster = Cluster::new(ClusterConfig::new(2));
    let _ = cluster.run(|ctx| {
        if ctx.id() == 0 {
            ctx.comm_mut()
                .send_vec(1, Tag::user(7, 7), vec![1u64, 2, 3]);
            sent.store(true, Ordering::Release);
        } else {
            while !sent.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        }
    });
}

#[test]
#[should_panic(expected = "undelivered packet(s) at barrier")]
fn undelivered_packet_reported_at_barrier() {
    // The same stray send is caught earlier if the fabric hits a barrier:
    // all machines are parked between the two waits, so the ledger scan is
    // race-free and every machine panics on the shared verdict.
    let cluster = Cluster::new(ClusterConfig::new(2));
    let _ = cluster.run(|ctx| {
        if ctx.id() == 0 {
            ctx.comm_mut().send_vec(1, Tag::user(7, 8), vec![9u64]);
        }
        ctx.barrier();
    });
}

#[test]
#[should_panic(expected = "overlapping offset range")]
fn overlapping_offset_ranges_reported() {
    let mut ledger = OffsetLedger::new(1, Tag::user(0, 3), 10);
    ledger.record(0, 6);
    ledger.record(4, 6); // [4, 10) overlaps [0, 6)
    ledger.finish();
}

#[test]
#[should_panic(expected = "gap in offset ranges")]
fn offset_gap_reported() {
    let mut ledger = OffsetLedger::new(0, Tag::user(0, 4), 10);
    ledger.record(0, 4);
    ledger.record(7, 3); // [4, 7) never written
    ledger.finish();
}

#[test]
#[should_panic(expected = "never sent")]
fn tag_mismatch_delivery_reported() {
    let checker = ProtocolChecker::new(2);
    checker.packet_sent(0, 1, Tag::user(1, 1));
    // Delivery under a different tag than anything in flight.
    checker.packet_delivered(0, 1, Tag::user(1, 2));
}
