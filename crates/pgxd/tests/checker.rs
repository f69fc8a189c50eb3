//! The runtime's two protocol checks, which hold in every build: each
//! diagnostic fires with its documented panic in debug and release alike.
//!
//! - Quiescence: a packet nobody receives is named at the next barrier,
//!   or at the fabric's teardown if no barrier follows.
//! - Tiling: an exchange whose placements overlap, or leave a gap, panics
//!   before it hands its output back. A forged peer, which ships its stream
//!   through a `RequestBuffer` at offsets of its own choosing, plays the
//!   defect.
//!
//! A tag nobody receives is named by the stall rule, and a second part
//! from one source by the collective that receives it.

use pgxd::buffer::RequestBuffer;
use pgxd::cluster::{Cluster, ClusterConfig};
use pgxd::comm::{kinds, Tag};
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
#[should_panic(expected = "undelivered packet(s) at fabric teardown: 1 in machine 1's inbox")]
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
#[should_panic(expected = "undelivered packet(s) at barrier: 1 in machine 1's inbox")]
fn undelivered_packet_reported_at_barrier() {
    // The same stray send is caught earlier if the fabric hits a barrier:
    // the last machine to arrive reads the counts while the others are
    // parked, and every machine panics on that one verdict.
    let cluster = Cluster::new(ClusterConfig::new(2));
    let _ = cluster.run(|ctx| {
        if ctx.id() == 0 {
            ctx.comm_mut().send_vec(1, Tag::user(7, 8), vec![9u64]);
        }
        ctx.barrier();
    });
}

/// Machine 0 exchanges ten keys with itself (its range for machine 1 is
/// empty), while machine 1 forges its side: a stream of ten keys to
/// machine 0, shipped as the `(offset, len)` chunks given, the first as
/// the opener. Machine 1 then takes machine 0's opener, so the one defect
/// is the placement.
fn forged_exchange(chunks: &[(usize, usize)]) {
    let keys: Vec<u64> = (0..10).collect();
    let cluster = Cluster::new(ClusterConfig::new(2));
    cluster.run(|ctx| {
        if ctx.id() == 0 {
            ctx.exchange(&keys, &[0, 10, 10]);
            return;
        }
        // Machine 0's first collective: sequence 0.
        let open = Tag {
            kind: kinds::EXCHANGE_OPEN,
            seq: 0,
        };
        let data = Tag {
            kind: kinds::EXCHANGE_DATA,
            seq: 0,
        };
        let sender = ctx.comm_mut().sender();
        let mut stream = RequestBuffer::new(0, data, pgxd::DEFAULT_BUFFER_BYTES);
        stream.open(open, vec![keys.len() as u64]);
        for &(offset, len) in chunks {
            stream.send_chunk(&keys[offset..offset + len], offset, &sender);
        }
        ctx.comm_mut().recv_packet(open);
    });
}

#[test]
#[should_panic(expected = "placement [14, 18) overlaps the placements before it, which end at 16")]
fn overlapping_offset_ranges_reported() {
    // [4, 8) of the stream overlaps [0, 6); together they count ten keys.
    forged_exchange(&[(0, 6), (4, 4)]);
}

#[test]
#[should_panic(
    expected = "placement [15, 18) leaves a gap after the placements before it, which end at 14"
)]
fn offset_gap_reported() {
    // [4, 5) of the stream is never written, and [7, 8) twice.
    forged_exchange(&[(0, 4), (5, 3), (7, 3)]);
}

#[test]
#[should_panic(
    expected = "waiting for tag Tag { kind: 17, seq: 2 } (mailbox holds tags {Tag { kind: 17, seq: 1 }})"
)]
fn tag_mismatch_delivery_reported() {
    // Machine 1 waits under a different tag than anything sent to it, and
    // machine 0 returns: the stall rule names both tags.
    let cluster = Cluster::new(ClusterConfig::new(2));
    cluster.run(|ctx| {
        if ctx.id() == 0 {
            ctx.comm_mut().send_vec(1, Tag::user(1, 1), vec![1u64]);
        } else {
            ctx.comm_mut().recv_vec::<u64>(Tag::user(1, 2));
        }
    });
}

#[test]
#[should_panic(expected = "second gather part from machine 1")]
fn a_second_gather_part_from_one_source_is_refused_naming_it() {
    // Machine 1 forges a part of the master's first gather before it sends
    // its real one; machine 2 sends only after both, so the master takes
    // machine 1's two parts first.
    let forged = AtomicBool::new(false);
    let cluster = Cluster::new(ClusterConfig::new(3));
    cluster.run(|ctx| match ctx.id() {
        1 => {
            let tag = Tag {
                kind: kinds::GATHER,
                seq: 0,
            };
            ctx.comm_mut().send_vec(0, tag, vec![0u64]);
            ctx.gather_to_master(vec![1u64]);
            forged.store(true, Ordering::Release);
        }
        2 => {
            while !forged.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            ctx.gather_to_master(vec![2u64]);
        }
        _ => {
            ctx.gather_to_master(vec![0u64]);
        }
    });
}
