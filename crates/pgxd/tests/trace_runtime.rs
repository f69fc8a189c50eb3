//! Integration tests for checker → trace wiring: every protocol-checker
//! diagnostic must land in the run's trace as a [`EventKind::Checker`]
//! instant *before* the panic unwinds, so a post-mortem
//! [`TraceCollector::collect`] shows what the checker saw even though the
//! run died.
//!
//! Like `tests/checker.rs`, this file only exists when the checker hooks
//! are compiled in (debug builds or the `checker` feature).

#![cfg(any(debug_assertions, feature = "checker"))]

use pgxd::checker::ProtocolChecker;
use pgxd::comm::Tag;
use pgxd::trace::{violation, EventKind, TraceCollector};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A one-machine collector/checker pair, the checker built with the
/// machine's trace sink.
fn traced_checker() -> (TraceCollector, ProtocolChecker) {
    let collector = TraceCollector::new(1);
    let checker = ProtocolChecker::with_traces(1, vec![collector.machine(0)]);
    (collector, checker)
}

/// Codes of the checker events machine 0 recorded, in emission order.
fn checker_codes(collector: TraceCollector) -> Vec<u64> {
    let log = collector.collect();
    log.events_of_kind(EventKind::Checker)
        .map(|e| e.a)
        .collect()
}

#[test]
fn phantom_delivery_event_recorded_before_panic() {
    let (collector, checker) = traced_checker();
    // Delivery with no matching send: the checker must emit the event,
    // then panic — the adjacent `#[should_panic]` shape, but catching the
    // unwind so the sink can be collected afterwards.
    let err = catch_unwind(AssertUnwindSafe(|| {
        checker.packet_delivered(0, 0, Tag::user(3, 3));
    }))
    .expect_err("phantom delivery must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic carries a message");
    assert!(msg.contains("never sent"), "unexpected panic: {msg}");
    assert_eq!(checker_codes(collector), vec![violation::PHANTOM_DELIVERY]);
}

#[test]
fn quiescence_verdicts_recorded_before_panic() {
    let (collector, checker) = traced_checker();
    checker.packet_sent(0, 0, Tag::user(5, 5));
    let err = catch_unwind(AssertUnwindSafe(|| {
        checker.check_quiescent("test barrier", Some(0));
    }))
    .expect_err("undelivered packet must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic carries a message");
    assert!(
        msg.contains("undelivered packet"),
        "unexpected panic: {msg}"
    );
    assert_eq!(
        checker_codes(collector),
        vec![violation::UNDELIVERED_PACKETS]
    );
}

#[test]
fn offset_ledger_violations_recorded_before_panic() {
    let (collector, checker) = traced_checker();
    // A ledger minted by the checker inherits machine 0's trace sink.
    let mut ledger = checker.offset_ledger(0, Tag::user(4, 4), 10);
    ledger.record(0, 6);
    ledger.record(4, 6); // [4, 10) overlaps [0, 6)
    let err = catch_unwind(AssertUnwindSafe(move || ledger.finish()))
        .expect_err("overlapping offsets must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("panic carries a message");
    assert!(
        msg.contains("overlapping offset"),
        "unexpected panic: {msg}"
    );
    assert_eq!(checker_codes(collector), vec![violation::OFFSET_OVERLAP]);
}

#[test]
fn clean_checker_run_records_no_checker_events() {
    let (collector, checker) = traced_checker();
    checker.packet_sent(0, 0, Tag::user(6, 6));
    checker.packet_delivered(0, 0, Tag::user(6, 6));
    checker.check_quiescent("teardown", None);
    assert!(checker_codes(collector).is_empty());
}

#[test]
fn checker_events_name_their_violation_in_exports() {
    let (collector, checker) = traced_checker();
    let _ = catch_unwind(AssertUnwindSafe(|| {
        checker.packet_delivered(0, 0, Tag::user(9, 9));
    }));
    let log = collector.collect();
    let json = log.to_chrome_json();
    assert!(
        json.contains("checker:phantom_delivery"),
        "chrome export should carry the human-readable violation label"
    );
    assert!(log.to_jsonl().contains("checker:phantom_delivery"));
}
