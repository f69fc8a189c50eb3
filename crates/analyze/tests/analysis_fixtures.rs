//! Fixture corpus assertions: each should-fail fixture produces exactly
//! the expected findings (file:line).

use pgxd_analyze::{analyze_sources, Report};

fn run(name: &str, src: &str) -> Report {
    analyze_sources(&[(name.to_string(), src.to_string())])
}

#[test]
fn asymmetric_barrier_entry_names_the_branch() {
    let src = include_str!("fixtures/fail_barrier_asym.rs");
    let r = run("fail_barrier_asym.rs", src);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule, "wait-graph");
    assert_eq!(f.operation, "asymmetric-barrier");
    // Line 17 is the barrier call; the chain carries the branch at 16.
    assert_eq!((f.file.as_str(), f.line), ("fail_barrier_asym.rs", 17));
    assert_eq!(f.chain, ["branch at fail_barrier_asym.rs:16"]);
    // The barrier site itself still lands in the wait-op inventory.
    assert!(r.wait_ops.iter().any(|o| o.line == 17), "{:?}", r.wait_ops);
}

#[test]
fn relaxed_seqlock_publication_is_flagged() {
    let src = include_str!("fixtures/fail_relaxed_seqlock.rs");
    let r = run("fail_relaxed_seqlock.rs", src);
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule, "atomics-ordering");
    assert_eq!((f.file.as_str(), f.line), ("fail_relaxed_seqlock.rs", 15));
    assert_eq!(f.operation, "store(Relaxed)");
    assert!(f.message.contains("inj_payload.store"), "{}", f.message);
    // The Release version bump on line 16 is fine.
    assert!(!r.findings.iter().any(|f| f.line == 16));
}

#[test]
fn unbounded_recv_push_cannot_be_silenced() {
    let src = include_str!("fixtures/fail_unbounded_recv_push.rs");
    // The fixture carries an inline allow marker on the push line; it
    // must not cover structural growth, so the marker itself is dead.
    let r = run("fail_unbounded_recv_push.rs", src);
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, ["loop-discipline", "dead-marker"], "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!((f.file.as_str(), f.line), ("fail_unbounded_recv_push.rs", 12));
    assert_eq!(f.operation, "unbounded-growth(push:self.backlog)");
    assert!(f.chain[0].contains("fail_unbounded_recv_push.rs:9"), "{:?}", f.chain);
    assert_eq!(r.findings[1].line, 11);
}

#[test]
fn dead_markers_are_findings() {
    let src = include_str!("fixtures/fail_dead_markers.rs");
    let r = run("fail_dead_markers.rs", src);
    let dead: Vec<(usize, &str)> = r
        .findings
        .iter()
        .map(|f| (f.line, f.operation.as_str()))
        .collect();
    assert_eq!(
        dead,
        [
            (7, "allow(blocking-under-lock)"),
            (12, "allow(panic-surface)"),
            (18, "allow(atomics-ordering)"),
            (23, "allow(hot-path-alloc)"),
        ],
        "{:?}",
        r.findings
    );
    assert!(r.findings.iter().all(|f| f.rule == "dead-marker"));
    let why = |line: usize| &r.findings.iter().find(|f| f.line == line).unwrap().message;
    assert!(why(7).contains("no pass reads `allow(blocking-under-lock)` inline"), "{}", why(7));
    assert!(why(18).contains("outside the atomics-ordering scope"), "{}", why(18));
    assert!(why(23).contains("no pass reads `allow(hot-path-alloc)` inline"), "{}", why(23));
}
