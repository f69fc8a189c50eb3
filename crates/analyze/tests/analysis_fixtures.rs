//! Fixture corpus assertions: each should-fail fixture produces exactly
//! the expected findings (file:line), and each should-pass fixture comes
//! back clean.

use pgxd_analyze::{analyze_sources, Report};

fn run(name: &str, src: &str, allow: &str) -> Report {
    analyze_sources(&[(name.to_string(), src.to_string())], allow, "analyze.allow")
}

#[test]
fn lock_cycle_across_two_fns() {
    let src = include_str!("fixtures/fail_lock_cycle.rs");
    let r = run("fail_lock_cycle.rs", src, "");
    assert!(!r.is_clean());
    assert_eq!(
        r.cycles,
        [[
            "InjCyclePool::inj_ring",
            "InjCyclePool::inj_slab",
            "InjCyclePool::inj_ring"
        ]]
    );

    let mut sites: Vec<(String, usize, String)> = r
        .findings
        .iter()
        .filter(|f| f.rule == "blocking-under-lock")
        .map(|f| (f.file.clone(), f.line, f.operation.clone()))
        .collect();
    sites.sort();
    assert_eq!(
        sites,
        [
            ("fail_lock_cycle.rs".to_string(), 16, "lock(InjCyclePool::inj_slab)".to_string()),
            ("fail_lock_cycle.rs".to_string(), 22, "lock(InjCyclePool::inj_ring)".to_string()),
        ]
    );

    let cycle = r
        .findings
        .iter()
        .find(|f| f.rule == "lock-order")
        .expect("cycle finding");
    assert!(cycle.message.contains("InjCyclePool::inj_ring -> InjCyclePool::inj_slab"));
    // The provenance chain names both closing edges with file:line.
    assert!(cycle.chain.iter().any(|s| s.contains("fail_lock_cycle.rs:16")), "{:?}", cycle.chain);
    assert!(cycle.chain.iter().any(|s| s.contains("fail_lock_cycle.rs:22")), "{:?}", cycle.chain);
}

#[test]
fn blocking_recv_through_helper() {
    let src = include_str!("fixtures/fail_blocking_recv.rs");
    let r = run("fail_blocking_recv.rs", src, "");
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule, "blocking-under-lock");
    assert_eq!((f.file.as_str(), f.line), ("fail_blocking_recv.rs", 9));
    assert_eq!(f.operation, "recv");
    assert_eq!(f.held.as_deref(), Some("InjDrain::inj_state"));
    assert_eq!(f.chain, ["InjDrain::pump"]);
    assert!(r.cycles.is_empty());
}

#[test]
fn allowlisted_site_passes_and_entry_is_not_stale() {
    let src = include_str!("fixtures/pass_allowlisted.rs");
    // Without the entry: one finding.
    let bare = run("pass_allowlisted.rs", src, "");
    assert_eq!(bare.findings.len(), 1);
    assert_eq!(bare.findings[0].operation, "send");
    let key = bare.findings[0].key();
    assert_eq!(
        key,
        "blocking-under-lock | pass_allowlisted.rs | InjFlusher::flush | InjFlusher::inj_state | send"
    );
    // With a justified entry: clean, finding moved to `allowlisted`.
    let allow = format!("# the flush channel is unbounded; send cannot block\n{key}\n");
    let r = run("pass_allowlisted.rs", src, &allow);
    assert!(r.is_clean(), "{:?}", r.findings);
    assert_eq!(r.allowlisted.len(), 1);
}

#[test]
fn block_scoped_guards_do_not_leak() {
    let src = include_str!("fixtures/pass_block_scoped.rs");
    let r = run("pass_block_scoped.rs", src, "");
    assert!(r.is_clean(), "{:?}", r.findings);
    assert!(r.graph_edges.is_empty());
}

#[test]
fn asymmetric_barrier_entry_names_the_branch() {
    let src = include_str!("fixtures/fail_barrier_asym.rs");
    let r = run("fail_barrier_asym.rs", src, "");
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
    let r = run("fail_relaxed_seqlock.rs", src, "");
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
fn hotpath_alloc_chain_names_every_hop() {
    let src = include_str!("fixtures/fail_hotpath_alloc_chain.rs");
    let r = run("fail_hotpath_alloc_chain.rs", src, "");
    assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!(f.rule, "hot-path-alloc");
    assert_eq!((f.file.as_str(), f.line), ("fail_hotpath_alloc_chain.rs", 19));
    assert_eq!(f.operation, "alloc(to_vec)");
    assert_eq!(f.function, "InjShipper::inj_pack");
    // Root-to-site provenance: the hot root, then each call hop.
    assert!(f.chain[0].contains("InjShipper::hot_drive"), "{:?}", f.chain);
    assert_eq!(
        f.chain[1..],
        ["InjShipper::inj_ship".to_string(), "InjShipper::inj_pack".to_string()]
    );
    // The root itself lands in the inventory.
    assert!(
        r.hot_regions.iter().any(|h| h.name == "InjShipper::hot_drive" && h.line == 10),
        "{:?}",
        r.hot_regions
    );
}

#[test]
fn hotpath_setup_alloc_is_clean() {
    let src = include_str!("fixtures/pass_hotpath_setup_alloc.rs");
    let r = run("pass_hotpath_setup_alloc.rs", src, "");
    assert!(r.is_clean(), "{:?}", r.findings);
    // The kernel root is inventoried even though nothing is flagged.
    assert!(r.hot_regions.iter().any(|h| h.name.contains("hot_kernel")), "{:?}", r.hot_regions);
}

#[test]
fn unbounded_recv_push_cannot_be_silenced() {
    let src = include_str!("fixtures/fail_unbounded_recv_push.rs");
    // The fixture carries an inline allow marker on the push line; it
    // must not cover structural growth, so the marker itself is dead.
    let r = run("fail_unbounded_recv_push.rs", src, "");
    let rules: Vec<&str> = r.findings.iter().map(|f| f.rule.as_str()).collect();
    assert_eq!(rules, ["loop-discipline", "dead-marker"], "{:?}", r.findings);
    let f = &r.findings[0];
    assert_eq!((f.file.as_str(), f.line), ("fail_unbounded_recv_push.rs", 12));
    assert_eq!(f.operation, "unbounded-growth(push:self.backlog)");
    assert!(f.chain[0].contains("fail_unbounded_recv_push.rs:9"), "{:?}", f.chain);
    assert_eq!(r.findings[1].line, 11);
    // An analyze.allow entry must not silence it either.
    let allow = format!("# cannot happen\n{}\n", f.key());
    let still = run("fail_unbounded_recv_push.rs", src, &allow);
    assert!(
        still.findings.iter().any(|f| f.operation.starts_with("unbounded-growth(")),
        "{:?}",
        still.findings
    );
}

#[test]
fn dead_markers_are_findings() {
    let src = include_str!("fixtures/fail_dead_markers.rs");
    let r = run("fail_dead_markers.rs", src, "");
    let dead: Vec<(usize, &str)> = r
        .findings
        .iter()
        .map(|f| (f.line, f.operation.as_str()))
        .collect();
    assert_eq!(
        dead,
        [
            (9, "allow(blocking-under-lock)"),
            (14, "allow(panic-surface)"),
            (20, "allow(atomics-ordering)"),
            (27, "allow(hot-path-alloc)"),
        ],
        "{:?}",
        r.findings
    );
    assert!(r.findings.iter().all(|f| f.rule == "dead-marker"));
    let why = |line: usize| &r.findings.iter().find(|f| f.line == line).unwrap().message;
    assert!(why(9).contains("no pass reads `allow(blocking-under-lock)` inline"), "{}", why(9));
    assert!(why(20).contains("outside the atomics-ordering scope"), "{}", why(20));
    assert!(why(27).contains("covers no hot-path-alloc finding"), "{}", why(27));
    // Like a stale allowlist entry, a dead marker is deleted, not excused.
    let allow = format!("# keep it\n{}\n", r.findings[0].key());
    let still = run("fail_dead_markers.rs", src, &allow);
    assert!(still.findings.iter().any(|f| f.line == 9 && f.rule == "dead-marker"));
}
