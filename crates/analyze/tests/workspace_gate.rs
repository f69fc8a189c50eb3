//! The analyzer gate over the real workspace, plus the regression guard
//! for the PR 3 review race: `ChunkPool::acquire`/`release` may touch the
//! checker ledger while a shard guard is held (that ordering is the fix),
//! but must never reach a communication or barrier primitive from inside
//! the critical section.

use std::path::Path;

use pgxd_analyze::analyze_workspace;

fn root() -> &'static Path {
    // crates/analyze -> workspace root
    Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap()
}

#[test]
fn workspace_is_clean_and_acyclic() {
    let r = analyze_workspace(root()).expect("workspace sources readable");
    assert!(
        r.is_clean(),
        "analyzer findings on the workspace:\n{}",
        pgxd_analyze::render_human(&r)
    );
    assert!(r.cycles.is_empty());
    // The canonical order is a DAG rooted at the pool shard locks.
    assert!(r.graph_nodes.contains(&"ChunkPool::shards".to_string()));
}

/// The fixed ordering from the PR 3 review: ledger hooks run inside the
/// shard critical section — and nothing else does. Every operation the
/// allowlist admits under a shard guard is a leaf lock acquisition; if a
/// send/recv/wait/join/acquire ever becomes reachable there, this fails
/// even if someone allowlists it.
#[test]
fn pool_critical_sections_never_block_on_comm_or_barriers() {
    let r = analyze_workspace(root()).expect("workspace sources readable");
    for f in r.findings.iter().chain(r.allowlisted.iter()) {
        if f.held.as_deref() == Some("ChunkPool::shards") {
            assert!(
                f.operation.starts_with("lock("),
                "blocking primitive `{}` reachable under a shard guard at {}:{} (via {:?})",
                f.operation,
                f.file,
                f.line,
                f.chain
            );
            assert!(
                !f.chain.iter().any(|c| c.contains("CommSender") || c.contains("barrier")),
                "pool critical section reaches comm/barrier code: {:?}",
                f.chain
            );
        }
    }
    // The ordering itself: the ledger hooks ARE under the shard guard
    // (regression guard for the custody race — if someone "fixes" the
    // analyzer findings by moving them back outside, this fails).
    let keys: Vec<String> = r.allowlisted.iter().map(|f| f.key()).collect();
    for expected in [
        "blocking-under-lock | crates/pgxd/src/pool.rs | ChunkPool::acquire | ChunkPool::shards | lock(ProtocolChecker::ledger)",
        "blocking-under-lock | crates/pgxd/src/pool.rs | ChunkPool::acquire | ChunkPool::shards | lock(ChunkPool::known_caps)",
        "blocking-under-lock | crates/pgxd/src/pool.rs | ChunkPool::release_impl | ChunkPool::shards | lock(ProtocolChecker::ledger)",
        "blocking-under-lock | crates/pgxd/src/pool.rs | ChunkPool::drop | ChunkPool::shards | lock(ProtocolChecker::ledger)",
    ] {
        assert!(
            keys.contains(&expected.to_string()),
            "expected allowlisted hook missing: {expected}\nhave: {keys:#?}"
        );
    }
}

/// The v2 inventories over the real tree: if a refactor renames the sort
/// driver or the pool entry points out of the analyzer's sight, the new
/// passes silently go blind — this pins the coverage floor.
#[test]
fn v2_inventories_cover_the_runtime() {
    let r = analyze_workspace(root()).expect("workspace sources readable");
    // Wait-graph: the cluster barrier and the exchange send/recv sites
    // are all visible.
    assert!(
        r.wait_ops.iter().any(|o| o.file.ends_with("machine.rs") && o.callee == "wait"),
        "{:?}",
        r.wait_ops
    );
    assert!(r.wait_ops.iter().any(|o| o.callee.starts_with("send_")));
    assert!(r.wait_ops.iter().any(|o| o.callee.starts_with("recv_")));
    // The one §IV driver traverses the full step sequence in order, and
    // nothing else in the tree opens a step-to-step edge.
    let seq: Vec<(&str, &str, &str)> = r
        .step_edges
        .iter()
        .map(|e| (e.function.as_str(), e.from.as_str(), e.to.as_str()))
        .collect();
    let driver = "DistSorter::sort_batches";
    assert_eq!(
        seq,
        [
            (driver, "local_sort", "sampling"),
            (driver, "sampling", "splitters"),
            (driver, "splitters", "partition"),
            (driver, "partition", "exchange"),
            (driver, "exchange", "final_merge"),
        ],
        "step sequence drifted"
    );
    // Custody: the pooled local-sort buffer is tracked through the
    // custody-returning driver into its caller.
    assert!(r.custody.custody_fns.iter().any(|f| f == "run_local_sort"), "{:?}", r.custody);
    assert!(r.custody.acquire_sites >= 3, "{:?}", r.custody);
    assert!(r.custody.tracked_bindings >= r.custody.acquire_sites, "{:?}", r.custody);
}

/// The canonical acquisition order documented in DESIGN.md, checked
/// structurally: every edge goes forward in the order, so the graph cannot
/// have a cycle among the named runtime locks.
#[test]
fn canonical_lock_order_holds() {
    let order = [
        "ChunkPool::shards",
        "ChunkPool::known_caps",
        "ProtocolChecker::ledger",
        "ProtocolChecker::traces",
        "NameTable::names",
    ];
    let rank = |n: &str| order.iter().position(|o| *o == n);
    let r = analyze_workspace(root()).expect("workspace sources readable");
    for e in &r.graph_edges {
        if let (Some(a), Some(b)) = (rank(&e.from), rank(&e.to)) {
            assert!(
                a < b,
                "edge {} -> {} at {}:{} violates the canonical order",
                e.from,
                e.to,
                e.file,
                e.line
            );
        }
    }
}

/// The v3 inventories over the real tree: hot regions, loop sites, and
/// nondeterminism sources must keep covering the runtime. If a rename
/// moves the §IV steps, the fabric surface, or the replay-critical
/// wall-clock reads out of the analyzer's sight, these floors fail
/// before the passes silently go blind.
#[test]
fn v3_inventories_cover_the_runtime() {
    let r = analyze_workspace(root()).expect("workspace sources readable");
    // One hot region per §IV step, in order, all six in the file of the
    // one driver (`v2_inventories_cover_the_runtime` pins the function).
    let steps: Vec<(&str, bool)> = r
        .hot_regions
        .iter()
        .filter(|h| h.kind == "step")
        .map(|h| (h.name.as_str(), h.file.ends_with("core/src/sorter.rs")))
        .collect();
    assert_eq!(
        steps,
        [
            ("step:local_sort", true),
            ("step:sampling", true),
            ("step:splitters", true),
            ("step:partition", true),
            ("step:exchange", true),
            ("step:final_merge", true),
        ]
    );
    // Every root class is populated: the sort kernels, the fabric
    // send/recv surface, and the trace and counter emit paths.
    for kind in ["kernel", "fabric", "exchange", "metrics-emit", "trace-emit"] {
        assert!(r.hot_regions.iter().any(|h| h.kind == kind), "no {kind} roots: {:?}", r.hot_regions);
    }
    // The fabric's receive pumps are inventoried as recv-loops.
    assert!(
        r.loop_sites.iter().any(|s| s.file.ends_with("comm.rs") && s.kind == "recv-loop"),
        "{:?}",
        r.loop_sites
    );
    // The barrier-timeout wall-clock reads are annotated (so not
    // findings — the workspace is clean) but stay in the audit
    // inventory: determinism sources never disappear behind a marker.
    let fault_instants = r
        .nondet_sources
        .iter()
        .filter(|s| s.file.ends_with("fault.rs") && s.kind == "instant-now")
        .count();
    assert!(fault_instants >= 2, "{:?}", r.nondet_sources);
}
