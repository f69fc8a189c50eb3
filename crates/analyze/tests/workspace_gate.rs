//! The analyzer gate over the real workspace. The must-fail table at the
//! end plants known defects into the real sources, in memory, and requires
//! each to fail.

use std::path::Path;

use pgxd_analyze::{analyze_sources, analyze_workspace, workspace_sources};

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
    // The lock pass still sees the runtime's shared locks.
    for lock in ["ProtocolChecker::ledger", "MachineTrace::sink", "ClusterBarrier::state"] {
        assert!(r.graph_nodes.contains(&lock.to_string()), "{lock}: {:?}", r.graph_nodes);
    }
}

/// The v2 inventories over the real tree: if a refactor renames the sort
/// driver or the exchange's send/recv sites out of the analyzer's sight,
/// the new passes silently go blind — this pins the coverage floor.
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
}

/// The canonical acquisition order documented in DESIGN.md, checked
/// structurally: every edge goes forward in the order, so the graph cannot
/// have a cycle among the named runtime locks.
#[test]
fn canonical_lock_order_holds() {
    let order = ["ProtocolChecker::ledger", "MachineTrace::sink"];
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

/// The v3 inventories over the real tree: hot regions and recv loops must
/// keep covering the runtime. If a rename moves the exchange's chunk path,
/// the fabric surface, or a receive pump out of the analyzer's sight,
/// these floors fail before the passes silently go blind.
#[test]
fn v3_inventories_cover_the_runtime() {
    let r = analyze_workspace(root()).expect("workspace sources readable");
    // Every root class is populated: the sort kernels, the exchange's
    // chunk path, the fabric send/recv surface, and the trace and counter
    // emit paths.
    for kind in ["kernel", "exchange", "fabric", "metrics-emit", "trace-emit"] {
        assert!(r.hot_regions.iter().any(|h| h.kind == kind), "no {kind} roots: {:?}", r.hot_regions);
    }
    // The chunk path is the innermost loops of the one exchange: the
    // self copy, the per-range send, and the receive loop.
    let exchange: Vec<&str> = r
        .hot_regions
        .iter()
        .filter(|h| h.kind == "exchange")
        .map(|h| h.name.as_str())
        .collect();
    assert_eq!(exchange, ["MachineCtx::exchange_into"; 3], "{:?}", r.hot_regions);
    // Step bodies are not roots.
    assert!(r.hot_regions.iter().all(|h| !h.name.starts_with("step:")));
    // The fabric's receive pumps are inventoried as recv loops.
    assert!(r.loop_sites.iter().any(|s| s.file.ends_with("comm.rs")), "{:?}", r.loop_sites);
}

/// Known defects, each planted into the real sources in memory: `(file,
/// anchor, replacement, rule, message fragment)`. An empty anchor adds
/// `file` as a new source holding the replacement; otherwise the first
/// `anchor` in `file` is replaced. Every row must produce a finding of
/// `rule` whose message contains the fragment.
const MUST_FAIL: &[(&str, &str, &str, &str, &str)] = &[
    (
        "crates/pgxd/src/injected.rs",
        "",
        include_str!("fixtures/fail_lock_cycle.rs"),
        "lock-order",
        "InjCyclePool::inj_ring -> InjCyclePool::inj_slab",
    ),
    (
        "crates/pgxd/src/injected.rs",
        "",
        include_str!("fixtures/fail_barrier_asym.rs"),
        "wait-graph",
        "barrier entered on one arm",
    ),
    // A machine-level receive that nothing in its call closure feeds.
    (
        "crates/pgxd/src/machine.rs",
        "impl MachineCtx {",
        "impl MachineCtx {\n    pub fn inj_sink(&mut self) -> Vec<u64> { self.comm.recv_vec::<u64>(Tag::user(9, 9)).1 }",
        "wait-graph",
        "`MachineCtx::inj_sink` receives via `recv_vec`",
    ),
    (
        "crates/pgxd/src/injected.rs",
        "",
        include_str!("fixtures/fail_relaxed_seqlock.rs"),
        "atomics-ordering",
        "inj_payload.store",
    ),
    // The comm counters are Relaxed by policy, but every site says why.
    (
        "crates/pgxd/src/metrics.rs",
        "impl Counter {",
        "impl Counter {\n    pub fn unannotated(&self) -> u64 { self.cell.load(Ordering::Relaxed) }",
        "atomics-ordering",
        "cell.load",
    ),
    (
        "crates/pgxd/src/injected.rs",
        "",
        include_str!("fixtures/fail_unbounded_recv_push.rs"),
        "loop-discipline",
        "grows without bound",
    ),
    // A copy per range on the exchange's chunk path.
    (
        "crates/pgxd/src/machine.rs",
        "let slice = &data[send_offsets[i]..send_offsets[i + 1]];",
        "let slice = &data[send_offsets[i]..send_offsets[i + 1]]; let _inj = data.to_vec();",
        "hot-path-alloc",
        "in `MachineCtx::exchange_into`",
    ),
    // PR 10's catch: an `Arc` clone on every receive.
    (
        "crates/pgxd/src/comm.rs",
        "if let Some(f) = self.sender.fault.as_ref() {",
        "if let Some(f) = self.sender.fault.clone() {",
        "hot-path-alloc",
        "in `CommManager::recv_packet`",
    ),
    // A marker for a deleted pass covers nothing.
    (
        "crates/pgxd/src/comm.rs",
        "    fn send_packet(",
        "    // analyze: allow(panic-surface): dst is a machine id < p\n    fn send_packet(",
        "dead-marker",
        "no pass reads `allow(panic-surface)` inline",
    ),
];

#[test]
fn planted_defects_fail_the_gate() {
    let base = workspace_sources(root()).expect("workspace sources readable");
    let allow = std::fs::read_to_string(root().join("analyze.allow")).unwrap_or_default();
    for &(file, anchor, replacement, rule, fragment) in MUST_FAIL {
        let mut sources = base.clone();
        if anchor.is_empty() {
            sources.push((file.to_string(), replacement.to_string()));
        } else {
            let (_, src) = sources.iter_mut().find(|(rel, _)| rel == file).expect(file);
            assert!(src.contains(anchor), "anchor `{anchor}` gone from {file}");
            *src = src.replacen(anchor, replacement, 1);
        }
        let r = analyze_sources(&sources, &allow, "analyze.allow");
        assert!(
            r.findings.iter().any(|f| f.rule == rule && f.message.contains(fragment)),
            "planting `{replacement}` into {file} must raise [{rule}] `{fragment}`; got:\n{}",
            pgxd_analyze::render_human(&r)
        );
    }
}
