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
fn workspace_is_clean() {
    let r = analyze_workspace(root()).expect("workspace sources readable");
    assert!(
        r.is_clean(),
        "analyzer findings on the workspace:\n{}",
        pgxd_analyze::render_human(&r)
    );
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

/// The v3 inventory over the real tree: if a rename moves a receive pump
/// out of the analyzer's sight, this floor fails before the
/// loop-discipline pass silently goes blind.
#[test]
fn v3_inventories_cover_the_runtime() {
    let r = analyze_workspace(root()).expect("workspace sources readable");
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
    // A marker for a deleted pass covers nothing.
    (
        "crates/pgxd/src/comm.rs",
        "    fn send_packet(",
        "    // analyze: allow(panic-surface): dst is a machine id < p\n    fn send_packet(",
        "dead-marker",
        "no pass reads `allow(panic-surface)` inline",
    ),
    (
        "crates/algos/src/merge.rs",
        "pub fn merge_into<",
        "// analyze: allow(hot-path-alloc): the memtrack tests bound it now\npub fn merge_into<",
        "dead-marker",
        "no pass reads `allow(hot-path-alloc)` inline",
    ),
];

#[test]
fn planted_defects_fail_the_gate() {
    let base = workspace_sources(root()).expect("workspace sources readable");
    for &(file, anchor, replacement, rule, fragment) in MUST_FAIL {
        let mut sources = base.clone();
        if anchor.is_empty() {
            sources.push((file.to_string(), replacement.to_string()));
        } else {
            let (_, src) = sources.iter_mut().find(|(rel, _)| rel == file).expect(file);
            assert!(src.contains(anchor), "anchor `{anchor}` gone from {file}");
            *src = src.replacen(anchor, replacement, 1);
        }
        let r = analyze_sources(&sources);
        assert!(
            r.findings.iter().any(|f| f.rule == rule && f.message.contains(fragment)),
            "planting `{replacement}` into {file} must raise [{rule}] `{fragment}`; got:\n{}",
            pgxd_analyze::render_human(&r)
        );
    }
}
