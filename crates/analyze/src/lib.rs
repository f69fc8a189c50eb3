//! pgxd-analyze: dependency-free static analysis for the pgxd runtime.
//!
//! Six passes over `crates/pgxd/src`, `crates/core/src`, and
//! `crates/algos/src` (minus the `sync.rs` shim, which is the sanctioned
//! boundary to the real primitives):
//!
//! 1. **lock-order** — every guard acquisition through `pgxd::sync`
//!    (`.lock()`/`.read()`/`.write()` with empty parens) becomes a node;
//!    acquiring one lock while another is live (directly or through any
//!    resolved call chain) becomes an edge; cycles fail the build with the
//!    full acquisition chain.
//! 2. **blocking-under-lock** — barrier/condvar waits, channel send/recv,
//!    semaphore-style `acquire`, and joins reachable while a guard is live are
//!    findings unless `analyze.allow` carries a justified entry.
//! 3. **wait-graph** — barrier/send/recv sites per §IV step with
//!    asymmetric-barrier and recv-without-send shape checks (see
//!    [`waitgraph`]).
//! 4. **atomics-ordering** — no `Relaxed` publication in the
//!    cursor files without an inline justification (see
//!    [`atomics`]).
//! 5. **hot-path-alloc** — heap allocations reachable from the
//!    per-element data plane (the local-sort kernels and request buffer,
//!    the exchange's chunk path, the fabric's send/recv, the trace and
//!    counter emits) through the resolved call graph, with the full
//!    root-to-site chain (see [`hotpath`]).
//! 6. **loop-discipline** — unbounded collection growth inside recv/poll
//!    loops; never allowlistable (see [`loopdisc`]).
//!
//! Passes 1, 2, 3 and 5 follow calls through one [`CallGraph`], built
//! once per run. Chunk custody is not a pass: a chunk is a pair of
//! `Vec`s moved from sender to receiver, so rustc's move check is its
//! rule.
//!
//! Inline `analyze: allow(<rule>): <reason>` markers cover
//! atomics-ordering and hot-path-alloc findings, and a marker that covers
//! nothing is itself a finding (see [`markers`]).
//!
//! Everything is built on a hand-rolled lexer (no `syn`), so the crate
//! compiles offline with no dependencies, like the rest of the workspace.
//! The source policy (the `unsafe` allowlist, `// SAFETY:` comments, the
//! sync shim) is not here: rustc and clippy enforce it from the manifests,
//! and the bin's tests (`tests/policy/mod.rs`) plant one row per rule.

pub mod analysis;
pub mod atomics;
pub mod hotpath;
pub mod items;
pub mod lexer;
pub mod loopdisc;
pub mod markers;
pub mod report;
pub mod waitgraph;

use std::path::{Path, PathBuf};
use std::time::Instant;

pub use analysis::{analyze_locks, AnalysisResult, CallGraph, Edge, LockGraph};
pub use atomics::analyze_atomics;
pub use hotpath::{analyze_hotpath, HotRegion};
pub use items::{parse_file, ParsedFile};
pub use loopdisc::{analyze_loops, LoopSite};
pub use markers::apply_markers;
pub use report::{
    apply_allowlist, parse_allowlist, render_human, render_json, Finding, Report,
};
pub use waitgraph::analyze_waitgraph;

/// Source roots collected by [`analyze_workspace`], workspace-relative.
pub const ANALYZED_ROOTS: &[&str] = &["crates/pgxd/src", "crates/core/src", "crates/algos/src"];

/// The sync shim: excluded from analysis — it is the one place allowed to
/// touch the real primitives, and its internals (loom vs std) are not
/// runtime lock structure.
pub const SHIM_FILE: &str = "crates/pgxd/src/sync.rs";

/// Runs all six analyses over in-memory sources.
///
/// `sources` is `(workspace-relative path, contents)`. `allow_text` is the
/// contents of `analyze.allow` (empty string for none). Each pass is
/// self-timed; the timings land in [`Report::timings_ms`] for the `--json`
/// stdout path (the persisted report nulls them out — see `src/main.rs`).
pub fn analyze_sources(sources: &[(String, String)], allow_text: &str, allow_path: &str) -> Report {
    let files: Vec<ParsedFile> = sources
        .iter()
        .filter(|(rel, _)| !rel.ends_with(SHIM_FILE) && rel.as_str() != SHIM_FILE)
        .map(|(rel, src)| parse_file(rel, src))
        .collect();
    let mut timings: Vec<(String, u64)> = Vec::new();
    let timed = |name: &str, t0: Instant, timings: &mut Vec<(String, u64)>| {
        timings.push((name.to_string(), t0.elapsed().as_millis() as u64));
    };
    let t0 = Instant::now();
    let graph = CallGraph::build(&files);
    timed("call-graph", t0, &mut timings);
    let t0 = Instant::now();
    let mut result = analyze_locks(&graph);
    timed("lock-order+blocking-under-lock", t0, &mut timings);
    let t0 = Instant::now();
    let wait = analyze_waitgraph(&files, &graph);
    result.findings.extend(wait.findings);
    timed("wait-graph", t0, &mut timings);
    let t0 = Instant::now();
    result.findings.extend(analyze_atomics(&files));
    timed("atomics-ordering", t0, &mut timings);
    let t0 = Instant::now();
    let hot = analyze_hotpath(&files, &graph);
    result.findings.extend(hot.findings);
    timed("hot-path-alloc", t0, &mut timings);
    let t0 = Instant::now();
    let loops = analyze_loops(&files);
    result.findings.extend(loops.findings);
    timed("loop-discipline", t0, &mut timings);
    result.findings = apply_markers(&files, std::mem::take(&mut result.findings));
    let entries = parse_allowlist(allow_text);
    let mut report = apply_allowlist(result, &entries, allow_path);
    report.wait_ops = wait.ops;
    report.step_edges = wait.edges;
    report.hot_regions = hot.regions;
    report.loop_sites = loops.sites;
    report.timings_ms = timings;
    report
}

/// Reads the runtime sources under [`ANALYZED_ROOTS`] as
/// `(workspace-relative path, contents)`, sorted by path.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<(String, String)>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    for sub in ANALYZED_ROOTS {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs(&dir, &mut paths)?;
        }
    }
    paths.sort();
    let mut sources = Vec::new();
    for p in paths {
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        sources.push((rel, std::fs::read_to_string(&p)?));
    }
    Ok(sources)
}

/// Runs the analyses over [`workspace_sources`] with `root/analyze.allow`
/// (missing file = empty allowlist).
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    let sources = workspace_sources(root)?;
    let allow_text = std::fs::read_to_string(root.join("analyze.allow")).unwrap_or_default();
    Ok(analyze_sources(&sources, &allow_text, "analyze.allow"))
}

/// Appends every `.rs` file under `dir` to `out`, recursively, skipping
/// `target` and hidden directories.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shim_is_excluded() {
        let sources = vec![
            (
                "crates/pgxd/src/sync.rs".to_string(),
                "impl Mutex { fn f(&self) { let a = self.x.lock(); let b = self.y.lock(); } }".to_string(),
            ),
        ];
        let r = analyze_sources(&sources, "", "analyze.allow");
        assert!(r.is_clean());
        assert!(r.graph_nodes.is_empty());
    }
}
