//! pgxd-analyze: dependency-free static analysis for the pgxd runtime.
//!
//! Three passes over `crates/pgxd/src`, `crates/core/src`, and
//! `crates/algos/src` (minus the `sync.rs` shim, the one module that
//! implements the primitives the others call):
//!
//! 1. **wait-graph** — barrier/send/recv sites per §IV step with
//!    asymmetric-barrier and recv-without-send shape checks (see
//!    [`waitgraph`]), following calls through one [`CallGraph`].
//! 2. **atomics-ordering** — no `Relaxed` publication in the
//!    cursor files without an inline justification (see
//!    [`atomics`]).
//! 3. **loop-discipline** — unbounded collection growth inside recv/poll
//!    loops; never excusable (see [`loopdisc`]).
//!
//! What the runtime can check where it runs is not a pass. Lock discipline
//! is `pgxd::sync`'s one-guard rule, checked in every debug build: a
//! second lock, a fabric send or receive, a barrier wait or a task join
//! under a guard panics. Allocation on the data plane is bounded by the
//! memtrack tests (`alloc_regression.rs`, `alloc_step_path.rs`,
//! `alloc_kernels.rs`). Chunk custody is rustc's move check: a chunk is a
//! pair of `Vec`s moved from sender to receiver.
//!
//! Inline `analyze: allow(atomics-ordering): <reason>` markers cover
//! atomics-ordering findings, and a marker that covers nothing is itself
//! a finding (see [`markers`]).
//!
//! Everything is built on a hand-rolled lexer (no `syn`), so the crate
//! compiles offline with no dependencies, like the rest of the workspace.
//! The source policy (the `unsafe` allowlist, `// SAFETY:` comments, the
//! sync shim) is not here: rustc and clippy enforce it from the manifests,
//! and the bin's tests (`tests/policy/mod.rs`) plant one row per rule.

pub mod analysis;
pub mod atomics;
pub mod items;
pub mod lexer;
pub mod loopdisc;
pub mod markers;
pub mod report;
pub mod waitgraph;

use std::path::{Path, PathBuf};
use std::time::Instant;

pub use analysis::CallGraph;
pub use atomics::analyze_atomics;
pub use items::{parse_file, ParsedFile};
pub use loopdisc::{analyze_loops, LoopSite};
pub use markers::apply_markers;
pub use report::{render_human, render_json, Finding, Report};
pub use waitgraph::analyze_waitgraph;

/// Source roots collected by [`analyze_workspace`], workspace-relative.
pub const ANALYZED_ROOTS: &[&str] = &["crates/pgxd/src", "crates/core/src", "crates/algos/src"];

/// The sync shim: excluded from analysis — it is the one place allowed to
/// touch the real primitives, and its queue is the fabric the passes
/// model, not a participant in it.
pub const SHIM_FILE: &str = "crates/pgxd/src/sync.rs";

/// Runs the three analyses over in-memory sources.
///
/// `sources` is `(workspace-relative path, contents)`. Each pass is
/// self-timed; the timings land in [`Report::timings_ms`] for the `--json`
/// stdout path (the persisted report nulls them out — see `src/main.rs`).
pub fn analyze_sources(sources: &[(String, String)]) -> Report {
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
    let wait = analyze_waitgraph(&files, &graph);
    let mut findings = wait.findings;
    timed("wait-graph", t0, &mut timings);
    let t0 = Instant::now();
    findings.extend(analyze_atomics(&files));
    timed("atomics-ordering", t0, &mut timings);
    let t0 = Instant::now();
    let loops = analyze_loops(&files);
    findings.extend(loops.findings);
    timed("loop-discipline", t0, &mut timings);
    Report {
        findings: apply_markers(&files, findings),
        wait_ops: wait.ops,
        step_edges: wait.edges,
        loop_sites: loops.sites,
        timings_ms: timings,
    }
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

/// Runs the analyses over [`workspace_sources`].
pub fn analyze_workspace(root: &Path) -> std::io::Result<Report> {
    Ok(analyze_sources(&workspace_sources(root)?))
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
        // An accumulate-only receive loop, a loop-discipline finding in
        // any other file.
        let pump = "impl Q { fn pump(&mut self) { loop { let v = self.rx.recv_packet(); self.all.push(v); } } }";
        let at = |rel: &str| analyze_sources(&[(rel.to_string(), pump.to_string())]);
        assert!(!at("crates/pgxd/src/comm.rs").is_clean());
        let shim = at(SHIM_FILE);
        assert!(shim.is_clean(), "{:?}", shim.findings);
        assert!(shim.loop_sites.is_empty());
    }
}
