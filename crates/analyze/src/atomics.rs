//! Atomics-ordering lint (`atomics-ordering`).
//!
//! The trace layer's seqlock rings (`trace.rs`) and the pool / checker
//! cursors publish data across threads: the discipline is that every
//! *publication* store is `Release` and every consuming load is
//! `Acquire` (or stronger), so a reader that observes the version/cursor
//! also observes the data written before it. `Relaxed` is only sound for
//! values that carry no happens-before obligation — counters read on the
//! same thread, statistics, the single-writer side of a cursor — and
//! every such use must say why inline:
//!
//! ```text
//! // analyze: allow(atomics-ordering): single-writer cursor, readers
//! // resynchronize through the shard lock
//! ```
//!
//! The marker covers its own line, the next code line, or the whole `fn`
//! it precedes, and the reason after the colon is mandatory (see
//! [`crate::markers`]). Neither x86 nor the test suite can show a missing
//! `Release`, so this pass is the only guard of the ordering discipline.
//!
//! Scope: `trace.rs`, `pool.rs`, `checker.rs` — the files whose atomics
//! form cross-thread publication protocols — plus `metrics.rs`, where the
//! comm counters are *deliberately* `Relaxed` (monotone statistics with no
//! happens-before obligation) and every site must carry an annotated
//! reason, so the policy is enforced rather than assumed. Any file carrying
//! an `analyze: scope(atomics-ordering)` comment (fixtures) also joins the
//! scope. `fault.rs` holds counters and an abort flag but no publication
//! protocol of its own, so it stays out (a marker there is dead); widening
//! the list is a one-line change here.
//!
//! The check is syntactic: any `Ordering::Relaxed` argument to an
//! atomic method (`load` / `store` / `swap` / `fetch_*` /
//! `compare_exchange*`) is a finding. Calls without an `Ordering::`
//! token are not atomics (`Vec::swap`, `mpsc::Receiver::recv`) and are
//! ignored.

use crate::items::{matching_paren, ParsedFile};
use crate::report::Finding;

/// Files whose atomics implement publication protocols, plus the comm
/// counters whose Relaxed-only policy is enforced via annotations.
const ATOMICS_FILES: [&str; 4] = [
    "crates/pgxd/src/trace.rs",
    "crates/pgxd/src/pool.rs",
    "crates/pgxd/src/checker.rs",
    "crates/pgxd/src/metrics.rs",
];

/// Marker pulling extra files (fixtures) into scope.
pub const SCOPE_MARKER: &str = "analyze: scope(atomics-ordering)";

/// Atomic method names whose `Ordering` arguments we check.
const ATOMIC_METHODS: [&str; 13] = [
    "load",
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "fetch_max",
    "fetch_min",
    "fetch_update",
    "compare_exchange",
    "compare_exchange_weak",
];

pub(crate) fn in_scope(pf: &ParsedFile) -> bool {
    ATOMICS_FILES.iter().any(|s| pf.rel.ends_with(s))
        || pf.stripped.comments.iter().any(|c| c.contains(SCOPE_MARKER))
}

pub fn analyze_atomics(files: &[ParsedFile]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for pf in files {
        if !in_scope(pf) {
            continue;
        }
        for f in &pf.functions {
            let (bs, be) = f.body;
            for i in bs..be.saturating_sub(2) {
                if pf.toks[i].text != "." {
                    continue;
                }
                let name = pf.toks[i + 1].text.as_str();
                if !ATOMIC_METHODS.contains(&name) || pf.toks[i + 2].text != "(" {
                    continue;
                }
                let close = matching_paren(&pf.toks, i + 2);
                // Orderings named in the argument list; none ⇒ not an
                // atomic call (slice `swap`, channel `recv`, …).
                let mut orderings: Vec<(usize, String)> = Vec::new();
                for j in i + 3..close {
                    if pf.toks[j].text == "Ordering"
                        && pf.toks.get(j + 1).map(|t| t.text.as_str()) == Some(":")
                        && pf.toks.get(j + 2).map(|t| t.text.as_str()) == Some(":")
                    {
                        if let Some(o) = pf.toks.get(j + 3) {
                            orderings.push((j + 3, o.text.clone()));
                        }
                    }
                }
                if orderings.is_empty() {
                    continue;
                }
                for (oi, ord) in &orderings {
                    if ord != "Relaxed" {
                        continue;
                    }
                    let line = pf.toks[*oi].line;
                    let receiver = i
                        .checked_sub(1)
                        .map(|p| pf.toks[p].text.clone())
                        .filter(|t| t.chars().next().is_some_and(|c| c.is_alphanumeric() || c == '_'))
                        .unwrap_or_else(|| "<atomic>".into());
                    findings.push(Finding {
                        rule: "atomics-ordering".into(),
                        file: pf.rel.clone(),
                        line,
                        function: f.name.clone(),
                        held: None,
                        operation: format!("{name}(Relaxed)"),
                        chain: vec![format!("atomic op at {}:{}", pf.rel, pf.toks[i].line)],
                        message: format!(
                            "`Relaxed` on `{receiver}.{name}` in a publication file — use Release/Acquire (seqlock discipline) or annotate with `analyze: allow(atomics-ordering): <reason>`",
                        ),
                    });
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn run(src: &str) -> Vec<Finding> {
        let marked = format!("// analyze: scope(atomics-ordering)\n{src}");
        analyze_atomics(&[parse_file("t.rs", &marked)])
    }

    #[test]
    fn release_acquire_pair_is_clean() {
        let r = run(
            "impl S { fn publish(&self) { self.version.store(v, Ordering::Release); } fn read(&self) -> u64 { self.version.load(Ordering::Acquire) } }",
        );
        assert!(r.is_empty(), "{:?}", r);
    }

    #[test]
    fn relaxed_store_is_flagged_with_site() {
        let r = run(
            "impl S {\n    fn publish(&self) {\n        self.version.store(v, Ordering::Relaxed);\n    }\n}\n",
        );
        assert_eq!(r.len(), 1, "{:?}", r);
        assert_eq!(r[0].operation, "store(Relaxed)");
        assert_eq!(r[0].line, 4);
        assert!(r[0].message.contains("version.store"));
    }

    #[test]
    fn relaxed_in_compare_exchange_failure_ordering_is_flagged() {
        let r = run(
            "impl S { fn claim(&self) { self.w.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Relaxed); } }",
        );
        assert_eq!(r.len(), 1, "{:?}", r);
        assert_eq!(r[0].operation, "compare_exchange(Relaxed)");
    }

    #[test]
    fn annotated_relaxed_is_allowed_and_reason_is_mandatory() {
        let marked = |src: &str| {
            let files = [parse_file("t.rs", &format!("// analyze: scope(atomics-ordering)\n{src}"))];
            let found = crate::markers::apply_markers(&files, analyze_atomics(&files));
            found.into_iter().map(|f| f.rule).collect::<Vec<_>>()
        };
        let ok = marked(
            "impl S { fn bump(&self) { // analyze: allow(atomics-ordering): single-writer counter\n        self.n.fetch_add(1, Ordering::Relaxed); } }",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bare = marked(
            "impl S { fn bump(&self) { // analyze: allow(atomics-ordering)\n        self.n.fetch_add(1, Ordering::Relaxed); } }",
        );
        assert_eq!(bare, ["atomics-ordering", "dead-marker"], "a bare marker covers nothing");
    }

    #[test]
    fn slice_swap_is_not_an_atomic() {
        let r = run("fn f(v: &mut [u64]) { v.swap(0, 1); }");
        assert!(r.is_empty(), "{:?}", r);
    }

    #[test]
    fn relaxed_fetch_max_is_flagged() {
        let r = run("impl S { fn peak(&self) { self.max.fetch_max(v, Ordering::Relaxed); } }");
        assert_eq!(r.len(), 1, "{:?}", r);
        assert_eq!(r[0].operation, "fetch_max(Relaxed)");
    }

    #[test]
    fn out_of_scope_file_is_ignored() {
        let pf = parse_file(
            "crates/pgxd/src/fault.rs",
            "impl S { fn bump(&self) { self.n.fetch_add(1, Ordering::Relaxed); } }",
        );
        assert!(analyze_atomics(&[pf]).is_empty());
    }
}
