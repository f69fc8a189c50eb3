//! Loop-discipline pass (`loop-discipline`, schema pgxd-analyze/3).
//!
//! Two rules about what a loop body may do, aimed at the ROADMAP's
//! multi-job service layer where today's one-shot loops become
//! long-lived pumps:
//!
//! * **loop-invariant-acquire** — a guard acquisition (`.lock()` /
//!   `.read()` / `.write()`) or a `ChunkPool`-style `.acquire(..)`
//!   inside a `for`/`while`/`loop` whose receiver chain and arguments
//!   mention none of the loop-variant identifiers (the loop pattern
//!   variables, the `while` condition identifiers, and `let` bindings
//!   made inside the body). Such an acquisition re-pays the lock or
//!   pool tax every iteration for the same object — hoist it, or
//!   annotate why it must stay (`analyze: allow(loop-discipline):
//!   <reason>`, panic-surface coverage rules, reason mandatory).
//!   Variance is judged against the *innermost* enclosing loop: an
//!   acquisition invariant there is hoistable out of at least that
//!   loop.
//!
//! * **unbounded-growth** — a `push`/`push_back`/`push_front`/
//!   `extend`/`insert`/`append` into a collection inside a recv/poll
//!   loop (a loop whose condition or body receives) with no bound in
//!   sight: no `return`/`break` leaving the loop (a bounded search or
//!   parked-delivery scan exits; a service pump does not) and no
//!   drain-class call (`pop*`/`remove`/`drain`/`clear`/`truncate`/
//!   `split_off`) on the *same* receiver chain inside the loop. This is
//!   the backpressure gate: such a loop falls behind its producer by
//!   allocating, which no allowlist entry or inline marker can excuse —
//!   like custody leaks, the fix is a bound or a drain, not a
//!   justification. `apply_allowlist` enforces that.
//!
//! Scope: every workspace file under `crates/` (the pass is cheap and
//! the rules are global), plus any file carrying an
//! `analyze: scope(loop-discipline)` comment (fixtures).
//!
//! Known approximations, documented here so nobody trusts the pass past
//! its design: closure parameters and `match`-arm bindings inside the
//! body are not collected as loop-variant; a `while` condition bounded
//! by a counter the body advances still counts as a recv loop (the
//! growth rule then wants the `return`/`break`/drain evidence); and
//! receiver identity is the textual chain, not an alias analysis.

use std::collections::HashSet;

use crate::analysis::{
    call_open_paren, is_ident, marker_allowed_lines, receiver_chain, receiver_chain_span,
};
use crate::items::{matching_brace, matching_paren, ParsedFile};
use crate::report::Finding;
use crate::waitgraph::body_open;

/// Marker pulling extra files (fixtures) into scope.
pub const SCOPE_MARKER: &str = "analyze: scope(loop-discipline)";

/// Inline escape hatch for loop-invariant-acquire only; unbounded
/// growth is never excusable.
pub const ALLOW_MARKER: &str = "analyze: allow(loop-discipline)";

/// Guard acquisitions checked for loop invariance.
const GUARD_CALLS: [&str; 3] = ["lock", "read", "write"];

/// Growth calls checked inside recv loops.
const GROWTH_CALLS: [&str; 6] = ["push", "push_back", "push_front", "extend", "insert", "append"];

/// Drain-class calls that bound growth on the same receiver.
const DRAIN_CALLS: [&str; 8] =
    ["pop", "pop_front", "pop_back", "remove", "drain", "clear", "truncate", "split_off"];

/// One inventoried loop: a recv/poll loop or a loop holding acquire
/// sites (a loop that is both appears once per kind).
#[derive(Debug, Clone)]
pub struct LoopSite {
    pub file: String,
    pub line: usize,
    pub function: String,
    /// `recv-loop` | `acquire-loop`.
    pub kind: String,
}

pub struct LoopDiscipline {
    pub findings: Vec<Finding>,
    pub sites: Vec<LoopSite>,
}

fn in_scope(pf: &ParsedFile) -> bool {
    pf.rel.starts_with("crates/")
        || pf.stripped.comments.iter().any(|c| c.contains(SCOPE_MARKER))
}

/// One loop inside a function body.
struct Loop {
    /// Token index of the loop keyword.
    kw: usize,
    /// Tokens of the condition / iterated expression (empty for `loop`).
    head: (usize, usize),
    /// Body token range (inside the braces).
    body: (usize, usize),
    /// Loop-variant identifiers.
    variant: HashSet<String>,
}

fn ident_set(pf: &ParsedFile, range: (usize, usize)) -> HashSet<String> {
    pf.toks[range.0..range.1]
        .iter()
        .filter(|t| is_ident(&t.text) || t.text == "self")
        .map(|t| t.text.clone())
        .collect()
}

/// Finds the loops in `body`, innermost included.
fn find_loops(pf: &ParsedFile, body: (usize, usize)) -> Vec<Loop> {
    let toks = &pf.toks;
    let mut out = Vec::new();
    let mut i = body.0;
    while i < body.1 {
        match toks[i].text.as_str() {
            "for" => {
                let Some(open) = body_open(pf, i + 1, body.1) else {
                    i += 1;
                    continue;
                };
                // `for PAT in EXPR {`: require the `in`; `for<'a>` bounds
                // have none.
                let Some(in_idx) = (i + 1..open).find(|&j| toks[j].text == "in") else {
                    i += 1;
                    continue;
                };
                let mut variant = ident_set(pf, (i + 1, in_idx));
                let lb = (open + 1, matching_brace(toks, open));
                variant.extend(let_bound(pf, lb));
                out.push(Loop { kw: i, head: (in_idx + 1, open), body: lb, variant });
                i += 1;
            }
            "while" => {
                let Some(open) = body_open(pf, i + 1, body.1) else {
                    i += 1;
                    continue;
                };
                // `while let PAT = EXPR {` binds PAT; a plain condition's
                // identifiers are all variant (the body advances them).
                let mut variant = ident_set(pf, (i + 1, open));
                let lb = (open + 1, matching_brace(toks, open));
                variant.extend(let_bound(pf, lb));
                out.push(Loop { kw: i, head: (i + 1, open), body: lb, variant });
                i += 1;
            }
            "loop" => {
                let Some(open) = body_open(pf, i + 1, body.1) else {
                    i += 1;
                    continue;
                };
                let lb = (open + 1, matching_brace(toks, open));
                let variant = let_bound(pf, lb);
                out.push(Loop { kw: i, head: (i, i), body: lb, variant });
                i += 1;
            }
            _ => i += 1,
        }
    }
    out
}

/// Identifiers bound by `let` statements inside `range`.
fn let_bound(pf: &ParsedFile, range: (usize, usize)) -> HashSet<String> {
    let toks = &pf.toks;
    let mut out = HashSet::new();
    let mut i = range.0;
    while i < range.1 {
        if toks[i].text == "let" {
            let mut j = i + 1;
            while j < range.1 && toks[j].text != "=" && toks[j].text != ";" {
                if is_ident(&toks[j].text) {
                    out.insert(toks[j].text.clone());
                }
                j += 1;
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

/// The innermost loop (smallest body) containing token `i`, if any.
fn innermost(loops: &[Loop], i: usize) -> Option<&Loop> {
    loops
        .iter()
        .filter(|l| i >= l.body.0 && i < l.body.1)
        .min_by_key(|l| l.body.1 - l.body.0)
}

/// True when the method name receives from a channel / poll source.
fn is_recv_name(name: &str) -> bool {
    name.starts_with("recv") || name.starts_with("try_recv") || name.starts_with("poll")
}

/// Receiver key for growth/drain matching: the textual chain.
fn receiver_key(pf: &ParsedFile, dot: usize, start: usize) -> String {
    let (root, segs) = receiver_chain(pf, dot, start);
    if segs.is_empty() {
        root
    } else {
        format!("{root}.{}", segs.join("."))
    }
}

pub fn analyze_loops(files: &[ParsedFile]) -> LoopDiscipline {
    let mut findings = Vec::new();
    let mut sites = Vec::new();
    for pf in files {
        if !in_scope(pf) {
            continue;
        }
        let allowed = marker_allowed_lines(pf, ALLOW_MARKER);
        for f in &pf.functions {
            let loops = find_loops(pf, f.body);
            for l in &loops {
                // Classify the loop once for the inventory.
                let mut scan_names: Vec<(usize, String, usize)> = Vec::new(); // (dot, name, open)
                for i in l.head.0..l.head.1 {
                    collect_call(pf, i, l.head.1, &mut scan_names);
                }
                for i in l.body.0..l.body.1 {
                    collect_call(pf, i, l.body.1, &mut scan_names);
                }
                let is_recv_loop = scan_names.iter().any(|(_, n, _)| is_recv_name(n));
                let has_acquire =
                    scan_names.iter().any(|(dot, n, open)| is_acquire(pf, n, *dot, *open));
                if is_recv_loop {
                    sites.push(LoopSite {
                        file: pf.rel.clone(),
                        line: pf.toks[l.kw].line,
                        function: f.name.clone(),
                        kind: "recv-loop".into(),
                    });
                }
                if has_acquire {
                    sites.push(LoopSite {
                        file: pf.rel.clone(),
                        line: pf.toks[l.kw].line,
                        function: f.name.clone(),
                        kind: "acquire-loop".into(),
                    });
                }
            }

            // Rule 1: loop-invariant acquire, judged at the innermost
            // enclosing loop of each acquisition site.
            let mut i = f.body.0;
            while i < f.body.1 {
                let Some((name, open)) = method_call_at(pf, i, f.body.1) else {
                    i += 1;
                    continue;
                };
                if !is_acquire(pf, &name, i, open) {
                    i += 1;
                    continue;
                }
                let Some(l) = innermost(&loops, i) else {
                    i += 1;
                    continue;
                };
                let (root, segs, span) = receiver_chain_span(pf, i, f.body.0);
                let mut mentions: HashSet<String> = segs.into_iter().collect();
                mentions.insert(root);
                // The chain skips index brackets and nested call args, but
                // a loop variable there makes the acquisition variant
                // (`self.shards[(start + i) % N].lock()` is per-shard, not
                // re-acquired) — count every ident the receiver mentions.
                mentions.extend(ident_set(pf, (span, i)));
                if name == "acquire" {
                    let close = matching_paren(&pf.toks, open);
                    mentions.extend(ident_set(pf, (open + 1, close)));
                }
                let line = pf.toks[i].line;
                if mentions.is_disjoint(&l.variant) && !allowed.contains(&line) {
                    let key = receiver_key(pf, i, f.body.0);
                    findings.push(Finding {
                        rule: "loop-discipline".into(),
                        file: pf.rel.clone(),
                        line,
                        function: f.name.clone(),
                        held: None,
                        operation: format!("loop-invariant-acquire({name}:{key})"),
                        chain: vec![
                            format!("loop at {}:{}", pf.rel, pf.toks[l.kw].line),
                            format!("acquire at {}:{}", pf.rel, line),
                        ],
                        message: format!(
                            "`{key}.{name}(..)` re-acquired every iteration of the loop at {}:{} but depends on none of its loop-variant identifiers — hoist it, or annotate with `{ALLOW_MARKER}: <reason>`",
                            pf.rel,
                            pf.toks[l.kw].line
                        ),
                    });
                }
                i = open + 1;
            }

            // Rule 2: unbounded growth in recv loops. Never excusable.
            for l in &loops {
                let mut head_body_calls: Vec<(usize, String, usize)> = Vec::new();
                for i in l.head.0..l.head.1 {
                    collect_call(pf, i, l.head.1, &mut head_body_calls);
                }
                for i in l.body.0..l.body.1 {
                    collect_call(pf, i, l.body.1, &mut head_body_calls);
                }
                if !head_body_calls.iter().any(|(_, n, _)| is_recv_name(n)) {
                    continue;
                }
                let escapes = pf.toks[l.body.0..l.body.1]
                    .iter()
                    .any(|t| t.text == "return" || t.text == "break");
                if escapes {
                    continue;
                }
                let drained: HashSet<String> = head_body_calls
                    .iter()
                    .filter(|(_, n, _)| DRAIN_CALLS.contains(&n.as_str()))
                    .map(|(dot, _, _)| receiver_key(pf, *dot, f.body.0))
                    .collect();
                for (dot, name, _) in &head_body_calls {
                    if !GROWTH_CALLS.contains(&name.as_str()) {
                        continue;
                    }
                    let key = receiver_key(pf, *dot, f.body.0);
                    if drained.contains(&key) {
                        continue;
                    }
                    let line = pf.toks[*dot].line;
                    findings.push(Finding {
                        rule: "loop-discipline".into(),
                        file: pf.rel.clone(),
                        line,
                        function: f.name.clone(),
                        held: None,
                        operation: format!("unbounded-growth({name}:{key})"),
                        chain: vec![
                            format!("recv loop at {}:{}", pf.rel, pf.toks[l.kw].line),
                            format!("growth at {}:{}", pf.rel, line),
                        ],
                        message: format!(
                            "`{key}.{name}(..)` grows without bound inside the recv loop at {}:{} — no break/return and no drain on `{key}`; a service pump that allocates per message falls behind its producer. Add a bound or a drain; this finding cannot be allowlisted",
                            pf.rel,
                            pf.toks[l.kw].line
                        ),
                    });
                }
            }
        }
    }
    findings.sort_by_key(|f| f.sort_key());
    findings.dedup_by(|a, b| a.sort_key() == b.sort_key());
    sites.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.kind.as_str()).cmp(&(b.file.as_str(), b.line, b.kind.as_str()))
    });
    sites.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.kind == b.kind);
    LoopDiscipline { findings, sites }
}

/// `(name, open paren)` when token `i` is the `.` of a method call.
fn method_call_at(pf: &ParsedFile, i: usize, end: usize) -> Option<(String, usize)> {
    if pf.toks[i].text != "." || i + 2 >= end || !is_ident(&pf.toks[i + 1].text) {
        return None;
    }
    let open = call_open_paren(&pf.toks, i + 1)?;
    Some((pf.toks[i + 1].text.clone(), open))
}

/// Collects method-call sites into `out` (dot index, name, open paren).
fn collect_call(pf: &ParsedFile, i: usize, end: usize, out: &mut Vec<(usize, String, usize)>) {
    if let Some((name, open)) = method_call_at(pf, i, end) {
        out.push((i, name, open));
    }
}

/// True when the call is a guard acquisition (`.lock()`-style, empty
/// args) or a pool `.acquire(..)`.
fn is_acquire(pf: &ParsedFile, name: &str, _dot: usize, open: usize) -> bool {
    if name == "acquire" {
        return true;
    }
    GUARD_CALLS.contains(&name)
        && pf.toks.get(open + 1).map(|t| t.text.as_str()) == Some(")")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn run(src: &str) -> LoopDiscipline {
        let marked = format!("// analyze: scope(loop-discipline)\n{src}");
        analyze_loops(&[parse_file("t.rs", &marked)])
    }

    #[test]
    fn invariant_lock_in_for_loop_is_flagged() {
        let r = run(
            "impl S {\n    fn scan(&self, n: usize) -> u64 {\n        let mut total = 0;\n        for i in 0..n {\n            let g = self.state.lock();\n            total += g.get(i).copied().unwrap_or(0);\n        }\n        total\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "loop-invariant-acquire(lock:self.state)");
        assert_eq!(r.findings[0].line, 6);
    }

    #[test]
    fn variant_receiver_is_clean() {
        let r = run(
            "impl S { fn scan(&self) { for s in &self.shards { let g = s.lock(); g.touch(); } } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn loop_variable_inside_index_brackets_is_variant() {
        // The chain skips `[..]`, but the loop variable in the index makes
        // this a per-shard acquisition, not a re-acquired invariant lock.
        let r = run(
            "impl S {\n    fn probe(&self, start: usize) {\n        for i in 0..N {\n            let g = self.shards[(start + i) % N].lock();\n            g.touch();\n        }\n    }\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn chained_receiver_variance_uses_full_chain() {
        let r = run(
            "impl S {\n    fn deep(&self, n: usize) {\n        for i in 0..n {\n            let g = self.inner.table.lock();\n        }\n        for slot in &self.slots {\n            let g = slot.cell.lock();\n        }\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "loop-invariant-acquire(lock:self.inner.table)");
        assert_eq!(r.findings[0].line, 5);
    }

    #[test]
    fn acquire_with_loop_variant_arg_is_clean_invariant_arg_flagged() {
        let r = run(
            "impl S {\n    fn fill(&self, pool: &P, n: usize) {\n        for sz in &self.sizes {\n            let c = pool.acquire(sz);\n        }\n        for i in 0..n {\n            let c = pool.acquire(CHUNK);\n        }\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].line, 8);
        assert!(r.findings[0].operation.starts_with("loop-invariant-acquire(acquire:"));
    }

    #[test]
    fn unbounded_push_in_recv_loop_is_flagged() {
        let r = run(
            "impl S {\n    fn pump(&mut self) {\n        loop {\n            let pkt = self.rx.recv_packet();\n            self.backlog.push(pkt);\n        }\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "unbounded-growth(push:self.backlog)");
        assert_eq!(r.findings[0].line, 6);
        assert!(r.findings[0].chain[0].contains(":4"), "{:?}", r.findings[0].chain);
    }

    #[test]
    fn drained_or_escaping_recv_loops_are_clean() {
        let drained = run(
            "impl S { fn pump(&mut self) { loop { let p = self.rx.recv_packet(); self.backlog.push(p); self.backlog.clear(); } } }",
        );
        assert!(drained.findings.is_empty(), "{:?}", drained.findings);
        let escaping = run(
            "impl S { fn find(&mut self, want: Tag) -> Option<P> { loop { let p = self.rx.recv_packet(); if p.tag == want { return Some(p); } self.mailbox.push_back(p); } } }",
        );
        assert!(escaping.findings.is_empty(), "{:?}", escaping.findings);
    }

    #[test]
    fn growth_through_call_segment_receiver_is_tracked() {
        let r = run(
            "impl S {\n    fn pump(&mut self) {\n        loop {\n            let p = self.rx.recv_packet();\n            self.buf().push(p);\n        }\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "unbounded-growth(push:self.buf)");
    }

    #[test]
    fn unbounded_growth_ignores_inline_allow_marker() {
        let r = run(
            "impl S {\n    fn pump(&mut self) {\n        loop {\n            let p = self.rx.recv_packet();\n            // analyze: allow(loop-discipline): we promise it is fine\n            self.backlog.push(p);\n        }\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "inline markers cannot excuse growth: {:?}", r.findings);
    }

    #[test]
    fn annotated_invariant_acquire_is_allowed() {
        let r = run(
            "impl S {\n    fn scan(&self, n: usize) {\n        for i in 0..n {\n            // analyze: allow(loop-discipline): contended probe, short critical section beats hoisting\n            let g = self.state.lock();\n        }\n    }\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn recv_and_acquire_loops_are_inventoried() {
        let r = run(
            "impl S { fn pump(&mut self) { while let Ok(p) = self.rx.try_recv() { if p.last { break; } self.seen.push(p); } } fn scan(&self, n: usize) { for i in 0..n { let g = self.state.lock(); } } }",
        );
        let kinds: Vec<&str> = r.sites.iter().map(|s| s.kind.as_str()).collect();
        assert!(kinds.contains(&"recv-loop"), "{:?}", r.sites);
        assert!(kinds.contains(&"acquire-loop"), "{:?}", r.sites);
    }

    #[test]
    fn out_of_scope_file_is_ignored() {
        let pf = parse_file(
            "t.rs",
            "impl S { fn pump(&mut self) { loop { let p = self.rx.recv_packet(); self.backlog.push(p); } } }",
        );
        let r = analyze_loops(&[pf]);
        assert!(r.findings.is_empty());
        assert!(r.sites.is_empty());
    }
}
