//! Loop-discipline pass (`loop-discipline`): unbounded growth in recv
//! loops, aimed at the ROADMAP's multi-job service layer where today's
//! one-shot loops become long-lived pumps.
//!
//! A `push`/`push_back`/`push_front`/`extend`/`insert`/`append` into a
//! collection inside a recv/poll loop (a loop whose condition or body
//! receives) is a finding when no bound is in sight: no `return`/`break`
//! leaving the loop (a bounded search or parked-delivery scan exits; a
//! service pump does not) and no drain-class call (`pop*`/`remove`/
//! `drain`/`clear`/`truncate`/`split_off`) on the *same* receiver chain
//! inside the loop. Such a loop falls behind its producer by allocating,
//! which no inline marker can excuse (the rule reads none): the fix is a
//! bound or a drain, not a justification.
//!
//! Scope: every workspace file under `crates/` (the pass is cheap and
//! the rule is global), plus any file carrying an
//! `analyze: scope(loop-discipline)` comment (fixtures). Every recv loop,
//! flagged or not, lands in the report's `loop_sites` inventory.
//!
//! Known approximations, documented here so nobody trusts the pass past
//! its design: a `while` condition bounded by a counter the body advances
//! still counts as a recv loop (the rule then wants the
//! `return`/`break`/drain evidence), and receiver identity is the textual
//! chain, not an alias analysis.

use std::collections::HashSet;

use crate::analysis::{call_open_paren, is_ident, receiver_chain};
use crate::items::{matching_delim, ParsedFile};
use crate::report::Finding;
use crate::waitgraph::body_open;

/// Marker pulling extra files (fixtures) into scope.
pub const SCOPE_MARKER: &str = "analyze: scope(loop-discipline)";

/// Growth calls checked inside recv loops.
const GROWTH_CALLS: [&str; 6] = ["push", "push_back", "push_front", "extend", "insert", "append"];

/// Drain-class calls that bound growth on the same receiver.
const DRAIN_CALLS: [&str; 8] =
    ["pop", "pop_front", "pop_back", "remove", "drain", "clear", "truncate", "split_off"];

/// One inventoried recv/poll loop.
#[derive(Debug, Clone)]
pub struct LoopSite {
    pub file: String,
    pub line: usize,
    pub function: String,
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
}

/// Finds the loops in `body`, nested ones included.
fn find_loops(pf: &ParsedFile, body: (usize, usize)) -> Vec<Loop> {
    let toks = &pf.toks;
    let mut out = Vec::new();
    for i in body.0..body.1 {
        let kw = toks[i].text.as_str();
        if !matches!(kw, "for" | "while" | "loop") {
            continue;
        }
        let Some(open) = body_open(pf, i + 1, body.1) else { continue };
        let head_start = if kw == "for" {
            // `for PAT in EXPR {`: require the `in`; `for<'a>` bounds
            // have none.
            match (i + 1..open).find(|&j| toks[j].text == "in") {
                Some(j) => j + 1,
                None => continue,
            }
        } else {
            i + 1
        };
        out.push(Loop { kw: i, head: (head_start, open), body: (open + 1, matching_delim(toks, open)) });
    }
    out
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

/// The method name when token `i` is the `.` of a method call.
fn method_call_at(pf: &ParsedFile, i: usize) -> Option<&str> {
    let name = pf.toks.get(i + 1).filter(|t| pf.toks[i].text == "." && is_ident(&t.text))?;
    call_open_paren(&pf.toks, i + 1)?;
    Some(&name.text)
}

pub fn analyze_loops(files: &[ParsedFile]) -> LoopDiscipline {
    let mut findings = Vec::new();
    let mut sites = Vec::new();
    for pf in files.iter().filter(|pf| in_scope(pf)) {
        for f in &pf.functions {
            for Loop { kw, head, body } in find_loops(pf, f.body) {
                let calls: Vec<(usize, &str)> = (head.0..head.1)
                    .chain(body.0..body.1)
                    .filter_map(|i| method_call_at(pf, i).map(|n| (i, n)))
                    .collect();
                if !calls.iter().any(|(_, n)| is_recv_name(n)) {
                    continue;
                }
                let loop_line = pf.toks[kw].line;
                sites.push(LoopSite { file: pf.rel.clone(), line: loop_line, function: f.name.clone() });
                let escapes = pf.toks[body.0..body.1]
                    .iter()
                    .any(|t| t.text == "return" || t.text == "break");
                if escapes {
                    continue;
                }
                let drained: HashSet<String> = calls
                    .iter()
                    .filter(|(_, n)| DRAIN_CALLS.contains(n))
                    .map(|&(dot, _)| receiver_key(pf, dot, f.body.0))
                    .collect();
                for &(dot, name) in &calls {
                    if !GROWTH_CALLS.contains(&name) {
                        continue;
                    }
                    let key = receiver_key(pf, dot, f.body.0);
                    if drained.contains(&key) {
                        continue;
                    }
                    let line = pf.toks[dot].line;
                    findings.push(Finding {
                        rule: "loop-discipline".into(),
                        file: pf.rel.clone(),
                        line,
                        function: f.name.clone(),
                        operation: format!("unbounded-growth({name}:{key})"),
                        chain: vec![
                            format!("recv loop at {}:{loop_line}", pf.rel),
                            format!("growth at {}:{line}", pf.rel),
                        ],
                        message: format!(
                            "`{key}.{name}(..)` grows without bound inside the recv loop at {}:{loop_line} — no break/return and no drain on `{key}`; a service pump that allocates per message falls behind its producer. Add a bound or a drain; no marker covers this finding",
                            pf.rel
                        ),
                    });
                }
            }
        }
    }
    findings.sort_by_key(|f| f.sort_key());
    findings.dedup_by(|a, b| a.sort_key() == b.sort_key());
    sites.sort_by(|a, b| (a.file.as_str(), a.line).cmp(&(b.file.as_str(), b.line)));
    sites.dedup_by(|a, b| a.file == b.file && a.line == b.line);
    LoopDiscipline { findings, sites }
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
    fn recv_loops_are_inventoried() {
        let r = run(
            "impl S { fn pump(&mut self) { while let Ok(p) = self.rx.try_recv() { if p.last { break; } self.seen.push(p); } } fn scan(&self, n: usize) { for i in 0..n { let g = self.state.lock(); } } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let sites: Vec<(&str, usize)> = r.sites.iter().map(|s| (s.function.as_str(), s.line)).collect();
        assert_eq!(sites, [("S::pump", 2)], "only the receiving loop is a site");
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
