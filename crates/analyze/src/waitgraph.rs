//! Barrier/channel wait-graph pass (`wait-graph`, schema pgxd-analyze/2).
//!
//! The §IV protocol is a fixed choreography: every machine walks the
//! same six steps, and inside a step every barrier must be entered by
//! all participants and every receive must be fed by a matching send
//! somewhere on the same step's code path. This pass models the three
//! wait-site kinds over the machine-level code —
//!
//! * **barrier** — `ClusterBarrier::wait` via `Machine::barrier()` /
//!   `wait_or_unwind()` / a literal `barrier.wait()`,
//! * **send** — any `.send_*(..)` method call (`send_packet`,
//!   `send_vec`, `send_shared_vec`, `send_offset_chunk`, …),
//! * **recv** — any `.recv_*(..)` / `.try_recv_*(..)` method call,
//!
//! attributes each site to its enclosing function, records the §IV step
//! sequence each function walks through its `ctx.step(steps::X, ..)`
//! regions, and propagates send/recv/barrier *effects* along the run's
//! shared
//! [`CallGraph`], restricted to edges between scoped functions (so
//! `exchange` is known to send because it drives
//! `RequestBuffer::send → send_offset_chunk`). Two rules:
//!
//! * **asymmetric-barrier** — an `if`/`else` chain or `match` whose
//!   non-diverging arms enter a barrier a different number of times
//!   (one path can skip or double-enter a barrier the other waits on —
//!   a deadlock once PR 6's abort plumbing is off the happy path).
//!   Compile-time-uniform conditions (`cfg`, ALL-CAPS consts like
//!   `checker::ENABLED`) are exempt: every machine takes the same arm.
//! * **recv-without-send** — a function with a direct receive site but
//!   no send anywhere in its transitive call closure: a shape that can
//!   only complete if some *other* code path feeds it, which the §IV
//!   protocol never does (every step pairs its sends and receives in
//!   the same machine-level function).
//!
//! Scope: the machine-level protocol files (`machine.rs`, `cluster.rs`,
//! `buffer.rs`, `core/sorter.rs`) plus any file carrying an
//! `analyze: scope(wait-graph)` comment (used by fixtures). The comm
//! fabric itself (`comm.rs`) and the fault plane stay out: their
//! send/recv primitives are the *implementation* of the edges this
//! graph models, not protocol participants.

use std::collections::{HashMap, HashSet};

use crate::analysis::{block_close, call_open_paren, CallGraph, FnSites};
use crate::items::ParsedFile;
use crate::report::Finding;

/// Files modeled by the wait-graph (suffix match on workspace paths).
const WAIT_FILES: [&str; 4] = [
    "crates/pgxd/src/machine.rs",
    "crates/pgxd/src/cluster.rs",
    "crates/pgxd/src/buffer.rs",
    "crates/core/src/sorter.rs",
];

/// Marker pulling extra files (fixtures) into scope.
pub const SCOPE_MARKER: &str = "analyze: scope(wait-graph)";

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum OpKind {
    Barrier,
    Send,
    Recv,
}

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Barrier => "barrier",
            OpKind::Send => "send",
            OpKind::Recv => "recv",
        }
    }
}

/// One wait site, attributed to a function.
#[derive(Debug, Clone)]
pub struct WaitOp {
    pub kind: OpKind,
    pub file: String,
    pub line: usize,
    pub function: String,
    /// Method actually called (`wait_or_unwind`, `recv_packet`, …).
    pub callee: String,
}

/// Step-transition edge: `function` runs step `from` then step `to`.
#[derive(Debug, Clone)]
pub struct StepEdge {
    pub from: String,
    pub to: String,
    pub function: String,
}

pub struct WaitGraph {
    pub findings: Vec<Finding>,
    pub ops: Vec<WaitOp>,
    pub edges: Vec<StepEdge>,
}

fn in_scope(pf: &ParsedFile) -> bool {
    WAIT_FILES.iter().any(|s| pf.rel.ends_with(s))
        || pf.stripped.comments.iter().any(|c| c.contains(SCOPE_MARKER))
}

fn classify_call(pf: &ParsedFile, dot: usize) -> Option<(OpKind, String)> {
    let toks = &pf.toks;
    let name = toks.get(dot + 1)?.text.as_str();
    // Look through `::<T>` turbofish (`.recv_vec::<u64>(tag)`).
    let open = call_open_paren(toks, dot + 1)?;
    let recv_ident = dot.checked_sub(1).map(|p| toks[p].text.as_str()).unwrap_or("");
    let empty_args = toks.get(open + 1).map(|t| t.text.as_str()) == Some(")");
    let kind = if name == "wait_or_unwind"
        || (name == "barrier" && empty_args)
        || (name == "wait" && recv_ident == "barrier")
    {
        OpKind::Barrier
    } else if name.starts_with("send_") {
        OpKind::Send
    } else if name.starts_with("recv_") || name.starts_with("try_recv_") {
        OpKind::Recv
    } else {
        return None;
    };
    Some((kind, name.to_string()))
}

/// The steps of the `ctx.step(steps::X, ..)` regions in a body, in order,
/// each constant lowercased to match the `steps::` string values.
fn step_sequence(pf: &ParsedFile, body: (usize, usize)) -> Vec<String> {
    let toks = &pf.toks;
    let opens = |i: &usize| {
        let t = |k: usize| toks[i + k].text.as_str();
        (t(0), t(1), t(2), t(3), t(4)) == ("step", "(", "steps", ":", ":")
    };
    (body.0..body.1.saturating_sub(5))
        .filter(opens)
        .map(|i| toks[i + 5].text.to_lowercase())
        .collect()
}

/// True when the condition/scrutinee tokens are compile-time uniform
/// across machines: a `cfg` mention or an ALL-CAPS const.
fn uniform_condition(toks: &[crate::lexer::Tok], range: (usize, usize)) -> bool {
    toks[range.0..range.1].iter().any(|t| {
        let s = t.text.as_str();
        s == "cfg"
            || (s.len() >= 2
                && s.chars().next().is_some_and(|c| c.is_ascii_uppercase())
                && s.chars().all(|c| c.is_ascii_uppercase() || c == '_' || c.is_ascii_digit()))
    })
}

/// True when the arm's tokens unconditionally leave the protocol
/// (return / panic / abort / unreachable / break / continue).
fn diverging(toks: &[crate::lexer::Tok], range: (usize, usize)) -> bool {
    toks[range.0..range.1].iter().any(|t| {
        matches!(
            t.text.as_str(),
            "return" | "panic" | "panic_any" | "unreachable" | "abort" | "exit" | "break"
                | "continue"
        )
    })
}

/// First `{` after `from` with parens balanced, or None. Shared with the
/// loop-discipline pass, which finds loop bodies with it.
pub(crate) fn body_open(pf: &ParsedFile, from: usize, end: usize) -> Option<usize> {
    let mut paren = 0i32;
    for j in from..end {
        match pf.toks[j].text.as_str() {
            "(" => paren += 1,
            ")" => paren -= 1,
            "{" if paren == 0 => return Some(j),
            ";" if paren == 0 => return None,
            _ => {}
        }
    }
    None
}

pub fn analyze_waitgraph(files: &[ParsedFile], graph: &CallGraph) -> WaitGraph {
    let scoped: Vec<(&ParsedFile, &[FnSites])> = files
        .iter()
        .zip(&graph.fns)
        .filter(|(pf, _)| in_scope(pf))
        .map(|(pf, fns)| (pf, fns.as_slice()))
        .collect();

    // Direct sites per function, and the op list.
    let mut ops: Vec<WaitOp> = Vec::new();
    let mut direct: HashMap<&str, HashSet<OpKind>> = HashMap::new();
    let mut edges: Vec<StepEdge> = Vec::new();

    for (pf, _) in &scoped {
        for f in &pf.functions {
            let mut last: Option<String> = None;
            for step in step_sequence(pf, f.body) {
                if last.as_ref() == Some(&step) {
                    continue;
                }
                if let Some(from) = last.replace(step.clone()) {
                    edges.push(StepEdge {
                        from,
                        to: step,
                        function: f.name.clone(),
                    });
                }
            }
            for i in f.body.0..f.body.1 {
                if pf.toks[i].text != "." {
                    continue;
                }
                let Some((kind, callee)) = classify_call(pf, i) else {
                    continue;
                };
                direct.entry(&f.name).or_default().insert(kind);
                ops.push(WaitOp {
                    kind,
                    file: pf.rel.clone(),
                    line: pf.toks[i].line,
                    function: f.name.clone(),
                    callee,
                });
            }
        }
    }

    // The call graph's edges between scoped functions, and each scoped
    // function's effects: its own sites plus those of every scoped
    // function it reaches.
    let scoped_fns = || scoped.iter().flat_map(|(_, fns)| fns.iter());
    let names: HashSet<&str> = scoped_fns().map(|fs| fs.name.as_str()).collect();
    let mut calls: HashMap<&str, Vec<&str>> = HashMap::new();
    for fs in scoped_fns() {
        let targets = fs.calls().flat_map(|(_, _, t)| t).map(String::as_str);
        calls.entry(&fs.name).or_default().extend(targets.filter(|t| names.contains(t)));
    }
    let effects: HashMap<&str, HashSet<OpKind>> = names
        .iter()
        .map(|&name| {
            let mut seen = HashSet::from([name]);
            let mut stack = vec![name];
            let mut kinds = HashSet::new();
            while let Some(n) = stack.pop() {
                kinds.extend(direct.get(n).into_iter().flatten());
                stack.extend(calls[n].iter().copied().filter(|&c| seen.insert(c)));
            }
            (name, kinds)
        })
        .collect();
    let has = |map: &HashMap<&str, HashSet<OpKind>>, name: &str, kind: OpKind| {
        map.get(name).is_some_and(|k| k.contains(&kind))
    };

    let mut findings = Vec::new();

    // Rule: recv-without-send.
    for (pf, _) in &scoped {
        for f in &pf.functions {
            if !has(&direct, &f.name, OpKind::Recv) || has(&effects, &f.name, OpKind::Send) {
                continue;
            }
            let site = ops
                .iter()
                .find(|o| o.function == f.name && o.kind == OpKind::Recv)
                .expect("direct recv implies a site");
            findings.push(Finding {
                rule: "wait-graph".into(),
                file: pf.rel.clone(),
                line: site.line,
                function: f.name.clone(),
                operation: format!("recv-without-send({})", site.callee),
                chain: vec![format!("receives at {}:{}", pf.rel, site.line)],
                message: format!(
                    "`{}` receives via `{}` but nothing in its call closure sends — the §IV steps always pair sends and receives in the same machine-level function",
                    f.name, site.callee
                ),
            });
        }
    }

    // Rule: asymmetric barrier participation.
    let barrier_weight = |pf: &ParsedFile, fs: &FnSites, range: (usize, usize)| -> Vec<usize> {
        // Token indices in `range` that enter a barrier: direct sites or
        // calls into barrier-effect functions.
        let is_barrier = |j: usize| {
            pf.toks[j].text == "." && matches!(classify_call(pf, j), Some((OpKind::Barrier, _)))
        };
        let direct: Vec<usize> = (range.0..range.1).filter(|&j| is_barrier(j)).collect();
        let enters = |t: &String| has(&effects, t, OpKind::Barrier);
        let mut hits: Vec<usize> = fs
            .calls()
            .filter(|&(j, _, t)| j >= range.0 && j < range.1 && !is_barrier(j) && t.iter().any(enters))
            .map(|(j, _, _)| j)
            .collect();
        hits.extend(direct);
        hits.sort_unstable();
        hits
    };

    for (pf, fns) in &scoped {
        for (f, fs) in pf.functions.iter().zip(fns.iter()) {
            let (bs, be) = f.body;
            let mut i = bs;
            while i < be {
                let t = pf.toks[i].text.as_str();
                if t == "if" {
                    // Skip `else if`: handled as part of its chain head.
                    if i > bs && pf.toks[i - 1].text == "else" {
                        i += 1;
                        continue;
                    }
                    let Some(first_open) = body_open(pf, i + 1, be) else {
                        i += 1;
                        continue;
                    };
                    if uniform_condition(&pf.toks, (i + 1, first_open)) {
                        i = first_open + 1;
                        continue;
                    }
                    // Collect the arm chain.
                    let mut arms: Vec<(usize, usize)> = Vec::new();
                    let mut open = first_open;
                    let mut explicit_else = false;
                    loop {
                        let close = block_close(pf, open + 1, pf.depth[open] + 1, be);
                        arms.push((open + 1, close));
                        match pf.toks.get(close + 1).map(|t| t.text.as_str()) {
                            Some("else") => match pf.toks.get(close + 2).map(|t| t.text.as_str()) {
                                Some("if") => {
                                    let Some(next_open) = body_open(pf, close + 3, be) else {
                                        break;
                                    };
                                    open = next_open;
                                }
                                Some("{") => {
                                    let o = close + 2;
                                    let c = block_close(pf, o + 1, pf.depth[o] + 1, be);
                                    arms.push((o + 1, c));
                                    explicit_else = true;
                                    break;
                                }
                                _ => break,
                            },
                            _ => break,
                        }
                    }
                    let counts: Vec<(usize, Option<usize>, usize, usize)> = arms
                        .iter()
                        .map(|&(s, e)| {
                            let hits = barrier_weight(pf, fs, (s, e));
                            (hits.len(), hits.first().copied(), s, e)
                        })
                        .collect();
                    if counts.iter().any(|c| c.0 > 0) {
                        let mut live: Vec<usize> = counts
                            .iter()
                            .filter(|&&(_, _, s, e)| !diverging(&pf.toks, (s, e)))
                            .map(|c| c.0)
                            .collect();
                        if !explicit_else {
                            live.push(0); // the implicit empty else arm
                        }
                        if live.len() > 1 && live.iter().any(|&c| c != live[0]) {
                            let site = counts
                                .iter()
                                .find_map(|c| c.1)
                                .unwrap_or(first_open);
                            findings.push(Finding {
                                rule: "wait-graph".into(),
                                file: pf.rel.clone(),
                                line: pf.toks[site].line,
                                function: f.name.clone(),
                                operation: "asymmetric-barrier".into(),
                                chain: vec![format!(
                                    "branch at {}:{}",
                                    pf.rel,
                                    pf.toks[i].line
                                )],
                                message: format!(
                                    "barrier entered on one arm of the branch at {}:{} but not the other(s) — a machine taking the other path deadlocks the cluster",
                                    pf.rel,
                                    pf.toks[i].line
                                ),
                            });
                        }
                    }
                    i = first_open + 1;
                    continue;
                }
                if t == "match" {
                    let Some(open) = body_open(pf, i + 1, be) else {
                        i += 1;
                        continue;
                    };
                    if uniform_condition(&pf.toks, (i + 1, open)) {
                        i = open + 1;
                        continue;
                    }
                    let close = block_close(pf, open + 1, pf.depth[open] + 1, be);
                    let arm_depth = pf.depth[open] + 1;
                    let mut arrows: Vec<usize> = Vec::new();
                    for j in open + 1..close {
                        if pf.toks[j].text == "="
                            && pf.toks.get(j + 1).map(|t| t.text.as_str()) == Some(">")
                            && pf.depth[j] == arm_depth
                        {
                            arrows.push(j);
                        }
                    }
                    let mut live: Vec<(usize, Option<usize>)> = Vec::new();
                    for (ai, &a) in arrows.iter().enumerate() {
                        let end = arrows.get(ai + 1).copied().unwrap_or(close);
                        if diverging(&pf.toks, (a + 2, end)) {
                            continue;
                        }
                        let hits = barrier_weight(pf, fs, (a + 2, end));
                        live.push((hits.len(), hits.first().copied()));
                    }
                    if live.iter().any(|c| c.0 > 0) && live.iter().any(|&(c, _)| c != live[0].0) {
                        let site = live.iter().find_map(|c| c.1).unwrap_or(open);
                        findings.push(Finding {
                            rule: "wait-graph".into(),
                            file: pf.rel.clone(),
                            line: pf.toks[site].line,
                            function: f.name.clone(),
                            operation: "asymmetric-barrier".into(),
                            chain: vec![format!("match at {}:{}", pf.rel, pf.toks[i].line)],
                            message: format!(
                                "barrier entered in some arms of the match at {}:{} but not all — a machine taking another arm deadlocks the cluster",
                                pf.rel,
                                pf.toks[i].line
                            ),
                        });
                    }
                    i = open + 1;
                    continue;
                }
                i += 1;
            }
        }
    }

    ops.sort_by(|a, b| (a.file.as_str(), a.line, a.kind).cmp(&(b.file.as_str(), b.line, b.kind)));

    WaitGraph { findings, ops, edges }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn analyze_waitgraph(files: &[ParsedFile]) -> WaitGraph {
        super::analyze_waitgraph(files, &CallGraph::build(files))
    }

    fn run(src: &str) -> WaitGraph {
        // The scope marker rides in a comment so plain test sources land
        // in scope without a magic path.
        let marked = format!("// analyze: scope(wait-graph)\n{src}");
        analyze_waitgraph(&[parse_file("t.rs", &marked)])
    }

    #[test]
    fn paired_send_recv_is_clean() {
        let r = run(
            "impl M { fn gather(&self) { self.comm.send_vec(0, &v); let x = self.comm.recv_vec(1); } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.ops.len(), 2);
    }

    #[test]
    fn recv_without_send_is_flagged() {
        let r = run("impl M { fn sink(&self) { let x = self.comm.recv_packet(3); } }");
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "recv-without-send(recv_packet)");
    }

    #[test]
    fn transitive_send_through_helper_counts() {
        let r = run(
            "impl B { fn flush(&mut self) { self.sender.send_offset_chunk(0, &d); } }\nimpl M { fn exchange(&self, buf: &mut B) { buf.flush(); let p = self.comm.recv_packet(2); } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn asymmetric_barrier_in_if_is_flagged() {
        let r = run(
            "impl M {\n    fn step(&self, odd: bool) {\n        if odd {\n            self.barrier();\n        }\n        self.work();\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "asymmetric-barrier");
        // The marker comment prepended by `run` shifts everything down a
        // line: the barrier site is line 5, the branch line 4.
        assert_eq!(r.findings[0].line, 5);
        assert!(r.findings[0].chain.iter().any(|c| c.ends_with(":4")), "{:?}", r.findings[0].chain);
    }

    #[test]
    fn method_call_into_a_barrier_helper_counts_as_entering_it() {
        let r = run(
            "impl M { fn sync(&self) { self.barrier(); } fn step(&self, odd: bool) { if odd { self.sync(); } } }",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "asymmetric-barrier");
    }

    #[test]
    fn uniform_const_condition_is_exempt() {
        let r = run(
            "impl M { fn barrier(&self) { self.wait_or_unwind(); if checker::ENABLED { self.check(); self.wait_or_unwind(); } } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn diverging_arm_is_exempt() {
        let r = run(
            "impl M { fn guarded(&self, ok: bool) { if ok { self.barrier(); } else { panic!(\"abort\"); } } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn symmetric_arms_are_clean() {
        let r = run(
            "impl M { fn both(&self, odd: bool) { if odd { self.a(); self.barrier(); } else { self.b(); self.barrier(); } } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn match_arm_asymmetry_is_flagged() {
        let r = run(
            "impl M {\n    fn pick(&self, k: Kind) {\n        match k {\n            Kind::A => self.barrier(),\n            Kind::B => self.work(),\n        }\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "asymmetric-barrier");
    }

    #[test]
    fn barrier_wait_match_on_scrutinee_is_symmetric() {
        let r = run(
            "impl M { fn wait_or_unwind(&self) { match self.barrier.wait() { R::Released => {} R::Aborted => panic_any(1), } } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.ops.iter().filter(|o| o.kind == OpKind::Barrier).count(), 1);
    }

    #[test]
    fn step_regions_make_edges() {
        let r = run(
            "impl M { fn run(&self, ctx: &C) { ctx.step(steps::SAMPLING, |c| { c.comm.send_vec(0, &v); c.comm.recv_vec(1); }); ctx.step(steps::EXCHANGE, |c| { c.comm.send_vec(0, &v); c.comm.recv_vec(1); }); } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.ops.len(), 4);
        assert_eq!(r.edges.len(), 1);
        assert_eq!((r.edges[0].from.as_str(), r.edges[0].to.as_str()), ("sampling", "exchange"));
    }

    #[test]
    fn turbofish_recv_is_classified_and_pairs_with_send() {
        let r = run(
            "impl M {\n    fn gather(&self) {\n        self.comm.send_vec(0, &v);\n        let x = self.comm.recv_vec::<u64>(1);\n    }\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let recvs: Vec<_> = r.ops.iter().filter(|o| o.kind == OpKind::Recv).collect();
        assert_eq!(recvs.len(), 1, "{:?}", r.ops);
        assert_eq!(recvs[0].callee, "recv_vec");
        assert_eq!(recvs[0].line, 5);
    }

    #[test]
    fn out_of_scope_files_are_ignored() {
        let pf = parse_file("crates/pgxd/src/comm.rs", "impl C { fn pump(&self) { let x = self.rx.recv_packet(0); } }");
        let r = analyze_waitgraph(&[pf]);
        assert!(r.findings.is_empty());
        assert!(r.ops.is_empty());
    }
}
