//! Hot-path allocation pass (`hot-path-alloc`).
//!
//! The paper's §IV-C speedup rests on a data plane whose per-element work
//! does not allocate: a chunk allocates the columns it ships, once, and
//! nothing else on the way does. The memtrack suites
//! (`alloc_regression.rs`, `alloc_step_path.rs`) check this
//! *dynamically*; this pass is the static twin: it inventories **hot
//! regions**, walks the resolved call graph from them, and flags every
//! heap-allocation site reachable on the way.
//!
//! Hot regions (the BFS roots) are the per-element data plane only:
//!
//! * **kernel** — every function in the local-sort kernel, the merges
//!   and the request buffer (`quicksort.rs`, `merge.rs`, `kway.rs`,
//!   `buffer.rs`);
//! * **exchange** — the chunk path of `MachineCtx::exchange_into`: its
//!   innermost loop bodies (the per-batch self copy, the per-range send
//!   inside each destination's task, the receive loop). The stream
//!   openers' receive and layout and the per-destination set-up around
//!   the tasks, which ships each stream's opener, are O(p) per exchange
//!   and stay cold;
//! * **fabric / trace-emit / metrics-emit** — functions in `comm.rs`,
//!   `trace.rs`, `metrics.rs` whose bare name matches the per-file
//!   prefixes below (send/recv, the trace recorder, the `Counter`
//!   emits);
//! * **marked** — in files carrying an `analyze: scope(hot-path-alloc)`
//!   comment (fixtures), functions whose bare name starts with `hot_`.
//!
//! Step bodies and the O(p) collectives are not roots: they run once per
//! step or per collective, not per element.
//!
//! Allocation sites are syntactic: `vec!` / `format!`, `T::new` /
//! `T::from` for the owning std types (plus `Arc`/`Rc`), the allocating
//! methods `.to_vec()` / `.to_owned()` / `.to_string()` / `.clone()` /
//! `.collect()` (turbofish included), and `T::with_capacity` **only
//! inside a loop** — a one-shot pre-size is exactly what we want, one
//! per iteration is not. Sites inside panic/assert-class macro
//! arguments are exempt: diagnostics assemble on the cold path by
//! construction.
//!
//! Findings carry the chain `alloc at file:line <- reachable from hot
//! region <name> via f1 -> f2`. Genuinely cold or amortized sites are
//! annotated in place (see [`crate::markers`]):
//!
//! ```text
//! // analyze: allow(hot-path-alloc): the boxed payload IS the wire
//! // format — the in-process fabric ships `Box<dyn Any>` envelopes.
//! ```

use std::collections::{HashMap, HashSet, VecDeque};

use crate::analysis::{call_open_paren, is_ident, CallGraph};
use crate::items::{matching_delim, ParsedFile};
use crate::loopdisc::find_loops;
use crate::report::Finding;

/// Marker pulling extra files (fixtures) into scope as root providers.
pub const SCOPE_MARKER: &str = "analyze: scope(hot-path-alloc)";

/// Files where *every* function is a hot root: the local-sort kernel,
/// the step-1 and step-6 merges, and the exchange request buffer.
const KERNEL_FILES: [&str; 4] = [
    "crates/pgxd/src/buffer.rs",
    "crates/algos/src/quicksort.rs",
    "crates/algos/src/merge.rs",
    "crates/algos/src/kway.rs",
];

/// Per-file hot-prefix roots: `(file suffix, bare-name prefixes, kind)`.
/// A function is a root when its bare name starts with any listed
/// prefix; everything else in the file is setup/drain and only becomes
/// hot if a root reaches it.
const PREFIX_ROOTS: [(&str, &[&str], &str); 3] = [
    ("crates/pgxd/src/comm.rs", &["send_", "recv_"], "fabric"),
    (
        "crates/pgxd/src/trace.rs",
        &["emit", "instant", "span_since", "now_ns"],
        "trace-emit",
    ),
    ("crates/pgxd/src/metrics.rs", &["inc", "add", "record_"], "metrics-emit"),
];

/// The function whose innermost loop bodies are the exchange's chunk path.
const EXCHANGE_ROOT: (&str, &str) = ("crates/pgxd/src/machine.rs", "MachineCtx::exchange_into");

/// Owning std types whose `new`/`from` constructors allocate.
const ALLOC_TYPES: [&str; 10] = [
    "Vec", "String", "Box", "VecDeque", "HashMap", "HashSet", "BTreeMap", "BTreeSet", "Arc", "Rc",
];

/// Methods that allocate wherever they are called.
const ALLOC_METHODS: [&str; 5] = ["to_vec", "to_owned", "to_string", "clone", "collect"];

/// Macro names whose arguments are cold by construction.
const COLD_MACROS: [&str; 10] = [
    "panic",
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
    "unreachable",
    "todo",
    "unimplemented",
];

/// One hot region: a BFS root for the reachability walk.
#[derive(Debug, Clone)]
pub struct HotRegion {
    /// The qualified fn name.
    pub name: String,
    /// `kernel` | `exchange` | `fabric` | `trace-emit` | `metrics-emit` |
    /// `marked`.
    pub kind: String,
    pub file: String,
    pub line: usize,
}

pub struct HotPaths {
    pub findings: Vec<Finding>,
    pub regions: Vec<HotRegion>,
}

/// A root region: token range within one function of one file.
struct Root {
    name: String,
    kind: String,
    fi: usize,
    fj: usize,
    range: (usize, usize),
    line: usize,
}

struct AllocSite {
    line: usize,
    kind: String,
}

fn has_marker(pf: &ParsedFile) -> bool {
    pf.stripped.comments.iter().any(|c| c.contains(SCOPE_MARKER))
}

fn is_workspace(pf: &ParsedFile) -> bool {
    pf.rel.starts_with("crates/")
}

fn in_any(ranges: &[(usize, usize)], i: usize) -> bool {
    ranges.iter().any(|&(s, e)| i >= s && i < e)
}

/// Loop-body token ranges inside `body`, nested ones included.
fn loop_ranges(pf: &ParsedFile, body: (usize, usize)) -> Vec<(usize, usize)> {
    find_loops(pf, body).into_iter().map(|l| l.body).collect()
}

/// Token ranges covered by panic-class macro arguments within `body`.
fn cold_ranges(pf: &ParsedFile, body: (usize, usize)) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = body.0;
    while i + 1 < body.1 {
        let t = pf.toks[i].text.as_str();
        if COLD_MACROS.contains(&t) && pf.toks[i + 1].text == "!" {
            if let Some(open) = pf
                .toks
                .get(i + 2)
                .filter(|t| matches!(t.text.as_str(), "(" | "[" | "{"))
                .map(|_| i + 2)
            {
                let close = matching_delim(&pf.toks, open);
                out.push((open, close));
                i = open + 1;
                continue;
            }
        }
        if t == "panic_any" && pf.toks[i + 1].text == "(" {
            out.push((i + 1, matching_delim(&pf.toks, i + 1)));
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// Allocation sites in `range`, given the enclosing function's loop and
/// cold ranges.
fn alloc_sites(
    pf: &ParsedFile,
    range: (usize, usize),
    loops: &[(usize, usize)],
    cold: &[(usize, usize)],
) -> Vec<AllocSite> {
    let toks = &pf.toks;
    let mut out = Vec::new();
    let mut i = range.0;
    while i < range.1 {
        if in_any(cold, i) {
            i += 1;
            continue;
        }
        let t = toks[i].text.as_str();
        // Macro allocs: `vec![..]`, `format!(..)`.
        if (t == "vec" || t == "format")
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some("!")
        {
            out.push(AllocSite { line: toks[i].line, kind: format!("{t}!") });
            i += 2;
            continue;
        }
        // Path allocs: `T::new(` / `T::from(` / `T::with_capacity(`.
        if ALLOC_TYPES.contains(&t)
            && toks.get(i + 1).map(|t| t.text.as_str()) == Some(":")
            && toks.get(i + 2).map(|t| t.text.as_str()) == Some(":")
            && toks.get(i + 4).map(|t| t.text.as_str()) == Some("(")
        {
            let name = toks[i + 3].text.as_str();
            if name == "new" || name == "from" {
                out.push(AllocSite { line: toks[i].line, kind: format!("{t}::{name}") });
            } else if name == "with_capacity" && in_any(loops, i) {
                out.push(AllocSite {
                    line: toks[i].line,
                    kind: format!("{t}::with_capacity@loop"),
                });
            }
            i += 5;
            continue;
        }
        // Method allocs, turbofish included: `.collect::<Vec<_>>(`.
        if t == "." && i + 2 < range.1 && is_ident(&toks[i + 1].text) {
            if let Some(open) = call_open_paren(toks, i + 1) {
                let name = toks[i + 1].text.as_str();
                if ALLOC_METHODS.contains(&name) {
                    out.push(AllocSite { line: toks[i + 1].line, kind: name.to_string() });
                }
                i = open + 1;
                continue;
            }
        }
        i += 1;
    }
    out
}

pub fn analyze_hotpath(files: &[ParsedFile], graph: &CallGraph) -> HotPaths {
    let sites = &graph.fns;
    // Qualified fn name -> occurrences (file idx, fn idx).
    let mut occs: HashMap<String, Vec<(usize, usize)>> = HashMap::new();
    for (fi, pf) in files.iter().enumerate() {
        for (fj, f) in pf.functions.iter().enumerate() {
            occs.entry(f.name.clone()).or_default().push((fi, fj));
        }
    }

    // ── Root inventory ─────────────────────────────────────────────
    let mut roots: Vec<Root> = Vec::new();
    for (fi, pf) in files.iter().enumerate() {
        let marked = has_marker(pf);
        let kernel = KERNEL_FILES.iter().any(|s| pf.rel.ends_with(s));
        let prefixes = PREFIX_ROOTS.iter().find(|(f, _, _)| pf.rel.ends_with(f));
        if !(marked || is_workspace(pf)) {
            continue;
        }
        for (fj, f) in pf.functions.iter().enumerate() {
            let bare = f.name.rsplit("::").next().unwrap_or(&f.name);
            let root = |kind: &str, range: (usize, usize), line: usize| Root {
                name: f.name.clone(),
                kind: kind.to_string(),
                fi,
                fj,
                range,
                line,
            };
            if pf.rel.ends_with(EXCHANGE_ROOT.0) && f.name == EXCHANGE_ROOT.1 {
                let loops = find_loops(pf, f.body);
                for l in &loops {
                    if !loops.iter().any(|m| l.body.0 < m.body.0 && m.body.1 < l.body.1) {
                        roots.push(root("exchange", l.body, pf.toks[l.kw].line));
                    }
                }
                continue;
            }
            let kind = if kernel {
                Some("kernel")
            } else if let Some((_, pfx, kind)) = prefixes {
                pfx.iter().any(|p| bare.starts_with(p)).then_some(*kind)
            } else if marked && bare.starts_with("hot_") {
                Some("marked")
            } else {
                None
            };
            if let Some(kind) = kind {
                roots.push(root(kind, f.body, f.line));
            }
        }
    }
    roots.sort_by(|a, b| {
        (files[a.fi].rel.as_str(), a.line, a.name.as_str())
            .cmp(&(files[b.fi].rel.as_str(), b.line, b.name.as_str()))
    });
    let regions: Vec<HotRegion> = roots
        .iter()
        .map(|r| HotRegion {
            name: r.name.clone(),
            kind: r.kind.clone(),
            file: files[r.fi].rel.clone(),
            line: r.line,
        })
        .collect();

    // ── Reachability walk ──────────────────────────────────────────
    let mut findings = Vec::new();
    let mut visited: HashSet<String> = HashSet::new();
    // (callee, path from root ending at callee, root description)
    let mut queue: VecDeque<(String, Vec<String>, String)> = VecDeque::new();

    let emit = |pf: &ParsedFile,
                    fn_name: &str,
                    root_desc: &str,
                    path: &[String],
                    range: (usize, usize),
                    loops: &[(usize, usize)],
                    cold: &[(usize, usize)],
                    findings: &mut Vec<Finding>| {
        for a in alloc_sites(pf, range, loops, cold) {
            let via = if path.is_empty() {
                String::new()
            } else {
                format!(" via {}", path.join(" -> "))
            };
            let mut chain = vec![root_desc.to_string()];
            chain.extend(path.iter().cloned());
            findings.push(Finding {
                rule: "hot-path-alloc".into(),
                file: pf.rel.clone(),
                line: a.line,
                function: fn_name.to_string(),
                held: None,
                operation: format!("alloc({})", a.kind),
                chain,
                message: format!(
                    "alloc `{}` at {}:{} in `{fn_name}` <- reachable from {root_desc}{via} — per-element work must not allocate; annotate genuinely cold/amortized paths (or a chunk's own columns) with `analyze: allow(hot-path-alloc): <reason>`",
                    a.kind, pf.rel, a.line
                ),
            });
        }
    };

    for r in &roots {
        let pf = &files[r.fi];
        let f = &pf.functions[r.fj];
        let loops = loop_ranges(pf, f.body);
        let cold = cold_ranges(pf, f.body);
        let root_desc = format!("hot region `{}` at {}:{}", r.name, pf.rel, r.line);
        emit(pf, &f.name, &root_desc, &[], r.range, &loops, &cold, &mut findings);
        for (idx, _, targets) in sites[r.fi][r.fj].calls() {
            if idx < r.range.0 || idx > r.range.1 {
                continue;
            }
            for t in targets {
                queue.push_back((t.clone(), vec![t.clone()], root_desc.clone()));
            }
        }
    }

    while let Some((name, path, root_desc)) = queue.pop_front() {
        if !visited.insert(name.clone()) {
            continue;
        }
        let Some(occ) = occs.get(&name) else { continue };
        for &(fi, fj) in occ {
            let pf = &files[fi];
            let f = &pf.functions[fj];
            let loops = loop_ranges(pf, f.body);
            let cold = cold_ranges(pf, f.body);
            emit(pf, &f.name, &root_desc, &path, f.body, &loops, &cold, &mut findings);
            if path.len() >= 8 {
                continue;
            }
            for (_, _, targets) in sites[fi][fj].calls() {
                for t in targets {
                    if !visited.contains(t) {
                        let mut p = path.clone();
                        p.push(t.clone());
                        queue.push_back((t.clone(), p, root_desc.clone()));
                    }
                }
            }
        }
    }

    findings.sort_by_key(|f| f.sort_key());
    findings.dedup_by(|a, b| a.sort_key() == b.sort_key());
    HotPaths { findings, regions }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn analyze_hotpath(files: &[ParsedFile]) -> HotPaths {
        super::analyze_hotpath(files, &CallGraph::build(files))
    }

    fn run(src: &str) -> HotPaths {
        let marked = format!("// analyze: scope(hot-path-alloc)\n{src}");
        analyze_hotpath(&[parse_file("t.rs", &marked)])
    }

    #[test]
    fn exchange_roots_are_its_innermost_loops_and_step_bodies_are_cold() {
        let src = "impl MachineCtx {\n    fn exchange_into(&mut self, ctx: &C) {\n        let counts = self.counts.to_vec();\n        for dst in 0..p {\n            let h = self.sender.clone();\n            for i in 0..n {\n                let copy = self.data.to_vec();\n            }\n        }\n        ctx.step(steps::EXCHANGE, |c| {\n            let v = vec![0u8; 4];\n        });\n    }\n}\n";
        let r = analyze_hotpath(&[parse_file("crates/pgxd/src/machine.rs", src)]);
        let regions: Vec<(&str, usize)> = r.regions.iter().map(|h| (h.kind.as_str(), h.line)).collect();
        assert_eq!(regions, [("exchange", 6)]);
        let lines: Vec<usize> = r.findings.iter().map(|f| f.line).collect();
        assert_eq!(lines, [7], "{:?}", r.findings);
    }

    #[test]
    fn alloc_reached_two_deep_carries_call_chain() {
        let r = run(
            "impl M {\n    fn hot_drive(&self) {\n        self.ship();\n    }\n    fn ship(&self) {\n        self.pack();\n    }\n    fn pack(&self) {\n        let v = vec![0u8; 4];\n    }\n}\n",
        );
        let f = r.findings.iter().find(|f| f.operation == "alloc(vec!)").expect("vec! finding");
        assert_eq!(f.line, 10);
        assert_eq!(f.function, "M::pack");
        assert_eq!(f.chain[1..], ["M::ship".to_string(), "M::pack".to_string()]);
    }

    #[test]
    fn setup_alloc_outside_hot_regions_is_clean() {
        let r = run(
            "impl M {\n    fn new(n: usize) -> Self {\n        M { buf: Vec::with_capacity(n), name: String::new() }\n    }\n    fn hot_kernel(&mut self) {\n        self.buf.sort();\n    }\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn with_capacity_flagged_only_inside_a_loop() {
        let r = run(
            "impl M {\n    fn hot_run(&self, n: usize) {\n        let acc = Vec::with_capacity(n);\n        for i in 0..n {\n            let tmp = Vec::with_capacity(8);\n        }\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "alloc(Vec::with_capacity@loop)");
        assert_eq!(r.findings[0].line, 6);
    }

    #[test]
    fn panic_macro_arguments_are_cold() {
        let r = run(
            "impl M {\n    fn hot_check(&self, n: usize) {\n        assert!(n > 0, \"bad n: {}\", format!(\"{n}\"));\n        debug_assert_eq!(self.v.to_vec().len(), n);\n    }\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn turbofish_collect_is_flagged_at_line() {
        let r = run(
            "impl M {\n    fn hot_gather(&self) {\n        let v = self.xs.iter().map(|x| x + 1).collect::<Vec<u64>>();\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "alloc(collect)");
        assert_eq!(r.findings[0].line, 4);
    }

    #[test]
    fn closure_alloc_attributed_to_enclosing_fn() {
        let r = run(
            "impl M {\n    fn hot_fanout(&self) {\n        self.dsts.iter().for_each(|d| {\n            let owned = d.name.to_string();\n        });\n    }\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "alloc(to_string)");
        assert_eq!(r.findings[0].line, 5);
        assert_eq!(r.findings[0].function, "M::hot_fanout");
    }

    #[test]
    fn annotated_alloc_is_allowed_and_reason_is_mandatory() {
        let marked = |src: &str| {
            let files = [parse_file("t.rs", &format!("// analyze: scope(hot-path-alloc)\n{src}"))];
            let found = crate::markers::apply_markers(&files, analyze_hotpath(&files).findings);
            found.into_iter().map(|f| f.rule).collect::<Vec<_>>()
        };
        let ok = marked(
            "impl M {\n    fn hot_init(&self) {\n        // analyze: allow(hot-path-alloc): one-shot warmup, not steady state\n        let v = vec![0u8; 4];\n    }\n}\n",
        );
        assert!(ok.is_empty(), "{ok:?}");
        let bare = marked(
            "impl M {\n    fn hot_init(&self) {\n        // analyze: allow(hot-path-alloc)\n        let v = vec![0u8; 4];\n    }\n}\n",
        );
        assert_eq!(bare, ["hot-path-alloc", "dead-marker"], "a bare marker covers nothing");
    }

    #[test]
    fn unmarked_non_workspace_file_has_no_roots() {
        let pf = parse_file(
            "t.rs",
            "impl M { fn hot_run(&self) { let v = vec![1]; } fn drive(&self, ctx: &C) { ctx.step(steps::EXCHANGE, |c| { let v = vec![1]; }); } }",
        );
        let r = analyze_hotpath(&[pf]);
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert!(r.regions.is_empty());
    }
}
