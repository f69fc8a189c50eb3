//! Findings, the `analyze.allow` allowlist, and report rendering (human
//! text and hand-rolled JSON — no serde, the crate stays dependency-free).

use std::collections::BTreeSet;

use crate::analysis::{AnalysisResult, Edge};
use crate::hotpath::HotRegion;
use crate::loopdisc::LoopSite;
use crate::waitgraph::{step_counts, StepEdge, WaitOp};

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// `lock-order`, `blocking-under-lock`, `wait-graph`,
    /// `atomics-ordering`, `hot-path-alloc`, `loop-discipline`, or
    /// `stale-allow` / `allow-format` / `dead-marker` for allowlist and
    /// marker hygiene.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Qualified function name, empty when not applicable.
    pub function: String,
    /// The lock held when the operation happened, if any.
    pub held: Option<String>,
    /// What happened: `lock(Name)`, a blocking op name, an `alloc(..)`, or
    /// `cycle(..)`.
    pub operation: String,
    /// Call chain from the function to the operation (empty if direct).
    pub chain: Vec<String>,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Allowlist key: stable across line-number churn so one entry covers
    /// every call site of the same shape.
    pub fn key(&self) -> String {
        format!(
            "{} | {} | {} | {} | {}",
            self.rule,
            self.file,
            self.function,
            self.held.as_deref().unwrap_or("-"),
            self.operation
        )
    }

    /// Sort/dedup key including the line.
    pub fn sort_key(&self) -> (String, String, usize, String, String, String) {
        (
            self.file.clone(),
            self.function.clone(),
            self.line,
            self.rule.clone(),
            self.held.clone().unwrap_or_default(),
            self.operation.clone(),
        )
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// One parsed `analyze.allow` entry.
#[derive(Debug, Clone)]
pub struct AllowEntry {
    /// 1-based line in the allow file.
    pub line: usize,
    /// Normalized key (same shape as [`Finding::key`]).
    pub key: String,
    /// Whether a `#` justification comment directly precedes the entry.
    pub justified: bool,
}

/// Parses `analyze.allow` text: `#` comments, blank lines, and one
/// finding key per line (`rule | file | function | held | operation`,
/// whitespace-insensitive around `|`). Every entry must be preceded by at
/// least one `#` comment explaining it.
pub fn parse_allowlist(text: &str) -> Vec<AllowEntry> {
    let mut out = Vec::new();
    let mut prev_was_comment = false;
    for (i, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() {
            prev_was_comment = false;
            continue;
        }
        if let Some(rest) = line.strip_prefix('#') {
            prev_was_comment = !rest.trim().is_empty();
            continue;
        }
        let fields: Vec<String> = line.split('|').map(|f| f.trim().to_string()).collect();
        let key = fields.join(" | ");
        out.push(AllowEntry {
            line: i + 1,
            key,
            justified: prev_was_comment,
        });
        // Consecutive entries may share one comment block.
    }
    out
}

/// Final report after allowlist filtering.
pub struct Report {
    /// Findings that remain (not allowlisted) — non-empty means failure.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an allow entry.
    pub allowlisted: Vec<Finding>,
    pub graph_nodes: Vec<String>,
    pub graph_edges: Vec<Edge>,
    pub cycles: Vec<Vec<String>>,
    /// Wait-graph model: every barrier/send/recv site (v2).
    pub wait_ops: Vec<WaitOp>,
    /// §IV step transitions observed inside one function (v2).
    pub step_edges: Vec<StepEdge>,
    /// Hot-region roots the hot-path-alloc pass walked from (v3).
    pub hot_regions: Vec<HotRegion>,
    /// Recv loops the loop-discipline pass judged (v3).
    pub loop_sites: Vec<LoopSite>,
    /// Per-pass wall time, `(pass, ms)`. Emitted only on the `--json`
    /// stdout path; the committed report file carries `null` so timing
    /// jitter never shows up as report drift.
    pub timings_ms: Vec<(String, u64)>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty() && self.cycles.is_empty()
    }
}

/// Applies the allowlist: suppresses matching findings, errors on stale or
/// unjustified entries. Lock-order cycles, loop-discipline unbounded
/// growth and dead markers cannot be allowlisted: a cycle is a deadlock,
/// unbounded growth in a recv loop is an OOM under backlog, and a dead
/// marker is deleted, not excused — never a judgment call, fix the code
/// instead.
pub fn apply_allowlist(
    result: AnalysisResult,
    entries: &[AllowEntry],
    allow_path: &str,
) -> Report {
    let mut findings = Vec::new();
    let mut allowlisted = Vec::new();
    let mut used: BTreeSet<usize> = BTreeSet::new();
    for f in result.findings {
        if f.rule == "lock-order"
            || f.rule == "dead-marker"
            || (f.rule == "loop-discipline" && f.operation.starts_with("unbounded-growth("))
        {
            findings.push(f);
            continue;
        }
        let key = f.key();
        match entries.iter().position(|e| e.key == key) {
            Some(i) => {
                used.insert(i);
                allowlisted.push(f);
            }
            None => findings.push(f),
        }
    }
    for (i, e) in entries.iter().enumerate() {
        if !e.justified {
            findings.push(Finding {
                rule: "allow-format".into(),
                file: allow_path.to_string(),
                line: e.line,
                function: String::new(),
                held: None,
                operation: e.key.clone(),
                chain: Vec::new(),
                message: format!(
                    "allow entry has no `#` justification comment above it: {}",
                    e.key
                ),
            });
        }
        if !used.contains(&i) {
            findings.push(Finding {
                rule: "stale-allow".into(),
                file: allow_path.to_string(),
                line: e.line,
                function: String::new(),
                held: None,
                operation: e.key.clone(),
                chain: Vec::new(),
                message: format!("allow entry matches no current finding (stale): {}", e.key),
            });
        }
    }
    Report {
        findings,
        allowlisted,
        graph_nodes: result.graph.nodes,
        graph_edges: result.graph.edges,
        cycles: result.cycles,
        wait_ops: Vec::new(),
        step_edges: Vec::new(),
        hot_regions: Vec::new(),
        loop_sites: Vec::new(),
        timings_ms: Vec::new(),
    }
}

/// Renders the human-readable report.
pub fn render_human(r: &Report) -> String {
    let mut out = String::new();
    if r.findings.is_empty() {
        out.push_str("pgxd-analyze: clean");
    } else {
        for f in &r.findings {
            out.push_str(&f.to_string());
            out.push('\n');
            if !f.chain.is_empty() && f.rule != "lock-order" {
                out.push_str(&format!("    via: {}\n", f.chain.join(" -> ")));
            }
            if f.rule == "lock-order" {
                for step in &f.chain {
                    out.push_str(&format!("    {step}\n"));
                }
            }
        }
        out.push_str(&format!("pgxd-analyze: {} finding(s)", r.findings.len()));
    }
    out.push_str(&format!(
        " ({} allowlisted, {} lock(s), {} order edge(s), {} cycle(s), {} wait site(s), {} hot region(s), {} loop site(s))\n",
        r.allowlisted.len(),
        r.graph_nodes.len(),
        r.graph_edges.len(),
        r.cycles.len(),
        r.wait_ops.len(),
        r.hot_regions.len(),
        r.loop_sites.len()
    ));
    out
}

/// Escapes `s` for a JSON string literal (quotes not included).
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_str_array(items: &[String]) -> String {
    let inner: Vec<String> = items.iter().map(|s| format!("\"{}\"", json_escape(s))).collect();
    format!("[{}]", inner.join(","))
}

fn finding_json(f: &Finding) -> String {
    format!(
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"function\":\"{}\",\"held\":{},\"operation\":\"{}\",\"chain\":{},\"message\":\"{}\"}}",
        json_escape(&f.rule),
        json_escape(&f.file),
        f.line,
        json_escape(&f.function),
        match &f.held {
            Some(h) => format!("\"{}\"", json_escape(h)),
            None => "null".to_string(),
        },
        json_escape(&f.operation),
        json_str_array(&f.chain),
        json_escape(&f.message)
    )
}

/// Renders the machine-readable report (`results/analyze_report.json`,
/// schema `pgxd-analyze/5`).
pub fn render_json(r: &Report) -> String {
    let findings: Vec<String> = r.findings.iter().map(finding_json).collect();
    let allowed: Vec<String> = r.allowlisted.iter().map(finding_json).collect();
    let edges: Vec<String> = r
        .graph_edges
        .iter()
        .map(|e| {
            format!(
                "{{\"from\":\"{}\",\"to\":\"{}\",\"file\":\"{}\",\"function\":\"{}\",\"line\":{},\"via\":{}}}",
                json_escape(&e.from),
                json_escape(&e.to),
                json_escape(&e.file),
                json_escape(&e.function),
                e.line,
                json_str_array(&e.via)
            )
        })
        .collect();
    let cycles: Vec<String> = r.cycles.iter().map(|c| json_str_array(c)).collect();
    let wait_ops: Vec<String> = r
        .wait_ops
        .iter()
        .map(|o| {
            format!(
                "{{\"kind\":\"{}\",\"file\":\"{}\",\"line\":{},\"function\":\"{}\",\"callee\":\"{}\",\"step\":{}}}",
                o.kind.name(),
                json_escape(&o.file),
                o.line,
                json_escape(&o.function),
                json_escape(&o.callee),
                match &o.step {
                    Some(s) => format!("\"{}\"", json_escape(s)),
                    None => "null".to_string(),
                }
            )
        })
        .collect();
    let steps: Vec<String> = step_counts(&r.wait_ops)
        .into_iter()
        .map(|(s, b, sd, rc)| {
            format!(
                "{{\"step\":\"{}\",\"barriers\":{b},\"sends\":{sd},\"recvs\":{rc}}}",
                json_escape(&s)
            )
        })
        .collect();
    let step_edges: Vec<String> = r
        .step_edges
        .iter()
        .map(|e| {
            format!(
                "{{\"from\":\"{}\",\"to\":\"{}\",\"function\":\"{}\"}}",
                json_escape(&e.from),
                json_escape(&e.to),
                json_escape(&e.function)
            )
        })
        .collect();
    let hot_regions: Vec<String> = r
        .hot_regions
        .iter()
        .map(|h| {
            format!(
                "{{\"name\":\"{}\",\"kind\":\"{}\",\"file\":\"{}\",\"line\":{}}}",
                json_escape(&h.name),
                json_escape(&h.kind),
                json_escape(&h.file),
                h.line
            )
        })
        .collect();
    let loop_sites: Vec<String> = r
        .loop_sites
        .iter()
        .map(|l| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"function\":\"{}\"}}",
                json_escape(&l.file),
                l.line,
                json_escape(&l.function)
            )
        })
        .collect();
    let timings = if r.timings_ms.is_empty() {
        "null".to_string()
    } else {
        let inner: Vec<String> = r
            .timings_ms
            .iter()
            .map(|(p, ms)| format!("\"{}\": {ms}", json_escape(p)))
            .collect();
        format!("{{{}}}", inner.join(", "))
    };
    format!(
        "{{\n  \"schema\": \"pgxd-analyze/5\",\n  \"clean\": {},\n  \"findings\": [{}],\n  \"allowlisted\": [{}],\n  \"lock_graph\": {{\"nodes\": {}, \"edges\": [{}]}},\n  \"cycles\": [{}],\n  \"wait_graph\": {{\"ops\": [{}], \"steps\": [{}], \"step_edges\": [{}]}},\n  \"hot_regions\": [{}],\n  \"loop_sites\": [{}],\n  \"timings_ms\": {},\n  \"summary\": {{\"findings\": {}, \"allowlisted\": {}, \"locks\": {}, \"edges\": {}, \"cycles\": {}, \"wait_ops\": {}, \"hot_regions\": {}, \"loop_sites\": {}}}\n}}\n",
        r.is_clean(),
        findings.join(","),
        allowed.join(","),
        json_str_array(&r.graph_nodes),
        edges.join(","),
        cycles.join(","),
        wait_ops.join(","),
        steps.join(","),
        step_edges.join(","),
        hot_regions.join(","),
        loop_sites.join(","),
        timings,
        r.findings.len(),
        r.allowlisted.len(),
        r.graph_nodes.len(),
        r.graph_edges.len(),
        r.cycles.len(),
        r.wait_ops.len(),
        r.hot_regions.len(),
        r.loop_sites.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::LockGraph;

    fn finding(key_parts: (&str, &str, &str, Option<&str>, &str)) -> Finding {
        Finding {
            rule: key_parts.0.into(),
            file: key_parts.1.into(),
            line: 1,
            function: key_parts.2.into(),
            held: key_parts.3.map(|s| s.to_string()),
            operation: key_parts.4.into(),
            chain: Vec::new(),
            message: "m".into(),
        }
    }

    fn result(findings: Vec<Finding>) -> AnalysisResult {
        AnalysisResult {
            findings,
            graph: LockGraph::default(),
            cycles: Vec::new(),
        }
    }

    #[test]
    fn allow_entry_suppresses_matching_finding() {
        let f = finding(("blocking-under-lock", "a.rs", "A::f", Some("A::x"), "recv"));
        let entries = parse_allowlist("# justified because reasons\nblocking-under-lock | a.rs | A::f | A::x | recv\n");
        let r = apply_allowlist(result(vec![f]), &entries, "analyze.allow");
        assert!(r.is_clean(), "{:?}", r.findings);
        assert_eq!(r.allowlisted.len(), 1);
    }

    #[test]
    fn stale_entry_is_an_error() {
        let entries = parse_allowlist("# why\nblocking-under-lock | a.rs | A::f | A::x | recv\n");
        let r = apply_allowlist(result(Vec::new()), &entries, "analyze.allow");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "stale-allow");
        assert_eq!(r.findings[0].line, 2);
    }

    #[test]
    fn unjustified_entry_is_an_error() {
        let f = finding(("blocking-under-lock", "a.rs", "A::f", Some("A::x"), "recv"));
        let entries = parse_allowlist("blocking-under-lock | a.rs | A::f | A::x | recv\n");
        let r = apply_allowlist(result(vec![f]), &entries, "analyze.allow");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].rule, "allow-format");
    }

    #[test]
    fn lock_order_cycles_cannot_be_allowlisted() {
        let f = finding(("lock-order", "a.rs", "A::f", None, "cycle(A::x -> A::y -> A::x)"));
        let key = f.key();
        let entries = parse_allowlist(&format!("# nope\n{key}\n"));
        let r = apply_allowlist(result(vec![f]), &entries, "analyze.allow");
        assert!(r.findings.iter().any(|f| f.rule == "lock-order"));
    }

    #[test]
    fn json_escapes_and_shape() {
        let f = finding(("hot-path-alloc", "a\"b.rs", "A::f", None, "alloc(to_vec)"));
        let r = apply_allowlist(result(vec![f]), &[], "analyze.allow");
        let j = render_json(&r);
        assert!(j.contains("\"schema\": \"pgxd-analyze/5\""));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("\"wait_graph\""));
        assert!(j.contains("\"hot_regions\""));
        assert!(j.contains("\"loop_sites\""));
        // No timings on the persisted path: the field is null so the
        // committed report never drifts on wall-clock jitter.
        assert!(j.contains("\"timings_ms\": null"));
    }

    #[test]
    fn timings_render_on_the_stdout_path() {
        let mut r = apply_allowlist(result(Vec::new()), &[], "analyze.allow");
        r.timings_ms.push(("hot-path-alloc".to_string(), 7));
        let j = render_json(&r);
        assert!(j.contains("\"timings_ms\": {\"hot-path-alloc\": 7}"), "{j}");
    }

    #[test]
    fn unbounded_growth_cannot_be_allowlisted() {
        let f = finding((
            "loop-discipline",
            "a.rs",
            "A::pump",
            None,
            "unbounded-growth(push:self.backlog)",
        ));
        let key = f.key();
        let entries = parse_allowlist(&format!("# nope\n{key}\n"));
        let r = apply_allowlist(result(vec![f]), &entries, "analyze.allow");
        assert!(r.findings.iter().any(|f| f.rule == "loop-discipline"));
    }
}
