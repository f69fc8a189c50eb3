//! Findings and report rendering (human text and hand-rolled JSON — no
//! serde, the crate stays dependency-free).

use crate::loopdisc::LoopSite;
use crate::waitgraph::{StepEdge, WaitOp};

/// One analyzer finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// `wait-graph`, `atomics-ordering`, `loop-discipline`, or
    /// `dead-marker` for marker hygiene.
    pub rule: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// Qualified function name, empty when not applicable.
    pub function: String,
    /// What happened: `asymmetric-barrier`, `store(Relaxed)`,
    /// `unbounded-growth(..)`, …
    pub operation: String,
    /// Call chain from the function to the operation (empty if direct).
    pub chain: Vec<String>,
    /// Human-readable description.
    pub message: String,
}

impl Finding {
    /// Sort/dedup key including the line.
    pub fn sort_key(&self) -> (String, String, usize, String, String) {
        (
            self.file.clone(),
            self.function.clone(),
            self.line,
            self.rule.clone(),
            self.operation.clone(),
        )
    }
}

impl std::fmt::Display for Finding {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
    }
}

/// The analyzer's report.
pub struct Report {
    /// Findings that no marker covers — non-empty means failure.
    pub findings: Vec<Finding>,
    /// Wait-graph model: every barrier/send/recv site (v2).
    pub wait_ops: Vec<WaitOp>,
    /// §IV step transitions observed inside one function (v2).
    pub step_edges: Vec<StepEdge>,
    /// Recv loops the loop-discipline pass judged (v3).
    pub loop_sites: Vec<LoopSite>,
    /// Per-pass wall time, `(pass, ms)`. Emitted only on the `--json`
    /// stdout path; the committed report file carries `null` so timing
    /// jitter never shows up as report drift.
    pub timings_ms: Vec<(String, u64)>,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
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
            if !f.chain.is_empty() {
                out.push_str(&format!("    via: {}\n", f.chain.join(" -> ")));
            }
        }
        out.push_str(&format!("pgxd-analyze: {} finding(s)", r.findings.len()));
    }
    out.push_str(&format!(
        " ({} wait site(s), {} loop site(s))\n",
        r.wait_ops.len(),
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
        "{{\"rule\":\"{}\",\"file\":\"{}\",\"line\":{},\"function\":\"{}\",\"operation\":\"{}\",\"chain\":{},\"message\":\"{}\"}}",
        json_escape(&f.rule),
        json_escape(&f.file),
        f.line,
        json_escape(&f.function),
        json_escape(&f.operation),
        json_str_array(&f.chain),
        json_escape(&f.message)
    )
}

/// Renders the machine-readable report (`results/analyze_report.json`,
/// schema `pgxd-analyze/6`).
pub fn render_json(r: &Report) -> String {
    let findings: Vec<String> = r.findings.iter().map(finding_json).collect();
    let wait_ops: Vec<String> = r
        .wait_ops
        .iter()
        .map(|o| {
            format!(
                "{{\"kind\":\"{}\",\"file\":\"{}\",\"line\":{},\"function\":\"{}\",\"callee\":\"{}\"}}",
                o.kind.name(),
                json_escape(&o.file),
                o.line,
                json_escape(&o.function),
                json_escape(&o.callee)
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
        "{{\n  \"schema\": \"pgxd-analyze/6\",\n  \"clean\": {},\n  \"findings\": [{}],\n  \"wait_graph\": {{\"ops\": [{}], \"step_edges\": [{}]}},\n  \"loop_sites\": [{}],\n  \"timings_ms\": {},\n  \"summary\": {{\"findings\": {}, \"wait_ops\": {}, \"loop_sites\": {}}}\n}}\n",
        r.is_clean(),
        findings.join(","),
        wait_ops.join(","),
        step_edges.join(","),
        loop_sites.join(","),
        timings,
        r.findings.len(),
        r.wait_ops.len(),
        r.loop_sites.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(findings: Vec<Finding>) -> Report {
        Report {
            findings,
            wait_ops: Vec::new(),
            step_edges: Vec::new(),
            loop_sites: Vec::new(),
            timings_ms: Vec::new(),
        }
    }

    #[test]
    fn json_escapes_and_shape() {
        let f = Finding {
            rule: "wait-graph".into(),
            file: "a\"b.rs".into(),
            line: 1,
            function: "A::f".into(),
            operation: "asymmetric-barrier".into(),
            chain: Vec::new(),
            message: "m".into(),
        };
        let j = render_json(&report(vec![f]));
        assert!(j.contains("\"schema\": \"pgxd-analyze/6\""));
        assert!(j.contains("a\\\"b.rs"));
        assert!(j.contains("\"clean\": false"));
        assert!(j.contains("\"wait_graph\""));
        assert!(j.contains("\"loop_sites\""));
        // No timings on the persisted path: the field is null so the
        // committed report never drifts on wall-clock jitter.
        assert!(j.contains("\"timings_ms\": null"));
    }

    #[test]
    fn timings_render_on_the_stdout_path() {
        let mut r = report(Vec::new());
        r.timings_ms.push(("wait-graph".to_string(), 7));
        let j = render_json(&r);
        assert!(j.contains("\"timings_ms\": {\"wait-graph\": 7}"), "{j}");
    }
}
