//! Inline markers: `// analyze: allow(<rule>): <reason>`.
//!
//! A marker covers its own line and the next code line (blank, comment
//! and attribute lines are skipped), or the whole body when that line
//! starts a `fn`. The reason after the colon is mandatory. Only
//! [`INLINE_RULE`] reads markers; the other rules are fixed in code.
//!
//! Every marker must pay for itself: a marker that names a rule no pass
//! reads inline, sits in a file outside its rule's scope, has no reason,
//! or covers no finding is a `dead-marker` finding, and nothing can
//! silence it.

use std::collections::BTreeSet;

use crate::items::ParsedFile;
use crate::report::Finding;

/// The rule whose findings an inline marker may cover.
pub const INLINE_RULE: &str = "atomics-ordering";

const PREFIX: &str = "analyze: allow(";

struct Marker {
    file: usize,
    line: usize,
    rule: String,
    /// Lines covered; empty for a marker without a reason.
    covers: BTreeSet<usize>,
    used: bool,
}

fn markers_of(fi: usize, pf: &ParsedFile) -> Vec<Marker> {
    let mut out = Vec::new();
    for (li, comment) in pf.stripped.comments.iter().enumerate() {
        let Some(pos) = comment.find(PREFIX) else { continue };
        let rest = &comment[pos + PREFIX.len()..];
        let Some(close) = rest.find(')') else { continue };
        let line = li + 1;
        let mut covers = BTreeSet::new();
        if !rest[close + 1..].trim_start_matches(':').trim().is_empty() {
            covers.insert(line);
            // Scan down past blank / comment-only / attribute lines.
            let code = &pf.stripped.code;
            let mut n = line + 1;
            while n <= code.len() {
                let c = code[n - 1].trim();
                if !(c.is_empty() || c.starts_with('#') || c.starts_with('[') || c == "]") {
                    break;
                }
                n += 1;
            }
            if n <= code.len() {
                let last = match pf.functions.iter().find(|f| f.line == n) {
                    Some(f) => pf.toks.get(f.body.1).or(pf.toks.last()).map_or(n, |t| t.line),
                    None => n,
                };
                covers.extend(n..=last);
            }
        }
        out.push(Marker { file: fi, line, rule: rest[..close].to_string(), covers, used: false });
    }
    out
}

/// Drops every finding a marker covers and appends one `dead-marker`
/// finding per marker that covered nothing.
pub fn apply_markers(files: &[ParsedFile], findings: Vec<Finding>) -> Vec<Finding> {
    let mut markers: Vec<Marker> =
        files.iter().enumerate().flat_map(|(fi, pf)| markers_of(fi, pf)).collect();
    let mut out = Vec::new();
    for f in findings {
        let mut covered = false;
        if f.rule == INLINE_RULE {
            for m in markers.iter_mut() {
                if m.rule == f.rule && m.covers.contains(&f.line) && files[m.file].rel == f.file {
                    m.used = true;
                    covered = true;
                }
            }
        }
        if !covered {
            out.push(f);
        }
    }
    for m in markers.iter().filter(|m| !m.used) {
        let pf = &files[m.file];
        let why = if m.rule != INLINE_RULE {
            format!("no pass reads `allow({})` inline", m.rule)
        } else if m.covers.is_empty() {
            "it has no reason after the colon".to_string()
        } else if !crate::atomics::in_scope(pf) {
            format!("`{}` is outside the atomics-ordering scope", pf.rel)
        } else {
            format!("it covers no {} finding", m.rule)
        };
        out.push(Finding {
            rule: "dead-marker".into(),
            file: pf.rel.clone(),
            line: m.line,
            function: String::new(),
            operation: format!("allow({})", m.rule),
            chain: Vec::new(),
            message: format!(
                "dead `analyze: allow({})` marker: {why} — delete it, keeping the reason as a plain comment if the code does not show it",
                m.rule
            ),
        });
    }
    out
}
