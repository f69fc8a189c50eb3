//! Chunk-custody dataflow pass (`chunk-custody`, schema pgxd-analyze/2).
//!
//! Every `ChunkPool::acquire` must reach exactly one release
//! (`release` / `release_inbound`), an explicit `drop`, or a hand-off —
//! a by-value move into a call, a `return`, or the function's tail
//! expression — on every control-flow path. Two rules fall out:
//!
//! * **leak** — a tracked pooled binding with no consumption at all, or
//!   an early `return` / `?` after the acquire with no consumption
//!   before it and no mention of the binding in the escaping
//!   expression. PR 6's `RunError`/abort early returns are exactly this
//!   shape.
//! * **double-release** — two release-kind consumptions of the same
//!   binding that are not in mutually exclusive `if`/`else` or `match`
//!   arms. The sorter's `(sorted, leftover)` carry relies on the
//!   `match leftover { Some(..) => release(sorted), None => sorted }`
//!   split staying exclusive.
//!
//! Custody is interprocedural: a function whose tail or `return`
//! hands a pooled buffer out (e.g. `run_local_sort` returning
//! `(out, Some(data))`) is marked *returns-custody*, propagated to
//! wrappers by fixpoint, and every `let` whose right-hand side calls such
//! a function starts a new tracked binding at the caller (e.g.
//! `sort_batches`' `let (mut sorted, leftover) = run_local_sort(..)`).
//!
//! Known approximations (kept deliberately, documented in DESIGN.md):
//! tracking is name-based within one function body, so shadowing a
//! tracked binding or consuming it only through a `self`-method move
//! (`x.into_parts()`) is invisible; a `return` inside a closure is
//! treated as escaping the enclosing function; acquires that flow
//! straight into an expression without a `let` (struct literals, match
//! arms producing a value) are counted as consumed-in-place. All of
//! these under- or over-approximate toward the shapes the runtime
//! actually uses; the fixture suite pins the shapes that must fail.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use crate::analysis::block_close;
use crate::items::{Function, ParsedFile};
use crate::lexer::Tok;
use crate::report::Finding;

/// Method names that end custody by returning the chunk to the pool.
const RELEASE_METHODS: [&str; 2] = ["release", "release_inbound"];

/// What a consumption event does with the tracked value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Consume {
    /// `pool.release(x)` / `pool.release_inbound(x)`.
    Release,
    /// `drop(x)` or a bare `x;` statement.
    Drop,
    /// By-value move: call argument, tuple/struct member, `return x`,
    /// `for .. in x`, or tail expression.
    Handoff,
}

#[derive(Debug, Clone)]
struct Event {
    idx: usize,
    line: usize,
    kind: Consume,
    /// True when this hand-off escapes the function (`return` or tail).
    escapes: bool,
}

/// One tracked pooled binding inside one function.
struct TrackedBinding {
    file: String,
    function: String,
    binding: String,
    /// Line of the acquire (or of the custody-returning call).
    acquire_line: usize,
    /// Token range `(start, end)` to watch for uses: from the end of the
    /// introducing statement to the close of the enclosing block.
    range: (usize, usize),
    /// Extra chain entry for interprocedurally derived custody.
    origin: Option<String>,
    events: Vec<Event>,
    /// `return` / `?` token indices inside `range`.
    exits: Vec<(usize, bool)>, // (token idx, is_question_mark)
}

/// Pass output: findings plus summary data for the v2 report.
pub struct CustodyResult {
    pub findings: Vec<Finding>,
    /// Total `.acquire(` sites seen (tracked or consumed-in-place).
    pub acquire_sites: usize,
    /// Bindings tracked through a dataflow scan.
    pub tracked_bindings: usize,
    /// Functions that hand pooled custody to their caller.
    pub custody_fns: Vec<String>,
}

fn is_word(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// Innermost statement boundary strictly before `idx` (token after the
/// last `;` / `{` / `}` before it), bounded below by `lo`.
fn stmt_start(toks: &[Tok], lo: usize, idx: usize) -> usize {
    let mut j = idx;
    while j > lo {
        match toks[j - 1].text.as_str() {
            ";" | "{" | "}" => return j,
            _ => j -= 1,
        }
    }
    lo
}

/// First `;` at `depth` in `(from, end)`, else `end`.
fn stmt_end(pf: &ParsedFile, from: usize, depth: usize, end: usize) -> usize {
    for j in from..end {
        if pf.toks[j].text == ";" && pf.depth[j] == depth {
            return j;
        }
    }
    end
}

/// First binding ident of a `let` pattern starting at `let_idx` (the
/// `let` token): skips `mut` and opens a tuple/struct pattern.
fn let_binding(toks: &[Tok], let_idx: usize) -> Option<String> {
    let mut j = let_idx + 1;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "mut" | "(" | "&" => j += 1,
            "=" | ";" => return None,
            // An uppercase head is an enum/struct pattern (`Some(x)`,
            // `Ok(v)`), not a binding we can track by name.
            t if is_word(t) && t.starts_with(|c: char| c.is_uppercase()) => return None,
            t if is_word(t) => return Some(t.to_string()),
            _ => return None,
        }
    }
    None
}

/// Resolves the `let` statement introducing the expression that contains
/// `dot` — either directly (`let x = pool.acquire(..);`) or one
/// expression level out (`let x = match .. { .. pool.acquire(..) .. };`).
/// Returns `(binding, let_token_idx, let_depth)`.
fn enclosing_let(pf: &ParsedFile, body_start: usize, dot: usize) -> Option<(String, usize, usize)> {
    let st = stmt_start(&pf.toks, body_start, dot);
    if pf.toks[st].text == "let" {
        return let_binding(&pf.toks, st).map(|b| (b, st, pf.depth[st]));
    }
    // One level out: the statement lives inside the body of a `match` /
    // `if` expression that is itself the RHS of a `let`.
    if st == body_start || pf.toks[st - 1].text != "{" {
        return None;
    }
    let outer = stmt_start(&pf.toks, body_start, st - 1);
    if pf.toks[outer].text != "let" {
        return None;
    }
    let span: Vec<&str> = pf.toks[outer..st - 1].iter().map(|t| t.text.as_str()).collect();
    if !span.iter().any(|t| *t == "match" || *t == "if") {
        return None;
    }
    let_binding(&pf.toks, outer).map(|b| (b, outer, pf.depth[outer]))
}

/// `.acquire(` / `.acquire::<T>(` sites whose receiver chain mentions a
/// pool. Returns `(dot_idx, open_paren_idx)` pairs.
fn acquire_sites(pf: &ParsedFile, body: (usize, usize)) -> Vec<(usize, usize)> {
    let (start, end) = body;
    let toks = &pf.toks;
    let mut out = Vec::new();
    for i in start..end.saturating_sub(2) {
        if toks[i].text != "." || toks[i + 1].text != "acquire" {
            continue;
        }
        // Locate the call's `(`, skipping a turbofish.
        let mut j = i + 2;
        if j + 2 < end && toks[j].text == ":" && toks[j + 1].text == ":" && toks[j + 2].text == "<"
        {
            let mut angle = 0usize;
            j += 2;
            while j < end {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => {
                        angle -= 1;
                        if angle == 0 {
                            j += 1;
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
        }
        if j >= end || toks[j].text != "(" {
            continue;
        }
        // Receiver must look like a pool: an ident containing `pool`
        // within the few tokens before the dot, before any statement
        // boundary.
        let mut poolish = false;
        let lo = i.saturating_sub(8).max(start);
        for k in (lo..i).rev() {
            match toks[k].text.as_str() {
                ";" | "{" | "}" | "," | "=" => break,
                t if t.contains("pool") || t.contains("Pool") => {
                    poolish = true;
                    break;
                }
                _ => {}
            }
        }
        if poolish {
            out.push((i, j));
        }
    }
    out
}

/// Scans `range` for uses of `binding`, classifying consumption events
/// and collecting `return` / `?` exits.
fn scan_uses(
    pf: &ParsedFile,
    binding: &str,
    range: (usize, usize),
    tail_start: usize,
) -> (Vec<Event>, Vec<(usize, bool)>) {
    let toks = &pf.toks;
    let (start, end) = range;
    let mut events = Vec::new();
    let mut exits = Vec::new();
    for k in start..end {
        let t = toks[k].text.as_str();
        if t == "return" {
            exits.push((k, false));
            continue;
        }
        if t == "?" {
            exits.push((k, true));
            continue;
        }
        if t != binding {
            continue;
        }
        let prev = if k > 0 { toks[k - 1].text.as_str() } else { "" };
        let prev2 = if k > 1 { toks[k - 2].text.as_str() } else { "" };
        let next = toks.get(k + 1).map(|t| t.text.as_str()).unwrap_or("");
        // Borrows, field/method access, indexing, and re-assignment are
        // not consumptions.
        if prev == "&" || (prev == "mut" && prev2 == "&") || prev == "." {
            continue;
        }
        if next == "." || next == "[" {
            continue;
        }
        if next == "=" && toks.get(k + 2).map(|t| t.text.as_str()) != Some("=") {
            continue; // `x = ..` reassignment (or `x ==` comparison falls through)
        }
        let in_tail = k >= tail_start;
        match prev {
            "(" | "," => {
                // By-value argument or tuple member: find the enclosing
                // open paren and its callee.
                let mut bal = 0i32;
                let mut open = None;
                for j in (start..k).rev() {
                    match toks[j].text.as_str() {
                        ")" => bal += 1,
                        "(" => {
                            bal -= 1;
                            if bal < 0 {
                                open = Some(j);
                                break;
                            }
                        }
                        _ => {}
                    }
                }
                let callee = open
                    .and_then(|o| o.checked_sub(1))
                    .map(|p| toks[p].text.as_str())
                    .filter(|t| is_word(t))
                    .unwrap_or("");
                let kind = if RELEASE_METHODS.contains(&callee) {
                    Consume::Release
                } else if callee == "drop" {
                    Consume::Drop
                } else {
                    Consume::Handoff
                };
                let escapes = in_tail
                    || open
                        .map(|o| {
                            let st = stmt_start(toks, start, o);
                            toks[st..o].iter().any(|t| t.text == "return")
                        })
                        .unwrap_or(false);
                events.push(Event { idx: k, line: toks[k].line, kind, escapes });
            }
            "return" | "in" => {
                events.push(Event { idx: k, line: toks[k].line, kind: Consume::Handoff, escapes: prev == "return" });
            }
            "=" if next == ";" => {
                // `let _ = x;` style move.
                events.push(Event { idx: k, line: toks[k].line, kind: Consume::Handoff, escapes: false });
            }
            ";" | "{" | "}" => {
                if next == ";" {
                    // Bare `x;` statement: the value is dropped.
                    events.push(Event { idx: k, line: toks[k].line, kind: Consume::Drop, escapes: false });
                } else if next == "}" && in_tail {
                    // Bare tail expression.
                    events.push(Event { idx: k, line: toks[k].line, kind: Consume::Handoff, escapes: true });
                }
            }
            ":" if next == "," || next == "}" => {
                // Struct-literal field value: `Foo { data: x, .. }`.
                events.push(Event { idx: k, line: toks[k].line, kind: Consume::Handoff, escapes: in_tail });
            }
            _ => {}
        }
    }
    (events, exits)
}

/// Start of the function's tail expression: the token after the last `;`
/// at body depth (the whole body if there is none).
fn tail_start(pf: &ParsedFile, f: &Function) -> usize {
    let (start, end) = f.body;
    let body_depth = pf.depth.get(start).copied().unwrap_or(1);
    let mut tail = start;
    for j in start..end {
        if pf.toks[j].text == ";" && pf.depth[j] == body_depth {
            tail = j + 1;
        }
    }
    tail
}

/// Per-open-brace conditional-arm classification used to decide whether
/// two consumptions are mutually exclusive.
struct Branches<'a> {
    pf: &'a ParsedFile,
    /// close `}` → open `{`.
    close_to_open: HashMap<usize, usize>,
    memo: HashMap<usize, Option<(usize, usize)>>,
}

impl<'a> Branches<'a> {
    fn new(pf: &'a ParsedFile) -> Self {
        let mut close_to_open = HashMap::new();
        let mut stack = Vec::new();
        for (i, t) in pf.toks.iter().enumerate() {
            match t.text.as_str() {
                "{" => stack.push(i),
                "}" => {
                    if let Some(o) = stack.pop() {
                        close_to_open.insert(i, o);
                    }
                }
                _ => {}
            }
        }
        Branches { pf, close_to_open, memo: HashMap::new() }
    }

    /// `(chain_root_open_idx, arm_number)` when the brace at `o` is an
    /// `if` / `else if` / `else` arm.
    fn classify(&mut self, o: usize) -> Option<(usize, usize)> {
        if let Some(hit) = self.memo.get(&o) {
            return *hit;
        }
        let r = self.classify_uncached(o);
        self.memo.insert(o, r);
        r
    }

    fn classify_uncached(&mut self, o: usize) -> Option<(usize, usize)> {
        let toks = &self.pf.toks;
        if o == 0 {
            return None;
        }
        // `} else {` — arm after the previous one in the same chain.
        if toks[o - 1].text == "else" && o >= 2 && toks[o - 2].text == "}" {
            let prev_open = *self.close_to_open.get(&(o - 2))?;
            let (root, arm) = self.classify(prev_open).unwrap_or((prev_open, 0));
            return Some((root, arm + 1));
        }
        // Walk back over the condition to the construct keyword.
        let mut j = o;
        let mut scanned = 0;
        while j > 0 && scanned < 64 {
            j -= 1;
            scanned += 1;
            match toks[j].text.as_str() {
                ";" | "{" | "}" | "," => return None,
                "if" => {
                    // `else if cond {` chains to the previous arm.
                    if j > 0 && toks[j - 1].text == "else" && j >= 2 && toks[j - 2].text == "}" {
                        let prev_open = *self.close_to_open.get(&(j - 2))?;
                        let (root, arm) = self.classify(prev_open).unwrap_or((prev_open, 0));
                        return Some((root, arm + 1));
                    }
                    return Some((o, 0));
                }
                "match" | "while" | "for" | "loop" | "else" => return None,
                _ => {}
            }
        }
        None
    }

    /// True when the brace at `o` opens a `match` body.
    fn is_match_body(&self, o: usize) -> bool {
        let toks = &self.pf.toks;
        let mut j = o;
        let mut scanned = 0;
        while j > 0 && scanned < 64 {
            j -= 1;
            scanned += 1;
            match toks[j].text.as_str() {
                ";" | "{" | "}" | "," => return false,
                "match" => return true,
                "if" | "while" | "for" | "loop" | "else" => return false,
                _ => {}
            }
        }
        false
    }

    /// Branch contexts of the token at `idx`: map from chain/match root
    /// to arm number, over every enclosing conditional construct.
    fn contexts(&mut self, body_start: usize, idx: usize) -> BTreeMap<usize, usize> {
        let toks = &self.pf.toks;
        let mut stack = Vec::new();
        for (j, t) in toks.iter().enumerate().take(idx).skip(body_start) {
            match t.text.as_str() {
                "{" => stack.push(j),
                "}" => {
                    stack.pop();
                }
                _ => {}
            }
        }
        let mut out = BTreeMap::new();
        for &o in &stack {
            if let Some((root, arm)) = self.classify(o) {
                out.insert(root, arm);
            }
            if self.is_match_body(o) {
                // Arm number = count of `=>` at arm depth inside this
                // match body, up to the site (`=>` lexes as `=`,`>`).
                let arm_depth = self.pf.depth[o] + 1;
                let mut arm = 0usize;
                for j in o + 1..idx {
                    if toks[j].text == "="
                        && toks.get(j + 1).map(|t| t.text.as_str()) == Some(">")
                        && self.pf.depth[j] == arm_depth
                    {
                        arm += 1;
                    }
                }
                out.insert(o, arm);
            }
        }
        out
    }
}

fn exclusive(b: &mut Branches<'_>, body_start: usize, a: usize, c: usize) -> bool {
    let ca = b.contexts(body_start, a);
    let cb = b.contexts(body_start, c);
    ca.iter().any(|(root, arm)| cb.get(root).is_some_and(|other| other != arm))
}

/// Runs the custody pass over `files` (non-test functions only; the
/// shim/test exclusions already happened upstream in collection).
pub fn analyze_custody(files: &[ParsedFile]) -> CustodyResult {
    let mut acquire_count = 0usize;
    let mut tracked: Vec<(usize, TrackedBinding)> = Vec::new(); // (file idx, binding)
    // fn qualified name (and bare name) → (file, acquire line) for
    // custody-returning functions.
    let mut custody_fns: BTreeMap<String, (String, usize)> = BTreeMap::new();

    // Pass 1: direct acquires.
    for (fi, pf) in files.iter().enumerate() {
        for f in &pf.functions {
            for (dot, _open) in acquire_sites(pf, f.body) {
                acquire_count += 1;
                let Some((binding, let_idx, let_depth)) = enclosing_let(pf, f.body.0, dot) else {
                    continue; // consumed in place (struct literal, match arm value)
                };
                let track_from = stmt_end(pf, dot, let_depth, f.body.1);
                let track_to = block_close(pf, let_idx, let_depth, f.body.1);
                let ts = tail_start(pf, f);
                let (events, exits) = scan_uses(pf, &binding, (track_from, track_to), ts);
                if events.iter().any(|e| e.kind == Consume::Handoff && e.escapes) {
                    custody_fns
                        .entry(f.name.clone())
                        .or_insert((pf.rel.clone(), pf.toks[dot].line));
                    if let Some(bare) = f.name.rsplit("::").next() {
                        custody_fns
                            .entry(bare.to_string())
                            .or_insert((pf.rel.clone(), pf.toks[dot].line));
                    }
                }
                tracked.push((
                    fi,
                    TrackedBinding {
                        file: pf.rel.clone(),
                        function: f.name.clone(),
                        binding,
                        acquire_line: pf.toks[dot].line,
                        range: (track_from, track_to),
                        origin: None,
                        events,
                        exits,
                    },
                ));
            }
        }
    }

    // Pass 2: fixpoint — wrappers whose tail/return calls a
    // custody-returning function themselves return custody.
    loop {
        let mut grew = false;
        for pf in files {
            for f in &pf.functions {
                if custody_fns.contains_key(&f.name) {
                    continue;
                }
                let ts = tail_start(pf, f);
                let mut origin = None;
                for j in ts..f.body.1 {
                    let t = pf.toks[j].text.as_str();
                    if pf.toks.get(j + 1).map(|t| t.text.as_str()) == Some("(") {
                        if let Some(o) = custody_fns.get(t) {
                            origin = Some(o.clone());
                            break;
                        }
                    }
                }
                if let Some(origin) = origin {
                    custody_fns.insert(f.name.clone(), origin.clone());
                    if let Some(bare) = f.name.rsplit("::").next() {
                        custody_fns.entry(bare.to_string()).or_insert(origin);
                    }
                    grew = true;
                }
            }
        }
        if !grew {
            break;
        }
    }

    // Pass 3: derived bindings — `let <pat> = .. custody_fn(..) ..;`.
    for (fi, pf) in files.iter().enumerate() {
        for f in &pf.functions {
            let (start, end) = f.body;
            let ts = tail_start(pf, f);
            let mut j = start;
            while j < end {
                if pf.toks[j].text != "let" {
                    j += 1;
                    continue;
                }
                let let_idx = j;
                let let_depth = pf.depth[let_idx];
                let se = stmt_end(pf, let_idx, let_depth, end);
                let called: Option<&str> = (let_idx..se).find_map(|k| {
                    let t = pf.toks[k].text.as_str();
                    (pf.toks.get(k + 1).map(|t| t.text.as_str()) == Some("(")
                        && custody_fns.contains_key(t)
                        && t != "drop")
                        .then_some(t)
                });
                let has_direct_acquire = (let_idx..se)
                    .any(|k| pf.toks[k].text == "." && pf.toks.get(k + 1).map(|t| t.text.as_str()) == Some("acquire"));
                if let (Some(callee), false) = (called, has_direct_acquire) {
                    if let Some(binding) = let_binding(&pf.toks, let_idx) {
                        let (ofile, oline) = custody_fns.get(callee).cloned().unwrap();
                        let track_from = se;
                        let track_to = block_close(pf, let_idx, let_depth, end);
                        let (events, exits) = scan_uses(pf, &binding, (track_from, track_to), ts);
                        tracked.push((
                            fi,
                            TrackedBinding {
                                file: pf.rel.clone(),
                                function: f.name.clone(),
                                binding,
                                acquire_line: pf.toks[let_idx].line,
                                range: (track_from, track_to),
                                origin: Some(format!(
                                    "custody from `{callee}` (acquired at {ofile}:{oline})"
                                )),
                                events,
                                exits,
                            },
                        ));
                    }
                }
                j = se + 1;
            }
        }
    }

    // Findings.
    let mut findings = Vec::new();
    for (fi, tb) in &tracked {
        let pf = &files[*fi];
        let body_start = pf
            .functions
            .iter()
            .find(|f| f.name == tb.function)
            .map(|f| f.body.0)
            .unwrap_or(0);
        let mut chain = vec![format!("acquired at {}:{}", tb.file, tb.acquire_line)];
        if let Some(o) = &tb.origin {
            chain.push(o.clone());
        }

        if tb.events.is_empty() {
            findings.push(Finding {
                rule: "chunk-custody".into(),
                file: tb.file.clone(),
                line: tb.acquire_line,
                function: tb.function.clone(),
                held: None,
                operation: format!("leak({})", tb.binding),
                chain: chain.clone(),
                message: format!(
                    "pooled buffer `{}` is acquired but never released, dropped, or handed off",
                    tb.binding
                ),
            });
            continue;
        }

        // Early exits that escape before any consumption.
        for &(exit_idx, is_q) in &tb.exits {
            let consumed_before = tb.events.iter().any(|e| e.idx <= exit_idx);
            if consumed_before {
                continue;
            }
            let mentioned = if is_q {
                false
            } else {
                let se = stmt_end(pf, exit_idx, pf.depth[exit_idx], tb.range.1);
                pf.toks[exit_idx..se].iter().any(|t| t.text == tb.binding)
            };
            if mentioned {
                continue;
            }
            let what = if is_q { "`?` error propagation" } else { "early return" };
            let mut c = chain.clone();
            c.push(format!("escapes at {}:{}", tb.file, pf.toks[exit_idx].line));
            findings.push(Finding {
                rule: "chunk-custody".into(),
                file: tb.file.clone(),
                line: pf.toks[exit_idx].line,
                function: tb.function.clone(),
                held: None,
                operation: format!("leak({})", tb.binding),
                chain: c,
                message: format!(
                    "{what} leaks pooled buffer `{}` acquired at {}:{}",
                    tb.binding, tb.file, tb.acquire_line
                ),
            });
        }

        // Double release: two release-kind events on a shared path.
        let releases: Vec<&Event> =
            tb.events.iter().filter(|e| e.kind == Consume::Release).collect();
        if releases.len() > 1 {
            let mut branches = Branches::new(pf);
            for w in 0..releases.len() {
                for v in w + 1..releases.len() {
                    let (a, b) = (releases[w], releases[v]);
                    if exclusive(&mut branches, body_start, a.idx, b.idx) {
                        continue;
                    }
                    let mut c = chain.clone();
                    c.push(format!("first release at {}:{}", tb.file, a.line));
                    c.push(format!("second release at {}:{}", tb.file, b.line));
                    findings.push(Finding {
                        rule: "chunk-custody".into(),
                        file: tb.file.clone(),
                        line: b.line,
                        function: tb.function.clone(),
                        held: None,
                        operation: format!("double-release({})", tb.binding),
                        chain: c,
                        message: format!(
                            "pooled buffer `{}` released twice on the same path (first at {}:{})",
                            tb.binding, tb.file, a.line
                        ),
                    });
                }
            }
        }
    }

    let mut names: BTreeSet<String> = custody_fns
        .keys()
        .filter(|n| n.contains("::"))
        .cloned()
        .collect();
    // Free functions have no `::`; keep any bare name that is not a
    // method alias of a qualified one.
    for n in custody_fns.keys() {
        if !n.contains("::") && !custody_fns.keys().any(|q| q.contains("::") && q.ends_with(&format!("::{n}"))) {
            names.insert(n.clone());
        }
    }

    CustodyResult {
        findings,
        acquire_sites: acquire_count,
        tracked_bindings: tracked.len(),
        custody_fns: names.into_iter().collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn run(src: &str) -> CustodyResult {
        analyze_custody(&[parse_file("t.rs", src)])
    }

    #[test]
    fn balanced_acquire_release_is_clean() {
        let r = run(
            "impl S { fn f(&self, pool: &Pool) { let mut b = pool.acquire::<u64>(8); b.push(1); pool.release(b); } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings.first().map(|f| &f.message));
        assert_eq!(r.acquire_sites, 1);
        assert_eq!(r.tracked_bindings, 1);
    }

    #[test]
    fn never_released_is_a_leak() {
        let r = run("fn f(pool: &Pool) { let b = pool.acquire(8); b.len(); }");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].operation, "leak(b)");
        assert_eq!(r.findings[0].line, 1);
    }

    #[test]
    fn early_return_before_release_is_a_leak() {
        let r = run(
            "fn f(pool: &Pool, bad: bool) -> u32 {\n    let b = pool.acquire(8);\n    if bad {\n        return 0;\n    }\n    pool.release(b);\n    1\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "leak(b)");
        assert_eq!(r.findings[0].line, 4);
        assert!(r.findings[0].chain.iter().any(|c| c.contains("t.rs:2")));
    }

    #[test]
    fn return_carrying_the_buffer_is_a_handoff() {
        let r = run(
            "fn f(pool: &Pool, bad: bool) -> (Vec<u64>, bool) {\n    let b = pool.acquire(8);\n    if bad {\n        return (b, true);\n    }\n    pool.release(b);\n    (Vec::new(), false)\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn tail_tuple_marks_returns_custody() {
        let r = run(
            "fn make(pool: &Pool) -> (Vec<u64>, bool) {\n    let out = pool.acquire(8);\n    (out, true)\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        assert_eq!(r.custody_fns, vec!["make".to_string()]);
    }

    #[test]
    fn double_release_on_one_path_is_flagged() {
        let r = run(
            "fn f(pool: &Pool) {\n    let b = pool.acquire(8);\n    pool.release(b);\n    pool.release(b);\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "double-release(b)");
        assert_eq!(r.findings[0].line, 4);
    }

    #[test]
    fn release_in_exclusive_arms_is_clean() {
        let r = run(
            "fn f(pool: &Pool, pooled: bool) {\n    let b = pool.acquire(8);\n    if pooled {\n        pool.release(b);\n    } else {\n        drop(b);\n    }\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
        let r2 = run(
            "fn f(pool: &Pool, pooled: bool) {\n    let b = pool.acquire(8);\n    if pooled {\n        pool.release(b);\n    }\n    pool.release(b);\n}\n",
        );
        assert_eq!(r2.findings.len(), 1);
        assert_eq!(r2.findings[0].operation, "double-release(b)");
    }

    #[test]
    fn custody_propagates_to_caller_let() {
        let r = run(
            "fn make(pool: &Pool) -> Vec<u64> {\n    let out = pool.acquire(8);\n    out\n}\nfn caller(pool: &Pool) {\n    let buf = make(pool);\n    buf.len();\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert_eq!(r.findings[0].operation, "leak(buf)");
        assert_eq!(r.findings[0].function, "caller");
        assert!(r.findings[0].chain.iter().any(|c| c.contains("custody from `make`")));
    }

    #[test]
    fn caller_releasing_derived_custody_is_clean() {
        let r = run(
            "fn make(pool: &Pool) -> Vec<u64> {\n    let out = pool.acquire(8);\n    out\n}\nfn caller(pool: &Pool) {\n    let buf = make(pool);\n    pool.release(buf);\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn match_arm_acquire_binds_through_outer_let() {
        let r = run(
            "fn f(pool: Option<&Pool>) {\n    let b = match pool {\n        Some(p) => p.acquire(8),\n        None => Vec::new(),\n    };\n    b.len();\n}\n",
        );
        // `p` is not pool-ish by name here, so use an explicit pool recv.
        let r2 = run(
            "fn f(maybe: Option<&Pool>) {\n    let b = match maybe {\n        Some(pool) => pool.acquire(8),\n        None => Vec::new(),\n    };\n    b.len();\n}\n",
        );
        let _ = r;
        assert_eq!(r2.findings.len(), 1, "{:?}", r2.findings);
        assert_eq!(r2.findings[0].operation, "leak(b)");
        assert_eq!(r2.findings[0].function, "f");
    }

    #[test]
    fn question_mark_exit_before_release_is_a_leak() {
        let r = run(
            "fn f(pool: &Pool) -> Result<(), E> {\n    let b = pool.acquire(8);\n    step()?;\n    pool.release(b);\n    Ok(())\n}\n",
        );
        assert_eq!(r.findings.len(), 1, "{:?}", r.findings);
        assert!(r.findings[0].message.contains("`?`"));
        assert_eq!(r.findings[0].line, 3);
    }

    #[test]
    fn for_in_consumption_counts() {
        let r = run(
            "fn make(pool: &Pool) -> Vec<(Vec<u64>, bool)> {\n    let out = pool.acquire(8);\n    vec![(out, true)]\n}\nfn caller(pool: &Pool) {\n    let sorted = make(pool);\n    for (buf, pooled) in sorted {\n        if pooled {\n            pool.release(buf);\n        }\n    }\n}\n",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
