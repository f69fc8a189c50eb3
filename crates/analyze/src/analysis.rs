//! The two lock analyses: lock-order and blocking-under-lock.
//!
//! Guard live ranges are interval sets over the token stream: a `let`-bound
//! guard lives from its acquisition to the end of the enclosing block,
//! truncated by a same-depth `drop(g)` and punched by deeper-depth
//! `drop(g)` branches (so a `drop(ledger); …; panic!()` arm does not count
//! as lock-held). Statement temporaries (`x.lock().insert(..)`) live to the
//! next same-depth `;`. Effects (what a function may acquire or block on,
//! transitively) are computed over the name-resolved [`CallGraph`], which
//! this module builds once per run for every pass that follows calls, and
//! replayed at every call site that executes under a live guard.

use std::collections::{BTreeSet, HashMap};

use crate::items::{Function, ParsedFile, KEYWORDS};
use crate::lexer::Tok;
use crate::report::Finding;

/// Guard-producing method names (empty-paren calls through `pgxd::sync`).
const GUARD_METHODS: &[&str] = &["lock", "read", "write"];

/// Method names treated as blocking primitives wherever they are called.
const BLOCKING_METHODS: &[&str] = &[
    "wait",
    "wait_timeout",
    "recv",
    "recv_timeout",
    "send",
    "join",
    "acquire",
    "park",
];

/// Std-library method names excluded from last-segment call resolution, so
/// `map.get(..)` never resolves to a workspace fn that happens to be named
/// `get`. A `self.name(..)` call on a type that defines `name` resolves
/// before this list is consulted.
const METHOD_DENYLIST: &[&str] = &[
    "get", "get_mut", "insert", "remove", "push", "pop", "len", "is_empty", "iter", "iter_mut",
    "into_iter", "map", "map_err", "filter", "filter_map", "flat_map", "flatten", "take",
    "replace", "clone", "cloned", "copied", "collect", "sum", "min", "max", "min_by_key",
    "max_by_key", "position", "find", "any", "all", "fold", "for_each", "zip", "rev", "chain",
    "enumerate", "values", "keys", "entry", "contains", "contains_key", "extend", "drain",
    "clear", "retain", "next", "last", "first", "count", "nth", "skip", "take_while",
    "skip_while", "step_by", "chunks", "windows", "split_at", "split_at_mut", "to_vec",
    "to_string", "as_str", "as_slice", "as_ref", "as_mut", "as_bytes", "unwrap", "expect",
    "unwrap_or", "unwrap_or_else", "unwrap_or_default", "ok", "err", "and_then", "or_else",
    "is_some", "is_none", "is_ok", "is_err", "load", "store", "swap", "fetch_add", "fetch_sub",
    "fetch_or", "fetch_and", "compare_exchange", "saturating_add", "saturating_sub",
    "checked_add", "checked_sub", "wrapping_add", "elapsed", "duration_since", "as_secs_f64",
    "as_nanos", "as_micros", "sort", "sort_by", "sort_by_key", "sort_unstable", "binary_search",
    "resize", "reserve", "with_capacity", "copy_from_slice", "clone_from_slice", "fill",
    "starts_with", "ends_with", "trim", "split", "lines", "abs", "powi", "sqrt", "floor",
    "ceil", "round", "to_le_bytes", "to_ne_bytes", "eq", "ne", "cmp", "partial_cmp", "hash",
    "fmt", "borrow", "borrow_mut", "deref", "truncate", "append", "as_ptr", "as_mut_ptr",
    "cast", "offset", "add", "sub", "read_volatile", "write_volatile", "then", "then_some",
];

/// One guard acquisition with its live range.
#[derive(Debug, Clone)]
pub struct Guard {
    /// Token index of the `.` before lock/read/write.
    pub idx: usize,
    /// 1-based source line.
    pub line: usize,
    /// Resolved lock name, e.g. `ProtocolChecker::ledger`.
    pub lock: String,
    /// Binding name for `let`-bound guards.
    pub binding: Option<String>,
    /// Live token-index intervals `[start, end)`.
    pub intervals: Vec<(usize, usize)>,
}

#[derive(Debug, Clone)]
enum RawOp {
    /// A blocking primitive (`.wait(`, `.recv(`, …). `exclude_arg` is the
    /// guard variable a condvar wait releases for its duration.
    Blocking { name: String, exclude_arg: Option<String> },
    /// A call resolved to one or more workspace functions.
    Call { targets: Vec<String> },
}

#[derive(Debug, Clone)]
struct Site {
    idx: usize,
    line: usize,
    op: RawOp,
}

/// Everything extracted from one function body.
pub struct FnSites {
    /// Qualified function name.
    pub name: String,
    /// File the function lives in.
    pub file: String,
    pub guards: Vec<Guard>,
    sites: Vec<Site>,
}

impl FnSites {
    /// Resolved workspace call sites (token index, line, targets): the
    /// edges of the [`CallGraph`] that hot-path-alloc and wait-graph walk.
    pub(crate) fn calls(&self) -> impl Iterator<Item = (usize, usize, &[String])> + '_ {
        self.sites.iter().filter_map(|s| match &s.op {
            RawOp::Call { targets } => Some((s.idx, s.line, targets.as_slice())),
            RawOp::Blocking { .. } => None,
        })
    }
}

/// An effect a function may have, with the call chain that reaches it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub enum Effect {
    Acquire { lock: String, chain: Vec<String> },
    Block { op: String, chain: Vec<String> },
}

/// One edge of the held-lock graph: `to` acquired while `from` is held.
#[derive(Debug, Clone)]
pub struct Edge {
    pub from: String,
    pub to: String,
    pub file: String,
    pub function: String,
    pub line: usize,
    pub via: Vec<String>,
}

/// The held-lock graph.
#[derive(Default)]
pub struct LockGraph {
    pub nodes: Vec<String>,
    pub edges: Vec<Edge>,
}

/// Full analysis output before allowlist filtering.
pub struct AnalysisResult {
    pub findings: Vec<Finding>,
    pub graph: LockGraph,
    /// Lock-order cycles as node sequences (first node repeated at end).
    pub cycles: Vec<Vec<String>>,
}

/// True for an identifier: a word that is not a keyword.
pub fn is_ident(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
        && !KEYWORDS.contains(&t)
}

/// Token index of the `(` opening the argument list of the call whose
/// name sits at `name_idx`, looking through a `::<…>` turbofish between
/// the name and the parens (`.collect::<Vec<_>>(`, `recv_vec::<T>(`).
/// `None` when the name is not followed by a call.
pub(crate) fn call_open_paren(toks: &[Tok], name_idx: usize) -> Option<usize> {
    let next = toks.get(name_idx + 1)?;
    if next.text == "(" {
        return Some(name_idx + 1);
    }
    if next.text != ":"
        || toks.get(name_idx + 2).map(|t| t.text.as_str()) != Some(":")
        || toks.get(name_idx + 3).map(|t| t.text.as_str()) != Some("<")
    {
        return None;
    }
    let mut depth = 1usize;
    let mut j = name_idx + 4;
    while j < toks.len() && depth > 0 {
        match toks[j].text.as_str() {
            "<" => depth += 1,
            ">" => depth -= 1,
            // Ran off the expression: this was `a::b < c`, not a turbofish.
            ";" | "{" | "}" => return None,
            _ => {}
        }
        j += 1;
    }
    if depth != 0 {
        return None;
    }
    (toks.get(j).map(|t| t.text.as_str()) == Some("(")).then_some(j)
}

/// Walks the `.`-chain that ends at the method call whose `.` is at
/// `dot`, backwards, and returns `(root, segments)`: the chain root
/// (`self`, an identifier, or `<expr>` for grouped/literal receivers)
/// and the member/call segment names from the root outwards. Index
/// expressions are skipped (`a.b[i].lock()` → `("a", ["b"])`), call
/// segments keep their name (`self.held.lock().iter()` at the `.iter`
/// dot → `("self", ["held", "lock"])`), and turbofish on intermediate
/// calls is looked through.
pub(crate) fn receiver_chain(pf: &ParsedFile, dot: usize, start: usize) -> (String, Vec<String>) {
    let toks = &pf.toks;
    // Innermost-first while walking backwards; reversed at the end.
    let mut names: Vec<String> = Vec::new();
    let mut k = dot;
    loop {
        if k <= start {
            break;
        }
        match toks[k - 1].text.as_str() {
            "]" => {
                let mut b = 1usize;
                let mut j = k - 1;
                while j > start && b > 0 {
                    j -= 1;
                    match toks[j].text.as_str() {
                        "]" => b += 1,
                        "[" => b -= 1,
                        _ => {}
                    }
                }
                k = j;
            }
            ")" => {
                let mut b = 1usize;
                let mut j = k - 1;
                while j > start && b > 0 {
                    j -= 1;
                    match toks[j].text.as_str() {
                        ")" => b += 1,
                        "(" => b -= 1,
                        _ => {}
                    }
                }
                // `j` is at `(`; look through a `::<…>` turbofish.
                let mut m = j;
                if m > start && toks[m - 1].text == ">" {
                    let mut ab = 1usize;
                    let mut n = m - 1;
                    while n > start && ab > 0 {
                        n -= 1;
                        match toks[n].text.as_str() {
                            ">" => ab += 1,
                            "<" => ab -= 1,
                            _ => {}
                        }
                    }
                    if ab == 0
                        && n >= start + 2
                        && toks[n - 1].text == ":"
                        && toks[n - 2].text == ":"
                    {
                        m = n - 2;
                    }
                }
                if m > start && is_ident(&toks[m - 1].text) {
                    names.push(toks[m - 1].text.clone());
                    k = m - 1;
                    if k > start && toks[k - 1].text == "." {
                        k -= 1;
                        continue;
                    }
                    break;
                }
                names.push("<expr>".into());
                break;
            }
            t if t == "self" || is_ident(t) => {
                names.push(toks[k - 1].text.clone());
                k -= 1;
                if k > start && toks[k - 1].text == "." {
                    k -= 1;
                    continue;
                }
                break;
            }
            _ => {
                names.push("<expr>".into());
                break;
            }
        }
    }
    if names.is_empty() {
        return ("<expr>".into(), Vec::new());
    }
    names.reverse();
    let root = names.remove(0);
    (root, names)
}

/// First `}` after `from` closing the block whose *contents* sit at
/// `inner_depth`, clipped to `end`.
pub(crate) fn block_close(pf: &ParsedFile, from: usize, inner_depth: usize, end: usize) -> usize {
    if inner_depth == 0 {
        return end;
    }
    for j in from..end {
        if pf.toks[j].text == "}" && pf.depth[j] == inner_depth - 1 {
            return j;
        }
    }
    end
}

fn subtract(intervals: &mut Vec<(usize, usize)>, cut: (usize, usize)) {
    let mut out = Vec::new();
    for &(s, e) in intervals.iter() {
        if cut.1 <= s || cut.0 >= e {
            out.push((s, e));
            continue;
        }
        if s < cut.0 {
            out.push((s, cut.0));
        }
        if cut.1 < e {
            out.push((cut.1, e));
        }
    }
    *intervals = out;
}

/// `for <alias> in … self.<field> …` aliases in a function body, mapping
/// the loop variable to the field's lock name.
fn for_aliases(pf: &ParsedFile, f: &Function, self_name: &str) -> HashMap<String, String> {
    let mut out = HashMap::new();
    let (s, e) = f.body;
    let mut i = s;
    while i + 2 < e {
        if pf.toks[i].text == "for" && is_ident(&pf.toks[i + 1].text) && pf.toks[i + 2].text == "in"
        {
            let alias = pf.toks[i + 1].text.clone();
            let mut j = i + 3;
            while j < e && pf.toks[j].text != "{" {
                if pf.toks[j].text == "self"
                    && pf.toks.get(j + 1).map(|t| t.text.as_str()) == Some(".")
                    && pf.toks.get(j + 2).is_some_and(|t| is_ident(&t.text))
                {
                    out.insert(alias.clone(), format!("{self_name}::{}", pf.toks[j + 2].text));
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

/// Names the lock behind the receiver of a guard call whose `.` is at `dot`.
fn resolve_receiver(
    pf: &ParsedFile,
    dot: usize,
    body_start: usize,
    f: &Function,
    aliases: &HashMap<String, String>,
) -> String {
    let self_name = f.self_type.clone().unwrap_or_else(|| f.name.clone());
    let mut k = dot;
    // Skip an index expression: `… [ … ] . lock`.
    if k > body_start && pf.toks[k - 1].text == "]" {
        let mut b = 1usize;
        let mut j = k - 1;
        while j > body_start && b > 0 {
            j -= 1;
            match pf.toks[j].text.as_str() {
                "]" => b += 1,
                "[" => b -= 1,
                _ => {}
            }
        }
        k = j;
    }
    if k == body_start || !is_ident(&pf.toks[k - 1].text) && pf.toks[k - 1].text != "self" {
        return format!("{}::<expr>", f.name);
    }
    let field = pf.toks[k - 1].text.clone();
    if field == "self" {
        return format!("{self_name}::<self>");
    }
    if k >= body_start + 3 && pf.toks[k - 2].text == "." && pf.toks[k - 3].text == "self" {
        return format!("{self_name}::{field}");
    }
    if k >= body_start + 3 && pf.toks[k - 2].text == "." {
        // Deeper chain (`a.b.lock()` with a != self): name by the last
        // field, scoped to the function.
        return format!("{}::{field}", f.name);
    }
    if let Some(aliased) = aliases.get(&field) {
        return aliased.clone();
    }
    format!("{}::{field}", f.name)
}

/// Workspace function index for call resolution.
struct FnIndex {
    /// Qualified name -> exists.
    qualified: BTreeSet<String>,
    /// Unqualified last segment -> qualified method names.
    methods_by_name: HashMap<String, Vec<String>>,
    /// Free-function name -> qualified (same) names.
    free_by_name: HashMap<String, Vec<String>>,
    /// Type name -> method last segments.
    type_methods: HashMap<String, BTreeSet<String>>,
}

impl FnIndex {
    fn build(files: &[ParsedFile]) -> FnIndex {
        let mut ix = FnIndex {
            qualified: BTreeSet::new(),
            methods_by_name: HashMap::new(),
            free_by_name: HashMap::new(),
            type_methods: HashMap::new(),
        };
        for pf in files {
            for f in &pf.functions {
                ix.qualified.insert(f.name.clone());
                match &f.self_type {
                    Some(ty) => {
                        let short = f.name.rsplit("::").next().unwrap_or(&f.name).to_string();
                        let e = ix.methods_by_name.entry(short.clone()).or_default();
                        if !e.contains(&f.name) {
                            e.push(f.name.clone());
                        }
                        ix.type_methods.entry(ty.clone()).or_default().insert(short);
                    }
                    None => {
                        let e = ix.free_by_name.entry(f.name.clone()).or_default();
                        if !e.contains(&f.name) {
                            e.push(f.name.clone());
                        }
                    }
                }
            }
        }
        ix
    }

    fn resolve_method(&self, name: &str, receiver_is_self: bool, self_type: Option<&str>) -> Vec<String> {
        if GUARD_METHODS.contains(&name) {
            return Vec::new();
        }
        if receiver_is_self {
            if let Some(ty) = self_type {
                if self.type_methods.get(ty).is_some_and(|m| m.contains(name)) {
                    return vec![format!("{ty}::{name}")];
                }
            }
        }
        if METHOD_DENYLIST.contains(&name) {
            return Vec::new();
        }
        self.methods_by_name.get(name).cloned().unwrap_or_default()
    }

    fn resolve_path(&self, qualifier: &str, name: &str, self_type: Option<&str>) -> Vec<String> {
        let qual = if qualifier == "Self" {
            match self_type {
                Some(ty) => ty,
                None => return Vec::new(),
            }
        } else {
            qualifier
        };
        if qual.chars().next().is_some_and(|c| c.is_uppercase()) {
            let q = format!("{qual}::{name}");
            if self.qualified.contains(&q) {
                return vec![q];
            }
            return Vec::new();
        }
        // Module-qualified: fall back to any workspace fn by last segment.
        let mut out = self.free_by_name.get(name).cloned().unwrap_or_default();
        out.extend(self.methods_by_name.get(name).cloned().unwrap_or_default());
        out
    }

    fn resolve_free(&self, name: &str) -> Vec<String> {
        if name == "drop" || METHOD_DENYLIST.contains(&name) {
            return Vec::new();
        }
        self.free_by_name.get(name).cloned().unwrap_or_default()
    }
}

/// The workspace call graph: every function's guards and resolved call
/// sites, extracted once per run through one `FnIndex` and shared by
/// every pass that follows calls (lock-order / blocking-under-lock,
/// hot-path-alloc, wait-graph).
pub struct CallGraph {
    /// One entry per parsed function, indexed `[file][fn]` in parse order.
    pub(crate) fns: Vec<Vec<FnSites>>,
}

impl CallGraph {
    pub fn build(files: &[ParsedFile]) -> CallGraph {
        let ix = FnIndex::build(files);
        let fns = files
            .iter()
            .map(|pf| pf.functions.iter().map(|f| extract_fn(pf, f, &ix)).collect())
            .collect();
        CallGraph { fns }
    }
}

/// Extracts guards and operation sites from one function body.
fn extract_fn(pf: &ParsedFile, f: &Function, ix: &FnIndex) -> FnSites {
    let (s, e) = f.body;
    let aliases = {
        let self_name = f.self_type.clone().unwrap_or_else(|| f.name.clone());
        for_aliases(pf, f, &self_name)
    };
    let mut guards = Vec::new();
    let mut sites = Vec::new();
    let mut i = s;
    while i < e {
        let t = &pf.toks[i].text;
        // Method call: `. name (`, with `. name ::<…> (` turbofish.
        if t == "." && i + 2 < e && is_ident(&pf.toks[i + 1].text) {
            let Some(open) = call_open_paren(&pf.toks, i + 1).filter(|&o| o < e) else {
                i += 1;
                continue;
            };
            let name = pf.toks[i + 1].text.clone();
            let empty = pf.toks.get(open + 1).map(|t| t.text.as_str()) == Some(")");
            if GUARD_METHODS.contains(&name.as_str()) && empty {
                guards.push(guard_site(pf, i, s, e, f, &aliases));
                i = open + 2;
                continue;
            }
            if BLOCKING_METHODS.contains(&name.as_str()) {
                let exclude_arg = if name.starts_with("wait") {
                    first_arg_ident(pf, open, e)
                } else {
                    None
                };
                sites.push(Site {
                    idx: i,
                    line: pf.toks[i].line,
                    op: RawOp::Blocking { name: name.clone(), exclude_arg },
                });
            }
            let receiver_is_self = i > s && pf.toks[i - 1].text == "self";
            let targets = ix.resolve_method(&name, receiver_is_self, f.self_type.as_deref());
            if !targets.is_empty() {
                sites.push(Site {
                    idx: i,
                    line: pf.toks[i].line,
                    op: RawOp::Call { targets },
                });
            }
            i = open + 1;
            continue;
        }
        // Path or free call: `name (` (or `name ::<…> (`) not preceded
        // by `.`
        if is_ident(t) && i + 1 < e && (i == s || pf.toks[i - 1].text != ".") {
            let Some(open) = call_open_paren(&pf.toks, i).filter(|&o| o < e) else {
                i += 1;
                continue;
            };
            let name = t.clone();
            let targets = if i >= s + 3
                && pf.toks[i - 1].text == ":"
                && pf.toks[i - 2].text == ":"
                && is_ident_or_kw(&pf.toks[i - 3].text)
            {
                ix.resolve_path(&pf.toks[i - 3].text, &name, f.self_type.as_deref())
            } else {
                ix.resolve_free(&name)
            };
            if !targets.is_empty() {
                sites.push(Site {
                    idx: i,
                    line: pf.toks[i].line,
                    op: RawOp::Call { targets },
                });
            }
            i = open + 1;
            continue;
        }
        i += 1;
    }
    FnSites {
        name: f.name.clone(),
        file: pf.rel.clone(),
        guards,
        sites,
    }
}

fn is_ident_or_kw(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
}

/// First identifier inside a paren group opening at `open`, skipping `&`
/// and `mut`.
fn first_arg_ident(pf: &ParsedFile, open: usize, end: usize) -> Option<String> {
    let mut j = open + 1;
    while j < end && (pf.toks[j].text == "&" || pf.toks[j].text == "mut") {
        j += 1;
    }
    if j < end && is_ident(&pf.toks[j].text) {
        Some(pf.toks[j].text.clone())
    } else {
        None
    }
}

/// Builds a Guard for the `.lock()` whose `.` is at `dot`.
fn guard_site(
    pf: &ParsedFile,
    dot: usize,
    body_start: usize,
    body_end: usize,
    f: &Function,
    aliases: &HashMap<String, String>,
) -> Guard {
    let lock = resolve_receiver(pf, dot, body_start, f, aliases);
    // Statement start: token after the previous `;`, `{` or `}`.
    let mut st = dot;
    while st > body_start && !matches!(pf.toks[st - 1].text.as_str(), ";" | "{" | "}") {
        st -= 1;
    }
    let binding = if pf.toks[st].text == "let" {
        let mut b = st + 1;
        if b < body_end && pf.toks[b].text == "mut" {
            b += 1;
        }
        if b < body_end && is_ident(&pf.toks[b].text) {
            Some((pf.toks[b].text.clone(), pf.depth[st]))
        } else {
            None
        }
    } else {
        None
    };
    let mut intervals;
    match binding {
        Some((name, let_depth)) => {
            let base_end = block_close(pf, dot, let_depth, body_end);
            intervals = vec![(dot, base_end)];
            // Process drop(name) sites in order.
            let mut d = dot;
            while d + 3 < base_end {
                if pf.toks[d].text == "drop"
                    && pf.toks[d + 1].text == "("
                    && pf.toks[d + 2].text == name
                    && pf.toks[d + 3].text == ")"
                {
                    let dd = pf.depth[d];
                    if dd == let_depth {
                        subtract(&mut intervals, (d, base_end));
                        break;
                    }
                    if dd > let_depth {
                        subtract(&mut intervals, (d, block_close(pf, d, dd, base_end)));
                    }
                }
                d += 1;
            }
            return Guard {
                idx: dot,
                line: pf.toks[dot].line,
                lock,
                binding: Some(name),
                intervals,
            };
        }
        None => {
            // Temporary: live to the next same-depth `;`, else block end.
            let d = pf.depth[dot];
            let mut end = block_close(pf, dot, d, body_end);
            for j in dot..end {
                if pf.toks[j].text == ";" && pf.depth[j] == d {
                    end = j;
                    break;
                }
            }
            intervals = vec![(dot, end)];
        }
    }
    Guard {
        idx: dot,
        line: pf.toks[dot].line,
        lock,
        binding: None,
        intervals,
    }
}

/// Memoized transitive effects of every function.
fn compute_effects(all: &HashMap<&str, Vec<&FnSites>>) -> HashMap<String, Vec<Effect>> {
    let mut memo: HashMap<String, Vec<Effect>> = HashMap::new();
    let mut names: Vec<&str> = all.keys().copied().collect();
    names.sort();
    for name in names {
        let mut visiting = BTreeSet::new();
        effects_of(name, all, &mut memo, &mut visiting);
    }
    memo
}

fn effects_of(
    name: &str,
    all: &HashMap<&str, Vec<&FnSites>>,
    memo: &mut HashMap<String, Vec<Effect>>,
    visiting: &mut BTreeSet<String>,
) -> Vec<Effect> {
    if let Some(e) = memo.get(name) {
        return e.clone();
    }
    if visiting.contains(name) {
        // Recursion: the cycle contributes no additional effects.
        return Vec::new();
    }
    let Some(occurrences) = all.get(name) else {
        return Vec::new();
    };
    visiting.insert(name.to_string());
    let mut out: BTreeSet<Effect> = BTreeSet::new();
    for fs in occurrences {
        for g in &fs.guards {
            out.insert(Effect::Acquire { lock: g.lock.clone(), chain: Vec::new() });
        }
        for s in &fs.sites {
            match &s.op {
                RawOp::Blocking { name: op, .. } => {
                    out.insert(Effect::Block { op: op.clone(), chain: Vec::new() });
                }
                RawOp::Call { targets } => {
                    for t in targets {
                        for eff in effects_of(t, all, memo, visiting) {
                            let with_chain = match eff {
                                Effect::Acquire { lock, mut chain } => {
                                    chain.insert(0, t.clone());
                                    Effect::Acquire { lock, chain }
                                }
                                Effect::Block { op, mut chain } => {
                                    chain.insert(0, t.clone());
                                    Effect::Block { op, chain }
                                }
                            };
                            out.insert(with_chain);
                        }
                    }
                }
            }
        }
    }
    visiting.remove(name);
    let v: Vec<Effect> = out.into_iter().collect();
    memo.insert(name.to_string(), v.clone());
    v
}

/// Runs lock-order and blocking-under-lock over the call graph.
pub fn analyze_locks(graph: &CallGraph) -> AnalysisResult {
    // Two impls of one type may share a helper name: effects are per name.
    let mut all: HashMap<&str, Vec<&FnSites>> = HashMap::new();
    for fs in graph.fns.iter().flatten() {
        all.entry(&fs.name).or_default().push(fs);
    }
    let effects = compute_effects(&all);

    let mut findings = Vec::new();
    let mut edges: Vec<Edge> = Vec::new();
    let mut nodes: BTreeSet<String> = BTreeSet::new();

    let mut fn_names: Vec<&str> = all.keys().copied().collect();
    fn_names.sort();
    for fs in fn_names.iter().flat_map(|name| &all[name]) {
        for g in &fs.guards {
            nodes.insert(g.lock.clone());
        }
        // Guard-under-guard within the same function.
        for (gi, g) in fs.guards.iter().enumerate() {
            let held = held_at(fs, g.idx, gi, None);
            for h in held {
                push_edge(&mut edges, &h, &g.lock, fs, g.line, &[]);
                findings.push(lock_finding(fs, g.line, &h, &g.lock, &[]));
            }
        }
        for s in &fs.sites {
            match &s.op {
                RawOp::Blocking { name: op, exclude_arg } => {
                    let held = held_at(fs, s.idx, usize::MAX, exclude_arg.as_deref());
                    for h in held {
                        findings.push(Finding {
                            rule: "blocking-under-lock".into(),
                            file: fs.file.clone(),
                            line: s.line,
                            function: fs.name.clone(),
                            held: Some(h.clone()),
                            operation: op.clone(),
                            chain: Vec::new(),
                            message: format!(
                                "blocking call `{op}` while holding `{h}` in `{}`",
                                fs.name
                            ),
                        });
                    }
                }
                RawOp::Call { targets } => {
                    let held = held_at(fs, s.idx, usize::MAX, None);
                    if held.is_empty() {
                        continue;
                    }
                    for t in targets {
                        for eff in effects.get(t).cloned().unwrap_or_default() {
                            let (chain, is_acquire, what) = match &eff {
                                Effect::Acquire { lock, chain } => {
                                    let mut c = vec![t.clone()];
                                    c.extend(chain.iter().cloned());
                                    (c, true, lock.clone())
                                }
                                Effect::Block { op, chain } => {
                                    let mut c = vec![t.clone()];
                                    c.extend(chain.iter().cloned());
                                    (c, false, op.clone())
                                }
                            };
                            for h in &held {
                                if is_acquire {
                                    if *h == what {
                                        continue; // reentrant self-edge is a cycle's job
                                    }
                                    push_edge(&mut edges, h, &what, fs, s.line, &chain);
                                    findings.push(lock_finding(fs, s.line, h, &what, &chain));
                                    nodes.insert(what.clone());
                                } else {
                                    findings.push(Finding {
                                        rule: "blocking-under-lock".into(),
                                        file: fs.file.clone(),
                                        line: s.line,
                                        function: fs.name.clone(),
                                        held: Some(h.clone()),
                                        operation: what.clone(),
                                        chain: chain.clone(),
                                        message: format!(
                                            "blocking call `{what}` (via {}) while holding `{h}` in `{}`",
                                            chain.join(" -> "),
                                            fs.name
                                        ),
                                    });
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    // Dedup findings by (rule, file, function, held, operation, line).
    findings.sort_by_key(|f| f.sort_key());
    findings.dedup_by(|a, b| a.sort_key() == b.sort_key());

    let cycles = find_cycles(&nodes, &edges);
    for cyc in &cycles {
        let path = cyc.join(" -> ");
        // Anchor the finding at the first edge of the cycle.
        let anchor = edges
            .iter()
            .find(|e| e.from == cyc[0] && e.to == cyc[1]);
        let (file, line, function) = anchor
            .map(|e| (e.file.clone(), e.line, e.function.clone()))
            .unwrap_or_default();
        let provenance: Vec<String> = cyc
            .windows(2)
            .filter_map(|w| {
                edges.iter().find(|e| e.from == w[0] && e.to == w[1]).map(|e| {
                    if e.via.is_empty() {
                        format!("{} -> {} at {}:{} in {}", e.from, e.to, e.file, e.line, e.function)
                    } else {
                        format!(
                            "{} -> {} at {}:{} in {} via {}",
                            e.from,
                            e.to,
                            e.file,
                            e.line,
                            e.function,
                            e.via.join(" -> ")
                        )
                    }
                })
            })
            .collect();
        findings.push(Finding {
            rule: "lock-order".into(),
            file,
            line,
            function,
            held: None,
            operation: format!("cycle({path})"),
            chain: provenance,
            message: format!("lock-order cycle: {path}"),
        });
    }

    AnalysisResult {
        findings,
        graph: LockGraph {
            nodes: nodes.into_iter().collect(),
            edges,
        },
        cycles,
    }
}

fn lock_finding(fs: &FnSites, line: usize, held: &str, acquired: &str, chain: &[String]) -> Finding {
    let via = if chain.is_empty() {
        String::new()
    } else {
        format!(" (via {})", chain.join(" -> "))
    };
    Finding {
        rule: "blocking-under-lock".into(),
        file: fs.file.clone(),
        line,
        function: fs.name.clone(),
        held: Some(held.to_string()),
        operation: format!("lock({acquired})"),
        chain: chain.to_vec(),
        message: format!(
            "acquires `{acquired}`{via} while holding `{held}` in `{}`",
            fs.name
        ),
    }
}

/// Locks held at token index `idx` (excluding guard number `skip` and any
/// binding named `exclude`).
fn held_at(fs: &FnSites, idx: usize, skip: usize, exclude: Option<&str>) -> Vec<String> {
    let mut out = Vec::new();
    for (gi, g) in fs.guards.iter().enumerate() {
        if gi == skip {
            continue;
        }
        if let (Some(b), Some(x)) = (&g.binding, exclude) {
            if b == x {
                continue;
            }
        }
        if g.idx < idx
            && g.intervals.iter().any(|&(s, e)| idx >= s && idx < e)
            && !out.contains(&g.lock)
        {
            out.push(g.lock.clone());
        }
    }
    out
}

fn push_edge(edges: &mut Vec<Edge>, from: &str, to: &str, fs: &FnSites, line: usize, via: &[String]) {
    if edges
        .iter()
        .any(|e| e.from == from && e.to == to && e.file == fs.file && e.line == line)
    {
        return;
    }
    edges.push(Edge {
        from: from.to_string(),
        to: to.to_string(),
        file: fs.file.clone(),
        function: fs.name.clone(),
        line,
        via: via.to_vec(),
    });
}

/// Elementary cycles by DFS with an on-stack check; canonicalized by
/// rotating to the smallest node and deduplicated.
fn find_cycles(nodes: &BTreeSet<String>, edges: &[Edge]) -> Vec<Vec<String>> {
    let mut adj: HashMap<&str, BTreeSet<&str>> = HashMap::new();
    for e in edges {
        adj.entry(e.from.as_str()).or_default().insert(e.to.as_str());
    }
    let mut seen: BTreeSet<Vec<String>> = BTreeSet::new();
    for start in nodes {
        let mut path: Vec<&str> = Vec::new();
        dfs_cycles(start.as_str(), &adj, &mut path, &mut seen);
    }
    seen.into_iter().collect()
}

fn dfs_cycles<'a>(
    node: &'a str,
    adj: &HashMap<&'a str, BTreeSet<&'a str>>,
    path: &mut Vec<&'a str>,
    seen: &mut BTreeSet<Vec<String>>,
) {
    if let Some(pos) = path.iter().position(|&n| n == node) {
        // Canonical rotation: start at the smallest node in the cycle.
        let cyc: Vec<&str> = path[pos..].to_vec();
        let min = cyc.iter().enumerate().min_by_key(|(_, n)| **n).map(|(i, _)| i).unwrap_or(0);
        let mut rot: Vec<String> = cyc[min..].iter().chain(cyc[..min].iter()).map(|s| s.to_string()).collect();
        rot.push(rot[0].clone());
        seen.insert(rot);
        return;
    }
    if path.len() > 32 {
        return;
    }
    path.push(node);
    if let Some(next) = adj.get(node) {
        for n in next {
            dfs_cycles(n, adj, path, seen);
        }
    }
    path.pop();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    fn run(src: &str) -> AnalysisResult {
        analyze_locks(&CallGraph::build(&[parse_file("t.rs", src)]))
    }

    #[test]
    fn nested_guard_makes_edge_and_finding() {
        let r = run(
            "impl A { fn f(&self) { let g = self.x.lock(); let h = self.y.lock(); } }",
        );
        assert_eq!(r.graph.edges.len(), 1);
        assert_eq!(r.graph.edges[0].from, "A::x");
        assert_eq!(r.graph.edges[0].to, "A::y");
        assert_eq!(r.findings.len(), 1);
        assert_eq!(r.findings[0].operation, "lock(A::y)");
        assert!(r.cycles.is_empty());
    }

    #[test]
    fn same_depth_drop_truncates() {
        let r = run(
            "impl A { fn f(&self) { let g = self.x.lock(); drop(g); let h = self.y.lock(); } }",
        );
        assert!(r.graph.edges.is_empty(), "{:?}", r.findings);
    }

    #[test]
    fn deeper_drop_punches_branch_but_keeps_tail() {
        let r = run(
            "impl A { fn f(&self) { let g = self.x.lock(); if c { drop(g); self.y.lock().get(); } let h = self.z.lock(); } }",
        );
        // The y acquire inside the dropped branch is not under x; the z
        // acquire after the branch is.
        assert_eq!(r.graph.edges.len(), 1, "{:?}", r.graph.edges);
        assert_eq!(r.graph.edges[0].to, "A::z");
    }

    #[test]
    fn temp_guard_ends_at_semicolon() {
        let r = run(
            "impl A { fn f(&self) { self.x.lock().insert(1); let h = self.y.lock(); } }",
        );
        assert!(r.graph.edges.is_empty(), "{:?}", r.graph.edges);
    }

    #[test]
    fn blocking_through_helper_is_reported_with_chain() {
        let r = run(
            "impl A { fn f(&self) { let g = self.x.lock(); self.h(); } fn h(&self) { self.rx.recv(); } }",
        );
        let f = r
            .findings
            .iter()
            .find(|f| f.operation == "recv")
            .expect("recv finding");
        assert_eq!(f.held.as_deref(), Some("A::x"));
        assert_eq!(f.chain, ["A::h"]);
    }

    #[test]
    fn cycle_across_two_functions_detected() {
        let r = run(
            "impl A { fn f(&self) { let g = self.x.lock(); self.h(); } fn h(&self) { let g = self.y.lock(); self.k(); } fn k(&self) { let g = self.x.lock(); } }",
        );
        assert!(!r.cycles.is_empty(), "edges: {:?}", r.graph.edges);
        assert!(r.findings.iter().any(|f| f.rule == "lock-order"));
    }

    #[test]
    fn for_alias_resolves_to_field() {
        let r = run(
            "impl A { fn f(&self) { for s in &self.shards { let g = s.lock(); let h = self.y.lock(); } } }",
        );
        assert_eq!(r.graph.edges.len(), 1);
        assert_eq!(r.graph.edges[0].from, "A::shards");
    }

    #[test]
    fn condvar_wait_excludes_its_guard() {
        let r = run(
            "impl A { fn f(&self) { let g = self.x.lock(); self.cv.wait(g); } }",
        );
        assert!(
            !r.findings.iter().any(|f| f.operation == "wait"),
            "{:?}",
            r.findings
        );
    }

    #[test]
    fn denylisted_methods_do_not_resolve() {
        let r = run(
            "impl A { fn get(&self) { self.rx.recv(); } fn f(&self) { let g = self.x.lock(); self.map.get(0); } }",
        );
        assert!(r.findings.is_empty(), "{:?}", r.findings);
    }
}
