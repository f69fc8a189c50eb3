//! Call resolution shared by the passes that follow calls: the workspace
//! [`CallGraph`], built once per run, and the token-stream helpers its
//! extraction and the passes use (call parens, receiver chains, block
//! ends).

use std::collections::{BTreeSet, HashMap};

use crate::items::{Function, ParsedFile, KEYWORDS};
use crate::lexer::Tok;

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

/// A function's resolved workspace call sites.
pub struct FnSites {
    /// Qualified function name.
    pub name: String,
    /// `(token index of the call, 1-based line, targets)` per call site.
    sites: Vec<(usize, usize, Vec<String>)>,
}

impl FnSites {
    /// Resolved workspace call sites (token index, line, targets): the
    /// edges of the [`CallGraph`] that wait-graph walks.
    pub(crate) fn calls(&self) -> impl Iterator<Item = (usize, usize, &[String])> + '_ {
        self.sites.iter().map(|(idx, line, targets)| (*idx, *line, targets.as_slice()))
    }
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

/// The workspace call graph: every function's resolved call sites,
/// extracted once per run through one `FnIndex`.
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

/// Extracts the resolved call sites of one function body.
fn extract_fn(pf: &ParsedFile, f: &Function, ix: &FnIndex) -> FnSites {
    let (s, e) = f.body;
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
            let receiver_is_self = i > s && pf.toks[i - 1].text == "self";
            let targets =
                ix.resolve_method(&pf.toks[i + 1].text, receiver_is_self, f.self_type.as_deref());
            if !targets.is_empty() {
                sites.push((i, pf.toks[i].line, targets));
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
            let targets = if i >= s + 3
                && pf.toks[i - 1].text == ":"
                && pf.toks[i - 2].text == ":"
                && is_ident_or_kw(&pf.toks[i - 3].text)
            {
                ix.resolve_path(&pf.toks[i - 3].text, t, f.self_type.as_deref())
            } else {
                ix.resolve_free(t)
            };
            if !targets.is_empty() {
                sites.push((i, pf.toks[i].line, targets));
            }
            i = open + 1;
            continue;
        }
        i += 1;
    }
    FnSites {
        name: f.name.clone(),
        sites,
    }
}

fn is_ident_or_kw(t: &str) -> bool {
    t.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse_file;

    #[test]
    fn denylisted_methods_do_not_resolve() {
        let files = [parse_file(
            "t.rs",
            "impl A { fn get(&self) {} fn f(&self) { self.map.get(0); } fn g(&self) { self.get(); } }",
        )];
        let graph = CallGraph::build(&files);
        let calls = |f: usize| graph.fns[0][f].calls().flat_map(|(_, _, t)| t.to_vec()).collect::<Vec<_>>();
        // `map.get` is a collection's, not `A::get`; `self.get` is.
        assert!(calls(1).is_empty(), "{:?}", calls(1));
        assert_eq!(calls(2), ["A::get"]);
    }
}
