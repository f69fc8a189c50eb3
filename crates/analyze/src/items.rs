//! Item extraction over the token stream: functions (with their impl-type
//! qualification and body token ranges), and test-region detection so
//! `#[cfg(test)]` code is excluded from the analyses.

use crate::lexer::{strip, tokens, StrippedFile, Tok};

/// One extracted function item.
#[derive(Debug, Clone)]
pub struct Function {
    /// Qualified name: `Type::name` inside an `impl Type`, plain `name`
    /// for free functions.
    pub name: String,
    /// The `impl` type this is a method of, if any.
    pub self_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token index range `[start, end)` of the body (inside the braces).
    pub body: (usize, usize),
}

/// A parsed source file: stripped text, tokens, and extracted items.
pub struct ParsedFile {
    /// Workspace-relative path with `/` separators.
    pub rel: String,
    /// Per-line code/comment channels.
    pub stripped: StrippedFile,
    /// Code tokens.
    pub toks: Vec<Tok>,
    /// Brace depth (count of enclosing `{`) per token index.
    pub depth: Vec<usize>,
    /// Non-test functions, in source order.
    pub functions: Vec<Function>,
}

/// Rust keywords that can precede `(` without being a call.
pub const KEYWORDS: &[&str] = &[
    "as", "box", "break", "const", "continue", "crate", "dyn", "else", "enum", "extern", "false",
    "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move", "mut", "pub", "ref",
    "return", "self", "Self", "static", "struct", "super", "trait", "true", "type", "unsafe",
    "use", "where", "while", "yield", "async", "await", "union",
];

/// Index of the token closing the `(`, `[` or `{` at `open` (token
/// indices), or the last token if unbalanced.
pub fn matching_delim(toks: &[Tok], open: usize) -> usize {
    let o = toks[open].text.as_str();
    debug_assert!(matches!(o, "(" | "[" | "{"), "{o}");
    let c = match o {
        "(" => ")",
        "[" => "]",
        _ => "}",
    };
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.text == o {
            depth += 1;
        } else if t.text == c {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    toks.len() - 1
}

/// Parses one source file into tokens and items.
pub fn parse_file(rel: &str, source: &str) -> ParsedFile {
    let stripped = strip(source);
    let toks = tokens(&stripped.code);

    // Brace depth per token (depth of the token itself; a `{` is at the
    // depth outside it, its contents one deeper).
    let mut depth = Vec::with_capacity(toks.len());
    let mut d = 0usize;
    for t in &toks {
        match t.text.as_str() {
            "{" => {
                depth.push(d);
                d += 1;
            }
            "}" => {
                d = d.saturating_sub(1);
                depth.push(d);
            }
            _ => depth.push(d),
        }
    }

    let test_regions = find_test_regions(&toks);
    let impl_regions = find_impl_regions(&toks);
    let functions = extract_functions(&toks, &test_regions, &impl_regions);

    ParsedFile {
        rel: rel.to_string(),
        stripped,
        toks,
        depth,
        functions,
    }
}

/// Token ranges of `#[cfg(test)] mod … { … }` bodies (also matches
/// `#[cfg(all(test, …))]`).
fn find_test_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i + 1 < toks.len() {
        if toks[i].text == "#" && toks[i + 1].text == "[" {
            // Scan the attribute for a bare `test` token.
            let mut j = i + 2;
            let mut bracket = 1usize;
            let mut has_test = false;
            let mut is_cfg = false;
            while j < toks.len() && bracket > 0 {
                match toks[j].text.as_str() {
                    "[" => bracket += 1,
                    "]" => bracket -= 1,
                    "cfg" => is_cfg = true,
                    "test" => has_test = true,
                    _ => {}
                }
                j += 1;
            }
            if is_cfg && has_test {
                // Skip further attributes, then expect `mod name {`.
                let mut k = j;
                while k + 1 < toks.len() && toks[k].text == "#" && toks[k + 1].text == "[" {
                    let mut b = 0usize;
                    k += 1;
                    while k < toks.len() {
                        match toks[k].text.as_str() {
                            "[" => b += 1,
                            "]" => {
                                b -= 1;
                                if b == 0 {
                                    k += 1;
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                }
                if toks.get(k).map(|t| t.text.as_str()) == Some("mod") {
                    let mut m = k;
                    while m < toks.len() && toks[m].text != "{" && toks[m].text != ";" {
                        m += 1;
                    }
                    if m < toks.len() && toks[m].text == "{" {
                        regions.push((m, matching_delim(toks, m)));
                    }
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    regions
}

/// Token ranges of `impl … { … }` bodies with the implemented type name
/// (`impl Trait for Type` resolves to `Type`).
fn find_impl_regions(toks: &[Tok]) -> Vec<(usize, usize, String)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text == "impl" {
            let mut j = i + 1;
            let mut angle = 0usize;
            let mut first_ident: Option<String> = None;
            let mut after_for: Option<String> = None;
            let mut saw_for = false;
            while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
                match toks[j].text.as_str() {
                    "<" => angle += 1,
                    ">" => angle = angle.saturating_sub(1),
                    "for" if angle == 0 => saw_for = true,
                    w if angle == 0
                        && w.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_')
                        && !KEYWORDS.contains(&w) =>
                    {
                        if saw_for {
                            if after_for.is_none() {
                                after_for = Some(w.to_string());
                            }
                        } else if first_ident.is_none() {
                            first_ident = Some(w.to_string());
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if j < toks.len() && toks[j].text == "{" {
                let ty = after_for.or(first_ident).unwrap_or_else(|| "<impl>".to_string());
                regions.push((j, matching_delim(toks, j), ty));
                // Continue scanning *inside* the impl for nothing — fns are
                // found by the flat fn scan; just move past the header.
                i = j + 1;
                continue;
            }
            i = j + 1;
        } else {
            i += 1;
        }
    }
    regions
}

/// True if any attribute group directly before token `i` contains a bare
/// `test` ident (`#[test]`, `#[tokio::test]`, …).
fn has_test_attr(toks: &[Tok], mut i: usize) -> bool {
    // Walk backwards over `pub`, visibility parens, `async`, `unsafe`,
    // `const`, `extern` to the start of the item, then over attributes.
    while i > 0 {
        let t = toks[i - 1].text.as_str();
        if matches!(t, "pub" | "async" | "unsafe" | "const" | "extern") {
            i -= 1;
        } else if t == ")" {
            // possible `pub(crate)`
            let mut j = i - 1;
            let mut p = 1usize;
            while j > 0 && p > 0 {
                j -= 1;
                match toks[j].text.as_str() {
                    ")" => p += 1,
                    "(" => p -= 1,
                    _ => {}
                }
            }
            i = j;
        } else {
            break;
        }
    }
    // Now consume attribute groups ending right before i: `# [ … ]`.
    while i > 0 && toks[i - 1].text == "]" {
        let mut j = i - 1;
        let mut b = 1usize;
        while j > 0 && b > 0 {
            j -= 1;
            match toks[j].text.as_str() {
                "]" => b += 1,
                "[" => b -= 1,
                _ => {}
            }
        }
        if j == 0 || toks[j - 1].text != "#" {
            return false;
        }
        if toks[j..i].iter().any(|t| t.text == "test") {
            return true;
        }
        i = j - 1;
    }
    false
}

fn extract_functions(
    toks: &[Tok],
    test_regions: &[(usize, usize)],
    impl_regions: &[(usize, usize, String)],
) -> Vec<Function> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].text != "fn" {
            i += 1;
            continue;
        }
        // `fn(` is a fn-pointer type, not an item.
        let Some(name_tok) = toks.get(i + 1) else {
            break;
        };
        if !name_tok.text.chars().next().is_some_and(|c| c.is_alphabetic() || c == '_') {
            i += 1;
            continue;
        }
        if test_regions.iter().any(|&(s, e)| i > s && i < e) || has_test_attr(toks, i) {
            i += 2;
            continue;
        }
        // Find the body `{`, or `;` for a bodyless trait method. Angle
        // brackets in generics/return types cannot contain `{`/`;` in this
        // codebase's style, so a flat scan suffices.
        let mut j = i + 2;
        while j < toks.len() && toks[j].text != "{" && toks[j].text != ";" {
            j += 1;
        }
        if j >= toks.len() || toks[j].text == ";" {
            i = j + 1;
            continue;
        }
        let close = matching_delim(toks, j);
        let self_type = impl_regions
            .iter()
            .filter(|&&(s, e, _)| i > s && i < e)
            .map(|(_, _, ty)| ty.clone())
            .next_back();
        let name = match &self_type {
            Some(ty) => format!("{ty}::{}", name_tok.text),
            None => name_tok.text.clone(),
        };
        out.push(Function {
            name,
            self_type,
            line: toks[i].line,
            body: (j + 1, close),
        });
        i = j + 1; // nested fns inside the body are still found
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn functions_get_impl_qualification() {
        let pf = parse_file(
            "a.rs",
            "struct P;\nimpl P { fn get(&self) {} }\nimpl Drop for P { fn drop(&mut self) {} }\nfn free() {}\n",
        );
        let names: Vec<&str> = pf.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["P::get", "P::drop", "free"]);
        assert_eq!(pf.functions[1].self_type.as_deref(), Some("P"));
    }

    #[test]
    fn test_code_is_skipped() {
        let pf = parse_file(
            "a.rs",
            "fn real() {}\n#[cfg(test)]\nmod tests {\n fn helper() {}\n #[test]\n fn t() {}\n}\n\
             #[cfg(all(test, not(loom)))]\nmod more {\n fn h2() {}\n}\n#[test]\nfn stray() {}\n",
        );
        let names: Vec<&str> = pf.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["real"]);
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let pf = parse_file("a.rs", "struct R { g: unsafe fn(*mut u8) }\nfn f() {}\n");
        let names: Vec<&str> = pf.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["f"]);
    }

    #[test]
    fn generic_impl_and_trait_impl_types() {
        let pf = parse_file(
            "a.rs",
            "impl<T: Send + 'static> Buf<T> { fn push(&mut self) {} }\n\
             impl<T> Drop for Buf<T> { fn drop(&mut self) {} }\n",
        );
        let names: Vec<&str> = pf.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["Buf::push", "Buf::drop"]);
    }
}
