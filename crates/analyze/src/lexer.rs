//! Comment/string-stripping scanner and tokenizer.
//!
//! Every pass reads the source through this one scanner, so they agree
//! exactly on what is code and what is prose. It handles line comments,
//! nested block comments, string literals (plain, byte, raw with any `#`
//! count), char literals, and lifetimes; everything the analyses look at
//! afterwards is plain tokens with line numbers, so prose mentioning
//! `unsafe` or `.lock()` can never produce a finding.

/// A source file split into per-line code and comment text, with string
/// and char literals removed from the code.
pub struct StrippedFile {
    /// Code text of each line (string/char literal contents removed).
    pub code: Vec<String>,
    /// Comment text of each line (`//`, `///`, `//!`, and block comments).
    pub comments: Vec<String>,
}

/// One code token: an identifier/keyword/number word, or a single
/// punctuation char, with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based source line.
    pub line: usize,
    /// Token text.
    pub text: String,
}

/// Strips `source` into code and comment channels. Handles line comments,
/// nested block comments, string literals (plain, byte, raw with any `#`
/// count), char literals, and lifetimes.
pub fn strip(source: &str) -> StrippedFile {
    let chars: Vec<char> = source.chars().collect();
    let mut code = vec![String::new()];
    let mut comments = vec![String::new()];
    let mut i = 0;
    // Whether the previous code char continues an identifier (so an `r` or
    // `b` here is part of a name like `ptr`, not a raw-string prefix).
    let mut prev_ident = false;

    macro_rules! newline {
        () => {{
            code.push(String::new());
            comments.push(String::new());
        }};
    }
    macro_rules! push_code {
        ($c:expr) => {{
            let c: char = $c;
            if c == '\n' {
                newline!();
            } else {
                code.last_mut().unwrap().push(c);
            }
            prev_ident = c.is_alphanumeric() || c == '_';
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let next = chars.get(i + 1).copied();

        // Line comment (covers `///` and `//!` too).
        if c == '/' && next == Some('/') {
            i += 2;
            while i < chars.len() && chars[i] != '\n' {
                comments.last_mut().unwrap().push(chars[i]);
                i += 1;
            }
            continue;
        }

        // Block comment, nested.
        if c == '/' && next == Some('*') {
            i += 2;
            let mut depth = 1usize;
            while i < chars.len() && depth > 0 {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    i += 2;
                } else {
                    if chars[i] == '\n' {
                        newline!();
                    } else {
                        comments.last_mut().unwrap().push(chars[i]);
                    }
                    i += 1;
                }
            }
            continue;
        }

        // Raw string r"..." / r#"..."# (and br variants via the `b` case
        // falling through to here on its second char).
        if c == 'r' && !prev_ident && matches!(next, Some('"') | Some('#')) {
            let mut j = i + 1;
            let mut hashes = 0usize;
            while chars.get(j) == Some(&'#') {
                hashes += 1;
                j += 1;
            }
            if chars.get(j) == Some(&'"') {
                // Consume until `"` followed by `hashes` hashes.
                j += 1;
                loop {
                    match chars.get(j) {
                        None => break,
                        Some('"') => {
                            let mut k = 0;
                            while k < hashes && chars.get(j + 1 + k) == Some(&'#') {
                                k += 1;
                            }
                            if k == hashes {
                                j += 1 + hashes;
                                break;
                            }
                            j += 1;
                        }
                        Some('\n') => {
                            newline!();
                            j += 1;
                        }
                        Some(_) => j += 1,
                    }
                }
                i = j;
                prev_ident = true; // a literal ends like an expression
                continue;
            }
            // `r#ident` raw identifier: drop the `#` so the whole thing
            // lexes as ONE non-keyword word (`r#fn` must come out as the
            // identifier `rfn`, never as a stray `#` plus the keyword
            // `fn`, which would token-spoof the item scanner).
            if chars.get(i + 1) == Some(&'#')
                && chars
                    .get(i + 2)
                    .is_some_and(|ch| ch.is_alphanumeric() || *ch == '_')
            {
                push_code!(c);
                i += 2;
                continue;
            }
            push_code!(c);
            i += 1;
            continue;
        }

        // Byte-string prefix: skip the `b` and let the literal opener that
        // follows be handled on the next iteration. Only a real opener
        // counts — `br` must be followed by `"`/`#`, or words such as
        // `broadcast` would lose their leading `b`.
        if c == 'b' && !prev_ident {
            let opens_literal = match next {
                Some('"') | Some('\'') => true,
                Some('r') => matches!(chars.get(i + 2), Some('"') | Some('#')),
                _ => false,
            };
            if opens_literal {
                // `prev_ident` must stay false so the next char is seen as
                // a literal opener.
                prev_ident = false;
                i += 1;
                continue;
            }
        }

        // String literal.
        if c == '"' {
            i += 1;
            while i < chars.len() {
                match chars[i] {
                    // An escape consumes the next char too — which may be a
                    // literal newline (backslash line continuation); it must
                    // still advance the line counter or every reported line
                    // number after it drifts by one.
                    '\\' => {
                        if chars.get(i + 1) == Some(&'\n') {
                            newline!();
                        }
                        i += 2;
                    }
                    '"' => {
                        i += 1;
                        break;
                    }
                    '\n' => {
                        newline!();
                        i += 1;
                    }
                    _ => i += 1,
                }
            }
            prev_ident = true;
            continue;
        }

        // Char literal vs lifetime.
        if c == '\'' {
            if next == Some('\\') {
                // Escaped char: consume the backslash AND the escaped
                // character itself before scanning for the closing quote
                // (otherwise `'\''` would stop at the escaped quote and
                // leave the real closing quote behind as a stray token),
                // counting any newline crossed on malformed input.
                i += 2;
                if i < chars.len() {
                    if chars[i] == '\n' {
                        newline!();
                    }
                    i += 1;
                }
                while i < chars.len() && chars[i] != '\'' {
                    if chars[i] == '\n' {
                        newline!();
                    }
                    i += 1;
                }
                i += 1;
                prev_ident = true;
                continue;
            }
            if chars.get(i + 2) == Some(&'\'') && next.is_some() {
                // 'x' — including '"', which must not open a string.
                i += 3;
                prev_ident = true;
                continue;
            }
            // Lifetime or label: emit the quote as code and continue.
            push_code!(c);
            i += 1;
            continue;
        }

        push_code!(c);
        i += 1;
    }

    StrippedFile { code, comments }
}

/// Code tokens with their 1-based line numbers: identifiers (including
/// keywords and numbers) as words, everything else as single chars.
pub fn tokens(code: &[String]) -> Vec<Tok> {
    let mut out = Vec::new();
    for (idx, line) in code.iter().enumerate() {
        let mut word = String::new();
        for ch in line.chars() {
            if ch.is_alphanumeric() || ch == '_' {
                word.push(ch);
            } else {
                if !word.is_empty() {
                    out.push(Tok {
                        line: idx + 1,
                        text: std::mem::take(&mut word),
                    });
                }
                if !ch.is_whitespace() {
                    out.push(Tok {
                        line: idx + 1,
                        text: ch.to_string(),
                    });
                }
            }
        }
        if !word.is_empty() {
            out.push(Tok {
                line: idx + 1,
                text: word,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(src: &str) -> Vec<String> {
        tokens(&strip(src).code).into_iter().map(|t| t.text).collect()
    }

    #[test]
    fn comments_and_strings_removed() {
        let s = strip("let a = \"x.lock()\"; // b.lock()\n/* c.lock() */ let d = 1;\n");
        assert!(!s.code.join("\n").contains("lock"));
        assert!(s.comments[0].contains("b.lock()"));
        assert!(s.comments[1].contains("c.lock()"));
    }

    #[test]
    fn raw_strings_and_chars_skipped() {
        assert_eq!(
            toks("let x = r#\"a \"quoted\" lock()\"#; let c = '\"';"),
            ["let", "x", "=", ";", "let", "c", "=", ";"]
        );
    }

    #[test]
    fn lifetimes_survive() {
        assert_eq!(
            toks("fn f<'a>(x: &'a str) {}"),
            ["fn", "f", "<", "'", "a", ">", "(", "x", ":", "&", "'", "a", "str", ")", "{", "}"]
        );
    }

    #[test]
    fn b_prefix_only_swallowed_before_literals() {
        assert_eq!(
            toks("fn broadcast(b: u8) { let x = b\"z\"; let y = br#\"w\"#; }"),
            ["fn", "broadcast", "(", "b", ":", "u8", ")", "{", "let", "x", "=", ";", "let", "y",
             "=", ";", "}"]
        );
    }

    #[test]
    fn multiline_raw_string_keeps_line_numbers_exact() {
        // Three lines inside the raw literal; the token after it must
        // land on the real source line, hash-count variants included.
        let src = "let a = r#\"one\ntwo \"quoted\"\nthree\"#;\nlet b = r##\"x\"#\ny\"##;\nfn tail() {}\n";
        let t = tokens(&strip(src).code);
        let fn_tok = t.iter().find(|t| t.text == "fn").expect("fn token");
        assert_eq!(fn_tok.line, 6);
        let b_tok = t.iter().find(|t| t.text == "b").expect("b token");
        assert_eq!(b_tok.line, 4);
    }

    #[test]
    fn nested_block_comment_keeps_line_numbers_exact() {
        let src = "/* outer\n /* inner\n  spanning */\n still outer */\nfn after() {}\n";
        let s = strip(src);
        assert_eq!(s.code.len(), 6, "one entry per source line plus trailing");
        let t = tokens(&s.code);
        assert_eq!(t.iter().find(|t| t.text == "fn").map(|t| t.line), Some(5));
        assert!(s.comments[1].contains("inner"));
    }

    #[test]
    fn string_escaped_newline_counts_the_line() {
        // A backslash line continuation inside a string literal spans two
        // source lines; code after the literal must not drift.
        let src = "let a = \"one \\\ntwo\";\nfn after() {}\n";
        let t = tokens(&strip(src).code);
        assert_eq!(t.iter().find(|t| t.text == "fn").map(|t| t.line), Some(3));
    }

    #[test]
    fn escaped_quote_char_literal_fully_consumed() {
        // `'\''` must not leave the closing quote behind as a stray
        // lifetime token.
        assert_eq!(toks("let q = '\\''; let n = '\\n';"), ["let", "q", "=", ";", "let", "n", "=", ";"]);
    }

    #[test]
    fn raw_identifiers_do_not_spoof_keywords() {
        // `r#fn` is an identifier, not the `fn` keyword: the item scanner
        // must never see a bare `fn` token from it.
        assert_eq!(toks("let x = r#fn; call(r#match)"), ["let", "x", "=", "rfn", ";", "call", "(", "rmatch", ")"]);
    }

    #[test]
    fn line_numbers_are_one_based() {
        let t = tokens(&strip("a\nb\n\nc\n").code);
        let lines: Vec<(usize, &str)> = t.iter().map(|t| (t.line, t.text.as_str())).collect();
        assert_eq!(lines, [(1, "a"), (2, "b"), (4, "c")]);
    }
}
