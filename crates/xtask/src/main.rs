//! Workspace automation. `cargo xtask check` is the one entry point CI and
//! humans use: it runs the policy lints below plus the six `pgxd-analyze`
//! static analyses (lock-order, blocking-under-lock, wait-graph,
//! atomics-ordering, hot-path-alloc, loop-discipline — see
//! `crates/analyze`) and fails if either finds anything. `lint` and
//! `analyze` run each half alone; every subcommand takes `--json`.
//!
//! The lint rules:
//!
//! 1. **Unsafe allowlist** — the `unsafe` keyword may appear only in the
//!    files that implement the exchange hot path and the tracking
//!    allocator (`pgxd::machine`, `pgxd::pool`, `memtrack`). Everything
//!    else stays safe Rust.
//! 2. **`// SAFETY:` comments** — every `unsafe` block and `unsafe impl`
//!    must be preceded (same line or the comment block directly above) by
//!    a comment containing `SAFETY:` stating the proof obligation.
//!    `unsafe fn` declarations are exempt (their contract is documented on
//!    the item), but the blocks inside their callers are not.
//! 3. **`#![forbid(unsafe_code)]`** — every crate root outside the
//!    allowlisted crates must carry the attribute, so new `unsafe` cannot
//!    creep in without showing up in this file's allowlist.
//! 4. **Sync-shim discipline** — inside `crates/pgxd/src`, thread spawning
//!    and locking must go through `pgxd::task::TaskManager` or
//!    `pgxd::sync` (the loom-swappable shim): `std::thread::spawn`,
//!    `std::sync::{Mutex, RwLock, Condvar, mpsc}`, and the `parking_lot`
//!    equivalents are banned everywhere except `sync.rs` itself.
//! 5. **Use-declaration tracking** — rule 4's literal matching cannot see
//!    `use std::sync::{Mutex as M}` renames, brace-group imports, or
//!    globs over a banned module's parent; the `use`-tree parser from
//!    `pgxd-analyze` catches the declarations (`sync-shim-use`) and a
//!    scope map catches uses of the renamed idents (`sync-shim-alias`).
//!
//! The directory walker and the scanner are shared with `pgxd-analyze`.
//! The scanner strips comments, strings, and char literals before looking
//! for tokens, so prose mentioning `unsafe` or a banned path never trips a
//! rule. A directory that cannot be read is an `io` violation. Exit
//! status is non-zero if any violation or analyzer finding survives.

#![forbid(unsafe_code)]

use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::path::{Path, PathBuf};

use pgxd_analyze::analysis::is_ident;
use pgxd_analyze::items::parse_uses;
use pgxd_analyze::{collect_rs, json_escape};
use pgxd_analyze::lexer::{strip, tokens, StrippedFile, Tok};

/// Files allowed to contain the `unsafe` keyword (workspace-relative,
/// `/`-separated).
const UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/pgxd/src/machine.rs",
    "crates/pgxd/src/pool.rs",
    "crates/memtrack/src/lib.rs",
];

/// Crates whose roots are NOT required to carry `#![forbid(unsafe_code)]`
/// (they own the allowlisted unsafe files).
const UNSAFE_CRATES: &[&str] = &["crates/pgxd", "crates/memtrack"];

/// Paths banned inside `crates/pgxd/src` (must use the `TaskManager` /
/// `pgxd::sync` shim instead), except in the shim itself. Deliberately
/// absent: `std::sync::Arc` and `std::sync::Barrier` (loom-compatible and
/// used by machine/cluster on purpose) and `std::thread::scope` (the task
/// manager's scoped threads are the sanctioned spawn path).
const BANNED_IN_PGXD: &[&str] = &[
    "std::thread::spawn",
    "std::sync::Mutex",
    "std::sync::RwLock",
    "std::sync::Condvar",
    "std::sync::mpsc",
    "parking_lot::Mutex",
    "parking_lot::RwLock",
    "parking_lot::Condvar",
];

/// The one file allowed to name the banned primitives: the shim.
const SYNC_SHIM: &str = "crates/pgxd/src/sync.rs";

#[derive(Debug, PartialEq, Eq)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The banned path `p` matches (segment-aligned), if any.
fn banned_path(p: &str) -> Option<&'static str> {
    BANNED_IN_PGXD
        .iter()
        .find(|b| p == **b || p.strip_prefix(**b).is_some_and(|rest| rest.starts_with("::")))
        .copied()
}

/// True if line `line` (1-based) is covered by a `SAFETY:` comment — on
/// the same line or in the comment block directly above (only blank or
/// comment-only lines may intervene).
fn has_safety_comment(file: &StrippedFile, line: usize) -> bool {
    let idx = line - 1;
    if file.comments[idx].contains("SAFETY") {
        return true;
    }
    for j in (0..idx).rev() {
        if !file.code[j].trim().is_empty() {
            return false;
        }
        if file.comments[j].contains("SAFETY") {
            return true;
        }
    }
    false
}

/// Rules 4–5: literal banned paths, banned `use` declarations (including
/// renames, brace groups, and globs over a banned module's parent), and
/// uses of renamed idents. `flagged` dedupes lines across the three rules.
fn lint_sync_shim(
    rel: &str,
    stripped: &StrippedFile,
    toks: &[Tok],
    violations: &mut Vec<Violation>,
) {
    let mut flagged: BTreeSet<usize> = BTreeSet::new();

    // Rule 4 backstop: literal path on one line, whitespace-insensitive.
    for (idx, line) in stripped.code.iter().enumerate() {
        let compact: String = line.chars().filter(|c| !c.is_whitespace()).collect();
        for banned in BANNED_IN_PGXD {
            if compact.contains(banned) && flagged.insert(idx + 1) {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: idx + 1,
                    rule: "sync-shim",
                    message: format!(
                        "`{banned}` bypasses the loom-swappable shim; use \
                         `crate::sync` or `TaskManager` instead"
                    ),
                });
            }
        }
    }

    // Rule 5a: `use` declarations resolving to a banned path.
    let uses = parse_uses(toks);
    for u in &uses {
        if let Some(b) = banned_path(&u.path) {
            if flagged.insert(u.line) {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: u.line,
                    rule: "sync-shim-use",
                    message: format!(
                        "`use {}` (as `{}`) imports the banned `{b}`; use \
                         `crate::sync` or `TaskManager` instead",
                        u.path, u.name
                    ),
                });
            }
        } else if u.name == "*"
            && BANNED_IN_PGXD.iter().any(|b| {
                b.strip_prefix(u.path.as_str()).is_some_and(|rest| rest.starts_with("::"))
            })
        {
            // A glob over e.g. `std::sync` silently pulls Mutex into scope.
            if flagged.insert(u.line) {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: u.line,
                    rule: "sync-shim-use",
                    message: format!(
                        "`use {}::*` glob-imports banned primitives; import \
                         the allowed items explicitly",
                        u.path
                    ),
                });
            }
        }
    }

    // Rule 5b: uses of idents whose `use`-expansion hits a banned path
    // (e.g. `M::new()` after `use std::sync::{Mutex as M};`).
    let alias: HashMap<&str, &str> = uses
        .iter()
        .filter(|u| u.name != "*")
        .map(|u| (u.name.as_str(), u.path.as_str()))
        .collect();
    if alias.is_empty() {
        return;
    }
    let in_decl = |i: usize| uses.iter().any(|u| i >= u.decl_tokens.0 && i < u.decl_tokens.1);
    for i in 0..toks.len() {
        let t = &toks[i].text;
        if !is_ident(t) || in_decl(i) {
            continue;
        }
        let Some(base) = alias.get(t.as_str()) else {
            continue;
        };
        // Must be the start of a path: not a field/method access, not a
        // later path segment.
        if i > 0 && matches!(toks[i - 1].text.as_str(), "." | ":") {
            continue;
        }
        // Compose trailing `::segment`s onto the expansion.
        let mut full = (*base).to_string();
        let mut j = i + 1;
        while j + 2 < toks.len()
            && toks[j].text == ":"
            && toks[j + 1].text == ":"
            && is_ident(&toks[j + 2].text)
        {
            full.push_str("::");
            full.push_str(&toks[j + 2].text);
            j += 3;
        }
        if let Some(b) = banned_path(&full) {
            if flagged.insert(toks[i].line) {
                violations.push(Violation {
                    file: rel.to_string(),
                    line: toks[i].line,
                    rule: "sync-shim-alias",
                    message: format!(
                        "`{t}` expands to the banned `{b}` (via its `use` \
                         declaration); use `crate::sync` or `TaskManager` \
                         instead"
                    ),
                });
            }
        }
    }
}

/// Lints one file's stripped source. `rel` is the workspace-relative path
/// with `/` separators.
fn lint_file(rel: &str, source: &str, violations: &mut Vec<Violation>) {
    let stripped = strip(source);
    let toks = tokens(&stripped.code);
    let allowlisted = UNSAFE_ALLOWLIST.contains(&rel);

    for (i, tok) in toks.iter().enumerate() {
        if tok.text != "unsafe" {
            continue;
        }
        if !allowlisted {
            violations.push(Violation {
                file: rel.to_string(),
                line: tok.line,
                rule: "unsafe-allowlist",
                message: format!(
                    "`unsafe` outside the allowlist ({}); move the code \
                     into an allowlisted module or make it safe",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            });
            continue;
        }
        // `unsafe fn` declarations (and fn-pointer types) are contracts,
        // not uses; everything else — blocks, impls — needs a SAFETY note.
        if toks.get(i + 1).map(|t| t.text.as_str()) == Some("fn") {
            continue;
        }
        if !has_safety_comment(&stripped, tok.line) {
            violations.push(Violation {
                file: rel.to_string(),
                line: tok.line,
                rule: "safety-comment",
                message: "`unsafe` block/impl without a `// SAFETY:` comment \
                          directly above"
                    .to_string(),
            });
        }
    }

    if rel.starts_with("crates/pgxd/src/") && rel != SYNC_SHIM {
        lint_sync_shim(rel, &stripped, &toks, violations);
    }
}

/// Checks one crate root for `#![forbid(unsafe_code)]`.
fn lint_crate_root(rel: &str, source: &str, violations: &mut Vec<Violation>) {
    if !source.contains("#![forbid(unsafe_code)]") {
        violations.push(Violation {
            file: rel.to_string(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root missing `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

/// Crate root files (`src/lib.rs`, falling back to `src/main.rs`) for
/// every crate under `<root>/crates` plus the workspace root package.
fn crate_roots(root: &Path) -> Vec<(String, PathBuf)> {
    let mut roots = Vec::new();
    let mut dirs: Vec<PathBuf> = vec![root.to_path_buf()];
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            if entry.path().is_dir() {
                dirs.push(entry.path());
            }
        }
    }
    for dir in dirs {
        if !dir.join("Cargo.toml").is_file() {
            continue;
        }
        for candidate in ["src/lib.rs", "src/main.rs"] {
            let path = dir.join(candidate);
            if path.is_file() {
                roots.push((relpath(root, &path), path));
                break;
            }
        }
    }
    roots
}

fn relpath(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Runs every lint over the workspace at `root`.
fn lint_workspace(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();

    let mut files = Vec::new();
    for sub in ["crates", "src"] {
        let dir = root.join(sub);
        if !dir.is_dir() {
            continue;
        }
        if let Err(e) = collect_rs(&dir, &mut files) {
            violations.push(Violation {
                file: sub.to_string(),
                line: 0,
                rule: "io",
                message: format!("unreadable: {e}"),
            });
        }
    }
    files.sort();
    for path in &files {
        let rel = relpath(root, path);
        match std::fs::read_to_string(path) {
            Ok(source) => lint_file(&rel, &source, &mut violations),
            Err(e) => violations.push(Violation {
                file: rel,
                line: 0,
                rule: "io",
                message: format!("unreadable: {e}"),
            }),
        }
    }

    for (rel, path) in crate_roots(root) {
        let crate_dir = rel.rsplit_once("/src/").map(|(d, _)| d).unwrap_or("");
        if UNSAFE_CRATES.contains(&crate_dir) {
            continue;
        }
        if let Ok(source) = std::fs::read_to_string(&path) {
            lint_crate_root(&rel, &source, &mut violations);
        }
    }

    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    violations
}

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> workspace root. CARGO_MANIFEST_DIR is set both
    // under `cargo run` and `cargo test`.
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| std::env::current_dir().expect("cwd"));
    manifest
        .parent()
        .and_then(Path::parent)
        .expect("xtask lives two levels below the workspace root")
        .to_path_buf()
}

fn violations_json(violations: &[Violation]) -> String {
    let items: Vec<String> = violations
        .iter()
        .map(|v| {
            format!(
                "{{\"file\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
                json_escape(&v.file),
                v.line,
                json_escape(v.rule),
                json_escape(&v.message)
            )
        })
        .collect();
    format!("[{}]", items.join(","))
}

/// Runs the lint half. Returns violations (already printed unless `json`).
fn run_lint(root: &Path, json: bool) -> Vec<Violation> {
    let violations = lint_workspace(root);
    if json {
        return violations;
    }
    if violations.is_empty() {
        println!(
            "xtask lint: ok ({} allowlisted unsafe files)",
            UNSAFE_ALLOWLIST.len()
        );
    } else {
        for v in &violations {
            eprintln!("{v}");
        }
        eprintln!("xtask lint: {} violation(s)", violations.len());
    }
    violations
}

/// Runs the analyzer half, writing `results/analyze_report.json`. Returns
/// the report (already printed unless `json`). The persisted file gets
/// `"timings_ms": null` — per-pass wall times only ride the `--json`
/// stdout path, so the committed report never drifts on timing jitter.
fn run_analyze(root: &Path, json: bool) -> pgxd_analyze::Report {
    let mut report = match pgxd_analyze::analyze_workspace(root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask analyze: cannot read workspace sources: {e}");
            std::process::exit(1);
        }
    };
    let out = root.join("results");
    let timings = std::mem::take(&mut report.timings_ms);
    let report_json = pgxd_analyze::render_json(&report);
    report.timings_ms = timings;
    if std::fs::create_dir_all(&out).is_ok() {
        if let Err(e) = std::fs::write(out.join("analyze_report.json"), &report_json) {
            eprintln!("xtask analyze: cannot write results/analyze_report.json: {e}");
        }
    }
    if !json {
        let human = pgxd_analyze::render_human(&report);
        if report.is_clean() {
            print!("{human}");
        } else {
            eprint!("{human}");
        }
    }
    report
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mode = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "check".to_string());
    let root = workspace_root();
    match mode.as_str() {
        "lint" => {
            let violations = run_lint(&root, json);
            if json {
                println!("{}", violations_json(&violations));
            }
            if !violations.is_empty() {
                std::process::exit(1);
            }
        }
        "analyze" => {
            let report = run_analyze(&root, json);
            if json {
                println!("{}", pgxd_analyze::render_json(&report));
            }
            if !report.is_clean() {
                std::process::exit(1);
            }
        }
        "check" => {
            let violations = run_lint(&root, json);
            let report = run_analyze(&root, json);
            if json {
                println!(
                    "{{\"lint\": {}, \"analyze\": {}}}",
                    violations_json(&violations),
                    pgxd_analyze::render_json(&report)
                );
            } else if violations.is_empty() && report.is_clean() {
                println!("xtask check: ok");
            }
            if !violations.is_empty() || !report.is_clean() {
                std::process::exit(1);
            }
        }
        other => {
            eprintln!("unknown xtask subcommand `{other}` (expected: check, lint, analyze; optional --json)");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A scratch workspace on disk, deleted on drop.
    struct Fixture {
        root: PathBuf,
    }

    impl Fixture {
        fn new() -> Self {
            static SEQ: AtomicUsize = AtomicUsize::new(0);
            let root = std::env::temp_dir().join(format!(
                "xtask-lint-test-{}-{}",
                std::process::id(),
                SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            std::fs::create_dir_all(&root).unwrap();
            Fixture { root }
        }

        fn write(&self, rel: &str, content: &str) -> &Self {
            let path = self.root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, content).unwrap();
            self
        }

        fn lint(&self) -> Vec<Violation> {
            lint_workspace(&self.root)
        }
    }

    impl Drop for Fixture {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }

    fn rules(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn clean_crate_passes() {
        let fx = Fixture::new();
        fx.write("crates/demo/Cargo.toml", "[package]\nname = \"demo\"\n")
            .write(
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\npub fn f() -> u32 { 1 }\n",
            );
        assert_eq!(fx.lint(), Vec::new());
    }

    #[test]
    fn unallowed_unsafe_flagged() {
        let fx = Fixture::new();
        fx.write("crates/demo/Cargo.toml", "[package]\nname = \"demo\"\n")
            .write(
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 pub fn f(p: *const u8) -> u8 { unsafe { *p } }\n",
            );
        let v = fx.lint();
        assert_eq!(rules(&v), vec!["unsafe-allowlist"]);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn missing_safety_comment_flagged_in_allowlisted_file() {
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write(
                "crates/pgxd/src/pool.rs",
                "pub fn f(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
            );
        let v = fx.lint();
        assert_eq!(rules(&v), vec!["safety-comment"]);
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn safety_comment_same_line_or_above_accepted() {
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write(
                "crates/pgxd/src/pool.rs",
                "pub fn f(p: *const u8) -> (u8, u8) {\n\
                 \x20   // SAFETY: caller contract, see docs.\n\
                 \x20   let a = unsafe { *p };\n\
                 \x20   let b = unsafe { *p }; // SAFETY: as above.\n\
                 \x20   (a, b)\n\
                 }\n\
                 // SAFETY: no shared state.\n\
                 unsafe impl Send for Foo {}\n\
                 struct Foo(*mut u8);\n",
            );
        assert_eq!(fx.lint(), Vec::new());
    }

    #[test]
    fn unsafe_fn_declaration_exempt_from_safety_comment() {
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write(
                "crates/pgxd/src/pool.rs",
                "/// Contract: p valid.\npub unsafe fn f(p: *const u8) {}\n\
                 struct R { g: unsafe fn(*mut u8) }\n",
            );
        assert_eq!(fx.lint(), Vec::new());
    }

    #[test]
    fn unsafe_in_comments_and_strings_ignored() {
        let fx = Fixture::new();
        fx.write("crates/demo/Cargo.toml", "[package]\nname = \"demo\"\n")
            .write(
                "crates/demo/src/lib.rs",
                "#![forbid(unsafe_code)]\n\
                 //! Docs may say unsafe { freely }.\n\
                 /* block comments too: unsafe impl */\n\
                 pub fn f() -> (&'static str, &'static str, char) {\n\
                 \x20   (\"unsafe { in a string }\", r#\"raw unsafe \"quoted\" here\"#, '\"')\n\
                 }\n",
            );
        assert_eq!(fx.lint(), Vec::new());
    }

    #[test]
    fn missing_forbid_attribute_flagged() {
        let fx = Fixture::new();
        fx.write("crates/demo/Cargo.toml", "[package]\nname = \"demo\"\n")
            .write("crates/demo/src/lib.rs", "pub fn f() {}\n");
        let v = fx.lint();
        assert_eq!(rules(&v), vec!["forbid-unsafe"]);
    }

    #[test]
    fn pgxd_and_memtrack_exempt_from_forbid() {
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write("crates/pgxd/src/lib.rs", "pub fn f() {}\n")
            .write("crates/memtrack/Cargo.toml", "[package]\nname = \"m\"\n")
            .write("crates/memtrack/src/lib.rs", "pub fn g() {}\n");
        assert_eq!(fx.lint(), Vec::new());
    }

    #[test]
    fn banned_sync_primitive_in_pgxd_flagged() {
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write(
                "crates/pgxd/src/lib.rs",
                "pub fn f() {\n    let _ = std::thread::spawn(|| ());\n}\n\
                 pub fn g() {\n    let _m = parking_lot::Mutex::new(());\n}\n",
            );
        let v = fx.lint();
        assert_eq!(rules(&v), vec!["sync-shim", "sync-shim"]);
        assert_eq!((v[0].line, v[1].line), (2, 5));
    }

    #[test]
    fn newly_banned_literal_paths_flagged() {
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write(
                "crates/pgxd/src/lib.rs",
                "pub fn f() {\n    let _ = std::sync::RwLock::new(0u32);\n\
                 \x20   let (_tx, _rx) = std::sync::mpsc::channel::<u8>();\n}\n\
                 pub struct C(std::sync::Condvar);\n",
            );
        let v = fx.lint();
        assert_eq!(rules(&v), vec!["sync-shim", "sync-shim", "sync-shim"]);
        assert_eq!(
            v.iter().map(|v| v.line).collect::<Vec<_>>(),
            vec![2, 3, 5]
        );
    }

    #[test]
    fn sync_shim_itself_may_name_the_primitives() {
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write(
                "crates/pgxd/src/sync.rs",
                "pub type M<T> = parking_lot::Mutex<T>;\n",
            )
            .write(
                "crates/pgxd/src/lib.rs",
                "pub mod sync;\n// std::sync::Mutex in a comment is fine.\n",
            );
        assert_eq!(fx.lint(), Vec::new());
    }

    #[test]
    fn renamed_import_and_its_uses_flagged() {
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write(
                "crates/pgxd/src/lib.rs",
                "use std::sync::{Mutex as M};\n\
                 pub fn f() {\n    let _m = M::new(0u32);\n}\n",
            );
        let v = fx.lint();
        assert_eq!(rules(&v), vec!["sync-shim-use", "sync-shim-alias"]);
        assert_eq!((v[0].line, v[1].line), (1, 3));
    }

    #[test]
    fn module_alias_composition_flagged() {
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write(
                "crates/pgxd/src/lib.rs",
                "use std::sync as ss;\n\
                 pub fn f() {\n    let _m = ss::Mutex::new(0u32);\n}\n",
            );
        let v = fx.lint();
        assert_eq!(rules(&v), vec!["sync-shim-alias"]);
        assert_eq!(v[0].line, 3);
    }

    #[test]
    fn glob_over_banned_parent_flagged() {
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write(
                "crates/pgxd/src/lib.rs",
                "use std::sync::*;\npub fn f() {}\n",
            );
        let v = fx.lint();
        assert_eq!(rules(&v), vec!["sync-shim-use"]);
    }

    #[test]
    fn shim_and_harmless_imports_pass() {
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write(
                "crates/pgxd/src/lib.rs",
                "use crate::sync::Mutex;\n\
                 use std::sync::{Arc, Barrier};\n\
                 use std::sync::atomic::{AtomicUsize, Ordering};\n\
                 pub fn f() {\n    let _m = Mutex::new(0u32);\n    let _a = Arc::new(1u8);\n}\n",
            );
        assert_eq!(fx.lint(), Vec::new());
    }

    #[test]
    fn aliased_use_fixture_produces_expected_findings() {
        // The shared should-fail fixture from the analyzer's corpus,
        // dropped into a scratch pgxd tree.
        let src = include_str!("../../analyze/tests/fixtures/fail_aliased_use.rs");
        let fx = Fixture::new();
        fx.write("crates/pgxd/Cargo.toml", "[package]\nname = \"pgxd\"\n")
            .write("crates/pgxd/src/aliased.rs", src)
            .write("crates/pgxd/src/lib.rs", "pub mod aliased;\n");
        let v = fx.lint();
        let got: Vec<(&'static str, usize)> = v.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            got,
            vec![
                ("sync-shim", 7),        // literal `use std::sync::Mutex as ...`
                ("sync-shim-use", 8),    // brace-group renames (one line)
                ("sync-shim-alias", 11), // InjRw::new
                ("sync-shim-alias", 12), // InjStdMutex::new
                ("sync-shim-alias", 13), // inj_chan::channel
            ]
        );
    }

    #[test]
    fn tests_and_benches_are_scanned_too() {
        let fx = Fixture::new();
        fx.write("crates/demo/Cargo.toml", "[package]\nname = \"demo\"\n")
            .write("crates/demo/src/lib.rs", "#![forbid(unsafe_code)]\n")
            .write(
                "crates/demo/tests/t.rs",
                "#[test]\nfn t() { let p = &1u8 as *const u8; let _ = unsafe { *p }; }\n",
            );
        assert_eq!(rules(&fx.lint()), vec!["unsafe-allowlist"]);
    }

    #[test]
    fn violations_json_shape() {
        let v = vec![Violation {
            file: "a\"b.rs".to_string(),
            line: 3,
            rule: "sync-shim",
            message: "bad\nthing".to_string(),
        }];
        assert_eq!(
            violations_json(&v),
            "[{\"file\":\"a\\\"b.rs\",\"line\":3,\"rule\":\"sync-shim\",\"message\":\"bad\\nthing\"}]"
        );
        assert_eq!(violations_json(&[]), "[]");
    }

    #[test]
    fn real_workspace_is_clean() {
        let violations = lint_workspace(&workspace_root());
        assert!(
            violations.is_empty(),
            "workspace lint violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
