//! The source policy, enforced by rustc and clippy from the real manifests
//! and `crates/pgxd/clippy.toml` (DESIGN.md, "Source policy"). The real
//! tree must lint clean. A copy of it, with rows of code planted under the
//! name of the test that checks them, must report each line marked
//! `// planted: <lint>` as an error under that lint, and nothing else.
//!
//! Compiled as the `policy` bin's test module, not as a test target of its
//! own, so each test reads as `tests::<rule>`.
use std::collections::BTreeSet;
use std::ops::Range;
use std::path::Path;
use std::process::Output;
use std::sync::OnceLock;

use super::{clippy, root};

/// `(test, file, code)`: the code is appended to the file as a module
/// of its own.
type Row = (&'static str, &'static str, &'static str);

const READ: &str = "pub fn read(x: &u8) -> u8 {
    // SAFETY: `x` is a reference, valid for reads.
    unsafe { *(x as *const u8) } // planted: unsafe_code
}";
const READ_ALLOWED: &str = "pub fn read(x: &u8) -> u8 {
    // SAFETY: `x` is a reference, valid for reads.
    unsafe { *(x as *const u8) }
}";

const ROWS: &[Row] = &[
    // `unsafe` outside the allowlist: a deny crate, a forbid crate. The
    // forbid crate's rows sit in one that `pgxd` does not build on
    // (`datagen`), so their errors cannot stop cargo from checking the
    // `pgxd` rows.
    ("unallowed_unsafe_flagged", "crates/pgxd/src/comm.rs", READ),
    ("unallowed_unsafe_flagged", "crates/datagen/src/dist.rs", READ),
    // A forbid crate cannot allow it back.
    ("missing_forbid_attribute_flagged", "crates/datagen/src/cases.rs",
    "#[allow(unsafe_code)] // planted: E0453
    pub fn read(x: &u8) -> u8 {
        // SAFETY: `x` is a reference, valid for reads.
        unsafe { *(x as *const u8) } // planted: unsafe_code
    }"),
    ("pgxd_and_memtrack_exempt_from_forbid", "crates/pgxd/src/machine.rs", READ_ALLOWED),
    ("pgxd_and_memtrack_exempt_from_forbid", "crates/memtrack/src/lib.rs", READ_ALLOWED),
    ("unsafe_in_comments_and_strings_ignored", "crates/datagen/src/rng.rs",
    r##"//! Docs may say unsafe { freely }.
    /* block comments too: unsafe impl */
    pub fn f() -> (&'static str, &'static str, char) {
        ("unsafe { in a string }", r#"raw unsafe "quoted" here"#, '"')
    }"##),
    // The allowlist still documents every unsafe block and impl.
    ("missing_safety_comment_flagged_in_allowlisted_file", "crates/pgxd/src/machine.rs",
    "pub fn read(x: &u8) -> u8 {
        unsafe { *(x as *const u8) } // planted: clippy::undocumented_unsafe_blocks
    }
    pub fn trailing(x: &u8) -> u8 {
        unsafe { *(x as *const u8) } // SAFETY: after the block. // planted: clippy::undocumented_unsafe_blocks
    }"),
    ("safety_comment_same_line_or_above_accepted", "crates/pgxd/src/machine.rs",
    "pub fn above(x: &u8) -> u8 {
        // SAFETY: `x` is a reference, valid for reads.
        unsafe { *(x as *const u8) }
    }
    pub fn same_line(x: &u8) -> u8 {
        unsafe { /* SAFETY: `x` is a reference, valid for reads. */ *(x as *const u8) }
    }
    pub struct Raw(*mut u8);
    // SAFETY: `Raw` is never dereferenced.
    unsafe impl Send for Raw {}"),
    ("unsafe_fn_declaration_exempt_from_safety_comment", "crates/pgxd/src/machine.rs",
    "/// Contract: `_p` is valid for reads.
    pub unsafe fn f(_p: *const u8) {}
    pub struct R(pub unsafe fn(*mut u8));"),
    // The sync shim, however the primitive is named.
    ("renamed_import_and_its_uses_flagged", "crates/pgxd/src/comm.rs",
    "use std::sync::Mutex as Renamed; // planted: clippy::disallowed_types
    pub fn make() -> Renamed<u8> { Renamed::new(0) } // planted: clippy::disallowed_types"),
    ("module_alias_composition_flagged", "crates/pgxd/src/net.rs",
    "use std::sync as aliased;
    pub fn make() -> aliased::Mutex<u8> { aliased::Mutex::new(0) } // planted: clippy::disallowed_types"),
    ("glob_over_banned_parent_flagged", "crates/pgxd/src/buffer.rs",
    "use std::sync::*;
    pub fn make() -> Condvar { Condvar::new() } // planted: clippy::disallowed_types"),
    ("newly_banned_literal_paths_flagged", "crates/pgxd/src/metrics.rs",
    "pub type Lock = std::sync::RwLock<u64>; // planted: clippy::disallowed_types"),
    ("newly_banned_literal_paths_flagged", "crates/pgxd/src/trace.rs",
    "pub struct Wait(pub std::sync::Condvar); // planted: clippy::disallowed_types"),
    ("newly_banned_literal_paths_flagged", "crates/pgxd/src/task.rs",
    "use std::sync::mpsc;
    pub fn make() { let (_tx, _rx) = mpsc::channel::<u8>(); } // planted: clippy::disallowed_methods"),
    ("banned_sync_primitive_in_pgxd_flagged", "crates/pgxd/src/cluster.rs",
    "use std::thread;
    pub fn make() { thread::spawn(|| ()).join().unwrap(); } // planted: clippy::disallowed_methods"),
    ("aliased_use_fixture_produces_expected_findings", "crates/pgxd/src/fault.rs",
    "use std::sync::Mutex as InjStdMutex; // planted: clippy::disallowed_types
    use std::sync::{mpsc as inj_chan, RwLock as InjRw}; // planted: clippy::disallowed_types
    fn build() {
        let _rw = InjRw::new(0u32); // planted: clippy::disallowed_types
        let _m = InjStdMutex::new(0u32); // planted: clippy::disallowed_types
        let (_tx, _rx) = inj_chan::channel::<u8>(); // planted: clippy::disallowed_methods
    }"),
    ("sync_shim_itself_may_name_the_primitives", "crates/pgxd/src/sync.rs",
    "pub type Lock<T> = std::sync::Mutex<T>;
    pub fn make() { std::thread::spawn(|| ()).join().unwrap(); }"),
    ("shim_and_harmless_imports_pass", "crates/pgxd/src/lib.rs",
    "use crate::sync::{Arc, Mutex};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    pub fn make() -> usize {
        let _m = Mutex::new(Arc::new(Barrier::new(1)));
        AtomicUsize::new(0).load(Ordering::SeqCst)
    }"),
];

/// Planted in a second pass, over the root package, `core` and `algos`:
/// the first pass leaves `pgxd` and `datagen` failing, and these files
/// build on one of them, so cargo would never check them there. Test
/// targets, which nothing builds on, hold `unsafe` in two forbid crates
/// and the sync primitives' ban in `core` and `algos` (`pgxd` builds on
/// `algos`, the root package on both); a rule covers every target of a
/// crate alike.
const SECOND_PASS_ROWS: &[Row] = &[
    ("tests_and_benches_are_scanned_too", "tests/end_to_end.rs", READ),
    ("tests_and_benches_are_scanned_too", "crates/core/tests/local_sort_sweep.rs", READ),
    ("sync_primitives_banned_in_core_and_algos", "crates/core/tests/alloc_budget.rs",
    "pub struct Wait(pub std::sync::Condvar); // planted: clippy::disallowed_types"),
    ("sync_primitives_banned_in_core_and_algos", "crates/algos/tests/merge_kernel.rs",
    "pub type Lock = std::sync::Mutex<u64>; // planted: clippy::disallowed_types
    pub fn make() { let (_tx, _rx) = std::sync::mpsc::channel::<u8>(); } // planted: clippy::disallowed_methods"),
];

/// A `(file, line, lint)` that clippy reports or a row expects.
type Hit = (String, usize, String);

/// A row as planted: the lines it landed on, and the hits it expects.
struct Landed {
    test: &'static str,
    file: &'static str,
    lines: Range<usize>,
    expected: BTreeSet<Hit>,
}

/// What clippy reported over the planted copy.
struct Planted {
    rows: Vec<Landed>,
    hits: BTreeSet<Hit>,
    stderr: String,
}

impl Planted {
    /// The hits on `file` within `lines`.
    fn on(&self, file: &str, lines: &Range<usize>) -> BTreeSet<Hit> {
        let on = |h: &&Hit| h.0 == file && lines.contains(&h.1);
        self.hits.iter().filter(on).cloned().collect()
    }
}

/// Copies the tree (not `target/`) under `target/policy-plant`, plants
/// every row and runs clippy over it, once for all the tests.
fn planted() -> &'static Planted {
    static PLANTED: OnceLock<Planted> = OnceLock::new();
    PLANTED.get_or_init(|| {
        let dir = root().join("target/policy-plant");
        let ws = dir.join("ws");
        let _ = std::fs::remove_dir_all(&ws);
        std::fs::create_dir_all(&ws).unwrap();
        for entry in ["Cargo.toml", "src", "tests", "examples", "crates"] {
            copy(&root().join(entry), &ws.join(entry));
        }
        let mut run = Planted {
            rows: Vec::new(),
            hits: BTreeSet::new(),
            stderr: String::new(),
        };
        let passes: [(&[Row], &[&str]); 2] = [
            (
                ROWS,
                &["--workspace", "--keep-going", "--message-format=json"],
            ),
            (
                SECOND_PASS_ROWS,
                &[
                    "--package",
                    "pgxd-sort-repro",
                    "--package",
                    "pgxd-core",
                    "--package",
                    "pgxd-algos",
                    "--keep-going",
                    "--message-format=json",
                ],
            ),
        ];
        for (rows, args) in passes {
            let read = |(_, file, _): &Row| (ws.join(file), std::fs::read(ws.join(file)).unwrap());
            let originals: Vec<_> = rows.iter().map(read).collect();
            for &row in rows {
                let landed = plant(&ws, row, run.rows.len());
                run.rows.push(landed);
            }
            let out = clippy(&ws, &dir.join("target"), args);
            run.hits.extend(errors(&out));
            run.stderr += &String::from_utf8_lossy(&out.stderr);
            for (path, text) in originals {
                std::fs::write(path, text).unwrap();
            }
        }
        run
    })
}

/// Appends a row's code to its file under `ws` as module `planted_{n}`.
fn plant(ws: &Path, (test, file, code): Row, n: usize) -> Landed {
    let path = ws.join(file);
    let mut text = std::fs::read_to_string(&path).unwrap();
    text.push_str(&format!(
        "\n#[allow(dead_code)]\nmod planted_{n} {{\n{code}\n}}\n"
    ));
    std::fs::write(&path, &text).unwrap();
    let first = text.lines().count() - code.lines().count();
    let expected = code.lines().enumerate().filter_map(|(i, line)| {
        let lint = line.split_once("// planted: ")?.1;
        Some((file.to_string(), first + i, lint.to_string()))
    });
    let lines = first..first + code.lines().count();
    Landed {
        test,
        file,
        lines,
        expected: expected.collect(),
    }
}

/// Every diagnostic cargo's JSON messages report at a source line, as
/// `(file, line, lint)`: an error under its lint or code, anything
/// else under a name that no row expects.
fn errors(out: &Output) -> BTreeSet<Hit> {
    let mut hits = BTreeSet::new();
    for line in String::from_utf8_lossy(&out.stdout).lines() {
        let doc = Json::parse(&mut line.trim());
        let msg = doc.get("message");
        let (Some("compiler-message"), Json::Arr(spans)) =
            (doc.get("reason").str(), msg.get("spans"))
        else {
            continue;
        };
        let Some(span) = spans
            .iter()
            .find(|s| s.get("is_primary").str() == Some("true"))
        else {
            continue;
        };
        let code = msg.get("code").get("code").str().unwrap_or("(no code)");
        let lint = match msg.get("level").str() {
            Some("error") => code.to_string(),
            level => format!("{}: {code}", level.unwrap_or("?")),
        };
        let file = span.get("file_name").str().unwrap_or("?").to_string();
        let line = span.get("line_start").str().and_then(|l| l.parse().ok());
        hits.insert((file, line.unwrap_or(0), lint));
    }
    hits
}

/// Requires clippy to report, on the lines of each row planted for
/// `test`, exactly the errors that the row marks.
fn check(test: &str) {
    let run = planted();
    let rows: Vec<&Landed> = run.rows.iter().filter(|r| r.test == test).collect();
    assert!(!rows.is_empty(), "no row is planted for {test}");
    for row in rows {
        let got = run.on(row.file, &row.lines);
        assert_eq!(
            got, row.expected,
            "{} lines {:?}; cargo's stderr:\n{}",
            row.file, row.lines, run.stderr
        );
    }
}

macro_rules! rows {
    ($($test:ident),* $(,)?) => {$(
        #[test]
        fn $test() {
            check(stringify!($test));
        }
    )*};
}

rows!(
    unallowed_unsafe_flagged,
    tests_and_benches_are_scanned_too,
    pgxd_and_memtrack_exempt_from_forbid,
    unsafe_in_comments_and_strings_ignored,
    missing_safety_comment_flagged_in_allowlisted_file,
    safety_comment_same_line_or_above_accepted,
    unsafe_fn_declaration_exempt_from_safety_comment,
    renamed_import_and_its_uses_flagged,
    module_alias_composition_flagged,
    glob_over_banned_parent_flagged,
    newly_banned_literal_paths_flagged,
    banned_sync_primitive_in_pgxd_flagged,
    aliased_use_fixture_produces_expected_findings,
    sync_primitives_banned_in_core_and_algos,
    sync_shim_itself_may_name_the_primitives,
    shim_and_harmless_imports_pass,
);

#[test]
fn missing_forbid_attribute_flagged() {
    check("missing_forbid_attribute_flagged");
    // A member that does not inherit the workspace lints would not
    // forbid `unsafe`: every manifest does, but the two that own unsafe
    // code, which deny it instead.
    let crates = std::fs::read_dir(root().join("crates")).unwrap();
    for dir in crates
        .map(|e| e.unwrap().path())
        .chain([root().to_path_buf()])
    {
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let opt_in = if dir.ends_with("pgxd") || dir.ends_with("memtrack") {
            "\nunsafe_code = \"deny\"\n"
        } else {
            "\n[lints]\nworkspace = true\n"
        };
        assert!(
            manifest.contains(opt_in),
            "{} lacks `{}`",
            dir.display(),
            opt_in.trim()
        );
    }
}

#[test]
fn clean_crate_passes() {
    // Every line that no row planted, in every file, reports nothing.
    let run = planted();
    let mut stray = run.hits.clone();
    for row in &run.rows {
        stray.retain(|hit| !run.on(row.file, &row.lines).contains(hit));
    }
    assert!(
        stray.is_empty(),
        "reported, but planted by no row: {stray:#?}\ncargo's stderr:\n{}",
        run.stderr
    );
}

#[test]
fn real_workspace_is_clean() {
    let target = root().join("target/policy-clippy");
    let out = clippy(root(), &target, &["--workspace", "--", "-D", "warnings"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "cargo clippy reports the workspace:\n{stderr}"
    );
}

/// Copies `from` to `to`, skipping `target` directories.
fn copy(from: &Path, to: &Path) {
    if from.is_dir() {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            if entry.file_name() != "target" {
                copy(&entry.path(), &to.join(entry.file_name()));
            }
        }
    } else {
        std::fs::copy(from, to).unwrap();
    }
}

/// Just enough JSON to read cargo's messages: an escaped character
/// reads as itself (`\n` as `n`), which no field read here holds.
enum Json {
    /// A number, `true`, `false` or `null`, as written.
    Word(String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        static NULL: Json = Json::Arr(Vec::new());
        let Json::Obj(fields) = self else {
            return &NULL;
        };
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map_or(&NULL, |(_, v)| v)
    }

    fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) | Json::Word(s) => Some(s),
            _ => None,
        }
    }

    fn parse(s: &mut &str) -> Json {
        let value = if eat(s, '{') {
            let mut fields = Vec::new();
            while !eat(s, '}') {
                eat(s, ',');
                let Json::Str(key) = Json::parse(s) else {
                    panic!("object key is not a string")
                };
                assert!(eat(s, ':'), "missing `:` after {key}");
                fields.push((key, Json::parse(s)));
            }
            Json::Obj(fields)
        } else if eat(s, '[') {
            let mut items = Vec::new();
            while !eat(s, ']') {
                eat(s, ',');
                items.push(Json::parse(s));
            }
            Json::Arr(items)
        } else if eat(s, '"') {
            let mut out = String::new();
            let mut chars = s.chars();
            loop {
                match chars.next().expect("unterminated string") {
                    '"' => break,
                    '\\' => out.extend(chars.next()),
                    c => out.push(c),
                }
            }
            *s = chars.as_str();
            Json::Str(out)
        } else {
            let end = s.find([',', ']', '}']).unwrap_or(s.len());
            let word = s[..end].trim().to_string();
            *s = &s[end..];
            Json::Word(word)
        };
        *s = s.trim_start();
        value
    }
}

/// Consumes `c`, after any whitespace, if it comes next.
fn eat(s: &mut &str, c: char) -> bool {
    *s = s.trim_start();
    let hit = s.starts_with(c);
    if hit {
        *s = &s[1..];
    }
    hit
}
