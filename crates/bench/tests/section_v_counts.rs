//! The committed §V record is what this tree produces: `exp table2`,
//! `exp table3`, `exp fig7` and `exp buffer` are run with their defaults
//! in a temporary directory, and `exp fig5` at its smallest and largest
//! machine counts (`--procs=8,52`), and every count field of every record must equal the
//! one in the committed `results/*.json`. Times are not compared.
//!
//! The files are read with the small JSON reader below, so the check needs
//! no dependency.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The fields of a record that are counts: a deterministic function of the
/// input, the configuration and the wire format, whatever the buffer size
/// and however the threads interleave.
const COUNT_FIELDS: [&str; 9] = [
    "total_keys",
    "sizes",
    "ranges",
    "comm_bytes",
    "comm_messages",
    "max_recv_bytes",
    "per_dst_bytes",
    "exchange_chunks_sent",
    "exchange_bytes_placed",
];

/// A JSON value; numbers keep their text, so counts compare exactly.
#[derive(Debug, PartialEq)]
enum Value {
    Null,
    Num(String),
    Str(String),
    Array(Vec<Value>),
    Object(Vec<(String, Value)>),
}

impl Value {
    fn field(&self, name: &str) -> &Value {
        let Value::Object(fields) = self else {
            panic!("not an object: {self:?}")
        };
        fields
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no field `{name}`"))
    }
}

/// Parses one JSON document; enough of the grammar for the files `exp`
/// writes (no escapes other than `\"` and `\\` occur in them).
fn parse(text: &str) -> Value {
    let mut rest = text.trim_start();
    let value = parse_value(&mut rest);
    assert!(rest.trim().is_empty(), "trailing text: {rest:.40}");
    value
}

fn parse_value(s: &mut &str) -> Value {
    let value = match s.as_bytes()[0] {
        b'{' => {
            *s = s[1..].trim_start();
            let mut fields = Vec::new();
            while !eat(s, '}') {
                eat(s, ',');
                let Value::Str(key) = parse_value(s) else {
                    panic!("object key is not a string")
                };
                assert!(eat(s, ':'), "missing `:` after {key}");
                fields.push((key, parse_value(s)));
            }
            Value::Object(fields)
        }
        b'[' => {
            *s = s[1..].trim_start();
            let mut items = Vec::new();
            while !eat(s, ']') {
                eat(s, ',');
                items.push(parse_value(s));
            }
            Value::Array(items)
        }
        b'"' => {
            let mut out = String::new();
            let mut chars = s[1..].char_indices();
            let end = loop {
                match chars.next().expect("unterminated string") {
                    (i, '"') => break i + 2,
                    (_, '\\') => out.push(chars.next().expect("dangling escape").1),
                    (_, c) => out.push(c),
                }
            };
            *s = &s[end..];
            Value::Str(out)
        }
        _ => {
            let end = s.find([',', ']', '}', '\n']).unwrap_or(s.len());
            let word = s[..end].trim();
            *s = &s[end..];
            match word {
                "null" => Value::Null,
                _ => Value::Num(word.to_string()),
            }
        }
    };
    *s = s.trim_start();
    value
}

/// Consumes `c` (and the whitespace after it) if it comes next.
fn eat(s: &mut &str, c: char) -> bool {
    let hit = s.starts_with(c);
    if hit {
        *s = s[1..].trim_start();
    }
    hit
}

fn committed(name: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("../../results/{name}.json"));
    parse(&std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display())))
}

/// Runs `exp <name> <args>` in a fresh directory and returns the
/// `results/<name>.json` it wrote.
fn regenerated(name: &str, args: &[&str]) -> Value {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("pgxd-counts-{}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .arg(name)
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "exp {name} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(dir.join(format!("results/{name}.json"))).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    parse(&text)
}

/// `exp <name> <args>` against the committed records that `pinned` keeps.
fn assert_counts_match(name: &str, args: &[&str], pinned: impl Fn(&Value) -> bool) {
    let (Value::Array(fresh), Value::Array(all)) = (regenerated(name, args), committed(name))
    else {
        panic!("{name}.json is not an array of records")
    };
    let pinned: Vec<&Value> = all.iter().filter(|record| pinned(record)).collect();
    assert_eq!(fresh.len(), pinned.len(), "{name}: record count");
    for (i, (f, p)) in fresh.iter().zip(pinned).enumerate() {
        for label in ["system", "workload", "machines", "workers"] {
            assert_eq!(f.field(label), p.field(label), "{name}[{i}].{label}");
        }
        for field in COUNT_FIELDS {
            assert_eq!(
                f.field(field),
                p.field(field),
                "{name}[{i}].{field} differs from results/{name}.json"
            );
        }
    }
}

#[test]
fn table2_counts_match_the_committed_record() {
    assert_counts_match("table2", &[], |_| true);
}

#[test]
fn table3_counts_match_the_committed_record() {
    assert_counts_match("table3", &[], |_| true);
}

#[test]
fn fig7_counts_match_the_committed_record() {
    assert_counts_match("fig7", &[], |_| true);
}

#[test]
fn buffer_counts_match_the_committed_record() {
    assert_counts_match("buffer", &[], |_| true);
}

#[test]
fn fig5_counts_at_8_and_52_machines_match_the_committed_record() {
    let at = |p: &str| Value::Num(p.to_string());
    assert_counts_match("fig5", &["--procs=8,52"], |record| {
        [at("8"), at("52")].contains(record.field("machines"))
    });
}

#[test]
fn reader_keeps_counts_as_written() {
    let doc = parse("[\n  {\n    \"a\": [\n      [\n        1,\n        18446744073709551615\n      ],\n      null\n    ],\n    \"b\": \"x \\\"y\\\"\",\n    \"c\": 1.5e-6\n  }\n]");
    let Value::Array(records) = doc else { panic!() };
    let range = Value::Array(vec![
        Value::Num("1".into()),
        Value::Num("18446744073709551615".into()),
    ]);
    assert_eq!(
        records[0].field("a"),
        &Value::Array(vec![range, Value::Null])
    );
    assert_eq!(records[0].field("b"), &Value::Str("x \"y\"".into()));
    assert_eq!(records[0].field("c"), &Value::Num("1.5e-6".into()));
}
