//! The JSON documents `exp` writes under `results/`: a value tree and one
//! pretty-printer (two-space indent, one element per line — the layout the
//! committed result files have always had, so a regenerated file diffs
//! against its predecessor line by line).

use pgxd::metrics::json_escape;
use std::fmt::Write;

/// A JSON value. Objects keep their fields in insertion order.
#[derive(Debug)]
pub enum Json {
    /// `null` — an absent value.
    Null,
    /// A non-negative integer, written exactly.
    Uint(u64),
    /// A float, written in Rust's shortest round-trip form; a non-finite
    /// one has no JSON spelling and is written as `null`.
    Float(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object.
    Object(Vec<(&'static str, Json)>),
}

impl Json {
    /// The document as indented text.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Uint(v) => write!(out, "{v}").unwrap(),
            Json::Float(v) if v.is_finite() => write!(out, "{v:?}").unwrap(),
            Json::Float(_) => out.push_str("null"),
            Json::Str(s) => write!(out, "\"{}\"", json_escape(s)).unwrap(),
            Json::Array(items) => write_block(out, depth, ['[', ']'], items, |out, item| {
                item.write(out, depth + 1)
            }),
            Json::Object(fields) => {
                write_block(out, depth, ['{', '}'], fields, |out, (key, value)| {
                    write!(out, "\"{}\": ", json_escape(key)).unwrap();
                    value.write(out, depth + 1)
                })
            }
        }
    }
}

/// `items` between `brackets`, one per line at `depth + 1`; an empty
/// container closes on the same line.
fn write_block<T>(
    out: &mut String,
    depth: usize,
    brackets: [char; 2],
    items: &[T],
    mut write_item: impl FnMut(&mut String, &T),
) {
    out.push(brackets[0]);
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.extend(std::iter::repeat_n("  ", depth + 1));
        write_item(out, item);
    }
    if !items.is_empty() {
        out.push('\n');
        out.extend(std::iter::repeat_n("  ", depth));
    }
    out.push(brackets[1]);
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Uint(v)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Uint(v as u64)
    }
}

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Float(v)
    }
}

impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}

impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Json {
        Json::Array(v.into_iter().map(Into::into).collect())
    }
}

/// A pair is a two-element array (`["local_sort", 0.07]`, `[lo, hi]`).
impl<A: Into<Json>, B: Into<Json>> From<(A, B)> for Json {
    fn from((a, b): (A, B)) -> Json {
        Json::Array(vec![a.into(), b.into()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_and_keys_are_escaped() {
        let doc = Json::Object(vec![("a\"b", "line\nfeed \\ \u{1}".into())]);
        assert_eq!(
            doc.pretty(),
            "{\n  \"a\\\"b\": \"line\\nfeed \\\\ \\u0001\"\n}"
        );
    }

    #[test]
    fn nesting_is_indented_and_balanced() {
        let doc = Json::Object(vec![
            ("empty", Vec::<u64>::new().into()),
            ("pairs", vec![("x", 1u64), ("y", 2)].into()),
            ("inner", Json::Object(vec![("n", 3usize.into())])),
        ]);
        let text = doc.pretty();
        assert_eq!(
            text,
            "{\n  \"empty\": [],\n  \"pairs\": [\n    [\n      \"x\",\n      1\n    ],\n    \
             [\n      \"y\",\n      2\n    ]\n  ],\n  \"inner\": {\n    \"n\": 3\n  }\n}"
        );
        for (open, close) in [('{', '}'), ('[', ']')] {
            assert_eq!(text.matches(open).count(), text.matches(close).count());
        }
    }

    #[test]
    fn absent_range_and_non_finite_float_are_null() {
        let ranges: Vec<Option<(u64, u64)>> = vec![Some((1, 2)), None];
        assert_eq!(
            Json::from(ranges).pretty(),
            "[\n  [\n    1,\n    2\n  ],\n  null\n]"
        );
        assert_eq!(Json::from(f64::NAN).pretty(), "null");
        assert_eq!(Json::from(f64::INFINITY).pretty(), "null");
        assert_eq!(Json::from(3.931e-6).pretty(), "3.931e-6");
        assert_eq!(Json::from(1.0).pretty(), "1.0");
    }
}
