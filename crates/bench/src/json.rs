//! Shared JSON emission for experiment binaries.
//!
//! The machine-readable half of every bench binary: a tiny ordered JSON
//! value type for writing (no external dependency, insertion-ordered
//! objects so diffs are stable), a [`crate::table::Table`] → JSON
//! conversion — a record is its tables, a note and a few named scalars,
//! with no second, numeric copy of a table's cells — and
//! [`record_or_check`], the one way a `BENCH_*.json` record at the repo
//! root is written — or, for the record that is virtual time or seeded
//! training and therefore repeats exactly (`paper`), re-run and compared
//! line by line under `--check`.

use crate::table::Table;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A JSON value with insertion-ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// An integer, rendered without a decimal point.
    Int(i64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience string constructor.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Convenience object constructor from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value as pretty-printed JSON (2-space indent) with one
    /// trailing newline, added here at the top level only.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    item.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push(']');
            }
            Json::Obj(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    out.push_str(&"  ".repeat(indent + 1));
                    write_escaped(out, key);
                    out.push_str(": ");
                    value.write(out, indent + 1);
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent));
                out.push('}');
            }
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<&Table> for Json {
    /// `{title, headers, rows}` with rows as string arrays — the common
    /// shape every figure binary records.
    fn from(t: &Table) -> Json {
        Json::obj(vec![
            ("title", Json::str(t.title())),
            ("headers", Json::Arr(t.headers().iter().map(Json::str).collect())),
            (
                "rows",
                Json::Arr(
                    t.rows().iter().map(|r| Json::Arr(r.iter().map(Json::str).collect())).collect(),
                ),
            ),
        ])
    }
}

/// The repository root, resolved from the bench crate's manifest directory
/// (`crates/bench/../..`).
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..").join("..")
}

/// Whether `fresh` reproduces `recorded`; the error names the first
/// differing line (1-based, or where the shorter text ends) and shows both
/// versions of it.
fn reproduces(recorded: &str, fresh: &str) -> Result<(), String> {
    if recorded == fresh {
        return Ok(());
    }
    let at = fresh.lines().zip(recorded.lines()).take_while(|(a, b)| a == b).count();
    let line = |text: &str| text.lines().nth(at).unwrap_or("<end of file>").to_string();
    let (recorded, measured) = (line(recorded), line(fresh));
    Err(format!(
        "differs from this run at line {}:\n  recorded: {recorded}\n  measured: {measured}",
        at + 1
    ))
}

/// Records `doc` as `BENCH_<name>.json` at the repo root or, with `check`,
/// leaves the file alone and compares this run against it. Prints the
/// outcome — a failed write or, under `check`, the first line at which the
/// checked-in file differs from this run go to stderr — and returns
/// whether it succeeded.
pub fn record_or_check(name: &str, doc: &Json, check: bool) -> bool {
    let path = repo_root().join(format!("BENCH_{name}.json"));
    let fresh = doc.render();
    let outcome = if check {
        let recorded = std::fs::read_to_string(&path).unwrap_or_default();
        reproduces(&recorded, &fresh).map(|()| "reproduces exactly")
    } else {
        std::fs::write(&path, fresh).map(|()| "written").map_err(|e| format!("not written: {e}"))
    };
    match &outcome {
        Ok(how) => println!("{} {how}", path.display()),
        Err(why) => eprintln!("FAIL: {} {why}", path.display()),
    }
    outcome.is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_ordered_object() {
        let v = Json::obj(vec![
            ("b", Json::Int(2)),
            ("a", Json::Int(-1)),
            ("s", Json::str("x\"y")),
            ("arr", Json::Arr(vec![Json::Arr(vec![]), Json::obj(vec![])])),
        ]);
        let s = v.render();
        // Insertion order preserved, not sorted.
        assert!(s.find("\"b\"").unwrap() < s.find("\"a\"").unwrap());
        assert!(s.contains("\"x\\\"y\""));
        assert!(s.contains("\"a\": -1"));
        assert!(s.contains("[]") && s.contains("{}"));
    }

    #[test]
    fn table_round_trips_shape() {
        let mut t = Table::new("T", &["a", "b"]);
        t.row(&["1", "2"]);
        let j = Json::from(&t);
        let s = j.render();
        assert!(s.contains("\"title\": \"T\""));
        assert!(s.contains("\"headers\""));
        assert!(s.contains("\"rows\""));
    }

    #[test]
    fn a_perturbed_record_fails_the_check_and_names_the_line() {
        let doc = Json::obj(vec![("a", Json::Int(1)), ("ms", Json::str("33.799"))]);
        let fresh = doc.render();
        assert_eq!(reproduces(&fresh, &fresh), Ok(()));
        let diff = reproduces(&fresh.replace("33.799", "33.798"), &fresh).unwrap_err();
        assert!(diff.contains("at line 3:"), "{diff}");
        assert!(diff.contains("recorded:   \"ms\": \"33.798\""), "{diff}");
        assert!(diff.contains("measured:   \"ms\": \"33.799\""), "{diff}");
        // A missing or truncated record differs where it ends.
        let diff = reproduces("{\n", &fresh).unwrap_err();
        assert!(diff.contains("at line 2:") && diff.contains("recorded: <end of file>"), "{diff}");
        assert!(!record_or_check("no_such_record", &doc, true), "no record to reproduce");
    }

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
