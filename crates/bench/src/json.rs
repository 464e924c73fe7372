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

/// How many differing lines a failed check names; the rest are counted.
const NAMED_DIFFS: usize = 24;

/// Whether `fresh` reproduces `recorded`; the error names every differing
/// line (1-based, up to [`NAMED_DIFFS`] of them, `<end of file>` where one
/// text is shorter) and shows both versions of each.
fn reproduces(recorded: &str, fresh: &str) -> Result<(), String> {
    if recorded == fresh {
        return Ok(());
    }
    let (recorded, fresh): (Vec<&str>, Vec<&str>) =
        (recorded.lines().collect(), fresh.lines().collect());
    let eof = "<end of file>";
    let differing: Vec<String> = (0..recorded.len().max(fresh.len()))
        .map(|i| (i + 1, recorded.get(i).unwrap_or(&eof), fresh.get(i).unwrap_or(&eof)))
        .filter(|(_, r, m)| r != m)
        .map(|(at, r, m)| format!("\n  line {at}:\n    recorded: {r}\n    measured: {m}"))
        .collect();
    let named = differing[..differing.len().min(NAMED_DIFFS)].concat();
    let more = differing.len().saturating_sub(NAMED_DIFFS);
    let more = if more > 0 { format!("\n  ... and {more} more") } else { String::new() };
    Err(format!(
        "differs from this run at {} line(s) (line ends aside):{named}{more}",
        differing.len()
    ))
}

/// Records `doc` as `BENCH_<name>.json` at the repo root or, with `check`,
/// leaves the file alone and compares this run against it. Prints the
/// outcome — a failed write or, under `check`, the lines at which the
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
    fn a_perturbed_record_fails_the_check_and_names_every_line() {
        let doc = Json::obj(vec![
            ("a", Json::Int(1)),
            ("ms", Json::str("33.799")),
            ("gap", Json::str("-0.539")),
        ]);
        let fresh = doc.render();
        assert_eq!(reproduces(&fresh, &fresh), Ok(()));
        let recorded = fresh.replace("33.799", "33.798").replace("-0.539", "-0.542");
        let diff = reproduces(&recorded, &fresh).unwrap_err();
        assert!(diff.contains("at 2 line(s) (line ends aside):"), "{diff}");
        assert!(diff.contains("line 3:\n    recorded:   \"ms\": \"33.798\""), "{diff}");
        assert!(diff.contains("measured:   \"ms\": \"33.799\""), "{diff}");
        assert!(diff.contains("line 4:\n    recorded:   \"gap\": \"-0.542\""), "{diff}");
        assert!(diff.contains("measured:   \"gap\": \"-0.539\""), "{diff}");
        // A missing or truncated record differs from where it ends.
        let diff = reproduces("{\n", &fresh).unwrap_err();
        assert!(diff.contains("line 2:\n    recorded: <end of file>"), "{diff}");
        assert!(!record_or_check("no_such_record", &doc, true), "no record to reproduce");
    }

    #[test]
    fn a_failed_check_names_a_bounded_number_of_lines() {
        let recorded: String = (0..100).map(|i| format!("{i}\n")).collect();
        let fresh: String = (0..100).map(|i| format!("{}\n", i + 1)).collect();
        let diff = reproduces(&recorded, &fresh).unwrap_err();
        assert!(diff.contains("at 100 line(s) (line ends aside):"), "{diff}");
        assert_eq!(diff.matches("recorded:").count(), NAMED_DIFFS, "{diff}");
        assert!(diff.ends_with(&format!("... and {} more", 100 - NAMED_DIFFS)), "{diff}");
        assert!(reproduces("a\n", "a").unwrap_err().contains("at 0 line(s) (line ends aside):"));
    }

    #[test]
    fn repo_root_contains_workspace_manifest() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
