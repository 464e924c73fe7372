//! Shared JSON emission for experiment binaries.
//!
//! The machine-readable half of every bench binary: a tiny ordered JSON
//! value type (no external dependency, insertion-ordered objects so diffs
//! are stable), a [`crate::table::Table`] → JSON conversion, and
//! [`record_or_check`], the one way a `BENCH_*.json` record at the repo
//! root is written — or, for the records that are virtual time or seeded
//! training and therefore repeat exactly (`paper`, `fault_sweep`,
//! `exchange_bench`), re-run and compared line by line under `--check`.

use crate::table::Table;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// A JSON value with insertion-ordered object keys.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number (rendered with up to 6 significant decimals) —
    /// non-finite values render as `null`.
    Num(f64),
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

    /// Renders the value as pretty-printed JSON (2-space indent, trailing
    /// newline at the top level only via [`render`]).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    /// Sets `key` of an object to `value`, in place if the key exists and
    /// appended otherwise; a non-object becomes a one-key object.
    pub fn set(&mut self, key: &str, value: Json) {
        if !matches!(self, Json::Obj(_)) {
            *self = Json::Obj(Vec::new());
        }
        let Json::Obj(pairs) = self else { unreachable!("just made an object") };
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some((_, slot)) => *slot = value,
            None => pairs.push((key.to_string(), value)),
        }
    }

    /// Parses a JSON document (what [`Json::render`] writes, and standard
    /// JSON generally; `\u` escapes outside the BMP are not combined).
    ///
    /// # Errors
    ///
    /// Returns the byte offset and a reason if `text` is not one JSON value.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.fail("trailing characters"));
        }
        Ok(value)
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => {
                if v.is_finite() {
                    // Trim trailing zeros but keep at least one decimal so
                    // numbers round-trip as floats.
                    let s = format!("{v:.6}");
                    let s = s.trim_end_matches('0');
                    let s = s.strip_suffix('.').unwrap_or(s);
                    out.push_str(if s.is_empty() { "0" } else { s });
                } else {
                    out.push_str("null");
                }
            }
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, why: &str) -> String {
        format!("JSON parse error at byte {}: {why}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    /// Consumes `token` if it is next (after whitespace).
    fn eat(&mut self, token: &str) -> bool {
        self.skip_ws();
        let hit = self.bytes[self.pos..].starts_with(token.as_bytes());
        if hit {
            self.pos += token.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        if self.eat("null") {
            Ok(Json::Null)
        } else if self.eat("true") {
            Ok(Json::Bool(true))
        } else if self.eat("false") {
            Ok(Json::Bool(false))
        } else if self.eat("[") {
            let mut items = Vec::new();
            if !self.eat("]") {
                loop {
                    items.push(self.value()?);
                    if self.eat("]") {
                        break;
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected ',' or ']'"));
                    }
                }
            }
            Ok(Json::Arr(items))
        } else if self.eat("{") {
            let mut pairs = Vec::new();
            if !self.eat("}") {
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    if !self.eat(":") {
                        return Err(self.fail("expected ':'"));
                    }
                    pairs.push((key, self.value()?));
                    if self.eat("}") {
                        break;
                    }
                    if !self.eat(",") {
                        return Err(self.fail("expected ',' or '}'"));
                    }
                }
            }
            Ok(Json::Obj(pairs))
        } else if self.bytes.get(self.pos) == Some(&b'"') {
            self.string().map(Json::Str)
        } else {
            self.number()
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|b| b"+-.eE0123456789".contains(b)) {
            self.pos += 1;
        }
        let token = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII digits");
        if let Ok(v) = token.parse::<i64>() {
            return Ok(Json::Int(v));
        }
        token.parse::<f64>().map(Json::Num).map_err(|_| self.fail("expected a value"))
    }

    fn string(&mut self) -> Result<String, String> {
        if self.bytes.get(self.pos) != Some(&b'"') {
            return Err(self.fail("expected '\"'"));
        }
        self.pos += 1;
        let mut out = Vec::new();
        loop {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(self.fail("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => break,
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err(self.fail("unterminated escape"));
                    };
                    self.pos += 1;
                    let c = match esc {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = self.bytes.get(self.pos..self.pos + 4);
                            let code = hex
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or_else(|| self.fail("bad \\u escape"))?;
                            self.pos += 4;
                            code
                        }
                        other => other as char, // '"', '\\', '/'
                    };
                    out.extend_from_slice(c.encode_utf8(&mut [0; 4]).as_bytes());
                }
                b => out.push(b),
            }
        }
        String::from_utf8(out).map_err(|_| self.fail("string is not UTF-8"))
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
pub fn repo_root() -> PathBuf {
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
            ("a", Json::Num(1.5)),
            ("s", Json::str("x\"y")),
            ("arr", Json::Arr(vec![Json::Bool(true), Json::Null])),
        ]);
        let s = v.render();
        // Insertion order preserved, not sorted.
        assert!(s.find("\"b\"").unwrap() < s.find("\"a\"").unwrap());
        assert!(s.contains("\"x\\\"y\""));
        assert!(s.contains("1.5"));
        assert!(s.contains("null"));
    }

    #[test]
    fn parse_round_trips_render_and_set_replaces_in_place() {
        let mut v = Json::obj(vec![
            ("n", Json::Int(-3)),
            ("x", Json::Num(0.125)),
            ("s", Json::str("a\"b\\c\n\u{1}é")),
            ("arr", Json::Arr(vec![Json::Bool(false), Json::Null, Json::Arr(vec![])])),
            ("o", Json::obj(vec![])),
        ]);
        assert_eq!(Json::parse(&v.render()).unwrap(), v);
        v.set("x", Json::Int(7));
        v.set("new", Json::Null);
        let Json::Obj(pairs) = &v else { panic!("object") };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["n", "x", "s", "arr", "o", "new"]);
        assert_eq!(pairs[1].1, Json::Int(7));
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "1 2", "\"open", "nul"] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
    }

    #[test]
    fn numbers_trim_trailing_zeros() {
        assert_eq!(Json::Num(2.0).render().trim(), "2");
        assert_eq!(Json::Num(0.25).render().trim(), "0.25");
        assert_eq!(Json::Num(f64::NAN).render().trim(), "null");
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
        let doc = Json::obj(vec![("a", Json::Int(1)), ("ms", Json::Num(33.799))]);
        let fresh = doc.render();
        assert_eq!(reproduces(&fresh, &fresh), Ok(()));
        let diff = reproduces(&fresh.replace("33.799", "33.798"), &fresh).unwrap_err();
        assert!(diff.contains("at line 3:"), "{diff}");
        assert!(diff.contains("recorded:   \"ms\": 33.798"), "{diff}");
        assert!(diff.contains("measured:   \"ms\": 33.799"), "{diff}");
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
