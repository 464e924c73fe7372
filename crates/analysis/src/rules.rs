//! The determinism lint rules.
//!
//! Every rule is lexical (it runs on comment/string-stripped source, see
//! [`crate::scanner`]) and scoped by workspace-relative path. The rules and
//! their rationale are documented in DESIGN.md § Enforced invariants; the
//! allowlist policy lives in `analysis.toml` at the workspace root.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::scanner::{strip_non_code, tokens, TokenKind};

/// One rule violation at a specific source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule identifier (e.g. `hash-collections`).
    pub rule: &'static str,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub excerpt: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.path, self.line, self.rule, self.excerpt)
    }
}

/// Rule: no `HashMap`/`HashSet` in simulation or data-plane crates.
/// Iteration order of hashed collections depends on the hasher's random
/// seed, which silently breaks run-to-run determinism.
pub const RULE_HASH_COLLECTIONS: &str = "hash-collections";
/// Rule: no ambient wall-clock time sources outside the bench crate.
pub const RULE_AMBIENT_TIME: &str = "ambient-time";
/// Rule: no ambient (OS-seeded) randomness outside the bench crate.
pub const RULE_AMBIENT_RNG: &str = "ambient-rng";
/// Rule: float reductions must go through the fixed-order helpers in
/// `shmcaffe-tensor`, not ad-hoc `.sum::<f32>()` folds whose grouping an
/// iterator refactor can change.
pub const RULE_FLOAT_REDUCTION: &str = "float-reduction";
/// Rule: `unsafe` appears only in the audited tensor hot paths (and the
/// counting allocator of the allocation-free steady-state test).
pub const RULE_UNSAFE_CODE: &str = "unsafe-code";
/// Rule: every crate root carries the workspace unsafe policy attribute.
pub const RULE_UNSAFE_POLICY: &str = "unsafe-policy";
/// Rule: no `.unwrap()`/`.expect(` in the `smb`/`rdma` data plane. These
/// crates sit under fault injection — partitions, fencing rejections, and
/// crashes are *expected* there, and a panic turns a recoverable fault
/// into a dead worker. Errors must flow through `SmbError`/`RdmaError`.
/// Test modules (everything at and below the first `#[cfg(test)]`) are
/// exempt: a test asserting on a live segment may unwrap.
pub const RULE_DATA_PLANE_PANIC: &str = "data-plane-panic";
/// Rule: no OS *waiting* primitives (`Condvar`, `Barrier`,
/// `std::sync::mpsc`, `thread::park`/`park_timeout`, `crossbeam` channels)
/// in the cooperative simulation crates. Every proc runs on a real thread
/// the virtual-time scheduler parks and wakes one at a time; a proc that
/// waits on an OS primitive instead of the scheduler stalls virtual time
/// for the whole simulation and is invisible to the schedule explorer's
/// choice points. Plain `parking_lot::Mutex` around short critical sections
/// stays legal — it never waits across a scheduler step. The one audited
/// exemption is `crates/simnet/src/sched.rs` itself, which implements the
/// scheduler on a parking-lot condvar.
pub const RULE_BLOCKING_PRIMITIVE: &str = "blocking-primitive";

/// All content rule identifiers, for allowlist validation.
pub const ALL_RULES: &[&str] = &[
    RULE_HASH_COLLECTIONS,
    RULE_AMBIENT_TIME,
    RULE_AMBIENT_RNG,
    RULE_FLOAT_REDUCTION,
    RULE_UNSAFE_CODE,
    RULE_UNSAFE_POLICY,
    RULE_DATA_PLANE_PANIC,
    RULE_BLOCKING_PRIMITIVE,
];

/// The bench crate measures real hardware: wall clocks, OS entropy and
/// hashed scratch maps are its business.
const BENCH_PREFIX: &str = "crates/bench/";

/// Files allowed to contain `unsafe`: the one wide-lane dispatch (the
/// runtime-detected call into the AVX2 recompilation of the safe gemm,
/// convolution and max-pool kernel bodies), the worker pool's scoped-task
/// transmute and `SliceParts` disjoint-range writer (documented and
/// Miri-covered, scripts/miri.sh), the runtime-detected call into the
/// SSE4.2 CRC32C kernel, and the counting `#[global_allocator]` the
/// allocation-free steady-state test installs.
const UNSAFE_ALLOWED_FILES: &[&str] = &[
    "crates/tensor/src/simd.rs",
    "crates/tensor/src/parallel.rs",
    "crates/tensor/src/crc32c.rs",
    "crates/tensor/tests/alloc_free.rs",
];

/// Rules that match by identifier-token equality. The lexer guarantees a
/// match is a real identifier: substrings of longer names, lifetimes
/// (`'Instant`), comment and string bodies never fire, and raw identifiers
/// (`r#HashMap`) still do.
const IDENT_RULES: &[&str] = &[
    RULE_HASH_COLLECTIONS,
    RULE_AMBIENT_TIME,
    RULE_AMBIENT_RNG,
    RULE_UNSAFE_CODE,
    RULE_BLOCKING_PRIMITIVE,
];

fn banned_idents(rule: &'static str) -> &'static [&'static str] {
    match rule {
        RULE_HASH_COLLECTIONS => &["HashMap", "HashSet"],
        RULE_AMBIENT_TIME => &["Instant", "SystemTime", "UNIX_EPOCH", "chrono"],
        RULE_AMBIENT_RNG => &["thread_rng", "from_entropy", "OsRng"],
        RULE_UNSAFE_CODE => &["unsafe"],
        RULE_BLOCKING_PRIMITIVE => {
            &["Condvar", "Barrier", "mpsc", "park", "park_timeout", "crossbeam"]
        }
        _ => &[],
    }
}

/// `src/` trees of the cooperative simulation crates: everything that runs
/// procs on the virtual-time scheduler and must never block on the OS.
/// `dnn` and `models` are in it because `RealTrainer` runs their
/// forward/backward inside simulated processes.
const BLOCKING_SCOPE: &[&str] = &[
    "crates/simnet/src/",
    "crates/smb/src/",
    "crates/rdma/src/",
    "crates/shmcaffe/src/",
    "crates/mpi/src/",
    "crates/collectives/src/",
    "crates/dnn/src/",
    "crates/models/src/",
];

/// The scheduler implementation itself: the one place real threads park.
const BLOCKING_EXEMPT_FILE: &str = "crates/simnet/src/sched.rs";

/// Substring needles for the float-reduction rule (turbofished reductions
/// over float iterators; integer reductions are exact and exempt).
const FLOAT_REDUCTIONS: &[&str] =
    &[".sum::<f32>()", ".sum::<f64>()", ".product::<f32>()", ".product::<f64>()"];

/// Substring needles for the data-plane-panic rule. `.unwrap()` is exact
/// (so `.unwrap_or(..)` and friends stay legal); `.expect(` catches every
/// message variant without matching `.expect_err(`.
const DATA_PLANE_PANICS: &[&str] = &[".unwrap()", ".expect("];

/// Crates whose `src/` trees form the fault-injected data plane.
const DATA_PLANE_PREFIXES: &[&str] = &["crates/smb/src/", "crates/rdma/src/"];

fn rule_applies(rule: &'static str, path: &str) -> bool {
    if path.starts_with(BENCH_PREFIX) {
        // Only the unsafe policy reaches into bench.
        return rule == RULE_UNSAFE_CODE || rule == RULE_UNSAFE_POLICY;
    }
    match rule {
        // The tensor crate hosts the fixed-order reduction helpers the rest
        // of the workspace is required to call.
        RULE_FLOAT_REDUCTION => !path.starts_with("crates/tensor/"),
        RULE_BLOCKING_PRIMITIVE => {
            BLOCKING_SCOPE.iter().any(|p| path.starts_with(p)) && path != BLOCKING_EXEMPT_FILE
        }
        _ => true,
    }
}

/// Scans one file's contents. `path` must be workspace-relative with
/// forward slashes; it selects which rules apply.
pub fn scan_file(path: &str, source: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let code = strip_non_code(source);
    let original_lines: Vec<&str> = source.lines().collect();
    let excerpt = |lineno: usize| -> String {
        original_lines.get(lineno - 1).map(|l| l.trim().to_string()).unwrap_or_default()
    };

    // The data-plane-panic rule stops at the first `#[cfg(test)]`: this
    // workspace keeps test modules at the bottom of each source file, so
    // everything from that attribute on is test code.
    let data_plane = DATA_PLANE_PREFIXES.iter().any(|p| path.starts_with(p));
    let first_test_line =
        code.lines().position(|l| l.contains("#[cfg(test)]")).map_or(usize::MAX, |idx| idx + 1);

    // Token pass: the identifier-equality rules, at most one violation per
    // (rule, line).
    let mut flagged: Vec<(&'static str, usize)> = Vec::new();
    for tok in tokens(source) {
        if tok.kind != TokenKind::Ident {
            continue;
        }
        for &rule in IDENT_RULES {
            if !rule_applies(rule, path) {
                continue;
            }
            if rule == RULE_UNSAFE_CODE && UNSAFE_ALLOWED_FILES.contains(&path) {
                continue;
            }
            if banned_idents(rule).contains(&tok.text.as_str())
                && !flagged.contains(&(rule, tok.line))
            {
                flagged.push((rule, tok.line));
                out.push(Violation {
                    rule,
                    path: path.to_string(),
                    line: tok.line,
                    excerpt: excerpt(tok.line),
                });
            }
        }
    }

    // Line pass: the multi-token substring rules, over comment/string
    // stripped source so look-alikes in prose never fire.
    for (idx, line) in code.lines().enumerate() {
        let lineno = idx + 1;
        if data_plane
            && lineno < first_test_line
            && DATA_PLANE_PANICS.iter().any(|pat| line.contains(pat))
        {
            out.push(Violation {
                rule: RULE_DATA_PLANE_PANIC,
                path: path.to_string(),
                line: lineno,
                excerpt: excerpt(lineno),
            });
        }
        if rule_applies(RULE_FLOAT_REDUCTION, path)
            && FLOAT_REDUCTIONS.iter().any(|pat| line.contains(pat))
        {
            out.push(Violation {
                rule: RULE_FLOAT_REDUCTION,
                path: path.to_string(),
                line: lineno,
                excerpt: excerpt(lineno),
            });
        }
    }

    if let Some(v) = check_unsafe_policy(path, &code) {
        out.push(v);
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

/// Crate roots must carry the workspace unsafe policy: `forbid(unsafe_code)`
/// everywhere, except `shmcaffe-tensor` which keeps `deny(unsafe_code)` so
/// its two audited sites can opt back in with per-site `allow`.
fn check_unsafe_policy(path: &str, code: &str) -> Option<Violation> {
    let is_crate_root = path == "src/lib.rs"
        || (path.starts_with("crates/")
            && path.ends_with("/src/lib.rs")
            && path.matches('/').count() == 3);
    if !is_crate_root {
        return None;
    }
    let required = if path == "crates/tensor/src/lib.rs" {
        "#![deny(unsafe_code)]"
    } else {
        "#![forbid(unsafe_code)]"
    };
    if code.contains(required) {
        return None;
    }
    Some(Violation {
        rule: RULE_UNSAFE_POLICY,
        path: path.to_string(),
        line: 1,
        excerpt: format!("crate root is missing `{required}`"),
    })
}

/// Directories never scanned: build output, VCS metadata, and lint fixture
/// corpora (which contain violations on purpose).
const SKIP_DIRS: &[&str] = &["target", "fixtures"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> =
        fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name) {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans every `.rs` file under `root` (the workspace root), in a
/// deterministic path order.
///
/// # Errors
///
/// Propagates filesystem errors from the directory walk or file reads.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    walk(root, &mut files)?;
    let mut out = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        let source = fs::read_to_string(&file)?;
        out.extend(scan_file(&rel, &source));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_map_in_sim_crate_fires() {
        let vs = scan_file("crates/simnet/src/x.rs", "use std::collections::HashMap;\n");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_HASH_COLLECTIONS);
        assert_eq!(vs[0].line, 1);
    }

    #[test]
    fn hash_map_in_bench_is_exempt() {
        let vs = scan_file("crates/bench/src/x.rs", "use std::collections::HashMap;\n");
        assert!(vs.is_empty());
    }

    #[test]
    fn hash_map_in_comment_is_ignored() {
        let vs = scan_file("crates/simnet/src/x.rs", "// BTreeMap, not HashMap: ordering\n");
        assert!(vs.is_empty());
    }

    #[test]
    fn instant_word_boundary() {
        assert!(scan_file("crates/simnet/src/x.rs", "/// Instantiates the fabric.\nfn f() {}\n")
            .is_empty());
        let vs = scan_file("crates/simnet/src/x.rs", "let t = std::time::Instant::now();\n");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_AMBIENT_TIME);
    }

    #[test]
    fn unsafe_allowed_only_in_audited_files() {
        let src = "unsafe { core::hint::unreachable_unchecked() }\n";
        assert!(scan_file("crates/tensor/src/simd.rs", src).is_empty());
        assert!(scan_file("crates/tensor/src/parallel.rs", src).is_empty());
        assert!(scan_file("crates/tensor/src/crc32c.rs", src).is_empty());
        assert!(scan_file("crates/tensor/tests/alloc_free.rs", src).is_empty());
        for kernel_file in ["crates/tensor/src/ops.rs", "crates/tensor/src/gemm.rs"] {
            let vs = scan_file(kernel_file, src);
            assert_eq!(vs.len(), 1);
            assert_eq!(vs[0].rule, RULE_UNSAFE_CODE);
        }
    }

    #[test]
    fn forbid_attribute_does_not_trip_unsafe_rule() {
        let vs: Vec<_> = scan_file("crates/smb/src/lib.rs", "#![forbid(unsafe_code)]\n")
            .into_iter()
            .filter(|v| v.rule == RULE_UNSAFE_CODE)
            .collect();
        assert!(vs.is_empty());
    }

    #[test]
    fn float_reduction_fires_outside_tensor() {
        let src = "let m = xs.iter().sum::<f32>() / n;\n";
        let vs = scan_file("crates/dnn/src/x.rs", src);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_FLOAT_REDUCTION);
        assert!(scan_file("crates/tensor/src/x.rs", src).is_empty());
    }

    #[test]
    fn integer_sum_is_fine() {
        assert!(scan_file("crates/dnn/src/x.rs", "let n = xs.iter().sum::<u64>();\n").is_empty());
    }

    #[test]
    fn unwrap_in_data_plane_fires() {
        let vs = scan_file("crates/smb/src/x.rs", "let v = map.get(&k).unwrap();\n");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_DATA_PLANE_PANIC);
        let vs = scan_file("crates/rdma/src/x.rs", "let mr = regions.get(&k).expect(\"mr\");\n");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_DATA_PLANE_PANIC);
        // Fallible combinators and expect_err stay legal.
        assert!(scan_file("crates/smb/src/x.rs", "let v = m.get(&k).unwrap_or(0);\n").is_empty());
        assert!(scan_file("crates/smb/src/x.rs", "let e = r.expect_err(\"no\");\n").is_empty());
        // Comment and string look-alikes do not fire.
        assert!(scan_file("crates/smb/src/x.rs", "// never .unwrap() here\n").is_empty());
    }

    #[test]
    fn unwrap_below_cfg_test_or_outside_data_plane_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { r().unwrap(); }\n}\n";
        assert!(scan_file("crates/smb/src/x.rs", src).is_empty());
        // Other crates and the data-plane crates' test trees are out of scope.
        assert!(scan_file("crates/dnn/src/x.rs", "x.unwrap();\n").is_empty());
        assert!(scan_file("crates/smb/tests/x.rs", "x.unwrap();\n").is_empty());
        // Code *above* the test module is still checked.
        let above = "fn f() { r().unwrap(); }\n#[cfg(test)]\nmod tests {}\n";
        let vs = scan_file("crates/smb/src/x.rs", above);
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].line, 1);
    }

    #[test]
    fn blocking_primitives_banned_outside_the_scheduler() {
        let src = "use std::sync::mpsc;\nlet b = Barrier::new(2);\nstd::thread::park();\n";
        let vs = scan_file("crates/smb/src/x.rs", src);
        assert_eq!(vs.len(), 3, "{vs:#?}");
        assert!(vs.iter().all(|v| v.rule == RULE_BLOCKING_PRIMITIVE));
        assert_eq!(vs.iter().map(|v| v.line).collect::<Vec<_>>(), vec![1, 2, 3]);
        // The scheduler itself is the audited exemption…
        assert!(scan_file("crates/simnet/src/sched.rs", "use parking_lot::Condvar;\n").is_empty());
        // The DNN substrate runs inside simulated processes, so it is in
        // scope too…
        assert_eq!(scan_file("crates/dnn/src/x.rs", src).len(), 3);
        assert_eq!(scan_file("crates/models/src/x.rs", src).len(), 3);
        // …while tensor's worker pool and test trees may park real threads.
        assert!(scan_file("crates/tensor/src/x.rs", src).is_empty());
        assert!(scan_file("crates/simnet/tests/x.rs", src).is_empty());
    }

    #[test]
    fn lifetimes_do_not_trip_ident_rules() {
        // `'Instant` is a lifetime, not a use of std::time::Instant — the
        // old substring matcher saw a word boundary at the quote and fired.
        let src = "fn f<'Instant>(x: &'Instant str) -> &'Instant str { x }\n";
        assert!(scan_file("crates/simnet/src/x.rs", src).is_empty());
    }

    #[test]
    fn raw_identifiers_do_trip_ident_rules() {
        // `r#HashMap` IS the identifier HashMap.
        let vs = scan_file("crates/simnet/src/x.rs", "use ext::r#HashMap;\n");
        assert_eq!(vs.len(), 1, "{vs:#?}");
        assert_eq!(vs[0].rule, RULE_HASH_COLLECTIONS);
        // …while an unrelated raw identifier stays quiet.
        assert!(scan_file("crates/simnet/src/x.rs", "let r#type = 1;\n").is_empty());
    }

    #[test]
    fn one_violation_per_rule_per_line() {
        let vs = scan_file("crates/simnet/src/x.rs", "use std::sync::{Barrier, Condvar};\n");
        assert_eq!(vs.len(), 1, "{vs:#?}");
        assert_eq!(vs[0].rule, RULE_BLOCKING_PRIMITIVE);
    }

    #[test]
    fn crate_root_policy_enforced() {
        let vs = scan_file("crates/mpi/src/lib.rs", "pub fn f() {}\n");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].rule, RULE_UNSAFE_POLICY);
        assert!(scan_file("crates/mpi/src/lib.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n")
            .is_empty());
        // Tensor wants deny, not forbid.
        let vs = scan_file("crates/tensor/src/lib.rs", "#![forbid(unsafe_code)]\n");
        assert_eq!(vs.len(), 1);
        assert!(scan_file("crates/tensor/src/lib.rs", "#![deny(unsafe_code)]\n").is_empty());
        // Non-root files carry no such requirement.
        assert!(scan_file("crates/mpi/src/world.rs", "pub fn f() {}\n").is_empty());
    }
}
