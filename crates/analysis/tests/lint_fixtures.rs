//! Fixture tests: one per banned pattern, proving each rule fires on a
//! minimal offender and stays quiet on comment/string look-alikes, plus the
//! allowlist suppression path and a self-check that the real workspace is
//! clean under the checked-in `analysis.toml`.

use shmcaffe_analysis::{parse_allowlist, rules, scan_file};

/// Scans a fixture as if it lived at `path` inside the workspace.
fn scan_fixture(path: &str, source: &str) -> Vec<rules::Violation> {
    scan_file(path, source)
}

#[test]
fn hash_iteration_fixture_fires() {
    let vs =
        scan_fixture("crates/simnet/src/fixture.rs", include_str!("fixtures/hash_iteration.rs"));
    assert!(
        vs.iter().any(|v| v.rule == rules::RULE_HASH_COLLECTIONS),
        "expected hash-collections, got {vs:#?}"
    );
    assert!(vs.iter().all(|v| v.rule == rules::RULE_HASH_COLLECTIONS));
    // Both the import and the construction site are flagged.
    assert!(vs.len() >= 2);
}

#[test]
fn ambient_time_fixture_fires() {
    let vs = scan_fixture("crates/smb/src/fixture.rs", include_str!("fixtures/ambient_time.rs"));
    assert!(!vs.is_empty());
    assert!(vs.iter().all(|v| v.rule == rules::RULE_AMBIENT_TIME), "{vs:#?}");
}

#[test]
fn ambient_rng_fixture_fires() {
    let vs =
        scan_fixture("crates/shmcaffe/src/fixture.rs", include_str!("fixtures/ambient_rng.rs"));
    assert_eq!(vs.len(), 1, "{vs:#?}");
    assert_eq!(vs[0].rule, rules::RULE_AMBIENT_RNG);
    assert!(vs[0].excerpt.contains("thread_rng"));
}

#[test]
fn float_reduction_fixture_fires() {
    let vs = scan_fixture("crates/dnn/src/fixture.rs", include_str!("fixtures/float_reduction.rs"));
    assert_eq!(vs.len(), 1, "{vs:#?}");
    assert_eq!(vs[0].rule, rules::RULE_FLOAT_REDUCTION);
}

#[test]
fn unsafe_fixture_fires_outside_audited_files() {
    let src = include_str!("fixtures/unsafe_code.rs");
    let vs = scan_fixture("crates/rdma/src/fixture.rs", src);
    assert_eq!(vs.len(), 1, "{vs:#?}");
    assert_eq!(vs[0].rule, rules::RULE_UNSAFE_CODE);
    // The same content inside an audited kernel file is accepted, but the
    // audit is per file: the SMB-side front of the CRC kernel gets none.
    assert!(scan_fixture("crates/tensor/src/simd.rs", src).is_empty());
    assert!(scan_fixture("crates/tensor/src/crc32c.rs", src).is_empty());
    assert_eq!(scan_fixture("crates/smb/src/crc.rs", src).len(), 1);
}

#[test]
fn data_plane_panic_fixture_fires_in_smb_and_rdma_only() {
    let src = include_str!("fixtures/data_plane_panic.rs");
    for path in ["crates/smb/src/fixture.rs", "crates/rdma/src/fixture.rs"] {
        let vs = scan_fixture(path, src);
        assert_eq!(vs.len(), 2, "{path}: {vs:#?}");
        assert!(vs.iter().all(|v| v.rule == rules::RULE_DATA_PLANE_PANIC));
        assert!(vs.iter().any(|v| v.excerpt.contains(".unwrap()")));
        assert!(vs.iter().any(|v| v.excerpt.contains(".expect(")));
    }
    // The same content outside the data plane, or in a data-plane crate's
    // integration-test tree, is out of scope.
    assert!(scan_fixture("crates/shmcaffe/src/fixture.rs", src).is_empty());
    assert!(scan_fixture("crates/smb/tests/fixture.rs", src).is_empty());
}

#[test]
fn blocking_primitive_fixture_fires_outside_the_scheduler() {
    let src = include_str!("fixtures/blocking_primitive.rs");
    let vs = scan_fixture("crates/simnet/src/fixture.rs", src);
    assert!(vs.len() >= 5, "{vs:#?}");
    assert!(vs.iter().all(|v| v.rule == rules::RULE_BLOCKING_PRIMITIVE), "{vs:#?}");
    // The comment/string look-alikes at the bottom of the fixture stay quiet.
    assert!(vs.iter().all(|v| !v.excerpt.contains("DOC")), "{vs:#?}");
    // The scheduler implementation itself is the one audited exemption…
    assert!(scan_fixture("crates/simnet/src/sched.rs", src).is_empty());
    // …the DNN substrate runs inside simulated processes, so it is in scope…
    assert_eq!(scan_fixture("crates/dnn/src/fixture.rs", src).len(), vs.len());
    // …and crates off the cooperative core plus test trees may park threads.
    assert!(scan_fixture("crates/tensor/src/fixture.rs", src).is_empty());
    assert!(scan_fixture("crates/smb/tests/fixture.rs", src).is_empty());
}

#[test]
fn clean_fixture_stays_clean() {
    let vs =
        scan_fixture("crates/simnet/src/fixture.rs", include_str!("fixtures/clean_comments.rs"));
    assert!(vs.is_empty(), "false positives: {vs:#?}");
}

#[test]
fn bench_crate_is_exempt_from_ambient_rules() {
    let vs = scan_fixture("crates/bench/src/fixture.rs", include_str!("fixtures/ambient_time.rs"));
    assert!(vs.is_empty(), "{vs:#?}");
}

#[test]
fn suppression_requires_matching_entry_with_justification() {
    let vs = scan_fixture("crates/dnn/src/fixture.rs", include_str!("fixtures/float_reduction.rs"));
    let entries = parse_allowlist(
        r#"
[[allow]]
rule = "float-reduction"
path = "crates/dnn/src/fixture.rs"
contains = ".sum::<f32>()"
justification = "fixture: mean over a fixed-order slice"
"#,
    )
    .unwrap();
    let (rest, used) = shmcaffe_analysis::allowlist::apply(vs.clone(), &entries);
    assert!(rest.is_empty());
    assert_eq!(used, vec![true]);

    // A justification-free entry is rejected at parse time.
    let err = parse_allowlist(
        "[[allow]]\nrule = \"float-reduction\"\npath = \"crates/dnn/src/fixture.rs\"\n",
    )
    .unwrap_err();
    assert!(err.contains("justification"), "{err}");

    // An entry for a different path does not suppress.
    let entries = parse_allowlist(
        r#"
[[allow]]
rule = "float-reduction"
path = "crates/dnn/src/other.rs"
justification = "elsewhere"
"#,
    )
    .unwrap();
    let (rest, used) = shmcaffe_analysis::allowlist::apply(vs, &entries);
    assert_eq!(rest.len(), 1);
    assert_eq!(used, vec![false]);
}

/// The real workspace, under the checked-in allowlist, is clean — and every
/// allowlist entry is actually in use.
#[test]
fn workspace_is_clean_under_checked_in_allowlist() {
    let root =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap();
    let report = shmcaffe_analysis::run(&root).unwrap();
    assert!(
        report.is_clean(),
        "violations: {:#?}\nallow errors: {:#?}",
        report.violations,
        report.allow_errors
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale allowlist entries: {:#?}",
        report.unused_allows
    );
    assert!(!report.used_allows.is_empty(), "expected the allowlist to be exercised");
}
