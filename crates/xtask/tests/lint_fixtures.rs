//! Fixture-driven end-to-end tests of the L001–L008 project lints.
//!
//! Each rule has a violating and a clean fixture under `tests/fixtures/`.
//! Fixtures are read as *content* and linted under a synthetic library-crate
//! path, so their on-disk location (a `tests/` directory, which the walker
//! deliberately skips and the classifier would exempt) doesn't mask them.

use breval_obs::LabelRegistry;
use std::path::Path;
use xtask::lint::lint_source;
use xtask::rules::{check_l006, check_l007, Violation};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

/// Lints a fixture's content as if it were a library crate root.
fn lint_as_lib_root(name: &str) -> Vec<Violation> {
    let registry = LabelRegistry::builtin();
    lint_source(
        Path::new("crates/fixture/src/lib.rs"),
        &fixture(name),
        &registry,
    )
}

fn rules_hit(violations: &[Violation]) -> Vec<&str> {
    let mut rules: Vec<&str> = violations.iter().map(|v| v.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn l001_panicking_calls_flagged_and_clean_passes() {
    let bad = lint_as_lib_root("l001_violate.rs");
    let bad_l001: Vec<_> = bad.iter().filter(|v| v.rule == "L001").collect();
    assert_eq!(
        bad_l001.len(),
        3,
        "unwrap, dynamic expect, empty expect: {bad:?}"
    );
    // L002 also fires (fixtures are linted as crate roots) — that's expected.
    let clean = lint_as_lib_root("l001_clean.rs");
    assert!(
        clean.iter().all(|v| v.rule != "L001"),
        "clean fixture must pass L001: {clean:?}"
    );
}

#[test]
fn l001_waiver_with_reason_suppresses() {
    let waived = lint_as_lib_root("l001_waived.rs");
    assert!(
        waived.iter().all(|v| v.rule != "L001" && v.rule != "L000"),
        "a reasoned waiver must suppress L001: {waived:?}"
    );
}

#[test]
fn l000_reasonless_waiver_is_flagged_and_does_not_waive() {
    let v = lint_as_lib_root("l000_malformed.rs");
    let rules = rules_hit(&v);
    assert!(rules.contains(&"L000"), "malformed pragma: {v:?}");
    assert!(rules.contains(&"L001"), "rule must still fire: {v:?}");
}

#[test]
fn l002_missing_forbid_flagged_and_clean_passes() {
    let bad = lint_as_lib_root("l002_violate.rs");
    assert!(rules_hit(&bad).contains(&"L002"), "{bad:?}");
    let clean = lint_as_lib_root("l002_clean.rs");
    assert!(clean.iter().all(|v| v.rule != "L002"), "{clean:?}");
}

#[test]
fn l003_unregistered_labels_flagged_and_registered_pass() {
    let bad = lint_as_lib_root("l003_violate.rs");
    let bad_l003: Vec<_> = bad.iter().filter(|v| v.rule == "L003").collect();
    assert_eq!(bad_l003.len(), 2, "span + counter: {bad:?}");
    let clean = lint_as_lib_root("l003_clean.rs");
    assert!(clean.iter().all(|v| v.rule != "L003"), "{clean:?}");
}

#[test]
fn l004_adhoc_clocks_flagged_and_obs_usage_passes() {
    let bad = lint_as_lib_root("l004_violate.rs");
    assert!(
        bad.iter().filter(|v| v.rule == "L004").count() >= 2,
        "Instant and SystemTime: {bad:?}"
    );
    let clean = lint_as_lib_root("l004_clean.rs");
    assert!(clean.iter().all(|v| v.rule != "L004"), "{clean:?}");
}

#[test]
fn l005_printing_library_flagged_and_clean_passes() {
    let bad = lint_as_lib_root("l005_violate.rs");
    assert_eq!(
        bad.iter().filter(|v| v.rule == "L005").count(),
        2,
        "println! and eprintln!: {bad:?}"
    );
    let clean = lint_as_lib_root("l005_clean.rs");
    assert!(clean.iter().all(|v| v.rule != "L005"), "{clean:?}");

    // The same content in a binary target is exempt.
    let registry = LabelRegistry::builtin();
    let as_bin = lint_source(
        Path::new("crates/fixture/src/main.rs"),
        &fixture("l005_violate.rs"),
        &registry,
    );
    assert!(as_bin.iter().all(|v| v.rule != "L005"), "{as_bin:?}");
}

#[test]
fn l008_hash_containers_flagged_and_comments_strings_tests_pass() {
    let bad = lint_as_lib_root("l008_violate.rs");
    let lines: Vec<usize> = bad
        .iter()
        .filter(|v| v.rule == "L008")
        .map(|v| v.line)
        .collect();
    assert_eq!(
        lines,
        vec![4, 5, 21],
        "hash_map import, HashMap alias, HashSet iterated off any sink path: {bad:?}"
    );
    let clean = lint_as_lib_root("l008_clean.rs");
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn l006_local_deps_flagged_and_workspace_deps_pass() {
    let bad = check_l006(
        Path::new("crates/fixture/Cargo.toml"),
        &fixture("l006_violate.toml"),
    );
    assert_eq!(
        bad.iter().filter(|v| v.rule == "L006").count(),
        3,
        "version, path and dev-dep pins: {bad:?}"
    );
    let clean = check_l006(
        Path::new("crates/fixture/Cargo.toml"),
        &fixture("l006_clean.toml"),
    );
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn l007_unpinned_actions_flagged_and_exact_pins_pass() {
    let bad = check_l007(
        Path::new(".github/workflows/ci.yml"),
        &fixture("l007_violate.yml"),
    );
    assert_eq!(
        bad.iter().filter(|v| v.rule == "L007").count(),
        5,
        "major tag, branch, no ref, short version, branch: {bad:?}"
    );
    let clean = check_l007(
        Path::new(".github/workflows/ci.yml"),
        &fixture("l007_clean.yml"),
    );
    assert!(clean.is_empty(), "{clean:?}");
}

#[test]
fn lint_paths_flags_violating_fixtures_and_passes_clean_ones() {
    // The CLI path (`cargo run -p xtask -- lint <file>`): violating fixtures
    // must produce violations (exit 1), clean ones none (exit 0).
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf();
    let fixture_rel = |name: &str| {
        Path::new("crates/xtask/tests/fixtures")
            .join(name)
            .to_path_buf()
    };
    let violating = [
        "l000_malformed.rs",
        "l001_violate.rs",
        "l002_violate.rs",
        "l003_violate.rs",
        "l004_violate.rs",
        "l005_violate.rs",
        "l008_violate.rs",
        "l006_violate.toml",
        "l007_violate.yml",
    ];
    for name in violating {
        let v = xtask::lint::lint_paths(&root, &[fixture_rel(name)]).expect("fixture readable");
        assert!(!v.is_empty(), "{name} must produce violations");
    }
    let clean = [
        "l001_clean.rs",
        "l001_waived.rs",
        "l002_clean.rs",
        "l003_clean.rs",
        "l004_clean.rs",
        "l005_clean.rs",
        "l008_clean.rs",
        "l006_clean.toml",
        "l007_clean.yml",
    ];
    for name in clean {
        let v = xtask::lint::lint_paths(&root, &[fixture_rel(name)]).expect("fixture readable");
        assert!(v.is_empty(), "{name} must lint clean: {v:?}");
    }
}

#[test]
fn workspace_lint_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf();
    let violations = xtask::lint::lint_workspace(&root).expect("workspace sources readable");
    assert!(
        violations.is_empty(),
        "the workspace must lint clean; run `cargo run -p xtask -- lint`:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
