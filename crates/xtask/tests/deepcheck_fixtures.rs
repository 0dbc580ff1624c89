//! Fixture-driven end-to-end tests of the L009–L011 deepcheck rules.
//!
//! Unlike the token-level lint fixtures (single files), each deepcheck
//! fixture is a miniature *crate* under `fixtures/` — the flow rules reason
//! over a call graph, so every fixture ships a `src/lib.rs` plus a
//! `registry.txt` naming its entry/kernel functions. A violating fixture
//! must produce findings (the CLI exits 1), its clean twin none (exit 0).

use std::path::{Path, PathBuf};
use xtask::resolve::Workspace;
use xtask::rules::Violation;
use xtask::rules_flow::{deepcheck, Registry};

fn fixture_dir(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("fixtures")
        .join(name)
}

fn run_fixture(name: &str) -> Vec<Violation> {
    let dir = fixture_dir(name);
    let ws = Workspace::load_single(&dir)
        .unwrap_or_else(|e| panic!("fixture crate {name} unreadable: {e}"));
    let reg = std::fs::read_to_string(dir.join("registry.txt"))
        .unwrap_or_else(|e| panic!("fixture registry {name} unreadable: {e}"));
    deepcheck(&ws, &Registry::parse(&reg))
}

#[test]
fn l009_panic_sites_reachable_from_entry_fire_and_guarded_twin_passes() {
    let bad = run_fixture("l009_violate");
    let l009: Vec<_> = bad.iter().filter(|v| v.rule == "L009").collect();
    assert_eq!(
        l009.len(),
        2,
        "unwrap in the entry + literal index in the callee: {bad:?}"
    );
    let clean = run_fixture("l009_clean");
    assert!(
        clean.is_empty(),
        "windows indexing and messaged expect must pass: {clean:?}"
    );
}

#[test]
fn l010_kernel_allocations_fire_directly_and_transitively() {
    let bad = run_fixture("l010_violate");
    assert!(
        bad.iter()
            .any(|v| v.rule == "L010" && v.message.contains("push")),
        "direct push in the kernel: {bad:?}"
    );
    assert!(
        bad.iter()
            .any(|v| v.rule == "L010" && v.message.contains("format!")),
        "transitive format! via the callee: {bad:?}"
    );
    let clean = run_fixture("l010_clean");
    assert!(
        clean.is_empty(),
        "allocation-free kernel must pass: {clean:?}"
    );
}

#[test]
fn l011_locking_parallel_closure_fires_and_pure_closure_passes() {
    let bad = run_fixture("l011_violate");
    assert!(
        bad.iter()
            .any(|v| v.rule == "L011" && v.message.contains("lock")),
        "lock inside the parallel closure: {bad:?}"
    );
    let clean = run_fixture("l011_clean");
    assert!(
        clean.is_empty(),
        "pure parallel closure must pass: {clean:?}"
    );
}

#[test]
fn workspace_deepcheck_is_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf();
    let violations = xtask::rules_flow::deepcheck_root(&root).expect("workspace sources readable");
    assert!(
        violations.is_empty(),
        "the workspace must deepcheck clean; run `cargo run -p xtask -- deepcheck`:\n{}",
        violations
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
