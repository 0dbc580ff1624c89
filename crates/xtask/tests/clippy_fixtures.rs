//! The rules rustc and clippy enforce for the workspace — no `unsafe`, no
//! `.unwrap()`, no printing from libraries, no hash containers, no wall
//! clock — checked against their lint fixtures under `tests/fixtures/`.
//!
//! Each fixture compiles as its own library crate in a fixture workspace
//! whose lint table is the `[workspace.lints]` text of the root
//! `Cargo.toml`, read when the test runs, and whose clippy configuration is
//! the root `clippy.toml` itself (`CLIPPY_CONF_DIR`). A `_violate` fixture
//! must report its lint on every listed line; a `_clean` fixture must
//! report nothing, not even an unfulfilled `#[expect]`.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;
use xtask::json::{self, Json};

/// `(fixture, lint, lines it must report)`.
const VIOLATIONS: [(&str, &str, &[u32]); 6] = [
    ("l001_violate", "clippy::unwrap_used", &[3]),
    ("l002_violate", "unsafe_code", &[3]),
    ("l004_violate", "clippy::disallowed_types", &[3, 8, 9, 10]),
    ("l005_violate", "clippy::print_stdout", &[3]),
    ("l005_violate", "clippy::print_stderr", &[4]),
    ("l008_violate", "clippy::disallowed_types", &[4, 5, 21]),
];

/// Fixtures that must compile without a single diagnostic.
const CLEAN: [&str; 5] = [
    "l001_clean",
    "l002_clean",
    "l004_clean",
    "l005_clean",
    "l008_clean",
];

/// The `[workspace.lints.*]` tables of a workspace manifest, verbatim.
fn workspace_lint_tables(manifest: &str) -> String {
    let mut out = String::new();
    let mut inside = false;
    for line in manifest.lines() {
        if line.starts_with('[') {
            inside = line.starts_with("[workspace.lints");
        }
        if inside {
            out.push_str(line);
            out.push('\n');
        }
    }
    out
}

/// Writes the fixture workspace: one member per fixture, each a library
/// crate over the fixture file that inherits the root lint table.
fn write_fixture_workspace(root: &Path, dir: &Path, fixtures: &[&str]) {
    let lints = workspace_lint_tables(
        &std::fs::read_to_string(root.join("Cargo.toml")).expect("root manifest readable"),
    );
    assert!(
        lints.contains("[workspace.lints.rust]") && lints.contains("[workspace.lints.clippy]"),
        "the root manifest must carry both lint tables:\n{lints}"
    );
    let members: Vec<String> = fixtures.iter().map(|f| format!("{f:?}")).collect();
    let manifest = format!(
        "[workspace]\nmembers = [{}]\nresolver = \"2\"\n\n{lints}",
        members.join(", ")
    );
    std::fs::create_dir_all(dir).expect("fixture workspace directory");
    std::fs::write(dir.join("Cargo.toml"), manifest).expect("fixture workspace manifest");
    for fixture in fixtures {
        let src = root.join(format!("crates/xtask/tests/fixtures/{fixture}.rs"));
        let member = format!(
            "[package]\nname = {fixture:?}\nversion = \"0.0.0\"\nedition = \"2021\"\n\
             publish = false\n\n[lib]\npath = {:?}\n\n[dependencies]\n\
             breval-obs = {{ path = {:?} }}\n\n[lints]\nworkspace = true\n",
            src.display().to_string(),
            root.join("crates/obs").display().to_string(),
        );
        std::fs::create_dir_all(dir.join(fixture)).expect("fixture crate directory");
        std::fs::write(dir.join(fixture).join("Cargo.toml"), member).expect("fixture manifest");
    }
}

/// `(fixture, lint, line)` for every diagnostic clippy reports in a
/// fixture file; a diagnostic that names no lint reports as `""`.
fn clippy_findings(root: &Path, dir: &Path) -> BTreeSet<(String, String, u32)> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let output = Command::new(cargo)
        .args(["clippy", "--offline", "--workspace", "--all-targets"])
        .args([
            "--keep-going",
            "--message-format",
            "json",
            "--manifest-path",
        ])
        .arg(dir.join("Cargo.toml"))
        .arg("--target-dir")
        .arg(dir.join("target"))
        .env("CLIPPY_CONF_DIR", root)
        .output()
        .expect("cargo clippy runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut found = BTreeSet::new();
    for line in stdout.lines() {
        let Ok(msg) = json::parse(line) else {
            continue;
        };
        if msg.get("reason").and_then(Json::as_str) != Some("compiler-message") {
            continue;
        }
        let Some(diag) = msg.get("message") else {
            continue;
        };
        let lint = diag
            .get("code")
            .and_then(|c| c.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("");
        let spans = diag.get("spans").and_then(Json::as_arr).unwrap_or(&[]);
        for span in spans {
            let file = span.get("file_name").and_then(Json::as_str).unwrap_or("");
            let Some(fixture) = file.strip_suffix(".rs").and_then(|f| f.rsplit('/').next()) else {
                continue;
            };
            let line = span.get("line_start").and_then(Json::as_f64).unwrap_or(0.0);
            found.insert((fixture.to_owned(), lint.to_owned(), line as u32));
        }
    }
    assert!(
        !found.is_empty(),
        "clippy reported nothing; is it installed?\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    found
}

#[test]
#[ignore = "needs clippy, which the build-and-test CI job does not install; the lint job runs it"]
fn toolchain_rules_fire_on_violating_fixtures_and_clean_ones_pass() {
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask sits two levels below the workspace root")
        .to_path_buf();
    assert!(root.join("clippy.toml").is_file(), "the root clippy.toml");
    let mut fixtures: Vec<&str> = VIOLATIONS.iter().map(|(f, _, _)| *f).collect();
    fixtures.extend(CLEAN);
    fixtures.dedup();
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("clippy_fixtures");
    write_fixture_workspace(&root, &dir, &fixtures);
    let found = clippy_findings(&root, &dir);

    for (fixture, lint, lines) in VIOLATIONS {
        for &line in lines {
            let hit = (fixture.to_owned(), lint.to_owned(), line);
            assert!(
                found.contains(&hit),
                "{fixture}.rs:{line} must report {lint}; clippy reported {found:?}"
            );
        }
    }
    for fixture in CLEAN {
        let reported: Vec<_> = found.iter().filter(|(f, _, _)| f == fixture).collect();
        assert!(
            reported.is_empty(),
            "{fixture}.rs must be clean: {reported:?}"
        );
    }
}
