//! Command-line driver:
//! `cargo run -p xtask -- <lint|deepcheck|sanitize|obsreport>`.
//!
//! * `lint [--format json] [files…]` — run the project lints no compiler
//!   lint covers (L000–L003, L006, L007; see `xtask::rules`) over the whole
//!   workspace (default) or an explicit file list; exit 1 on any violation.
//!   rustc and clippy enforce the rest from the workspace lint table.
//! * `deepcheck [--format json]` — run the flow-aware L009–L011 rules over
//!   the workspace call graph (see `xtask::rules_flow`); exit 1 on any
//!   violation.
//! * `sanitize [--seed N]` — run a small end-to-end scenario and check every
//!   domain invariant in `breval_core::sanitize`, then cross-check the
//!   persisted `results/*.json` observability manifests against the label
//!   registry; exit 1 on any violation.
//! * `obsreport [--file P]` — render a run manifest (default:
//!   `results/run_manifest.json` under the workspace root) as a
//!   self-time-sorted flame summary plus a pool-utilisation table.

#![expect(
    clippy::print_stdout,
    clippy::print_stderr,
    reason = "the binary prints its reports to stdout and its errors to stderr"
)]

use breval_core::pipeline::{Scenario, ScenarioConfig};
use breval_obs::LabelRegistry;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use xtask::json::Json;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => run_lint(&args[1..]),
        Some("deepcheck") => run_deepcheck(&args[1..]),
        Some("sanitize") => run_sanitize(&args[1..]),
        Some("obsreport") => run_obsreport(&args[1..]),
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- <lint [--format json] [files…] \
                 | deepcheck [--format json] | sanitize [--seed N] \
                 | obsreport [--file P]>"
            );
            ExitCode::from(2)
        }
    }
}

/// The workspace root: two levels above this crate's manifest directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

fn run_lint(args: &[String]) -> ExitCode {
    let (fmt, files) = xtask::report::Format::extract(args);
    let root = workspace_root();
    let result = if files.is_empty() {
        xtask::lint::lint_workspace(&root)
    } else {
        let paths: Vec<PathBuf> = files.iter().map(PathBuf::from).collect();
        xtask::lint::lint_paths(&root, &paths)
    };
    let violations = match result {
        Ok(v) => v,
        Err(e) => {
            eprintln!("lint: io error: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", xtask::report::render("lint", &violations, fmt));
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_deepcheck(args: &[String]) -> ExitCode {
    let (fmt, _) = xtask::report::Format::extract(args);
    let violations = match xtask::rules_flow::deepcheck_root(&workspace_root()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("deepcheck: io error: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", xtask::report::render("deepcheck", &violations, fmt));
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_sanitize(args: &[String]) -> ExitCode {
    let seed = parse_seed(args).unwrap_or(42);
    println!("sanitize: running small scenario (seed {seed})…");
    breval_obs::set_enabled(true);
    let scenario = Scenario::run(ScenarioConfig::small(seed));
    let report = breval_core::sanitize::sanitize_scenario(&scenario);
    print!("{}", report.render());

    let mut label_errors = check_live_labels(seed);
    label_errors.extend(check_manifest_labels(&workspace_root().join("results")));
    let mut failed = !report.is_clean();
    if !label_errors.is_empty() {
        failed = true;
        label_errors.truncate(20);
        for e in &label_errors {
            println!("VIOLATION [obs_label] {e}");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("sanitize: ok");
        ExitCode::SUCCESS
    }
}

fn parse_seed(args: &[String]) -> Option<u64> {
    flag_value(args, "--seed")?.parse().ok()
}

/// The operand following `flag`, if both are present.
fn flag_value<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    let pos = args.iter().position(|a| a == flag)?;
    args.get(pos + 1).map(String::as_str)
}

/// Reads and parses one JSON document, reporting failures on stderr.
fn load_json(path: &Path) -> Result<Json, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {}: {e}", path.display());
        ExitCode::from(2)
    })?;
    xtask::json::parse(&text).map_err(|e| {
        eprintln!("{}: invalid JSON: {e}", path.display());
        ExitCode::from(2)
    })
}

fn run_obsreport(args: &[String]) -> ExitCode {
    let path = flag_value(args, "--file")
        .map(PathBuf::from)
        .unwrap_or_else(|| workspace_root().join("results/run_manifest.json"));
    match load_json(&path) {
        Ok(doc) => {
            print!("{}", xtask::obsreport::render(&doc));
            ExitCode::SUCCESS
        }
        Err(code) => code,
    }
}

/// Validates the labels the scenario run just produced, straight from the
/// in-process observability registry (typed, no JSON round-trip).
fn check_live_labels(seed: u64) -> Vec<String> {
    let registry = LabelRegistry::builtin();
    let manifest = breval_obs::RunManifest::capture("sanitize", seed);
    let mut errors = Vec::new();
    for stage in &manifest.stages {
        if !registry.is_registered_path(&stage.name) {
            errors.push(format!("unregistered live stage path {:?}", stage.name));
        }
        for key in stage.counters.keys() {
            if !registry.is_registered(key) {
                errors.push(format!(
                    "unregistered live counter {key:?} in stage {:?}",
                    stage.name
                ));
            }
        }
    }
    for key in manifest
        .counters
        .keys()
        .chain(manifest.gauges.keys())
        .chain(manifest.histograms.keys())
    {
        if !registry.is_registered(key) {
            errors.push(format!("unregistered live metric label {key:?}"));
        }
    }
    println!(
        "sanitize: checked {} live stage(s) against {} registered label(s)",
        manifest.stages.len(),
        registry.len()
    );
    errors
}

/// Cross-checks the persisted run manifest (if any) against the obs label
/// registry: every stage path segment and counter name must be registered,
/// so drifting instrumentation can't silently invent unreviewed labels.
fn check_manifest_labels(results: &Path) -> Vec<String> {
    let registry = LabelRegistry::builtin();
    let mut errors = Vec::new();
    let manifest = results.join("run_manifest.json");
    let Ok(text) = std::fs::read_to_string(&manifest) else {
        println!("sanitize: no {} — skipping label check", manifest.display());
        return errors;
    };
    let parsed = match xtask::json::parse(&text) {
        Ok(v) => v,
        Err(e) => {
            errors.push(format!("{}: invalid JSON: {e}", manifest.display()));
            return errors;
        }
    };
    let stages = parsed.get("stages").and_then(Json::as_arr).unwrap_or(&[]);
    for stage in stages {
        let name = stage.get("name").and_then(Json::as_str).unwrap_or("");
        if !registry.is_registered_path(name) {
            errors.push(format!("unregistered stage path {name:?} in run manifest"));
        }
        if let Some(counters) = stage.get("counters").and_then(Json::as_obj) {
            for key in counters.keys() {
                if !registry.is_registered(key) {
                    errors.push(format!("unregistered counter {key:?} in stage {name:?}"));
                }
            }
        }
    }
    for section in ["counters", "gauges", "histograms"] {
        if let Some(map) = parsed.get(section).and_then(Json::as_obj) {
            for key in map.keys() {
                if !registry.is_registered(key) {
                    errors.push(format!(
                        "unregistered {section} label {key:?} in run manifest"
                    ));
                }
            }
        }
    }
    println!(
        "sanitize: checked {} stage(s) in {} against {} registered label(s)",
        stages.len(),
        manifest.display(),
        registry.len()
    );
    errors
}
