//! Workspace walker: applies the rules in [`crate::rules`] to every Rust
//! source, crate manifest, and CI workflow definition in the repository.

use crate::rules::{self, FileContext, FileKind, Violation};
use crate::tokens;
use breval_obs::LabelRegistry;
use std::fs;
use std::path::{Path, PathBuf};

/// Directories never scanned (vendored deps, build output, lint fixtures —
/// fixtures *intentionally* violate rules).
const SKIP_DIRS: [&str; 4] = ["vendor", "target", "fixtures", ".git"];

/// Recursively collects files under `dir` with the given extension.
fn collect_files(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if !SKIP_DIRS.contains(&name) {
                collect_files(&path, ext, out);
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some(ext) {
            out.push(path);
        }
    }
}

/// All Rust sources belonging to the workspace (crates/, src/, examples/,
/// tests/), repo-relative to `root`.
#[must_use]
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "examples", "tests"] {
        collect_files(&root.join(top), "rs", &mut out);
    }
    out
}

/// All crate manifests checked by L002 and L006: `crates/*/Cargo.toml` plus
/// the root package manifest.
#[must_use]
pub fn workspace_manifests(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.join("Cargo.toml")];
    collect_files(&root.join("crates"), "toml", &mut out);
    out.retain(|p| p.file_name().and_then(|n| n.to_str()) == Some("Cargo.toml"));
    out
}

/// All GitHub workflow definitions checked by L007:
/// `.github/workflows/*.yml` / `*.yaml`.
#[must_use]
pub fn workspace_workflows(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let dir = root.join(".github").join("workflows");
    collect_files(&dir, "yml", &mut out);
    collect_files(&dir, "yaml", &mut out);
    out.sort();
    out
}

/// The manifest rules: the workspace lint table (L002) and workspace-mediated
/// dependencies (L006).
fn check_manifest(rel: &Path, content: &str) -> Vec<Violation> {
    let mut out = rules::check_l002(rel, content);
    out.extend(rules::check_l006(rel, content));
    out
}

/// Lints one source file (already read) against all source-level rules.
#[must_use]
pub fn lint_source(rel: &Path, content: &str, registry: &LabelRegistry) -> Vec<Violation> {
    let ctx = FileContext {
        path: rel,
        kind: FileKind::classify(rel),
        is_obs_crate: rel
            .to_string_lossy()
            .replace('\\', "/")
            .contains("crates/obs/"),
        registry,
    };
    rules::check_source(&ctx, &tokens::scan(content))
}

/// Lints the whole workspace rooted at `root`; returns all violations sorted
/// by file and line.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Violation>> {
    let registry = LabelRegistry::builtin();
    let mut out = Vec::new();
    let mut emitted = std::collections::BTreeSet::new();
    for path in workspace_sources(root) {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let content = fs::read_to_string(&path)?;
        rules::collect_emitted_labels(&tokens::scan(&content), &mut emitted);
        out.extend(lint_source(&rel, &content, &registry));
    }
    // Stale direction of L003: every exact registry entry must have a live
    // call site (or a `# keep:` waiver). Only meaningful over the full
    // workspace, so `lint_paths` doesn't run it.
    let registry_file = "crates/obs/labels.txt";
    let registry_text = fs::read_to_string(root.join(registry_file))
        .unwrap_or_else(|_| breval_obs::REGISTRY_TEXT.to_owned());
    out.extend(rules::check_stale_labels(
        &registry_text,
        registry_file,
        &emitted,
    ));
    for path in workspace_manifests(root) {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let content = fs::read_to_string(&path)?;
        out.extend(check_manifest(&rel, &content));
    }
    for path in workspace_workflows(root) {
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        let content = fs::read_to_string(&path)?;
        out.extend(rules::check_l007(&rel, &content));
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(out)
}

/// Lints an explicit list of files (sources by extension `.rs`, manifests by
/// name) — used by fixtures and for pre-commit checks of changed files.
pub fn lint_paths(root: &Path, paths: &[PathBuf]) -> std::io::Result<Vec<Violation>> {
    let registry = LabelRegistry::builtin();
    let mut out = Vec::new();
    for path in paths {
        let abs = if path.is_absolute() {
            path.clone()
        } else {
            root.join(path)
        };
        let mut rel = abs.strip_prefix(root).unwrap_or(path).to_path_buf();
        // Lint-rule fixtures simulate *library* code: lint them under a
        // synthetic lib-root path so their on-disk home in a `tests/`
        // directory (which FileKind would exempt) doesn't mask the rules
        // they exist to exercise.
        if rel.components().any(|c| c.as_os_str() == "fixtures")
            && rel.extension().and_then(|e| e.to_str()) == Some("rs")
        {
            rel = PathBuf::from("crates/fixture/src/lib.rs");
        }
        let content = fs::read_to_string(&abs)?;
        match abs.extension().and_then(|e| e.to_str()) {
            Some("toml") => out.extend(check_manifest(&rel, &content)),
            Some("yml" | "yaml") => out.extend(rules::check_l007(&rel, &content)),
            _ => out.extend(lint_source(&rel, &content, &registry)),
        }
    }
    Ok(out)
}
