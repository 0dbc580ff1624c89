//! The project lint rules that no compiler lint covers (L000–L003, L006,
//! L007). The workspace lint table in the root `Cargo.toml`, with
//! `clippy.toml`, carries the rest: rustc forbids `unsafe` code, and clippy
//! rejects `.unwrap()`, printing from libraries, hash containers and the
//! wall clock.
//!
//! | rule | invariant |
//! |------|-----------|
//! | L000 | every `breval-lint:` pragma parses and carries a `-- <reason>` |
//! | L001 | no message-less `.expect()` in non-test library or binary code |
//! | L002 | every workspace manifest inherits the lint table (`[lints] workspace = true`) |
//! | L003 | every obs span/counter label literal is in `crates/obs/labels.txt` |
//! | L006 | crate dependencies resolve through `[workspace.dependencies]` |
//! | L007 | every workflow `uses:` pins an exact version (tag or commit SHA) |
//!
//! The source rules honour the waiver pragma
//! `// breval-lint: allow(L00X) -- <reason>` on the offending line or the
//! line directly above it; the reason is mandatory (L000).

use crate::tokens::Scanned;
use breval_obs::LabelRegistry;
use std::path::Path;

/// What kind of compilation target a file belongs to — rules scope on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library or binary source.
    Src,
    /// An example under `examples/`.
    Example,
    /// Integration tests, benches, or fixtures.
    Test,
}

impl FileKind {
    /// Classifies a repo-relative path.
    #[must_use]
    pub fn classify(path: &Path) -> FileKind {
        let p = path.to_string_lossy().replace('\\', "/");
        if p.contains("/tests/") || p.starts_with("tests/") || p.contains("/benches/") {
            FileKind::Test
        } else if p.contains("/examples/") || p.starts_with("examples/") {
            FileKind::Example
        } else {
            FileKind::Src
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule id, e.g. `L001`.
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Per-file context the rules need beyond the scanned source.
pub struct FileContext<'a> {
    /// Repo-relative path.
    pub path: &'a Path,
    /// Target classification.
    pub kind: FileKind,
    /// `true` for files in `crates/obs` (exempt from L003 — it defines the
    /// instrumentation).
    pub is_obs_crate: bool,
    /// The parsed obs label registry.
    pub registry: &'a LabelRegistry,
}

fn push(
    violations: &mut Vec<Violation>,
    ctx: &FileContext,
    line: u32,
    rule: &'static str,
    message: String,
) {
    violations.push(Violation {
        file: ctx.path.to_string_lossy().into_owned(),
        line: line as usize,
        rule,
        message,
    });
}

/// Runs every source-level rule over one scanned file.
#[must_use]
pub fn check_source(ctx: &FileContext, scanned: &Scanned) -> Vec<Violation> {
    let mut out = Vec::new();
    // L000 — a waiver that silently failed to parse would *hide* violations.
    for (line, err) in &scanned.malformed {
        push(
            &mut out,
            ctx,
            *line,
            "L000",
            format!("malformed waiver pragma: {err}"),
        );
    }
    check_l001(ctx, scanned, &mut out);
    check_l003(ctx, scanned, &mut out);
    out
}

/// `true` when `rule` applies at `toks[k]`: outside test code, with no
/// pragma waiving it on that token's line.
fn checked(scanned: &Scanned, k: usize, rule: &str) -> bool {
    !scanned.in_test[k] && !scanned.waived(scanned.toks[k].line, rule)
}

/// L001 — `.expect(…)` must carry a non-empty string literal naming the
/// violated invariant. Applies to non-test library and binary code
/// (clippy's `unwrap_used` covers `.unwrap()`).
fn check_l001(ctx: &FileContext, scanned: &Scanned, out: &mut Vec<Violation>) {
    if matches!(ctx.kind, FileKind::Test | FileKind::Example) {
        return;
    }
    for k in 0..scanned.toks.len() {
        let is_expect =
            scanned.text(k) == "." && scanned.text(k + 1) == "expect" && scanned.text(k + 2) == "(";
        if !is_expect || !checked(scanned, k, "L001") {
            continue;
        }
        if scanned.str_at(k + 3).is_none_or(|s| s.trim().is_empty()) {
            push(
                out,
                ctx,
                scanned.toks[k].line,
                "L001",
                "`.expect()` without a string-literal invariant message".to_owned(),
            );
        }
    }
}

/// The obs entry points whose first argument is a label; call-site literals
/// are checked against the registry (L003).
const OBS_LABEL_CALLS: [&str; 7] = [
    "span!",
    "span",
    "counter",
    "gauge_set",
    "histogram_record",
    "histogram_merge",
    "journal_span",
];

/// Read-side obs entry points: their literals don't *create* labels but do
/// prove a label is alive, so the stale-label sweep counts them as uses.
const OBS_LABEL_READS: [&str; 1] = ["span_wall_ms"];

/// The obs entry point called at `toks[k]` — `breval_obs::name(` or
/// `breval_obs::span!(` — as `(name, index of its first argument)`.
fn obs_call<'a>(scanned: &Scanned<'a>, k: usize) -> Option<(&'a str, usize)> {
    if scanned.text(k) != "breval_obs" || scanned.text(k + 1) != "::" {
        return None;
    }
    let bang = usize::from(scanned.text(k + 3) == "!");
    let open = k + 3 + bang;
    if scanned.text(open) != "(" {
        return None;
    }
    let name = &scanned.src[scanned.toks[k + 2].start..scanned.toks[k + 2 + bang].end];
    Some((name, open + 1))
}

/// L003 — every label literal passed to an obs entry point must be in the
/// registry; non-literal (dynamic) labels need a waiver explaining which
/// registry wildcard covers them.
fn check_l003(ctx: &FileContext, scanned: &Scanned, out: &mut Vec<Violation>) {
    if ctx.is_obs_crate || ctx.kind == FileKind::Test {
        return;
    }
    for k in 0..scanned.toks.len() {
        let Some((name, arg)) = obs_call(scanned, k) else {
            continue;
        };
        if !OBS_LABEL_CALLS.contains(&name) || !checked(scanned, k, "L003") {
            continue;
        }
        let line = scanned.toks[k].line;
        match scanned.str_at(arg) {
            Some(label) if ctx.registry.is_registered(label) => {}
            Some(label) => push(
                out,
                ctx,
                line,
                "L003",
                format!(
                    "obs label \"{label}\" is not in crates/obs/labels.txt — \
                     register it to keep the manifest schema stable"
                ),
            ),
            None => push(
                out,
                ctx,
                line,
                "L003",
                format!(
                    "dynamic obs label in `breval_obs::{name}…)` cannot be checked \
                     statically — add a registry wildcard and waive with a pragma"
                ),
            ),
        }
    }
}

/// Collects every label literal passed to an obs entry point (writes *and*
/// reads, tests included — a label exercised only by a test is still alive)
/// in one scanned file, feeding the workspace-wide stale-label sweep.
pub fn collect_emitted_labels(scanned: &Scanned, into: &mut std::collections::BTreeSet<String>) {
    for k in 0..scanned.toks.len() {
        let Some((name, arg)) = obs_call(scanned, k) else {
            continue;
        };
        if !OBS_LABEL_CALLS.contains(&name) && !OBS_LABEL_READS.contains(&name) {
            continue;
        }
        if let Some(label) = scanned.str_at(arg) {
            // Span-path arguments (`a/b/c`) prove each segment alive.
            into.extend(label.split('/').map(str::to_owned));
        }
    }
}

/// L003 (stale direction) — every *exact* entry in `crates/obs/labels.txt`
/// must be emitted by some call site, or carry an inline
/// `# keep: <reason>` annotation (the waiver path for labels built
/// dynamically, e.g. `format!("infer_{name}")`). Wildcard entries are
/// implicitly kept — they exist precisely for dynamic suffixes. Runs only
/// on whole-workspace lints: a partial file list cannot prove staleness.
#[must_use]
pub fn check_stale_labels(
    registry_text: &str,
    registry_file: &str,
    emitted: &std::collections::BTreeSet<String>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, raw) in registry_text.lines().enumerate() {
        let (entry, comment) = match raw.split_once('#') {
            Some((e, c)) => (e.trim(), c.trim()),
            None => (raw.trim(), ""),
        };
        if entry.is_empty() || entry.ends_with('*') {
            continue;
        }
        if let Some(rest) = comment.strip_prefix("keep:") {
            let reason = rest.trim();
            if reason.is_empty() {
                out.push(Violation {
                    file: registry_file.to_owned(),
                    line: i + 1,
                    rule: "L003",
                    message: format!("label \"{entry}\" has a `# keep:` with no reason"),
                });
            }
            continue;
        }
        if !emitted.contains(entry) {
            out.push(Violation {
                file: registry_file.to_owned(),
                line: i + 1,
                rule: "L003",
                message: format!(
                    "label \"{entry}\" is registered but never emitted — remove it or \
                     annotate `# keep: <reason>` if it is built dynamically"
                ),
            });
        }
    }
    out
}

/// L002 — a manifest inherits the workspace lint table (`[lints]` with
/// `workspace = true`). The table forbids `unsafe` code and carries the
/// clippy rules, so a manifest without it drops them for its crate.
#[must_use]
pub fn check_l002(path: &Path, toml_text: &str) -> Vec<Violation> {
    let mut section = "";
    let inherits = toml_text.lines().any(|raw| {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            section = line;
        }
        section == "[lints]" && line.replace(' ', "") == "workspace=true"
    });
    if inherits {
        return Vec::new();
    }
    vec![Violation {
        file: path.to_string_lossy().into_owned(),
        line: 1,
        rule: "L002",
        message: "manifest does not inherit the workspace lint table — add \
                  `[lints]` with `workspace = true`"
            .to_owned(),
    }]
}

/// L006 — every entry in a crate's `[dependencies]` / `[dev-dependencies]` /
/// `[build-dependencies]` must resolve through `[workspace.dependencies]`
/// (i.e. carry `workspace = true`), so versions/paths are set in one place.
#[must_use]
pub fn check_l006(path: &Path, toml_text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_dep_section = false;
    for (i, raw) in toml_text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            in_dep_section = matches!(
                line,
                "[dependencies]" | "[dev-dependencies]" | "[build-dependencies]"
            );
            continue;
        }
        if !in_dep_section {
            continue;
        }
        // `foo.workspace = true`, `foo = { workspace = true, … }`.
        let uses_workspace = line.contains("workspace = true") || line.contains("workspace=true");
        if !uses_workspace {
            out.push(Violation {
                file: path.to_string_lossy().into_owned(),
                line: i + 1,
                rule: "L006",
                message: format!(
                    "dependency `{}` bypasses [workspace.dependencies] — declare it there \
                     and use `workspace = true`",
                    line.split(['=', '.']).next().unwrap_or(line).trim()
                ),
            });
        }
    }
    out
}

/// `true` if a workflow `@ref` is an exact pin: a 40-hex commit SHA or a
/// fully qualified release tag (`v1.2.3` / `1.2.3` — at least three numeric
/// components, optional leading `v`).
fn exact_action_ref(r: &str) -> bool {
    if r.len() == 40 && r.chars().all(|c| c.is_ascii_hexdigit()) {
        return true;
    }
    let parts: Vec<&str> = r.strip_prefix('v').unwrap_or(r).split('.').collect();
    parts.len() >= 3
        && parts
            .iter()
            .all(|p| !p.is_empty() && p.chars().all(|c| c.is_ascii_digit()))
}

/// L007 — every `uses:` in a GitHub workflow must pin an exact version:
/// a full release tag (`@v4.2.2`) or a 40-hex commit SHA. Floating majors
/// (`@v4`), branch refs (`@main`), or missing refs let the action drift
/// under the workflow silently. Local composite actions (`./…`) are exempt
/// — they version with the repository itself.
#[must_use]
pub fn check_l007(path: &Path, yaml_text: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    for (i, raw) in yaml_text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        let line = line.strip_prefix("- ").unwrap_or(line).trim();
        let Some(rest) = line.strip_prefix("uses:") else {
            continue;
        };
        let action = rest.trim().trim_matches(|c| c == '"' || c == '\'');
        if action.starts_with("./") {
            continue;
        }
        let pinned = action
            .rsplit_once('@')
            .is_some_and(|(_, r)| exact_action_ref(r));
        if !pinned {
            out.push(Violation {
                file: path.to_string_lossy().into_owned(),
                line: i + 1,
                rule: "L007",
                message: format!(
                    "workflow action `{action}` is not pinned to an exact version — \
                     use `@vX.Y.Z` or a 40-hex commit SHA"
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tokens::scan;

    fn ctx<'a>(path: &'a Path, registry: &'a LabelRegistry) -> FileContext<'a> {
        FileContext {
            path,
            kind: FileKind::classify(path),
            is_obs_crate: false,
            registry,
        }
    }

    #[test]
    fn l001_expect_requires_message() {
        let reg = LabelRegistry::default();
        let path = Path::new("crates/foo/src/lib.rs");
        let c = ctx(path, &reg);
        assert!(check_source(&c, &scan("y.expect(\"pool is non-empty\");\n")).is_empty());
        assert!(check_source(&c, &scan("y.expect(\n    \"wrapped by rustfmt\",\n);\n")).is_empty());
        assert_eq!(check_source(&c, &scan("y.expect(&msg);\n")).len(), 1);
        assert_eq!(check_source(&c, &scan("y.expect(\"\");\n")).len(), 1);
        // `.unwrap()` is clippy's `unwrap_used`; comments and strings are prose.
        for src in [
            "let x = y.unwrap();\n",
            "// y.expect(&msg)\n",
            "let s = \"y.expect(&msg)\";\n",
        ] {
            assert!(check_source(&c, &scan(src)).is_empty(), "{src}");
        }
    }

    #[test]
    fn l001_skips_test_regions_examples_and_tests() {
        let reg = LabelRegistry::default();
        let src = "#[cfg(test)]\nmod tests {\n    fn f() { y.expect(&m); }\n}\n";
        let lib = Path::new("crates/foo/src/lib.rs");
        assert!(check_source(&ctx(lib, &reg), &scan(src)).is_empty());
        for path in ["examples/demo.rs", "crates/foo/tests/it.rs"] {
            let c = ctx(Path::new(path), &reg);
            assert!(check_source(&c, &scan("y.expect(&m);\n")).is_empty());
        }
    }

    #[test]
    fn l001_waiver_suppresses() {
        let reg = LabelRegistry::default();
        let path = Path::new("crates/foo/src/lib.rs");
        let c = ctx(path, &reg);
        let src = "// breval-lint: allow(L001) -- prototyping, tracked in ROADMAP\ny.expect(&m);\n";
        assert!(check_source(&c, &scan(src)).is_empty());
        let src = "// breval-lint: allow(L001)\ny.expect(&m);\n";
        let rules: Vec<_> = check_source(&c, &scan(src))
            .iter()
            .map(|v| v.rule)
            .collect();
        assert_eq!(
            rules,
            ["L000", "L001"],
            "a reasonless pragma waives nothing"
        );
    }

    #[test]
    fn l003_checks_registry_membership() {
        let reg = LabelRegistry::parse("known_label\ndyn_prefix.*\n");
        let path = Path::new("crates/foo/src/lib.rs");
        let c = ctx(path, &reg);
        assert!(check_source(&c, &scan("breval_obs::counter(\"known_label\", 1);\n")).is_empty());
        let v = check_source(&c, &scan("breval_obs::counter(\"rogue\", 1);\n"));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L003");
        // Dynamic labels need a waiver.
        let v = check_source(&c, &scan("breval_obs::span(&format!(\"x_{n}\"));\n"));
        assert_eq!(v.len(), 1);
        assert!(v[0].message.contains("`breval_obs::span…)`"), "{v:?}");
    }

    #[test]
    fn emitted_labels_cover_writes_reads_and_path_segments() {
        let src = "breval_obs::span!(\"alpha\");\n\
                   breval_obs::journal_span(\"beta\");\n\
                   breval_obs::histogram_merge(\"gamma\", &h);\n\
                   breval_obs::span_wall_ms(\"delta/epsilon\");\n\
                   breval_obs::counter(&format!(\"dyn_{n}\"), 1);\n";
        let mut emitted = std::collections::BTreeSet::new();
        collect_emitted_labels(&scan(src), &mut emitted);
        for label in ["alpha", "beta", "gamma", "delta", "epsilon"] {
            assert!(emitted.contains(label), "{label} not collected");
        }
        assert_eq!(emitted.len(), 5, "dynamic labels must not be collected");
    }

    #[test]
    fn stale_labels_flagged_unless_kept_or_wildcard() {
        let registry = "# header\nalive\ndead_label\n\
                        dyn_built  # keep: format!-constructed\n\
                        bad_keep  # keep:\n\
                        prefix.*\n";
        let emitted: std::collections::BTreeSet<String> =
            std::iter::once("alive".to_owned()).collect();
        let v = check_stale_labels(registry, "crates/obs/labels.txt", &emitted);
        assert_eq!(v.len(), 2, "got: {v:?}");
        assert!(v[0].message.contains("dead_label"));
        assert!(v[0].message.contains("never emitted"));
        assert_eq!(v[0].line, 3);
        assert!(v[1].message.contains("bad_keep"));
        assert!(v[1].message.contains("no reason"));
    }

    #[test]
    fn l002_requires_the_workspace_lint_table() {
        let path = Path::new("crates/foo/Cargo.toml");
        let good = "[package]\nname = \"foo\"\n\n[lints]\nworkspace = true # inherited\n";
        assert!(check_l002(path, good).is_empty());
        for bad in [
            "[package]\nname = \"foo\"\n",
            "[package]\nworkspace = true\n",
            "[lints]\nworkspace = false\n",
            "[lints]\n# workspace = true\n",
        ] {
            let v = check_l002(path, bad);
            assert_eq!(v.len(), 1, "{bad}");
            assert_eq!(v[0].rule, "L002");
        }
    }

    #[test]
    fn l007_requires_exact_action_pins() {
        let path = Path::new(".github/workflows/ci.yml");
        let good = "jobs:\n  build:\n    steps:\n      - uses: actions/checkout@v4.2.2\n      \
                    - uses: dtolnay/rust-toolchain@1.95.0\n      \
                    - uses: foo/bar@0123456789abcdef0123456789abcdef01234567 # v2\n      \
                    - uses: ./.github/actions/local-setup\n      \
                    - uses: \"Swatinem/rust-cache@v2.7.8\"\n";
        assert!(check_l007(path, good).is_empty());
        let bad = "steps:\n  - uses: actions/checkout@v4\n  - uses: foo/bar@main\n  \
                   - uses: baz/qux\n  - uses: a/b@1.2\n  - uses: c/d@deadbeef\n";
        let v = check_l007(path, bad);
        assert_eq!(v.len(), 5);
        assert!(v.iter().all(|x| x.rule == "L007"));
        assert!(v[0].message.contains("actions/checkout@v4"));
    }

    #[test]
    fn l006_requires_workspace_deps() {
        let good = "[dependencies]\nserde.workspace = true\nfoo = { workspace = true }\n";
        assert!(check_l006(Path::new("crates/foo/Cargo.toml"), good).is_empty());
        let bad = "[dependencies]\nserde = \"1.0\"\n\n[lib]\nname = \"x\"\n";
        let v = check_l006(Path::new("crates/foo/Cargo.toml"), bad);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L006");
    }
}
