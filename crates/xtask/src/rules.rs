//! The project lint rules (L001–L008) and the malformed-pragma check (L000).
//!
//! | rule | invariant |
//! |------|-----------|
//! | L000 | every `breval-lint:` pragma parses and carries a `-- <reason>` |
//! | L001 | no `.unwrap()` / message-less `.expect()` in non-test library code |
//! | L002 | every crate root carries `#![forbid(unsafe_code)]` |
//! | L003 | every obs span/counter label literal is in `crates/obs/labels.txt` |
//! | L004 | no `std::time` (`Instant`/`SystemTime`) outside `crates/obs` |
//! | L005 | no `println!`/`eprintln!` in library code (`report.rs` exempt) |
//! | L006 | crate dependencies resolve through `[workspace.dependencies]` |
//! | L007 | every workflow `uses:` pins an exact version (tag or commit SHA) |
//! | L008 | no `HashMap`/`HashSet`/`hash_map`/`hash_set` in non-test code |
//!
//! All source rules honour the waiver pragma
//! `// breval-lint: allow(L00X) -- <reason>` on the offending line or the
//! line directly above it; the reason is mandatory (L000).

use crate::lexer::ScannedFile;
use breval_obs::LabelRegistry;
use std::path::Path;

/// What kind of compilation target a file belongs to — rules scope on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Part of a `[lib]` target.
    Lib,
    /// A binary root (`src/main.rs`, `src/bin/*.rs`).
    Bin,
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
        } else if p.ends_with("src/main.rs") || p.contains("/src/bin/") {
            FileKind::Bin
        } else {
            FileKind::Lib
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
    /// `true` for files in `crates/obs` (exempt from L003/L004 — it defines
    /// the instrumentation and legitimately owns the clock).
    pub is_obs_crate: bool,
    /// The parsed obs label registry.
    pub registry: &'a LabelRegistry,
}

fn push(
    violations: &mut Vec<Violation>,
    ctx: &FileContext,
    line: usize,
    rule: &'static str,
    message: String,
) {
    violations.push(Violation {
        file: ctx.path.to_string_lossy().into_owned(),
        line: line + 1,
        rule,
        message,
    });
}

/// Runs every source-level rule over one scanned file.
#[must_use]
pub fn check_source(ctx: &FileContext, scanned: &ScannedFile) -> Vec<Violation> {
    let mut out = Vec::new();
    check_pragmas(ctx, scanned, &mut out);
    check_l001(ctx, scanned, &mut out);
    check_l003(ctx, scanned, &mut out);
    check_l004(ctx, scanned, &mut out);
    check_l005(ctx, scanned, &mut out);
    check_l008(ctx, scanned, &mut out);
    out
}

/// L000 — malformed pragmas are reported wherever they occur (a waiver that
/// silently fails to parse would otherwise *hide* violations).
fn check_pragmas(ctx: &FileContext, scanned: &ScannedFile, out: &mut Vec<Violation>) {
    for (i, info) in scanned.lines.iter().enumerate() {
        if let Some(err) = &info.malformed_pragma {
            push(
                out,
                ctx,
                i,
                "L000",
                format!("malformed waiver pragma: {err}"),
            );
        }
    }
}

/// Finds occurrences of `needle` in `code` at token boundaries (the char
/// before the match must not be part of an identifier).
fn token_occurrences(code: &str, needle: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(needle) {
        let at = from + pos;
        let boundary = at == 0 || {
            let prev = bytes[at - 1] as char;
            !(prev.is_alphanumeric() || prev == '_')
        };
        if boundary {
            found.push(at);
        }
        from = at + needle.len();
    }
    found
}

/// L001 — no `.unwrap()`, and `.expect(…)` must carry a non-empty string
/// literal naming the violated invariant. Applies to non-test library and
/// binary code.
fn check_l001(ctx: &FileContext, scanned: &ScannedFile, out: &mut Vec<Violation>) {
    if matches!(ctx.kind, FileKind::Test | FileKind::Example) {
        return;
    }
    for (i, info) in scanned.lines.iter().enumerate() {
        if info.in_test || scanned.waived(i, "L001") {
            continue;
        }
        if info.code.contains(".unwrap()") {
            push(
                out,
                ctx,
                i,
                "L001",
                "`.unwrap()` in non-test code — return a Result or use \
                 `.expect(\"<invariant>\")` naming the invariant"
                    .to_owned(),
            );
        }
        for at in info.code.match_indices(".expect(").map(|(p, _)| p) {
            let arg = scanned.string_arg_at(i, at + ".expect(".len());
            let ok = arg.is_some_and(|s| !s.trim().is_empty());
            if !ok {
                push(
                    out,
                    ctx,
                    i,
                    "L001",
                    "`.expect()` without a string-literal invariant message".to_owned(),
                );
            }
        }
    }
}

/// The obs entry points whose first argument is a label; call-site literals
/// are checked against the registry (L003).
const OBS_LABEL_CALLS: [&str; 7] = [
    "breval_obs::span!(",
    "breval_obs::span(",
    "breval_obs::counter(",
    "breval_obs::gauge_set(",
    "breval_obs::histogram_record(",
    "breval_obs::histogram_merge(",
    "breval_obs::journal_span(",
];

/// Read-side obs entry points: their literals don't *create* labels but do
/// prove a label is alive, so the stale-label sweep counts them as uses.
const OBS_LABEL_READS: [&str; 1] = ["breval_obs::span_wall_ms("];

/// L003 — every label literal passed to an obs entry point must be in the
/// registry; non-literal (dynamic) labels need a waiver explaining which
/// registry wildcard covers them.
fn check_l003(ctx: &FileContext, scanned: &ScannedFile, out: &mut Vec<Violation>) {
    if ctx.is_obs_crate || ctx.kind == FileKind::Test {
        return;
    }
    for (i, info) in scanned.lines.iter().enumerate() {
        if info.in_test || scanned.waived(i, "L003") {
            continue;
        }
        for call in OBS_LABEL_CALLS {
            for at in info.code.match_indices(call).map(|(p, _)| p) {
                match scanned.string_arg_at(i, at + call.len()) {
                    Some(label) if ctx.registry.is_registered(label) => {}
                    Some(label) => push(
                        out,
                        ctx,
                        i,
                        "L003",
                        format!(
                            "obs label \"{label}\" is not in crates/obs/labels.txt — \
                             register it to keep the manifest schema stable"
                        ),
                    ),
                    None => push(
                        out,
                        ctx,
                        i,
                        "L003",
                        format!(
                            "dynamic obs label in `{}…)` cannot be checked statically — \
                             add a registry wildcard and waive with a pragma",
                            call.trim_end_matches('(')
                        ),
                    ),
                }
            }
        }
    }
}

/// Collects every label literal passed to an obs entry point (writes *and*
/// reads, tests included — a label exercised only by a test is still alive)
/// in one scanned file, feeding the workspace-wide stale-label sweep.
pub fn collect_emitted_labels(
    scanned: &ScannedFile,
    into: &mut std::collections::BTreeSet<String>,
) {
    for (i, info) in scanned.lines.iter().enumerate() {
        for call in OBS_LABEL_CALLS.iter().chain(OBS_LABEL_READS.iter()) {
            for at in info.code.match_indices(call).map(|(p, _)| p) {
                if let Some(label) = scanned.string_arg_at(i, at + call.len()) {
                    // Span-path arguments (`a/b/c`) prove each segment alive.
                    for seg in label.split('/') {
                        into.insert(seg.to_owned());
                    }
                }
            }
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

/// L004 — wall-clock access (`std::time::Instant` / `SystemTime`) is only
/// allowed inside `crates/obs`: everything else must stay deterministic.
fn check_l004(ctx: &FileContext, scanned: &ScannedFile, out: &mut Vec<Violation>) {
    if ctx.is_obs_crate || ctx.kind == FileKind::Test {
        return;
    }
    for (i, info) in scanned.lines.iter().enumerate() {
        if info.in_test || scanned.waived(i, "L004") {
            continue;
        }
        for needle in ["Instant", "SystemTime"] {
            if !token_occurrences(&info.code, needle).is_empty() {
                push(
                    out,
                    ctx,
                    i,
                    "L004",
                    format!(
                        "`{needle}` outside crates/obs breaks determinism — route timing \
                         through breval_obs spans"
                    ),
                );
            }
        }
    }
}

/// L005 — no `println!`/`eprintln!` (or `print!`/`eprint!`) in library code.
/// Binaries, examples, and the report renderers (`core/src/report.rs`) are
/// exempt — they exist to produce output.
fn check_l005(ctx: &FileContext, scanned: &ScannedFile, out: &mut Vec<Violation>) {
    if ctx.kind != FileKind::Lib {
        return;
    }
    if ctx.path.to_string_lossy().ends_with("core/src/report.rs") {
        return;
    }
    for (i, info) in scanned.lines.iter().enumerate() {
        if info.in_test || scanned.waived(i, "L005") {
            continue;
        }
        for needle in ["println!(", "eprintln!(", "print!(", "eprint!("] {
            if !token_occurrences(&info.code, needle).is_empty() {
                push(
                    out,
                    ctx,
                    i,
                    "L005",
                    format!(
                        "`{}` in a library crate — return data, let binaries print",
                        needle.trim_end_matches('(')
                    ),
                );
                break;
            }
        }
    }
}

/// The identifiers L008 rejects: the std hash containers and their modules.
const HASH_CONTAINERS: [&str; 4] = ["HashMap", "HashSet", "hash_map", "hash_set"];

/// L008 — determinism: no hash container in non-test library, binary or
/// example code. Iterating one visits its entries in hasher order, which
/// would leak into outputs that are pinned byte for byte; naming the type
/// is rejected outright, so no call graph has to decide which iterations
/// reach an output. BTree containers and arrays indexed by dense ids take
/// their place; tests may keep hash-based oracles.
fn check_l008(ctx: &FileContext, scanned: &ScannedFile, out: &mut Vec<Violation>) {
    if ctx.kind == FileKind::Test {
        return;
    }
    for (i, info) in scanned.lines.iter().enumerate() {
        if info.in_test || scanned.waived(i, "L008") {
            continue;
        }
        let named = HASH_CONTAINERS.into_iter().find(|name| {
            token_occurrences(&info.code, name).into_iter().any(|at| {
                !info.code[at + name.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
            })
        });
        if let Some(name) = named {
            push(
                out,
                ctx,
                i,
                "L008",
                format!(
                    "`{name}` in non-test code — hash iteration order is not deterministic; \
                     use a BTree container or an array indexed by dense ids"
                ),
            );
        }
    }
}

/// L002 — a crate-root file must carry `#![forbid(unsafe_code)]`.
#[must_use]
pub fn check_l002(path: &Path, scanned: &ScannedFile) -> Vec<Violation> {
    let found = scanned
        .lines
        .iter()
        .any(|l| l.code.replace(' ', "").contains("#![forbid(unsafe_code)]"));
    if found {
        Vec::new()
    } else {
        vec![Violation {
            file: path.to_string_lossy().into_owned(),
            line: 1,
            rule: "L002",
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
        }]
    }
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
    use crate::lexer::scan;

    fn ctx<'a>(path: &'a Path, registry: &'a LabelRegistry) -> FileContext<'a> {
        FileContext {
            path,
            kind: FileKind::classify(path),
            is_obs_crate: false,
            registry,
        }
    }

    #[test]
    fn l001_flags_unwrap_but_not_unwrap_or() {
        let reg = LabelRegistry::default();
        let path = Path::new("crates/foo/src/lib.rs");
        let c = ctx(path, &reg);
        let v = check_source(&c, &scan("let x = y.unwrap();\n"));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].rule, "L001");
        assert!(check_source(&c, &scan("let x = y.unwrap_or(0);\n")).is_empty());
        assert!(check_source(&c, &scan("let x = y.unwrap_or_else(|| 0);\n")).is_empty());
    }

    #[test]
    fn l001_expect_requires_message() {
        let reg = LabelRegistry::default();
        let path = Path::new("crates/foo/src/lib.rs");
        let c = ctx(path, &reg);
        assert!(check_source(&c, &scan("y.expect(\"pool is non-empty\");\n")).is_empty());
        assert_eq!(check_source(&c, &scan("y.expect(&msg);\n")).len(), 1);
        assert_eq!(check_source(&c, &scan("y.expect(\"\");\n")).len(), 1);
    }

    #[test]
    fn l001_waiver_suppresses() {
        let reg = LabelRegistry::default();
        let path = Path::new("crates/foo/src/lib.rs");
        let c = ctx(path, &reg);
        let src = "// breval-lint: allow(L001) -- prototyping, tracked in ROADMAP\ny.unwrap();\n";
        assert!(check_source(&c, &scan(src)).is_empty());
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
    fn l004_and_l005() {
        let reg = LabelRegistry::default();
        let path = Path::new("crates/foo/src/lib.rs");
        let c = ctx(path, &reg);
        assert_eq!(
            check_source(&c, &scan("let t = std::time::Instant::now();\n"))[0].rule,
            "L004"
        );
        assert_eq!(
            check_source(&c, &scan("println!(\"hi\");\n"))[0].rule,
            "L005"
        );
        // println in a binary is fine.
        let bin = Path::new("crates/foo/src/main.rs");
        let cb = ctx(bin, &reg);
        assert!(check_source(&cb, &scan("println!(\"hi\");\n")).is_empty());
    }

    #[test]
    fn l008_flags_hash_identifiers_outside_tests() {
        let reg = LabelRegistry::default();
        let path = Path::new("crates/foo/src/lib.rs");
        let c = ctx(path, &reg);
        for line in [
            "use std::collections::HashMap;\n",
            "let s: std::collections::HashSet<u32> = Default::default();\n",
            "use std::collections::hash_map::Entry;\n",
            "use std::collections::{hash_set, BTreeMap};\n",
        ] {
            let v = check_source(&c, &scan(line));
            assert_eq!(v.len(), 1, "{line}: {v:?}");
            assert_eq!(v[0].rule, "L008");
        }
        // Longer identifiers, comments, strings and test modules pass.
        for src in [
            "struct HashMapLike; fn my_hash_map() {}\n",
            "// a HashMap would leak its order\n",
            "let s = \"HashSet\";\n",
            "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n}\n",
        ] {
            assert!(check_source(&c, &scan(src)).is_empty(), "{src}");
        }
        // Integration tests keep their hash oracles.
        let test_file = Path::new("crates/foo/tests/oracle.rs");
        let t = ctx(test_file, &reg);
        assert!(check_source(&t, &scan("use std::collections::HashMap;\n")).is_empty());
    }

    #[test]
    fn l002_detects_missing_forbid() {
        let ok = scan("#![forbid(unsafe_code)]\npub fn f() {}\n");
        assert!(check_l002(Path::new("crates/foo/src/lib.rs"), &ok).is_empty());
        let bad = scan("pub fn f() {}\n");
        assert_eq!(
            check_l002(Path::new("crates/foo/src/lib.rs"), &bad).len(),
            1
        );
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
