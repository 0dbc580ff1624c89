//! Workspace module graph and coarse symbol resolution.
//!
//! [`Workspace::load`] crawls every crate in the repository (each
//! `crates/*/src/{lib,main}.rs` and `src/bin/*.rs` root, plus the umbrella
//! crate under `src/`), follows `mod foo;` declarations to their files,
//! parses everything with [`crate::ast`], and builds one flat table of
//! function items with their full paths (`crate::module::Type::name`).
//!
//! Resolution ([`Workspace::resolve`]) maps call references extracted from
//! bodies back onto that table. It is a deliberate *over-approximation*:
//! where the name is ambiguous (plain method calls, re-exported paths) it
//! returns every plausible target, so reachability-based rules may flag too
//! much but never silently miss an edge. Two precision guards: a
//! `Type::assoc(..)` call only resolves when `Type` is a workspace type —
//! `Vec::new` or `BTreeMap::from` never aliases onto workspace functions —
//! and a path rooted at `std`, `core` or `alloc` never resolves into the
//! workspace, so `std::thread::current()` is not every workspace `current`.

use crate::ast::{self, FnDecl, Item, ItemKind, UseLeaf};
use crate::tokens::Tok;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// One function item in the workspace table.
#[derive(Debug)]
pub struct FnInfo {
    /// Crate module identifier (`breval_core` for crate `breval-core`).
    pub krate: String,
    /// Module path inside the crate (empty at the crate root).
    pub module: Vec<String>,
    /// The function's own name.
    pub name: String,
    /// `impl` self type head, for associated functions/methods.
    pub self_ty: Option<String>,
    /// Trait head name when inside `impl Trait for Ty` or a trait body.
    pub trait_name: Option<String>,
    /// Index of the file in [`Workspace::files`].
    pub file_idx: usize,
    /// 1-based declaration line.
    pub line: u32,
    /// Signature token range (into the file's token stream).
    pub sig: (usize, usize),
    /// Body token range, if the function has one.
    pub body: Option<(usize, usize)>,
    /// `true` for `#[test]` functions and anything under `#[cfg(test)]`.
    pub is_test: bool,
}

/// One parsed source file.
pub struct ParsedFile {
    /// Repo-relative path.
    pub rel: PathBuf,
    /// Raw source text.
    pub src: String,
    /// Significant tokens (what [`FnInfo`] ranges index into).
    pub toks: Vec<Tok>,
    /// Crate module identifier this file belongs to.
    pub krate: String,
    /// Every `use` leaf in the file, flattened.
    pub imports: Vec<UseLeaf>,
}

/// A call reference extracted from a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CallRef {
    /// `a::b::f(..)` or plain `f(..)` — the full written path.
    Path(Vec<String>),
    /// `.f(..)` — a method call; only the name is known statically.
    Method(String),
    /// `self.f(..)` — a method call whose receiver is the enclosing
    /// impl's type, so it can be resolved precisely instead of
    /// fanning out to every same-named method in the workspace.
    SelfMethod(String),
}

/// Method names shared with std container/iterator APIs. A bare
/// `.push(..)` receiver is overwhelmingly a `Vec`, not a workspace type
/// that happens to define `push`, so resolving these by name alone would
/// flood the call graph with false edges (and drag unrelated types into
/// kernel closures). Calls through these names still resolve when written
/// as `self.push(..)` (via [`CallRef::SelfMethod`]) or `Type::push(..)`.
const STD_METHOD_NAMES: [&str; 26] = [
    "push",
    "pop",
    "get",
    "get_mut",
    "insert",
    "remove",
    "len",
    "is_empty",
    "clear",
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "extend",
    "contains",
    "contains_key",
    "next",
    "clone",
    "parse",
    "write",
    "read",
    "drain",
    "retain",
    // Atomic / cell API: `ENABLED.load(Ordering::..)` in any crate would
    // otherwise edge into every workspace method named `load`.
    "load",
    "store",
];

/// The fully loaded and indexed workspace.
pub struct Workspace {
    /// All parsed files, crawl order (crates sorted, modules depth-first).
    pub files: Vec<ParsedFile>,
    /// All function items.
    pub fns: Vec<FnInfo>,
    by_name: BTreeMap<String, Vec<usize>>,
    by_type_method: BTreeMap<(String, String), Vec<usize>>,
    methods_by_name: BTreeMap<String, Vec<usize>>,
    workspace_types: BTreeSet<String>,
}

impl Workspace {
    /// Loads the full workspace under `root`: every `crates/*` crate plus
    /// the umbrella crate rooted at `root/src`. Crate directories without
    /// a `src/lib.rs` or `src/main.rs` are skipped.
    pub fn load(root: &Path) -> std::io::Result<Workspace> {
        let mut crate_dirs: Vec<PathBuf> = vec![root.to_path_buf()];
        let crates = root.join("crates");
        if let Ok(entries) = fs::read_dir(&crates) {
            let mut dirs: Vec<PathBuf> = entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.is_dir())
                .collect();
            dirs.sort();
            crate_dirs.extend(dirs);
        }
        Self::load_crate_dirs(root, &crate_dirs)
    }

    /// Loads a single crate directory as a one-crate workspace — used by
    /// the deepcheck fixture suite.
    pub fn load_single(crate_dir: &Path) -> std::io::Result<Workspace> {
        Self::load_crate_dirs(crate_dir, &[crate_dir.to_path_buf()])
    }

    /// Builds a workspace from in-memory sources (one crate, flat module
    /// structure) — the call-graph unit suite's substrate.
    #[must_use]
    pub fn from_sources(krate: &str, sources: &[(&str, &str)]) -> Workspace {
        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            by_type_method: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            workspace_types: BTreeSet::new(),
        };
        for (rel, src) in sources {
            let parsed = ast::parse(src);
            let file_idx = ws.files.len();
            let mut imports = Vec::new();
            collect_imports(&parsed.items, &mut imports);
            ws.files.push(ParsedFile {
                rel: PathBuf::from(rel),
                src: (*src).to_owned(),
                toks: parsed.toks,
                krate: krate.to_owned(),
                imports,
            });
            let mut module_path = Vec::new();
            let mut out_of_line = Vec::new();
            ws.collect_fns(
                &parsed.items,
                file_idx,
                krate,
                &mut module_path,
                None,
                None,
                false,
                &mut out_of_line,
            );
        }
        ws.index();
        ws
    }

    fn load_crate_dirs(root: &Path, crate_dirs: &[PathBuf]) -> std::io::Result<Workspace> {
        let mut ws = Workspace {
            files: Vec::new(),
            fns: Vec::new(),
            by_name: BTreeMap::new(),
            by_type_method: BTreeMap::new(),
            methods_by_name: BTreeMap::new(),
            workspace_types: BTreeSet::new(),
        };
        for dir in crate_dirs {
            let krate = crate_ident(dir);
            let src_dir = dir.join("src");
            let mut roots: Vec<PathBuf> = ["lib.rs", "main.rs"]
                .iter()
                .map(|f| src_dir.join(f))
                .filter(|p| p.is_file())
                .collect();
            if let Ok(bins) = fs::read_dir(src_dir.join("bin")) {
                let mut bin_files: Vec<PathBuf> = bins
                    .flatten()
                    .map(|e| e.path())
                    .filter(|p| p.extension().and_then(|e| e.to_str()) == Some("rs"))
                    .collect();
                bin_files.sort();
                roots.extend(bin_files);
            }
            for root_file in roots {
                ws.crawl_file(root, &root_file, &krate, &[], false)?;
            }
        }
        ws.index();
        Ok(ws)
    }

    /// Parses `path` and recurses into its out-of-line child modules.
    fn crawl_file(
        &mut self,
        root: &Path,
        path: &Path,
        krate: &str,
        module: &[String],
        in_test: bool,
    ) -> std::io::Result<()> {
        let src = fs::read_to_string(path)?;
        let parsed = ast::parse(&src);
        let rel = path.strip_prefix(root).unwrap_or(path).to_path_buf();
        let file_idx = self.files.len();
        let mut imports = Vec::new();
        collect_imports(&parsed.items, &mut imports);
        self.files.push(ParsedFile {
            rel,
            src,
            toks: parsed.toks,
            krate: krate.to_owned(),
            imports,
        });

        // Children of lib.rs/main.rs/mod.rs live beside the file; children
        // of foo.rs live under foo/.
        let file_name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let parent = path.parent().unwrap_or(Path::new("."));
        let child_dir = if matches!(file_name, "lib.rs" | "main.rs" | "mod.rs")
            || parent.file_name().and_then(|n| n.to_str()) == Some("bin")
        {
            parent.to_path_buf()
        } else {
            parent.join(file_name.trim_end_matches(".rs"))
        };

        let mut out_of_line: Vec<(String, bool)> = Vec::new();
        let mut module_path = module.to_vec();
        self.collect_fns(
            &parsed.items,
            file_idx,
            krate,
            &mut module_path,
            None,
            None,
            in_test,
            &mut out_of_line,
        );
        for (name, sub_in_test) in out_of_line {
            let candidates = [
                child_dir.join(format!("{name}.rs")),
                child_dir.join(&name).join("mod.rs"),
            ];
            if let Some(child) = candidates.iter().find(|p| p.is_file()) {
                let mut sub_module = module.to_vec();
                sub_module.push(name.clone());
                self.crawl_file(root, child, krate, &sub_module, in_test || sub_in_test)?;
            }
        }
        Ok(())
    }

    #[allow(clippy::too_many_arguments)]
    fn collect_fns(
        &mut self,
        items: &[Item],
        file_idx: usize,
        krate: &str,
        module: &mut Vec<String>,
        self_ty: Option<&str>,
        trait_name: Option<&str>,
        in_test: bool,
        out_of_line: &mut Vec<(String, bool)>,
    ) {
        for item in items {
            let item_test = in_test || item.cfg_test;
            match &item.kind {
                ItemKind::Fn(f) => self.push_fn(
                    f,
                    file_idx,
                    krate,
                    module,
                    self_ty,
                    trait_name,
                    item_test || item.is_test_fn,
                    item.line,
                ),
                ItemKind::Mod { name, items } => match items {
                    Some(sub) => {
                        module.push(name.clone());
                        self.collect_fns(
                            sub,
                            file_idx,
                            krate,
                            module,
                            None,
                            None,
                            item_test,
                            out_of_line,
                        );
                        module.pop();
                    }
                    None => out_of_line.push((name.clone(), item.cfg_test)),
                },
                ItemKind::Impl {
                    self_ty: ty,
                    trait_name: tr,
                    items: sub,
                } => {
                    self.workspace_types.insert(ty.clone());
                    self.collect_fns(
                        sub,
                        file_idx,
                        krate,
                        module,
                        Some(ty),
                        tr.as_deref(),
                        item_test,
                        out_of_line,
                    );
                }
                ItemKind::Trait { name, items: sub } => {
                    self.collect_fns(
                        sub,
                        file_idx,
                        krate,
                        module,
                        None,
                        Some(name),
                        item_test,
                        out_of_line,
                    );
                }
                ItemKind::Other { name, .. } => {
                    if let Some(n) = name {
                        if n.chars().next().is_some_and(char::is_uppercase) {
                            self.workspace_types.insert(n.clone());
                        }
                    }
                }
                ItemKind::Use { .. } => {}
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_fn(
        &mut self,
        f: &FnDecl,
        file_idx: usize,
        krate: &str,
        module: &[String],
        self_ty: Option<&str>,
        trait_name: Option<&str>,
        is_test: bool,
        line: u32,
    ) {
        self.fns.push(FnInfo {
            krate: krate.to_owned(),
            module: module.to_vec(),
            name: f.name.clone(),
            self_ty: self_ty.map(str::to_owned),
            trait_name: trait_name.map(str::to_owned),
            file_idx,
            line,
            sig: f.sig,
            body: f.body,
            is_test,
        });
    }

    fn index(&mut self) {
        for (id, f) in self.fns.iter().enumerate() {
            self.by_name.entry(f.name.clone()).or_default().push(id);
            if let Some(ty) = &f.self_ty {
                self.by_type_method
                    .entry((ty.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
            }
            if let Some(tr) = &f.trait_name {
                self.by_type_method
                    .entry((tr.clone(), f.name.clone()))
                    .or_default()
                    .push(id);
            }
            if f.self_ty.is_some() || f.trait_name.is_some() {
                self.methods_by_name
                    .entry(f.name.clone())
                    .or_default()
                    .push(id);
            }
        }
    }

    /// The function's displayable path, `crate::module::Type::name`.
    #[must_use]
    pub fn path_of(&self, id: usize) -> String {
        let f = &self.fns[id];
        let mut parts: Vec<&str> = vec![&f.krate];
        parts.extend(f.module.iter().map(String::as_str));
        if let Some(ty) = &f.self_ty {
            parts.push(ty);
        }
        parts.push(&f.name);
        parts.join("::")
    }

    /// All function ids whose path ends with the given `::`-separated
    /// suffix — how registry entries (`entry`, `kernel`) and
    /// waiver-free config name functions.
    #[must_use]
    pub fn match_suffix(&self, suffix: &str) -> Vec<usize> {
        let want: Vec<&str> = suffix.split("::").collect();
        let Some(name) = want.last() else {
            return Vec::new();
        };
        let Some(candidates) = self.by_name.get(*name) else {
            return Vec::new();
        };
        candidates
            .iter()
            .copied()
            .filter(|&id| {
                let full = self.path_of(id);
                let have: Vec<&str> = full.split("::").collect();
                have.len() >= want.len() && have[have.len() - want.len()..] == want[..]
            })
            .collect()
    }

    /// Resolves a call reference from `file_idx` to candidate function ids.
    /// Over-approximates on ambiguity; returns an empty set for calls that
    /// cannot be workspace functions (std/vendored targets).
    #[must_use]
    pub fn resolve(&self, file_idx: usize, call: &CallRef) -> Vec<usize> {
        match call {
            CallRef::Method(name) | CallRef::SelfMethod(name) => {
                if STD_METHOD_NAMES.contains(&name.as_str()) {
                    return Vec::new();
                }
                self.methods_by_name.get(name).cloned().unwrap_or_default()
            }
            CallRef::Path(segs) => self.resolve_path(file_idx, segs, true),
        }
    }

    /// Like [`Workspace::resolve`], but with the calling function known:
    /// `self.method(..)` calls resolve through the enclosing impl's type
    /// (exactly, even for std-colliding names) before falling back to the
    /// name-wide over-approximation.
    #[must_use]
    pub fn resolve_from(&self, caller: usize, call: &CallRef) -> Vec<usize> {
        let f = &self.fns[caller];
        if let CallRef::SelfMethod(name) = call {
            if let Some(ty) = &f.self_ty {
                if let Some(ids) = self.by_type_method.get(&(ty.clone(), name.clone())) {
                    return ids.clone();
                }
            }
        }
        self.resolve(f.file_idx, call)
    }

    /// `true` if the path `segs`, as written in `file_idx`, starts at the
    /// standard library: at `std`, `core` or `alloc`, directly or through a
    /// `use` of one of them (`use std::thread; thread::current()`). A crate
    /// with its own module of that name (topogen's `alloc`) keeps it.
    fn rooted_in_std(&self, file_idx: usize, segs: &[String]) -> bool {
        let file = &self.files[file_idx];
        let Some(first) = segs.first() else {
            return false;
        };
        let root = file
            .imports
            .iter()
            .find(|l| &l.alias == first)
            .and_then(|l| l.segments.first())
            .unwrap_or(first);
        matches!(root.as_str(), "std" | "core" | "alloc")
            && !self
                .fns
                .iter()
                .any(|f| f.krate == file.krate && f.module.first() == Some(root))
    }

    fn resolve_path(&self, file_idx: usize, segs: &[String], follow_imports: bool) -> Vec<usize> {
        if self.rooted_in_std(file_idx, segs) {
            return Vec::new();
        }
        // Normalise away leading `crate` / `self` / `super` qualifiers.
        let segs: Vec<&String> = segs
            .iter()
            .filter(|s| !matches!(s.as_str(), "crate" | "self" | "super"))
            .collect();
        let [head @ .., name] = &segs[..] else {
            return Vec::new();
        };
        match head {
            [] => {
                // Unqualified `f(..)`: an import may pin it to a path;
                // otherwise any same-crate function wins, falling back to
                // the whole workspace.
                if follow_imports {
                    let file = &self.files[file_idx];
                    if let Some(import) = file.imports.iter().find(|l| &l.alias == *name) {
                        let resolved = self.resolve_path(file_idx, &import.segments, false);
                        if !resolved.is_empty() {
                            return resolved;
                        }
                    }
                }
                let all = self.by_name.get(*name).cloned().unwrap_or_default();
                let krate = &self.files[file_idx].krate;
                let same_crate: Vec<usize> = all
                    .iter()
                    .copied()
                    .filter(|&id| &self.fns[id].krate == krate && self.fns[id].self_ty.is_none())
                    .collect();
                if same_crate.is_empty() {
                    all
                } else {
                    same_crate
                }
            }
            [.., qual] => {
                let q = qual.as_str();
                if q.chars().next().is_some_and(char::is_uppercase) {
                    // `Type::assoc(..)` — only workspace types resolve, so
                    // `Vec::new` can never alias a workspace function.
                    if self.workspace_types.contains(q) {
                        self.by_type_method
                            .get(&(q.to_owned(), (*name).clone()))
                            .cloned()
                            .unwrap_or_default()
                    } else {
                        Vec::new()
                    }
                } else {
                    // `module::f(..)` — match on the module/crate suffix;
                    // over-approximate to every same-named function if the
                    // written path matches nothing (re-exports).
                    let all = self.by_name.get(*name).cloned().unwrap_or_default();
                    let matched: Vec<usize> = all
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let f = &self.fns[id];
                            f.module.last().map(String::as_str) == Some(q)
                                || f.krate == q
                                || f.krate == q.replace('-', "_")
                        })
                        .collect();
                    if matched.is_empty() {
                        all
                    } else {
                        matched
                    }
                }
            }
        }
    }
}

fn collect_imports(items: &[Item], out: &mut Vec<UseLeaf>) {
    for item in items {
        match &item.kind {
            ItemKind::Use { leaves } => out.extend(leaves.iter().cloned()),
            ItemKind::Mod {
                items: Some(sub), ..
            } => collect_imports(sub, out),
            ItemKind::Impl { items: sub, .. } | ItemKind::Trait { items: sub, .. } => {
                collect_imports(sub, out);
            }
            _ => {}
        }
    }
}

/// The crate's module identifier: the `name` from `Cargo.toml` with `-`
/// mapped to `_`, falling back to the directory name.
fn crate_ident(dir: &Path) -> String {
    let manifest = dir.join("Cargo.toml");
    if let Ok(text) = fs::read_to_string(&manifest) {
        let mut in_package = false;
        for line in text.lines() {
            let line = line.trim();
            if line.starts_with('[') {
                in_package = line == "[package]";
                continue;
            }
            if in_package {
                if let Some(rest) = line.strip_prefix("name") {
                    let rest = rest.trim_start();
                    if let Some(value) = rest.strip_prefix('=') {
                        let name = value.trim().trim_matches('"');
                        return name.replace('-', "_");
                    }
                }
            }
        }
    }
    dir.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("unknown")
        .replace('-', "_")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_the_real_workspace() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("xtask sits two levels below the workspace root")
            .to_path_buf();
        let ws = Workspace::load(&root).expect("workspace sources readable");
        assert!(ws.files.len() > 30, "found {} files", ws.files.len());
        assert!(ws.fns.len() > 300, "found {} fns", ws.fns.len());
        // A few landmark functions must resolve by suffix.
        for suffix in [
            "breval_core::pipeline::Scenario::run",
            "asgraph::cone::customer_cone_sizes_csr",
            "breval_par::parallel_map",
        ] {
            assert!(
                !ws.match_suffix(suffix).is_empty(),
                "registry landmark {suffix} must resolve"
            );
        }
        // Type-qualified std calls never alias workspace functions.
        assert!(ws
            .resolve(0, &CallRef::Path(vec!["Vec".into(), "new".into()]))
            .is_empty());
    }

    #[test]
    fn std_rooted_paths_never_resolve_into_the_workspace() {
        let ws = Workspace::from_sources(
            "testcrate",
            &[(
                "src/lib.rs",
                "use std::thread;\n\
                 use std::thread::current as this_thread;\n\
                 pub struct Store;\n\
                 impl Store { pub fn current(&self) {} }\n\
                 pub fn current() {}\n\
                 pub mod alloc { pub fn fill() {} }\n",
            )],
        );
        let resolve = |path: &[&str]| {
            let segs = path.iter().map(|s| (*s).to_owned()).collect();
            ws.resolve(0, &CallRef::Path(segs))
        };
        for std_path in [
            &["std", "thread", "current"][..],
            &["core", "mem", "drop"],
            &["thread", "current"],
            &["this_thread"],
        ] {
            assert!(resolve(std_path).is_empty(), "{std_path:?} resolved");
        }
        // Workspace paths still resolve, including a crate's own `alloc`.
        assert_eq!(resolve(&["current"]).len(), 1);
        assert_eq!(resolve(&["alloc", "fill"]).len(), 1);
    }

    #[test]
    fn cfg_test_functions_are_marked() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root")
            .to_path_buf();
        let ws = Workspace::load(&root).expect("workspace sources readable");
        let (mut test_fns, mut prod_fns) = (0usize, 0usize);
        for f in &ws.fns {
            if f.is_test {
                test_fns += 1;
            } else {
                prod_fns += 1;
            }
        }
        assert!(test_fns > 50, "cfg(test) fns found: {test_fns}");
        assert!(prod_fns > 200, "production fns found: {prod_fns}");
    }
}
