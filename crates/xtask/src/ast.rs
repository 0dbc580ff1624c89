//! Item-level recursive-descent parser over the [`crate::tokens`] stream.
//!
//! The flow rules (L009–L011) need to know *which function* a token
//! belongs to, how functions nest in modules and impls, and what a file
//! imports — they do not need expression trees. So this parser recognises
//! exactly the item grammar: `mod` (inline and out-of-line), `use` trees
//! (flattened to leaves), `fn` items (bodies kept as token ranges into the
//! significant-token stream), `impl` and `trait` blocks (recursing into
//! their methods), and skips everything else with balanced-delimiter
//! recovery. Attributes are retained far enough to classify test-only code
//! (`#[cfg(test)]`, `#[test]`).
//!
//! The parser is deliberately *total*: malformed input never panics, it
//! degrades to `Other` items, so an analysis run can always report on the
//! rest of the workspace.

use crate::tokens::{Tok, TokKind};

/// A parsed source file: the significant (comment-free) token stream plus
/// the item tree whose body ranges index into it.
#[derive(Debug)]
pub struct ParsedSource {
    /// Significant tokens (comments stripped), in source order.
    pub toks: Vec<Tok>,
    /// Top-level items.
    pub items: Vec<Item>,
}

/// One leaf of a flattened `use` tree: `use a::b::{c, d as e};` yields
/// leaves `a::b::c` (alias `c`) and `a::b::d` (alias `e`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseLeaf {
    /// Full path segments, e.g. `["a", "b", "c"]`. A glob import ends in
    /// `"*"`.
    pub segments: Vec<String>,
    /// The name the import binds locally (last segment, or the `as` alias).
    pub alias: String,
}

/// A function item. `body` is a half-open range of indices into
/// [`ParsedSource::toks`] covering the braces and everything between them.
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// The function's name.
    pub name: String,
    /// Signature token range: from after the name to the body `{` / `;`.
    pub sig: (usize, usize),
    /// Body token range (including the outer braces); `None` for trait
    /// method declarations without a default body.
    pub body: Option<(usize, usize)>,
}

/// What an item is; only the variants the analysis needs carry structure.
#[derive(Debug)]
pub enum ItemKind {
    /// `mod name;` (out-of-line, `items == None`) or `mod name { … }`.
    Mod {
        /// Module name.
        name: String,
        /// Inline body, if any.
        items: Option<Vec<Item>>,
    },
    /// A `use` declaration, flattened.
    Use {
        /// The flattened leaves.
        leaves: Vec<UseLeaf>,
    },
    /// A free function.
    Fn(FnDecl),
    /// An `impl` block; `items` holds the associated functions.
    Impl {
        /// The self type's head identifier (`Foo` for `impl Foo<T>`).
        self_ty: String,
        /// The trait's head identifier for trait impls (`Display` for
        /// `impl fmt::Display for Foo`).
        trait_name: Option<String>,
        /// Associated items (functions; others become `Other`).
        items: Vec<Item>,
    },
    /// A trait definition; `items` holds method declarations.
    Trait {
        /// Trait name.
        name: String,
        /// Associated items.
        items: Vec<Item>,
    },
    /// Any other item (struct, enum, const, macro, …), skipped structurally.
    Other {
        /// The item's name when one was recognisable.
        name: Option<String>,
    },
}

/// One item with the attribute-derived classification the rules need.
#[derive(Debug)]
pub struct Item {
    /// Structure.
    pub kind: ItemKind,
    /// 1-based line of the item's first token.
    pub line: u32,
    /// Item carries `#[cfg(test)]` (or an attr mentioning `test`).
    pub cfg_test: bool,
    /// Item is a `#[test]` function.
    pub is_test_fn: bool,
}

/// Parses one file. Comments are stripped before parsing; the returned
/// token stream is what item body ranges index into.
#[must_use]
pub fn parse(src: &str) -> ParsedSource {
    let toks: Vec<Tok> = crate::tokens::tokenize(src)
        .into_iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let mut p = Parser {
        src,
        toks: &toks,
        pos: 0,
    };
    let items = p.parse_items(false);
    ParsedSource {
        toks: toks.clone(),
        items,
    }
}

struct Parser<'a> {
    src: &'a str,
    toks: &'a [Tok],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos)
    }

    fn peek_at(&self, off: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + off)
    }

    fn text(&self, t: &Tok) -> &'a str {
        t.text(self.src)
    }

    fn cur_is_punct(&self, p: &str) -> bool {
        self.peek().is_some_and(|t| t.is_punct(self.src, p))
    }

    fn cur_is_ident(&self, w: &str) -> bool {
        self.peek().is_some_and(|t| t.is_ident(self.src, w))
    }

    fn bump(&mut self) -> Option<&'a Tok> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    /// Consumes a balanced run starting at the current opening delimiter
    /// (`(`, `[` or `{`); nested delimiters of all three kinds are matched
    /// together. Returns the index one past the closing delimiter.
    fn skip_balanced(&mut self) -> usize {
        let mut depth = 0i64;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match self.text(t) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => {
                        depth -= 1;
                        if depth <= 0 {
                            self.pos += 1;
                            return self.pos;
                        }
                    }
                    _ => {}
                }
            }
            self.pos += 1;
        }
        self.pos
    }

    /// Consumes a generic parameter list starting at `<`. Tracks only angle
    /// depth plus bracketed sub-runs (const-generic `{…}` defaults).
    fn skip_generics(&mut self) {
        let mut depth = 0i64;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match self.text(t) {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth <= 0 {
                            self.pos += 1;
                            return;
                        }
                    }
                    "(" | "[" | "{" => {
                        self.skip_balanced();
                        continue;
                    }
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    /// Attributes before an item: `#[…]` (outer) and `#![…]` (inner).
    /// Returns the raw attribute texts.
    fn parse_attrs(&mut self) -> Vec<String> {
        let mut attrs = Vec::new();
        while self.cur_is_punct("#") {
            let start = self.peek().map_or(0, |t| t.start);
            self.pos += 1;
            if self.cur_is_punct("!") {
                self.pos += 1;
            }
            if self.cur_is_punct("[") {
                let end_idx = self.skip_balanced();
                let end = self
                    .toks
                    .get(end_idx.saturating_sub(1))
                    .map_or(start, |t| t.end);
                attrs.push(self.src[start..end].to_owned());
            } else {
                break; // stray `#` — not an attribute
            }
        }
        attrs
    }

    /// `pub`, `pub(crate)`, `pub(in …)`.
    fn parse_visibility(&mut self) {
        if self.cur_is_ident("pub") {
            self.pos += 1;
            if self.cur_is_punct("(") {
                self.skip_balanced();
            }
        }
    }

    fn parse_items(&mut self, inside_braces: bool) -> Vec<Item> {
        let mut items = Vec::new();
        while let Some(t) = self.peek() {
            if inside_braces && t.is_punct(self.src, "}") {
                break;
            }
            let before = self.pos;
            if let Some(item) = self.parse_item() {
                items.push(item);
            }
            if self.pos == before {
                self.pos += 1; // error recovery: never loop in place
            }
        }
        items
    }

    fn parse_item(&mut self) -> Option<Item> {
        let attrs = self.parse_attrs();
        let line = self.peek().map_or(0, |t| t.line);
        let cfg_test = attrs
            .iter()
            .any(|a| a.contains("cfg") && a.contains("test"));
        let is_test_fn = attrs.iter().any(|a| {
            let inner = a.trim_start_matches(['#', '!', '[']).trim_end_matches(']');
            inner == "test" || inner.ends_with("::test") || inner.starts_with("test(")
        });
        self.parse_visibility();

        // Item modifiers, in declaration order.
        while self
            .peek()
            .is_some_and(|t| matches!(self.text(t), "default" | "const" | "async" | "unsafe"))
        {
            // `const NAME: …` item vs `const fn`: only skip `const` as a
            // modifier when `fn`/`unsafe`/`async`/`extern` follows.
            if self.cur_is_ident("const")
                && !self
                    .peek_at(1)
                    .is_some_and(|t| matches!(self.text(t), "fn" | "unsafe" | "async" | "extern"))
            {
                break;
            }
            self.pos += 1;
        }
        if self.cur_is_ident("extern") {
            // `extern "C" fn`, `extern crate name;`, or an extern block.
            if self.peek_at(1).is_some_and(|t| t.kind == TokKind::Str) {
                self.pos += 2;
            } else if self
                .peek_at(1)
                .is_some_and(|t| t.is_ident(self.src, "crate"))
            {
                while self.peek().is_some() && !self.cur_is_punct(";") {
                    self.pos += 1;
                }
                self.pos += 1;
                return Some(Item {
                    kind: ItemKind::Other { name: None },
                    line,
                    cfg_test,
                    is_test_fn,
                });
            }
        }

        let kw = self.peek()?;
        let kind = match self.text(kw) {
            "mod" => self.parse_mod(),
            "use" => self.parse_use(),
            "fn" => self.parse_fn().map(ItemKind::Fn),
            "impl" => self.parse_impl(),
            "trait" => self.parse_trait(),
            "struct" | "enum" | "union" => self.parse_type_item(),
            "static" | "const" | "type" => self.parse_terminated_item(),
            "macro_rules" => self.parse_macro_def(),
            _ => self.parse_unknown(),
        };
        Some(Item {
            kind: kind.unwrap_or(ItemKind::Other { name: None }),
            line,
            cfg_test,
            is_test_fn,
        })
    }

    fn parse_mod(&mut self) -> Option<ItemKind> {
        self.pos += 1; // `mod`
        let name_tok = self.bump()?;
        let name = name_tok.text(self.src).to_owned();
        if self.cur_is_punct(";") {
            self.pos += 1;
            return Some(ItemKind::Mod { name, items: None });
        }
        if self.cur_is_punct("{") {
            self.pos += 1;
            let items = self.parse_items(true);
            self.pos += 1; // `}`
            return Some(ItemKind::Mod {
                name,
                items: Some(items),
            });
        }
        None
    }

    fn parse_use(&mut self) -> Option<ItemKind> {
        self.pos += 1; // `use`
        let mut leaves = Vec::new();
        self.parse_use_tree(&mut Vec::new(), &mut leaves);
        if self.cur_is_punct(";") {
            self.pos += 1;
        }
        Some(ItemKind::Use { leaves })
    }

    fn parse_use_tree(&mut self, prefix: &mut Vec<String>, leaves: &mut Vec<UseLeaf>) {
        let depth_at_entry = prefix.len();
        while let Some(t) = self.peek() {
            if t.is_punct(self.src, "{") {
                self.pos += 1;
                loop {
                    self.parse_use_tree(prefix, leaves);
                    if self.cur_is_punct(",") {
                        self.pos += 1;
                        continue;
                    }
                    break;
                }
                if self.cur_is_punct("}") {
                    self.pos += 1;
                }
                break;
            }
            if t.is_punct(self.src, "*") {
                self.pos += 1;
                let mut segments = prefix.clone();
                segments.push("*".to_owned());
                leaves.push(UseLeaf {
                    segments,
                    alias: "*".to_owned(),
                });
                break;
            }
            if t.kind == TokKind::Ident {
                let seg = self.text(t).to_owned();
                self.pos += 1;
                if self.cur_is_ident("as") {
                    self.pos += 1;
                    let alias = self
                        .bump()
                        .map_or_else(String::new, |a| a.text(self.src).to_owned());
                    prefix.push(seg);
                    leaves.push(UseLeaf {
                        segments: prefix.clone(),
                        alias,
                    });
                    prefix.truncate(depth_at_entry);
                    return;
                }
                prefix.push(seg);
                if self.cur_is_punct("::") {
                    self.pos += 1;
                    continue;
                }
                // Leaf.
                leaves.push(UseLeaf {
                    segments: prefix.clone(),
                    alias: prefix.last().cloned().unwrap_or_default(),
                });
                prefix.truncate(depth_at_entry);
                return;
            }
            break;
        }
        prefix.truncate(depth_at_entry);
    }

    fn parse_fn(&mut self) -> Option<FnDecl> {
        self.pos += 1; // `fn`
        let name_tok = self.bump()?;
        let name = name_tok.text(self.src).to_owned();
        let sig_start = self.pos;
        // Signature: optional generics, params, return type, where clause.
        if self.cur_is_punct("<") {
            self.skip_generics();
        }
        if self.cur_is_punct("(") {
            self.skip_balanced();
        }
        // Scan to the body `{` or the `;` of a bodiless declaration. Angle
        // depth is tracked so `-> Option<Box<dyn Fn() -> T>>` can't trip
        // the brace detection; `(`/`[` sub-runs are skipped balanced.
        let mut angle = 0i64;
        loop {
            let Some(t) = self.peek() else {
                return Some(FnDecl {
                    name,
                    sig: (sig_start, self.pos),
                    body: None,
                });
            };
            if t.kind == TokKind::Punct {
                match self.text(t) {
                    "<" => angle += 1,
                    ">" => angle = (angle - 1).max(0),
                    "(" | "[" => {
                        self.skip_balanced();
                        continue;
                    }
                    ";" => {
                        let sig_end = self.pos;
                        self.pos += 1;
                        return Some(FnDecl {
                            name,
                            sig: (sig_start, sig_end),
                            body: None,
                        });
                    }
                    "{" if angle == 0 => {
                        let sig_end = self.pos;
                        let body_start = self.pos;
                        let body_end = self.skip_balanced();
                        return Some(FnDecl {
                            name,
                            sig: (sig_start, sig_end),
                            body: Some((body_start, body_end)),
                        });
                    }
                    "{" => {
                        // Const-generic default expression inside generics.
                        self.skip_balanced();
                        continue;
                    }
                    _ => {}
                }
            }
            self.pos += 1;
        }
    }

    fn parse_impl(&mut self) -> Option<ItemKind> {
        self.pos += 1; // `impl`
        if self.cur_is_punct("<") {
            self.skip_generics();
        }
        // Collect the head up to `{`, splitting on a depth-0 `for`.
        let mut pre_for: Vec<String> = Vec::new();
        let mut post_for: Vec<String> = Vec::new();
        let mut saw_for = false;
        let mut angle = 0i64;
        loop {
            let t = self.peek()?;
            if t.kind == TokKind::Punct {
                match self.text(t) {
                    "<" => angle += 1,
                    ">" => angle = (angle - 1).max(0),
                    "(" | "[" => {
                        self.skip_balanced();
                        continue;
                    }
                    "{" if angle == 0 => break,
                    _ => {}
                }
            }
            if t.is_ident(self.src, "for") && angle == 0 {
                saw_for = true;
                self.pos += 1;
                continue;
            }
            if t.is_ident(self.src, "where") && angle == 0 {
                // Where clause: skip to the `{`.
                while let Some(w) = self.peek() {
                    if w.is_punct(self.src, "{") {
                        break;
                    }
                    if w.is_punct(self.src, "(") || w.is_punct(self.src, "[") {
                        self.skip_balanced();
                        continue;
                    }
                    self.pos += 1;
                }
                break;
            }
            if t.kind == TokKind::Ident && angle == 0 {
                let target = if saw_for { &mut post_for } else { &mut pre_for };
                target.push(self.text(t).to_owned());
            }
            self.pos += 1;
        }
        // `impl Ty { }` → head idents are the type; `impl Tr for Ty { }` →
        // pre-`for` is the trait, post-`for` the type. The *last* ident of
        // a path (`serde::Serialize`) is its head name.
        let (trait_name, self_ty) = if saw_for {
            (pre_for.last().cloned(), post_for.last().cloned())
        } else {
            (None, pre_for.last().cloned())
        };
        self.pos += 1; // `{`
        let items = self.parse_items(true);
        self.pos += 1; // `}`
        Some(ItemKind::Impl {
            self_ty: self_ty.unwrap_or_default(),
            trait_name,
            items,
        })
    }

    fn parse_trait(&mut self) -> Option<ItemKind> {
        self.pos += 1; // `trait`
        let name_tok = self.bump()?;
        let name = name_tok.text(self.src).to_owned();
        if self.cur_is_punct("<") {
            self.skip_generics();
        }
        // Supertraits / where clause: scan to the body `{`.
        let mut angle = 0i64;
        while let Some(t) = self.peek() {
            if t.kind == TokKind::Punct {
                match self.text(t) {
                    "<" => angle += 1,
                    ">" => angle = (angle - 1).max(0),
                    "(" | "[" => {
                        self.skip_balanced();
                        continue;
                    }
                    "{" if angle == 0 => break,
                    ";" => {
                        // Trait alias `trait A = B;`.
                        self.pos += 1;
                        return Some(ItemKind::Trait {
                            name,
                            items: Vec::new(),
                        });
                    }
                    _ => {}
                }
            }
            self.pos += 1;
        }
        self.pos += 1; // `{`
        let items = self.parse_items(true);
        self.pos += 1; // `}`
        Some(ItemKind::Trait { name, items })
    }

    /// `struct`/`enum`/`union`: record the name, skip the definition.
    fn parse_type_item(&mut self) -> Option<ItemKind> {
        self.pos += 1;
        let name = self
            .peek()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| self.text(t).to_owned());
        if name.is_some() {
            self.pos += 1;
        }
        if self.cur_is_punct("<") {
            self.skip_generics();
        }
        // Struct bodies: `{…}`, tuple `(&…);`, or unit `;`. Enums: `{…}`.
        while let Some(t) = self.peek() {
            match (t.kind, self.text(t)) {
                (TokKind::Punct, "{") => {
                    self.skip_balanced();
                    break;
                }
                (TokKind::Punct, "(") | (TokKind::Punct, "[") => {
                    self.skip_balanced();
                }
                (TokKind::Punct, ";") => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        Some(ItemKind::Other { name })
    }

    /// `const`/`static`/`type` items: skip to the terminating `;`.
    fn parse_terminated_item(&mut self) -> Option<ItemKind> {
        self.pos += 1;
        let name = self
            .peek()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| self.text(t).to_owned());
        while let Some(t) = self.peek() {
            match (t.kind, self.text(t)) {
                (TokKind::Punct, "(") | (TokKind::Punct, "[") | (TokKind::Punct, "{") => {
                    self.skip_balanced();
                }
                (TokKind::Punct, ";") => {
                    self.pos += 1;
                    break;
                }
                _ => self.pos += 1,
            }
        }
        Some(ItemKind::Other { name })
    }

    fn parse_macro_def(&mut self) -> Option<ItemKind> {
        self.pos += 1; // `macro_rules`
        if self.cur_is_punct("!") {
            self.pos += 1;
        }
        let name = self
            .peek()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| self.text(t).to_owned());
        if name.is_some() {
            self.pos += 1;
        }
        if self
            .peek()
            .is_some_and(|t| matches!(self.text(t), "(" | "[" | "{"))
        {
            self.skip_balanced();
        }
        if self.cur_is_punct(";") {
            self.pos += 1;
        }
        Some(ItemKind::Other { name })
    }

    /// Anything unrecognised — most commonly a top-level macro invocation
    /// (`foo!{…}`) — is skipped to the next plausible item boundary.
    fn parse_unknown(&mut self) -> Option<ItemKind> {
        while let Some(t) = self.peek() {
            match (t.kind, self.text(t)) {
                (TokKind::Punct, "{") => {
                    self.skip_balanced();
                    break;
                }
                (TokKind::Punct, "(") | (TokKind::Punct, "[") => {
                    self.skip_balanced();
                }
                (TokKind::Punct, ";") => {
                    self.pos += 1;
                    break;
                }
                (TokKind::Punct, "}") => break,
                _ => self.pos += 1,
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fns_of(items: &[Item]) -> Vec<&FnDecl> {
        let mut out = Vec::new();
        fn walk<'a>(items: &'a [Item], out: &mut Vec<&'a FnDecl>) {
            for item in items {
                match &item.kind {
                    ItemKind::Fn(f) => out.push(f),
                    ItemKind::Mod {
                        items: Some(sub), ..
                    } => walk(sub, out),
                    ItemKind::Impl { items, .. } | ItemKind::Trait { items, .. } => {
                        walk(items, out);
                    }
                    _ => {}
                }
            }
        }
        walk(items, &mut out);
        out
    }

    #[test]
    fn parses_fns_mods_and_impls() {
        let src = "mod outer { pub fn inner(x: usize) -> usize { x + 1 } }\n\
                   pub struct S { a: u32 }\n\
                   impl S { fn method(&self) -> u32 { self.a } }\n\
                   impl std::fmt::Display for S {\n\
                       fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result { Ok(()) }\n\
                   }\n\
                   fn free<T: Clone>(t: &T) -> T where T: Sized { t.clone() }\n";
        let parsed = parse(src);
        let fns = fns_of(&parsed.items);
        let names: Vec<&str> = fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["inner", "method", "fmt", "free"]);
        assert!(fns.iter().all(|f| f.body.is_some()));
        // The Display impl is recognised as a trait impl.
        let has_display_impl = parsed.items.iter().any(|i| {
            matches!(&i.kind, ItemKind::Impl { self_ty, trait_name, .. }
                     if self_ty == "S" && trait_name.as_deref() == Some("Display"))
        });
        assert!(has_display_impl);
    }

    #[test]
    fn use_trees_flatten() {
        let src = "use std::collections::{HashMap, btree_map::Entry as E};\nuse crate::foo::*;\n";
        let parsed = parse(src);
        let mut leaves = Vec::new();
        for item in &parsed.items {
            if let ItemKind::Use { leaves: l } = &item.kind {
                leaves.extend(l.iter().cloned());
            }
        }
        assert!(leaves
            .iter()
            .any(|l| l.alias == "HashMap" && l.segments == ["std", "collections", "HashMap"]));
        assert!(leaves
            .iter()
            .any(|l| l.alias == "E" && l.segments.ends_with(&["Entry".into()])));
        assert!(leaves.iter().any(|l| l.alias == "*"));
    }

    #[test]
    fn cfg_test_and_test_fns_are_classified() {
        let src = "#[cfg(test)]\nmod tests {\n  #[test]\n  fn t() { assert!(true); }\n}\n\
                   fn prod() {}\n";
        let parsed = parse(src);
        let m = &parsed.items[0];
        assert!(m.cfg_test);
        if let ItemKind::Mod {
            items: Some(sub), ..
        } = &m.kind
        {
            assert!(sub[0].is_test_fn);
        } else {
            panic!("expected inline mod");
        }
        assert!(!parsed.items[1].cfg_test);
    }

    #[test]
    fn generic_heavy_signatures_find_their_bodies() {
        let src = "fn f<T, F: Fn(usize) -> Option<Box<dyn Iterator<Item = T>>>>(g: F) -> Vec<T>\n\
                   where T: Ord { let v: Vec<T> = Vec::new(); v }\n";
        let parsed = parse(src);
        let fns = fns_of(&parsed.items);
        assert_eq!(fns.len(), 1);
        let (b0, b1) = fns[0].body.expect("body found");
        let body: Vec<&str> = parsed.toks[b0..b1].iter().map(|t| t.text(src)).collect();
        assert_eq!(body.first().copied(), Some("{"));
        assert_eq!(body.last().copied(), Some("}"));
        assert!(body.contains(&"Vec"));
    }

    #[test]
    fn bodiless_trait_methods() {
        let src = "trait T { fn decl(&self) -> usize; fn with_default(&self) -> usize { 1 } }\n";
        let parsed = parse(src);
        let fns = fns_of(&parsed.items);
        assert_eq!(fns.len(), 2);
        assert!(fns[0].body.is_none());
        assert!(fns[1].body.is_some());
    }

    #[test]
    fn malformed_input_never_panics() {
        for src in [
            "fn",
            "impl {",
            "use ;;",
            "mod m { fn f( }",
            "} } {{",
            "#[",
            "trait",
        ] {
            let _ = parse(src);
        }
    }
}
