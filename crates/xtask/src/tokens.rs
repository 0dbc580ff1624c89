//! Full-fidelity Rust token stream with byte spans, and the per-file view
//! the project rules read from it.
//!
//! Both analysis layers lex with [`tokenize`]. The token rules
//! ([`crate::rules`]) read a [`Scanned`] file: its significant tokens,
//! which of them sit in `#[cfg(test)]` items, and the waiver pragmas in its
//! line comments. The semantic layer ([`crate::ast`], [`crate::callgraph`])
//! parses items from the same stream, and `deepcheck` resolves its waivers
//! through [`scan`] too. Every token knows its exact byte span in the
//! original source, which is what makes nested block comments, raw strings
//! with `##` repetition, and multi-line literals load-bearing rather than
//! approximated: a rule never guesses where a literal ends, it asks the
//! token.
//!
//! Invariant (proptested over every workspace source file): tokens are
//! strictly ordered, non-overlapping, and the bytes *between* consecutive
//! tokens are pure whitespace — so re-emitting `src[tok.start..tok.end]`
//! plus the original gaps reproduces the file byte-identically.

use std::collections::BTreeSet;

/// What kind of lexeme a token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// An identifier or keyword (`fn`, `foo`, `r#type`).
    Ident,
    /// A lifetime or loop label (`'a`, `'static`).
    Lifetime,
    /// A numeric literal, including suffix (`42u32`, `0xff`, `1.5e3`).
    Number,
    /// A string literal of any flavour: `"…"`, `r#"…"#`, `b"…"`, `br"…"`.
    Str,
    /// A char or byte literal (`'x'`, `b'\n'`).
    Char,
    /// Punctuation. `::`, `->` and `=>` are single tokens; everything else
    /// is one character per token.
    Punct,
    /// A line or block comment (doc comments included).
    Comment,
}

/// One token with its byte span into the source it was lexed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tok {
    /// Lexeme class.
    pub kind: TokKind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line of the first byte.
    pub line: u32,
}

impl Tok {
    /// The token's text, sliced out of the source it was produced from.
    #[must_use]
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        &src[self.start..self.end]
    }

    /// `true` if the token is this exact identifier/keyword.
    #[must_use]
    pub fn is_ident(&self, src: &str, word: &str) -> bool {
        self.kind == TokKind::Ident && self.text(src) == word
    }

    /// `true` if the token is this exact punctuation.
    #[must_use]
    pub fn is_punct(&self, src: &str, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text(src) == p
    }
}

fn ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Lexes `src` into a complete token stream. Never fails: malformed input
/// (unterminated literals, stray bytes) degrades to best-effort tokens so
/// the analysis layer can still look at the rest of the file.
#[must_use]
pub fn tokenize(src: &str) -> Vec<Tok> {
    let chars: Vec<(usize, char)> = src.char_indices().collect();
    let n = chars.len();
    let at = |k: usize| chars.get(k).map(|&(_, c)| c);
    let bpos = |k: usize| chars.get(k).map_or(src.len(), |&(b, _)| b);

    let mut toks: Vec<Tok> = Vec::new();
    let mut line: u32 = 1;
    let mut i = 0usize;
    while i < n {
        let (b, c) = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Line comment — runs to (not including) the newline.
        if c == '/' && at(i + 1) == Some('/') {
            let mut j = i;
            while j < n && at(j) != Some('\n') {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Comment,
                start: b,
                end: bpos(j),
                line,
            });
            i = j;
            continue;
        }
        // Block comment — nests, may span lines.
        if c == '/' && at(i + 1) == Some('*') {
            let start_line = line;
            let mut depth = 1u32;
            let mut j = i + 2;
            while j < n && depth > 0 {
                match (at(j), at(j + 1)) {
                    (Some('*'), Some('/')) => {
                        depth -= 1;
                        j += 2;
                    }
                    (Some('/'), Some('*')) => {
                        depth += 1;
                        j += 2;
                    }
                    (Some('\n'), _) => {
                        line += 1;
                        j += 1;
                    }
                    _ => j += 1,
                }
            }
            toks.push(Tok {
                kind: TokKind::Comment,
                start: b,
                end: bpos(j),
                line: start_line,
            });
            i = j;
            continue;
        }
        // Identifier-started lexemes, including the literal prefixes
        // `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'` and raw identifiers
        // `r#ident`.
        if c.is_alphabetic() || c == '_' {
            // Raw string (optionally byte): r/br followed by #* then ".
            let raw_skip = match c {
                'r' => Some(i + 1),
                'b' if at(i + 1) == Some('r') => Some(i + 2),
                _ => None,
            };
            if let Some(mut j) = raw_skip {
                let hash_start = j;
                while at(j) == Some('#') {
                    j += 1;
                }
                let hashes = j - hash_start;
                if at(j) == Some('"') {
                    let start_line = line;
                    j += 1;
                    'raw: while j < n {
                        match at(j) {
                            Some('\n') => line += 1,
                            Some('"') => {
                                let mut ok = true;
                                for k in 0..hashes {
                                    if at(j + 1 + k) != Some('#') {
                                        ok = false;
                                        break;
                                    }
                                }
                                if ok {
                                    j += 1 + hashes;
                                    break 'raw;
                                }
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Str,
                        start: b,
                        end: bpos(j),
                        line: start_line,
                    });
                    i = j;
                    continue;
                }
                // Raw identifier r#ident — fall through to ident scan below
                // (the `#` is consumed as part of the identifier).
                if c == 'r' && hashes == 1 && at(j).is_some_and(ident_char) {
                    while j < n && at(j).is_some_and(ident_char) {
                        j += 1;
                    }
                    toks.push(Tok {
                        kind: TokKind::Ident,
                        start: b,
                        end: bpos(j),
                        line,
                    });
                    i = j;
                    continue;
                }
            }
            // Byte string b"…" / byte char b'…'.
            if c == 'b' && at(i + 1) == Some('"') {
                let (j, nl) = scan_quoted(&chars, i + 1, '"');
                toks.push(Tok {
                    kind: TokKind::Str,
                    start: b,
                    end: bpos(j),
                    line,
                });
                line += nl;
                i = j;
                continue;
            }
            if c == 'b' && at(i + 1) == Some('\'') {
                let (j, nl) = scan_quoted(&chars, i + 1, '\'');
                toks.push(Tok {
                    kind: TokKind::Char,
                    start: b,
                    end: bpos(j),
                    line,
                });
                line += nl;
                i = j;
                continue;
            }
            // Plain identifier / keyword.
            let mut j = i + 1;
            while j < n && at(j).is_some_and(ident_char) {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                start: b,
                end: bpos(j),
                line,
            });
            i = j;
            continue;
        }
        // Numbers: integer/float with radix prefixes and type suffixes.
        if c.is_ascii_digit() {
            let mut j = i + 1;
            // Radix prefix consumes hex digits too; suffixes are plain
            // alphanumerics — one ident-char sweep covers both.
            while j < n && at(j).is_some_and(ident_char) {
                j += 1;
            }
            // Fractional part only when `.` is followed by a digit, so
            // ranges (`0..n`) and method calls (`1.max(x)`) stay separate.
            if at(j) == Some('.') && at(j + 1).is_some_and(|d| d.is_ascii_digit()) {
                j += 1;
                while j < n && at(j).is_some_and(ident_char) {
                    j += 1;
                }
            }
            // Signed exponent (`1e-5`): the sweep stops at `-`/`+`.
            if at(j.wrapping_sub(1)).is_some_and(|e| e == 'e' || e == 'E')
                && matches!(at(j), Some('+') | Some('-'))
                && at(j + 1).is_some_and(|d| d.is_ascii_digit())
            {
                j += 1;
                while j < n && at(j).is_some_and(ident_char) {
                    j += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Number,
                start: b,
                end: bpos(j),
                line,
            });
            i = j;
            continue;
        }
        // Plain string literal.
        if c == '"' {
            let start_line = line;
            let (j, nl) = scan_quoted(&chars, i, '"');
            toks.push(Tok {
                kind: TokKind::Str,
                start: b,
                end: bpos(j),
                line: start_line,
            });
            line += nl;
            i = j;
            continue;
        }
        // `'` — lifetime, loop label, or char literal.
        if c == '\'' {
            let next = at(i + 1);
            let is_char = match next {
                Some('\\') => true,
                Some(nc) if ident_char(nc) => at(i + 2) == Some('\''),
                Some('\'') => false, // `''` is malformed; treat as puncts
                Some(_) => at(i + 2) == Some('\''), // 'x' for any single char
                None => false,
            };
            if is_char {
                let (j, nl) = scan_quoted(&chars, i, '\'');
                toks.push(Tok {
                    kind: TokKind::Char,
                    start: b,
                    end: bpos(j),
                    line,
                });
                line += nl;
                i = j;
                continue;
            }
            if next.is_some_and(|nc| nc.is_alphabetic() || nc == '_') {
                let mut j = i + 1;
                while j < n && at(j).is_some_and(ident_char) {
                    j += 1;
                }
                toks.push(Tok {
                    kind: TokKind::Lifetime,
                    start: b,
                    end: bpos(j),
                    line,
                });
                i = j;
                continue;
            }
            // Fall through: stray quote becomes a punct.
        }
        // Punctuation: the three compounds the parser keys on, then single
        // characters.
        let two: String = [c, at(i + 1).unwrap_or(' ')].iter().collect();
        let step = if matches!(two.as_str(), "::" | "->" | "=>") {
            2
        } else {
            1
        };
        toks.push(Tok {
            kind: TokKind::Punct,
            start: b,
            end: bpos(i + step),
            line,
        });
        i += step;
    }
    toks
}

/// Scans a quoted literal starting at the opening quote `chars[open]`;
/// returns (index one past the closing quote, newlines crossed). Handles
/// `\` escapes; unterminated literals run to end of input.
fn scan_quoted(chars: &[(usize, char)], open: usize, quote: char) -> (usize, u32) {
    let n = chars.len();
    let at = |k: usize| chars.get(k).map(|&(_, c)| c);
    let mut j = open + 1;
    let mut newlines = 0u32;
    while j < n {
        match at(j) {
            Some('\\') => {
                // A `\` line continuation still ends a source line.
                newlines += u32::from(at(j + 1) == Some('\n'));
                j += 2;
            }
            Some('\n') => {
                newlines += 1;
                j += 1;
            }
            Some(q) if q == quote => return (j + 1, newlines),
            _ => j += 1,
        }
    }
    (n, newlines)
}

/// One source file as the token rules read it: the significant
/// (comment-free) tokens, which of them sit in test-only code, and the
/// waiver pragmas `// breval-lint: allow(L001,L003) -- <reason>` found in
/// its line comments.
#[derive(Debug)]
pub struct Scanned<'a> {
    /// The source the tokens index into.
    pub src: &'a str,
    /// Significant tokens, in source order.
    pub toks: Vec<Tok>,
    /// `in_test[k]`: `toks[k]` lies in an item under `#[cfg(test)]`.
    pub in_test: Vec<bool>,
    /// `(line, error)` for each `breval-lint:` pragma that does not parse.
    pub malformed: Vec<(u32, String)>,
    /// `(line, rule)` for each rule a pragma waives on that 1-based line.
    waived: BTreeSet<(u32, String)>,
}

impl<'a> Scanned<'a> {
    /// `true` if a pragma waives `rule` on the 1-based `line`.
    #[must_use]
    pub fn waived(&self, line: u32, rule: &str) -> bool {
        self.waived.contains(&(line, rule.to_owned()))
    }

    /// The text of `toks[k]`, or `""` past the end.
    #[must_use]
    pub fn text(&self, k: usize) -> &'a str {
        self.toks.get(k).map_or("", |t| t.text(self.src))
    }

    /// The body of the string literal at `toks[k]` (quotes, `b`/`r`
    /// prefix and raw `#`s removed); `None` if `toks[k]` is not one.
    #[must_use]
    pub fn str_at(&self, k: usize) -> Option<&'a str> {
        let tok = self.toks.get(k).filter(|t| t.kind == TokKind::Str)?;
        let quoted = tok
            .text(self.src)
            .trim_start_matches(['b', 'r'])
            .trim_matches('#');
        let body = quoted.strip_prefix('"')?;
        Some(body.strip_suffix('"').unwrap_or(body))
    }
}

/// Lexes `src` once and derives what the token rules read: test-only
/// regions and waiver pragmas. A pragma waives its own line when code
/// shares it, and otherwise the next line that has code.
#[must_use]
pub fn scan(src: &str) -> Scanned<'_> {
    let (comments, toks): (Vec<Tok>, Vec<Tok>) = tokenize(src)
        .into_iter()
        .partition(|t| t.kind == TokKind::Comment);
    let code_lines: BTreeSet<u32> = toks.iter().map(|t| t.line).collect();
    let mut waived = BTreeSet::new();
    let mut malformed = Vec::new();
    for comment in &comments {
        let Some(tail) = pragma_tail(comment.text(src)) else {
            continue;
        };
        match parse_pragma(tail) {
            Ok(rules) => {
                if let Some(&line) = code_lines.range(comment.line..).next() {
                    waived.extend(rules.into_iter().map(|r| (line, r)));
                }
            }
            Err(e) => malformed.push((comment.line, e)),
        }
    }
    let in_test = test_regions(src, &toks);
    Scanned {
        src,
        toks,
        in_test,
        malformed,
        waived,
    }
}

/// Marks the tokens of each item under `#[cfg(test)]`: from the attribute
/// through the brace that closes the item's body, or through its `;` when
/// it has none (a `use`, a tuple struct).
fn test_regions(src: &str, toks: &[Tok]) -> Vec<bool> {
    const CFG_TEST: [&str; 7] = ["#", "[", "cfg", "(", "test", ")", "]"];
    let mut in_test = vec![false; toks.len()];
    let mut k = 0;
    while k < toks.len() {
        let is_attr = toks.len() - k >= CFG_TEST.len()
            && CFG_TEST
                .iter()
                .zip(&toks[k..])
                .all(|(want, t)| t.text(src) == *want);
        if !is_attr {
            k += 1;
            continue;
        }
        let mut end = toks.len();
        let mut depth = 0i32;
        for (j, t) in toks.iter().enumerate().skip(k + CFG_TEST.len()) {
            match t.text(src) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" => depth -= 1,
                "}" => {
                    depth -= 1;
                    if depth <= 0 {
                        end = j + 1;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    end = j + 1;
                    break;
                }
                _ => {}
            }
        }
        in_test[k..end].fill(true);
        k = end;
    }
    in_test
}

/// The text after `breval-lint:` when a line comment is a pragma. The
/// marker must open the comment, so prose that merely mentions the syntax
/// is never one; doc comments (`///`, `//!`) are documentation.
fn pragma_tail(comment: &str) -> Option<&str> {
    let body = comment.strip_prefix("//")?;
    if body.starts_with(['/', '!']) {
        return None;
    }
    body.trim_start().strip_prefix("breval-lint:")
}

/// Parses a pragma tail, `allow(L001,L003) -- reason text`, into the rule
/// ids it waives. The reason is mandatory.
fn parse_pragma(tail: &str) -> Result<Vec<String>, String> {
    let tail = tail.trim();
    let Some(rest) = tail.strip_prefix("allow(") else {
        return Err(format!("expected `allow(<rules>)`, got `{tail}`"));
    };
    let Some((list, after)) = rest.split_once(')') else {
        return Err("unclosed `allow(` in pragma".to_owned());
    };
    let rules: Vec<String> = list
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    let is_rule_id = |r: &String| {
        r.len() == 4 && r.starts_with('L') && r[1..].chars().all(|c| c.is_ascii_digit())
    };
    if rules.is_empty() || !rules.iter().all(is_rule_id) {
        return Err(format!("bad rule list `{list}`"));
    }
    let Some(reason) = after.trim().strip_prefix("--") else {
        return Err("waiver is missing a `-- <reason>` justification".to_owned());
    };
    if reason.trim().len() < 10 {
        return Err("waiver reason must be a real justification (≥ 10 chars)".to_owned());
    }
    Ok(rules)
}

/// Checks the re-emission invariant: tokens ordered, non-overlapping, and
/// all inter-token gaps pure whitespace. Returns a description of the first
/// violation, if any — the round-trip test asserts `None` on every
/// workspace source file.
#[must_use]
pub fn roundtrip_violation(src: &str) -> Option<String> {
    let toks = tokenize(src);
    let mut prev_end = 0usize;
    for (idx, t) in toks.iter().enumerate() {
        if t.start < prev_end {
            return Some(format!(
                "token {idx} at {}..{} overlaps previous end {prev_end}",
                t.start, t.end
            ));
        }
        if t.end < t.start || t.end > src.len() {
            return Some(format!("token {idx} has bad span {}..{}", t.start, t.end));
        }
        let gap = &src[prev_end..t.start];
        if !gap.chars().all(char::is_whitespace) {
            return Some(format!(
                "non-whitespace bytes {gap:?} dropped before token {idx} at {}",
                t.start
            ));
        }
        prev_end = t.end;
    }
    let tail = &src[prev_end..];
    if !tail.chars().all(char::is_whitespace) {
        return Some(format!("non-whitespace tail {tail:?} after last token"));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(TokKind, &str)> {
        tokenize(src)
            .into_iter()
            .filter(|t| t.kind != TokKind::Comment)
            .map(|t| (t.kind, &src[t.start..t.end]))
            .collect()
    }

    #[test]
    fn nested_block_comments_lex_exactly() {
        let src = "/* a /* b /* c */ d */ e */ fn f() {}";
        let toks = tokenize(src);
        assert_eq!(toks[0].kind, TokKind::Comment);
        assert_eq!(toks[0].text(src), "/* a /* b /* c */ d */ e */");
        assert_eq!(toks[1].text(src), "fn");
        assert!(roundtrip_violation(src).is_none());
    }

    #[test]
    fn raw_strings_with_many_hashes() {
        let src = r####"let s = r##"quote "# inside"## ; let t = r###"x"###;"####;
        let v = texts(src);
        assert!(v.contains(&(TokKind::Str, r###"r##"quote "# inside"##"###)));
        assert!(v.contains(&(TokKind::Str, r####"r###"x"###"####)));
        assert!(roundtrip_violation(src).is_none());
    }

    #[test]
    fn byte_and_raw_byte_strings() {
        let src = "let a = b\"bytes\"; let b2 = br#\"raw \"b\"\"#; let c = b'x';";
        let v = texts(src);
        assert!(v.contains(&(TokKind::Str, "b\"bytes\"")));
        assert!(v.contains(&(TokKind::Str, "br#\"raw \"b\"\"#")));
        assert!(v.contains(&(TokKind::Char, "b'x'")));
        assert!(roundtrip_violation(src).is_none());
    }

    #[test]
    fn ident_ending_in_r_is_not_a_raw_string() {
        let src = "let x = var \"s\"; let y = r\"real raw\"; let z = var\"t\";";
        let v = texts(src);
        assert!(v.contains(&(TokKind::Ident, "var")));
        assert!(v.contains(&(TokKind::Str, "\"s\"")));
        assert!(v.contains(&(TokKind::Str, "\"t\"")));
        assert!(v.contains(&(TokKind::Str, "r\"real raw\"")));
    }

    #[test]
    fn raw_identifiers_and_lifetimes_and_chars() {
        let src = "let r#type = 'a'; let l: &'static str = \"\"; let c = '\\n'; 'outer: loop {}";
        let v = texts(src);
        assert!(v.contains(&(TokKind::Ident, "r#type")));
        assert!(v.contains(&(TokKind::Char, "'a'")));
        assert!(v.contains(&(TokKind::Lifetime, "'static")));
        assert!(v.contains(&(TokKind::Char, "'\\n'")));
        assert!(v.contains(&(TokKind::Lifetime, "'outer")));
    }

    #[test]
    fn numbers_ranges_and_methods_stay_separate() {
        let v = texts("for i in 0..10 { let x = 1.5e-3f64; let y = 2.max(i); let h = 0xff_u8; }");
        assert!(v.contains(&(TokKind::Number, "0")));
        assert!(v.contains(&(TokKind::Number, "10")));
        assert!(v.contains(&(TokKind::Number, "1.5e-3f64")));
        assert!(v.contains(&(TokKind::Number, "2")));
        assert!(v.contains(&(TokKind::Ident, "max")));
        assert!(v.contains(&(TokKind::Number, "0xff_u8")));
    }

    #[test]
    fn compound_puncts() {
        let v = texts("fn f() -> T { m::g(); |x| => x }");
        assert!(v.contains(&(TokKind::Punct, "->")));
        assert!(v.contains(&(TokKind::Punct, "::")));
        assert!(v.contains(&(TokKind::Punct, "=>")));
    }

    #[test]
    fn multiline_strings_roundtrip() {
        let src = "let s = \"line one\n  line two\";\nlet r = r#\"raw\nmore\"#;\nfn g() {}";
        assert!(roundtrip_violation(src).is_none());
        let toks = tokenize(src);
        let g = toks
            .iter()
            .find(|t| t.text(src) == "g")
            .expect("fn g tokenized");
        assert_eq!(g.line, 5, "line counting must survive multi-line literals");
    }

    #[test]
    fn string_continuations_keep_line_numbers() {
        // Regression: a `\` line continuation inside a string used to drop
        // its newline from the count, shifting every later line by one.
        let src = "let s = \"one \\\n    two\";\nlet t = 1;\n";
        let toks = tokenize(src);
        let t = toks.iter().find(|t| t.text(src) == "t").expect("`t` lexed");
        assert_eq!(t.line, 3);
        let sc = scan(src);
        assert_eq!(sc.str_at(3), Some("one \\\n    two"));
    }

    #[test]
    fn scan_reads_string_bodies_of_every_flavour() {
        let src = "f(\"plain\", r##\"a \"# b\"##, br#\"x\"#, \"\", 1);";
        let sc = scan(src);
        let bodies: Vec<_> = (0..sc.toks.len()).filter_map(|k| sc.str_at(k)).collect();
        assert_eq!(bodies, ["plain", "a \"# b", "x", ""]);
        assert_eq!(sc.str_at(0), None, "`f` is not a string");
    }

    #[test]
    fn scan_drops_comments_nested_or_multiline() {
        let sc = scan("/* x /* y\n z */ still y.expect(&m) */ let w = 2;\nlet v = 3;\n");
        assert_eq!(sc.text(0), "let");
        assert_eq!(sc.toks[0].line, 2);
        assert!((0..sc.toks.len()).all(|k| sc.text(k) != "expect"));
    }

    #[test]
    fn cfg_test_region_closes_with_its_brace_or_semicolon() {
        let src = "fn real() {}\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn after() {}\n\
                   #[cfg(test)]\nfn sized(a: [u8; 4]) { body(); }\nfn mid() {}\n\
                   #[cfg(test)]\nuse std::fmt;\nfn last() {}\n";
        let sc = scan(src);
        let in_test = |name: &str| (0..sc.toks.len()).any(|k| sc.text(k) == name && sc.in_test[k]);
        for inside in ["tests", "helper", "sized", "body", "fmt"] {
            assert!(in_test(inside), "{inside} lies in a test item");
        }
        for outside in ["real", "after", "mid", "last"] {
            assert!(!in_test(outside), "{outside} lies outside every test item");
        }
    }

    #[test]
    fn pragma_waives_its_line_or_carries_to_the_next_code_line() {
        let src = "// breval-lint: allow(L001, L003) -- intentionally partial fixture\n\n\
                   x.expect(&m);\ny.expect(&m); // breval-lint: allow(L009) -- trailing waiver reason\n";
        let sc = scan(src);
        assert!(sc.waived(3, "L001") && sc.waived(3, "L003"));
        assert!(!sc.waived(3, "L005") && !sc.waived(1, "L001"));
        assert!(sc.waived(4, "L009") && !sc.waived(3, "L009"));
        assert!(sc.malformed.is_empty(), "{:?}", sc.malformed);
    }

    #[test]
    fn pragma_without_reason_is_malformed_and_waives_nothing() {
        for src in [
            "x.expect(&m); // breval-lint: allow(L001)\n",
            "x.expect(&m); // breval-lint: allow(L001) -- short\n",
            "x.expect(&m); // breval-lint: allow(X1) -- a long enough reason\n",
            "x.expect(&m); // breval-lint: deny(L001) -- a long enough reason\n",
        ] {
            let sc = scan(src);
            assert_eq!(sc.malformed.len(), 1, "{src}");
            assert!(!sc.waived(1, "L001"), "{src}");
        }
        // Doc comments and prose that mention the syntax are not pragmas.
        for src in [
            "/// breval-lint: allow(L001)\nfn f() {}\n",
            "// see the breval-lint: allow(L001) syntax\nfn f() {}\n",
        ] {
            let sc = scan(src);
            assert!(sc.malformed.is_empty() && !sc.waived(2, "L001"), "{src}");
        }
    }
}
