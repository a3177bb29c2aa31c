//! A lightweight item parser on top of the [`crate::lexer`]: extracts
//! the `fn`/`impl`/`trait` structure the flow analysis needs, without
//! building an AST.
//!
//! Per function it records: the (possibly impl-qualified) name, the
//! source line, whether the signature plumbs an `Rng`-bounded
//! parameter, whether the return type is a `Result`, the token range of
//! the body, whether the item sits inside `#[cfg(test)]`, and any
//! `// dhs-flow: allow(<rule>)` / `// dhs-flow: cycle-ok(<reason>)`
//! annotations attached to it.
//!
//! Annotation placement for function-granularity rules: the directive
//! comment may trail the `fn` line, stand in the comment block
//! immediately above the signature, or appear anywhere inside the body.
//! (Line-granularity rules — `dropped-result` — keep the stricter
//! same-line/preceding-line semantics of `dhs-lint: allow`.)

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Tok, Token};
use crate::rules::{cfg_test_lines, classify, directive_map, is_ident, FileClass};

/// The directive marker for flow-analysis annotations.
pub const FLOW_MARKER: &str = "dhs-flow:";

/// One parsed function (or trait-method declaration).
#[derive(Debug, Clone)]
pub struct FnItem {
    /// Bare function name (`route`).
    pub name: String,
    /// `Type::name` for impl/trait methods, else the bare name.
    pub qual_name: String,
    /// The impl/trait self-type this fn is a method of, if any.
    pub self_type: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Signature receives a caller-supplied RNG: an `Rng` bound appears
    /// in the fn generics/params/where-clause or on the enclosing impl.
    pub has_rng_param: bool,
    /// Declared return type mentions `Result`.
    pub returns_result: bool,
    /// Inside a `#[cfg(test)]` extent.
    pub is_test: bool,
    /// Token-index range `(open_brace, close_brace)` of the body in the
    /// file's token stream; `None` for bodyless trait declarations.
    pub body: Option<(usize, usize)>,
    /// Line of the body's closing brace (= `line` for declarations).
    pub end_line: u32,
    /// Rules suppressed on this fn via `dhs-flow: allow(...)`.
    pub allowed: BTreeSet<String>,
    /// Carries a `dhs-flow: cycle-ok(reason)` annotation.
    pub cycle_ok: bool,
}

impl FnItem {
    /// Whether `rule` is suppressed on this fn.
    pub fn allows(&self, rule: &str) -> bool {
        self.allowed.contains(rule)
    }
}

/// One parsed source file: its class, token stream, raw lines, the
/// functions found, and the line-granular flow allow map.
#[derive(Debug)]
pub struct FileItems {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Classification of `path`.
    pub class: FileClass,
    /// Full token stream (bodies index into this).
    pub tokens: Vec<Token>,
    /// Raw source lines, for snippets.
    pub lines: Vec<String>,
    /// Functions in source order.
    pub fns: Vec<FnItem>,
    /// `dhs-flow: allow` directives resolved to code lines (same
    /// placement semantics as `dhs-lint: allow`).
    pub flow_allows: BTreeMap<u32, BTreeSet<String>>,
}

/// Parse one file into its function items. The caller decides which
/// files to feed in (the flow analysis uses non-exempt library sources).
pub fn parse_items(path: &str, source: &str) -> FileItems {
    let class = classify(path);
    let lexed = lex(source);
    let toks = lexed.tokens;
    let test_ranges = cfg_test_lines(&toks);
    let flow_allows = directive_map(&lexed.comments, &toks, FLOW_MARKER);
    // cycle-ok placement resolves like allow: trailing comments cover
    // their own line, standalone comments the next code line.
    let cycle_lines = cycle_ok_lines(&lexed.comments, &toks);

    let mut fns = Vec::new();
    // Stack of enclosing impl/trait contexts: (depth at open, self type,
    // impl-level Rng bound).
    let mut ctx: Vec<(usize, Option<String>, bool)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct('{') => {
                depth += 1;
                i += 1;
            }
            Tok::Punct('}') => {
                depth = depth.saturating_sub(1);
                while ctx.last().is_some_and(|&(d, _, _)| d > depth) {
                    ctx.pop();
                }
                i += 1;
            }
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                let (self_type, rng, open) = parse_impl_header(&toks, i, kw == "trait");
                match open {
                    Some(open) => {
                        depth += 1;
                        ctx.push((depth, self_type, rng));
                        i = open + 1;
                    }
                    None => i += 1, // `impl Trait` in type position etc.
                }
            }
            Tok::Ident(kw) if kw == "fn" => {
                let inherited = ctx.last().cloned().unwrap_or((0, None, false));
                let item = parse_fn(&toks, i, &inherited.1, inherited.2);
                let (item, next) = match item {
                    Some(v) => v,
                    None => {
                        i += 1;
                        continue;
                    }
                };
                i = next;
                fns.push(item);
            }
            _ => i += 1,
        }
    }

    let lines: Vec<String> = source.lines().map(|l| l.to_string()).collect();
    for f in &mut fns {
        f.is_test = class.is_test_target
            || test_ranges
                .iter()
                .any(|&(lo, hi)| lo <= f.line && f.line <= hi);
        // Attach fn-level annotations: directives resolving to the fn
        // line, the two lines above it (comment block over `pub fn` /
        // attributes), or any line of the body.
        let lo = f.line.saturating_sub(2);
        for (&l, rules) in flow_allows.range(lo..=f.end_line) {
            let _ = l;
            f.allowed.extend(rules.iter().cloned());
        }
        f.cycle_ok = cycle_lines.range(lo..=f.end_line).next().is_some();
    }

    FileItems {
        path: path.to_string(),
        class,
        tokens: toks,
        lines,
        fns,
        flow_allows,
    }
}

/// Lines carrying a `dhs-flow: cycle-ok(...)` annotation, resolved to
/// code lines with the allow-map placement semantics.
fn cycle_ok_lines(comments: &[crate::lexer::Comment], toks: &[Token]) -> BTreeSet<u32> {
    let code_lines: BTreeSet<u32> = toks.iter().map(|t| t.line).collect();
    let last_line = code_lines.iter().next_back().copied().unwrap_or(0);
    let mut out = BTreeSet::new();
    for c in comments {
        let Some(at) = c.text.find(FLOW_MARKER) else {
            continue;
        };
        if !c.text[at + FLOW_MARKER.len()..]
            .trim_start()
            .starts_with("cycle-ok(")
        {
            continue;
        }
        if code_lines.contains(&c.line) {
            out.insert(c.line);
        } else if let Some(&target) = code_lines.range(c.line + 1..=last_line.max(c.line)).next() {
            out.insert(target);
        }
    }
    out
}

/// Parse an `impl`/`trait` header starting at the keyword token.
/// Returns `(self_type, has_rng_bound, index_of_open_brace)`; `None`
/// brace when the header never reaches a `{` (e.g. `impl Trait` used in
/// type position — the lexer stream makes these rare in practice).
fn parse_impl_header(
    toks: &[Token],
    kw: usize,
    is_trait: bool,
) -> (Option<String>, bool, Option<usize>) {
    let mut i = kw + 1;
    let mut rng = false;
    // Generic parameter list on the impl/trait itself.
    if toks.get(i).map(|t| &t.kind) == Some(&Tok::Punct('<')) {
        let mut gd = 0usize;
        while i < toks.len() {
            match &toks[i].kind {
                Tok::Punct('<') => gd += 1,
                Tok::Punct('>') => {
                    gd -= 1;
                    if gd == 0 {
                        i += 1;
                        break;
                    }
                }
                Tok::Ident(s) if s == "Rng" => rng = true,
                _ => {}
            }
            i += 1;
        }
    }
    // Walk to the `{`, remembering the first ident after `for` (trait
    // impls) or the first ident of the type path (inherent impls /
    // traits). The where clause is scanned for Rng bounds.
    let mut first_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct('{') => {
                let self_type = if is_trait {
                    first_ident
                } else if saw_for {
                    after_for
                } else {
                    first_ident
                };
                return (self_type, rng, Some(i));
            }
            Tok::Punct(';') => return (None, rng, None),
            Tok::Ident(s) if s == "for" => saw_for = true,
            Tok::Ident(s) if s == "Rng" => rng = true,
            Tok::Ident(s) if s == "where" || s == "dyn" || s == "mut" => {}
            Tok::Ident(s) => {
                if saw_for {
                    if after_for.is_none() {
                        after_for = Some(s.clone());
                    }
                } else if first_ident.is_none() {
                    first_ident = Some(s.clone());
                } else if !is_trait
                    && toks.get(i - 1).map(|t| &t.kind) == Some(&Tok::Punct(':'))
                    && toks.get(i.wrapping_sub(2)).map(|t| &t.kind) == Some(&Tok::Punct(':'))
                {
                    // `a::b::Type` paths: keep the last path segment as
                    // the type name. (Not for traits: `trait X: Super`
                    // must keep `X`.)
                    first_ident = Some(s.clone());
                }
            }
            _ => {}
        }
        i += 1;
    }
    (None, rng, None)
}

/// Parse one `fn` item starting at the `fn` keyword. Returns the item
/// plus the token index to resume scanning at (just past the signature,
/// so nested fns inside the body are still discovered).
fn parse_fn(
    toks: &[Token],
    kw: usize,
    self_type: &Option<String>,
    impl_rng: bool,
) -> Option<(FnItem, usize)> {
    let name = match toks.get(kw + 1).map(|t| &t.kind) {
        Some(Tok::Ident(s)) => s.clone(),
        _ => return None,
    };
    let mut i = kw + 2;
    let mut rng = impl_rng;
    // Fn generics.
    if toks.get(i).map(|t| &t.kind) == Some(&Tok::Punct('<')) {
        let mut gd = 0usize;
        while i < toks.len() {
            match &toks[i].kind {
                Tok::Punct('<') => gd += 1,
                Tok::Punct('>') => {
                    gd -= 1;
                    if gd == 0 {
                        i += 1;
                        break;
                    }
                }
                Tok::Ident(s) if s == "Rng" => rng = true,
                _ => {}
            }
            i += 1;
        }
    }
    // Parameter list.
    if toks.get(i).map(|t| &t.kind) != Some(&Tok::Punct('(')) {
        return None;
    }
    let mut pd = 0usize;
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct('(') => pd += 1,
            Tok::Punct(')') => {
                pd -= 1;
                if pd == 0 {
                    i += 1;
                    break;
                }
            }
            Tok::Ident(s) if s == "Rng" => rng = true,
            _ => {}
        }
        i += 1;
    }
    // Return type and where clause, up to the body or `;`.
    let mut returns_result = false;
    let sig_end;
    loop {
        match toks.get(i).map(|t| &t.kind) {
            Some(Tok::Punct('{')) => {
                sig_end = i;
                break;
            }
            Some(Tok::Punct(';')) => {
                let item = FnItem {
                    qual_name: qualify(self_type, &name),
                    name,
                    self_type: self_type.clone(),
                    line: toks[kw].line,
                    has_rng_param: rng,
                    returns_result,
                    is_test: false,
                    body: None,
                    end_line: toks[i].line,
                    allowed: BTreeSet::new(),
                    cycle_ok: false,
                };
                return Some((item, i + 1));
            }
            Some(Tok::Ident(s)) => {
                if s == "Result" {
                    returns_result = true;
                } else if s == "Rng" {
                    rng = true;
                }
                i += 1;
            }
            Some(_) => i += 1,
            None => return None,
        }
    }
    // Body extent: matching close brace.
    let mut bd = 0usize;
    let mut j = sig_end;
    let mut close = None;
    while j < toks.len() {
        match &toks[j].kind {
            Tok::Punct('{') => bd += 1,
            Tok::Punct('}') => {
                bd -= 1;
                if bd == 0 {
                    close = Some(j);
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let close = close.unwrap_or(toks.len() - 1);
    let item = FnItem {
        qual_name: qualify(self_type, &name),
        name,
        self_type: self_type.clone(),
        line: toks[kw].line,
        has_rng_param: rng,
        returns_result,
        is_test: false,
        body: Some((sig_end, close)),
        end_line: toks[close].line,
        allowed: BTreeSet::new(),
        cycle_ok: false,
    };
    // Resume just past the open brace so nested fns are found; the
    // outer loop's depth tracking continues naturally.
    Some((item, sig_end))
}

fn qualify(self_type: &Option<String>, name: &str) -> String {
    match self_type {
        Some(t) => format!("{t}::{name}"),
        None => name.to_string(),
    }
}

/// True when the token is one of the identifiers that can look like a
/// call head but never is one (`if cond ( … )` cannot occur, but `match
/// x {` / `return (` / `for (` patterns can).
pub(crate) fn is_keyword(t: &Token) -> bool {
    const KW: &[&str] = &[
        "if", "else", "match", "while", "for", "loop", "return", "fn", "let", "in", "move",
        "break", "continue", "as", "where", "impl", "trait", "pub", "use", "mod", "struct", "enum",
        "union", "const", "static", "type", "unsafe", "extern", "crate", "super", "self", "Self",
        "dyn", "ref", "mut",
    ];
    matches!(&t.kind, Tok::Ident(s) if KW.contains(&s.as_str()))
}

/// Convenience for rule code: is token `i` the head of a call
/// (`ident (`), excluding definitions and macros?
pub(crate) fn is_call_at(toks: &[Token], i: usize) -> bool {
    if is_keyword(&toks[i]) {
        return false;
    }
    if !matches!(&toks[i].kind, Tok::Ident(_)) {
        return false;
    }
    if toks.get(i + 1).map(|t| &t.kind) != Some(&Tok::Punct('(')) {
        return false;
    }
    // `fn name(` is a definition, `name!(` a macro (lexes as ident + `!`
    // — the `(` check above already excludes it, kept for clarity).
    if i >= 1 && is_ident(&toks[i - 1], "fn") {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> FileItems {
        parse_items("crates/core/src/x.rs", src)
    }

    #[test]
    fn free_fn_and_signature_facts() {
        let f = parse(
            "pub fn probe(rng: &mut impl Rng) -> u64 { rng.gen() }\n\
             fn send() -> Result<(), E> { Ok(()) }\n",
        );
        assert_eq!(f.fns.len(), 2);
        assert_eq!(f.fns[0].qual_name, "probe");
        assert!(f.fns[0].has_rng_param);
        assert!(!f.fns[0].returns_result);
        assert!(f.fns[1].returns_result);
        assert!(!f.fns[1].has_rng_param);
    }

    #[test]
    fn impl_methods_are_qualified() {
        let f = parse(
            "struct Ring;\n\
             impl Ring {\n    fn route(&self) {}\n}\n\
             impl Overlay for Ring {\n    fn owner_of(&self) {}\n}\n\
             trait Overlay {\n    fn owner_of(&self);\n}\n",
        );
        let names: Vec<&str> = f.fns.iter().map(|x| x.qual_name.as_str()).collect();
        assert_eq!(
            names,
            ["Ring::route", "Ring::owner_of", "Overlay::owner_of"]
        );
        assert!(f.fns[2].body.is_none(), "trait decl has no body");
    }

    #[test]
    fn generic_rng_bound_on_fn_and_impl() {
        let f = parse(
            "fn a<R: Rng>(rng: &mut R) {}\n\
             fn b<R>(rng: &mut R) where R: Rng {}\n\
             struct P<R>(R);\n\
             impl<O, R: Rng> P<R> {\n    fn c(&mut self) {}\n}\n",
        );
        assert!(f.fns.iter().all(|x| x.has_rng_param), "{:#?}", f.fns);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let f = parse(
            "fn lib() {}\n\
             #[cfg(test)]\nmod tests {\n    fn helper() {}\n}\n",
        );
        assert!(!f.fns[0].is_test);
        assert!(f.fns[1].is_test);
    }

    #[test]
    fn flow_annotations_attach_to_fns() {
        let f = parse(
            "// dhs-flow: allow(rng-plumbing) — owns its seeded stream\n\
             fn owns() { }\n\
             fn walk() { // dhs-flow: cycle-ok(strictly shrinking range)\n    walk()\n}\n\
             fn plain() {}\n",
        );
        assert!(f.fns[0].allows("rng-plumbing"));
        assert!(!f.fns[0].cycle_ok);
        assert!(f.fns[1].cycle_ok);
        assert!(!f.fns[2].cycle_ok);
        assert!(f.fns[2].allowed.is_empty());
    }

    #[test]
    fn nested_fns_are_found() {
        let f = parse("fn outer() {\n    fn inner() {}\n    inner();\n}\n");
        let names: Vec<&str> = f.fns.iter().map(|x| x.name.as_str()).collect();
        assert_eq!(names, ["outer", "inner"]);
    }
}
