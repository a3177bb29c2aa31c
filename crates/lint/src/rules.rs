//! The token rule: pattern-match the token stream of one file.
//!
//! One rule lives here, `metric_names`: string literals (and values
//! that const-propagate to strings) at recorder call sites must be
//! names registered in `dhs_obs::names`. Clippy cannot say this — it
//! would need the registry's contents. Everything a type-aware tool can
//! say (wall clocks, threads, hash-ordered containers, environment
//! reads, truncating casts, panics, discarded results) is clippy's, set
//! in the workspace `clippy.toml` and `[workspace.lints.clippy]`.
//!
//! Scope is by path (see [`classify`]): library sources of the crates
//! not in [`METRIC_NAME_OPT_OUT`]; `#[cfg(test)]` regions are exempt.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Tok, Token};

/// Crates opted *out* of the replay-path flow rules (`rng-plumbing`,
/// `recursion-bound`). Everything else in the workspace (including
/// crates added later and the root facade crate) is on the replay path
/// by default; `tests/workspace.rs` asserts these opt-outs stay a
/// subset of the actual `Cargo.toml` members.
pub const REPLAY_OPT_OUT: &[&str] = &[
    "baselines", // offline estimator references, not replayed
    "bench",     // experiment harness, not replayed itself
    "histogram", // plotting/report helper, no replay surface
    "lint",      // this tool
    "shims",     // vendored stand-ins for external crates
];

/// Crates opted *out* of the metric-name rule. `bench` is in scope
/// despite its replay opt-out: its KPI emitters feed the gated
/// trajectory registry. `sketch` is out: its `histogram(..)`
/// constructors collide with the recorder-call surface by name.
pub const METRIC_NAME_OPT_OUT: &[&str] = &[
    "baselines",
    "histogram",
    "lint",
    "shims",
    "sketch",
    "workload",
];

/// Is `crate_name` (a `crates/` directory name, or `"(root)"`) on the
/// deterministic-replay path?
pub fn replay_scope(crate_name: &str) -> bool {
    !REPLAY_OPT_OUT.contains(&crate_name)
}

/// Must `crate_name`'s recorder call sites use `dhs_obs::names`?
pub fn metric_name_scope(crate_name: &str) -> bool {
    !METRIC_NAME_OPT_OUT.contains(&crate_name)
}

/// Is this file in scope for the interprocedural flow analysis?
/// Library sources of the replay crates.
pub fn flow_scope(class: &FileClass) -> bool {
    class.is_library && replay_scope(&class.crate_name)
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule id (`metric_names`, `rng-plumbing`, `recursion-bound`).
    pub rule: &'static str,
    /// The trimmed source line, for humans reading the JSONL.
    pub snippet: String,
}

/// What kind of file a path denotes — decides which rules apply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileClass {
    /// Crate directory name under `crates/` (`"core"`, `"net"`, …);
    /// `"(root)"` for the workspace facade crate.
    pub crate_name: String,
    /// Library source (`src/` of a workspace crate or the root crate).
    pub is_library: bool,
}

/// Classify a workspace-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    match path.strip_prefix("crates/") {
        Some(rest) => {
            let (krate, tail) = rest.split_once('/').unwrap_or((rest, ""));
            FileClass {
                crate_name: krate.to_string(),
                is_library: tail.starts_with("src/"),
            }
        }
        None => FileClass {
            crate_name: "(root)".to_string(),
            is_library: path.starts_with("src/"),
        },
    }
}

/// The canonical metric/span name table (values of the `pub const`
/// string items in `dhs_obs::names`), plus the const-ident → value map
/// so call sites spelling `names::OP_COUNT` can be *verified* rather
/// than skipped.
#[derive(Debug, Default, Clone)]
pub struct NameSet {
    names: BTreeSet<String>,
    consts: BTreeMap<String, String>,
}

impl NameSet {
    /// Parse the canonical table out of `names.rs` source: every
    /// `const IDENT: &str = "…";` item contributes its value, keyed by
    /// ident for call-site constant propagation.
    pub fn parse(source: &str) -> Self {
        let toks = lex(source).tokens;
        let mut names = BTreeSet::new();
        let mut consts = BTreeMap::new();
        let mut i = 0;
        while i + 6 < toks.len() {
            if is_ident(&toks[i], "const")
                && matches!(toks[i + 1].kind, Tok::Ident(_))
                && toks[i + 2].kind == Tok::Punct(':')
                && toks[i + 3].kind == Tok::Punct('&')
                && is_ident(&toks[i + 4], "str")
                && toks[i + 5].kind == Tok::Punct('=')
            {
                if let Tok::Str(v) = &toks[i + 6].kind {
                    names.insert(v.clone());
                    if let Tok::Ident(ident) = &toks[i + 1].kind {
                        consts.insert(ident.clone(), v.clone());
                    }
                    i += 7;
                    continue;
                }
            }
            i += 1;
        }
        NameSet { names, consts }
    }

    /// Whether `name` is canonical.
    pub fn contains(&self, name: &str) -> bool {
        self.names.contains(name)
    }

    /// The canonical value of the `dhs_obs::names` const `ident`.
    pub fn value_of(&self, ident: &str) -> Option<&str> {
        self.consts.get(ident).map(String::as_str)
    }

    /// True when no names were registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Lint one file's source. `path` must be workspace-relative with
/// forward slashes; it selects the scope via [`classify`].
pub fn lint_source(path: &str, source: &str, names: &NameSet) -> Vec<Finding> {
    let class = classify(path);
    if !class.is_library || !metric_name_scope(&class.crate_name) {
        return Vec::new();
    }
    let lexed = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let mut ctx = Ctx {
        path,
        lines: &lines,
        test_lines: &cfg_test_lines(&lexed.tokens),
        findings: Vec::new(),
    };
    metric_names(&mut ctx, &lexed.tokens, names);
    ctx.findings.sort();
    ctx.findings.dedup();
    ctx.findings
}

struct Ctx<'a> {
    path: &'a str,
    lines: &'a [&'a str],
    test_lines: &'a [(u32, u32)],
    findings: Vec<Finding>,
}

impl Ctx<'_> {
    fn report(&mut self, line: u32, rule: &'static str) {
        if self
            .test_lines
            .iter()
            .any(|&(lo, hi)| lo <= line && line <= hi)
        {
            return;
        }
        let snippet = self
            .lines
            .get(line as usize - 1)
            .map(|l| l.trim().to_string())
            .unwrap_or_default();
        self.findings.push(Finding {
            path: self.path.to_string(),
            line,
            rule,
            snippet,
        });
    }
}

/// Line ranges covered by `#[cfg(test)]` items (almost always the
/// `mod tests { … }` block). The attribute may carry any args containing
/// the `test` ident (e.g. `cfg(all(test, feature = "x"))`).
pub(crate) fn cfg_test_lines(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].kind == Tok::Punct('#')
            && matches(toks, i + 1, &[p('[')])
            && is_ident_at(toks, i + 2, "cfg")
            && matches(toks, i + 3, &[p('(')])
        {
            // Scan the cfg(...) argument list for the `test` ident.
            let mut j = i + 4;
            let mut depth = 1usize;
            let mut has_test = false;
            while j < toks.len() && depth > 0 {
                match &toks[j].kind {
                    Tok::Punct('(') => depth += 1,
                    Tok::Punct(')') => depth -= 1,
                    Tok::Ident(s) if s == "test" => has_test = true,
                    _ => {}
                }
                j += 1;
            }
            // Expect the closing `]` of the attribute.
            if j < toks.len() && toks[j].kind == Tok::Punct(']') {
                j += 1;
            }
            if has_test {
                if let Some(range) = item_extent(toks, j) {
                    ranges.push(range);
                    i = j;
                    continue;
                }
            }
        }
        i += 1;
    }
    ranges
}

/// The line extent of the item starting at token index `start`: to the
/// matching close of its first brace block, or to the first `;` for
/// braceless items (`#[cfg(test)] use foo;`).
fn item_extent(toks: &[Token], start: usize) -> Option<(u32, u32)> {
    let mut j = start;
    while j < toks.len() {
        match toks[j].kind {
            Tok::Punct('{') => {
                let mut depth = 0usize;
                while j < toks.len() {
                    match toks[j].kind {
                        Tok::Punct('{') => depth += 1,
                        Tok::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return Some((toks[start].line, toks[j].line));
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                return Some((toks[start].line, toks.last()?.line));
            }
            Tok::Punct(';') => return Some((toks[start].line, toks[j].line)),
            _ => j += 1,
        }
    }
    None
}

// ---------------------------------------------------------------------
// metric_names
// ---------------------------------------------------------------------

pub(crate) const RECORDER_CALLS: &[&str] = &[
    "incr",
    "observe",
    "gauge_set",
    "span_start",
    "start_span",
    "counter",
    "histogram",
];

/// File-local constant propagation for metric-name arguments: resolves
/// `const` items, `concat!` of literals, `names::X` paths, and
/// single-assignment `let` locals to their string values.
struct NameEnv<'a> {
    names: &'a NameSet,
    /// File-level `const IDENT: &str = …;` values.
    consts: BTreeMap<String, String>,
    /// `let` bindings: ident → sorted (token position, value).
    lets: BTreeMap<String, Vec<(usize, Option<String>)>>,
    /// Idents that cannot be trusted: `mut` bindings, reassignments,
    /// or any `ident :` occurrence (a param/field of the same name
    /// could shadow the binding across fn boundaries, which this flat
    /// file-level model does not track).
    poisoned: BTreeSet<String>,
}

impl<'a> NameEnv<'a> {
    fn build(toks: &[Token], names: &'a NameSet) -> NameEnv<'a> {
        let mut env = NameEnv {
            names,
            consts: BTreeMap::new(),
            lets: BTreeMap::new(),
            poisoned: BTreeSet::new(),
        };
        // Pass 1: file-level string consts (forward, so a const may
        // reference an earlier one).
        let mut i = 0;
        while i + 6 < toks.len() {
            if is_ident(&toks[i], "const")
                && matches!(toks[i + 1].kind, Tok::Ident(_))
                && toks[i + 2].kind == Tok::Punct(':')
                && toks[i + 3].kind == Tok::Punct('&')
                && is_ident(&toks[i + 4], "str")
                && toks[i + 5].kind == Tok::Punct('=')
            {
                if let (Tok::Ident(ident), Some(v)) =
                    (&toks[i + 1].kind, env.eval_expr(toks, i + 6))
                {
                    env.consts.insert(ident.clone(), v);
                }
            }
            i += 1;
        }
        // Pass 2: poison marks and let bindings.
        for i in 0..toks.len() {
            let Tok::Ident(name) = &toks[i].kind else {
                continue;
            };
            // `name :` (single colon) — param, field, or ascription.
            // A `const`/`static` declaration's own type ascription is
            // not a shadow risk: those names live in the consts table.
            let is_item_decl =
                i >= 1 && (is_ident(&toks[i - 1], "const") || is_ident(&toks[i - 1], "static"));
            if toks.get(i + 1).map(|t| &t.kind) == Some(&Tok::Punct(':'))
                && toks.get(i + 2).map(|t| &t.kind) != Some(&Tok::Punct(':'))
                && (i == 0 || toks[i - 1].kind != Tok::Punct(':'))
                && !is_item_decl
            {
                env.poisoned.insert(name.clone());
            }
            let after_let = i >= 1 && is_ident(&toks[i - 1], "let");
            let after_let_mut =
                i >= 2 && is_ident(&toks[i - 1], "mut") && is_ident(&toks[i - 2], "let");
            if after_let_mut {
                env.poisoned.insert(name.clone());
                continue;
            }
            if toks.get(i + 1).map(|t| &t.kind) == Some(&Tok::Punct('='))
                && toks.get(i + 2).map(|t| &t.kind) != Some(&Tok::Punct('='))
            {
                if after_let {
                    let value = env.eval_expr(toks, i + 2);
                    env.lets.entry(name.clone()).or_default().push((i, value));
                } else if !matches!(toks.get(i + 2).map(|t| &t.kind), Some(Tok::Punct('>'))) {
                    // Reassignment (`name = …`, not `name =>`).
                    env.poisoned.insert(name.clone());
                }
            }
        }
        env
    }

    /// Value of the string expression starting at `k`: a literal, a
    /// `concat!` of literals, a `names::X`-style path, or a const
    /// ident already in the table. `None` = not resolvable.
    fn eval_expr(&self, toks: &[Token], k: usize) -> Option<String> {
        match &toks.get(k)?.kind {
            Tok::Str(v) => Some(v.clone()),
            Tok::Ident(c)
                if c == "concat" && toks.get(k + 1).map(|t| &t.kind) == Some(&Tok::Punct('!')) =>
            {
                let mut out = String::new();
                let mut j = k + 3; // past `concat ! (`
                while let Some(t) = toks.get(j) {
                    match &t.kind {
                        Tok::Str(v) => out.push_str(v),
                        Tok::Punct(',') => {}
                        Tok::Punct(')') => return Some(out),
                        // A non-literal argument defeats resolution.
                        _ => return None,
                    }
                    j += 1;
                }
                None
            }
            Tok::Ident(_) => {
                // Walk a path `a::b::X`; resolve the final segment via
                // the canonical table (any path mentioning `names`) or
                // the file-local const table (bare ident).
                let mut j = k;
                let mut via_names = false;
                loop {
                    let Tok::Ident(seg) = &toks.get(j)?.kind else {
                        return None;
                    };
                    if seg == "names" {
                        via_names = true;
                    }
                    if toks.get(j + 1).map(|t| &t.kind) == Some(&Tok::Punct(':'))
                        && toks.get(j + 2).map(|t| &t.kind) == Some(&Tok::Punct(':'))
                    {
                        j += 3;
                        continue;
                    }
                    return if via_names && j != k {
                        self.names.value_of(seg).map(str::to_string)
                    } else if j == k {
                        self.consts
                            .get(seg)
                            .cloned()
                            .or_else(|| self.names.value_of(seg).map(str::to_string))
                    } else {
                        None
                    };
                }
            }
            _ => None,
        }
    }

    /// Resolve a bare ident used as a metric-name argument at token
    /// position `at`: the latest earlier `let` binding, else a const.
    fn resolve_ident(&self, name: &str, at: usize) -> Option<String> {
        if self.poisoned.contains(name) {
            return None;
        }
        if let Some(binds) = self.lets.get(name) {
            let latest = binds.iter().rev().find(|(pos, _)| *pos < at)?;
            return latest.1.clone();
        }
        self.consts
            .get(name)
            .cloned()
            .or_else(|| self.names.value_of(name).map(str::to_string))
    }
}

fn metric_names(ctx: &mut Ctx<'_>, toks: &[Token], names: &NameSet) {
    let env = NameEnv::build(toks, names);
    let mut i = 0;
    while i < toks.len() {
        let is_call = matches!(&toks[i].kind, Tok::Ident(s) if RECORDER_CALLS.contains(&s.as_str()))
            && toks.get(i + 1).map(|t| &t.kind) == Some(&Tok::Punct('('));
        if !is_call {
            i += 1;
            continue;
        }
        // Scan the argument list; every string literal inside must be a
        // canonical name.
        let mut j = i + 2;
        let mut depth = 1usize;
        let mut first_arg_end = None;
        while j < toks.len() && depth > 0 {
            match &toks[j].kind {
                Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        first_arg_end.get_or_insert(j);
                    }
                }
                Tok::Punct(',') if depth == 1 => {
                    first_arg_end.get_or_insert(j);
                }
                Tok::Str(v) if !names.contains(v) => {
                    ctx.report(toks[j].line, "metric_names");
                }
                _ => {}
            }
            j += 1;
        }
        // Constant propagation over the first argument: a lone ident or
        // path that resolves to a non-canonical value is a violation
        // the literal scan above cannot see. Unresolvable arguments
        // (locals of unknown value, fn parameters) are skipped, never
        // guessed.
        if let Some(end) = first_arg_end {
            let value = match end.saturating_sub(i + 2) {
                1 => match &toks[i + 2].kind {
                    Tok::Ident(name) => env.resolve_ident(name, i + 2),
                    _ => None,
                },
                n if n >= 3 => match &toks[i + 2].kind {
                    Tok::Ident(_) => env.eval_expr(toks, i + 2),
                    _ => None,
                },
                _ => None,
            };
            if let Some(v) = value {
                if !names.contains(&v) {
                    ctx.report(toks[i + 2].line, "metric_names");
                }
            }
        }
        i = j;
    }
}

// ---------------------------------------------------------------------
// token helpers
// ---------------------------------------------------------------------

pub(crate) fn p(c: char) -> Tok {
    Tok::Punct(c)
}

pub(crate) fn is_ident(t: &Token, name: &str) -> bool {
    matches!(&t.kind, Tok::Ident(s) if s == name)
}

pub(crate) fn is_ident_at(toks: &[Token], i: usize, name: &str) -> bool {
    toks.get(i).map(|t| is_ident(t, name)).unwrap_or(false)
}

pub(crate) fn matches(toks: &[Token], start: usize, pattern: &[Tok]) -> bool {
    pattern
        .iter()
        .enumerate()
        .all(|(k, want)| toks.get(start + k).map(|t| &t.kind) == Some(want))
}
