//! The rule engine: pattern-match the token stream of one file against
//! the repo's invariant rules.
//!
//! Rule catalog (ids are what `// dhs-lint: allow(<rule>)` takes):
//!
//! | id              | guards against                                            |
//! |-----------------|-----------------------------------------------------------|
//! | `determinism`   | wall-clock / entropy / hash-order on the replay path      |
//! | `lossy_cast`    | silent `as` narrowing (the PR 3 `m > 65536` bug class)    |
//! | `metric_names`  | metric/span name literals not in `dhs_obs::names`         |
//! | `panic_hygiene` | `unwrap()` / `expect()` / `panic!` in library code        |
//!
//! Scope gating is by path (see [`FileClass`]): `#[cfg(test)]` regions
//! are always exempt, as are the `shims` crates, the lint crate itself
//! (whose sources and fixtures necessarily spell out the forbidden
//! patterns) and — except for `metric_names` — `bench`.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Tok, Token};

/// Crates opted *out* of the deterministic-replay rules. Everything
/// else in the workspace (including crates added by future PRs and the
/// root facade crate) is on the replay path by default: two same-seed
/// runs must be byte-identical, so wall clocks, OS entropy, and
/// hash-iteration order are banned outright. The old allowlists
/// (`REPLAY_CRATES`/`METRIC_NAME_CRATES`) had to be hand-extended every
/// PR and went stale; `tests/workspace.rs` asserts these opt-outs stay
/// a subset of the actual `Cargo.toml` members.
pub const REPLAY_OPT_OUT: &[&str] = &[
    "baselines", // offline estimator references, not replayed
    "bench",     // experiment harness: casts and `expect`s not triaged
    "histogram", // plotting/report helper, no replay surface
    "lint",      // this tool (its sources spell out banned patterns)
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
/// Library sources of the replay crates: the flow rules guard replay
/// invariants (RNG plumbing, delivery results, bounded recursion), so
/// they run exactly where the replay token rules run.
pub fn flow_scope(class: &FileClass) -> bool {
    class.is_library && replay_scope(&class.crate_name)
}

/// The only replay-path modules allowed to spawn threads or take locks:
/// dhs-par's sharded driver, whose fan-in merge is what *makes* threading
/// deterministic. Everywhere else on the replay path, `spawn`/`Mutex`/
/// `RwLock` (and unseeded per-thread RNGs, already covered by the
/// `thread_rng`/`from_entropy` checks) are determinism violations.
pub const THREADING_APPROVED: &[&str] = &["crates/par/src/driver.rs"];

/// One reported violation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line number.
    pub line: u32,
    /// Rule id (`determinism`, `lossy_cast`, …).
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
    /// Test target (`tests/` directory at crate or workspace level).
    pub is_test_target: bool,
    /// Example target (workspace `examples/`).
    pub is_example: bool,
    /// Entirely exempt (shims, bench, the lint crate itself).
    pub exempt: bool,
}

/// Classify a workspace-relative path (forward slashes). Paths routed
/// through a `fixtures/` directory are classified by the part after it,
/// so fixture corpora can mirror real workspace layouts.
pub fn classify(path: &str) -> FileClass {
    let p = match path.rfind("fixtures/") {
        Some(i) => &path[i + "fixtures/".len()..],
        None => path,
    };
    let none = FileClass {
        crate_name: String::new(),
        is_library: false,
        is_test_target: false,
        is_example: false,
        exempt: true,
    };
    if !p.ends_with(".rs") {
        return none;
    }
    if let Some(rest) = p.strip_prefix("crates/") {
        let mut parts = rest.splitn(2, '/');
        let krate = parts.next().unwrap_or("");
        let tail = parts.next().unwrap_or("");
        let exempt = matches!(krate, "shims" | "bench" | "lint");
        return FileClass {
            crate_name: krate.to_string(),
            is_library: tail.starts_with("src/"),
            is_test_target: tail.starts_with("tests/"),
            is_example: tail.starts_with("examples/"),
            exempt,
        };
    }
    FileClass {
        crate_name: "(root)".to_string(),
        is_library: p.starts_with("src/"),
        is_test_target: p.starts_with("tests/"),
        is_example: p.starts_with("examples/"),
        exempt: false,
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
    /// Build from an iterator of canonical names.
    pub fn from_names<I: IntoIterator<Item = String>>(names: I) -> Self {
        NameSet {
            names: names.into_iter().collect(),
            consts: BTreeMap::new(),
        }
    }

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

    /// Number of canonical names.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no names were registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// Lint one file's source. `path` must be workspace-relative with
/// forward slashes; it selects the rule set via [`classify`].
pub fn lint_source(path: &str, source: &str, names: &NameSet) -> Vec<Finding> {
    let class = classify(path);
    // The bench crate stays exempt from the determinism/cast/panic rules
    // (measurement code legitimately wants wall clocks and quick casts),
    // but since PR 7 its library sources emit the `ablation.*` KPI
    // metrics, so the metric-name rule alone still applies there.
    let bench_names_only = class.exempt && class.crate_name == "bench" && class.is_library;
    if (class.exempt && !bench_names_only) || class.is_test_target {
        return Vec::new();
    }
    let lexed = lex(source);
    let lines: Vec<&str> = source.lines().collect();
    let allows = allow_map(&lexed.comments, &lexed.tokens);
    let test_lines = cfg_test_lines(&lexed.tokens);

    let mut ctx = Ctx {
        path,
        lines: &lines,
        allows: &allows,
        test_lines: &test_lines,
        findings: Vec::new(),
    };

    let on_replay_path = replay_scope(&class.crate_name);
    if !bench_names_only {
        if (class.is_library && on_replay_path) || class.is_example {
            determinism(&mut ctx, &lexed.tokens);
        }
        if class.is_library {
            lossy_cast(&mut ctx, &lexed.tokens);
            panic_hygiene(&mut ctx, &lexed.tokens);
        }
    }
    if class.is_library && metric_name_scope(&class.crate_name) {
        metric_names(&mut ctx, &lexed.tokens, names);
    }

    ctx.findings.sort();
    ctx.findings.dedup();
    ctx.findings
}

struct Ctx<'a> {
    path: &'a str,
    lines: &'a [&'a str],
    allows: &'a BTreeMap<u32, BTreeSet<String>>,
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
        if let Some(rules) = self.allows.get(&line) {
            if rules.contains(rule) {
                return;
            }
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

/// Map each source line to the set of rules allowed on it.
///
/// `// dhs-lint: allow(rule)` (optionally `allow(a, b)`) suppresses the
/// rule on its own line (trailing comment) or, when the comment stands on
/// its own line(s), on the next code line. Consecutive comment-only lines
/// accumulate, so a directive followed by explanation lines still covers
/// the code below. "Comment-only" is judged by the token stream (no token
/// lands on the line), so text tricks like a leading `*` deref cannot be
/// mistaken for a block-comment interior.
pub(crate) fn allow_map(
    comments: &[crate::lexer::Comment],
    toks: &[Token],
) -> BTreeMap<u32, BTreeSet<String>> {
    directive_map(comments, toks, "dhs-lint:")
}

/// [`allow_map`] generalized over the directive marker, so the flow
/// analysis can reuse the exact same placement semantics for
/// `// dhs-flow: allow(<rule>)`.
pub(crate) fn directive_map(
    comments: &[crate::lexer::Comment],
    toks: &[Token],
    marker: &str,
) -> BTreeMap<u32, BTreeSet<String>> {
    let code_lines: BTreeSet<u32> = toks.iter().map(|t| t.line).collect();
    let last_line = code_lines.iter().next_back().copied().unwrap_or(0);
    let mut directives: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for c in comments {
        let rules = parse_allow(&c.text, marker);
        if !rules.is_empty() {
            directives.entry(c.line).or_default().extend(rules);
        }
    }
    let mut map: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    for (&line, rules) in &directives {
        if code_lines.contains(&line) {
            // Trailing comment: covers its own line.
            map.entry(line).or_default().extend(rules.iter().cloned());
            continue;
        }
        // Comment-only line: the directive covers the next line that
        // carries any token.
        if let Some(&target) = code_lines.range(line + 1..=last_line.max(line)).next() {
            map.entry(target).or_default().extend(rules.iter().cloned());
        }
    }
    map
}

/// Extract rule ids from one comment's `<marker> allow(…)` directive
/// (`marker` is `"dhs-lint:"` or `"dhs-flow:"`).
pub(crate) fn parse_allow(text: &str, marker: &str) -> Vec<String> {
    let Some(i) = text.find(marker) else {
        return Vec::new();
    };
    let rest = text[i + marker.len()..].trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return Vec::new();
    };
    let Some(end) = rest.find(')') else {
        return Vec::new();
    };
    rest[..end]
        .split(',')
        .map(|r| r.trim().to_string())
        .filter(|r| !r.is_empty())
        .collect()
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
// determinism
// ---------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "drain",
    "into_iter",
    "into_keys",
    "into_values",
    "retain",
];

fn determinism(ctx: &mut Ctx<'_>, toks: &[Token]) {
    // Threading primitives are only legitimate in the approved driver
    // modules (compare with the `fixtures/` prefix stripped, like
    // `classify`, so fixture corpora can cover both sides).
    let stripped = match ctx.path.rfind("fixtures/") {
        Some(i) => &ctx.path[i + "fixtures/".len()..],
        None => ctx.path,
    };
    let threading_approved = THREADING_APPROVED.contains(&stripped);
    // Pass 1: identifiers declared with a HashMap/HashSet type.
    let mut hash_idents: BTreeSet<&str> = BTreeSet::new();
    for i in 0..toks.len() {
        if !is_hash_ty(&toks[i].kind) {
            continue;
        }
        // See through a leading path (`std::collections::HashMap`).
        let mut start = i;
        while start >= 3
            && matches(toks, start - 2, &[p(':'), p(':')])
            && matches!(toks[start - 3].kind, Tok::Ident(_))
        {
            start -= 3;
        }
        // `name: [&[mut]] HashMap<…>` (struct field / param / let with
        // type) — skip reference/mut prefixes back to the `:`.
        let mut k = start;
        while k >= 1 && (toks[k - 1].kind == Tok::Punct('&') || is_ident(&toks[k - 1], "mut")) {
            k -= 1;
        }
        if k >= 2 && toks[k - 1].kind == Tok::Punct(':') {
            if let Tok::Ident(name) = &toks[k - 2].kind {
                hash_idents.insert(name);
            }
        }
        // `let [mut] name … = HashMap::…;` — scan back to the `let` of
        // the statement (bounded window keeps this O(1) per token).
        for back in 1..=8usize {
            let Some(j) = start.checked_sub(back) else {
                break;
            };
            match &toks[j].kind {
                Tok::Ident(s) if s == "let" => {
                    let k = if is_ident_at(toks, j + 1, "mut") {
                        j + 2
                    } else {
                        j + 1
                    };
                    if let Some(Tok::Ident(name)) = toks.get(k).map(|t| &t.kind) {
                        hash_idents.insert(name);
                    }
                    break;
                }
                Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => break,
                _ => {}
            }
        }
    }

    for i in 0..toks.len() {
        let line = toks[i].line;
        match &toks[i].kind {
            Tok::Ident(s) if s == "SystemTime" || s == "thread_rng" || s == "from_entropy" => {
                ctx.report(line, "determinism");
            }
            // Bare threading/locking outside the approved driver modules:
            // un-merged cross-thread effects are exactly the hash-order
            // bug class with extra steps.
            Tok::Ident(s) if !threading_approved && (s == "Mutex" || s == "RwLock") => {
                ctx.report(line, "determinism");
            }
            Tok::Ident(s)
                if !threading_approved
                    && s == "spawn"
                    && toks.get(i + 1).map(|t| &t.kind) == Some(&Tok::Punct('(')) =>
            {
                ctx.report(line, "determinism");
            }
            Tok::Ident(s)
                if s == "Instant"
                    && matches(toks, i + 1, &[p(':'), p(':')])
                    && is_ident_at(toks, i + 3, "now") =>
            {
                ctx.report(line, "determinism");
            }
            // `map.iter()` / `self.map.drain()` on a hash-typed name.
            Tok::Ident(name) if hash_idents.contains(name.as_str()) => {
                if matches(toks, i + 1, &[p('.')]) {
                    if let Some(Tok::Ident(m)) = toks.get(i + 2).map(|t| &t.kind) {
                        if ITER_METHODS.contains(&m.as_str())
                            && toks.get(i + 3).map(|t| &t.kind) == Some(&Tok::Punct('('))
                        {
                            ctx.report(line, "determinism");
                        }
                    }
                }
                // `for x in &map {` / `for x in map {`.
                if is_for_in_target(toks, i) {
                    ctx.report(line, "determinism");
                }
            }
            _ => {}
        }
    }
}

fn is_hash_ty(kind: &Tok) -> bool {
    matches!(kind, Tok::Ident(s) if s == "HashMap" || s == "HashSet")
}

/// Is the identifier at `i` the final target of a `for … in [&[mut]] …`
/// header (i.e. directly followed by the loop body brace)?
fn is_for_in_target(toks: &[Token], i: usize) -> bool {
    if toks.get(i + 1).map(|t| &t.kind) != Some(&Tok::Punct('{')) {
        return false;
    }
    // Walk back over a `self.`-style path and `&`/`mut` prefixes to find
    // the `in` keyword within a small window.
    let mut j = i;
    for _ in 0..6 {
        let Some(k) = j.checked_sub(1) else {
            return false;
        };
        match &toks[k].kind {
            Tok::Punct('.') | Tok::Punct('&') => j = k,
            Tok::Ident(s) if s == "self" || s == "mut" => j = k,
            Tok::Ident(s) if s == "in" => return true,
            _ => return false,
        }
    }
    false
}

// ---------------------------------------------------------------------
// lossy_cast
// ---------------------------------------------------------------------

const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "usize"];

fn lossy_cast(ctx: &mut Ctx<'_>, toks: &[Token]) {
    for i in 0..toks.len().saturating_sub(1) {
        if is_ident(&toks[i], "as") {
            if let Tok::Ident(ty) = &toks[i + 1].kind {
                if NARROW_TARGETS.contains(&ty.as_str()) {
                    ctx.report(toks[i].line, "lossy_cast");
                }
            }
        }
    }
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
// panic_hygiene
// ---------------------------------------------------------------------

fn panic_hygiene(ctx: &mut Ctx<'_>, toks: &[Token]) {
    for i in 0..toks.len() {
        match &toks[i].kind {
            // `.unwrap()` / `.expect(` — exact method names only
            // (`unwrap_or` is a different token and stays legal).
            Tok::Ident(s)
                if (s == "unwrap" || s == "expect")
                    && i >= 1
                    && toks[i - 1].kind == Tok::Punct('.')
                    && toks.get(i + 1).map(|t| &t.kind) == Some(&Tok::Punct('(')) =>
            {
                ctx.report(toks[i].line, "panic_hygiene");
            }
            Tok::Ident(s)
                if (s == "panic" || s == "todo" || s == "unimplemented")
                    && toks.get(i + 1).map(|t| &t.kind) == Some(&Tok::Punct('!')) =>
            {
                ctx.report(toks[i].line, "panic_hygiene");
            }
            _ => {}
        }
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
