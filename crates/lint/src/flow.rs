//! Interprocedural flow rules over the [`crate::callgraph`].
//!
//! Rule catalog (ids are what `// dhs-flow: allow(<rule>)` takes):
//!
//! | id               | guards against                                          |
//! |------------------|---------------------------------------------------------|
//! | `rng-plumbing`   | library fns drawing from an RNG they own instead of a   |
//! |                  | caller-supplied `&mut impl Rng`                         |
//! | `dropped-result` | discarded `Result`s from `Transport`/store/retry APIs:  |
//! |                  | `let _ =`, statement-position calls, and bindings that  |
//! |                  | are never read again (bound-then-unused)                |
//! | `recursion-bound`| call-graph cycles without a `dhs-flow: cycle-ok(reason)`|
//! |                  | annotation on every participating fn                    |
//!
//! Scope: library sources of the replay crates (see
//! [`crate::rules::flow_scope`]); `#[cfg(test)]` extents and
//! test/example targets are out. DESIGN.md's audit table records why
//! these three stay at this layer and why `entropy-taint` and the
//! protocol/draw-parity/cast-range passes went.

use std::collections::BTreeSet;

use crate::callgraph::{CallGraph, FnId};
use crate::items::{parse_items, FileItems};
use crate::lexer::{Tok, Token};
use crate::rules::Finding;

/// RNG draw methods: a call to any of these is "drawing".
const DRAW_METHODS: &[&str] = &[
    "gen",
    "gen_range",
    "gen_bool",
    "gen_ratio",
    "sample",
    "fill",
    "shuffle",
    "choose",
];

/// Result-returning APIs whose discard is always suspicious, even when
/// the workspace item table cannot see them (trait objects, generics).
const RESULT_APIS: &[&str] = &["exchange", "routed_exchange", "with_retry"];

/// Summary statistics of one flow run (rendered into the report's
/// trailing JSONL line).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowStats {
    /// Library files parsed.
    pub files_scanned: usize,
    /// Non-test fns in the call graph.
    pub functions: usize,
    /// Call edges (sites naming exactly one workspace fn).
    pub resolved_edges: usize,
}

/// Run the flow analysis over `(path, source)` pairs. Paths select
/// scope via [`crate::rules::classify`]; non-library and exempt files
/// are skipped. Returns sorted, deduplicated findings plus stats.
pub fn flow_files(inputs: &[(String, String)]) -> (Vec<Finding>, FlowStats) {
    let files: Vec<FileItems> = inputs
        .iter()
        .map(|(p, s)| parse_items(p, s))
        .filter(|f| crate::rules::flow_scope(&f.class))
        .collect();
    let graph = CallGraph::build(&files);

    let mut findings = Vec::new();
    rng_plumbing(&files, &graph, &mut findings);
    dropped_result(&files, &graph, &mut findings);
    recursion_bound(&files, &graph, &mut findings);
    findings.sort();
    findings.dedup();

    let stats = FlowStats {
        files_scanned: files.len(),
        functions: graph.fns.len(),
        resolved_edges: graph.callees.iter().map(|c| c.len()).sum(),
    };
    (findings, stats)
}

fn qual<'a>(files: &'a [FileItems], g: &CallGraph, id: FnId) -> &'a str {
    let r = g.fns[id];
    &files[r.file].fns[r.item].qual_name
}

fn line_snippet(files: &[FileItems], g: &CallGraph, id: FnId) -> (String, u32, String) {
    let r = g.fns[id];
    let f = &files[r.file].fns[r.item];
    let snippet = files[r.file]
        .lines
        .get(f.line as usize - 1)
        .map(|l| l.trim().to_string())
        .unwrap_or_default();
    (files[r.file].path.clone(), f.line, snippet)
}

// ---------------------------------------------------------------------
// rng-plumbing
// ---------------------------------------------------------------------

/// Does the body draw from an RNG (`.gen(`, `.gen_range(`,
/// `.gen::<T>(`, …)?
fn draws(toks: &[Token], open: usize, close: usize) -> bool {
    for i in open + 1..close {
        let Tok::Ident(m) = &toks[i].kind else {
            continue;
        };
        if !DRAW_METHODS.contains(&m.as_str()) {
            continue;
        }
        if i == 0 || toks[i - 1].kind != Tok::Punct('.') {
            continue;
        }
        match toks.get(i + 1).map(|t| &t.kind) {
            Some(Tok::Punct('(')) => return true,
            // Turbofish: `.gen::<u64>()`.
            Some(Tok::Punct(':')) if toks.get(i + 2).map(|t| &t.kind) == Some(&Tok::Punct(':')) => {
                return true;
            }
            _ => {}
        }
    }
    false
}

fn rng_plumbing(files: &[FileItems], g: &CallGraph, out: &mut Vec<Finding>) {
    for (id, r) in g.fns.iter().enumerate() {
        let file = &files[r.file];
        let f = &file.fns[r.item];
        let Some((open, close)) = f.body else {
            continue;
        };
        if f.has_rng_param || f.allows("rng-plumbing") {
            continue;
        }
        if !draws(&file.tokens, open, close) {
            continue;
        }
        let (path, line, snippet) = line_snippet(files, g, id);
        out.push(Finding {
            path,
            line,
            rule: "rng-plumbing",
            snippet,
        });
    }
}

// ---------------------------------------------------------------------
// dropped-result
// ---------------------------------------------------------------------

/// Names whose call results must not be discarded: the hardcoded
/// Transport/retry surface plus every workspace fn name whose parsed
/// candidates all return `Result`.
fn flagged_names(files: &[FileItems], g: &CallGraph) -> BTreeSet<String> {
    let mut yes: BTreeSet<String> = RESULT_APIS.iter().map(|s| s.to_string()).collect();
    let mut no: BTreeSet<String> = BTreeSet::new();
    for r in &g.fns {
        let f = &files[r.file].fns[r.item];
        if f.returns_result {
            yes.insert(f.name.clone());
        } else {
            no.insert(f.name.clone());
        }
    }
    // Mixed-return names are dropped (cannot tell at a call site), but
    // the hardcoded API surface always stays.
    yes.retain(|n| RESULT_APIS.contains(&n.as_str()) || !no.contains(n));
    yes
}

/// Index of the `)` matching the `(` at `open`.
fn matching_paren(toks: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            Tok::Punct('(') => depth += 1,
            Tok::Punct(')') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
            _ => {}
        }
    }
    None
}

fn dropped_result(files: &[FileItems], g: &CallGraph, out: &mut Vec<Finding>) {
    let flagged = flagged_names(files, g);
    for r in &g.fns {
        let file = &files[r.file];
        let f = &file.fns[r.item];
        let Some((open, close)) = f.body else {
            continue;
        };
        if f.allows("dropped-result") {
            continue;
        }
        let toks = &file.tokens;
        let mut j = open + 1;
        while j < close {
            // `let [mut] <ident> [: Type] = <expr with a flagged call> ;`
            // A `_` binding is a discard outright; a named binding is a
            // drop when the name never occurs again before the body ends
            // (bound-then-unused — the silent variant `let _ =` hides
            // behind). Re-occurrence anywhere later is accepted as a use:
            // that over-approximates uses under shadowing, which can only
            // suppress findings, never fabricate them.
            if crate::rules::is_ident(&toks[j], "let") {
                // `if let` / `while let` are pattern matches — the
                // result IS being inspected, not dropped.
                let conditional = j >= 1
                    && matches!(&toks[j - 1].kind,
                        Tok::Ident(k) if k == "if" || k == "while");
                let mut p = j + 1;
                if crate::rules::is_ident_at(toks, p, "mut") {
                    p += 1;
                }
                // A binding ident directly followed by `(` or `::` is a
                // tuple-struct/enum pattern (`let Ok(x) = …`), not a
                // name that could silently swallow the value.
                let pattern = toks.get(p + 1).map(|t| &t.kind) == Some(&Tok::Punct('('))
                    || (toks.get(p + 1).map(|t| &t.kind) == Some(&Tok::Punct(':'))
                        && toks.get(p + 2).map(|t| &t.kind) == Some(&Tok::Punct(':')));
                let simple_binding = match toks.get(p).map(|t| &t.kind) {
                    Some(Tok::Ident(n)) if !conditional && !pattern => Some(n.clone()),
                    _ => None,
                };
                // Find the initializer's `=`, skipping an optional type
                // annotation; `;` or `{` first means this isn't a simple
                // initialized binding.
                let eq = simple_binding.as_ref().and_then(|_| {
                    let mut q = p + 1;
                    while q < close {
                        match &toks[q].kind {
                            Tok::Punct('=') => return Some(q),
                            Tok::Punct(';') | Tok::Punct('{') => return None,
                            _ => {}
                        }
                        q += 1;
                    }
                    None
                });
                if let (Some(name), Some(eq)) = (simple_binding, eq) {
                    let mut k = eq + 1;
                    let mut depth = 0usize;
                    let mut culprit = None;
                    while k < close {
                        match &toks[k].kind {
                            Tok::Punct('(') | Tok::Punct('[') | Tok::Punct('{') => depth += 1,
                            Tok::Punct(')') | Tok::Punct(']') | Tok::Punct('}') => {
                                depth = depth.saturating_sub(1)
                            }
                            Tok::Punct(';') if depth == 0 => break,
                            Tok::Ident(n)
                                if flagged.contains(n.as_str())
                                    && toks.get(k + 1).map(|t| &t.kind)
                                        == Some(&Tok::Punct('(')) =>
                            {
                                culprit.get_or_insert(k);
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    if let Some(c) = culprit {
                        let used_later = name != "_"
                            && toks[k..close]
                                .iter()
                                .any(|t| matches!(&t.kind, Tok::Ident(n) if *n == name));
                        if !used_later {
                            report_drop(file, toks, j, c, out);
                        }
                    }
                    j = k;
                    continue;
                }
            }
            // Statement-position call: `;|{|}  [recv . | Path ::] name ( … ) ;`
            if let Tok::Ident(n) = &toks[j].kind {
                if flagged.contains(n.as_str()) && crate::items::is_call_at(toks, j) {
                    // Walk the receiver/path chain back to the start of
                    // the expression.
                    let mut k = j;
                    loop {
                        if k >= 2
                            && toks[k - 1].kind == Tok::Punct('.')
                            && matches!(&toks[k - 2].kind, Tok::Ident(_))
                        {
                            k -= 2;
                            continue;
                        }
                        if k >= 3
                            && toks[k - 1].kind == Tok::Punct(':')
                            && toks[k - 2].kind == Tok::Punct(':')
                            && matches!(&toks[k - 3].kind, Tok::Ident(_))
                        {
                            k -= 3;
                            continue;
                        }
                        break;
                    }
                    let at_stmt_start = k == 0
                        || matches!(
                            toks[k - 1].kind,
                            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}')
                        );
                    if at_stmt_start {
                        if let Some(cp) = matching_paren(toks, j + 1) {
                            if toks.get(cp + 1).map(|t| &t.kind) == Some(&Tok::Punct(';')) {
                                report_drop(file, toks, j, j, out);
                            }
                        }
                    }
                }
            }
            j += 1;
        }
    }
}

fn report_drop(file: &FileItems, toks: &[Token], stmt: usize, call: usize, out: &mut Vec<Finding>) {
    let line = toks[stmt].line;
    let _ = call;
    if let Some(rules) = file.flow_allows.get(&line) {
        if rules.contains("dropped-result") {
            return;
        }
    }
    let snippet = file
        .lines
        .get(line as usize - 1)
        .map(|l| l.trim().to_string())
        .unwrap_or_default();
    out.push(Finding {
        path: file.path.clone(),
        line,
        rule: "dropped-result",
        snippet,
    });
}

// ---------------------------------------------------------------------
// recursion-bound
// ---------------------------------------------------------------------

fn recursion_bound(files: &[FileItems], g: &CallGraph, out: &mut Vec<Finding>) {
    for comp in g.recursive_components() {
        let names: Vec<&str> = comp.iter().map(|&v| qual(files, g, v)).collect();
        let cycle = names.join(" -> ");
        for &id in &comp {
            let r = g.fns[id];
            let f = &files[r.file].fns[r.item];
            if f.cycle_ok || f.allows("recursion-bound") {
                continue;
            }
            let (path, line, _) = line_snippet(files, g, id);
            out.push(Finding {
                path,
                line,
                rule: "recursion-bound",
                snippet: format!("recursion cycle without cycle-ok: {cycle}"),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(files: &[(&str, &str)]) -> (Vec<Finding>, FlowStats) {
        let owned: Vec<(String, String)> = files
            .iter()
            .map(|(p, s)| (p.to_string(), s.to_string()))
            .collect();
        flow_files(&owned)
    }

    #[test]
    fn clean_rng_plumbing_passes_and_owned_rng_fails() {
        let (fs, _) = run(&[(
            "crates/core/src/a.rs",
            "pub fn insert_one(rng: &mut impl Rng) { rng.gen::<u64>(); }\n\
             fn owned() -> u64 { let mut r = StdRng::seed_from_u64(1); r.gen() }\n",
        )]);
        assert_eq!(fs.len(), 1, "{fs:#?}");
        assert_eq!(fs[0].rule, "rng-plumbing");
        assert_eq!(fs[0].line, 2);
    }

    #[test]
    fn dropped_results_found_in_both_positions() {
        let (fs, _) = run(&[(
            "crates/core/src/a.rs",
            "fn send() -> Result<(), ()> { Ok(()) }\n\
             fn a() { let _ = send(); }\n\
             fn b() { send(); }\n\
             fn c() -> Result<(), ()> { send() }\n\
             fn d() { send().unwrap_or(()); }\n",
        )]);
        let lines: Vec<u32> = fs.iter().map(|f| f.line).collect();
        assert!(fs.iter().all(|f| f.rule == "dropped-result"));
        assert_eq!(lines, vec![2, 3], "{fs:#?}");
    }

    #[test]
    fn bound_then_unused_results_are_drops() {
        let (fs, _) = run(&[(
            "crates/core/src/a.rs",
            "fn send() -> Result<(), ()> { Ok(()) }\n\
             fn a() { let r = send(); }\n\
             fn b() { let _status = send(); }\n\
             fn c() { let mut r: Result<(), ()> = send(); r = Ok(()); r.unwrap_or(()); }\n\
             fn d() -> Result<(), ()> { let r = send(); r }\n\
             fn e() { let ok = send(); assert!(ok.is_ok()); }\n",
        )]);
        assert!(fs.iter().all(|f| f.rule == "dropped-result"));
        let lines: Vec<u32> = fs.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3], "{fs:#?}");
    }

    #[test]
    fn destructuring_and_uninitialized_lets_are_not_flagged() {
        let (fs, _) = run(&[(
            "crates/core/src/a.rs",
            "fn send() -> Result<(), ()> { Ok(()) }\n\
             fn a() { let (x, y) = (send(), 1); x.unwrap_or(()); let _ = y; }\n\
             fn b() { let r; r = send(); r.unwrap_or(()); }\n",
        )]);
        assert!(fs.is_empty(), "{fs:#?}");
    }

    #[test]
    fn unannotated_cycles_are_findings_and_cycle_ok_silences() {
        let (fs, _) = run(&[(
            "crates/dht/src/a.rs",
            "fn ping() { pong() }\n\
             fn pong() { ping() }\n\
             // dhs-flow: cycle-ok(strictly shrinking interval)\n\
             fn walk(n: u64) { if n > 0 { walk(n - 1) } }\n",
        )]);
        assert_eq!(fs.len(), 2, "{fs:#?}");
        assert!(fs.iter().all(|f| f.rule == "recursion-bound"));
        assert!(fs[0].snippet.contains("ping -> pong"));
    }

    #[test]
    fn test_code_and_opted_out_crates_are_out_of_scope() {
        let (fs, stats) = run(&[
            (
                "crates/core/src/a.rs",
                "#[cfg(test)]\nmod tests {\n  fn t() { let mut r = X::new(); r.gen::<u8>(); }\n}\n",
            ),
            (
                "crates/bench/src/b.rs",
                "fn owned() { let mut r = X::new(); r.gen::<u8>(); }\n",
            ),
        ]);
        assert!(fs.is_empty(), "{fs:#?}");
        assert_eq!(stats.files_scanned, 1, "bench is not a replay crate");
        assert_eq!(stats.functions, 0, "cfg(test) fns are out");
    }

    #[test]
    fn allow_directive_silences_each_rule() {
        let (fs, _) = run(&[(
            "crates/core/src/a.rs",
            "// dhs-flow: allow(rng-plumbing) — calibration owns its seeded stream\n\
             fn calibrate() -> u64 { let mut r = StdRng::seed_from_u64(1); r.gen() }\n\
             fn send() -> Result<(), ()> { Ok(()) }\n\
             fn f() {\n    // dhs-flow: allow(dropped-result) — fire and forget\n    let _ = send();\n}\n",
        )]);
        assert!(fs.is_empty(), "{fs:#?}");
    }
}
