//! Interprocedural flow rules over the [`crate::callgraph`].
//!
//! Rule catalog (ids are what `// dhs-flow: allow(<rule>)` takes):
//!
//! | id               | guards against                                          |
//! |------------------|---------------------------------------------------------|
//! | `rng-plumbing`   | library fns drawing from an RNG they own instead of a   |
//! |                  | caller-supplied `&mut impl Rng`                         |
//! | `recursion-bound`| call-graph cycles without a `dhs-flow: cycle-ok(reason)`|
//! |                  | annotation on every participating fn                    |
//!
//! Scope: library sources of the replay crates (see
//! [`crate::rules::flow_scope`]); `#[cfg(test)]` extents are out.
//! Clippy cannot say either: one needs to know which values came from
//! a caller, the other needs the whole-workspace call graph. DESIGN.md's
//! audit table records what moved to clippy and what went.

use crate::callgraph::{CallGraph, FnId};
use crate::items::{parse_items, FileItems};
use crate::lexer::{Tok, Token};
use crate::report::Stats;
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

/// Run the flow analysis over `(path, source)` pairs. Paths select
/// scope via [`crate::rules::flow_scope`]; other files are skipped.
/// Returns sorted, deduplicated findings plus stats (`files_scanned`
/// counts every input).
pub fn flow_files(inputs: &[(String, String)]) -> (Vec<Finding>, Stats) {
    let files: Vec<FileItems> = inputs
        .iter()
        .filter(|(p, _)| crate::rules::flow_scope(&crate::rules::classify(p)))
        .map(|(p, s)| parse_items(p, s))
        .collect();
    let graph = CallGraph::build(&files);

    let mut findings = Vec::new();
    rng_plumbing(&files, &graph, &mut findings);
    recursion_bound(&files, &graph, &mut findings);
    findings.sort();
    findings.dedup();

    let stats = Stats {
        files_scanned: inputs.len(),
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
// recursion-bound
// ---------------------------------------------------------------------

fn recursion_bound(files: &[FileItems], g: &CallGraph, out: &mut Vec<Finding>) {
    for comp in g.recursive_components() {
        let names: Vec<&str> = comp.iter().map(|&v| qual(files, g, v)).collect();
        let cycle = names.join(" -> ");
        for &id in &comp {
            let r = g.fns[id];
            let f = &files[r.file].fns[r.item];
            if f.allows("cycle-ok") || f.allows("recursion-bound") {
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

    fn run(files: &[(&str, &str)]) -> (Vec<Finding>, Stats) {
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
        assert_eq!(stats.files_scanned, 2);
        assert_eq!(stats.functions, 0, "cfg(test) fns and bench are out");
    }

    #[test]
    fn allow_directive_silences_each_rule() {
        let (fs, _) = run(&[(
            "crates/core/src/a.rs",
            "// dhs-flow: allow(rng-plumbing) — calibration owns its seeded stream\n\
             fn calibrate() -> u64 { let mut r = StdRng::seed_from_u64(1); r.gen() }\n\
             fn spin(n: u64) { spin(n) } // dhs-flow: allow(recursion-bound)\n",
        )]);
        assert!(fs.is_empty(), "{fs:#?}");
    }
}
