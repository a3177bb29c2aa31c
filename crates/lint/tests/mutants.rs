//! The mutation audit of DESIGN.md §dhs-lint, executable: each mutant
//! seeds one invariant violation into the *real* workspace sources and
//! the named rule must fire on it.
//!
//! A mutant is appended to its host file's text as a new item — no
//! in-place anchors, so refactors of the host do not break the audit —
//! and only findings on the appended lines count. The mutated text is
//! linted, never compiled. Mutants the lint deliberately leaves to a
//! cheaper layer (M3 → `tests/fastpath.rs`, M4a/M4c → rustc, M5's
//! backup → clippy, M11c → `crates/bench/tests/registry_gate.rs`) are
//! rows of the DESIGN.md table, not cases here.

use std::fs;
use std::path::Path;

use dhs_lint::{flow_files, lint_source, rust_sources, Finding, NameSet};

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

struct Mutant {
    id: &'static str,
    host: &'static str,
    item: &'static str,
    rule: &'static str,
}

/// M1, M2b, M5, M6, M7, M8, M12: one file's tokens are enough.
const TOKEN_MUTANTS: &[Mutant] = &[
    Mutant {
        id: "M1 wall clock on the send path",
        host: "crates/core/src/count.rs",
        item: "fn mutant_clock() -> std::time::Instant { std::time::Instant::now() }",
        rule: "determinism",
    },
    Mutant {
        id: "M2b wall clock in the workload generator par replays",
        host: "crates/workload/src/tenants.rs",
        item: "fn mutant_stamp() -> std::time::SystemTime { std::time::SystemTime::now() }",
        rule: "determinism",
    },
    Mutant {
        id: "M5 narrowing cast next to classify",
        host: "crates/core/src/insert.rs",
        item: "fn mutant_vector(low_bits: u64) -> u16 { low_bits as u16 }",
        rule: "lossy_cast",
    },
    Mutant {
        id: "M6 stray thread::spawn",
        host: "crates/core/src/count.rs",
        item: "fn mutant_spawn() { std::thread::spawn(|| ()); }",
        rule: "determinism",
    },
    Mutant {
        id: "M7 unregistered metric literal",
        host: "crates/core/src/insert.rs",
        item: "fn mutant_metric(rec: &mut dyn Recorder) { rec.incr(\"op.insertt\", 1); }",
        rule: "metric_names",
    },
    Mutant {
        id: "M8 unwrap in library code",
        host: "crates/core/src/retry.rs",
        item: "fn mutant_unwrap(v: Option<u64>) -> u64 { v.unwrap() }",
        rule: "panic_hygiene",
    },
    Mutant {
        id: "M12 iteration over a fully-qualified HashMap",
        host: "crates/dht/src/cost.rs",
        item: "fn mutant_hash_order(seen: &std::collections::HashMap<u64, u64>) -> u64 {\n    \
               seen.values().sum()\n}",
        rule: "determinism",
    },
];

/// M4b, M9, M10, M10b: need the workspace item table or call graph.
const FLOW_MUTANTS: &[Mutant] = &[
    Mutant {
        id: "M4b delivery result bound to `_`",
        host: "crates/core/src/count.rs",
        item: "fn mutant_discard() { let _ = routed_send(); }",
        rule: "dropped-result",
    },
    Mutant {
        id: "M9 draw from an owned RNG",
        host: "crates/core/src/insert.rs",
        item: "fn mutant_owned_rng() -> u64 {\n    \
               let mut own = StdRng::seed_from_u64(7);\n    own.gen()\n}",
        rule: "rng-plumbing",
    },
    Mutant {
        id: "M10 self recursion",
        host: "crates/core/src/count.rs",
        item: "fn mutant_descend(depth: u64) -> u64 { mutant_descend(depth + 1) }",
        rule: "recursion-bound",
    },
    Mutant {
        id: "M10b mutual recursion",
        host: "crates/core/src/count.rs",
        item: "fn mutant_ping(n: u64) -> u64 { mutant_pong(n) }\n\
               fn mutant_pong(n: u64) -> u64 { mutant_ping(n) }",
        rule: "recursion-bound",
    },
];

fn read(rel: &str) -> String {
    fs::read_to_string(workspace_root().join(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// The host's text with the mutant appended, and the host's own line
/// count (findings past it belong to the mutant).
fn seed(m: &Mutant) -> (String, u32) {
    let host = read(m.host);
    let own_lines = u32::try_from(host.lines().count()).expect("line count fits u32");
    (format!("{host}\n{}\n", m.item), own_lines)
}

fn assert_bites(m: &Mutant, findings: &[Finding], own_lines: u32) {
    let on_mutant: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.path == m.host && f.line > own_lines)
        .collect();
    assert!(
        on_mutant.iter().any(|f| f.rule == m.rule),
        "{}: `{}` did not fire on the mutant; got {on_mutant:#?}",
        m.id,
        m.rule
    );
}

#[test]
fn token_rules_bite_on_real_sources() {
    let names = NameSet::parse(&read("crates/obs/src/names.rs"));
    assert!(!names.is_empty(), "canonical name table parsed empty");
    for m in TOKEN_MUTANTS {
        let (text, own_lines) = seed(m);
        assert_bites(m, &lint_source(m.host, &text, &names), own_lines);
    }
}

#[test]
fn flow_rules_bite_on_real_sources() {
    let sources: Vec<(String, String)> = rust_sources(workspace_root())
        .unwrap()
        .into_iter()
        .map(|rel| {
            let text = read(&rel);
            (rel, text)
        })
        .collect();
    for m in FLOW_MUTANTS {
        let (text, own_lines) = seed(m);
        let mut mutated = sources.clone();
        let slot = mutated
            .iter_mut()
            .find(|(rel, _)| rel == m.host)
            .unwrap_or_else(|| panic!("{}: host {} not in the workspace", m.id, m.host));
        slot.1 = text;
        assert_bites(m, &flow_files(&mutated).0, own_lines);
    }
}
