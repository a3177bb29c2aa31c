//! The mutation audit of DESIGN.md §dhs-lint, executable for this
//! crate's rows: each mutant seeds one invariant violation into the
//! *real* workspace sources and the named rule must fire on it.
//!
//! A mutant is appended to its host file's text as a new item — no
//! in-place anchors, so refactors of the host do not break the audit —
//! and only findings on the appended lines count. The mutated text is
//! linted, never compiled. The rows owned by clippy (M1, M2b, M4b, M5,
//! M6, M8, M12), rustc, the test suite and the registry gate are
//! DESIGN.md's to record, not cases here.

use std::fs;
use std::path::Path;

use dhs_lint::{lint_files, rust_sources, Finding};

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

struct Mutant {
    id: &'static str,
    host: &'static str,
    item: &'static str,
    rule: &'static str,
}

const MUTANTS: &[Mutant] = &[
    Mutant {
        id: "M7 unregistered metric literal",
        host: "crates/core/src/insert.rs",
        item: "fn mutant_metric(rec: &mut dyn Recorder) { rec.incr(\"op.insertt\", 1); }",
        rule: "metric_names",
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

#[test]
fn rules_bite_on_real_sources() {
    let sources: Vec<(String, String)> = rust_sources(workspace_root())
        .unwrap()
        .into_iter()
        .map(|rel| {
            let text = fs::read_to_string(workspace_root().join(&rel)).unwrap();
            (rel, text)
        })
        .collect();
    for m in MUTANTS {
        let mut mutated = sources.clone();
        let slot = mutated
            .iter_mut()
            .find(|(rel, _)| rel == m.host)
            .unwrap_or_else(|| panic!("{}: host {} not in the workspace", m.id, m.host));
        // Findings past the host's own last line belong to the mutant.
        let own_lines = slot.1.lines().count();
        slot.1 = format!("{}\n{}\n", slot.1, m.item);
        let (findings, _) = lint_files(&mutated);
        let on_mutant: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.path == m.host && f.line as usize > own_lines)
            .collect();
        assert!(
            on_mutant.iter().any(|f| f.rule == m.rule),
            "{}: `{}` did not fire on the mutant; got {on_mutant:#?}",
            m.id,
            m.rule
        );
    }
}
