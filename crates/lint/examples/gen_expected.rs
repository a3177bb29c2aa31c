//! One-off generator for fixture expected JSONL (dev aid).
use std::fs;
use std::path::Path;

use dhs_lint::{flow_files, lint_source, render_flow_jsonl, render_jsonl, rust_sources, NameSet};

/// The flow fixture cases: each is a mini-workspace under
/// `fixtures/flow/<case>/`.
pub const FLOW_CASES: &[&str] = &["cycles", "dropped", "flow_clean", "plumbing"];

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures");
    let names = NameSet::from_names(["op.insert".to_string(), "latency.ticks".to_string()]);
    let cases = [
        ("clean", "crates/core/src/clean.rs"),
        ("determinism", "crates/core/src/determinism.rs"),
        ("lossy_cast", "crates/core/src/lossy.rs"),
        ("metric_names", "crates/core/src/metrics.rs"),
        ("metric_flow", "crates/core/src/metric_flow.rs"),
        ("panic_hygiene", "crates/dht/src/panics.rs"),
        ("allowed", "crates/core/src/allowed.rs"),
        ("threading", "crates/core/src/threading.rs"),
        ("threading_approved", "crates/par/src/driver.rs"),
    ];
    for (case, rel) in cases {
        let src = fs::read_to_string(root.join(rel)).unwrap();
        let findings = lint_source(&format!("fixtures/{rel}"), &src, &names);
        let out = render_jsonl(&findings, 1);
        fs::write(root.join("expected").join(format!("{case}.jsonl")), &out).unwrap();
        print!("--- {case}\n{out}");
    }
    for case in FLOW_CASES {
        let case_root = root.join("flow").join(case);
        let mut inputs = Vec::new();
        for rel in rust_sources(&case_root).unwrap() {
            let src = fs::read_to_string(case_root.join(&rel)).unwrap();
            inputs.push((rel, src));
        }
        let (findings, stats) = flow_files(&inputs);
        let out = render_flow_jsonl(&findings, &stats);
        let dest = root.join("flow").join("expected");
        fs::create_dir_all(&dest).unwrap();
        fs::write(dest.join(format!("{case}.jsonl")), &out).unwrap();
        print!("--- flow/{case}\n{out}");
    }
}
