//! Flow fixture corpus: each case under `fixtures/flow/<case>/` is a
//! mini-workspace; running the interprocedural analysis over it must
//! produce byte-for-byte the JSONL recorded in
//! `fixtures/flow/expected/<case>.jsonl`.
//!
//! Regenerate with `cargo run -p dhs-lint --example gen_expected`
//! after an intentional rule change — and eyeball the diff.

use std::fs;
use std::path::{Path, PathBuf};

use dhs_lint::{flow_files, render_flow_jsonl, rust_sources};

fn flow_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/flow")
}

fn run_case(case: &str) -> String {
    let case_root = flow_root().join(case);
    let mut inputs = Vec::new();
    for rel in rust_sources(&case_root).unwrap() {
        let src = fs::read_to_string(case_root.join(&rel)).unwrap();
        inputs.push((rel, src));
    }
    assert!(!inputs.is_empty(), "flow fixture `{case}` has no sources");
    let (findings, stats) = flow_files(&inputs);
    render_flow_jsonl(&findings, &stats)
}

fn check(case: &str) {
    let got = run_case(case);
    let want = fs::read_to_string(flow_root().join("expected").join(format!("{case}.jsonl")))
        .unwrap_or_else(|e| panic!("expected JSONL for `{case}`: {e}"));
    assert_eq!(got, want, "flow fixture `{case}` JSONL drifted");
}

#[test]
fn owned_rng_is_flagged_and_every_plumbed_variant_is_clean() {
    check("plumbing");
    let got = run_case("plumbing");
    assert_eq!(got.matches("rng-plumbing").count(), 1, "{got}");
}

#[test]
fn dropped_results_flagged_in_let_underscore_and_statement_position() {
    check("dropped");
}

#[test]
fn unannotated_cycles_flagged_cycle_ok_and_field_methods_clean() {
    check("cycles");
    let got = run_case("cycles");
    assert!(!got.contains("route_bounded"), "cycle-ok silences: {got}");
    assert!(
        !got.contains("RouteCache"),
        "field method ≠ self-loop: {got}"
    );
}

#[test]
fn fully_plumbed_workspace_is_clean() {
    check("flow_clean");
}

#[test]
fn flow_analysis_is_deterministic_per_case() {
    for case in ["cycles", "dropped", "flow_clean", "plumbing"] {
        assert_eq!(run_case(case), run_case(case), "case `{case}`");
    }
}
