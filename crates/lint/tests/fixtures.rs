//! Fixture corpus: each case under `fixtures/<case>/` is a
//! mini-workspace; linting it must produce byte-for-byte the JSONL
//! recorded in `fixtures/expected/<case>.jsonl`.
//!
//! Regenerate the expected files with
//! `cargo run -p dhs-lint --example gen_expected` after an intentional
//! rule change — and eyeball the diff.

#![expect(
    clippy::unwrap_used,
    clippy::panic,
    reason = "test helpers fail loudly"
)]

use std::fs;
use std::path::{Path, PathBuf};

use dhs_lint::{lint_workspace, render_jsonl};

fn fixtures() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

fn run(case: &str) -> String {
    let (findings, stats) = lint_workspace(&fixtures().join(case)).unwrap();
    assert!(stats.files_scanned > 0, "fixture `{case}` has no sources");
    render_jsonl(&findings, &stats)
}

fn check(case: &str) -> String {
    let got = run(case);
    let want = fs::read_to_string(fixtures().join("expected").join(format!("{case}.jsonl")))
        .unwrap_or_else(|e| panic!("expected JSONL for `{case}`: {e}"));
    assert_eq!(got, want, "fixture `{case}` JSONL drifted");
    got
}

#[test]
fn a_workspace_that_keeps_every_rule_reports_nothing() {
    assert!(check("clean").ends_with("\"findings\":0}\n"));
}

#[test]
fn off_registry_metric_names_are_found_literal_and_propagated() {
    let got = check("metric_names");
    assert_eq!(got.matches("metric_names").count(), 4, "{got}");
    // Two come from constant propagation, not the literal scan: the
    // const concat and the single-assignment local resolve to
    // non-canonical values; the poisoned `mut` binding is skipped.
    assert!(got.contains("rec.incr(BAD_NAME, 1);"), "{got}");
    assert!(got.contains("rec.observe(typo, v);"), "{got}");
    assert!(!got.contains("rec.observe(dynamic, v);"), "{got}");
}

#[test]
fn owned_rng_is_flagged_and_every_plumbed_variant_is_clean() {
    assert_eq!(check("plumbing").matches("rng-plumbing").count(), 1);
}

#[test]
fn unannotated_cycles_flagged_cycle_ok_and_field_methods_clean() {
    let got = check("cycles");
    assert!(!got.contains("route_bounded"), "cycle-ok silences: {got}");
    assert!(
        !got.contains("RouteCache"),
        "field method ≠ self-loop: {got}"
    );
}

#[test]
fn linting_is_deterministic_per_case() {
    for case in ["clean", "cycles", "metric_names", "plumbing"] {
        assert_eq!(run(case), run(case), "case `{case}`");
    }
}
