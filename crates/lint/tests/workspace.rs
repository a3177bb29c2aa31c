//! The gate itself, as a test: the real workspace must lint clean, and
//! two full runs must render byte-identical JSONL.

use std::path::Path;

use dhs_lint::{flow_workspace, lint_workspace, render_flow_jsonl, render_jsonl};

fn workspace_root() -> &'static Path {
    // crates/lint/../.. — the directory holding the workspace Cargo.toml.
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn real_workspace_has_zero_findings() {
    let (findings, scanned) = lint_workspace(workspace_root()).unwrap();
    assert!(scanned > 50, "suspiciously few files scanned: {scanned}");
    assert!(
        findings.is_empty(),
        "workspace lint findings:\n{}",
        render_jsonl(&findings, scanned)
    );
}

#[test]
fn two_runs_are_byte_identical() {
    let (f1, n1) = lint_workspace(workspace_root()).unwrap();
    let (f2, n2) = lint_workspace(workspace_root()).unwrap();
    assert_eq!(render_jsonl(&f1, n1), render_jsonl(&f2, n2));
}

#[test]
fn real_workspace_flow_has_zero_findings() {
    let (findings, stats) = flow_workspace(workspace_root()).unwrap();
    assert!(
        stats.files_scanned > 50,
        "suspiciously few library files: {}",
        stats.files_scanned
    );
    assert!(
        stats.functions > 300,
        "suspiciously small call graph: {} fns",
        stats.functions
    );
    assert!(
        findings.is_empty(),
        "workspace flow findings:\n{}",
        render_flow_jsonl(&findings, &stats)
    );
}

#[test]
fn opt_out_lists_stay_subsets_of_the_real_member_list() {
    // The scopes are *derived* from Cargo.toml members minus explicit
    // opt-outs; an opt-out naming a crate that no longer exists is a
    // stale entry this test forces someone to delete.
    let members = dhs_lint::workspace_members(workspace_root()).unwrap();
    assert!(members.len() >= 10, "member parse broke: {members:?}");
    for c in dhs_lint::rules::REPLAY_OPT_OUT {
        assert!(
            members.iter().any(|m| m == c),
            "stale REPLAY_OPT_OUT entry `{c}`"
        );
    }
    for c in dhs_lint::rules::METRIC_NAME_OPT_OUT {
        assert!(
            members.iter().any(|m| m == c),
            "stale METRIC_NAME_OPT_OUT entry `{c}`"
        );
    }
    // And the derived scopes are exactly members minus opt-outs.
    let replay = dhs_lint::walk::derived_replay_crates(workspace_root()).unwrap();
    assert!(replay.contains(&"core".to_string()) && !replay.contains(&"bench".to_string()));
    // core, net and par replay the workload generator's streams.
    assert!(replay.contains(&"workload".to_string()));
    let metric = dhs_lint::walk::derived_metric_name_crates(workspace_root()).unwrap();
    assert!(metric.contains(&"bench".to_string()) && !metric.contains(&"sketch".to_string()));
}

#[test]
fn two_flow_runs_are_byte_identical() {
    let (f1, s1) = flow_workspace(workspace_root()).unwrap();
    let (f2, s2) = flow_workspace(workspace_root()).unwrap();
    assert_eq!(render_flow_jsonl(&f1, &s1), render_flow_jsonl(&f2, &s2));
}
