//! The registry gate as a tier-1 test: the smoke ablation plans must
//! pass their KPI envelopes and show no drift against the committed
//! `registry/traj.csv`.
//!
//! This is the layer that catches a ledger-changing protocol edit — an
//! extra `transport.exchange` on the insert path leaves every unit test
//! green and trips four `GATE VIOLATION`s here (mutant M11c in
//! DESIGN.md §dhs-lint). It drives the same `repro ablate … --gate`
//! path as `scripts/check.sh`, so `cargo test` and the gate cannot
//! disagree.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_plans_hold_against_the_committed_registry() {
    let registry = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../registry/traj.csv");
    // Without a registry `--gate` has nothing to compare and passes.
    assert!(registry.is_file(), "missing {}", registry.display());
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["ablate", "smoke", "smoke-saturation", "--gate"])
        .arg("--registry")
        .arg(&registry)
        .output()
        .expect("repro runs");
    assert!(
        out.status.success(),
        "smoke plans left their envelopes or drifted from registry/traj.csv:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
