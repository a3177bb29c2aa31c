#!/usr/bin/env bash
# Regenerate the trajectory registry: builds the workspace in release
# mode, runs the full N3/N4/N6 ablation plans (n3-fastpath, n4-shard,
# n6-saturation), gates their KPIs against the committed
# registry/traj.csv, and appends the new rows to it when every KPI
# passed. All of these KPIs are model outputs (hops, messages, bytes,
# virtual-tick speedup, digests); wall-clock speed is measured by the
# out-of-workspace `benchmark/` crate.
#
# Extra flags are forwarded to repro (e.g. `scripts/bench.sh --quick`,
# `scripts/bench.sh --nodes 256 --seed 7`).
set -euo pipefail
cd "$(dirname "$0")/.."

# Stamp registry rows with the commit under measurement ("unknown"
# outside a git checkout).
DHS_COMMIT="${DHS_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}"
export DHS_COMMIT

cargo build --release --workspace
cargo run --release -p dhs-bench --bin repro -- ablate n3-fastpath n4-shard n6-saturation --gate --append "$@"
