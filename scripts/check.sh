#!/usr/bin/env bash
# Repo gate: formatting, lints, tests, docs, examples. Run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# twice <label> <cmd…>: run <cmd> twice and require its stdout to be
# non-empty and byte-identical across the two runs. A failing <cmd>
# fails the gate. The first run's stdout stays in $tmp/<label>.a for
# follow-up greps.
twice() {
  local label=$1 run
  shift
  for run in a b; do
    "$@" > "$tmp/$label.$run"
  done
  [ -s "$tmp/$label.a" ] && cmp "$tmp/$label.a" "$tmp/$label.b"
}
repro() { cargo run --release --quiet -p dhs-bench --bin repro -- "$@"; }

cargo fmt --all --check

# Static analysis, two layers. dhs-lint says what only a whole-workspace
# token and call-graph pass can: metric names against the dhs_obs
# registry, RNG plumbing, bounded recursion (see DESIGN.md). Its JSONL
# must be byte-identical across two runs — it polices replay, so it had
# better replay itself.
twice lint cargo run --release --quiet -p dhs-lint
echo "dhs-lint: clean, two runs byte-identical"

# clippy says the rest, from clippy.toml and [workspace.lints]: one
# clock (wall-clock time is read only by the out-of-workspace
# `benchmark/` crate), no settings through the environment, no ad-hoc
# threads or hash-ordered containers on the replay path, no truncating
# casts, no panics in library code, no discarded results.
cargo clippy --workspace --all-targets -- -D warnings
cargo test --workspace -q
# The benchmark crate sits outside the workspace and most PRs may not edit
# it: building it here is what notices a surface change that breaks it.
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
# What the merge pipeline will say, said here first: the benchmark's own
# tests, then all four workloads untraced and traced at smoke scale. Each
# run ends in one JSON summary line; an output check that did not hold
# (exit 1) or a single failed operation refuses the PR.
cargo test --offline --quiet --manifest-path benchmark/Cargo.toml
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
  run --quick --trace both > "$tmp/bench.out"
grep '^{"correct"' "$tmp/bench.out" > "$tmp/bench.summaries"
[ -s "$tmp/bench.summaries" ]
if grep -v '"correct": true, "attempted": [0-9]*, "failed": 0,' "$tmp/bench.summaries"; then
  echo "benchmark smoke: a run was incorrect or had failed operations" >&2
  exit 1
fi
echo "benchmark smoke: $(wc -l < "$tmp/bench.summaries") runs correct, 0 failed operations"
cargo build --workspace --examples
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Observability determinism self-check: the instrumented example must
# replay byte-identically — two same-seed runs, compared as raw stdout
# (metrics JSONL, span digests, load table and all).
twice observability cargo run --release --quiet --example observability
echo "observability example: two runs byte-identical"

# Every experiment at quick scale, against the committed reference:
# `repro` reads no clock, so a fresh `repro all --quick` must equal
# experiments_output.quick.txt byte for byte (~1.5 min on 2 cores). A
# change that moves a figure regenerates the file and says why.
repro all --quick > "$tmp/quick"
cmp "$tmp/quick" experiments_output.quick.txt
echo "repro all --quick: byte-identical to experiments_output.quick.txt"

# Sharded-store scenario at CI scale: the N4 workload (10⁶ metrics at
# full scale, 2×10⁴ here) through the tiered store, twice. `repro`
# reads no clock, so the whole stdout — per-shard table, tier census,
# eviction digest and the state digest folding routing, promotions,
# evictions and every estimate — must agree exactly, and every
# equivalence acceptance line must PASS.
twice shard repro shard --scale 0.002
if grep FAIL "$tmp/shard.a"; then exit 1; fi
echo "shard scenario (2×10⁴ metrics): equivalent, two runs byte-identical"

# Threaded-driver scenario at CI scale: the N6 saturation sweep
# (5×10³ metrics) at 1, 2, 4 and 8 worker threads, twice. The state
# and metric digests fold every (key, estimate) pair shard by shard, so
# the two runs must agree exactly, and the acceptance lines require
# them equal across the four thread counts (the dhs-par
# thread-count-invariance contract) and a virtual speedup ≥ 3× at 4.
twice saturation repro saturation --scale 0.0005
if grep FAIL "$tmp/saturation.a"; then exit 1; fi
echo "saturation scenario (5×10³ metrics): digests thread-count-invariant, two runs byte-identical"

# Ablation-harness gate: the smoke plans (CI-scale N3/N4/N6 sweeps) must
# (a) pass every declared KPI envelope, (b) print byte-identical report
# JSON across two runs, and (c) show no KPI drift against the committed
# trajectory registry — a perturbed baseline makes this a hard failure.
# The smoke-saturation plan runs W = 1 and W = 2 jobs, so its
# digest_invariant KPI re-checks thread-count invariance under --gate.
twice ablate repro ablate smoke smoke-saturation --gate
echo "ablation smoke plans: KPIs in envelope, no drift vs registry/traj.csv, two runs byte-identical"

echo "all checks passed"
