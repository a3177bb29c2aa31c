#!/usr/bin/env bash
# Repo gate: formatting, lints, tests, docs, examples. Run before every push.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# twice <label> [filter] -- <cmd…>: run <cmd> twice and require its
# stdout — or, given a filter (a stdin→stdout command), the non-empty
# extract the filter takes from it — to be byte-identical across the
# two runs. A failing <cmd> fails the gate. The first run's stdout stays
# in $tmp/<label>.a for follow-up greps.
twice() {
  local label=$1 filter=cat run
  shift
  [ "$1" = -- ] || { filter=$1; shift; }
  shift
  for run in a b; do
    "$@" > "$tmp/$label.$run"
    "$filter" < "$tmp/$label.$run" > "$tmp/$label.$run.key"
  done
  [ -s "$tmp/$label.a.key" ] && cmp "$tmp/$label.a.key" "$tmp/$label.b.key"
}
repro() { cargo run --release --quiet -p dhs-bench --bin repro -- "$@"; }

cargo fmt --all --check

# Static-analysis gate first: dhs-lint enforces determinism, lossy-cast,
# metric-name, and panic-hygiene invariants (see DESIGN.md). Its JSONL
# must also be byte-identical across two runs — the lint polices
# determinism, so it had better be deterministic itself.
twice lint -- cargo run --release --quiet -p dhs-lint
echo "dhs-lint: clean, two runs byte-identical"

# Interprocedural gate: dhs-flow links the workspace call graph and
# checks the rng-plumbing, dropped-result, and recursion-bound
# whole-program invariants. Same determinism contract.
twice flow -- cargo run --release --quiet -p dhs-lint -- --flow
echo "dhs-lint --flow: clean, two runs byte-identical"

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

# Criterion benches in quick mode: a 25 ms measurement window per target
# smoke-tests every bench without paying full measurement time.
DHS_BENCH_MS=25 cargo bench --workspace --quiet

# Observability determinism self-check: the instrumented example must
# replay byte-identically — two same-seed runs, compared as raw stdout
# (metrics JSONL, span digests, load table and all).
twice observability -- cargo run --release --quiet --example observability
echo "observability example: two runs byte-identical"

# Sharded-store scenario at CI scale: the N4 workload (10⁶ metrics at
# full scale, DHS_SHARD_METRICS-scaled here) through the tiered store,
# twice. The JSON's state_digest folds routing, tier promotions,
# eviction order, and every estimate — wall-clock-free, so two runs
# must agree exactly.
export DHS_SHARD_METRICS="${DHS_SHARD_METRICS:-20000}"
state_digest() { grep -o '"state_digest": "[^"]*"'; }
twice shard state_digest -- repro bench-shard --out "$tmp/shard.json"
grep -q '"sharded_equals_single_shard": true' "$tmp/shard.a"
grep -q '"lossless_spill_preserves_estimates": true' "$tmp/shard.a"
grep -q '"two_runs_identical": true' "$tmp/shard.a"
echo "shard scenario (DHS_SHARD_METRICS=$DHS_SHARD_METRICS): equivalent, two runs digest-identical"

# Threaded-driver scenario at CI scale: the N6 saturation sweep
# (DHS_SAT_METRICS-scaled) at 1 and at 2 worker threads, twice each.
# The state digest folds every (key, estimate) pair shard by shard —
# wall-clock-free — so the four runs must agree on it exactly: two
# same-seed runs per thread count (reproducibility) *and* across the
# two thread counts (the dhs-par thread-count-invariance contract).
export DHS_SAT_METRICS="${DHS_SAT_METRICS:-5000}"
sat_digest() { grep -o 'state digest 0x[0-9a-f]*'; }
twice saturation sat_digest -- repro saturation
grep -q 'digests invariant across thread counts: PASS' "$tmp/saturation.a"
echo "saturation scenario (DHS_SAT_METRICS=$DHS_SAT_METRICS): digest thread-count-invariant, two runs identical"

# Ablation-harness gate: the smoke plans (CI-scale N3/N4/N6 sweeps) must
# (a) pass every declared KPI envelope, (b) print byte-identical report
# JSON across two runs, and (c) show no KPI drift against the committed
# trajectory registry — a perturbed baseline makes this a hard failure.
# The smoke-saturation plan runs W = 1 and W = 2 jobs, so its
# digest_invariant KPI re-checks thread-count invariance under --gate.
twice ablate -- repro ablate smoke smoke-saturation --gate
echo "ablation smoke plans: KPIs in envelope, no drift vs registry/traj.csv, two runs byte-identical"

echo "all checks passed"
