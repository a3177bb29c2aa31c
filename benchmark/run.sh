#!/usr/bin/env bash
# One full set: build offline, run the four workloads untraced then
# traced, write benchmark/results/<commit>-<seed>.json with provenance.
#   benchmark/run.sh [seed] [out-file]
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-42}"
commit="$(git rev-parse --short HEAD 2>/dev/null || echo nogit)"
# A tree with uncommitted changes is not the commit it sits on.
[ -z "$(git status --porcelain 2>/dev/null)" ] || commit="${commit}-dirty"
out="${2:-benchmark/results/${commit}-${seed}.json}"
mkdir -p "$(dirname "$out")"

cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    run --seed "$seed" --trace both --out "$out" \
    --note "commit=${commit}" \
    --note "rustc=$(rustc --version)" \
    --note "host=$(uname -sr)"
echo "wrote $out"
