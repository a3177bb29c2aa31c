#!/usr/bin/env bash
# A/A acceptance: two full sets of the same build and seed must agree
# within the benchmark's own bounds on every (workload, end-to-end
# metric) pair — `compare` exits non-zero on any "worse".
#   benchmark/aa.sh [seed]
set -euo pipefail
cd "$(dirname "$0")/.."

seed="${1:-42}"
dir="benchmark/results/aa"
mkdir -p "$dir"
benchmark/run.sh "$seed" "$dir/a-${seed}.json"
benchmark/run.sh "$seed" "$dir/b-${seed}.json"
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    compare "$dir/a-${seed}.json" "$dir/b-${seed}.json"
