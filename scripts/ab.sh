#!/usr/bin/env bash
# A/B timing of the working tree against a base commit, judged by the
# benchmark's own `compare`.
#
#   scripts/ab.sh <base-ref> [workload…]        (default: all four)
#
# Exports the base ref's tree with `git archive`, builds both benchmark
# binaries into separate target dirs, then per workload runs 10
# alternating base/head pairs (`run --trace 0` at the benchmark's own run
# length, the same seed on both sides of a pair — 42 for the first pair,
# 43 for the next and so on — base first on even pairs and head first on
# odd ones) and one traced pair. It first prints where the hot functions
# sit in each binary (below). Per workload it then prints:
#   1. per rate or latency metric, the median change, the pairs the head
#      won and the base's interquartile range, relative to its median;
#   2. the traced pair's layer timings of the workload's own phases;
#   3. a diff of every exact value — `failed`, `count_rel_err`,
#      `store_bytes_per_sketch` per pair, and every count, hop, message,
#      byte and model-ratio layer metric of the traced pair — which must
#      all be equal;
#   4. `dhs-benchmark compare` of the two sides' medians, with min–max
#      over the runs as each side's range: ok / worse / unresolved per
#      end-to-end metric.
# Exits 1 on a `worse` row or an exact value that differs. It drives the
# benchmark CLI only; nothing under benchmark/ is edited.
#
# Every run's JSON is kept under AB_OUT (default target/ab).
set -euo pipefail
cd "$(dirname "$0")/.."

[ $# -ge 1 ] || { echo "usage: scripts/ab.sh <base-ref> [workload…]" >&2; exit 2; }
base_ref=$1
shift
workloads=(dhs-write dhs-read net-lossy tenant-ingest)
[ $# -eq 0 ] || workloads=("$@")
pairs=10
seed0=42
out=${AB_OUT:-target/ab}

mkdir -p "$out"
out=$(cd "$out" && pwd)
rm -rf "$out/base-src"
mkdir -p "$out/base-src"
git archive "$(git rev-parse --verify "$base_ref^{commit}")" | tar -x -C "$out/base-src"

build() { # build <source dir> <side>
  CARGO_TARGET_DIR="$out/target-$2" cargo build --release --offline --quiet \
    --manifest-path "$1/benchmark/Cargo.toml"
  cp "$out/target-$2/release/dhs-benchmark" "$out/bin-$2"
}
build "$out/base-src" base
build . head

# Code placement: the start address mod 64 of every instance of each
# hot function, per binary. Count rates move with where these fall
# relative to 64-byte lines, so a row whose offsets differ between the
# two sides is marked `placement?`: before blaming the change for a rate
# on that path, rebuild both sides with
# RUSTFLAGS="-C llvm-args=-align-all-functions=6" and run a pair again.
python3 - "$out/bin-base" "$out/bin-head" <<'EOF'
import re, subprocess, sys

hot = [
    ("<Ring as Overlay>::fetch_at", r"<dhs_dht::ring::Ring as dhs_dht::overlay::Overlay>::fetch_at"),
    ("Ring::get_at", r"dhs_dht::ring::Ring::get_at"),
    ("Ring::route", r"dhs_dht::ring::Ring::route"),
    ("Registers::apply_hits", r"dhs_core::count::Registers::apply_hits"),
    ("CostLedger::record_visit", r"dhs_dht::cost::CostLedger::record_visit"),
    ("ShardedStore::observe_item", r"dhs_shard::store::ShardedStore(<.*>)?::observe_item"),
]

def offsets(binary):
    out = subprocess.run(["nm", "-C", binary], capture_output=True, text=True, check=True).stdout
    syms = sorted(
        (int(addr, 16), name)
        for addr, kind, name in (line.split(" ", 2) for line in out.splitlines() if line[:1] != " ")
        if kind in "Tt"
    )
    return {label: [a % 64 for a, name in syms if re.fullmatch(pat, name)] for label, pat in hot}

sides = [offsets(b) for b in sys.argv[1:3]]
show = lambda offs: ",".join(map(str, offs)) or "inlined"
print("\ncode placement, start address mod 64 of every instance:")
print(f"  {'function':28} {'base':>12} {'head':>12}")
for label, _ in hot:
    b, h = (side[label] for side in sides)
    print(f"  {label:28} {show(b):>12} {show(h):>12}{'  placement?' if b != h else ''}")
EOF

status=0
for w in "${workloads[@]}"; do
  dir="$out/$w"
  rm -rf "$dir"
  mkdir -p "$dir"
  for ((i = 0; i < pairs; i++)); do
    seed=$((seed0 + i))
    order="base head"
    ((i % 2 == 0)) || order="head base"
    for side in $order; do
      # An incorrect run still writes its JSON; the exact diff reports it.
      "$out/bin-$side" run --workload "$w" --seed "$seed" --trace 0 \
        --out "$dir/$side-$seed.json" > "$dir/$side-$seed.txt" || true
    done
    echo "$w: pair $((i + 1))/$pairs done"
  done
  for side in base head; do
    "$out/bin-$side" run --workload "$w" --seed "$seed0" --trace 1 \
      --out "$dir/$side-traced.json" > "$dir/$side-traced.txt" || true
  done

  python3 - "$dir" "$pairs" "$seed0" <<'EOF' || status=1
import json, statistics, sys

d, pairs, seed0 = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
seeds = range(seed0, seed0 + pairs)
load = lambda p: json.load(open(p))["runs"][0]
runs = {s: [load(f"{d}/{s}-{n}.json") for n in seeds] for s in ("base", "head")}

def median_file(side):
    first = json.loads(json.dumps(runs[side][0]))
    for name, m in first["metrics"].items():
        vals = [r["metrics"][name]["value"] for r in runs[side]]
        m.update(value=statistics.median(vals), min=min(vals), max=max(vals), rounds=len(vals))
    first["ops_failed"] = sum(r["ops_failed"] for r in runs[side])
    json.dump({"provenance": {"pairs": pairs}, "runs": [first]}, open(f"{d}/{side}-median.json", "w"))

for side in runs:
    median_file(side)

print(f"\n{'metric':24} {'base':>14} {'head':>14} {'change':>8} {'head won':>9} {'base IQR':>9}  from")
for name, m in runs["base"][0]["metrics"].items():
    if m["unit"] not in ("s", "us") and not m["unit"].endswith("/s"):
        continue
    higher = m["unit"].endswith("/s")
    b = [r["metrics"][name]["value"] for r in runs["base"]]
    h = [r["metrics"][name]["value"] for r in runs["head"]]
    mb, mh = statistics.median(b), statistics.median(h)
    won = sum((y > x) if higher else (y < x) for x, y in zip(b, h))
    q = statistics.quantiles(b, n=4) if len(b) > 1 else [b[0]] * 3
    print(f"{name:24} {mb:14.4f} {mh:14.4f} {100 * (mh - mb) / mb:+7.1f}% "
          f"{won:>4}/{len(b):<4} {100 * (q[2] - q[0]) / mb:8.1f}%  {m['from']}")

traced = {s: load(f"{d}/{s}-traced.json")["metrics"] for s in ("base", "head")}
timed = lambda m: m["unit"] in ("ns", "us", "s", "%") or m["unit"].endswith("/s")
print(f"\ntraced pair, layer timings of the workload's own phases (seed {seed0}):")
for name, m in traced["base"].items():
    if m["from"] == "own" and "." in name and timed(m):
        h = traced["head"][name]["value"]
        print(f"  {name:30} {m['value']:14.4f} {h:14.4f} {m['unit']}")

diffs, n = [], 0
for seed, b, h in zip(seeds, runs["base"], runs["head"]):
    for key in ("ops_failed", "correct"):
        n += 1
        if b[key] != h[key]:
            diffs.append(f"seed {seed} {key}: {b[key]} vs {h[key]}")
    for name in ("count_rel_err", "store_bytes_per_sketch"):
        n += 1
        if b["metrics"][name]["value"] != h["metrics"][name]["value"]:
            diffs.append(f"seed {seed} {name}: {b['metrics'][name]['value']} vs {h['metrics'][name]['value']}")
for name, m in traced["base"].items():
    if timed(m) or name.endswith("_share") or name.endswith("_speedup"):
        continue
    n += 1
    if m["value"] != traced["head"][name]["value"]:
        diffs.append(f"traced {name}: {m['value']} vs {traced['head'][name]['value']}")
print(f"\nexact values: {n - len(diffs)} of {n} equal")
for line in diffs:
    print(f"  DIFFERS {line}")
sys.exit(1 if diffs else 0)
EOF
  echo
  "$out/bin-head" compare "$dir/base-median.json" "$dir/head-median.json" || status=1
done
exit $status
