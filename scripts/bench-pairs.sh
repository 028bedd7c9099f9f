#!/usr/bin/env bash
# Compare two checkouts of this repository with perfbench: build each
# one's perfbench, run N parent/change pairs on the same seed per pair
# (the order flips every pair), and print one JSON object with, per
# metric, both medians, their ratio, the parent's interquartile range
# and the number of pairs the change won. These are the fields of a
# BENCH_perf.json row.
#
#   scripts/bench-pairs.sh PARENT_DIR CHANGE_DIR [options]
#
#   --workload W   paper-apps | sync-sharing        (default sync-sharing)
#   --pairs N      pairs to run                     (default 10)
#   --seconds S    perfbench --seconds per run      (default 45)
#   --trace T      0: end-to-end metrics; 1: the traced per-layer
#                  metrics (core.*.ns_per_access and the rest)  (default 0)
#   --seed0 K      pair i runs seed K+i             (default 300)
#   --out DIR      keep each run's result line here (default: a fresh
#                  temporary directory, printed on stderr)
#
# Make PARENT_DIR with `git clone` (or `git archive`) of the parent
# commit. Each checkout builds into its own perfbench/target.
set -euo pipefail

usage() {
  sed -n '2,21p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

[ $# -ge 2 ] || usage
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
shift 2
workload=sync-sharing pairs=10 seconds=45 trace=0 seed0=300 out=
while [ $# -gt 0 ]; do
  [ $# -ge 2 ] || usage
  case "$1" in
    --workload) workload=$2 ;;
    --pairs) pairs=$2 ;;
    --seconds) seconds=$2 ;;
    --trace) trace=$2 ;;
    --seed0) seed0=$2 ;;
    --out) out=$2 ;;
    *) usage ;;
  esac
  shift 2
done

out=${out:-$(mktemp -d)}
mkdir -p "$out"
echo "bench-pairs: results in $out" >&2

for dir in "$parent" "$change"; do
  cargo build --release --offline --quiet --manifest-path "$dir/perfbench/Cargo.toml"
done

run() { # side dir seed
  local line
  line=$("$2/perfbench/target/release/perfbench" --workload "$workload" \
    --seed "$3" --seconds "$seconds" --trace "$trace" | tail -n 1)
  echo "$line" >"$out/$1.$3.json"
  if ! grep -q '"correct": true' <<<"$line"; then
    echo "bench-pairs: $1 seed $3 did not match its goldens" >&2
    exit 1
  fi
}

for i in $(seq 1 "$pairs"); do
  seed=$((seed0 + i))
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
  echo "bench-pairs: pair $i/$pairs done (seed $seed)" >&2
done

python3 - "$out" "$change/BENCHMARK.json" "$workload" "$seconds" "$trace" "$seed0" "$pairs" <<'EOF'
import json, statistics, sys

out, spec, workload, seconds, trace, seed0, pairs = sys.argv[1:]
seeds = [int(seed0) + i for i in range(1, int(pairs) + 1)]
decl = json.load(open(spec))
better = {m["name"]: m["better"] for m in decl["end_to_end"] + decl["per_layer"]}

def load(side, seed):
    return json.load(open(f"{out}/{side}.{seed}.json"))["metrics"]

runs = {s: (load("parent", s), load("change", s)) for s in seeds}
names = [n for n in runs[seeds[0]][0] if n in better and n in runs[seeds[0]][1]]
metrics = {}
for n in names:
    par = [runs[s][0][n]["value"] for s in seeds]
    chg = [runs[s][1][n]["value"] for s in seeds]
    lower = better[n] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
    q = statistics.quantiles(par, n=4) if len(par) > 1 else [par[0]] * 3
    pm, cm = statistics.median(par), statistics.median(chg)
    metrics[n] = {
        "parent": float(f"{pm:.6g}"),
        "change": float(f"{cm:.6g}"),
        "change_over_parent": round(cm / pm, 4) if pm else None,
        "change_better_pairs": wins,
        "parent_iqr": float(f"{q[2] - q[0]:.4g}"),
    }
print(json.dumps({
    "workload": workload,
    "trace": int(trace),
    "pairs": len(seeds),
    "seeds": seeds,
    "seconds": float(seconds),
    "metrics": metrics,
}, indent=2))
EOF
