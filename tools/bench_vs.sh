#!/usr/bin/env bash
# Paired benchmark runs of this tree against <ref> — the evidence a perf
# PR owes (ROADMAP item 6: no wall-clock number on this box holds across
# phases of the host, so only alternating pairs read side by side count).
#
#   tools/bench_vs.sh <git-ref> <workload>... [--seed N] [--pairs 10]
#   e.g. tools/bench_vs.sh HEAD~1 serve_cold ingest_live --seed 1
#
# <ref> is unpacked with `git archive` into a temp dir (nothing is
# registered in .git). Each pair runs `benchmarks/perf/run.py --trace 0`
# once per side, each side from its own checkout, alternating which side
# goes first. Per end-to-end metric of BENCHMARK.json it prints each
# side's median and quartiles and how many pairs this tree won (ties
# count for neither), then any exact (†) metric that differs and the
# failed operations. Exit 0 unless a run failed; the verdict is the
# reader's: a gain needs >= 9/10 wins and medians further apart than the
# ref's own quartiles.
set -euo pipefail

usage="usage: tools/bench_vs.sh <git-ref> <workload>... [--seed N] [--pairs 10]"
ref=${1:?$usage}
shift
seed=0
pairs=10
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=${2:?$usage}; shift 2 ;;
    --pairs) pairs=${2:?$usage}; shift 2 ;;
    -*) echo "$usage" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || { echo "$usage" >&2; exit 2; }

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/ref" "$work/runs"
git -C "$repo" archive "$ref" | tar -x -C "$work/ref"

run_side() {  # side workload pair -> the run's last line (its JSON result)
  local side=$1 tree=$repo
  [ "$side" = ref ] && tree=$work/ref
  (cd "$tree" && python3 benchmarks/perf/run.py --workload "$2" --seed "$seed" --trace 0) \
    | tail -n 1 > "$work/runs/$2.$side.$3.json"
}

for workload in "${workloads[@]}"; do
  for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="ref here"; else order="here ref"; fi
    for side in $order; do
      run_side "$side" "$workload" "$pair"
    done
    echo "pair $pair/$pairs of $workload done ($order)" >&2
  done
done

python3 - "$repo/BENCHMARK.json" "$work/runs" "$seed" "$pairs" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

contract, runs, seed, pairs, *workloads = sys.argv[1:]
specs = json.loads(Path(contract).read_text())["end_to_end"]
EXACT = ("stored_bytes_per_raw_byte", "matched_saved_pct")  # run.py's † metrics


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:10.4g} [{q1:.4g}, {q3:.4g}]"


for workload in workloads:
    sides = {
        side: [
            json.loads((Path(runs) / f"{workload}.{side}.{pair}.json").read_text())
            for pair in range(1, int(pairs) + 1)
        ]
        for side in ("ref", "here")
    }
    print(f"== {workload}  seed={seed}  pairs={pairs}")
    print(f"   {'metric':42s} {'ref median [q1, q3]':>32s} {'here median [q1, q3]':>32s}  here wins")
    for spec in specs:
        name = spec["name"]
        ref, here = ([run["metrics"][name]["value"] for run in sides[side]] for side in ("ref", "here"))
        sign = -1 if spec["better"] == "lower" else 1
        wins = sum(sign * (mine - theirs) > 0 for mine, theirs in zip(here, ref))
        ties = sum(mine == theirs for mine, theirs in zip(here, ref))
        label = f"{name} ({spec['unit']}, {spec['better']})"
        print(f"   {label:42s} {spread(ref):>32s} {spread(here):>32s}  {wins}/{len(ref) - ties}")
        if name in EXACT and len(set(ref + here)) > 1:
            print(f"   † {name} DIFFERS: ref {sorted(set(ref))} here {sorted(set(here))}")
    for side, found in sides.items():
        failed = sum(run["failed"] for run in found)
        attempted = sum(run["attempted"] for run in found)
        print(f"   {side}: {failed} of {attempted} operations failed")
EOF
