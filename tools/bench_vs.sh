#!/usr/bin/env bash
# Paired benchmark runs of this tree against <ref> — the evidence a perf
# PR owes (ROADMAP item 6: no wall-clock number on this box holds across
# phases of the host, so only alternating pairs read side by side count).
#
#   tools/bench_vs.sh <git-ref> <workload>... [--seed N] [--pairs 10] [--trace]
#   e.g. tools/bench_vs.sh HEAD~1 serve_cold ingest_live --seed 1
#
# <ref> is unpacked with `git archive` into a temp dir (nothing is
# registered in .git), and this tree's files as they are now (tracked or
# not, ignored ones left out) are copied beside it: run from the repo
# itself, the same code read 15-25 % slower on every write-path number
# than its own archive under /tmp (ingest_fps 40 vs 47, 3/10), and an
# edit made while the pairs ran was measured. Each pair runs
# `benchmarks/perf/run.py --trace 0` once per side, alternating which
# side goes first, and keeps the row that run appended to its own
# history.jsonl. Per end-to-end metric of BENCHMARK.json it prints each
# side's median and quartiles and how many pairs this tree won (ties
# count for neither), and under that each side's value in every pair:
# a bimodal metric shows as two clusters there, where a win count alone
# would read mode luck as a change. Then any exact (†) metric that
# differs, then — as medians, quartiles and wins — every per-layer
# metric of BENCHMARK.json an untraced run measures (ingest_fps,
# append_gop_ms, rps, paced_p99_ms, ...), so the layer a PR says it
# moved, or did not, is on the page, and last the failed operations.
# With --trace, each pair also runs `--trace 1` once per side (after the
# untraced runs, same order), and the per-layer metrics only a traced
# run measures (serve.hotset.prewarm_ms, core.storage.read_segment_miss_us,
# ...) get the same line below the untraced ones; end-to-end numbers
# always come from the untraced runs, which tracing would slow.
# Exit 0 unless a run failed; the verdict is the reader's: a gain needs
# >= 9/10 wins and medians further apart than the ref's own quartiles.
set -euo pipefail

usage="usage: tools/bench_vs.sh <git-ref> <workload>... [--seed N] [--pairs 10] [--trace]"
ref=${1:?$usage}
shift
seed=0
pairs=10
trace=0
workloads=()
while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed=${2:?$usage}; shift 2 ;;
    --pairs) pairs=${2:?$usage}; shift 2 ;;
    --trace) trace=1; shift ;;
    -*) echo "$usage" >&2; exit 2 ;;
    *) workloads+=("$1"); shift ;;
  esac
done
[ ${#workloads[@]} -gt 0 ] || { echo "$usage" >&2; exit 2; }

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/ref" "$work/here" "$work/runs"
git -C "$repo" archive "$ref" | tar -x -C "$work/ref"
(cd "$repo" && git ls-files -co --exclude-standard \
  | while read -r file; do if [ -e "$file" ]; then echo "$file"; fi; done \
  | tar -c -T -) | tar -x -C "$work/here"

run_side() {  # side workload pair traced -> the history row of one run (result + every value)
  local tree=$work/$1 suffix=
  if [ "$4" -eq 1 ]; then suffix=.traced; fi
  (cd "$tree" && python3 benchmarks/perf/run.py --workload "$2" --seed "$seed" --trace "$4") >/dev/null
  tail -n 1 "$tree/benchmarks/perf/history.jsonl" > "$work/runs/$2.$1.$3$suffix.json"
}

for workload in "${workloads[@]}"; do
  for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="ref here"; else order="here ref"; fi
    for side in $order; do
      run_side "$side" "$workload" "$pair" 0
    done
    if [ "$trace" -eq 1 ]; then
      for side in $order; do
        run_side "$side" "$workload" "$pair" 1
      done
    fi
    echo "pair $pair/$pairs of $workload done ($order)" >&2
  done
done

python3 - "$repo/BENCHMARK.json" "$work/runs" "$seed" "$pairs" "$trace" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys
from pathlib import Path

contract, runs, seed, pairs, trace, *workloads = sys.argv[1:]
contract = json.loads(Path(contract).read_text())
EXACT = ("stored_bytes_per_raw_byte", "matched_saved_pct")  # run.py's † metrics


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:10.4g} [{q1:.4g}, {q3:.4g}]"


def row(spec, ref, here):
    sign = -1 if spec["better"] == "lower" else 1
    wins = sum(sign * (mine - theirs) > 0 for mine, theirs in zip(here, ref))
    ties = sum(mine == theirs for mine, theirs in zip(here, ref))
    label = f"{spec['name']} ({spec['unit']}, {spec['better']})"
    print(f"   {label:42s} {spread(ref):>32s} {spread(here):>32s}  {wins}/{len(ref) - ties}")


def load(workload, suffix=""):
    return {
        side: [
            json.loads((Path(runs) / f"{workload}.{side}.{pair}{suffix}.json").read_text())
            for pair in range(1, int(pairs) + 1)
        ]
        for side in ("ref", "here")
    }


def measured(sides, name):
    return all(name in run["values"] for found in sides.values() for run in found)


for workload in workloads:
    sides = load(workload)
    print(f"== {workload}  seed={seed}  pairs={pairs}")
    print(f"   {'metric':42s} {'ref median [q1, q3]':>32s} {'here median [q1, q3]':>32s}  here wins")
    for spec in contract["end_to_end"]:
        name = spec["name"]
        ref, here = ([run["result"]["metrics"][name]["value"] for run in sides[side]] for side in sides)
        row(spec, ref, here)
        for side, values in (("ref", ref), ("here", here)):
            print(f"     {side:>4s} by pair: " + " ".join(f"{value:.4g}" for value in values))
        if name in EXACT and len(set(ref + here)) > 1:
            print(f"   † {name} DIFFERS: ref {sorted(set(ref))} here {sorted(set(here))}")
    print("   -- per layer")
    for spec in contract["per_layer"]:
        # Only the layers this workload reaches untraced have a value.
        if measured(sides, spec["name"]):
            row(spec, *([run["values"][spec["name"]]["value"] for run in sides[side]] for side in sides))
    checked = [("", sides)]
    if trace == "1":
        traced = load(workload, ".traced")
        checked.append((" (traced)", traced))
        print("   -- per layer, traced runs only")
        for spec in contract["per_layer"]:
            if measured(traced, spec["name"]) and not measured(sides, spec["name"]):
                row(spec, *([run["values"][spec["name"]]["value"] for run in traced[side]] for side in traced))
    for label, runs_of in checked:
        for side, found in runs_of.items():
            failed = sum(run["result"]["failed"] for run in found)
            attempted = sum(run["result"]["attempted"] for run in found)
            print(f"   {side}{label}: {failed} of {attempted} operations failed")
EOF
