#!/usr/bin/env bash
# Which src/ functions does anything but a test run? Traces every non-test
# entry point at function level and prints each unreached function of
# src/repro with its size — the list DESIGN.md's "Reached code" section
# explains name by name — and then, as a second list, each function that
# only the E-series reached: code experiments keep alive and nothing else
# runs. The functions DESIGN.md names as timing-dependent (whether a run
# enters them depends on how its wall clock falls) are left out of the
# first list and printed last, each with whether this run reached it, so
# two runs' first lists can be compared name by name.
#
#   tools/reach.sh            (several minutes; not a CI job)
#
# The entry points: every example, every CLI verb (ingest, ls, info, serve
# over the simulated link and over HTTP, export, import, stats,
# metrics, vacuum, fsck after a SIGKILLed ingest, scrub, drop), the chaos
# plans, `repro control` against a live server, the flash-crowd smoke,
# `pytest benchmarks/perf` (every workload, traced and untraced, spawned
# host included) and, logged apart, the E-series (`pytest benchmarks`
# without `benchmarks/perf`).
#
# They run in a copy of this tree's files as they are now (tracked or
# not, ignored ones left out), so the E-series result files and the perf
# outputs they rewrite are the copy's. A `sitecustomize` on PYTHONPATH
# installs a `sys.settrace` hook in every Python process they start; the
# hook appends a function to its process's log the first time one of its
# frames opens, never at exit, because `benchmarks/perf/run.py` may
# SIGKILL its host and the encode pool's workers never exit on their own.
set -euo pipefail

repo=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
server=
cleanup() {
  if [ -n "$server" ]; then kill "$server" 2>/dev/null || true; fi
  rm -rf "$work"
}
trap cleanup EXIT
mkdir "$work/tree" "$work/hook" "$work/log" "$work/elog"
(cd "$repo" && git ls-files -co --exclude-standard \
  | while read -r file; do if [ -e "$file" ]; then echo "$file"; fi; done \
  | tar -c -T -) | tar -x -C "$work/tree"

cat > "$work/hook/sitecustomize.py" <<'EOF'
import os
import sys
import threading

_ROOT = os.environ["REACH_SRC"]
_LOG = os.environ["REACH_LOG"]
_seen = {}  # id(code) -> code; holding the code keeps its id from being reused
_out = [None, None]  # (pid, fd): a forked child opens its own log


def _trace(frame, event, arg):
    code = frame.f_code
    if id(code) in _seen:
        return None
    _seen[id(code)] = code
    if code.co_filename.startswith(_ROOT):
        if _out[0] != os.getpid():
            _out[0] = os.getpid()
            _out[1] = os.open(
                os.path.join(_LOG, f"{_out[0]}.log"),
                os.O_WRONLY | os.O_CREAT | os.O_APPEND,
            )
        entry = f"{code.co_filename}\t{code.co_firstlineno}\t{code.co_name}\n"
        os.write(_out[1], entry.encode())
    return None


sys.settrace(_trace)
threading.settrace(_trace)
EOF

export REACH_SRC="$work/tree/src/repro/" REACH_LOG="$work/log"
export PYTHONPATH="$work/hook:$work/tree/src"
cd "$work/tree"

step() {  # expected-exit-codes command... — stop on any other outcome
  local want=$1 got=0  # one code, or several joined by commas
  shift
  echo "== $*" >&2
  "$@" > "$work/step.out" 2>&1 || got=$?
  if [[ ",$want," != *",$got,"* ]]; then
    tail -n 30 "$work/step.out" >&2
    echo "reach: '$*' exited $got, expected $want" >&2
    exit 1
  fi
}

for example in examples/*.py; do
  case "$example" in
    examples/shared_server.py) step 0 python "$example" --duration 2 ;;
    *) step 0 python "$example" ;;
  esac
done

db=$work/db
repro() { python -m repro --root "$db" "$@"; }
step 0 repro ingest demo --duration 3 --width 128 --height 64 --grid 2x4 \
  --qualities high,medium,lowest --gop-frames 10 --workers 2
step 0 repro ls
step 0 repro info demo
step 0 repro serve demo --probe
step 0 repro serve demo --transport http
step 0 repro export demo "$work/demo.mp4"
step 0 repro import back "$work/demo.mp4"
step 0 repro stats
step 0 repro metrics demo --sessions 2 --format prom
step 0 repro metrics --format json --output "$work/metrics.json"
step 0 repro vacuum demo
step 0 repro drop back
step 137 env REPRO_CRASH_AFTER_WRITES=3 python -m repro --root "$db" ingest dead \
  --duration 1 --width 64 --height 32 --grid 2x2 --workers 1
step 1 repro fsck
step 0 repro fsck --repair
step 0 repro scrub

# `repro control` against a live server over the same root.
python - "$db" > "$work/url" 2> "$work/server.err" <<'EOF' &
import sys
import time

from repro.core.storage import StorageManager
from repro.serve import start_server

with start_server(StorageManager(sys.argv[1])) as handle:
    print(handle.base_url, flush=True)
    time.sleep(3600)
EOF
server=$!
for _ in $(seq 100); do if [ -s "$work/url" ]; then break; fi; sleep 0.1; done
url=$(head -n 1 "$work/url")
step 0 repro control "$url"
step 0 repro control "$url" --max-inflight 8 --pin-budget 200000 --prewarm demo
step 0 repro serve demo --transport http --url "$url"
kill "$server"
server=

for plan in plans/*.json; do
  step 0 python -m repro --root "$work/chaosdb" chaos --plan "$plan" --output "$work/chaos.json"
done
step 0 python -m repro.bench.flash_crowd --smoke --output "$work/flash_crowd.json"
step 0 python -m pytest benchmarks/perf -q --benchmark-disable -p no:cacheprovider
# pytest's exit 1 means every test ran and some failed, so the trace is
# complete; the verdicts are CI bench-smoke's to judge. Name the failures.
step 0,1 env REACH_LOG="$work/elog" python -m pytest benchmarks -q --benchmark-disable \
  -p no:cacheprovider --ignore=benchmarks/perf -rf
grep '^FAILED ' "$work/step.out" >&2 || true

env -u PYTHONPATH python - "$work/tree/src" "$work/log" "$work/elog" <<'EOF'
"""Print every src/repro function no traced process entered, with its size,
then every one that only the E-series entered, then the timing-dependent
ones with whether this run entered them."""
import ast
import sys
from pathlib import Path

src = Path(sys.argv[1])


def reached_in(logs):
    return {
        (path, int(line), name)
        for log in logs.glob("*.log")
        for path, line, name in (entry.split("\t") for entry in log.read_text().splitlines())
    }


product, experiments = reached_in(Path(sys.argv[2])), reached_in(Path(sys.argv[3]))
# Reached or not by the wall clock, not by the code (DESIGN.md "Reached code").
TIMING = ("HotSet.record", "CircuitBreaker.allow", "ReplicaSet.__len__")


def functions(body, prefix=""):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A code object's first line is its first decorator's.
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield node.name, f"{prefix}{node.name}", first, node.end_lineno - first + 1
            yield from functions(node.body, f"{prefix}{node.name}.<locals>.")
        elif isinstance(node, ast.ClassDef):
            yield from functions(node.body, f"{prefix}{node.name}.")


total = 0
unreached, experiment_only, timing = [], [], []
for path in sorted((src / "repro").rglob("*.py")):
    tree = ast.parse(path.read_text())
    for name, qualname, first, size in functions(tree.body):
        total += 1
        key = (str(path), first, name)
        row = (str(path.relative_to(src)), first, qualname, size)
        if qualname in TIMING:
            timing.append((row, key in product))
        elif key not in product:
            (experiment_only if key in experiments else unreached).append(row)


def show(rows):
    for path, first, name, size in rows:
        print(f"{size:4d}  {path}:{first}  {name}")
    return sum(row[3] for row in rows)


lines = show(unreached)
missed = sum(not hit for _, hit in timing)
print(
    f"reached {total - len(unreached) - missed} of {total} functions in src/; "
    f"{len(unreached)} unreached ({lines} lines), {missed} of the "
    f"{len(timing)} timing-dependent unreached"
)
print("\nreached only by the E-series:")
lines = show(experiment_only)
print(f"{len(experiment_only)} functions ({lines} lines) reached only by the E-series")
print("\ntiming-dependent, left out of the lists above:")
for (path, first, name, size), reached in timing:
    print(f"{size:4d}  {path}:{first}  {name}  {'reached' if reached else 'unreached'}")
EOF
