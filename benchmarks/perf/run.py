#!/usr/bin/env python3
"""One repeatable benchmark for the delivery tier.

    python3 benchmarks/perf/run.py --workload serve_hot --seed 0 --seconds 16 --trace 0
    python3 benchmarks/perf/run.py --workload stream_sim --trace 1
    python3 benchmarks/perf/run.py selfcheck

Prints every metric by name with its unit, checks outputs for
correctness, and exits non-zero on a failed check. The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed``, ``metrics`` — the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``.
See ``README.md`` beside this file for what each workload is for.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import multiprocessing
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"
HISTORY = HERE / "history.jsonl"
WORKLOADS = ("ingest_live", "stream_sim", "serve_hot", "serve_cold")

# The checkout is not installed: the program is imported from its source
# tree, and the spawned host inherits this path.
sys.path.insert(0, str(REPO / "src"))


class HostError(RuntimeError):
    """A command raised inside the host process."""


class HostProcess:
    """The child that owns the program under test (see ``host.py``)."""

    def __init__(self) -> None:
        import host

        OUT.mkdir(parents=True, exist_ok=True)
        context = multiprocessing.get_context("spawn")
        self.connection, child = context.Pipe()
        self.process = context.Process(target=host.main, args=(child, str(OUT)))
        self.process.start()
        child.close()
        self.pid = self.process.pid
        self.spans = None  # the driver's recorder while a traced pass runs

    def call(self, method: str, **kwargs):
        caller = self.spans.current() if self.spans is not None else None
        self.connection.send((method, kwargs, caller))
        status, result = self.connection.recv()
        if status != "ok":
            raise HostError(f"host.{method} failed:\n{result}")
        return result

    def stop(self) -> None:
        """End the host, whatever it started (the encode pool's forkserver
        and resource tracker), and its temp roots — on every exit path."""
        try:
            self.connection.send(None)
        except (OSError, ValueError):
            pass
        self.process.join(timeout=10)
        if self.process.is_alive():
            self.process.kill()
            self.process.join()
        self.connection.close()
        reap_children()
        for leftover in OUT.glob(f"tmp-{self.pid}-*"):
            shutil.rmtree(leftover, ignore_errors=True)


PR_SET_CHILD_SUBREAPER = 36  # <linux/prctl.h>


def adopt_orphans() -> None:
    """Have descendants whose parent has ended fall to this process, not
    to init, so that ``reap_children`` can wait for them. The host's
    forkserver and resource tracker end only once the host has, and the
    sandbox's init took over a second to reap them: a run was seen to
    exit with a dead but unreaped process still listed."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1)
    except (OSError, AttributeError):
        pass  # not Linux: such orphans are init's to reap


def reap_children(grace: float = 5.0) -> None:
    """Wait until this process has no child left, adopted ones included;
    what has not ended by itself after ``grace`` seconds is killed."""
    from multiprocessing import resource_tracker

    # The driver's own tracker (started with the first spawned child)
    # would otherwise end only after the driver; a later spawn restarts it.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    deadline = time.monotonic() + grace
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() > deadline:
            for child in _children():
                try:
                    os.kill(child, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def _children() -> list[int]:
    me, found = str(os.getpid()), []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                stat = Path(f"/proc/{entry}/stat").read_text()
            except OSError:
                continue
            # "pid (comm) state ppid ...": comm may itself hold ") ".
            if stat.rpartition(") ")[2].split()[1] == me:
                found.append(int(entry))
    return found


def provenance(args, sizes: dict) -> dict:
    import numpy
    import scipy
    from repro.video.tiles import encode_start_method

    try:
        commit = subprocess.run(
            ["git", "-C", str(REPO), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=5,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "encode_start_method": encode_start_method(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": sizes,
        "unix_time": time.time(),
    }


def load_contract() -> dict:
    return json.loads((REPO / "BENCHMARK.json").read_text())


def run_workload(args) -> dict:
    """One run of one workload; returns the full record (also appended
    to the history) whose ``result`` is the driver's last-line object."""
    if not (REPO / "src" / "repro").is_dir():
        raise SystemExit(f"no program to measure: {REPO / 'src' / 'repro'} is missing")
    import workloads

    contract = load_contract()
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    host = HostProcess()
    try:
        bench = workloads.Bench(host, args, OUT)
        workloads.RUNNERS[args.workload](bench)
    finally:
        host.stop()

    metrics = {}
    for spec in wanted:
        found = bench.values.get(spec["name"])
        if found is None:
            if not args.trace:
                raise SystemExit(f"{args.workload} produced no {spec['name']}")
            # A layer this workload never reaches reads 0.
            found = {"value": 0.0}
        value = found["value"]
        if math.isnan(value):
            bench.gate(False, f"{spec['name']} could not be computed")
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    units = {
        spec["name"]: spec["unit"]
        for spec in contract["end_to_end"] + contract["per_layer"]
    }
    record = {
        "workload": args.workload,
        "provenance": provenance(args, bench.sizes),
        "values": bench.values,
        "units": units,
        "notes": bench.notes,
        "span_self_times": bench.span_self_times,
        "result": {
            "correct": bench.failed == 0,
            "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": metrics,
        },
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with HISTORY.open("a") as out:
        out.write(json.dumps(record) + "\n")
    latest = OUT / "latest.json"
    view = json.loads(latest.read_text()) if latest.exists() else {}
    view[f"{args.workload}.trace{int(args.trace)}"] = record
    latest.write_text(json.dumps(view, indent=1))
    return record


def print_report(record: dict) -> None:
    info = record["provenance"]
    print(f"== {record['workload']}  seed={info['seed']} seconds={info['seconds']} "
          f"trace={int(info['trace'])}  commit={info['commit'][:12]} "
          f"nproc={info['nproc']} cpu={info['cpu']!r} py={info['python']} "
          f"numpy={info['numpy']} scipy={info['scipy']} "
          f"encode={info['encode_start_method']}")
    print(f"   sizes: {json.dumps(info['sizes'], sort_keys=True)}")
    for name, found in sorted(record["values"].items()):
        unit = record["units"].get(name, "")
        extra = "  ".join(
            f"{key}={_short(value)}" for key, value in found.items() if key != "value"
        )
        print(f"   {name:46s} {_short(found['value']):>12s} {unit:8s} {extra}")
    spans = sorted(record["span_self_times"].items(), key=lambda item: -item[1]["self"])
    for name, total in spans:
        print(f"   span {name:42s} count={total['count']:<7d} "
              f"seconds={total['seconds']:8.3f} self={total['self']:8.3f}")
    for note in record["notes"]:
        print(f"   ! {note}")
    result = record["result"]
    print(f"   operations attempted={result['attempted']} failed={result['failed']}")


def _short(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


# selfcheck: a set is this many runs of every workload, its value the
# median. Two single back-to-back sets, as first built, disagreed whenever
# the box changed speed between them; plain alternation still gave one set
# the slower half of a box speeding up through the six runs (set-ups of
# 7.8, 5.6, 7.2, 4.2, 5.4, 3.6 s). So the runs go first-second,
# second-first, first-second, ...: a steady drift falls on both sets
# alike. Three runs a set were too few for ``setup_s``: one set-up moves
# by a fifth from run to run, and medians of three then differ by more
# than a quarter about one time in ten.
SELFCHECK_RUNS = 5
# End-to-end metrics that are exact for a given seed: every run of both
# sets must print the same value, whatever the bound says.
EXACT = ("stored_bytes_per_raw_byte", "matched_saved_pct")


def selfcheck(args) -> int:
    """Two full end-to-end sets of the same code at one seed, their runs
    interleaved; fails if any metric's two medians differ by more than
    its bound in either direction, or an ``EXACT`` metric differs at all."""
    bounds = load_contract()["end_to_end"]
    sets: list[dict] = [{}, {}]
    for workload in WORKLOADS:
        args.workload = workload
        for pair in range(SELFCHECK_RUNS):
            for found in sets[::-1] if pair % 2 else sets:
                record = run_workload(args)
                print_report(record)
                if not record["result"]["correct"]:
                    return 1
                for name, metric in record["result"]["metrics"].items():
                    found.setdefault((workload, name), []).append(metric["value"])
    disagree = 0
    print(f"{'workload':12s} {'metric':28s} {'first':>12s} {'second':>12s} {'differ':>8s} {'bound':>6s}")
    for workload in WORKLOADS:
        for spec in bounds:
            runs = [found[workload, spec["name"]] for found in sets]
            first, second = (statistics.median(values) for values in runs)
            if spec["name"] in EXACT:
                differ, bound = float(len(set(runs[0] + runs[1])) - 1), 0.0
            else:
                differ = abs(first - second) / abs(first) if first else float(second != first)
                bound = spec["bound"]
            verdict = "" if differ <= bound else "  DISAGREES"
            disagree += bool(verdict)
            print(f"{workload:12s} {spec['name']:28s} {first:12.4f} {second:12.4f} "
                  f"{differ:8.3f} {bound:6.2f}{verdict}")
    return 1 if disagree else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=("selfcheck",))
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="every phase one 1.5 s slice, one set-up")
    args = parser.parse_args(argv)
    args.trace = bool(args.trace)
    # A terminated driver unwinds like an interrupted one: the host and
    # everything under it is waited for and its temp roots removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    adopt_orphans()
    try:
        if args.seconds is None:
            args.seconds = float(load_contract()["run_seconds"])
        if args.command == "selfcheck":
            return selfcheck(args)
        if args.workload is None:
            parser.error("--workload is required")
        record = run_workload(args)
        print_report(record)
        print(json.dumps(record["result"]))
        return 0 if record["result"]["correct"] else 1
    finally:
        reap_children()


if __name__ == "__main__":
    sys.exit(main())
