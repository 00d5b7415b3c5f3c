"""Smoke test of the delivery-tier benchmark.

    PYTHONPATH=src python -m pytest benchmarks/perf -q

Runs every workload with ``--smoke`` (each phase one 1.5 s slice), once
untraced and once traced, and checks that every metric ``BENCHMARK.json``
names comes out with its unit and that no operation failed. Tier-1
``testpaths`` stays ``tests/``; this file is collected only when asked for.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
CONTRACT = json.loads((REPO / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]


def run(workload: str, trace: int) -> tuple[str, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=REPO,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    return done.stdout, json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_reported(workload):
    report, result = run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == {spec["name"] for spec in CONTRACT["end_to_end"]}
    for spec in CONTRACT["end_to_end"]:
        found = result["metrics"][spec["name"]]
        assert found["unit"] == spec["unit"]
        assert found["value"] > 0, spec["name"]
        assert spec["name"] in report  # the human-readable lines name it too


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_are_reported(workload):
    report, result = run(workload, trace=1)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {spec["name"] for spec in CONTRACT["per_layer"]}
    for spec in CONTRACT["per_layer"]:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    spans = HERE / "out" / f"trace-{workload}.jsonl"
    assert spans.exists() and spans.stat().st_size > 0
    assert result["metrics"]["trace_top_level_coverage"]["value"] >= 0.9
