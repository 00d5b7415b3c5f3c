"""Benchmark-side spans: ``(op, id, name, start, end, parent)`` around
each call the benchmark makes into a layer's public function.

Spans live in the benchmark's own files — nothing under ``src/`` is
instrumented — are kept in memory while the run measures, and are
written out once at exit. End-to-end numbers come from runs that use
:data:`OFF`, whose ``span`` is a shared no-op.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Spans:
    """An in-memory span recorder; one parent stack per thread."""

    def __init__(self, origin: str) -> None:
        self.origin = origin  # "driver" or "host": ids are unique per origin
        #: ``(op, id)`` of the span in the other process that caused the
        #: work now running here; parentless spans hang under it.
        self.caller: tuple[str, str] | None = None
        self.rows: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0

    @contextmanager
    def span(self, name: str, op: str | None = None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        with self._lock:
            self._next += 1
            span_id = f"{self.origin}-{self._next}"
        if stack:
            inherited, parent = stack[-1]["op"], stack[-1]["id"]
        else:
            inherited, parent = self.caller or (span_id, None)
        row = {
            "op": op if op is not None else inherited,
            "id": span_id,
            "name": name,
            "start": perf_counter(),
            "end": None,
            "parent": parent,
        }
        stack.append(row)
        try:
            yield row
        finally:
            row["end"] = perf_counter()
            stack.pop()
            self.rows.append(row)

    def current(self) -> tuple[str, str] | None:
        """``(op, id)`` of this thread's innermost open span."""
        stack = getattr(self._local, "stack", None)
        return (stack[-1]["op"], stack[-1]["id"]) if stack else None


class _Noop:
    def __enter__(self):
        return None

    def __exit__(self, *exc_info) -> bool:
        return False


class _Off:
    """Tracing off: ``span`` hands back one shared no-op context manager
    and nothing is recorded."""

    rows: tuple = ()
    caller = None
    _noop = _Noop()

    def span(self, name: str, op: str | None = None):
        return self._noop

    def current(self) -> None:
        return None


OFF = _Off()


def self_times(rows: list[dict]) -> dict[str, dict]:
    """Per span name: count, total duration, and total self time — a
    span's duration minus the part of it its child spans cover."""
    children: dict[str, list[tuple[float, float]]] = {}
    for row in rows:
        if row["parent"] is not None:
            children.setdefault(row["parent"], []).append((row["start"], row["end"]))
    totals: dict[str, dict] = {}
    for row in rows:
        covered = 0.0
        cursor = row["start"]
        for start, end in sorted(children.get(row["id"], ())):
            start = max(start, cursor)
            if end > start:
                covered += end - start
                cursor = end
        entry = totals.setdefault(row["name"], {"count": 0, "seconds": 0.0, "self": 0.0})
        entry["count"] += 1
        entry["seconds"] += row["end"] - row["start"]
        entry["self"] += (row["end"] - row["start"]) - covered
    return totals


def top_level_coverage(rows: list[dict], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by the union of parentless spans."""
    intervals = sorted(
        (max(row["start"], start), min(row["end"], end))
        for row in rows
        if row["parent"] is None
    )
    covered = 0.0
    cursor = start
    for low, high in intervals:
        low = max(low, cursor)
        if high > low:
            covered += high - low
            cursor = high
    return covered / (end - start) if end > start else 0.0


def write_jsonl(path: Path, rows: list[dict]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        for row in sorted(rows, key=lambda row: row["start"]):
            out.write(json.dumps(row) + "\n")
