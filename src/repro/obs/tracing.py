"""Span-based tracing: wall-time per named stage of the hot path.

A span is a context manager around one unit of work::

    with tracer.span("storage.read_segment", video=name, tile=tile):
        ...

Closing the span records its wall-clock duration into the registry's
``<name>.seconds`` histogram (so quantiles are always live) and appends a
structured record — name, attributes, duration — to a bounded ring of
recent spans that operational tooling can inspect without grepping logs.
Attributes annotate the ring only; they never become metric labels, so
high-cardinality values (video names, tile coordinates) are safe.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

#: Finished spans the recent-span ring holds.
TRACE_KEEP = 256


@dataclass
class SpanRecord:
    """One finished (or in-progress) span."""

    name: str
    attrs: dict = field(default_factory=dict)
    started_at: float = 0.0  # wall clock (time.time), for ordering only
    seconds: float = 0.0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "attrs": {key: _render(value) for key, value in self.attrs.items()},
            "started_at": self.started_at,
            "seconds": self.seconds,
        }


def _render(value) -> object:
    """Attribute values must survive JSON export; stringify the exotic."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


class Tracer:
    """Records spans into a registry and a bounded recent-span ring."""

    def __init__(self, registry=None) -> None:
        self._registry = registry
        self._recent: deque[SpanRecord] = deque(maxlen=TRACE_KEEP)
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[SpanRecord]:
        """Time a block of work under ``name``; yields the span record."""
        record = SpanRecord(name=name, attrs=dict(attrs), started_at=time.time())
        start = time.perf_counter()
        try:
            yield record
        finally:
            record.seconds = time.perf_counter() - start
            if self._registry is not None:
                self._registry.histogram(f"{name}.seconds").observe(record.seconds)
            with self._lock:
                self._recent.append(record)

    def recent(self, name: str | None = None, limit: int | None = None) -> list[SpanRecord]:
        """Most recent spans, newest last, optionally filtered by name."""
        with self._lock:
            records = list(self._recent)
        if name is not None:
            records = [record for record in records if record.name == name]
        if limit is not None:
            records = records[-limit:]
        return records

    def snapshot(self) -> list[dict]:
        """JSON-able dump of the recent-span ring."""
        return [record.to_dict() for record in self.recent()]
