"""Observability: metrics registry and span tracing.

One :class:`MetricsRegistry` per :class:`~repro.core.server.VisualCloud`
instance collects everything the delivery path reports — cache traffic,
storage timings, per-window streaming behaviour, prediction activity —
and exports it as a JSON snapshot or Prometheus text (``repro metrics``).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    Metric,
    MetricsRegistry,
    QUANTILES,
)
from repro.obs.tracing import SpanRecord, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Metric",
    "MetricsRegistry",
    "QUANTILES",
    "SpanRecord",
    "Tracer",
]
