"""The metrics registry: live counters, gauges, and histograms.

Every component of the system (storage manager, segment cache, streamers,
prediction service) reports into one :class:`MetricsRegistry`, so the
counters the delivery experiments are evaluated on — cache hit rates,
per-window stall and transfer timings, link utilisation — are built into
the hot path rather than re-derived per experiment.

Design constraints, in order:

* **Thread-safe and exact.** Sessions run concurrently; increments from a
  thread pool must land exactly. Every metric guards its series map with
  its own lock, and holding a registry lock never requires a metric lock
  (no ordering cycles).
* **Cheap.** A counter increment is a dict lookup and a float add under
  an uncontended lock; histograms keep bounded state (exact count/sum/
  min/max plus a sliding sample window for quantiles).
* **Exportable.** ``snapshot()`` is plain JSON; ``to_prometheus()`` is
  the Prometheus text exposition format (histograms rendered as
  summaries with live quantiles).

Labels are free-form keyword arguments at the call site::

    registry.counter("prediction.sessions").inc(kind="markov")

Keep label cardinality bounded (kinds, modes, small session counts) —
each distinct label set is a separate series held in memory.
"""

from __future__ import annotations

import math
import re
import threading
from collections import deque

from repro.obs.tracing import Tracer

#: Labels are stored as a canonical sorted tuple of (key, value) pairs.
LabelKey = tuple[tuple[str, str], ...]

_PROM_NAME = re.compile(r"[^a-zA-Z0-9_:]")
_PROM_LABEL = re.compile(r"[^a-zA-Z0-9_]")

#: Quantiles reported by every histogram snapshot / export.
QUANTILES = (0.5, 0.9, 0.99)


def _label_key(labels: dict) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _series_name(name: str, key: LabelKey) -> str:
    """Human/JSON rendering: ``name`` or ``name{k=v,k2=v2}``."""
    if not key:
        return name
    inner = ",".join(f"{k}={v}" for k, v in key)
    return f"{name}{{{inner}}}"


def _prom_labels(key: LabelKey, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = [*key, *extra]
    if not pairs:
        return ""
    inner = ",".join(
        f'{_PROM_LABEL.sub("_", k)}="{v}"' for k, v in pairs
    )
    return "{" + inner + "}"


class Metric:
    """Common series bookkeeping for every metric kind."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: dict[LabelKey, object] = {}

    def series(self) -> dict[LabelKey, object]:
        with self._lock:
            return dict(self._series)


class BoundCounter:
    """A counter pre-bound to one label set.

    The serve hot path increments the same few series millions of times;
    binding once hoists the label canonicalisation (sort + stringify)
    out of the per-request cost, leaving a dict add under the lock.
    """

    __slots__ = ("_metric", "_key")

    def __init__(self, metric: "Counter", key: LabelKey) -> None:
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        metric = self._metric
        with metric._lock:
            metric._series[self._key] = metric._series.get(self._key, 0.0) + amount


class BoundHistogram:
    """A histogram series pre-bound to one label set (see BoundCounter)."""

    __slots__ = ("_metric", "_series")

    def __init__(self, metric: "Histogram", key: LabelKey) -> None:
        self._metric = metric
        with metric._lock:
            series = metric._series.get(key)
            if series is None:
                series = metric._series[key] = _HistogramSeries(metric._keep)
        self._series = series

    def observe(self, value: float) -> None:
        with self._metric._lock:
            self._series.observe(float(value))


class Counter(Metric):
    """A monotonically increasing count (events, bytes, waits)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up; got increment {amount}")
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def labels(self, **labels) -> BoundCounter:
        """Bind one label set for repeated hot-path increments."""
        return BoundCounter(self, _label_key(labels))

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def total(self) -> float:
        """Sum across every label set."""
        with self._lock:
            return float(sum(self._series.values()))


class Gauge(Metric):
    """A point-in-time value (cache bytes, utilisation, queue depth)."""

    kind = "gauge"

    def set(self, value: float, **labels) -> None:
        with self._lock:
            self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))


class _HistogramSeries:
    """Exact count/sum/min/max plus a sliding window for quantiles."""

    __slots__ = ("count", "total", "minimum", "maximum", "samples")

    def __init__(self, keep: int) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.samples: deque[float] = deque(maxlen=keep)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        self.samples.append(value)

    def quantile(self, q: float) -> float:
        if not self.samples:
            return float("nan")
        ordered = sorted(self.samples)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def summary(self) -> dict:
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        ordered = sorted(self.samples)

        def at(q: float) -> float:
            return ordered[min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))]

        return {
            "count": self.count,
            "sum": self.total,
            "min": self.minimum,
            "max": self.maximum,
            "mean": self.total / self.count,
            **{f"p{int(q * 100)}": at(q) for q in QUANTILES},
        }


class Histogram(Metric):
    """A distribution with live quantiles (timings, sizes).

    Count/sum/min/max are exact over the metric's lifetime; quantiles are
    computed over a sliding window of the most recent ``keep`` samples,
    which is the operationally interesting view (recent behaviour) and
    bounds memory regardless of run length.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "", keep: int = 2048) -> None:
        super().__init__(name, help)
        if keep < 1:
            raise ValueError(f"keep must be >= 1, got {keep}")
        self._keep = keep

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(self._keep)
            series.observe(float(value))

    def count(self, **labels) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return 0 if series is None else series.count

    def sum(self, **labels) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return 0.0 if series is None else series.total

    def quantile(self, q: float, **labels) -> float:
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            series = self._series.get(_label_key(labels))
            return float("nan") if series is None else series.quantile(q)

    def summary(self, **labels) -> dict:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return {"count": 0, "sum": 0.0} if series is None else series.summary()

    def labels(self, **labels) -> BoundHistogram:
        """Bind one label set for repeated hot-path observations."""
        return BoundHistogram(self, _label_key(labels))


class MetricsRegistry:
    """A named collection of metrics plus a span tracer.

    Components get-or-create metrics by name; asking for an existing name
    with a different kind is an error (it would silently fork the series).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, Metric] = {}
        self.tracer = Tracer(self)

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is a {metric.kind}, requested {cls.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "", keep: int = 2048) -> Histogram:
        return self._get_or_create(Histogram, name, help, keep=keep)

    def span(self, name: str, **attrs):
        """Time a block; records ``<name>.seconds`` here (see Tracer)."""
        return self.tracer.span(name, **attrs)

    def metrics(self) -> list[Metric]:
        with self._lock:
            return list(self._metrics.values())

    # -- export ---------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-able dump of every series, plus recent spans.

        Shape::

            {"counters":   {"cache.hits": 12.0, "x{kind=a}": 3.0, ...},
             "gauges":     {...},
             "histograms": {"storage.read_segment.seconds":
                                {"count": .., "sum": .., "p50": .., ...}},
             "spans":      [{"name": .., "attrs": .., "seconds": ..}, ...]}
        """
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for metric in self.metrics():
            for key, series in metric.series().items():
                rendered = _series_name(metric.name, key)
                if isinstance(metric, Counter):
                    counters[rendered] = float(series)
                elif isinstance(metric, Gauge):
                    gauges[rendered] = float(series)
                elif isinstance(metric, Histogram):
                    histograms[rendered] = series.summary()
        return {
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": self.tracer.snapshot(),
        }

    def to_prometheus(self) -> str:
        """The Prometheus text exposition format (0.0.4).

        Histograms are rendered as summaries: ``<name>{quantile="0.5"}``
        lines plus ``_sum``/``_count``, which needs no bucket
        configuration and matches what the quantile snapshot reports.
        """
        lines: list[str] = []
        for metric in sorted(self.metrics(), key=lambda m: m.name):
            prom_name = _PROM_NAME.sub("_", metric.name)
            series = metric.series()
            if not series:
                continue
            if metric.help:
                lines.append(f"# HELP {prom_name} {metric.help}")
            if isinstance(metric, Histogram):
                lines.append(f"# TYPE {prom_name} summary")
                for key, hist in sorted(series.items()):
                    for q in QUANTILES:
                        labels = _prom_labels(key, (("quantile", str(q)),))
                        lines.append(f"{prom_name}{labels} {hist.quantile(q):.9g}")
                    lines.append(f"{prom_name}_sum{_prom_labels(key)} {hist.total:.9g}")
                    lines.append(f"{prom_name}_count{_prom_labels(key)} {hist.count}")
            else:
                lines.append(f"# TYPE {prom_name} {metric.kind}")
                for key, value in sorted(series.items()):
                    lines.append(f"{prom_name}{_prom_labels(key)} {float(value):.9g}")
        return "\n".join(lines) + ("\n" if lines else "")
