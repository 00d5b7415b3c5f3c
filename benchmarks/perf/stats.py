"""Slicing and order statistics for the delivery-tier benchmark.

The sandbox's speed moves in phases and its noise is one-sided: stolen
time only ever makes an operation slower. So a timed phase is cut into
slices, the metric is computed per slice, and the *best-decile* slice is
reported — the 90th percentile across slices for a rate, the 10th for a
time — with the median and IQR across slices printed beside it, so a
reader sees how wide the phase was. A slice is a run of consecutive
operations (about 1/64 of the phase, never fewer than ``least``), not a
span of wall time: a stall then spoils one slice instead of diluting
many. Phases made of a few long operations (an ingest, an append) have
one operation per slice and report the best quartile instead.

README.md ("Slicing") holds the measurements behind these choices.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

SLICES = 64  # slices a phase is cut into, when it has the operations


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of ``values`` (``q`` in [0, 1])."""
    if not values:
        return math.nan
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def supported_tail(count: int) -> float:
    """The highest usual percentile that still has >= 10 samples beyond it."""
    for q in (0.999, 0.99, 0.95, 0.9, 0.75):
        if count * (1.0 - q) >= 10:
            return q
    return 0.5


def _slices(samples: list, least: int) -> list[list]:
    if len(samples) < 2 * least:  # too few to cut: one slice
        return [samples] if samples else []
    size = max(least, len(samples) // SLICES)
    return [samples[start:start + size] for start in range(0, len(samples) - size + 1, size)]


def _spread(per_slice: list[float], best: float) -> dict:
    """The reported value with the median and IQR across slices."""
    if not per_slice:
        return {"value": math.nan, "median": math.nan, "iqr": math.nan, "slices": 0}
    return {
        "value": percentile(per_slice, best),
        "median": percentile(per_slice, 0.5),
        "iqr": percentile(per_slice, 0.75) - percentile(per_slice, 0.25),
        "slices": len(per_slice),
    }


def burst_rate(completions: Sequence[float], least: int = 32) -> dict:
    """Operations per second from completion times: per slice, the
    operations it holds over the time to the next slice's first
    completion; the best-decile slice is the value."""
    times = sorted(completions)
    slices = _slices(times, least)
    if len(slices) == 1 and len(times) > 1:
        return _spread([(len(times) - 1) / (times[-1] - times[0])], 0.9)
    rates = [
        len(one) / (following[0] - one[0])
        for one, following in zip(slices, slices[1:])
        if following[0] > one[0]
    ]
    return _spread(rates, 0.9)


def calm_time(samples: Sequence[tuple[float, float]], q: float, least: int = 8) -> dict:
    """The ``q`` percentile of operation times, in the best-decile slice.
    ``samples`` are ``(completion time, seconds)``; the value is in ms."""
    ordered = [seconds for _, seconds in sorted(samples)]
    per_slice = [1e3 * percentile(one, q) for one in _slices(ordered, least)]
    return _spread(per_slice, 0.1)


def best_quartile(values: Sequence[float], better: str) -> dict:
    """For phases of a few long operations, one per slice: q75 across
    them for a rate (``better="higher"``), q25 for a time."""
    if len(values) < 2:
        only = values[0] if values else math.nan
        return {"value": only, "median": only, "iqr": 0.0, "slices": len(values)}
    q25, q50, q75 = statistics.quantiles(values, n=4, method="inclusive")
    return {
        "value": q75 if better == "higher" else q25,
        "median": q50,
        "iqr": q75 - q25,
        "slices": len(values),
    }
