"""Demand forecasting: turning the metrics stream into predicted load.

The paper's thesis — and the reason a *DBMS* sits under a VR headset —
is that the system should decide ahead of time what to materialize and
where, from viewport and popularity models, rather than reacting to each
request as it arrives. This module is the "ahead of time" half: it
ingests per-interval demand observations (counter deltas from the
``repro.obs`` metrics stream, weighted by the popularity model) and
emits per-key :class:`Forecast`\\s of where demand is *going*.

The baseline is deliberately simple and exactly reproducible — Holt's
double exponential smoothing (an EWMA of the level plus an EWMA of its
per-interval change):

.. math::

    level_t = \\alpha x_t + (1 - \\alpha)(level_{t-1} + trend_{t-1})
    trend_t = \\beta (level_t - level_{t-1}) + (1 - \\beta) trend_{t-1}

and the prediction at horizon ``h`` intervals is
``max(0, level_t + h * trend_t)``. A flash crowd is precisely the regime
where this beats reacting to observed demand: during the ramp the trend
term is large and positive, so the predicted rate crosses the pre-warm
threshold while the *observed* rate is still small — which is what lets
the planner pin the crowd's segments before the crowd peaks.

Everything here is pure arithmetic on the fed observations — no clocks,
no I/O — which is what makes the controller's deterministic mode
possible: identical observation streams produce byte-identical
forecasts.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Holt's smoothing weights: ``ALPHA`` for the level, ``BETA`` for the trend.
ALPHA = 0.4
BETA = 0.3


@dataclass(frozen=True)
class Forecast:
    """One key's demand outlook, in the units it was observed in
    (typically requests per control interval)."""

    key: str
    level: float  # smoothed current demand
    trend: float  # smoothed per-interval change
    predicted: float  # level + horizon * trend, floored at zero
    observations: int


class _HoltSeries:
    __slots__ = ("level", "trend", "observations")

    def __init__(self) -> None:
        self.level = 0.0
        self.trend = 0.0
        self.observations = 0


class EwmaTrendForecaster:
    """The EWMA + linear-trend baseline (Holt's method), one series per
    key.

    The first observation initialises the level directly (an EWMA
    seeded from zero would need ``1/alpha`` intervals to catch up to a
    step — too slow for a flash crowd); the trend starts at zero and
    earns its value from subsequent deltas.
    """

    def __init__(self, horizon: float = 2.0) -> None:
        if horizon < 0.0:
            raise ValueError(f"horizon must be >= 0 intervals, got {horizon}")
        self.horizon = horizon
        self._series: dict[str, _HoltSeries] = {}

    def observe(self, key: str, value: float) -> Forecast:
        """Feed one interval's observed demand for ``key``; returns the
        updated forecast."""
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HoltSeries()
        if series.observations == 0:
            series.level = float(value)
        else:
            previous = series.level
            series.level = ALPHA * float(value) + (1.0 - ALPHA) * (
                series.level + series.trend
            )
            series.trend = BETA * (series.level - previous) + (1.0 - BETA) * series.trend
        series.observations += 1
        return self.forecast(key)

    def forecast(self, key: str) -> Forecast:
        series = self._series.get(key)
        if series is None:
            return Forecast(key=key, level=0.0, trend=0.0, predicted=0.0, observations=0)
        return Forecast(
            key=key,
            level=series.level,
            trend=series.trend,
            predicted=max(0.0, series.level + self.horizon * series.trend),
            observations=series.observations,
        )

    def forecasts(self) -> dict[str, Forecast]:
        """Every tracked key's current forecast, key-sorted so iteration
        order never depends on observation order."""
        return {key: self.forecast(key) for key in sorted(self._series)}
