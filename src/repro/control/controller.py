"""The background controller: observe → forecast → plan → actuate.

One loop closes what ROADMAP item 2 left open: the serve tier had
popularity weights, live metrics, hot-set pinning, and admission
control, but nothing connecting *predicted* demand to any of them. The
:class:`Controller` is that connection, structured exactly as the
forecaster/planner/actuator split BRAD uses:

1. **Observe** — diff the metrics snapshot against the previous step's
   (:func:`repro.obs.counter_deltas` over ``serve.video_requests``) to
   get per-video request counts this interval, and read the segment
   endpoint's p99 for the SLO loop.
2. **Forecast** — feed the counts into the demand forecaster
   (EWMA + trend, see :mod:`repro.control.forecast`).
3. **Plan** — hand forecasts, the segment catalog, and node states to
   the pure :class:`~repro.control.planner.Planner`; skip actuation when
   the plan is a no-op modulo version (:func:`diff_plans`).
4. **Actuate** — push the versioned plan through every registered
   actuator (:mod:`repro.control.actuators`).

Determinism story: the controller owns no hidden state beyond the
forecaster series and the last plan, both pure functions of the
observation stream. With ``deterministic=True`` the p99 read is skipped
entirely (admission holds position — the planner's NaN contract), so a
replayed request sequence produces byte-identical plans; the chaos
harness drives :meth:`step` explicitly between sessions instead of
running the wall-clock thread, and injects its own metrics source.
"""

from __future__ import annotations

import math
import threading
from time import perf_counter

from repro.control.config import ControlConfig
from repro.control.planner import ControlPlan, diff_plans, video_catalog
from repro.obs import MetricsRegistry, counter_deltas, series_label, snapshot_quantile

#: The per-video demand counter the serve tier exports and this loop diffs.
DEMAND_COUNTER_PREFIX = "serve.video_requests"
#: The latency histogram series the SLO loop reads.
LATENCY_SERIES = "serve.request_seconds{endpoint=segment}"
#: Seconds between steps of the background loop (:meth:`Controller.start`).
#: Must exceed the server's ``METRICS_TTL`` (0.25 s) or a step reads
#: stale counters.
INTERVAL = 0.3


def catalog_from_storage(storage) -> dict:
    """The planner's catalog view of every stored video:
    ``{video: video_catalog(video, manifest)}``."""
    return {
        name: video_catalog(name, storage.build_manifest(name))
        for name in storage.list_videos()
    }


class Controller:
    """The control loop. Construct with callables, not objects: the
    metrics/catalog/node sources are injection points, which is the
    whole deterministic-mode mechanism.

    * ``metrics_source()`` → a registry snapshot dict;
    * ``catalog_source()`` → the planner catalog
      (:func:`catalog_from_storage` shape);
    * ``nodes_source()`` → ``tuple[NodeState, ...]``;
    * ``actuators`` — objects with ``apply(plan) -> dict``.

    Run it either as a daemon thread (:meth:`start`/:meth:`stop`, one
    :meth:`step` per :data:`INTERVAL` seconds) or drive :meth:`step`
    by hand — the chaos harness and every unit test do the latter.
    """

    def __init__(
        self,
        config: ControlConfig,
        *,
        metrics_source,
        catalog_source,
        nodes_source,
        actuators=(),
        registry: MetricsRegistry | None = None,
        clock=perf_counter,
    ) -> None:
        self.config = config
        self.forecaster = config.build_forecaster()
        self.planner = config.planner
        self._metrics_source = metrics_source
        self._catalog_source = catalog_source
        self._nodes_source = nodes_source
        self.actuators = list(actuators)
        self._clock = clock
        self.plan: ControlPlan | None = None
        self._previous_snapshot: dict | None = None
        self._catalog: dict | None = None
        self._thread: threading.Thread | None = None
        self._wake = threading.Event()
        registry = registry or MetricsRegistry()
        self.metrics = registry
        self._steps = registry.counter(
            "control.steps", "controller observe/plan iterations"
        ).labels()
        self._applied = registry.counter(
            "control.plans_applied", "plans pushed through actuators"
        ).labels()
        self._noops = registry.counter(
            "control.plans_noop", "steps whose plan changed nothing"
        ).labels()
        self._errors = registry.counter(
            "control.actuate_errors", "actuator applications that raised"
        ).labels()
        self._gauge_version = registry.gauge(
            "control.plan_version", "version of the last applied plan"
        )
        self._step_seconds = registry.histogram(
            "control.step_seconds", "wall time per controller step"
        ).labels()

    # -- observation ----------------------------------------------------------

    def _observe_demand(self, snapshot: dict) -> dict[str, float]:
        """Per-video request counts this interval, from counter deltas."""
        deltas = counter_deltas(
            self._previous_snapshot or {}, snapshot, prefix=DEMAND_COUNTER_PREFIX
        )
        demand: dict[str, float] = {}
        for name, delta in deltas.items():
            video = series_label(name, "video")
            if video:
                demand[video] = demand.get(video, 0.0) + delta
        return demand

    def _observe_p99(self, snapshot: dict) -> float:
        if self.config.deterministic:
            # NaN means "hold position" to the planner; skipping the
            # read entirely is what keeps replayed plans byte-identical
            # (latency histograms are wall-clock, counters are not).
            return math.nan
        return snapshot_quantile(snapshot, LATENCY_SERIES, "p99")

    # -- one iteration --------------------------------------------------------

    def step(self) -> ControlPlan | None:
        """Observe, forecast, plan, and (when the plan changes anything)
        actuate. Returns the applied plan, or None on a no-op step."""
        started = self._clock()
        snapshot = self._metrics_source()
        demand = self._observe_demand(snapshot)
        p99 = self._observe_p99(snapshot)
        self._previous_snapshot = snapshot
        self._steps.inc()

        for video in sorted(demand):
            self.forecaster.observe(video, demand[video])
        forecasts = self.forecaster.forecasts()

        if self._catalog is None or any(
            video not in self._catalog for video in forecasts
        ):
            self._catalog = self._catalog_source()
        plan = self.planner.plan(
            forecasts,
            self._catalog,
            tuple(self._nodes_source()),
            observed_p99=p99,
            previous=self.plan,
        )
        if not diff_plans(self.plan, plan):
            self._noops.inc()
            self._step_seconds.observe(self._clock() - started)
            return None
        for actuator in self.actuators:
            try:
                actuator.apply(plan)
            except Exception:
                self._errors.inc()
        self.plan = plan
        self._applied.inc()
        self._gauge_version.set(plan.version)
        self._step_seconds.observe(self._clock() - started)
        return plan

    # -- background thread ----------------------------------------------------

    def start(self) -> None:
        """Run :meth:`step` every :data:`INTERVAL` seconds in a
        daemon thread until :meth:`stop`."""
        if self._thread is not None:
            raise RuntimeError("controller already started")
        self._wake.clear()
        self._thread = threading.Thread(
            target=self._run, name="control-loop", daemon=True
        )
        self._thread.start()

    def _run(self) -> None:
        while not self._wake.wait(INTERVAL):
            try:
                self.step()
            except Exception:
                # The loop must outlive transient scrape/actuation
                # failures (a server mid-restart, a refused stale plan);
                # the error counter is the visibility.
                self._errors.inc()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._wake.set()
        thread.join(timeout=10.0)
        self._thread = None


__all__ = [
    "Controller",
    "DEMAND_COUNTER_PREFIX",
    "INTERVAL",
    "LATENCY_SERIES",
    "catalog_from_storage",
]
