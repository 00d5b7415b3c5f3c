"""The background controller: observe → forecast → plan → apply.

The :class:`Controller` connects *predicted* demand to the serve tier's
pinning and admission knobs, structured as the forecaster/planner/
actuator split BRAD uses. It runs beside the nodes it drives, over the
one :class:`~repro.obs.MetricsRegistry` they count into:

1. **Observe** — read every ``serve.video_requests{video=...}`` series
   and subtract the previous step's counts, series that did not move
   included (their forecasts decay); the first step subtracts the counts
   at construction, so traffic served before the loop started is not
   one interval's demand. Unless deterministic, also read the segment
   endpoint's p99 from ``serve.request_seconds``.
2. **Forecast** — feed the per-video counts into the demand forecaster
   (EWMA + trend, see :mod:`repro.control.forecast`).
3. **Plan** — hand forecasts, the catalog (rebuilt from storage every
   step, so windows appended to a live video warm too) and node states
   to the pure :class:`~repro.control.planner.Planner`; stop there when
   the plan is a no-op modulo version (:func:`diff_plans`).
4. **Apply** — ``apply_control_plan(plan)`` on every server; a refusal
   (:class:`~repro.control.planner.StalePlanError`) or any other error is
   counted, not raised.

Determinism story: the controller owns no hidden state beyond the
forecaster series, the last counts and the last plan, all pure functions
of the request stream. With ``deterministic=True`` the p99 read is
skipped entirely (admission holds position — the planner's NaN
contract), so a replayed request sequence produces byte-identical plans;
the chaos harness drives :meth:`step` between sessions instead of
running the wall-clock thread.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field

from repro.control.forecast import EwmaTrendForecaster
from repro.control.planner import (
    ControlPlan,
    NodeState,
    Planner,
    diff_plans,
    video_catalog,
)
from repro.core.errors import CatalogError
from repro.obs import MetricsRegistry

#: Seconds between steps of the background loop (:meth:`Controller.start`).
INTERVAL = 0.3


@dataclass(frozen=True)
class ControlConfig:
    """The control loop's knobs: forecast horizon, planner."""

    horizon: float = 2.0  # prediction lookahead, in intervals
    planner: Planner = field(default_factory=Planner)
    deterministic: bool = False  # no latency reads: plans follow demand alone

    def __post_init__(self) -> None:
        # The forecaster validates its own parameters; build it eagerly
        # so a bad horizon fails here, not at the first controller step.
        self.build_forecaster()

    def build_forecaster(self) -> EwmaTrendForecaster:
        return EwmaTrendForecaster(horizon=self.horizon)


def catalog_from_storage(storage) -> dict:
    """The planner's catalog view of every committed video:
    ``{video: video_catalog(video, manifest)}``. A name with no committed
    version (a killed first ingest) is skipped, as ``repro ls`` skips it."""
    catalog = {}
    for name in storage.list_videos():
        try:
            manifest = storage.build_manifest(name)
        except CatalogError:
            continue
        catalog[name] = video_catalog(name, manifest)
    return catalog


class Controller:
    """The control loop over the registry, store and servers of the
    nodes it drives.

    * ``registry`` — where the servers count ``serve.video_requests``
      and ``serve.request_seconds``; the loop counts ``control.*`` into
      it too (``controller.metrics is registry``);
    * ``storage`` — the store the servers read, the catalog's source;
    * ``nodes`` — one :class:`NodeState` per node a plan slices;
    * ``servers`` — objects with ``apply_control_plan(plan)``
      (``ServerHandle``).

    Run it either as a daemon thread (:meth:`start`/:meth:`stop`, one
    :meth:`step` per :data:`INTERVAL` seconds) or drive :meth:`step`
    by hand — the chaos harness and the unit tests do the latter.
    """

    def __init__(
        self,
        config: ControlConfig,
        *,
        registry: MetricsRegistry,
        storage,
        nodes: tuple[NodeState, ...],
        servers=(),
    ) -> None:
        self.config = config
        self.forecaster = config.build_forecaster()
        self.planner = config.planner
        self.storage = storage
        self.nodes = tuple(nodes)
        self.servers = tuple(servers)
        self.metrics = registry
        self.plan: ControlPlan | None = None
        self._demand = registry.counter("serve.video_requests")
        self._latency = registry.histogram("serve.request_seconds")
        self._counts = self._read_counts()
        self._thread: threading.Thread | None = None
        self._wake = threading.Event()
        self._steps = registry.counter(
            "control.steps", "controller observe/plan iterations"
        ).labels()
        self._applied = registry.counter(
            "control.plans_applied", "plans pushed to the servers"
        ).labels()
        self._noops = registry.counter(
            "control.plans_noop", "steps whose plan changed nothing"
        ).labels()
        self._errors = registry.counter(
            "control.actuate_errors", "plan applications that raised"
        ).labels()
        self._gauge_version = registry.gauge(
            "control.plan_version", "version of the last applied plan"
        )

    def _read_counts(self) -> dict[str, float]:
        """Requests so far per video, one entry per demand series."""
        return {
            dict(labels)["video"]: total
            for labels, total in self._demand.series().items()
        }

    # -- one iteration --------------------------------------------------------

    def step(self) -> ControlPlan | None:
        """Observe, forecast, plan, and (when the plan changes anything)
        apply. Returns the applied plan, or None on a no-op step."""
        counts = self._read_counts()
        # NaN means "hold position" to the planner; skipping the read
        # entirely is what keeps replayed plans byte-identical (latency
        # is wall-clock, request counts are not).
        p99 = (
            math.nan
            if self.config.deterministic
            else self._latency.quantile(0.99, endpoint="segment")
        )
        self._steps.inc()
        for video in sorted(counts):
            self.forecaster.observe(video, counts[video] - self._counts.get(video, 0.0))
        self._counts = counts

        plan = self.planner.plan(
            self.forecaster.forecasts(),
            catalog_from_storage(self.storage),
            self.nodes,
            observed_p99=p99,
            previous=self.plan,
        )
        if not diff_plans(self.plan, plan):
            self._noops.inc()
            return None
        for server in self.servers:
            try:
                server.apply_control_plan(plan)
            except Exception:
                self._errors.inc()
        self.plan = plan
        self._applied.inc()
        self._gauge_version.set(plan.version)
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
                # The loop must outlive a transient failure (a store
                # mid-rewrite); the error counter is the visibility.
                self._errors.inc()

    def stop(self) -> None:
        thread = self._thread
        if thread is None:
            return
        self._wake.set()
        thread.join(timeout=10.0)
        self._thread = None


__all__ = ["ControlConfig", "Controller", "INTERVAL", "catalog_from_storage"]
