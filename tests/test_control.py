"""The predictive control plane: forecaster, planner, controller, wire.

Four layers, tested in the order they compose:

* golden-value tests pin the Holt (EWMA + trend) arithmetic — a changed
  smoothing constant or update order shows up as an exact-number diff;
* property tests pin the planner's purity (same inputs, byte-identical
  plan) and its versioning/rollback contract;
* controller step tests drive the loop by incrementing a real registry's
  demand counter over a real store, as served requests do, and step it
  by hand as the chaos harness does for deterministic replay;
* wire tests apply plans to a live server in-process and over HTTP,
  including the tier-resizing case: a plan enabling pinning on a server
  that booted with a zero pin budget.

The e2e flash-crowd test at the bottom is the acceptance story in
miniature: ramp demand against a cold server and assert the controller
pins the spiking video's segments while the observed rate is still below
its peak — pre-warm means *before*, not after.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.control import (
    ControlConfig,
    ControlPlan,
    Controller,
    EwmaTrendForecaster,
    Forecast,
    NodePlan,
    NodeState,
    Planner,
    StalePlanError,
    diff_plans,
)
from repro.control.planner import (
    FALLBACK_INFLIGHT,
    INFLIGHT_CEILING,
    MIN_INFLIGHT,
    SLO_P99,
)
from repro.core.errors import VisualCloudError
from repro.core.storage import IngestConfig
from repro.geometry.grid import TileGrid
from repro.obs import MetricsRegistry
from repro.serve import HttpSegmentClient, ServerConfig, start_server
from repro.video.quality import Quality
from repro.workloads.videos import synthetic_video


class TestForecasterGolden:
    """Exact Holt arithmetic at ``ALPHA`` = 0.4, ``BETA`` = 0.3 and
    horizon 2, worked by hand. A refactor that changes update order
    breaks these precisely."""

    def test_first_observation_seeds_the_level(self):
        f = EwmaTrendForecaster(horizon=2.0)
        forecast = f.observe("v", 10.0)
        assert forecast.level == 10.0
        assert forecast.trend == 0.0
        assert forecast.predicted == 10.0
        assert forecast.observations == 1

    def test_two_step_golden_values(self):
        f = EwmaTrendForecaster(horizon=2.0)
        f.observe("v", 10.0)
        forecast = f.observe("v", 20.0)
        # level = 0.4*20 + 0.6*(10 + 0) = 14
        # trend = 0.3*(14 - 10) + 0.7*0 = 1.2
        assert forecast.level == pytest.approx(14.0)
        assert forecast.trend == pytest.approx(1.2)
        assert forecast.predicted == pytest.approx(14.0 + 2.0 * 1.2)

    def test_three_step_golden_values(self):
        f = EwmaTrendForecaster(horizon=2.0)
        f.observe("v", 10.0)
        f.observe("v", 20.0)
        forecast = f.observe("v", 40.0)
        # level = 0.4*40 + 0.6*(14 + 1.2)   = 25.12
        # trend = 0.3*(25.12 - 14) + 0.7*1.2 = 4.176
        assert forecast.level == pytest.approx(25.12)
        assert forecast.trend == pytest.approx(4.176)
        assert forecast.predicted == pytest.approx(25.12 + 2.0 * 4.176)

    def test_ramp_predicts_ahead_of_observation(self):
        """The flash-crowd property: during a ramp the prediction runs
        ahead of the latest observed value — that gap is what buys the
        planner its pre-warm lead time."""
        f = EwmaTrendForecaster(horizon=2.0)
        for value in (10.0, 20.0, 30.0, 40.0, 50.0):
            forecast = f.observe("v", value)
        assert forecast.trend > 0
        assert forecast.predicted > 50.0

    def test_prediction_floors_at_zero(self):
        f = EwmaTrendForecaster(horizon=2.0)
        for value in (10.0, 0.0, 0.0):
            forecast = f.observe("v", value)
        # level 2.88, trend -1.776: raw prediction is negative.
        assert forecast.level + 2.0 * forecast.trend < 0
        assert forecast.predicted == 0.0

    def test_unobserved_key_is_zero(self):
        f = EwmaTrendForecaster()
        forecast = f.forecast("never-seen")
        assert forecast == Forecast(
            key="never-seen", level=0.0, trend=0.0, predicted=0.0, observations=0
        )

    def test_forecasts_are_key_sorted(self):
        f = EwmaTrendForecaster()
        for key in ("zeta", "alpha", "mid"):
            f.observe(key, 1.0)
        assert list(f.forecasts()) == ["alpha", "mid", "zeta"]

    @pytest.mark.parametrize("kwargs", [{"horizon": -1.0}])
    def test_parameter_validation(self, kwargs):
        with pytest.raises(ValueError):
            EwmaTrendForecaster(**kwargs)


def _forecast(key: str, predicted: float) -> Forecast:
    return Forecast(
        key=key, level=predicted, trend=0.0, predicted=predicted, observations=3
    )


CATALOG = {
    "vid-0": (
        ("/segment/vid-0/0/0/0/high", 1.0, 100),
        ("/segment/vid-0/0/0/1/high", 0.5, 100),
        ("/segment/vid-0/0/0/0/low", 0.25, 50),
    ),
    "vid-1": (("/segment/vid-1/0/0/0/high", 1.0, 100),),
}


class TestPlanner:
    def test_prewarm_ranks_hottest_first_and_fills_the_budget(self):
        planner = Planner(prewarm_threshold=1.0)
        plan = planner.plan(
            {"vid-0": _forecast("vid-0", 10.0), "vid-1": _forecast("vid-1", 2.0)},
            CATALOG,
            (NodeState(node_id="", pin_budget_bytes=250),),
        )
        node = plan.node("")
        paths = [path for path, _ in node.prewarm]
        # Heats: vid-0 high 1000, half-weight 500, low 250; vid-1 200.
        # The 250-byte budget takes the two 100-byte segments, then the
        # 50-byte low rung exactly fills it; vid-1's never fits.
        assert paths == [
            "/segment/vid-0/0/0/0/high",
            "/segment/vid-0/0/0/1/high",
            "/segment/vid-0/0/0/0/low",
        ]
        heats = [heat for _, heat in node.prewarm]
        assert heats == sorted(heats, reverse=True)

    def test_below_threshold_videos_are_not_warmed(self):
        planner = Planner(prewarm_threshold=5.0)
        plan = planner.plan(
            {"vid-0": _forecast("vid-0", 10.0), "vid-1": _forecast("vid-1", 2.0)},
            CATALOG,
            (NodeState(node_id="", pin_budget_bytes=10_000),),
        )
        assert all(
            path.startswith("/segment/vid-0/") for path, _ in plan.node("").prewarm
        )

    def test_zero_budget_node_gets_no_prewarm(self):
        plan = Planner().plan(
            {"vid-0": _forecast("vid-0", 10.0)},
            CATALOG,
            (NodeState(node_id="", pin_budget_bytes=0),),
        )
        assert plan.node("").prewarm == ()

    def test_nan_p99_holds_admission(self):
        state = NodeState(node_id="", max_inflight=32)
        plan = Planner().plan({}, {}, (state,), observed_p99=math.nan)
        assert plan.node("").max_inflight == 32

    def test_breach_halves_inflight_with_floor(self):
        # SLO_P99 0.25 s, DECREASE_FACTOR 0.5, MIN_INFLIGHT 4.
        planner = Planner()
        state = NodeState(node_id="", max_inflight=32)
        plan = planner.plan({}, {}, (state,), observed_p99=0.5)
        assert plan.node("").max_inflight == 16
        plan = planner.plan(
            {}, {}, (NodeState(node_id="", max_inflight=5),), observed_p99=0.5
        )
        assert plan.node("").max_inflight == 4  # floored, not 2

    def test_breach_on_unbounded_node_imposes_the_fallback(self):
        plan = Planner().plan(
            {}, {}, (NodeState(node_id="", max_inflight=None),), observed_p99=1.0
        )
        assert plan.node("").max_inflight == FALLBACK_INFLIGHT == 8

    def test_headroom_raises_additively_to_the_ceiling(self):
        # Headroom is p99 < 0.25 s x 0.5; INCREASE_STEP is 4.
        planner = Planner()
        state = NodeState(node_id="", max_inflight=62)
        plan = planner.plan({}, {}, (state,), observed_p99=0.01)
        assert plan.node("").max_inflight == INFLIGHT_CEILING == 64  # 62 + 4 capped
        # A node configured above the ceiling is held, not lowered.
        state = NodeState(node_id="", max_inflight=100)
        plan = planner.plan({}, {}, (state,), observed_p99=0.01)
        assert plan.node("").max_inflight == 100

    def test_inside_slo_without_headroom_holds(self):
        planner = Planner()
        state = NodeState(node_id="", max_inflight=16)
        plan = planner.plan({}, {}, (state,), observed_p99=0.2)
        assert plan.node("").max_inflight == 16

    def test_versions_are_monotonic(self):
        planner = Planner()
        first = planner.plan({}, {}, (NodeState(node_id=""),))
        second = planner.plan({}, {}, (NodeState(node_id=""),), previous=first)
        assert (first.version, second.version) == (1, 2)

    def test_diff_plans_ignores_version_only_changes(self):
        planner = Planner()
        first = planner.plan({}, {}, (NodeState(node_id=""),))
        second = planner.plan({}, {}, (NodeState(node_id=""),), previous=first)
        assert diff_plans(None, first)
        assert not diff_plans(first, second)

    def test_plan_validation(self):
        with pytest.raises(ValueError, match="version"):
            ControlPlan(version=-1)
        node = NodePlan(node_id="a", max_inflight=None, pin_budget_bytes=0)
        with pytest.raises(ValueError, match="duplicate"):
            ControlPlan(version=1, nodes=(node, node))

    def test_single_anonymous_node_plan_matches_any_node(self):
        node = NodePlan(node_id="", max_inflight=8, pin_budget_bytes=0)
        plan = ControlPlan(version=1, nodes=(node,))
        assert plan.node("node-3") is node
        sharded = ControlPlan(
            version=1,
            nodes=(
                NodePlan(node_id="node-0", max_inflight=8, pin_budget_bytes=0),
            ),
        )
        assert sharded.node("node-1") is None

    def test_json_round_trip_is_exact(self):
        plan = Planner().plan(
            {"vid-0": _forecast("vid-0", 10.0)},
            CATALOG,
            (NodeState(node_id="node-0", pin_budget_bytes=250, max_inflight=16),),
        )
        assert ControlPlan.from_json(plan.to_json()) == plan
        # Unknown keys are ignored.
        extended = plan.to_json()
        extended["nodes"][0]["processes"] = 4
        assert ControlPlan.from_json(extended) == plan


# Bounded strategies: the purity property needs variety, not magnitude.
_names = st.sampled_from(["vid-0", "vid-1", "vid-2"])
_forecasts = st.dictionaries(
    _names,
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
    max_size=3,
).map(lambda d: {k: _forecast(k, v) for k, v in d.items()})
_catalogs = st.dictionaries(
    _names,
    st.lists(
        st.tuples(
            st.integers(0, 7),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.integers(1, 500),
        ),
        max_size=4,
        # Real catalogs (catalog_from_storage) never repeat a path, and a
        # duplicate would make the test's path->size accounting ambiguous.
        unique_by=lambda t: t[0],
    ),
    max_size=3,
).map(
    lambda d: {
        video: tuple(
            (f"/segment/{video}/{segment}", weight, size)
            for segment, weight, size in segments
        )
        for video, segments in d.items()
    }
)
_nodes = st.lists(
    st.tuples(
        st.sampled_from(["node-0", "node-1", "node-2"]),
        st.integers(0, 1000),
        st.one_of(st.none(), st.integers(1, 128)),
    ),
    min_size=1,
    max_size=3,
    unique_by=lambda t: t[0],
).map(
    lambda items: tuple(
        NodeState(node_id=node_id, pin_budget_bytes=budget, max_inflight=inflight)
        for node_id, budget, inflight in items
    )
)
_p99s = st.one_of(
    st.just(math.nan), st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
)


class TestPlannerPurity:
    @given(forecasts=_forecasts, catalog=_catalogs, nodes=_nodes, p99=_p99s)
    def test_same_inputs_same_plan(self, forecasts, catalog, nodes, p99):
        """plan() is a pure function: two calls with identical inputs
        produce equal plans with identical JSON — the property the
        chaos replay's determinism stands on."""
        planner = Planner()
        first = planner.plan(forecasts, catalog, nodes, observed_p99=p99)
        second = planner.plan(forecasts, catalog, nodes, observed_p99=p99)
        assert first == second
        assert first.to_json() == second.to_json()

    @given(forecasts=_forecasts, catalog=_catalogs, nodes=_nodes, p99=_p99s)
    def test_plan_respects_budgets_and_floors(self, forecasts, catalog, nodes, p99):
        planner = Planner()
        plan = planner.plan(forecasts, catalog, nodes, observed_p99=p99)
        sizes = {
            path: size
            for segments in catalog.values()
            for path, _, size in segments
        }
        for state in nodes:
            node = plan.node(state.node_id)
            assert node is not None
            assert sum(sizes[p] for p, _ in node.prewarm) <= state.pin_budget_bytes
            # The floor binds when the planner *decreases* (an SLO
            # breach); held or raised positions keep their configured
            # value even below it.
            if not math.isnan(p99) and p99 > SLO_P99:
                assert node.max_inflight is not None
                assert node.max_inflight >= MIN_INFLIGHT


class TestControlConfig:
    def test_bad_forecaster_parameters_fail_at_construction(self):
        with pytest.raises(ValueError, match="horizon"):
            ControlConfig(horizon=-1.0)

    def test_the_planner_is_the_one_it_was_given(self):
        planner = Planner(prewarm_threshold=3.0)
        config = ControlConfig(planner=planner)
        assert config.planner is planner
        assert Controller(
            config, registry=MetricsRegistry(), storage=None, nodes=()
        ).planner is planner
        assert ControlConfig().planner == Planner()


class TestFlashCrowdConfig:
    """The flash-crowd benchmark's ``on`` arm, built without a server, so
    a control-config rename fails here and not only in its own CI job."""

    @pytest.mark.parametrize("profile", ["_FULL", "_SMOKE"])
    def test_on_arm_controller_config_builds(self, profile):
        from repro.bench import flash_crowd

        profile = getattr(flash_crowd, profile)
        config = flash_crowd.control_config(profile)
        assert config.planner.prewarm_threshold == 1.0
        registry = MetricsRegistry()
        controller = Controller(config, registry=registry, storage=None, nodes=())
        assert controller.planner is config.planner
        assert controller.metrics is registry


def _controller(storage, registry, budget=10_000, servers=()):
    """A deterministic controller over ``storage`` and ``registry``, one
    anonymous node with ``budget`` pin bytes, stepped by hand."""
    return Controller(
        ControlConfig(planner=Planner(prewarm_threshold=1.0), deterministic=True),
        registry=registry,
        storage=storage,
        nodes=(NodeState(node_id="", pin_budget_bytes=budget),),
        servers=servers,
    )


def _step(controller, **requests):
    """Count ``requests`` per video as served requests do, then step."""
    demand = controller.metrics.counter("serve.video_requests")
    for video, count in requests.items():
        demand.inc(count, video=video)
    return controller.step()


LIVE_CONFIG = IngestConfig(
    grid=TileGrid(2, 2), qualities=(Quality.HIGH, Quality.LOW), gop_frames=4, fps=4.0
)


def _frames(duration: float) -> list:
    return list(
        synthetic_video("venice", width=64, height=32, fps=4.0, duration=duration, seed=5)
    )


@pytest.fixture()
def live_db(db):
    """A fresh store holding 'clip': 2x2 tiles, two rungs, two windows."""
    db.ingest("clip", _frames(2.0), LIVE_CONFIG, workers=1)
    return db


def _prewarmed(plan) -> list[str]:
    return [path for path, _ in plan.node("").prewarm]


class TestControllerStep:
    def test_first_plan_applies_then_steady_state_noops(self, session_db):
        applied = []

        class Recorder:
            def apply_control_plan(self, plan):
                applied.append(plan)
                return {}

        # Constant demand: level locks to the value, trend stays zero,
        # so the second and third plans are version-only — no-ops.
        registry = MetricsRegistry()
        controller = _controller(session_db.storage, registry, servers=(Recorder(),))
        assert _step(controller, clip=5) is not None
        assert _step(controller, clip=5) is None
        assert _step(controller, clip=5) is None
        assert len(applied) == 1
        assert applied[0].version == 1
        assert applied[0].node("").prewarm
        assert controller.metrics is registry
        counters = registry.snapshot()["counters"]
        assert counters["control.steps"] == 3
        assert counters["control.plans_applied"] == 1
        assert counters["control.plans_noop"] == 2

    def test_rising_demand_reissues_the_plan(self, session_db):
        # Accelerating demand keeps the trend moving, so heats change
        # and each step issues a new version.
        controller = _controller(session_db.storage, MetricsRegistry())
        plans = [_step(controller, clip=count) for count in (1, 2, 6)]
        versions = [plan.version for plan in plans if plan is not None]
        assert versions == sorted(versions)
        assert controller.plan.version == versions[-1]

    def test_actuator_failure_is_counted_not_fatal(self, session_db):
        class Exploding:
            def apply_control_plan(self, plan):
                raise StalePlanError("a newer controller is in charge")

        controller = _controller(
            session_db.storage, MetricsRegistry(), servers=(Exploding(),)
        )
        plan = _step(controller, clip=5)
        assert plan is not None  # the loop records the plan regardless
        assert controller.metrics.counter("control.actuate_errors").total() == 1

    def test_identical_scripts_produce_identical_plan_bytes(self, session_db):
        """The deterministic-mode contract, end to end at unit scale: the
        same requests give the same plan bytes, a video the store does not
        hold included."""
        script = [(2, 0), (5, 1), (13, 3), (40, 5)]

        def run():
            controller = _controller(session_db.storage, MetricsRegistry(), budget=2_000)
            trail = []
            for clip, ghost in script:
                plan = _step(controller, clip=clip, ghost=ghost)
                trail.append("noop" if plan is None else plan.to_json())
            return trail

        assert run() == run()

    def test_requests_before_construction_are_not_demand(self, live_db):
        """A controller attached to a node that has already served traffic
        takes its baseline at construction: the node's lifetime total is
        history, not the first interval's demand."""
        registry = MetricsRegistry()
        registry.counter("serve.video_requests").inc(10_000, video="clip")
        controller = _controller(live_db.storage, registry, budget=1 << 30)
        plan = controller.step()
        assert controller.forecaster.forecast("clip").predicted == 0.0
        assert _prewarmed(plan) == []

    def test_an_appended_window_warms(self, live_db):
        """The catalog is rebuilt every step, so a GOP appended to a live
        video enters the next plan."""
        controller = _controller(live_db.storage, MetricsRegistry(), budget=1 << 30)
        assert _step(controller, clip=5) is not None
        live_db.append("clip", _frames(1.0), workers=1)
        plan = _step(controller, clip=5)
        appended = {
            f"/segment/clip/{key.to_path()}"
            for key in live_db.storage.build_manifest("clip").segment_sizes
            if key.window == 2
        }
        assert len(appended) == 8
        assert appended <= set(_prewarmed(plan))

    def test_an_uncommitted_name_does_not_stop_the_loop(self, live_db):
        """A killed first ingest leaves a name with no committed version;
        the catalog skips it, as ``repro ls`` does, and the real video
        beside it still warms."""
        live_db.storage.catalog.create("dead")
        controller = _controller(live_db.storage, MetricsRegistry(), budget=1 << 30)
        plan = _step(controller, clip=5)
        paths = _prewarmed(plan)
        assert paths
        assert all(path.startswith("/segment/clip/") for path in paths)


class TestWireActuation:
    """Plans over the wire: rollback refusal, idempotence, and the
    tier-resize (a cold server enabled by its first plan)."""

    def _plan(self, version, *, prewarm=(), budget=0, inflight=None):
        return ControlPlan(
            version=version,
            nodes=(
                NodePlan(
                    node_id="",
                    max_inflight=inflight,
                    pin_budget_bytes=budget,
                    prewarm=tuple(prewarm),
                ),
            ),
        )

    def test_plan_resizes_a_cold_server_into_pinning(self, session_db):
        # pin_budget_bytes=0 at boot: the hot set is disabled until the
        # control plane grants a budget — tier resizing, not a restart.
        handle = start_server(
            session_db.storage, ServerConfig(drain_timeout=2.0), registry=MetricsRegistry()
        )
        try:
            assert not handle.server.hot.enabled
            manifest = session_db.storage.build_manifest("clip")
            paths = sorted(
                f"/segment/clip/{key.to_path()}" for key in manifest.segment_sizes
            )
            plan = self._plan(
                1,
                prewarm=[(path, 10) for path in paths],
                budget=1 << 20,
                inflight=16,
            )
            result = handle.apply_control_plan(plan)
            assert result["pinned"] == len(paths)
            state = handle.control_state()
            assert state["version"] == 1
            assert state["pin_budget_bytes"] == 1 << 20
            assert state["pinned_entries"] == len(paths)
            assert state["max_inflight"] == 16
        finally:
            handle.stop()

    def test_stale_plan_is_refused_locally_and_over_http(self, session_db):
        handle = start_server(
            session_db.storage, ServerConfig(drain_timeout=2.0), registry=MetricsRegistry()
        )
        try:
            with HttpSegmentClient(handle.base_url) as client:
                client.post_control(self._plan(3, inflight=8).to_json())
                # Equal version: idempotent re-application, not an error.
                again = client.post_control(self._plan(3, inflight=8).to_json())
                assert again["version"] == 3
                with pytest.raises(StalePlanError):
                    client.post_control(self._plan(2, inflight=8).to_json())
            with pytest.raises(StalePlanError):
                handle.apply_control_plan(self._plan(1, inflight=8))
            assert handle.control_state()["version"] == 3
        finally:
            handle.stop()

    def test_control_state_over_the_wire(self, session_db):
        handle = start_server(
            session_db.storage, ServerConfig(drain_timeout=2.0), registry=MetricsRegistry()
        )
        try:
            with HttpSegmentClient(handle.base_url) as client:
                client.post_control(self._plan(1, inflight=12).to_json())
                state = client.fetch_control()
            assert state["version"] == 1
            assert state["max_inflight"] == 12
        finally:
            handle.stop()


class TestControlInput:
    """``/control`` is outside input: a malformed body is a 400 that
    changes nothing, never a 200, a 409 or a dropped connection — and
    the node keeps serving its cold path afterwards."""

    @staticmethod
    def _slice(**fields):
        node = {"node_id": "", "max_inflight": 4, "pin_budget_bytes": 0, **fields}
        return {"version": 1, "nodes": [node]}

    # Numbered as when /control had three POST routes, so a case keeps
    # its name in test inventories; the gaps (7, 8, 11, 12) were the same
    # payloads sent to the two routes that are gone.
    MALFORMED = {
        # (a) a slice whose ceiling is not a count: once installed, every
        # un-pinned read died comparing int >= str.
        0: _slice(max_inflight="many"),
        1: _slice(max_inflight=True),
        2: _slice(pin_budget_bytes=-1),
        # (b) a ceiling ServerConfig would refuse: every cold read shed forever.
        3: _slice(max_inflight=-5),
        4: _slice(max_inflight=0),
        # (c) not a JSON object.
        5: [1, 2],
        6: None,
        # (d) a typo in the version is not "a newer controller is in charge".
        9: {"version": "x", "nodes": []},
        10: {"version": -1, "nodes": []},
        # Validated before anything is assigned: the good budget must not
        # land when the heat beside it is junk.
        13: _slice(pin_budget_bytes=4096, prewarm=[["/x", "hot"]]),
    }

    @pytest.mark.parametrize(
        "payload", MALFORMED.values(), ids=[f"plan-{number}" for number in MALFORMED]
    )
    def test_malformed_body_is_a_400_that_changes_nothing(self, session_db, payload):
        import http.client
        import json

        manifest = session_db.storage.build_manifest("clip")
        cold = f"/segment/clip/{min(key.to_path() for key in manifest.segment_sizes)}"
        handle = start_server(
            session_db.storage, ServerConfig(drain_timeout=2.0), registry=MetricsRegistry()
        )
        try:
            connection = http.client.HTTPConnection(*handle.address, timeout=10)

            def ask(method, path, body=None):
                connection.request(method, path, body=body)
                response = connection.getresponse()
                return response.status, response.getheader("X-Error"), response.read()

            before = ask("GET", "/control")
            status, error, _ = ask("POST", "/control/plan", json.dumps(payload))
            assert (status, error) == (400, "ValueError")
            assert ask("GET", "/control") == before
            status, _, body = ask("GET", cold)
            assert status == 200 and body
            with HttpSegmentClient(handle.base_url) as client:
                # A taxonomy error naming the real request — not the
                # ``StalePlanError`` (a ``ValueError``) a 409 becomes.
                with pytest.raises(VisualCloudError, match="POST /control/plan -> 400"):
                    client.post_control(payload)
        finally:
            handle.stop()

    def test_only_a_stale_version_is_a_409(self, session_db):
        handle = start_server(
            session_db.storage, ServerConfig(drain_timeout=2.0), registry=MetricsRegistry()
        )
        try:
            with HttpSegmentClient(handle.base_url) as client:
                client.post_control(dict(self._slice(max_inflight=8), version=3))
                for payload in (self._slice(), {"version": 2, "nodes": []}):
                    with pytest.raises(StalePlanError):
                        client.post_control(payload)
                assert client.fetch_control()["max_inflight"] == 8
        finally:
            handle.stop()

    @pytest.mark.parametrize(
        "method, path",
        [
            ("POST", "/control/limits"),
            ("POST", "/control/prewarm"),
            ("POST", "/control"),
            ("POST", "/control/plan/extra"),
        ],
    )
    def test_plan_is_the_one_post_route(self, session_db, method, path):
        """The partial-slice routes are gone, not renamed: the ordinary
        404, whatever the body, and nothing applied."""
        import http.client
        import json

        with start_server(session_db.storage, registry=MetricsRegistry()) as handle:
            connection = http.client.HTTPConnection(*handle.address, timeout=10)
            connection.request(method, path, body=json.dumps(self._slice()))
            response = connection.getresponse()
            response.read()
            assert response.status == 404
            assert handle.control_state()["version"] == 0

    def test_node_plan_holds_the_server_config_rules(self):
        for bad in ("many", 0, -5, True, 2.5):
            with pytest.raises(ValueError, match="max_inflight"):
                NodePlan(node_id="", max_inflight=bad, pin_budget_bytes=0)
        for bad in (-1, "1", None, False):
            with pytest.raises(ValueError, match="pin_budget_bytes"):
                NodePlan(node_id="", max_inflight=None, pin_budget_bytes=bad)
        for bad in ((("/x", "hot"),), ((7, 1),), (("/x", True),)):
            with pytest.raises(ValueError, match="prewarm"):
                NodePlan(node_id="", max_inflight=None, pin_budget_bytes=0, prewarm=bad)
        for bad in ([1, 2], None, "plan"):
            with pytest.raises(ValueError, match="JSON object"):
                ControlPlan.from_json(bad)


class TestFlashCrowdEndToEnd:
    def test_controller_pins_the_spiking_video_before_the_peak(self, session_db):
        """The acceptance story in miniature: ramp real requests at a
        cold server and the controller must pin the spiking video's
        segments while the observed rate is still below its peak."""
        registry = MetricsRegistry()
        handle = start_server(
            session_db.storage, ServerConfig(drain_timeout=2.0), registry=registry
        )
        controller = Controller(
            ControlConfig(
                horizon=3.0,
                planner=Planner(prewarm_threshold=3.5),
                deterministic=True,
            ),
            registry=registry,
            storage=session_db.storage,
            nodes=(NodeState(node_id="", pin_budget_bytes=1 << 20),),
            servers=(handle,),
        )
        ramp, peak = (1, 2, 4), 8
        try:
            manifest = session_db.storage.build_manifest("clip")
            key = min(manifest.segment_sizes, key=lambda k: k.to_path())
            with HttpSegmentClient(handle.base_url) as client:
                for rate in ramp:
                    for _ in range(rate):
                        client.fetch_segment("clip", key)
                    controller.step()
                # The pins must exist NOW — before any peak-rate request
                # has been issued. Predicted demand (level + trend
                # lookahead) crossed the threshold while observed demand
                # was still at ramp levels below the peak.
                assert max(ramp) < peak
                pinned = handle.server.hot.paths()
                assert pinned, "controller never pinned during the ramp"
                assert all(path.startswith("/segment/clip/") for path in pinned)
                assert controller.plan is not None
                # The peak itself is then served from RAM.
                hits_before = registry.counter("serve.pin_hits").total()
                for _ in range(peak):
                    client.fetch_segment("clip", key)
                assert registry.counter("serve.pin_hits").total() >= hits_before + peak
        finally:
            handle.stop()
