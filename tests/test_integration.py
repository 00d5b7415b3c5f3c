"""End-to-end integration tests: the demo's full flow on one database.

These are slower than the unit suite and cross every component boundary:
procedural content -> ingest -> predictor training -> adaptive sessions
— asserting cross-component invariants that unit tests cannot see.
"""

import ast
import dataclasses
import inspect
import json
import re
from pathlib import Path

import pytest

from repro import (
    ConstantBandwidth,
    IngestConfig,
    MetricsRegistry,
    NaiveFullQuality,
    PredictiveTilingPolicy,
    Quality,
    SessionConfig,
    TileGrid,
    UniformAdaptive,
    VisualCloud,
)
from repro.chaos import ChaosProxy, ChaosStorageManager, FaultPlan
from repro.control import ControlConfig, Controller, NodeState, Planner
from repro.control.forecast import EwmaTrendForecaster
from repro.core.resilience import RetryPolicy
from repro.core.streamer import Streamer
from repro.geometry.viewport import Viewport
from repro.obs import Tracer
from repro.obs.metrics import Histogram
from repro.serve import FailoverConfig, FailoverSegmentClient, ServerConfig, serve_session
from repro.serve.failover import RetryBudget
from repro.serve.placement import HashRing, ShardMap
from repro.stream.abr import estimate_budget
from repro.stream.client import ViewportQualityProbe
from repro.stream.dash import Manifest
from repro.stream.estimator import HarmonicMeanEstimator
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

WIDTH, HEIGHT = 128, 64
FPS = 8.0
DURATION = 4.0


@pytest.fixture(scope="module")
def demo_db(tmp_path_factory) -> VisualCloud:
    db = VisualCloud(tmp_path_factory.mktemp("demo"))
    config = IngestConfig(
        grid=TileGrid(2, 4),
        qualities=(Quality.HIGH, Quality.LOW, Quality.THUMBNAIL),
        gop_frames=8,
        fps=FPS,
    )
    frames = synthetic_video(
        "venice", width=WIDTH, height=HEIGHT, fps=FPS, duration=DURATION, seed=77
    )
    db.ingest("demo", frames, config)
    population = ViewerPopulation(seed=13)
    db.train_predictor(
        "demo", [population.trace(user, DURATION, rate=10.0) for user in range(4)]
    )
    return db


@pytest.fixture(scope="module")
def viewer():
    return ViewerPopulation(seed=13).trace(9, DURATION, rate=10.0)


class TestFullDeliveryFlow:
    def test_predictive_beats_naive_on_bytes_and_ties_on_viewport(self, demo_db, viewer):
        """The demo's two-sided claim, end to end on one database."""
        manifest = demo_db.storage.build_manifest("demo")
        rate = sum(
            manifest.full_sphere_size(w, Quality.HIGH)
            for w in range(manifest.window_count)
        ) / manifest.duration
        naive = demo_db.serve(
            "demo",
            (
                viewer,
                SessionConfig(
                    policy=NaiveFullQuality(),
                    bandwidth=ConstantBandwidth(rate),
                    evaluate_quality=True,
                ),
            ),
        )
        predictive = demo_db.serve(
            "demo",
            (
                viewer,
                SessionConfig(
                    policy=PredictiveTilingPolicy(),
                    bandwidth=ConstantBandwidth(rate),
                    predictor="static",
                    evaluate_quality=True,
                ),
            ),
        )
        assert predictive.bytes_saved_vs(naive) > 0.15
        assert predictive.mean_viewport_psnr > 40
        assert predictive.stall_time == 0.0

    def test_all_policies_and_predictors_compose(self, demo_db, viewer):
        policies = [NaiveFullQuality(), UniformAdaptive(), PredictiveTilingPolicy()]
        predictors = ["static", "deadreckoning", "markov", "oracle"]
        for policy in policies:
            for predictor in predictors:
                report = demo_db.serve(
                    "demo",
                    (
                        viewer,
                        SessionConfig(
                            policy=policy,
                            bandwidth=ConstantBandwidth(30_000),
                            predictor=predictor,
                            estimator=HarmonicMeanEstimator(),
                        ),
                    ),
                )
                assert len(report.records) == 4

    def test_delivered_bytes_decode_to_valid_frames(self, demo_db, viewer):
        """The bytes the streamer accounts for must decode to the frames
        the client renders — delivery is not a size model."""
        manifest = demo_db.storage.build_manifest("demo")
        report = demo_db.serve(
            "demo",
            (
                viewer,
                SessionConfig(
                    policy=PredictiveTilingPolicy(),
                    bandwidth=ConstantBandwidth(30_000),
                    predictor="static",
                ),
            ),
        )
        for record in report.records[:2]:
            window = demo_db.storage.read_window("demo", record.window, record.quality_map)
            assert sum(map(len, window.payloads.values())) == record.bytes_sent
            frames = window.decode()
            assert len(frames) == 8
            assert frames[0].width == WIDTH


class TestConcurrentViewStability:
    def test_sessions_do_not_interfere(self, demo_db):
        """Serving other viewers must not change what one viewer gets."""
        population = ViewerPopulation(seed=99)
        target_trace = population.trace(0, DURATION, rate=10.0)

        def run_target():
            return demo_db.serve(
                "demo",
                (
                    target_trace,
                    SessionConfig(
                        policy=PredictiveTilingPolicy(),
                        bandwidth=ConstantBandwidth(25_000),
                        predictor="static",
                    ),
                ),
            )

        before = run_target()
        for user in range(1, 4):
            demo_db.serve(
                "demo",
                (
                    population.trace(user, DURATION, rate=10.0),
                    SessionConfig(
                        policy=UniformAdaptive(), bandwidth=ConstantBandwidth(9_000)
                    ),
                ),
            )
        after = run_target()
        assert before.total_bytes == after.total_bytes
        assert [r.quality_map for r in before.records] == [
            r.quality_map for r in after.records
        ]


REPO = Path(__file__).parent.parent
CONFIG_CLASSES = [
    ServerConfig,
    SessionConfig,
    FailoverConfig,
    ControlConfig,
    Planner,
    NodeState,
    IngestConfig,
    RetryPolicy,
    ShardMap,
]
#: Fields nothing outside the tests sets, each kept for a reason DESIGN.md
#: gives under "Kept on purpose".
KEPT_ON_PURPOSE = {
    "ServerConfig": {"host", "port", "max_connection_requests"},
    "SessionConfig": {"rtt", "buffer_windows"},
    "FailoverConfig": {"clock"},
}


def _names_set(path: Path) -> set[str]:
    """Every keyword argument and string dict key in a Python file, or
    every object key in a JSON file: the names the file can set."""
    names: set[str] = set()
    if path.suffix == ".json":
        json.loads(path.read_text(), object_pairs_hook=lambda pairs: names.update(dict(pairs)))
        return names
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.Dict):
            names.update(
                key.value
                for key in node.keys
                if isinstance(key, ast.Constant) and isinstance(key.value, str)
            )
    return names


def _callers() -> list[Path]:
    """Every file that is not a test and may configure the system."""
    return [
        *sorted(REPO.glob("src/repro/**/*.py")),
        *sorted(REPO.glob("benchmarks/**/*.py")),
        *sorted(REPO.glob("examples/*.py")),
        *sorted(REPO.glob("plans/*.json")),
    ]


class TestConfigSurface:
    """Every config object is the list docs/API.md gives for it, and each
    of its fields is set by something that is not a test — the checks
    that keep an option nothing sets from coming back unnoticed."""

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
    def test_every_field_is_set_outside_the_tests(self, cls):
        own = Path(inspect.getsourcefile(cls)).resolve()
        names = set().union(
            *(_names_set(path) for path in _callers() if path.resolve() != own)
        )
        kept = KEPT_ON_PURPOSE.get(cls.__name__, set())
        unset = [
            field.name
            for field in dataclasses.fields(cls)
            if field.name not in names and field.name not in kept
        ]
        assert unset == [], f"{cls.__name__} fields only tests set: {unset}"
        design = (REPO / "DESIGN.md").read_text()
        reasons = re.search(r"^Kept on purpose\b.*?(?=\n\n)", design, re.M | re.S).group(0)
        for name in kept:
            assert f"`{cls.__name__}.{name}`" in reasons, name

    @pytest.mark.parametrize("cls", CONFIG_CLASSES, ids=lambda cls: cls.__name__)
    def test_fields_are_the_ones_docs_api_lists(self, cls):
        api = (REPO / "docs" / "API.md").read_text()
        # `Cls(a, b, ...)` — a call example with keywords has an "=" and is skipped.
        listed = re.search(rf"`{cls.__name__}\(([^)=]*)\)`", api).group(1)
        fields = [field.name for field in dataclasses.fields(cls)]
        assert re.findall(r"\w+", listed) == fields

    @pytest.mark.parametrize(
        "construct",
        [
            lambda: ServerConfig(read_repair=False),
            lambda: ServerConfig(read_timeout=None),
            lambda: FailoverConfig(retry_budget=1.0),
            lambda: SessionConfig(
                policy=NaiveFullQuality(), bandwidth=ConstantBandwidth(1e6), safety=0.8
            ),
            lambda: PredictiveTilingPolicy(high_rung=1),
            lambda: ControlConfig(alpha=0.5),
            lambda: Planner(slo_p99=0.1),
            lambda: ControlConfig(interval=0.3),
            lambda: Planner(inflight_ceiling=64),
            lambda: IngestConfig(projection="cubemap"),
            lambda: Controller(
                ControlConfig(),
                registry=MetricsRegistry(),
                storage=None,
                nodes=(),
                metrics_source=MetricsRegistry().snapshot,
            ),
            lambda: Controller(
                ControlConfig(), registry=MetricsRegistry(), storage=None, nodes=(), clock=float
            ),
            lambda: NodeState(node_id="node-0", owned=()),
            lambda: SessionConfig(
                policy=NaiveFullQuality(), bandwidth=ConstantBandwidth(1e6), viewport=Viewport()
            ),
            lambda: ServerConfig(peers=()),
            lambda: ShardMap(nodes=("a",), vnodes=64),
            lambda: HashRing(["a"], vnodes=64),
            lambda: estimate_budget(1.0, 1.0, safety=0.9),
            lambda: RetryBudget(capacity=16.0),
            lambda: RetryBudget(refill=0.1),
            lambda: EwmaTrendForecaster(alpha=0.4),
            lambda: EwmaTrendForecaster(beta=0.3),
            lambda: MetricsRegistry(trace_keep=256),
            lambda: Tracer(keep=256),
            lambda: ChaosProxy(("127.0.0.1", 1), upstream_timeout=10.0),
            lambda: ViewportQualityProbe(Viewport(), samples_per_window=2),
            lambda: ChaosStorageManager(None, FaultPlan(), slow_tolerance=0.0),
            lambda: Streamer(None, None).serve_all([], start_offsets=[0.0]),
            lambda: VisualCloud.serve(None, "clip", [], start_offsets=[0.0]),
            lambda: MetricsRegistry().histogram("h", keep=4),
            lambda: Histogram("h", keep=4),
            lambda: ViewportQualityProbe(Viewport(), render_width=16),
            lambda: ViewportQualityProbe(Viewport(), render_height=16),
            lambda: FailoverSegmentClient(["http://127.0.0.1:1"], shard_map=None),
            lambda: FailoverSegmentClient(["http://127.0.0.1:1"], node_urls={}),
            lambda: serve_session("http://127.0.0.1:1", "clip", None, None, shard_map=None),
            lambda: Manifest(
                video="clip",
                width=64,
                height=32,
                fps=4.0,
                window_duration=1.0,
                window_count=1,
                grid=TileGrid(1, 1),
                qualities=(Quality.HIGH,),
                shard_map=None,
            ),
        ],
        ids=[
            "read_repair",
            "read_timeout",
            "retry_budget",
            "safety",
            "high_rung",
            "alpha",
            "slo_p99",
            "interval",
            "inflight_ceiling",
            "projection",
            "metrics_source",
            "clock",
            "owned",
            "viewport",
            "peers",
            "vnodes",
            "ring_vnodes",
            "budget_safety",
            "retry_capacity",
            "retry_refill",
            "forecast_alpha",
            "forecast_beta",
            "trace_keep",
            "tracer_keep",
            "upstream_timeout",
            "samples_per_window",
            "slow_tolerance",
            "serve_all_start_offsets",
            "serve_start_offsets",
            "histogram_keep",
            "histogram_class_keep",
            "render_width",
            "render_height",
            "failover_shard_map",
            "failover_node_urls",
            "serve_session_shard_map",
            "manifest_shard_map",
        ],
    )
    def test_removed_options_are_type_errors(self, construct):
        with pytest.raises(TypeError):
            construct()
