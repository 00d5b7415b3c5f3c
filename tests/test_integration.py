"""End-to-end integration tests: the demo's full flow on one database.

These are slower than the unit suite and cross every component boundary:
procedural content -> ingest -> predictor training -> adaptive sessions
— asserting cross-component invariants that unit tests cannot see.
"""

import dataclasses
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
from repro.control import ControlConfig, Controller, NodeState, Planner
from repro.core.resilience import RetryPolicy
from repro.serve import FailoverConfig, ServerConfig
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


class TestConfigSurface:
    """Every config object is the list docs/API.md gives for it — the
    check that keeps an option nothing sets from coming back unnoticed."""

    @pytest.mark.parametrize(
        "cls",
        [
            ServerConfig,
            SessionConfig,
            FailoverConfig,
            ControlConfig,
            Planner,
            NodeState,
            IngestConfig,
            RetryPolicy,
        ],
        ids=lambda cls: cls.__name__,
    )
    def test_fields_are_the_ones_docs_api_lists(self, cls):
        api = (Path(__file__).parent.parent / "docs" / "API.md").read_text()
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
        ],
    )
    def test_removed_options_are_type_errors(self, construct):
        with pytest.raises(TypeError):
            construct()
