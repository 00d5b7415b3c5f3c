"""Integration tests for the delivery engine."""

import json
import math

import pytest

from repro.core.storage import IngestConfig, StorageManager
from repro.core.predictor import PredictionService
from repro.core.streamer import SessionConfig, Streamer
from repro.geometry.grid import TileGrid
from repro.predict.traces import HeadMovementModel, circular_pan_trace
from repro.stream.abr import NaiveFullQuality, PredictiveTilingPolicy, UniformAdaptive
from repro.stream.network import ConstantBandwidth, SteppedBandwidth
from repro.video.quality import Quality
from repro.workloads.videos import synthetic_video


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    storage = StorageManager(tmp_path_factory.mktemp("store"))
    config = IngestConfig(
        grid=TileGrid(2, 4),
        qualities=(Quality.HIGH, Quality.LOWEST),
        gop_frames=4,
        fps=4.0,
    )
    frames = synthetic_video("venice", width=128, height=64, fps=4.0, duration=5.0, seed=3)
    storage.ingest("clip", frames, config)
    return Streamer(storage, PredictionService())


@pytest.fixture(scope="module")
def trace():
    return HeadMovementModel().generate(5.0, rate=10.0, seed=8)


def session(policy, bandwidth=50_000.0, **kwargs) -> SessionConfig:
    return SessionConfig(
        policy=policy, bandwidth=ConstantBandwidth(bandwidth), **kwargs
    )


class TestBasicSessions:
    def test_naive_serves_every_window(self, served, trace):
        report = served.serve("clip", trace, session(NaiveFullQuality()))
        assert len(report.records) == 5
        assert report.total_bytes > 0

    def test_predictive_saves_bytes(self, served, trace):
        naive = served.serve("clip", trace, session(NaiveFullQuality()))
        predictive = served.serve(
            "clip", trace, session(PredictiveTilingPolicy())
        )
        assert predictive.bytes_saved_vs(naive) > 0.2

    def test_oracle_saves_at_least_as_much_as_static(self, served, trace):
        def run(kind):
            return served.serve(
                "clip",
                trace,
                session(PredictiveTilingPolicy(), predictor=kind),
            ).total_bytes

        assert run("oracle") <= run("static") * 1.1

    def test_bytes_match_manifest_sizes(self, served, trace):
        report = served.serve("clip", trace, session(NaiveFullQuality()))
        manifest = served.storage.build_manifest("clip")
        for record in report.records:
            assert record.bytes_sent == manifest.window_size(
                record.window, record.quality_map
            )

    def test_every_tile_assigned_every_window(self, served, trace):
        report = served.serve("clip", trace, session(PredictiveTilingPolicy()))
        for record in report.records:
            assert set(record.quality_map) == set(TileGrid(2, 4).tiles())


class TestStalls:
    @pytest.fixture()
    def naive_rate(self, served) -> float:
        """Bytes/second needed to stream the full sphere at top quality."""
        manifest = served.storage.build_manifest("clip")
        total = sum(
            manifest.full_sphere_size(window, Quality.HIGH)
            for window in range(manifest.window_count)
        )
        return total / manifest.duration

    def test_generous_bandwidth_never_stalls(self, served, trace):
        report = served.serve("clip", trace, session(NaiveFullQuality(), bandwidth=1e9))
        assert report.stall_time == 0.0

    def test_starved_naive_stalls(self, served, trace, naive_rate):
        report = served.serve(
            "clip", trace, session(NaiveFullQuality(), bandwidth=naive_rate * 0.5)
        )
        assert report.stall_time > 0.0

    def test_predictive_stalls_less_than_naive_when_starved(
        self, served, trace, naive_rate
    ):
        bandwidth = naive_rate * 0.7
        naive = served.serve("clip", trace, session(NaiveFullQuality(), bandwidth=bandwidth))
        adaptive = served.serve(
            "clip", trace, session(PredictiveTilingPolicy(), bandwidth=bandwidth)
        )
        assert adaptive.stall_time < naive.stall_time

    def test_uniform_adapts_to_bandwidth_step(self, served, trace, naive_rate):
        stepped = SteppedBandwidth(
            steps=((0.0, naive_rate * 10.0), (2.0, naive_rate * 0.5))
        )
        config = SessionConfig(policy=UniformAdaptive(), bandwidth=stepped)
        report = served.serve("clip", trace, config)
        early_best = report.records[0].quality_map[(0, 0)]
        late_best = report.records[-1].quality_map[(0, 0)]
        assert early_best > late_best


class TestQualityProbe:
    def test_probe_fills_viewport_psnr(self, served, trace):
        config = session(PredictiveTilingPolicy(), evaluate_quality=True)
        report = served.serve("clip", trace, config)
        assert not math.isnan(report.mean_viewport_psnr)

    def test_naive_probe_hits_ceiling(self, served, trace):
        config = session(NaiveFullQuality(), evaluate_quality=True)
        report = served.serve("clip", trace, config)
        assert report.mean_viewport_psnr == pytest.approx(99.0)

    def test_probe_decodes_the_bytes_that_shipped(self, served, trace):
        """A probed window reads each tile twice — delivery, then the
        reference — not a third time to re-fetch what just shipped."""
        reads = served.storage.metrics.counter("storage.segments_read")
        before = reads.total()
        config = session(PredictiveTilingPolicy(), evaluate_quality=True)
        report = served.serve("clip", trace, config)
        tiles = TileGrid(2, 4).tile_count
        assert reads.total() - before == 2 * tiles * len(report.records)

    def test_predictive_viewport_quality_stays_high(self, served, trace):
        """The headline QoE claim: quality in the viewport barely drops."""
        config = session(PredictiveTilingPolicy(), evaluate_quality=True)
        report = served.serve("clip", trace, config)
        assert report.mean_viewport_psnr > 30


class TestPredictorsInLoop:
    @pytest.mark.parametrize("kind", ["static", "deadreckoning", "oracle"])
    def test_all_predictor_kinds_serve(self, served, trace, kind):
        config = session(PredictiveTilingPolicy(), predictor=kind)
        report = served.serve("clip", trace, config)
        assert len(report.records) == 5

    def test_markov_predictor_serves_after_training(self, served, trace):
        corpus = HeadMovementModel().generate_corpus(3, 5.0, rate=10.0, seed=1)
        served.prediction.train("clip", TileGrid(2, 4), corpus)
        config = session(PredictiveTilingPolicy(), predictor="markov")
        report = served.serve("clip", trace, config)
        assert len(report.records) == 5

    def test_oracle_has_perfect_recall(self, served, trace):
        config = session(PredictiveTilingPolicy(), predictor="oracle")
        report = served.serve("clip", trace, config)
        for record in report.records:
            assert record.visible_tiles <= record.predicted_tiles


class TestForecastDelivery:
    def test_oracle_forecast_is_the_true_footprint(self, served, trace):
        """The oracle's one footprint is the ground truth exactly: every
        window is matched, and each window ships the bytes a margin-0
        oracle session shipped when the hedge was a fixed ring (4,676 in
        all in GOP format 2, 5,143 in format 1), whatever the link."""
        for bandwidth in (50_000.0, 1e9):
            config = session(PredictiveTilingPolicy(), bandwidth=bandwidth, predictor="oracle")
            report = served.serve("clip", trace, config)
            assert [r.visible_at_best for r in report.records] == [1.0] * 5
            assert all(r.predicted_tiles == r.visible_tiles for r in report.records)
            assert [r.bytes_sent for r in report.records] == [932, 925, 913, 945, 961]

    def test_matched_savings_agree_with_the_benchmark_formula(self, served, trace):
        """``matched_bytes_saved`` and ``out_of_view_bytes`` recomputed from
        the records the way ``benchmarks/perf/sessions.py::digest`` does."""
        manifest = served.storage.build_manifest("clip")
        best = manifest.best_quality
        for kind in ("static", "deadreckoning", "oracle"):
            report = served.serve("clip", trace, session(PredictiveTilingPolicy(), predictor=kind))
            credit = out_of_view = 0
            for record in report.records:
                full = manifest.full_sphere_size(record.window, best)
                if record.visible_at_best == 1.0:
                    credit += full - record.bytes_sent
                out_of_view += sum(
                    manifest.size_of(record.window, tile, quality)
                    for tile, quality in record.quality_map.items()
                    if tile not in record.visible_tiles
                )
            assert report.matched_bytes_saved == credit
            assert report.out_of_view_bytes == out_of_view
            assert report.summary()["matched_bytes_saved"] == credit
            assert report.summary()["out_of_view_bytes"] == out_of_view

    def test_wire_summary_equals_sim(self, served, trace):
        from repro.serve import serve_session, start_server

        config = session(PredictiveTilingPolicy(), predictor="deadreckoning")
        simulated = served.serve("clip", trace, config)
        with start_server(served.storage) as handle:
            wire = serve_session(handle.base_url, "clip", trace, config)
        assert json.dumps(wire.summary(), sort_keys=True) == json.dumps(
            simulated.summary(), sort_keys=True
        )


class TestBufferCoupling:
    def test_deeper_buffer_worse_prediction(self, served):
        """With a hard-to-predict trace, deeper buffers (longer horizons)
        should not improve prediction recall."""
        trace = HeadMovementModel(fixation_duration_mean=0.8).generate(
            5.0, rate=10.0, seed=12
        )

        def recall(buffer_windows):
            config = session(
                PredictiveTilingPolicy(),
                buffer_windows=buffer_windows,
            )
            report = served.serve("clip", trace, config)
            hits = sum(
                len(r.visible_tiles & r.predicted_tiles) for r in report.records[2:]
            )
            total = sum(len(r.visible_tiles) for r in report.records[2:])
            return hits / total

        assert recall(4.0) <= recall(1.0) + 0.05
