"""Tests for shared-link multi-session delivery, and for the private
link being its one-session case."""

import json
import math

import pytest

from repro import (
    ConstantBandwidth,
    IngestConfig,
    NaiveFullQuality,
    PredictiveTilingPolicy,
    Quality,
    SessionConfig,
    TileGrid,
    UniformAdaptive,
    VisualCloud,
)
from repro.stream.abr import QualityPolicy
from repro.stream.estimator import HarmonicMeanEstimator
from repro.stream.network import SimulatedLink, SteppedBandwidth
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

DURATION = 3.0


@pytest.fixture(scope="module")
def shared_db(tmp_path_factory):
    db = VisualCloud(tmp_path_factory.mktemp("shared"))
    config = IngestConfig(
        grid=TileGrid(2, 2),
        qualities=(Quality.HIGH, Quality.LOWEST),
        gop_frames=4,
        fps=4.0,
    )
    frames = synthetic_video("venice", width=64, height=32, fps=4, duration=DURATION, seed=15)
    db.ingest("clip", frames, config)
    return db


def make_sessions(count, predictor="static", estimator=False):
    population = ViewerPopulation(seed=3)
    sessions = []
    for user in range(count):
        config = SessionConfig(
            policy=PredictiveTilingPolicy(),
            bandwidth=ConstantBandwidth(1e9),  # ignored in shared mode
            predictor=predictor,
            estimator=HarmonicMeanEstimator() if estimator else None,
        )
        sessions.append(("clip", population.trace(user, DURATION, rate=10.0), config))
    return sessions


class TestSharedLink:
    def test_rejects_empty(self, shared_db):
        streamer = shared_db.streamer
        with pytest.raises(ValueError):
            streamer.serve_all([], SimulatedLink(ConstantBandwidth(1000)))

    # Ids read policy-estimator-rtt_ms-buffer_windows; kept short so the
    # dotted test name fits the 100 characters test inventories record.
    @pytest.mark.parametrize("buffer_windows", [1.0, 2.0], ids=["1", "2"])
    @pytest.mark.parametrize("rtt", [0.0, 0.05], ids=["0", "50"])
    @pytest.mark.parametrize("estimator", [False, True], ids=["or", "hm"])
    @pytest.mark.parametrize(
        "policy",
        [NaiveFullQuality, UniformAdaptive, PredictiveTilingPolicy],
        ids=["naive", "unifm", "tiled"],
    )
    def test_single_session_matches_private_link(
        self, shared_db, policy, estimator, rtt, buffer_windows
    ):
        """A private link is the one-session case of a shared one: the
        same session served with and without ``link=`` must produce
        JSON-equal QoE summaries and equal window records."""
        trace = ViewerPopulation(seed=3).trace(0, DURATION, rate=10.0)
        rate = _contended_rate(shared_db, viewers=1.0)
        config = SessionConfig(
            policy=policy(),
            # Generous, then starved: the oracle sees the drop at once, the
            # estimator lags it, so every axis changes the outcome.
            bandwidth=SteppedBandwidth(((0.0, 1.5 * rate), (0.6, 0.45 * rate))),
            predictor="deadreckoning",
            rtt=rtt,
            buffer_windows=buffer_windows,
            estimator=HarmonicMeanEstimator() if estimator else None,
        )
        private = shared_db.serve("clip", (trace, config))
        (shared,) = shared_db.serve(
            "clip", [(trace, config)], link=SimulatedLink(config.bandwidth, rtt=config.rtt)
        )
        assert json.dumps(shared.summary(), sort_keys=True) == json.dumps(
            private.summary(), sort_keys=True
        )
        assert shared.records == private.records

    def test_all_sessions_complete(self, shared_db):
        streamer = shared_db.streamer
        reports = streamer.serve_all(
            make_sessions(4), SimulatedLink(ConstantBandwidth(100_000))
        )
        assert len(reports) == 4
        assert all(len(report.records) == 3 for report in reports)

    def test_generous_link_no_stalls(self, shared_db):
        streamer = shared_db.streamer
        reports = streamer.serve_all(
            make_sessions(4), SimulatedLink(ConstantBandwidth(1e8))
        )
        assert all(report.stall_time == 0.0 for report in reports)

    def test_contention_causes_stalls(self, shared_db):
        """A link that serves one viewer fine must stall eight of them."""
        manifest = shared_db.storage.build_manifest("clip")
        one_viewer_rate = sum(
            manifest.full_sphere_size(window, Quality.HIGH)
            for window in range(manifest.window_count)
        ) / manifest.duration
        streamer = shared_db.streamer
        solo = streamer.serve_all(
            make_sessions(1), SimulatedLink(ConstantBandwidth(one_viewer_rate))
        )
        crowd = streamer.serve_all(
            make_sessions(8), SimulatedLink(ConstantBandwidth(one_viewer_rate))
        )
        assert sum(report.stall_time for report in solo) == pytest.approx(0.0, abs=0.2)
        assert sum(report.stall_time for report in crowd) > 1.0

    def test_estimators_adapt_under_contention(self, shared_db):
        """Estimating clients observe contention and downgrade, stalling
        less than oracle-optimistic clients on the same link."""
        manifest = shared_db.storage.build_manifest("clip")
        rate = 2.0 * sum(
            manifest.full_sphere_size(window, Quality.HIGH)
            for window in range(manifest.window_count)
        ) / manifest.duration
        streamer = shared_db.streamer
        blind = streamer.serve_all(
            make_sessions(8), SimulatedLink(ConstantBandwidth(rate))
        )
        adaptive = streamer.serve_all(
            make_sessions(8, estimator=True), SimulatedLink(ConstantBandwidth(rate))
        )
        blind_stalls = sum(report.stall_time for report in blind)
        adaptive_stalls = sum(report.stall_time for report in adaptive)
        assert adaptive_stalls <= blind_stalls

    def test_staggered_arrivals(self, shared_db):
        """Earliest requester first, ties in input order — read off the
        records: every session arrives at 0 and the link staggers them.
        Replaying the windows in (request time, session) order must find
        every transfer finishing before the next one does, and first
        requests go out in input order."""
        reports = shared_db.streamer.serve_all(
            make_sessions(3), SimulatedLink(ConstantBandwidth(_contended_rate(shared_db)))
        )
        assert [report.records[0].request_time for report in reports] == [0.0] * 3
        served = sorted(
            (record.request_time, index, record.window, record.delivered_time)
            for index, report in enumerate(reports)
            for record in report.records
        )
        delivered = [finish for *_, finish in served]
        assert delivered == sorted(delivered)
        assert [index for _, index, window, _ in served if window == 0] == [0, 1, 2]


class _LeftHalfPolicy(QualityPolicy):
    """Deliberately partial: assigns only the grid's first column."""

    name = "left-half"

    def assign(self, manifest, window, predicted_tiles, budget_bytes):
        return {
            tile: manifest.best_quality
            for tile in manifest.grid.tiles()
            if tile[1] == 0
        }


class TestSharedLinkAppliesEveryCheck:
    """Regressions for drift between the two former loops: checks that
    existed only on the private-link path must hold under ``link=``."""

    def _serve_shared(self, shared_db, **overrides):
        (name, trace, config), = make_sessions(1)
        for field, value in overrides.items():
            setattr(config, field, value)
        return shared_db.serve(
            name, (trace, config), link=SimulatedLink(ConstantBandwidth(50_000.0))
        )

    def test_evaluate_quality_fills_viewport_psnr(self, shared_db):
        report = self._serve_shared(shared_db, evaluate_quality=True)
        assert all(record.viewport_psnr is not None for record in report.records)
        assert not math.isnan(report.mean_viewport_psnr)

    def test_partial_policy_raises(self, shared_db):
        with pytest.raises(ValueError, match="left tiles .* unassigned"):
            self._serve_shared(shared_db, policy=_LeftHalfPolicy())

    def test_playback_schedule_cross_checked(self, shared_db, monkeypatch):
        """The end-of-session cross-check against the client's playback
        model runs on a shared link too: a model that disagrees with the
        incremental schedule must be caught."""
        from repro.stream.client import PlaybackSimulator

        honest = PlaybackSimulator.schedule

        def skewed(self, delivered_times):
            starts, stalls = honest(self, delivered_times)
            return [start + 0.5 for start in starts], stalls

        monkeypatch.setattr(PlaybackSimulator, "schedule", skewed)
        with pytest.raises(AssertionError, match="playback schedule diverged"):
            self._serve_shared(shared_db)


def _contended_rate(shared_db, viewers=2.0):
    """A link rate that makes estimator decisions actually matter."""
    manifest = shared_db.storage.build_manifest("clip")
    full = sum(
        manifest.full_sphere_size(window, Quality.HIGH)
        for window in range(manifest.window_count)
    )
    return viewers * full / manifest.duration


def _record_tuples(report):
    """The schedule-visible fields of every window, for exact comparison."""
    return [
        (
            record.window,
            record.request_time,
            record.delivered_time,
            record.playback_start,
            record.stall_seconds,
            record.bytes_sent,
            record.quality_map,
        )
        for record in report.records
    ]


class TestEstimatorIsolation:
    """Regression for the cross-session estimator leak: one
    ``SessionConfig`` reused for N sessions must not share one
    ``ThroughputEstimator`` instance between them."""

    def test_shared_config_matches_private_configs(self, shared_db):
        """N sessions built from ONE config object must stream exactly as
        N sessions each holding their own config + estimator. On the old
        code the shared estimator mixed every session's samples (and the
        setup loop's reset wiped earlier sessions' state), skewing the
        bandwidth signal and the quality decisions."""
        population = ViewerPopulation(seed=3)
        traces = [population.trace(user, DURATION, rate=10.0) for user in range(4)]
        rate = _contended_rate(shared_db)

        def private_config():
            return SessionConfig(
                policy=PredictiveTilingPolicy(),
                bandwidth=ConstantBandwidth(1e9),
                predictor="static",
                estimator=HarmonicMeanEstimator(),
            )

        streamer = shared_db.streamer
        one_config = private_config()
        shared_reports = streamer.serve_all(
            [("clip", trace, one_config) for trace in traces],
            SimulatedLink(ConstantBandwidth(rate)),
        )
        private_reports = streamer.serve_all(
            [("clip", trace, private_config()) for trace in traces],
            SimulatedLink(ConstantBandwidth(rate)),
        )
        for shared, private in zip(shared_reports, private_reports):
            assert _record_tuples(shared) == _record_tuples(private)

    def test_callers_estimator_object_untouched(self, shared_db):
        """``serve_all`` must neither reset nor feed the caller's
        estimator — sessions run on private copies."""
        estimator = HarmonicMeanEstimator()
        estimator.observe(12_345, 1.0)
        config = SessionConfig(
            policy=PredictiveTilingPolicy(),
            bandwidth=ConstantBandwidth(1e9),
            predictor="static",
            estimator=estimator,
        )
        population = ViewerPopulation(seed=3)
        streamer = shared_db.streamer
        streamer.serve_all(
            [
                ("clip", population.trace(user, DURATION, rate=10.0), config)
                for user in range(2)
            ],
            SimulatedLink(ConstantBandwidth(_contended_rate(shared_db))),
        )
        assert estimator.estimate() == pytest.approx(12_345.0)

    def test_sessions_observe_into_private_instances(self, shared_db):
        """Each session's samples must land in its own estimator copy.
        The probe records which instance every ``observe`` hit: two
        sessions sharing one config must feed two distinct instances,
        neither of them the caller's object."""

        class ProbeEstimator(HarmonicMeanEstimator):
            fed: set[int] = set()  # class attr: shared across deep copies

            def observe(self, size_bytes, duration_seconds):
                ProbeEstimator.fed.add(id(self))
                super().observe(size_bytes, duration_seconds)

        ProbeEstimator.fed.clear()
        probe = ProbeEstimator()
        config = SessionConfig(
            policy=PredictiveTilingPolicy(),
            bandwidth=ConstantBandwidth(1e9),
            predictor="static",
            estimator=probe,
        )
        population = ViewerPopulation(seed=3)
        streamer = shared_db.streamer
        streamer.serve_all(
            [
                ("clip", population.trace(user, DURATION, rate=10.0), config)
                for user in range(2)
            ],
            SimulatedLink(ConstantBandwidth(_contended_rate(shared_db))),
        )
        assert len(ProbeEstimator.fed) == 2
        assert id(probe) not in ProbeEstimator.fed


class TestContendedThroughput:
    """A client times each download from when it asked for it, so on a
    shared link the wait behind other viewers' bytes is part of the
    throughput its estimator sees."""

    def _rates(self, shared_db, count):
        rates = []

        class RecordingEstimator(HarmonicMeanEstimator):
            def observe(self, size_bytes, duration_seconds):
                rates.append(size_bytes / duration_seconds)
                super().observe(size_bytes, duration_seconds)

        config = SessionConfig(
            policy=NaiveFullQuality(),
            bandwidth=ConstantBandwidth(1e9),
            predictor="static",
            estimator=RecordingEstimator(),
        )
        population = ViewerPopulation(seed=3)
        capacity = _contended_rate(shared_db)
        shared_db.streamer.serve_all(
            [
                ("clip", population.trace(user, DURATION, rate=10.0), config)
                for user in range(count)
            ],
            SimulatedLink(ConstantBandwidth(capacity)),
        )
        return capacity, rates

    def test_private_link_reads_the_capacity(self, shared_db):
        capacity, rates = self._rates(shared_db, 1)
        assert rates == pytest.approx([capacity] * 3)

    def test_shared_link_reads_the_wait(self, shared_db):
        """Eight naive viewers on a link sized for two: no sample reads
        more than the link, and their harmonic mean reads at most half of
        it (a sample timed from the transfer start reads the whole link)."""
        capacity, rates = self._rates(shared_db, 8)
        assert len(rates) == 24
        assert max(rates) <= capacity * (1 + 1e-9)
        assert len(rates) / sum(1.0 / rate for rate in rates) < capacity / 2


class TestServeAllMetrics:
    """`serve_all` through a VisualCloud instance populates the shared
    registry with cache, storage, and per-window streaming metrics."""

    def test_registry_populated_end_to_end(self, tmp_path):
        db = VisualCloud(tmp_path / "obsdb")
        config = IngestConfig(
            grid=TileGrid(2, 2),
            qualities=(Quality.HIGH, Quality.LOWEST),
            gop_frames=4,
            fps=4.0,
        )
        frames = synthetic_video(
            "venice", width=64, height=32, fps=4, duration=2.0, seed=15
        )
        db.ingest("clip", frames, config)
        population = ViewerPopulation(seed=3)
        sessions = [
            (
                "clip",
                population.trace(user, 2.0, rate=10.0),
                SessionConfig(
                    policy=PredictiveTilingPolicy(),
                    bandwidth=ConstantBandwidth(1e9),
                    predictor="static",
                    estimator=HarmonicMeanEstimator(),
                ),
            )
            for user in range(3)
        ]
        db.serve(
            "clip",
            [(trace, config) for _, trace, config in sessions],
            link=SimulatedLink(ConstantBandwidth(50_000.0)),
        )

        assert db.metrics.counter("stream.windows").total() > 0
        assert db.metrics.counter("stream.bytes_sent").total() > 0
        assert db.metrics.counter("storage.segments_read").total() > 0
        # Three viewers of one clip: the cache must have amortised reads.
        assert db.metrics.counter("cache.hits").total() > 0
        assert db.metrics.histogram("stream.transfer_seconds").count(mode="shared") > 0
        assert db.metrics.histogram("storage.read_segment.seconds").count() > 0

        snapshot = db.stats()["metrics"]
        assert snapshot["counters"]["storage.segments_read"] > 0
        assert any(key.startswith("stream.windows") for key in snapshot["counters"])

        prom = db.metrics.to_prometheus()
        assert "stream_windows" in prom
        assert "storage_read_segment_seconds_count" in prom
        assert 'quantile="0.5"' in prom
