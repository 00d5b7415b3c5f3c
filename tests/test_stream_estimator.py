"""Unit tests for client-side throughput estimators."""

import pytest

from repro.stream.estimator import (
    MIN_TRANSFER_SECONDS,
    EwmaEstimator,
    HarmonicMeanEstimator,
    LastSampleEstimator,
)


class TestHarmonicMean:
    def test_no_estimate_before_observation(self):
        assert HarmonicMeanEstimator().estimate() is None

    def test_single_sample(self):
        estimator = HarmonicMeanEstimator()
        estimator.observe(1000, 2.0)
        assert estimator.estimate() == pytest.approx(500.0)

    def test_harmonic_mean_of_two(self):
        estimator = HarmonicMeanEstimator()
        estimator.observe(1000, 1.0)  # 1000 B/s
        estimator.observe(1000, 4.0)  # 250 B/s
        assert estimator.estimate() == pytest.approx(400.0)  # harmonic mean

    def test_window_slides(self):
        estimator = HarmonicMeanEstimator(window=2)
        estimator.observe(100, 1.0)
        estimator.observe(200, 1.0)
        estimator.observe(300, 1.0)  # pushes the 100 out
        assert estimator.estimate() == pytest.approx(240.0)

    def test_slow_transfer_drags_estimate_down(self):
        estimator = HarmonicMeanEstimator()
        for _ in range(4):
            estimator.observe(1000, 1.0)
        estimator.observe(1000, 100.0)  # one near-stall
        assert estimator.estimate() < 50.0

    def test_ignores_zero_byte_samples(self):
        estimator = HarmonicMeanEstimator()
        estimator.observe(0, 1.0)
        assert estimator.estimate() is None

    def test_zero_duration_clamped_not_dropped(self):
        """An instant transfer is a very-fast sample, not no sample —
        dropping it would leave the estimator blind on fast links."""
        estimator = HarmonicMeanEstimator()
        estimator.observe(100, 0.0)
        assert estimator.estimate() == pytest.approx(100 / MIN_TRANSFER_SECONDS)

    def test_reset(self):
        estimator = HarmonicMeanEstimator()
        estimator.observe(100, 1.0)
        estimator.reset()
        assert estimator.estimate() is None

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            HarmonicMeanEstimator(window=0)


class TestEwma:
    def test_first_sample_is_estimate(self):
        estimator = EwmaEstimator(alpha=0.5)
        estimator.observe(100, 1.0)
        assert estimator.estimate() == pytest.approx(100.0)

    def test_blends(self):
        estimator = EwmaEstimator(alpha=0.5)
        estimator.observe(100, 1.0)
        estimator.observe(200, 1.0)
        assert estimator.estimate() == pytest.approx(150.0)

    def test_small_alpha_smooths(self):
        smooth = EwmaEstimator(alpha=0.1)
        jumpy = EwmaEstimator(alpha=0.9)
        for estimator in (smooth, jumpy):
            estimator.observe(100, 1.0)
            estimator.observe(1000, 1.0)
        assert smooth.estimate() < jumpy.estimate()

    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            EwmaEstimator(alpha=0.0)
        with pytest.raises(ValueError):
            EwmaEstimator(alpha=1.5)

    def test_reset(self):
        estimator = EwmaEstimator()
        estimator.observe(100, 1.0)
        estimator.reset()
        assert estimator.estimate() is None


class TestLastSample:
    def test_tracks_latest(self):
        estimator = LastSampleEstimator()
        estimator.observe(100, 1.0)
        estimator.observe(500, 1.0)
        assert estimator.estimate() == pytest.approx(500.0)


class TestZeroDurationClamp:
    """All three estimators clamp instant transfers to the 1 ms floor."""

    @pytest.mark.parametrize(
        "estimator_factory",
        [HarmonicMeanEstimator, EwmaEstimator, LastSampleEstimator],
    )
    def test_instant_transfer_still_counts(self, estimator_factory):
        estimator = estimator_factory()
        estimator.observe(2000, 0.0)
        assert estimator.estimate() == pytest.approx(2000 / MIN_TRANSFER_SECONDS)

    @pytest.mark.parametrize(
        "estimator_factory",
        [HarmonicMeanEstimator, EwmaEstimator, LastSampleEstimator],
    )
    def test_negative_duration_clamped(self, estimator_factory):
        estimator = estimator_factory()
        estimator.observe(2000, -1.0)
        assert estimator.estimate() == pytest.approx(2000 / MIN_TRANSFER_SECONDS)

    @pytest.mark.parametrize(
        "estimator_factory",
        [HarmonicMeanEstimator, EwmaEstimator, LastSampleEstimator],
    )
    def test_zero_bytes_still_ignored(self, estimator_factory):
        estimator = estimator_factory()
        estimator.observe(0, 0.0)
        assert estimator.estimate() is None

    def test_durations_above_floor_unaffected(self):
        estimator = LastSampleEstimator()
        estimator.observe(1000, 2.0)
        assert estimator.estimate() == pytest.approx(500.0)


class TestStreamerIntegration:
    def test_estimated_session_completes(self, session_db):
        from repro import ConstantBandwidth, PredictiveTilingPolicy, SessionConfig
        from repro.workloads.users import ViewerPopulation

        trace = ViewerPopulation(seed=4).trace(0, duration=3.0, rate=10.0)
        config = SessionConfig(
            policy=PredictiveTilingPolicy(),
            bandwidth=ConstantBandwidth(50_000),
            predictor="static",
            estimator=HarmonicMeanEstimator(),
        )
        report = session_db.serve("clip", (trace, config))
        assert len(report.records) == 3

    def test_estimator_converges_on_constant_link(self, session_db):
        from repro import ConstantBandwidth, PredictiveTilingPolicy, SessionConfig
        from repro.workloads.users import ViewerPopulation

        class Recording(HarmonicMeanEstimator):
            # Sessions stream on a private deep copy of the configured
            # estimator; a class attribute is shared with that copy.
            estimates: list = []

            def observe(self, size_bytes, duration_seconds):
                super().observe(size_bytes, duration_seconds)
                Recording.estimates.append(self.estimate())

        estimator = Recording()
        trace = ViewerPopulation(seed=4).trace(0, duration=3.0, rate=10.0)
        config = SessionConfig(
            policy=PredictiveTilingPolicy(),
            bandwidth=ConstantBandwidth(10_000),
            predictor="static",
            estimator=estimator,
        )
        session_db.serve("clip", (trace, config))
        assert Recording.estimates[-1] == pytest.approx(10_000, rel=0.01)
        assert estimator.estimate() is None  # the caller's object is never fed
