"""The resilience layer: bounded retry, the degradation ladder, and the
no-fault differential guarantee.

Three claims are pinned here: (1) a transient error is retried exactly
``attempts`` times, no more; (2) persistent failures walk the stored
ladder strictly downward — degrade, then skip, never upgrade; (3) with
no faults injected the resilient path is *byte-identical* to the
un-wrapped storage path, window for window.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ConstantBandwidth, Quality, SessionConfig, UniformAdaptive
from repro.chaos import ChaosStorageManager, FaultPlan, FaultRule
from repro.core.errors import SegmentNotFoundError, TransientSegmentError
from repro.core.resilience import RetryPolicy, read_window_resilient
from repro.core.streamer import Streamer
from repro.obs import MetricsRegistry
from repro.workloads.users import ViewerPopulation


class TestRetryPolicy:
    @pytest.mark.parametrize("kwargs", [{"attempts": 0}])
    def test_invalid_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class ScriptedStorage:
    """Delegates to a real storage manager, but each (tile, quality) can
    be scripted to raise a queue of errors before (or instead of)
    serving."""

    def __init__(self, inner, scripts):
        self.inner = inner
        self.scripts = {key: list(errors) for key, errors in scripts.items()}
        self.calls = []

    def read_segment(self, name, gop, tile, quality, version=None):
        self.calls.append((gop, tile, quality))
        queue = self.scripts.get((tile, quality))
        if queue:
            raise queue.pop(0)
        return self.inner.read_segment(name, gop, tile, quality, version)


@pytest.fixture()
def manifest(session_db):
    return session_db.storage.build_manifest("clip")


def _assemble(session_db, manifest, scripts, attempts=3):
    storage = ScriptedStorage(session_db.storage, scripts)
    metrics = MetricsRegistry()
    quality_map = {tile: Quality.HIGH for tile in session_db.meta("clip").grid.tiles()}
    result = read_window_resilient(
        storage, manifest, "clip", 0, quality_map,
        policy=RetryPolicy(attempts=attempts), metrics=metrics,
    )
    return storage, metrics, result


class TestResilientAssembly:
    def test_transient_error_heals_within_budget(self, session_db, manifest):
        tile = (0, 0)
        scripts = {(tile, Quality.HIGH): [TransientSegmentError("blip")] * 2}
        storage, metrics, result = _assemble(session_db, manifest, scripts)
        assert result.quality_map[tile] == Quality.HIGH
        events = [event for event in result.events if event.tile == tile]
        assert [event.kind for event in events] == ["retry"]
        assert events[0].attempts == 3
        assert metrics.counter("stream.retries").total() == 2
        assert metrics.counter("stream.degradations").total() == 0

    def test_persistent_error_degrades_down_the_ladder(self, session_db, manifest):
        tile = (1, 0)
        scripts = {(tile, Quality.HIGH): [SegmentNotFoundError("gone")]}
        storage, metrics, result = _assemble(session_db, manifest, scripts)
        assert result.quality_map[tile] == Quality.LOW  # ladder is HIGH, LOW
        events = [event for event in result.events if event.tile == tile]
        assert [event.kind for event in events] == ["degrade"]
        assert events[0].requested == Quality.HIGH
        assert events[0].delivered == Quality.LOW
        assert metrics.counter("stream.degradations").total() == 1
        # One failed read of HIGH, one successful read of LOW.
        assert (tile, Quality.LOW) in [(t, q) for _, t, q in storage.calls]

    def test_retry_exhaustion_falls_to_the_ladder(self, session_db, manifest):
        tile = (0, 1)
        scripts = {(tile, Quality.HIGH): [TransientSegmentError("flap")] * 99}
        storage, metrics, result = _assemble(session_db, manifest, scripts, attempts=2)
        assert result.quality_map[tile] == Quality.LOW
        assert metrics.counter("stream.retries").total() == 2
        assert metrics.counter("stream.degradations").total() == 1

    def test_ladder_exhaustion_skips_the_tile(self, session_db, manifest):
        tile = (1, 1)
        scripts = {
            (tile, Quality.HIGH): [SegmentNotFoundError("gone")],
            (tile, Quality.LOW): [SegmentNotFoundError("also gone")],
        }
        storage, metrics, result = _assemble(session_db, manifest, scripts)
        assert tile not in result.quality_map
        assert tile not in result.payloads
        events = [event for event in result.events if event.tile == tile]
        assert [event.kind for event in events] == ["skip"]
        assert events[0].delivered is None
        assert metrics.counter("stream.tiles_skipped").total() == 1

    def test_delivery_never_upgrades_past_the_request(self, session_db, manifest):
        # Request LOW while HIGH is stored: failure of LOW must not be
        # "healed" by shipping HIGH.
        tile = (0, 0)
        storage = ScriptedStorage(
            session_db.storage, {(tile, Quality.LOW): [SegmentNotFoundError("gone")]}
        )
        result = read_window_resilient(
            storage, manifest, "clip", 0, {tile: Quality.LOW},
            metrics=MetricsRegistry(),
        )
        assert tile not in result.quality_map  # nothing below LOW is stored
        assert [event.kind for event in result.events] == ["skip"]

    def test_event_order_is_sorted_by_tile(self, session_db, manifest):
        scripts = {
            ((1, 1), Quality.HIGH): [SegmentNotFoundError("x")],
            ((0, 0), Quality.HIGH): [SegmentNotFoundError("x")],
        }
        _, _, result = _assemble(session_db, manifest, scripts)
        assert [event.tile for event in result.events] == [(0, 0), (1, 1)]


def _session_config(retry=None):
    return SessionConfig(
        policy=UniformAdaptive(),
        bandwidth=ConstantBandwidth(50_000.0),
        predictor="static",
        retry=retry,
    )


def _schedule(report):
    """The observable delivery schedule of a session."""
    return [
        (
            record.window,
            record.request_time,
            record.delivered_time,
            record.bytes_sent,
            sorted((tile, quality.label) for tile, quality in record.quality_map.items()),
        )
        for record in report.records
    ]


class TestDifferential:
    def test_no_fault_chaos_path_is_byte_identical(self, session_db):
        trace = ViewerPopulation(seed=2).trace(0, duration=3.0, rate=10.0)

        plain = Streamer(session_db.storage, session_db.prediction,
                         registry=MetricsRegistry())
        baseline = plain.serve("clip", trace, _session_config())

        chaos_storage = ChaosStorageManager(
            session_db.storage, FaultPlan(rules=(), seed=123)
        )
        wrapped = Streamer(chaos_storage, session_db.prediction,
                           registry=MetricsRegistry())
        chaotic = wrapped.serve("clip", trace, _session_config())

        assert _schedule(chaotic) == _schedule(baseline)
        assert chaotic.degradation_events == []
        assert baseline.degradation_events == []

    def test_explicit_retry_policy_does_not_change_clean_delivery(self, session_db):
        trace = ViewerPopulation(seed=4).trace(1, duration=3.0, rate=10.0)
        streamer = Streamer(session_db.storage, session_db.prediction,
                            registry=MetricsRegistry())
        default = streamer.serve("clip", trace, _session_config())
        tuned = streamer.serve(
            "clip", trace, _session_config(retry=RetryPolicy(attempts=7))
        )
        assert _schedule(tuned) == _schedule(default)


class TestChaosProperty:
    @given(
        rate=st.floats(min_value=0.0, max_value=0.5),
        kind=st.sampled_from(["flaky", "slow", "missing", "corrupt"]),
        burst=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(
        max_examples=12,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_any_subcritical_plan_yields_a_terminating_session(
        self, session_db, rate, kind, burst, seed
    ):
        # Fault rate < 1.0: every session must terminate with a full
        # QoE report and zero uncaught exceptions — degradation is
        # allowed, crashing is not.
        plan = FaultPlan(
            rules=(FaultRule(kind=kind, rate=rate, burst=burst),) if rate > 0 else (),
            seed=seed,
        )
        storage = ChaosStorageManager(session_db.storage, plan)
        streamer = Streamer(storage, session_db.prediction, registry=MetricsRegistry())
        trace = ViewerPopulation(seed=seed).trace(0, duration=3.0, rate=10.0)
        report = streamer.serve("clip", trace, _session_config())
        assert len(report.records) == session_db.meta("clip").gop_count
        for record in report.records:
            requested = record.requested_map or {}
            for tile, delivered in record.quality_map.items():
                assert delivered <= requested.get(tile, delivered)
