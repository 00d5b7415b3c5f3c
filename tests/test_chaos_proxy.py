"""The wire-level chaos proxy, and the client surviving it.

Each fault kind is driven against a real :class:`SegmentServer` through
a real :class:`ChaosProxy`, with a real :class:`HttpSegmentClient` on
the other end. The contract under test is threefold: every wire fault
surfaces as a taxonomy error (never a raw ``OSError``), the client
never hangs past its request budget (slow-loris included), and no
sockets leak across a batch of faulted requests.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.chaos import ChaosProxy, FaultPlan, FaultRule, Scenario, ScenarioRunner
from repro.core.errors import SegmentReadTimeout, TransientSegmentError
from repro.core.streamer import Streamer
from repro.serve import HttpSegmentClient, start_server
from repro.stream.dash import SegmentKey


def _first_key(storage, name="clip"):
    manifest = storage.build_manifest(name)
    return sorted(manifest.segment_sizes, key=lambda k: k.to_path())[0]


@pytest.fixture()
def upstream(session_db):
    handle = start_server(session_db.storage)
    try:
        yield handle
    finally:
        handle.stop()


def _proxy(handle, rules=None, seed=7):
    plan = FaultPlan(seed=seed, rules=list(rules)) if rules else None
    return ChaosProxy(handle.address, plan=plan)


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


class TestPassthrough:
    def test_relays_bytes_identically(self, session_db, upstream):
        key = _first_key(session_db.storage)
        direct = session_db.storage.read_segment(
            "clip", key.window, key.tile, key.quality
        )
        with _proxy(upstream) as proxy:
            with HttpSegmentClient(proxy.base_url, timeout=5.0) as client:
                assert client.fetch_segment("clip", key) == direct
                manifest = client.fetch_manifest("clip")
                assert manifest.segment_sizes[key] == len(direct)

    def test_keep_alive_survives_many_requests(self, session_db, upstream):
        key = _first_key(session_db.storage)
        with _proxy(upstream) as proxy:
            with HttpSegmentClient(proxy.base_url, timeout=5.0) as client:
                bodies = {client.fetch_segment("clip", key) for _ in range(10)}
        assert len(bodies) == 1


class TestWireFaults:
    def test_refuse_and_reset_are_transient(self, session_db, upstream):
        key = _first_key(session_db.storage)
        rules = [
            FaultRule(kind="refuse", target="wire", calls=(1,)),
            FaultRule(kind="reset", target="wire", calls=(2,)),
        ]
        with _proxy(upstream, rules) as proxy:
            for _ in range(2):
                with HttpSegmentClient(proxy.base_url, timeout=5.0) as client:
                    with pytest.raises(TransientSegmentError):
                        client.fetch_segment("clip", key)

    def test_truncation_mid_body_is_transient_not_a_hang(self, session_db, upstream):
        key = _first_key(session_db.storage)
        rules = [FaultRule(kind="truncate", target="wire", every=1, fraction=0.5)]
        with _proxy(upstream, rules) as proxy:
            with HttpSegmentClient(proxy.base_url, timeout=5.0) as client:
                started = time.perf_counter()
                with pytest.raises(TransientSegmentError, match="IncompleteRead"):
                    client.fetch_segment("clip", key)
        assert time.perf_counter() - started < 5.0

    def test_slow_loris_times_out_within_the_request_budget(
        self, session_db, upstream
    ):
        key = _first_key(session_db.storage)
        # One byte per 50 ms beats any per-recv timeout; only the total
        # request deadline can catch it.
        rules = [FaultRule(kind="trickle", target="wire", every=1, delay=0.05)]
        with _proxy(upstream, rules) as proxy:
            with HttpSegmentClient(proxy.base_url, timeout=0.5) as client:
                started = time.perf_counter()
                with pytest.raises(SegmentReadTimeout):
                    client.fetch_segment("clip", key)
                elapsed = time.perf_counter() - started
        assert 0.4 < elapsed < 3.0

    def test_delay_adds_latency_but_stays_clean(self, session_db, upstream):
        key = _first_key(session_db.storage)
        direct = session_db.storage.read_segment(
            "clip", key.window, key.tile, key.quality
        )
        rules = [FaultRule(kind="delay", target="wire", every=1, delay=0.1)]
        with _proxy(upstream, rules) as proxy:
            with HttpSegmentClient(proxy.base_url, timeout=5.0) as client:
                started = time.perf_counter()
                assert client.fetch_segment("clip", key) == direct
                assert time.perf_counter() - started >= 0.1

    def test_faulted_batch_leaks_no_sockets(self, session_db, upstream):
        key = _first_key(session_db.storage)
        rules = [
            FaultRule(kind="truncate", target="wire", every=2, fraction=0.3),
            FaultRule(kind="reset", target="wire", every=3),
        ]
        with _proxy(upstream, rules) as proxy:
            # Warm up allocator/socket machinery before the baseline.
            with HttpSegmentClient(proxy.base_url, timeout=2.0) as client:
                for _ in range(3):
                    try:
                        client.fetch_segment("clip", key)
                    except TransientSegmentError:
                        pass
            time.sleep(0.2)
            before = _open_fds()
            for _ in range(12):
                with HttpSegmentClient(proxy.base_url, timeout=2.0) as client:
                    try:
                        client.fetch_segment("clip", key)
                    except TransientSegmentError:
                        pass
            # Proxy threads race their own close; give them a beat.
            time.sleep(0.2)
            after = _open_fds()
        assert after <= before + 3, f"fd count grew {before} -> {after}"


class _NovelTransient(TransientSegmentError):
    """A taxonomy error no hand-kept list of class names could know."""


class TestWireScenarios:
    @pytest.mark.parametrize(
        "plan", sorted(Path("plans").glob("*.json")), ids=lambda plan: plan.stem
    )
    def test_every_shipped_plan_replays_identically_and_holds(self, plan):
        first = ScenarioRunner(Scenario.load(plan)).run()
        second = ScenarioRunner(Scenario.load(plan)).run()
        assert first.dumps() == second.dumps()
        assert first.ok, [check for check in first.checks if not check.ok]

    @pytest.mark.parametrize(
        "error, is_taxonomy",
        [
            pytest.param(OSError("connection reset by peer"), False, id="raw"),
            pytest.param(TransientSegmentError("replicas exhausted"), True, id="taxonomy"),
            pytest.param(_NovelTransient("exhausted"), True, id="taxonomy-subclass"),
        ],
    )
    def test_escaping_errors_are_judged_by_type(self, monkeypatch, error, is_taxonomy):
        def serve(self, name, trace, config):
            raise error

        monkeypatch.setattr(Streamer, "serve", serve)
        report = ScenarioRunner(Scenario.load("plans/wire-flaky.json")).run()
        checks = {check.name: check for check in report.checks}
        assert not checks["no_uncaught_exceptions"].ok
        assert checks["no_raw_transport_errors"].ok is is_taxonomy
        detail = f"session 0: {type(error).__name__}: {error}"
        assert detail in checks["no_uncaught_exceptions"].details
        assert (detail in checks["no_raw_transport_errors"].details) is not is_taxonomy

    def test_wire_flaky_plan_is_deterministic(self):
        first = ScenarioRunner(Scenario.load("plans/wire-flaky.json")).run()
        assert first.ok, [check for check in first.checks if not check.ok]
        second = ScenarioRunner(Scenario.load("plans/wire-flaky.json")).run()
        assert first.dumps() == second.dumps()

    def test_replica_outage_completes_with_zero_degradation(self):
        report = ScenarioRunner(Scenario.load("plans/replica-outage.json")).run()
        assert report.ok, [check for check in report.checks if not check.ok]
        payload = json.loads(report.dumps())
        assert payload["metrics"]["degradations"] == 0
        assert payload["metrics"]["failover"]["failovers"] > 0
        trails = payload["metrics"]["breaker_transitions"]
        assert trails["replica-0"] and not trails["replica-1"]
