"""The replicated delivery tier: breakers, budgets, and failover.

Unit tests drive the three policy pieces with fake clocks and scripted
fake clients; the integration tests run a real two-replica tier and kill
one server mid-use. Everything observable stays inside the PR 3 error
taxonomy — the failover layer must never leak a raw ``OSError``.
"""

import pytest

from repro.core.errors import SegmentNotFoundError, TransientSegmentError
from repro.obs import MetricsRegistry
from repro.serve import (
    CircuitBreaker,
    FailoverConfig,
    FailoverSegmentClient,
    RetryBudget,
    ServerConfig,
    serve_session,
    start_server,
)
from repro.serve.failover import (
    CLOSED,
    HALF_OPEN,
    LEGAL_TRANSITIONS,
    OPEN,
    RETRY_CAPACITY,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_opens_after_consecutive_failures_only(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=3, reset_timeout=1.0, clock=clock)
        breaker.record_failure()
        breaker.record_failure()
        breaker.record_success()  # resets the streak
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_open_rejects_until_reset_timeout(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0, clock=clock)
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == HALF_OPEN

    def test_half_open_admits_exactly_one_probe(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.0, clock=clock)
        breaker.record_failure()
        assert breaker.allow()
        assert not breaker.allow()  # probe already in flight
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=1, reset_timeout=0.0, clock=clock)
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN

    def test_transition_trail_is_monotone_per_incident(self):
        clock = FakeClock()
        breaker = CircuitBreaker(failure_threshold=2, reset_timeout=1.0, clock=clock)
        for _ in range(2):
            breaker.record_failure()
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_failure()  # probe fails: incident continues
        clock.advance(1.5)
        assert breaker.allow()
        breaker.record_success()  # probe heals: incident over
        assert breaker.transitions == [
            (CLOSED, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, OPEN),
            (OPEN, HALF_OPEN),
            (HALF_OPEN, CLOSED),
        ]
        assert all(edge in LEGAL_TRANSITIONS for edge in breaker.transitions)


class TestRetryBudget:
    def test_spend_drains_and_denies_when_dry(self):
        budget = RetryBudget()
        for _ in range(16):
            assert budget.try_spend()
        assert not budget.try_spend()
        assert budget.spent == 16
        assert budget.denied == 1

    def test_successes_earn_back_capped_at_capacity(self):
        budget = RetryBudget()
        while budget.try_spend():
            pass
        for _ in range(9):
            budget.earn()
        assert not budget.try_spend()  # 0.9 tokens: not a whole attempt
        budget.earn()
        budget.earn()  # 1.1 tokens
        assert budget.try_spend()
        for _ in range(1000):
            budget.earn()
        assert budget.tokens == RETRY_CAPACITY == 16.0

    def test_ten_successes_buy_one_attempt(self):
        # Ten refills of 0.1 are exactly one token; a float sum of them
        # is 0.9999999999999999, which would refuse the attempt.
        budget = RetryBudget()
        while budget.try_spend():
            pass
        for _ in range(10):
            budget.earn()
        assert budget.tokens == 1.0
        assert budget.try_spend()


class FakeReplicaClient:
    """A scripted HttpSegmentClient double; ``script`` maps url -> a
    callable producing (or raising) the per-request outcome."""

    scripts: dict = {}

    def __init__(self, base_url, timeout=10.0):
        self.base_url = base_url
        self.timeout = timeout
        self.calls = 0
        self.closed = False

    def _serve(self):
        self.calls += 1
        outcome = self.scripts[self.base_url](self.calls)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def fetch_manifest(self, name):
        return self._serve()

    def fetch_segment(self, name, key):
        return self._serve()

    def fetch_metrics(self):
        return self._serve()

    def healthy(self):
        try:
            return bool(self._serve())
        except TransientSegmentError:
            return False

    def close(self):
        self.closed = True


@pytest.fixture()
def scripted():
    def build(script, config=None, registry=None):
        FakeReplicaClient.scripts = script
        return FailoverSegmentClient(
            list(script),
            config=config
            or FailoverConfig(failure_threshold=2, reset_timeout=0.0),
            registry=registry,
            client_factory=FakeReplicaClient,
        )

    yield build
    FakeReplicaClient.scripts = {}


class TestFailoverPolicy:
    def test_transient_error_fails_over_to_the_sibling(self, scripted):
        client = scripted(
            {
                "a": lambda call: TransientSegmentError("a down"),
                "b": lambda call: b"payload",
            }
        )
        with client:
            assert client.fetch_segment("v", None) == b"payload"
        assert client.budget.spent == 1

    def test_not_found_is_authoritative_and_never_fails_over(self, scripted):
        client = scripted(
            {
                "a": lambda call: SegmentNotFoundError("gone"),
                "b": lambda call: b"payload",
            }
        )
        with client:
            with pytest.raises(SegmentNotFoundError):
                client.fetch_segment("v", None)
        assert client.replicas.replicas[1].client.calls == 0

    def test_breaker_opens_and_traffic_routes_around(self, scripted):
        client = scripted(
            {
                "a": lambda call: TransientSegmentError("a down"),
                "b": lambda call: b"payload",
            }
        )
        with client:
            for _ in range(8):
                assert client.fetch_segment("v", None) == b"payload"
            replica_a = client.replicas.replicas[0]
            assert replica_a.breaker.state == OPEN
            # Once open (after 2 consecutive failures), a never sees
            # traffic again while b is healthy.
            assert replica_a.client.calls == 2

    def test_retry_after_deprioritises_the_shedding_replica(self, scripted):
        clock = FakeClock()
        shedding = TransientSegmentError("shed")
        shedding.retry_after = 30.0
        client = scripted(
            {
                "a": lambda call: shedding if call == 1 else b"from-a",
                "b": lambda call: b"from-b",
            },
            config=FailoverConfig(
                failure_threshold=5, reset_timeout=0.0, clock=clock
            ),
        )
        with client:
            assert client.fetch_segment("v", None) == b"from-b"  # a shed, b served
            # While the hint holds, the rotation never lands on a.
            for _ in range(4):
                assert client.fetch_segment("v", None) == b"from-b"
            clock.advance(31.0)
            results = {client.fetch_segment("v", None) for _ in range(2)}
            assert b"from-a" in results  # backoff expired: a rotates back in

    def test_dry_budget_fails_fast_with_the_last_error(self, scripted):
        client = scripted(
            {
                "a": lambda call: TransientSegmentError("a down"),
                "b": lambda call: TransientSegmentError("b down"),
                "c": lambda call: TransientSegmentError("c down"),
            },
            config=FailoverConfig(failure_threshold=99, reset_timeout=0.0),
        )
        for _ in range(15):  # one token left
            client.budget.try_spend()
        with client:
            with pytest.raises(TransientSegmentError):
                client.fetch_segment("v", None)
            total_calls = sum(
                replica.client.calls for replica in client.replicas.replicas
            )
            # One free first attempt + one budgeted failover, not three.
            assert total_calls == 2
            assert client.budget.denied >= 1

    def test_all_circuits_open_still_probes_one_replica(self, scripted):
        client = scripted(
            {"a": lambda call: TransientSegmentError("down") if call <= 2 else b"ok"},
            config=FailoverConfig(failure_threshold=2, reset_timeout=0.0),
        )
        with client:
            with pytest.raises(TransientSegmentError):
                client.fetch_segment("v", None)
            with pytest.raises(TransientSegmentError):
                client.fetch_segment("v", None)
            assert client.replicas.replicas[0].breaker.state == OPEN
            assert client.fetch_segment("v", None) == b"ok"  # half-open probe
            assert client.replicas.replicas[0].breaker.state == CLOSED

    def test_close_closes_every_replica_client(self, scripted):
        client = scripted({"a": lambda call: b"x", "b": lambda call: b"y"})
        client.close()
        assert all(replica.client.closed for replica in client.replicas.replicas)


class TestFailoverOverRealServers:
    def test_killed_replica_is_absorbed_and_circuits_stay_legal(self, session_db):
        handles = [
            start_server(session_db.storage, ServerConfig(drain_timeout=1.0))
            for _ in range(2)
        ]
        try:
            manifest = session_db.storage.build_manifest("clip")
            keys = sorted(manifest.segment_sizes, key=lambda k: k.to_path())
            client = FailoverSegmentClient(
                [handle.base_url for handle in handles],
                config=FailoverConfig(
                    failure_threshold=2, reset_timeout=0.0, request_timeout=2.0
                ),
            )
            with client:
                assert client.fetch_manifest("clip").window_count
                handles[0].stop()  # the outage
                for key in keys:
                    expected = session_db.storage.read_segment(
                        "clip", key.window, key.tile, key.quality
                    )
                    assert client.fetch_segment("clip", key) == expected
                assert client.healthy()
                for url, edges in client.breaker_transitions().items():
                    assert all(edge in LEGAL_TRANSITIONS for edge in edges)
        finally:
            for handle in handles:
                handle.stop()

    def test_serve_session_accepts_a_replica_list(self, session_db):
        from repro.core.streamer import SessionConfig
        from repro.stream.abr import UniformAdaptive
        from repro.stream.network import ConstantBandwidth
        from repro.workloads.users import ViewerPopulation

        meta = session_db.meta("clip")
        trace = ViewerPopulation(seed=3).trace(0, duration=meta.duration, rate=10.0)
        config = SessionConfig(
            policy=UniformAdaptive(), bandwidth=ConstantBandwidth(40_000.0)
        )
        handles = [start_server(session_db.storage) for _ in range(2)]
        try:
            registry = MetricsRegistry()
            report = serve_session(
                [handle.base_url for handle in handles],
                "clip",
                trace,
                config,
                registry=registry,
            )
            assert len(report.records) == meta.gop_count
            assert registry.counter("failover.requests").total() > 0
        finally:
            for handle in handles:
                handle.stop()
