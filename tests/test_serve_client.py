"""The wire client's error contract and chaos-over-the-wire resilience.

Mirrors ``tests/test_failure_injection.py`` for the new transport: every
network failure mode — refused connections, dead sockets, server-side
faults — must surface as the PR 3 error taxonomy
(``TransientSegmentError``/``SegmentReadTimeout``/…), never as a raw
``OSError``/``ConnectionError``. That contract is what lets
``read_window_resilient`` drive retry → degrade → skip over a real
socket exactly as it does over a faulty disk.
"""

import socket
import threading

import pytest

from repro import FaultPlan, FaultRule, Quality, RetryPolicy, SessionConfig
from repro.chaos.wrappers import ChaosStorageManager
from repro.core.errors import (
    SegmentCorruptError,
    SegmentNotFoundError,
    SegmentReadTimeout,
    TransientSegmentError,
    VisualCloudError,
)
from repro.serve import (
    HttpSegmentClient,
    RemoteStorage,
    ServerConfig,
    serve_session,
    start_server,
)
from repro.stream.abr import UniformAdaptive
from repro.stream.dash import SegmentKey
from repro.stream.network import ConstantBandwidth
from repro.workloads.users import ViewerPopulation


def _free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class TestTransportErrorTaxonomy:
    """Raw socket failures must leave the client as taxonomy errors."""

    def test_refused_connection_is_transient(self):
        client = HttpSegmentClient(f"http://127.0.0.1:{_free_port()}")
        with pytest.raises(TransientSegmentError):
            client.fetch_segment("clip", SegmentKey(0, (0, 0), Quality.HIGH))

    def test_refused_manifest_is_transient(self):
        client = HttpSegmentClient(f"http://127.0.0.1:{_free_port()}")
        with pytest.raises(TransientSegmentError):
            client.fetch_manifest("clip")

    def test_unresponsive_socket_is_a_timeout(self):
        # A listener that accepts but never answers: the read must give
        # up within the client budget and surface as the taxonomy's
        # timeout, not socket.timeout.
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        try:
            client = HttpSegmentClient(f"http://127.0.0.1:{port}", timeout=0.2)
            with pytest.raises(SegmentReadTimeout):
                client.fetch_segment("clip", SegmentKey(0, (0, 0), Quality.HIGH))
        finally:
            listener.close()

    def test_mid_response_disconnect_is_transient(self):
        # A server that closes the socket after half a status line.
        done = threading.Event()

        def half_answer(listener):
            connection, _ = listener.accept()
            connection.recv(1024)
            connection.sendall(b"HTTP/1.1 20")
            connection.close()
            done.set()

        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        thread = threading.Thread(target=half_answer, args=(listener,), daemon=True)
        thread.start()
        try:
            client = HttpSegmentClient(
                f"http://127.0.0.1:{listener.getsockname()[1]}", timeout=1.0
            )
            with pytest.raises(TransientSegmentError):
                client.fetch_manifest("clip")
            assert done.wait(timeout=2.0)
        finally:
            listener.close()

    def test_no_raw_oserror_escapes(self):
        # The regression this suite exists for: catching VisualCloudError
        # must be sufficient for any wire failure.
        client = HttpSegmentClient(f"http://127.0.0.1:{_free_port()}")
        try:
            client.fetch_segment("clip", SegmentKey(0, (0, 0), Quality.HIGH))
        except VisualCloudError:
            pass  # the contract
        except (OSError, ConnectionError) as error:  # pragma: no cover
            pytest.fail(f"raw transport error leaked: {type(error).__name__}")


@pytest.fixture()
def chaos_server(session_db):
    """A server whose storage injects one fault kind per quality rung."""

    def start(rules, config=None):
        plan = FaultPlan(rules=rules, seed=3)
        chaos = ChaosStorageManager(session_db.storage, plan)
        handle = start_server(chaos, config)
        handles.append(handle)
        return handle

    handles = []
    yield start
    for handle in handles:
        handle.stop()


class TestServerSideFaultMapping:
    """Chaos faults behind the server come back as the same taxonomy."""

    def test_missing_fault_maps_to_not_found(self, chaos_server):
        handle = chaos_server([FaultRule(kind="missing", every=1)])
        with HttpSegmentClient(handle.base_url) as client:
            with pytest.raises(SegmentNotFoundError):
                client.fetch_segment("clip", SegmentKey(0, (0, 0), Quality.HIGH))

    def test_corrupt_fault_maps_to_corrupt(self, chaos_server):
        handle = chaos_server([FaultRule(kind="corrupt", every=1)])
        with HttpSegmentClient(handle.base_url) as client:
            with pytest.raises(SegmentCorruptError):
                client.fetch_segment("clip", SegmentKey(0, (0, 0), Quality.HIGH))

    def test_flaky_fault_maps_to_transient(self, chaos_server):
        handle = chaos_server([FaultRule(kind="flaky", every=1)])
        with HttpSegmentClient(handle.base_url) as client:
            with pytest.raises(TransientSegmentError):
                client.fetch_segment("clip", SegmentKey(0, (0, 0), Quality.HIGH))

    def test_slow_fault_maps_to_timeout(self, chaos_server, monkeypatch):
        monkeypatch.setattr("repro.serve.server.READ_TIMEOUT", 0.2)
        handle = chaos_server([FaultRule(kind="slow", every=1, delay=2.0)])
        with HttpSegmentClient(handle.base_url) as client:
            with pytest.raises(SegmentReadTimeout):
                client.fetch_segment("clip", SegmentKey(0, (0, 0), Quality.HIGH))


class TestChaosOverTheWire:
    """End-to-end: the resilience ladder runs across the socket."""

    def _config(self):
        return SessionConfig(
            policy=UniformAdaptive(),
            bandwidth=ConstantBandwidth(200_000),
            predictor="static",
            retry=RetryPolicy(attempts=2),
        )

    def _trace(self, session_db):
        meta = session_db.meta("clip")
        return ViewerPopulation(seed=1).trace(0, duration=meta.duration, rate=10.0)

    def test_flaky_reads_retry_and_heal(self, session_db, chaos_server):
        handle = chaos_server([FaultRule(kind="flaky", every=5)])
        report = serve_session(
            handle.base_url, "clip", self._trace(session_db), self._config()
        )
        meta = session_db.meta("clip")
        assert len(report.records) == meta.gop_count  # session completed
        assert report.retry_count > 0

    def test_persistent_misses_degrade_down_the_ladder(self, session_db, chaos_server):
        handle = chaos_server(
            [FaultRule(kind="missing", every=1, quality="high")]
        )
        report = serve_session(
            handle.base_url, "clip", self._trace(session_db), self._config()
        )
        meta = session_db.meta("clip")
        assert len(report.records) == meta.gop_count
        degrades = [
            event
            for record in report.records
            for event in record.events
            if event.kind == "degrade"
        ]
        assert degrades, "high-rung loss must degrade, not kill the session"
        assert all(event.delivered < event.requested for event in degrades)

    def test_total_loss_skips_tiles_but_completes(self, session_db, chaos_server):
        handle = chaos_server([FaultRule(kind="missing", every=1, tile=(0, 0))])
        report = serve_session(
            handle.base_url, "clip", self._trace(session_db), self._config()
        )
        meta = session_db.meta("clip")
        assert len(report.records) == meta.gop_count
        skips = [
            event
            for record in report.records
            for event in record.events
            if event.kind == "skip"
        ]
        assert skips and all(event.tile == (0, 0) for event in skips)


class TestRemoteStorageAdapter:
    def test_rejects_pinned_versions(self, session_db):
        handle = start_server(session_db.storage)
        try:
            with HttpSegmentClient(handle.base_url) as client:
                storage = RemoteStorage(client)
                with pytest.raises(ValueError):
                    storage.read_segment("clip", 0, (0, 0), Quality.HIGH, version=1)
        finally:
            handle.stop()

    def test_manifest_is_cached_per_name(self, session_db):
        handle = start_server(session_db.storage)
        try:
            with HttpSegmentClient(handle.base_url) as client:
                storage = RemoteStorage(client)
                first = storage.build_manifest("clip")
                assert storage.build_manifest("clip") is first
        finally:
            handle.stop()

    def test_evaluate_quality_is_rejected_over_the_wire(self, session_db):
        config = SessionConfig(
            policy=UniformAdaptive(),
            bandwidth=ConstantBandwidth(200_000),
            evaluate_quality=True,
        )
        with pytest.raises(ValueError):
            serve_session("http://127.0.0.1:1", "clip", None, config)


class TestStatusMapping:
    """_raise_for_status: every shed/unknown status stays in the taxonomy."""

    @staticmethod
    def _raise(status, headers=None, body=b"{}"):
        HttpSegmentClient._raise_for_status(status, headers or {}, body, "/x")

    def test_429_maps_to_transient(self):
        with pytest.raises(TransientSegmentError) as caught:
            self._raise(429, {"Retry-After": "0.5"})
        assert caught.value.status == 429
        assert caught.value.retry_after == 0.5

    def test_unknown_5xx_maps_to_transient(self):
        with pytest.raises(TransientSegmentError) as caught:
            self._raise(500)
        assert caught.value.status == 500
        assert not hasattr(caught.value, "retry_after")

    def test_unparseable_retry_after_is_ignored(self):
        with pytest.raises(TransientSegmentError) as caught:
            self._raise(503, {"Retry-After": "soon"})
        assert not hasattr(caught.value, "retry_after")

    def test_404_and_409_and_504_keep_their_types(self):
        with pytest.raises(SegmentNotFoundError):
            self._raise(404)
        with pytest.raises(SegmentCorruptError):
            self._raise(409)
        with pytest.raises(SegmentReadTimeout):
            self._raise(504)
