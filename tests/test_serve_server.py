"""The asyncio segment server: endpoints, identity, concurrency, shutdown."""

import json
import socket
import threading
import urllib.error
import urllib.request

import pytest

from repro import IngestConfig, Quality, TileGrid
from repro.core.errors import SegmentNotFoundError
from repro.core.metadata import parse_metadata_file
from repro.serve import HttpSegmentClient, ServerConfig, ServerHandle, start_server
from repro.serve.server import RETRY_AFTER
from repro.stream.dash import Manifest, SegmentKey, parse_segment_url
from repro.workloads.videos import synthetic_video


@pytest.fixture()
def server(session_db):
    handle = start_server(session_db.storage, ServerConfig(drain_timeout=2.0))
    yield handle
    handle.stop()


@pytest.fixture()
def client(server):
    with HttpSegmentClient(server.base_url) as client:
        yield client


class TestManifestEndpoint:
    def test_wire_manifest_equals_local_build(self, session_db, client):
        local = session_db.storage.build_manifest("clip")
        wire = client.fetch_manifest("clip")
        assert wire.segment_sizes == local.segment_sizes
        assert wire.grid == local.grid
        assert wire.qualities == local.qualities
        assert wire.window_count == local.window_count

    def test_unknown_video_is_not_found(self, client):
        with pytest.raises(SegmentNotFoundError):
            client.fetch_manifest("nope")

    def test_manifest_is_plain_json(self, server):
        with urllib.request.urlopen(f"{server.base_url}/manifest/clip") as response:
            assert response.headers["Content-Type"] == "application/json"
            Manifest.from_json(json.load(response))


class TestSegmentEndpoint:
    def test_every_segment_is_byte_identical_to_storage(self, session_db, client):
        manifest = session_db.storage.build_manifest("clip")
        for key in manifest.segment_sizes:
            wire = client.fetch_segment("clip", key)
            local = session_db.storage.read_segment(
                "clip", key.window, key.tile, key.quality
            )
            assert wire == local

    def test_missing_segment_is_404(self, client):
        with pytest.raises(SegmentNotFoundError):
            client.fetch_segment("clip", SegmentKey(999, (0, 0), Quality.HIGH))

    def test_malformed_path_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"{server.base_url}/segment/clip/not/a/real/key")
        assert caught.value.code == 400

    def test_unknown_route_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"{server.base_url}/frobnicate")
        assert caught.value.code == 404

    def test_error_responses_carry_the_class_name(self, server):
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"{server.base_url}/segment/clip/999/0/0/high")
        assert caught.value.code == 404
        assert caught.value.headers["X-Error"] == "SegmentNotFoundError"


class TestOperationalEndpoints:
    def test_healthz(self, client):
        assert client.healthy()

    def test_metrics_snapshot_reflects_traffic(self, session_db, client):
        manifest = client.fetch_manifest("clip")
        key = next(iter(manifest.segment_sizes))
        client.fetch_segment("clip", key)
        snapshot = client.fetch_metrics()
        counters = snapshot["counters"]
        assert any(key.startswith("serve.requests") for key in counters)
        assert counters.get("serve.bytes_sent", 0) > 0
        assert any(
            key.startswith("serve.request_seconds") for key in snapshot["histograms"]
        )

    def test_metrics_render_is_cached_for_the_ttl(self, session_db, monkeypatch):
        """Within ``METRICS_TTL`` the server re-serves the rendered
        snapshot; new traffic shows up only after the cache expires."""
        from repro.obs import MetricsRegistry
        from repro.serve import server as server_module

        assert server_module.METRICS_TTL == 0.25
        monkeypatch.setattr(server_module, "METRICS_TTL", 30.0)
        handle = start_server(
            session_db.storage,
            ServerConfig(drain_timeout=2.0),
            registry=MetricsRegistry(),
        )
        try:
            with HttpSegmentClient(handle.base_url) as client:
                first = client.fetch_metrics()
                manifest = client.fetch_manifest("clip")
                key = next(iter(manifest.segment_sizes))
                client.fetch_segment("clip", key)
                second = client.fetch_metrics()
                assert second == first  # stale by design inside the TTL
                handle.server._metrics_cache = None  # expiry, without the wait
                third = client.fetch_metrics()
                assert third != first
        finally:
            handle.stop()


class TestOneWayToRun:
    """A node is one process with one listener: no worker count to set,
    no per-worker metrics route, one handle type."""

    def test_start_server_returns_a_server_handle(self, server):
        assert type(server) is ServerHandle

    def test_processes_is_not_an_option(self):
        with pytest.raises(TypeError):
            ServerConfig(processes=2)

    def test_metrics_has_no_fleet_view(self, server, client):
        assert "workers" not in client.fetch_metrics()
        with pytest.raises(urllib.error.HTTPError) as caught:
            urllib.request.urlopen(f"{server.base_url}/metrics/local")
        assert caught.value.code == 404


class TestMetricCardinality:
    """Series are minted from the route set and the catalog, never from
    whatever path a client sends."""

    def test_junk_paths_do_not_mint_series(self, db):
        import http.client

        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        handle = start_server(db.storage, ServerConfig(drain_timeout=2.0), registry=registry)
        try:
            connection = http.client.HTTPConnection(*handle.address)
            for index in range(300):
                for path in (f"/junk{index}/x", f"/segment/vid{index}/0/0/0/high"):
                    connection.request("GET", path)
                    response = connection.getresponse()
                    response.read()
                    assert response.status == 404
            connection.close()
        finally:
            handle.stop()
        snapshot = registry.snapshot()
        minted = sorted(
            name
            for kind in ("counters", "histograms")
            for name in snapshot[kind]
            if name.startswith(
                ("serve.requests", "serve.request_seconds", "serve.video_requests")
            )
        )
        assert minted == [
            "serve.request_seconds{endpoint=other}",
            "serve.request_seconds{endpoint=segment}",
            "serve.requests{endpoint=other,status=404}",
            "serve.requests{endpoint=segment,status=404}",
        ]

    def test_known_video_demand_counts_pinned_shed_and_cold_requests(self, session_db):
        import http.client

        from repro.obs import MetricsRegistry

        manifest = session_db.storage.build_manifest("clip")
        key = min(manifest.segment_sizes, key=lambda k: k.to_path())
        path = f"/segment/clip/{key.to_path()}"

        def run(config, requests):
            registry = MetricsRegistry()
            handle = start_server(session_db.storage, config, registry=registry)
            try:
                connection = http.client.HTTPConnection(*handle.address)
                statuses = []
                for _ in range(requests):
                    connection.request("GET", path)
                    response = connection.getresponse()
                    response.read()
                    statuses.append(response.status)
                connection.close()
            finally:
                handle.stop()
            return statuses, registry.snapshot()["counters"]

        # Prewarmed: the video is known before its first request; two pin
        # hits and the connection-budget shed all register as demand.
        statuses, counters = run(
            ServerConfig(
                pin_budget_bytes=1 << 20, prewarm=("clip",), max_connection_requests=2
            ),
            3,
        )
        assert statuses == [200, 200, 429]
        assert counters["serve.pin_hits"] == 2
        assert counters["serve.video_requests{video=clip}"] == 3
        # Cold: the first successful answer makes the video known, and
        # that request itself is counted.
        statuses, counters = run(ServerConfig(), 2)
        assert statuses == [200, 200]
        assert counters["serve.video_requests{video=clip}"] == 2


class TestConcurrency:
    def test_many_threads_fetch_identical_bytes(self, session_db, server):
        manifest = session_db.storage.build_manifest("clip")
        key = next(iter(sorted(manifest.segment_sizes, key=lambda k: k.to_path())))
        expected = session_db.storage.read_segment(
            "clip", key.window, key.tile, key.quality
        )
        results: list[bytes] = []
        errors: list[BaseException] = []

        def fetch():
            try:
                with HttpSegmentClient(server.base_url) as client:
                    results.append(client.fetch_segment("clip", key))
            except BaseException as error:  # noqa: BLE001 - collected for the assert
                errors.append(error)

        threads = [threading.Thread(target=fetch) for _ in range(12)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(results) == 12
        assert all(result == expected for result in results)

    def test_keep_alive_serves_sequential_requests(self, session_db, client):
        manifest = client.fetch_manifest("clip")
        keys = sorted(manifest.segment_sizes, key=lambda k: k.to_path())[:6]
        for key in keys:
            assert client.fetch_segment("clip", key) == session_db.storage.read_segment(
                "clip", key.window, key.tile, key.quality
            )


class TestShutdown:
    def test_stop_is_prompt_with_idle_keepalive_connections(self, session_db):
        import time

        handle = start_server(session_db.storage, ServerConfig(drain_timeout=5.0))
        client = HttpSegmentClient(handle.base_url)
        client.fetch_manifest("clip")  # leaves a keep-alive connection open
        started = time.perf_counter()
        handle.stop()
        elapsed = time.perf_counter() - started
        client.close()
        assert elapsed < 2.0, f"drain of an idle connection took {elapsed:.1f}s"

    def test_stopped_server_refuses_connections(self, session_db):
        handle = start_server(session_db.storage)
        host, port = handle.address
        handle.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=0.5)

    def test_stop_is_idempotent(self, session_db):
        handle = start_server(session_db.storage)
        handle.stop()
        handle.stop()


class TestAdmissionControl:
    """Load shedding: per-connection budgets and the in-flight ceiling."""

    def test_connection_budget_sheds_429_and_closes(self, session_db):
        import http.client

        handle = start_server(
            session_db.storage,
            ServerConfig(max_connection_requests=2),
        )
        try:
            connection = http.client.HTTPConnection(*handle.address)
            for _ in range(2):
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                assert response.status == 200
                response.read()
            connection.request("GET", "/healthz")
            response = connection.getresponse()
            assert response.status == 429
            assert response.getheader("Retry-After") == "0.5" == f"{RETRY_AFTER:g}"
            assert response.getheader("X-Error") == "TransientSegmentError"
            assert response.getheader("Connection") == "close"
            response.read()
        finally:
            handle.stop()

    def test_shed_request_maps_to_transient_with_retry_after(self, session_db):
        from repro.core.errors import TransientSegmentError

        handle = start_server(
            session_db.storage,
            ServerConfig(max_connection_requests=1),
        )
        try:
            with HttpSegmentClient(handle.base_url) as client:
                client.fetch_metrics()
                with pytest.raises(TransientSegmentError) as caught:
                    client.fetch_metrics()
                assert caught.value.status == 429
                assert caught.value.retry_after == RETRY_AFTER
        finally:
            handle.stop()

    def test_inflight_ceiling_sheds_503(self, session_db):
        import time

        from repro.core.errors import TransientSegmentError
        from repro.obs import MetricsRegistry
        from repro.serve.server import SegmentServer, ServerHandle
        from repro.stream.dash import SegmentKey

        class SlowStorage:
            def __init__(self, inner, delay):
                self.inner = inner
                self.delay = delay

            def build_manifest(self, name):
                return self.inner.build_manifest(name)

            def read_segment(self, *args, **kwargs):
                time.sleep(self.delay)
                return self.inner.read_segment(*args, **kwargs)

        manifest = session_db.storage.build_manifest("clip")
        key = next(iter(sorted(manifest.segment_sizes, key=lambda k: k.to_path())))
        registry = MetricsRegistry()
        handle = ServerHandle(
            SegmentServer(
                SlowStorage(session_db.storage, 0.3),
                ServerConfig(max_inflight=1),
                registry,
            )
        )
        try:
            outcomes: list[object] = []

            def fetch():
                with HttpSegmentClient(handle.base_url) as client:
                    try:
                        outcomes.append(client.fetch_segment("clip", key))
                    except TransientSegmentError as error:
                        outcomes.append(error)

            threads = [threading.Thread(target=fetch) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            shed = [
                outcome
                for outcome in outcomes
                if isinstance(outcome, TransientSegmentError)
            ]
            served = [outcome for outcome in outcomes if isinstance(outcome, bytes)]
            assert served, "the admitted request(s) must still be served"
            assert shed, "6 concurrent requests past a ceiling of 1 must shed"
            assert all(error.status == 503 for error in shed)
            assert all(error.retry_after == RETRY_AFTER for error in shed)
            snapshot = registry.snapshot()
            assert snapshot["counters"].get("serve.shed{reason=overload}", 0) >= 1
            assert snapshot["gauges"].get("serve.inflight") == 0.0
        finally:
            handle.stop()


class TestOneSegmentIdentity:
    def test_index_key_url_and_parser_are_one_name(self, db):
        """A segment is one ``SegmentKey`` from the index to the wire."""
        config = IngestConfig(
            grid=TileGrid(2, 2),
            qualities=(Quality.HIGH, Quality.MEDIUM, Quality.LOW),
            gop_frames=4,
            fps=4.0,
        )
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=3)
        )
        # "clip" is a string prefix of "clip-2": the URL must still tell them apart.
        metas = {
            name: db.ingest(name, frames, config, workers=1) for name in ("clip", "clip-2")
        }
        for name, meta in metas.items():
            assert len(meta.qualities) == 3
            # The index is keyed by SegmentKey after ingest and after a fresh parse.
            blob = db.storage.catalog.metadata_path(name, meta.version).read_bytes()
            for entries in (meta.entries, parse_metadata_file(name, blob).entries):
                assert entries and all(type(key) is SegmentKey for key in entries)
            # Every key of the store round-trips through its URL.
            for key in meta.entries:
                assert parse_segment_url(key.url(name)) == (name, key)
        handle = start_server(db.storage, ServerConfig(drain_timeout=2.0))
        try:
            with HttpSegmentClient(handle.base_url) as client:
                key = SegmentKey(1, (1, 0), Quality.MEDIUM)
                assert client.fetch_segment("clip-2", key) == db.storage.read_segment(
                    "clip-2", *key
                )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(f"{handle.base_url}/segment/clip/0/0/x/high")
            assert caught.value.code == 400
        finally:
            handle.stop()


class TestStartupVerification:
    """ServerHandle.start() must verify, not assume, that the loop came up."""

    def test_bind_conflict_propagates_the_real_error(self, session_db):
        blocker = socket.socket()
        try:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            with pytest.raises(OSError):
                start_server(session_db.storage, ServerConfig(port=port))
        finally:
            blocker.close()

    def test_loop_setup_failure_fails_fast_with_cause(self, session_db, monkeypatch):
        import asyncio
        import time

        def explode(loop):
            raise RuntimeError("loop exploded")

        monkeypatch.setattr(asyncio, "set_event_loop", explode)
        started = time.perf_counter()
        with pytest.raises(RuntimeError, match="loop exploded"):
            start_server(session_db.storage)
        # The pre-fix behaviour was a silent 10s hang (the wait() result
        # was ignored) followed by an assertion with no cause attached.
        assert time.perf_counter() - started < 5.0
