"""Unit tests for the segment buffer cache and its storage integration."""

import math

import pytest

from repro.core.cache import LruSegmentCache
from repro.core.storage import IngestConfig, StorageManager
from repro.geometry.grid import TileGrid
from repro.video.quality import Quality
from repro.workloads.videos import synthetic_video


def _total(cache, counter):
    return cache.metrics.counter(counter).total()


class TestLruCacheBasics:
    def test_rejects_non_positive_capacity(self):
        with pytest.raises(ValueError):
            LruSegmentCache(0)

    def test_miss_then_hit(self):
        cache = LruSegmentCache(100)
        assert cache.get("a") is None
        cache.put("a", b"xyz")
        assert cache.get("a") == b"xyz"
        assert _total(cache, "cache.hits") == 1
        assert _total(cache, "cache.misses") == 1

    def test_hit_rate(self, tmp_path):
        storage = StorageManager(tmp_path)
        cache = storage.segment_cache
        cache.put("a", b"x")
        cache.get("a")
        cache.get("b")
        assert storage.stats()["cache"]["hit_rate"] == pytest.approx(0.5)

    def test_hit_rate_nan_without_requests(self, tmp_path):
        assert math.isnan(StorageManager(tmp_path).stats()["cache"]["hit_rate"])

    def test_rejects_non_bytes(self):
        with pytest.raises(TypeError):
            LruSegmentCache(10).put("a", "string")


class TestEviction:
    def test_evicts_least_recently_used(self):
        cache = LruSegmentCache(10)
        cache.put("a", b"aaaa")
        cache.put("b", b"bbbb")
        cache.get("a")  # refresh a
        cache.put("c", b"cccc")  # evicts b
        assert cache.get("a") is not None
        assert cache.get("b") is None
        assert _total(cache, "cache.evictions") == 1

    def test_size_accounting(self):
        cache = LruSegmentCache(100)
        cache.put("a", b"12345")
        cache.put("b", b"123")
        assert cache.size_bytes == 8
        cache.put("a", b"1")  # replace shrinks
        assert cache.size_bytes == 4

    def test_oversized_value_not_admitted(self):
        cache = LruSegmentCache(4)
        cache.put("big", b"12345")
        assert len(cache) == 0
        assert cache.get("big") is None

    def test_invalidate(self):
        cache = LruSegmentCache(100)
        cache.put("a", b"12")
        cache.invalidate("a")
        assert cache.get("a") is None
        assert cache.size_bytes == 0

    def test_invalidate_prefix(self):
        cache = LruSegmentCache(100)
        cache.put(("v1", 0), b"x")
        cache.put(("v1", 1), b"y")
        cache.put(("v2", 0), b"z")
        cache.invalidate_prefix("v1")
        assert cache.get(("v1", 0)) is None
        assert cache.get(("v2", 0)) == b"z"


class TestGetOrLoad:
    def test_loads_on_miss_then_serves_cached(self):
        cache = LruSegmentCache(100)
        calls = []

        def loader():
            calls.append(1)
            return b"payload"

        assert cache.get_or_load("a", loader) == b"payload"
        assert cache.get_or_load("a", loader) == b"payload"
        assert len(calls) == 1
        assert _total(cache, "cache.misses") == 1
        assert _total(cache, "cache.hits") == 1

    def test_loader_exception_propagates_and_releases_key(self):
        cache = LruSegmentCache(100)

        def failing():
            raise OSError("disk gone")

        with pytest.raises(OSError):
            cache.get_or_load("a", failing)
        # The key is released: a later request retries the load.
        assert cache.get_or_load("a", lambda: b"ok") == b"ok"

    def test_oversized_value_returned_but_not_admitted(self):
        cache = LruSegmentCache(4)
        assert cache.get_or_load("big", lambda: b"123456") == b"123456"
        assert len(cache) == 0

    def test_single_flight_under_contention(self):
        """Concurrent misses on one key share one loader call."""
        import threading

        cache = LruSegmentCache(10_000)
        gate = threading.Event()
        load_calls = []
        results = []
        errors = []

        def slow_loader():
            load_calls.append(1)
            gate.wait(timeout=5.0)
            return b"segment-bytes"

        def request():
            try:
                results.append(cache.get_or_load("seg", slow_loader))
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        # Give every thread time to reach the miss; only the leader may load.
        import time

        time.sleep(0.1)
        gate.set()
        for thread in threads:
            thread.join(timeout=5.0)
        assert not errors
        assert results == [b"segment-bytes"] * 8
        assert len(load_calls) == 1
        assert _total(cache, "cache.misses") == 8
        assert _total(cache, "cache.hits") == 0

    def test_distinct_keys_load_concurrently(self):
        """One key's in-flight load must not serialise other keys."""
        import threading

        cache = LruSegmentCache(10_000)
        slow_started = threading.Event()
        slow_gate = threading.Event()

        def slow_loader():
            slow_started.set()
            slow_gate.wait(timeout=5.0)
            return b"slow"

        slow_thread = threading.Thread(
            target=lambda: cache.get_or_load("slow-key", slow_loader)
        )
        slow_thread.start()
        assert slow_started.wait(timeout=5.0)
        # While slow-key is mid-load, a different key completes immediately.
        assert cache.get_or_load("fast-key", lambda: b"fast") == b"fast"
        slow_gate.set()
        slow_thread.join(timeout=5.0)
        assert cache.get("slow-key") == b"slow"


class TestInvalidationFencing:
    """Invalidation must cancel in-flight loads, not just cached entries.

    Without the fence, a leader that began loading before an invalidation
    re-populates the cache with stale bytes after it — exactly the
    drop-then-reingest wrong-data scenario."""

    @staticmethod
    def _slow_leader(cache, key, payload=b"stale-bytes"):
        import threading

        started = threading.Event()
        gate = threading.Event()
        results = []

        def loader():
            started.set()
            gate.wait(timeout=5.0)
            return payload

        thread = threading.Thread(
            target=lambda: results.append(cache.get_or_load(key, loader))
        )
        thread.start()
        assert started.wait(timeout=5.0)
        return thread, gate, results

    def test_invalidate_fences_inflight_load(self):
        cache = LruSegmentCache(10_000)
        thread, gate, results = self._slow_leader(cache, "seg")
        cache.invalidate("seg")  # races the in-flight load
        gate.set()
        thread.join(timeout=5.0)
        # The leader still gets its bytes, but they are never published.
        assert results == [b"stale-bytes"]
        assert cache.get("seg") is None
        assert len(cache) == 0
        assert cache.metrics.counter("cache.fenced_loads").total() == 1

    def test_waiters_still_receive_fenced_result(self):
        import threading

        cache = LruSegmentCache(10_000)
        thread, gate, results = self._slow_leader(cache, "seg")
        waiter_results = []
        waiter = threading.Thread(
            target=lambda: waiter_results.append(
                cache.get_or_load("seg", lambda: b"should-not-run")
            )
        )
        waiter.start()
        import time

        time.sleep(0.05)  # let the waiter attach to the flight
        cache.invalidate("seg")
        gate.set()
        thread.join(timeout=5.0)
        waiter.join(timeout=5.0)
        assert results == [b"stale-bytes"]
        # A waiter that attached before the fence may share the leader's
        # result or (having arrived after the fence freed the slot) load
        # fresh; either way it gets bytes and nothing stale is cached.
        assert waiter_results and isinstance(waiter_results[0], bytes)
        assert cache.get("seg") != b"stale-bytes"

    def test_post_invalidation_request_loads_fresh(self):
        cache = LruSegmentCache(10_000)
        thread, gate, results = self._slow_leader(cache, "seg", payload=b"old")
        cache.invalidate("seg")
        # The slot was freed by the fence: a new request becomes a new
        # leader immediately, without waiting on the stale flight.
        assert cache.get_or_load("seg", lambda: b"new") == b"new"
        gate.set()
        thread.join(timeout=5.0)
        assert results == [b"old"]  # stale leader got its own bytes...
        assert cache.get("seg") == b"new"  # ...but the cache kept the fresh ones

    def test_invalidate_prefix_fences_matching_inflight(self):
        cache = LruSegmentCache(10_000)
        thread_a, gate_a, _ = self._slow_leader(cache, ("v1", 0))
        thread_b, gate_b, _ = self._slow_leader(cache, ("v2", 0), payload=b"keep")
        cache.invalidate_prefix("v1")
        gate_a.set()
        gate_b.set()
        thread_a.join(timeout=5.0)
        thread_b.join(timeout=5.0)
        assert cache.get(("v1", 0)) is None  # fenced
        assert cache.get(("v2", 0)) == b"keep"  # untouched prefix cached fine


@pytest.fixture()
def loaded(tmp_path) -> StorageManager:
    storage = StorageManager(tmp_path)
    config = IngestConfig(
        grid=TileGrid(2, 2),
        qualities=(Quality.HIGH,),
        gop_frames=4,
        fps=4.0,
    )
    frames = synthetic_video("venice", width=64, height=32, fps=4, duration=1, seed=1)
    storage.ingest("clip", frames, config)
    return storage


class TestStorageIntegration:
    def test_repeated_reads_hit_cache(self, loaded):
        loaded.read_segment("clip", 0, (0, 0), Quality.HIGH)
        loaded.read_segment("clip", 0, (0, 0), Quality.HIGH)
        assert _total(loaded.segment_cache, "cache.hits") == 1
        assert _total(loaded.segment_cache, "cache.misses") == 1

    def test_cached_bytes_identical(self, loaded):
        first = loaded.read_segment("clip", 0, (0, 0), Quality.HIGH)
        second = loaded.read_segment("clip", 0, (0, 0), Quality.HIGH)
        assert first == second

    def test_drop_invalidates_cache(self, loaded):
        loaded.read_segment("clip", 0, (0, 0), Quality.HIGH)
        loaded.drop("clip")
        assert len(loaded.segment_cache) == 0

    def test_drop_fences_inflight_segment_load(self, loaded):
        """Regression: a segment load that started before ``drop`` must
        not re-populate the cache with the dropped video's bytes."""
        import threading

        cache = loaded.segment_cache
        key = ("clip", 0, (0, 0), Quality.HIGH, 0)
        started = threading.Event()
        gate = threading.Event()
        results = []

        def slow_loader():
            started.set()
            gate.wait(timeout=5.0)
            return b"bytes-from-dropped-version"

        thread = threading.Thread(
            target=lambda: results.append(cache.get_or_load(key, slow_loader))
        )
        thread.start()
        assert started.wait(timeout=5.0)
        loaded.drop("clip")  # invalidate_prefix("clip") fences the flight
        gate.set()
        thread.join(timeout=5.0)
        assert results == [b"bytes-from-dropped-version"]
        # Without the fence this returned the stale payload.
        assert cache.get(key) is None

    def test_cache_can_be_disabled(self, tmp_path):
        storage = StorageManager(tmp_path, cache_bytes=0)
        assert storage.segment_cache is None
        config = IngestConfig(
            grid=TileGrid(1, 1), qualities=(Quality.HIGH,), gop_frames=2, fps=2.0
        )
        frames = synthetic_video("venice", width=32, height=32, fps=2, duration=1, seed=2)
        storage.ingest("clip", frames, config)
        assert storage.read_segment("clip", 0, (0, 0), Quality.HIGH)


class TestThreadSafety:
    def test_concurrent_readers_and_writers(self):
        import threading

        cache = LruSegmentCache(10_000)
        errors = []

        def worker(worker_id: int) -> None:
            try:
                for step in range(300):
                    key = (worker_id % 3, step % 20)
                    cache.put(key, bytes(50))
                    cache.get(key)
                    if step % 50 == 0:
                        cache.invalidate_prefix(worker_id % 3)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        # Internal accounting survived the contention.
        assert cache.size_bytes == sum(len(v) for v in cache._entries.values())

    def test_concurrent_storage_reads(self, loaded):
        import threading

        results = []
        errors = []

        def reader() -> None:
            try:
                for _ in range(50):
                    results.append(
                        loaded.read_segment("clip", 0, (0, 0), Quality.HIGH)
                    )
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert len(set(results)) == 1  # every read saw identical bytes
