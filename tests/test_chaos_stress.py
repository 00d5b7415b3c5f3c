"""Concurrency stress under chaos: many threads, one cache, injected
faults and evictions — the fencing invariants and the exactness of the
metrics accounting must both survive.

Marked ``slow``: run with ``pytest -m slow`` (the default suite deselects
it via ``-m "not slow"`` in CI's quick lane; the chaos lane runs it).
"""

import threading

import pytest

from repro import IngestConfig, MetricsRegistry, Quality, TileGrid, VisualCloud
from repro.chaos import ChaosSegmentCache, ChaosStorageManager, FaultPlan, FaultRule
from repro.chaos.scenario import on_disk
from repro.core.cache import LruSegmentCache
from repro.core.errors import SegmentNotFoundError, TransientSegmentError
from repro.workloads.videos import synthetic_video

THREADS = 8
ROUNDS = 40

pytestmark = pytest.mark.slow


@pytest.fixture()
def stressed_db(tmp_path):
    db = VisualCloud(tmp_path)
    config = IngestConfig(
        grid=TileGrid(2, 2),
        qualities=(Quality.HIGH, Quality.LOW),
        gop_frames=4,
        fps=4.0,
    )
    frames = synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=17)
    db.ingest("clip", frames, config)
    return db


def _hammer(storage, meta, errors, barrier, thread_id):
    barrier.wait()
    keys = [
        (gop, tile, quality)
        for gop in range(meta.gop_count)
        for tile in meta.grid.tiles()
        for quality in (Quality.HIGH, Quality.LOW)
    ]
    for round_number in range(ROUNDS):
        # Every thread walks the keys at a different stride so loads,
        # hits, and invalidations genuinely interleave.
        key = keys[(round_number * (thread_id + 3)) % len(keys)]
        gop, tile, quality = key
        try:
            data = storage.read_segment("clip", gop, tile, quality)
            assert data, "a read that returns must return bytes"
        except (TransientSegmentError, SegmentNotFoundError):
            pass  # the error contract: injected faults surface as these
        except Exception as error:  # noqa: BLE001 — anything else is the bug
            errors.append(f"thread {thread_id}: {type(error).__name__}: {error}")


class TestChaosConcurrencyStress:
    def test_fencing_and_metrics_hold_under_chaotic_load(self, stressed_db):
        db = stressed_db
        meta = db.meta("clip")
        plan = FaultPlan(
            rules=(
                FaultRule(kind="flaky", rate=0.10, burst=2),
                FaultRule(kind="missing", rate=0.05),
                FaultRule(kind="evict", target="cache", every=7),
            ),
            seed=29,
        )
        db.storage.segment_cache = ChaosSegmentCache(db.storage.segment_cache, plan)
        storage = ChaosStorageManager(db.storage, plan)

        base_hits = db.metrics.counter("cache.hits").total()
        base_misses = db.metrics.counter("cache.misses").total()
        base_reads = db.metrics.counter("storage.segments_read").total()

        errors: list[str] = []
        barrier = threading.Barrier(THREADS + 1)
        threads = [
            threading.Thread(
                target=_hammer, args=(storage, meta, errors, barrier, i)
            )
            for i in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        barrier.wait()

        # A competing invalidator exercises the fence against in-flight
        # loads the whole time.
        stop = threading.Event()

        def invalidate_loop():
            while not stop.is_set():
                db.storage.segment_cache.invalidate_prefix("clip")

        invalidator = threading.Thread(target=invalidate_loop)
        invalidator.start()
        for thread in threads:
            thread.join()
        stop.set()
        invalidator.join()

        assert errors == [], errors

        cache = db.storage.segment_cache.inner
        metrics = db.metrics

        # Exact accounting: every get_or_load is either a hit or a miss.
        hits = metrics.counter("cache.hits").total() - base_hits
        misses = metrics.counter("cache.misses").total() - base_misses
        segment_reads = metrics.counter("storage.segments_read").total() - base_reads
        assert hits + misses == segment_reads
        # Every read that reached the inner store was counted by the plan
        # minus the ones the plan failed before the store was touched.
        injected_storage_faults = sum(
            count
            for kind, count in plan.injected.items()
            if kind in ("flaky", "missing")
        )
        assert plan.calls("storage") == segment_reads + injected_storage_faults

        # Fencing invariant: whatever survived in the cache matches disk
        # bit for bit (no stale publish won a race with an invalidation).
        for key, payload in cache.items():
            assert on_disk(db.storage, key) == payload, f"stale bytes cached for {key}"

        # Occupancy gauges agree with the cache's actual contents.
        entries = cache.items()
        assert metrics.gauge("cache.entries").value() == len(entries)
        assert metrics.gauge("cache.bytes").value() == sum(
            len(payload) for _, payload in entries
        )

    def test_single_flight_under_eviction_storm(self, tmp_path):
        # A standalone cache: THREADS threads demand the same key while
        # an eviction rule keeps knocking it out. Loads must equal the
        # misses recorded — no lost updates, no double counting.
        registry = MetricsRegistry()
        inner = LruSegmentCache(capacity_bytes=1 << 20, registry=registry)
        plan = FaultPlan(
            rules=(FaultRule(kind="evict", target="cache", every=3),), seed=31
        )
        cache = ChaosSegmentCache(inner, plan)
        key = ("clip", 0, (0, 0), Quality.HIGH, 1)
        load_count = threading.Lock()
        loads = [0]

        def loader():
            with load_count:
                loads[0] += 1
            return b"\xab" * 128

        barrier = threading.Barrier(THREADS)
        results = []

        def worker():
            barrier.wait()
            for _ in range(ROUNDS):
                results.append(cache.get_or_load(key, loader))

        threads = [threading.Thread(target=worker) for _ in range(THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(results) == THREADS * ROUNDS
        assert all(result == b"\xab" * 128 for result in results)
        hits = registry.counter("cache.hits").total()
        misses = registry.counter("cache.misses").total()
        assert hits + misses == THREADS * ROUNDS
        # Single-flight: every load corresponds to a recorded miss, and
        # concurrent missers shared leaders rather than stampeding.
        assert loads[0] <= misses
        assert loads[0] >= 1
