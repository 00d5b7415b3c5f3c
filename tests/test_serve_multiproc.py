"""The multi-process serve tier and the metrics merge behind it.

The fleet tests are end-to-end: N real worker processes share one
listening port, a real client fetches real segments, and the merged
``/metrics`` view must account for every worker. merge_snapshots gets
its own unit coverage because its arithmetic (pooled quantiles, the
count-weighted fallback) is what makes the fleet view trustworthy.
"""

from __future__ import annotations

import multiprocessing

import pytest

from repro.control import ControlPlan, NodePlan
from repro.core.errors import TransientSegmentError
from repro.obs import MetricsRegistry, merge_snapshots
from repro.serve import HttpSegmentClient, ServerConfig, start_server
from repro.serve.multiproc import MultiProcessServerHandle, _so_reuseport_available

_multiproc_possible = (
    _so_reuseport_available() or "fork" in multiprocessing.get_all_start_methods()
)

pytestmark = pytest.mark.skipif(
    not _multiproc_possible,
    reason="needs SO_REUSEPORT or the fork start method",
)


@pytest.fixture()
def fleet(request, session_db):
    """A 2-worker fleet; ``parametrize("fleet", [...], indirect=True)``
    passes extra ``ServerConfig`` fields (the pinned variant below)."""
    overrides = getattr(request, "param", {})
    handle = start_server(
        session_db.storage,
        ServerConfig(processes=2, drain_timeout=2.0, **overrides),
    )
    yield handle
    handle.stop()


class TestFleetServing:
    def test_start_server_returns_the_multiproc_handle(self, fleet):
        assert isinstance(fleet, MultiProcessServerHandle)
        host, port = fleet.address
        assert fleet.base_url == f"http://{host}:{port}"

    def test_every_segment_is_byte_identical_to_storage(self, session_db, fleet):
        manifest = session_db.storage.build_manifest("clip")
        with HttpSegmentClient(fleet.base_url) as client:
            for key in manifest.segment_sizes:
                wire = client.fetch_segment("clip", key)
                local = session_db.storage.read_segment(
                    "clip", key.window, key.tile, key.quality
                )
                assert wire == local

    def test_merged_metrics_cover_the_whole_fleet(self, fleet):
        """/metrics on any worker reports workers: 2 and the summed
        request counters; /metrics/local identifies a single worker."""
        with HttpSegmentClient(fleet.base_url) as client:
            client.healthy()
            merged = client.fetch_metrics()
            assert merged["workers"] == 2
            assert "peer_errors" not in merged
            assert any(
                name.startswith("serve.requests") for name in merged["counters"]
            )
            local = client.fetch_metrics(local=True)
            assert local["worker"] in (0, 1)

    @pytest.mark.parametrize(
        "fleet",
        [dict(pin_budget_bytes=64 * 1024 * 1024, prewarm=("clip",))],
        ids=["pinned"],
        indirect=True,
    )
    def test_pinned_fleet_serves_from_the_hot_set(self, session_db, fleet):
        """Every worker pre-warms its own hot set, so a full-catalog
        fetch is answered from pins whichever worker accepts it, and the
        merged view sums the per-worker ``serve.pin_hits``."""
        manifest = session_db.storage.build_manifest("clip")
        with HttpSegmentClient(fleet.base_url) as client:
            for key in manifest.segment_sizes:
                local = session_db.storage.read_segment(
                    "clip", key.window, key.tile, key.quality
                )
                assert client.fetch_segment("clip", key) == local
            merged = client.fetch_metrics()
        assert merged["workers"] == 2
        assert merged["counters"]["serve.pin_hits"] == len(manifest.segment_sizes)

    def test_stop_is_graceful_and_idempotent(self, session_db):
        handle = start_server(
            session_db.storage, ServerConfig(processes=2, drain_timeout=2.0)
        )
        workers = list(handle._workers)
        handle.stop()
        handle.stop()  # second stop must be a no-op, not an error
        for worker in workers:
            assert not worker.is_alive()
            # Graceful drain, not terminate/kill escalation.
            assert worker.exitcode == 0

    def test_memory_storage_is_rejected(self):
        class Memoryish:
            pass

        with pytest.raises(ValueError, match="disk-backed"):
            start_server(Memoryish(), ServerConfig(processes=2))


def _limits_plan(version: int, max_inflight: int) -> ControlPlan:
    node = NodePlan(node_id="", max_inflight=max_inflight, pin_budget_bytes=0, prewarm=())
    return ControlPlan(version=version, nodes=(node,))


def _control_states(fleet, count=20) -> set:
    """``(version, max_inflight)`` as seen over ``count`` fresh
    connections — the kernel picks the answering worker per connection."""
    states = set()
    for _ in range(count):
        with HttpSegmentClient(fleet.base_url) as client:
            state = client.fetch_control()
        states.add((state["version"], state["max_inflight"]))
    return states


class TestFleetControl:
    """A control plan retunes the whole fleet or none of it."""

    def test_apply_control_plan_reaches_every_worker(self, fleet):
        summary = fleet.apply_control_plan(_limits_plan(2, max_inflight=7))
        assert summary["version"] == 2 and summary["max_inflight"] == 7
        assert summary["workers"] == 2
        assert summary["refused"] == [] and summary["errors"] == []
        assert _control_states(fleet) == {(2, 7)}
        with pytest.raises(ValueError, match="refusing to roll back"):
            fleet.apply_control_plan(_limits_plan(1, max_inflight=3))
        assert _control_states(fleet) == {(2, 7)}

    def test_http_post_to_a_single_worker_is_refused(self, fleet):
        """``POST /control/*`` lands on whichever worker accepted the
        connection; applying it there would split the fleet, so a worker
        with siblings answers 405 and points at the handle."""
        with HttpSegmentClient(fleet.base_url) as client:
            with pytest.raises(TransientSegmentError, match="apply_control_plan") as refused:
                client.post_control("limits", {"version": 1, "max_inflight": 7})
        assert refused.value.status == 405
        assert _control_states(fleet) == {(0, None)}


def _snapshot_with_traffic(latencies, counter_value=1.0) -> dict:
    registry = MetricsRegistry()
    registry.counter("serve.requests", "requests").labels().inc(counter_value)
    histogram = registry.histogram("serve.request_seconds", "latency").labels()
    for value in latencies:
        histogram.observe(value)
    return registry.snapshot(include_samples=True)


class TestMergeSnapshots:
    def test_counters_and_gauges_sum(self):
        first = {"counters": {"a": 1.0, "b": 2.0}, "gauges": {"g": 5.0}}
        second = {"counters": {"a": 10.0}, "gauges": {"g": 7.0, "h": 1.0}}
        merged = merge_snapshots([first, second])
        assert merged["workers"] == 2
        assert merged["counters"] == {"a": 11.0, "b": 2.0}
        assert merged["gauges"] == {"g": 12.0, "h": 1.0}
        assert merged["spans"] == []

    def test_histogram_exact_fields_are_exact(self):
        merged = merge_snapshots(
            [
                _snapshot_with_traffic([0.1, 0.2, 0.3]),
                _snapshot_with_traffic([0.4, 0.5]),
            ]
        )
        summary = merged["histograms"]["serve.request_seconds"]
        assert summary["count"] == 5
        assert summary["sum"] == pytest.approx(1.5)
        assert summary["min"] == pytest.approx(0.1)
        assert summary["max"] == pytest.approx(0.5)
        assert summary["mean"] == pytest.approx(0.3)

    def test_quantiles_pool_across_workers(self):
        """Pooled quantiles must reflect the union of the sample windows,
        not an average of per-worker quantiles: one worker holding all
        the slow requests must dominate the merged p99."""
        fast = _snapshot_with_traffic([0.001] * 99)
        slow = _snapshot_with_traffic([1.0] * 99)
        merged = merge_snapshots([fast, slow])
        summary = merged["histograms"]["serve.request_seconds"]
        assert summary["p50"] in (0.001, 1.0)
        assert summary["p99"] == pytest.approx(1.0)

    def test_sampleless_snapshots_fall_back_to_weighted_average(self):
        first = {
            "histograms": {
                "h": {"count": 3, "sum": 0.3, "min": 0.1, "max": 0.1, "p50": 0.1, "p90": 0.1, "p99": 0.1}
            }
        }
        second = {
            "histograms": {
                "h": {"count": 1, "sum": 0.5, "min": 0.5, "max": 0.5, "p50": 0.5, "p90": 0.5, "p99": 0.5}
            }
        }
        merged = merge_snapshots([first, second])
        summary = merged["histograms"]["h"]
        assert summary["count"] == 4
        assert summary["p50"] == pytest.approx((0.1 * 3 + 0.5 * 1) / 4)

    def test_empty_histograms_merge_to_zero(self):
        merged = merge_snapshots(
            [{"histograms": {"h": {"count": 0, "sum": 0.0}}}] * 2
        )
        assert merged["histograms"]["h"] == {"count": 0, "sum": 0.0}

    def test_single_snapshot_round_trips(self):
        snapshot = _snapshot_with_traffic([0.25, 0.75])
        merged = merge_snapshots([snapshot])
        assert merged["workers"] == 1
        assert merged["counters"]["serve.requests"] == 1.0
        assert merged["histograms"]["serve.request_seconds"]["count"] == 2


class TestMergeSnapshotsMixedSamples:
    """Regressions for histograms that only *some* workers sampled.

    A fleet snapshot is not uniform: a worker that answered ``/metrics``
    without ``include_samples``, or whose sample window rotated out,
    contributes quantile tags but no raw samples. Pooling in that mix
    used to compute merged quantiles from the sampled workers alone —
    silently dropping the other worker's entire distribution.
    """

    def test_mixed_sampled_and_sampleless_workers_average_not_pool(self):
        # Worker A: 9 fast requests with a sample window. Worker B: 9
        # slow requests, quantiles only. Pooling A's samples alone would
        # report p99 ~= 0.001; the honest merge weighs both equally.
        sampled = _snapshot_with_traffic([0.001] * 9)
        sampleless = {
            "histograms": {
                "serve.request_seconds": {
                    "count": 9, "sum": 9.0, "min": 1.0, "max": 1.0,
                    "p50": 1.0, "p90": 1.0, "p99": 1.0,
                }
            }
        }
        merged = merge_snapshots([sampled, sampleless])
        summary = merged["histograms"]["serve.request_seconds"]
        assert summary["count"] == 18
        assert summary["p99"] == pytest.approx((0.001 + 1.0) / 2)
        assert summary["max"] == pytest.approx(1.0)

    def test_empty_sample_list_is_sampleless(self):
        # "samples": [] (a rotated-out window) must behave exactly like
        # an absent key — fall back to the weighted average, never pool.
        empty_window = {
            "histograms": {
                "h": {
                    "count": 2, "sum": 1.0, "min": 0.5, "max": 0.5,
                    "p50": 0.5, "p90": 0.5, "p99": 0.5, "samples": [],
                }
            }
        }
        sampled = {
            "histograms": {
                "h": {
                    "count": 2, "sum": 0.2, "min": 0.1, "max": 0.1,
                    "p50": 0.1, "p90": 0.1, "p99": 0.1, "samples": [0.1, 0.1],
                }
            }
        }
        merged = merge_snapshots([empty_window, sampled])
        summary = merged["histograms"]["h"]
        assert summary["count"] == 4
        assert summary["p50"] == pytest.approx(0.3)

    def test_histogram_on_one_worker_keeps_its_quantiles(self):
        # The histogram exists on only one worker's snapshot and that
        # worker carried no samples: its own quantile tags must survive
        # the merge instead of the series being reported without them.
        only = {
            "histograms": {
                "h": {
                    "count": 5, "sum": 2.5, "min": 0.5, "max": 0.5,
                    "p50": 0.5, "p90": 0.5, "p99": 0.5, "samples": [],
                }
            }
        }
        other = {"histograms": {}}
        merged = merge_snapshots([only, other])
        summary = merged["histograms"]["h"]
        assert summary["count"] == 5
        assert summary["p50"] == pytest.approx(0.5)
        assert summary["p99"] == pytest.approx(0.5)

    def test_no_quantiles_anywhere_omits_the_tags(self):
        # When no live part reports a quantile there is nothing honest to
        # publish: the keys are omitted entirely, never invented as 0.0
        # (a p99 of zero reads as "everything was instant").
        bare = {"histograms": {"h": {"count": 3, "sum": 0.9, "min": 0.3, "max": 0.3}}}
        merged = merge_snapshots([bare, bare])
        summary = merged["histograms"]["h"]
        assert summary["count"] == 6
        for tag in ("p50", "p90", "p99"):
            assert tag not in summary

    def test_single_worker_fleet_with_empty_samples(self):
        snapshot = {
            "histograms": {
                "h": {
                    "count": 1, "sum": 0.2, "min": 0.2, "max": 0.2,
                    "p50": 0.2, "p90": 0.2, "p99": 0.2, "samples": [],
                }
            }
        }
        merged = merge_snapshots([snapshot])
        summary = merged["histograms"]["h"]
        assert summary["p50"] == pytest.approx(0.2)
        assert summary["mean"] == pytest.approx(0.2)
