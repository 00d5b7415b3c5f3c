"""Tests for the observability subsystem (metrics registry + tracer)."""

import math
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import MetricsRegistry, QUANTILES, Tracer
from repro.obs.metrics import HISTOGRAM_KEEP
from repro.obs.tracing import TRACE_KEEP


class TestCounter:
    def test_starts_at_zero(self):
        registry = MetricsRegistry()
        assert registry.counter("x").value() == 0.0
        assert registry.counter("x").total() == 0.0

    def test_increments(self):
        counter = MetricsRegistry().counter("x")
        counter.inc()
        counter.inc(2.5)
        assert counter.value() == pytest.approx(3.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_labels_are_separate_series(self):
        counter = MetricsRegistry().counter("x")
        counter.inc(kind="a")
        counter.inc(2, kind="b")
        assert counter.value(kind="a") == 1.0
        assert counter.value(kind="b") == 2.0
        assert counter.value() == 0.0  # unlabeled series untouched
        assert counter.total() == 3.0

    def test_label_order_is_canonical(self):
        counter = MetricsRegistry().counter("x")
        counter.inc(a="1", b="2")
        assert counter.value(b="2", a="1") == 1.0


class TestGauge:
    def test_set_and_read(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.set(7.0)
        assert gauge.value() == 7.0

    def test_inc_dec(self):
        gauge = MetricsRegistry().gauge("g")
        gauge.inc(3)
        gauge.dec(1)
        assert gauge.value() == 2.0


class TestHistogram:
    def test_count_sum(self):
        hist = MetricsRegistry().histogram("h")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        assert hist.count() == 3
        assert hist.sum() == pytest.approx(6.0)

    def test_quantiles(self):
        hist = MetricsRegistry().histogram("h")
        for value in range(101):
            hist.observe(float(value))
        assert hist.quantile(0.5) == pytest.approx(50.0)
        assert hist.quantile(0.99) == pytest.approx(99.0)
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 100.0

    def test_quantile_of_empty_is_nan(self):
        assert math.isnan(MetricsRegistry().histogram("h").quantile(0.5))

    def test_bad_quantile_rejected(self):
        with pytest.raises(ValueError):
            MetricsRegistry().histogram("h").quantile(1.5)

    def test_summary_shape(self):
        hist = MetricsRegistry().histogram("h")
        hist.observe(2.0)
        hist.observe(4.0)
        summary = hist.summary()
        assert summary["count"] == 2
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["min"] == 2.0
        assert summary["max"] == 4.0
        assert summary["mean"] == pytest.approx(3.0)
        for q in QUANTILES:
            assert f"p{int(q * 100)}" in summary

    def test_empty_summary(self):
        assert MetricsRegistry().histogram("h").summary() == {"count": 0, "sum": 0.0}

    def test_sliding_window_keeps_exact_count(self):
        """Quantiles slide; count/sum stay exact over the lifetime."""
        hist = MetricsRegistry().histogram("h")
        total = HISTOGRAM_KEEP + 100
        for value in range(total):
            hist.observe(float(value))
        assert hist.count() == total
        assert hist.sum() == total * (total - 1) / 2
        # The window holds only the last HISTOGRAM_KEEP samples: 100 onwards.
        assert hist.quantile(0.0) == 100.0
        assert hist.quantile(1.0) == total - 1


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")
        with pytest.raises(TypeError):
            registry.histogram("x")

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.counter("c").inc(3, kind="a")
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.25)
        snapshot = registry.snapshot()
        assert snapshot["counters"]["c"] == 2.0
        assert snapshot["counters"]["c{kind=a}"] == 3.0
        assert snapshot["gauges"]["g"] == 1.5
        assert snapshot["histograms"]["h"]["count"] == 1
        assert snapshot["spans"] == []

    def test_snapshot_is_json_serialisable(self):
        import json

        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.histogram("h").observe(1.0)
        with registry.span("work", video="clip"):
            pass
        json.dumps(registry.snapshot())  # must not raise


class TestPrometheusExport:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("cache.hits", "cache lookups served").inc(5)
        registry.gauge("cache.bytes").set(128)
        text = registry.to_prometheus()
        assert "# TYPE cache_hits counter" in text
        assert "cache_hits 5" in text
        assert "# HELP cache_hits cache lookups served" in text
        assert "cache_bytes 128" in text

    def test_labels_rendered(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2, kind="markov")
        assert 'c{kind="markov"} 2' in registry.to_prometheus()

    def test_histogram_rendered_as_summary(self):
        registry = MetricsRegistry()
        hist = registry.histogram("stream.transfer_seconds")
        for value in (0.1, 0.2, 0.3):
            hist.observe(value)
        text = registry.to_prometheus()
        assert "# TYPE stream_transfer_seconds summary" in text
        assert 'stream_transfer_seconds{quantile="0.5"}' in text
        assert "stream_transfer_seconds_count 3" in text
        assert "stream_transfer_seconds_sum 0.6" in text

    def test_empty_registry_exports_empty(self):
        assert MetricsRegistry().to_prometheus() == ""


class TestTracer:
    def test_span_records_duration_histogram(self):
        registry = MetricsRegistry()
        with registry.span("storage.read_segment", video="clip", tile=(0, 0)):
            pass
        hist = registry.histogram("storage.read_segment.seconds")
        assert hist.count() == 1
        assert hist.sum() >= 0.0

    def test_recent_filtered_by_name(self):
        registry = MetricsRegistry()
        with registry.span("a"):
            pass
        with registry.span("b"):
            pass
        recent = registry.tracer.recent(name="a")
        assert [span.name for span in recent] == ["a"]

    def test_span_recorded_on_exception(self):
        registry = MetricsRegistry()
        with pytest.raises(RuntimeError):
            with registry.span("explodes"):
                raise RuntimeError("boom")
        assert registry.histogram("explodes.seconds").count() == 1

    def test_ring_is_bounded(self):
        tracer = Tracer(None)
        for index in range(TRACE_KEEP + 6):
            with tracer.span("s", index=index):
                pass
        recent = tracer.recent()
        assert len(recent) == TRACE_KEEP
        assert recent[0].attrs["index"] == 6
        assert recent[-1].attrs["index"] == TRACE_KEEP + 5


class TestConcurrency:
    """Parallel updates from a thread pool must land exactly."""

    def test_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("hits")
        workers, per_worker = 8, 2000

        def pound(_):
            for _ in range(per_worker):
                counter.inc()

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(pound, range(workers)))
        assert counter.value() == workers * per_worker

    def test_labeled_counter_increments_are_exact(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        workers, per_worker = 6, 1000

        def pound(worker):
            for _ in range(per_worker):
                counter.inc(kind=str(worker % 2))

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(pound, range(workers)))
        assert counter.total() == workers * per_worker
        assert counter.value(kind="0") == 3 * per_worker
        assert counter.value(kind="1") == 3 * per_worker

    def test_histogram_observations_are_exact(self):
        registry = MetricsRegistry()
        hist = registry.histogram("latency")
        workers, per_worker = 8, 1000

        def pound(_):
            for _ in range(per_worker):
                hist.observe(1.0)

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(pound, range(workers)))
        assert hist.count() == workers * per_worker
        assert hist.sum() == pytest.approx(workers * per_worker)

    def test_get_or_create_race_yields_one_metric(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(8)
        metrics = []

        def create():
            barrier.wait()
            metrics.append(registry.counter("raced"))

        threads = [threading.Thread(target=create) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert all(metric is metrics[0] for metric in metrics)
