"""Unit tests for QoE accounting."""

import math

import pytest

from repro.stream.qoe import QoEReport, WindowRecord
from repro.video.quality import Quality


def make_record(
    window=0,
    stall=0.0,
    size=100,
    quality_map=None,
    visible=None,
    psnr=None,
) -> WindowRecord:
    quality_map = quality_map or {(0, 0): Quality.HIGH, (0, 1): Quality.LOW}
    return WindowRecord(
        window=window,
        request_time=float(window),
        delivered_time=float(window) + 0.5,
        playback_start=float(window) + 1.0,
        stall_seconds=stall,
        bytes_sent=size,
        quality_map=quality_map,
        predicted_tiles={(0, 0)},
        ladder_best=Quality.HIGH,
        visible_tiles=visible if visible is not None else {(0, 0)},
        viewport_psnr=psnr,
    )


class TestWindowRecord:
    def test_visible_at_best_full(self):
        assert make_record().visible_at_best == 1.0

    def test_visible_at_best_partial(self):
        record = make_record(visible={(0, 0), (0, 1)})
        assert record.visible_at_best == 0.5

    def test_visible_at_best_no_visibility_is_nan(self):
        assert math.isnan(make_record(visible=set()).visible_at_best)

    def test_visible_tile_not_delivered_counts_as_miss(self):
        record = make_record(visible={(3, 3)})
        assert record.visible_at_best == 0.0


class TestQoEReport:
    def test_requires_records(self):
        with pytest.raises(ValueError):
            QoEReport([])

    def test_total_bytes(self):
        report = QoEReport([make_record(0, size=100), make_record(1, size=250)])
        assert report.total_bytes == 350

    def test_stall_aggregation(self):
        report = QoEReport(
            [make_record(0), make_record(1, stall=0.5), make_record(2, stall=1.5)]
        )
        assert report.stall_time == pytest.approx(2.0)
        assert report.stall_count == 2

    def test_mean_visible_at_best(self):
        report = QoEReport(
            [make_record(0), make_record(1, visible={(0, 0), (0, 1)})]
        )
        assert report.mean_visible_at_best == pytest.approx(0.75)

    def test_mean_viewport_psnr_skips_missing(self):
        report = QoEReport([make_record(0, psnr=40.0), make_record(1)])
        assert report.mean_viewport_psnr == pytest.approx(40.0)

    def test_mean_viewport_psnr_nan_when_never_probed(self):
        assert math.isnan(QoEReport([make_record(0)]).mean_viewport_psnr)

    def test_quality_switches_counts_visible_changes(self):
        first = make_record(0, quality_map={(0, 0): Quality.HIGH, (0, 1): Quality.LOW})
        second = make_record(
            1,
            quality_map={(0, 0): Quality.LOW, (0, 1): Quality.LOW},
            visible={(0, 0), (0, 1)},
        )
        report = QoEReport([first, second])
        assert report.quality_switches == 1

    def test_bytes_saved_vs(self):
        lean = QoEReport([make_record(0, size=400)])
        fat = QoEReport([make_record(0, size=1000)])
        assert lean.bytes_saved_vs(fat) == pytest.approx(0.6)

    def test_bytes_saved_rejects_zero_baseline(self):
        lean = QoEReport([make_record(0, size=0)])
        with pytest.raises(ValueError):
            lean.bytes_saved_vs(lean)

    def test_summary_keys(self):
        summary = QoEReport([make_record(0)]).summary()
        assert {
            "windows",
            "total_bytes",
            "stall_time_s",
            "stall_count",
            "visible_at_best",
            "viewport_psnr_db",
            "quality_switches",
        } <= set(summary)


class TestVisibleAtBestAcrossLadders:
    def test_uniform_medium_delivery_scores_zero(self):
        """Whole-sphere MEDIUM delivery never counts as 'at best': the
        metric is anchored to the ladder top, not the shipped maximum."""
        record = make_record(
            quality_map={(0, 0): Quality.MEDIUM, (0, 1): Quality.MEDIUM},
            visible={(0, 0), (0, 1)},
        )
        assert record.visible_at_best == 0.0

    def test_partial_store_resolution_counts_as_miss(self):
        record = make_record(
            quality_map={(0, 0): Quality.HIGH, (0, 1): Quality.LOW},
            visible={(0, 0), (0, 1)},
        )
        assert record.visible_at_best == 0.5
