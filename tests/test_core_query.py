"""Tests for the declarative query layer and its homomorphic planner."""

import math

import numpy as np
import pytest

from repro.core import udfs
from repro.core.errors import QueryError
from repro.core.query import (
    EncodedVideo,
    QueryExecutor,
    RawVideo,
    Scan,
    _aligned_tile_set,
)
from repro.core.storage import IngestConfig, StorageManager
from repro.geometry.grid import TileGrid
from repro.video.frame import psnr
from repro.video.quality import Quality
from repro.workloads.videos import synthetic_video


@pytest.fixture(scope="module")
def storage(tmp_path_factory) -> StorageManager:
    manager = StorageManager(tmp_path_factory.mktemp("qstore"))
    config = IngestConfig(
        grid=TileGrid(2, 2),
        qualities=(Quality.HIGH, Quality.LOW),
        gop_frames=4,
        fps=4.0,
    )
    frames = synthetic_video("venice", width=64, height=32, fps=4.0, duration=3.0, seed=7)
    manager.ingest("clip", frames, config)
    return manager


@pytest.fixture()
def executor(storage) -> QueryExecutor:
    return QueryExecutor(storage)


def payload_bytes(video: EncodedVideo) -> int:
    return sum(len(p) for window in video.windows for p in window.payloads.values())


class TestScan:
    def test_scan_returns_encoded(self, executor):
        result = executor.execute(Scan("clip"))
        assert isinstance(result.value, EncodedVideo)
        assert len(result.value.windows) == 3
        assert result.stats.decode_ops == 0

    def test_scan_specific_quality(self, executor):
        high = executor.execute(Scan("clip", quality=Quality.HIGH)).value
        low = executor.execute(Scan("clip", quality=Quality.LOW)).value
        assert payload_bytes(low) < payload_bytes(high)


class TestTemporalSelect:
    def test_aligned_select_is_homomorphic(self, executor):
        result = executor.execute(Scan("clip").select(time=(1.0, 2.0)))
        assert len(result.value.windows) == 1
        assert result.stats.decode_ops == 0
        assert "select.time:homomorphic-gop" in result.stats.operator_paths

    def test_unaligned_select_decodes(self, executor):
        result = executor.execute(Scan("clip").select(time=(0.5, 1.5)))
        assert isinstance(result.value, RawVideo)
        assert result.stats.decode_ops > 0
        total_frames = sum(len(w) for w in result.value.windows)
        assert total_frames == 4  # exactly one second at 4 fps

    def test_empty_selection_rejected(self, executor):
        with pytest.raises(QueryError):
            executor.execute(Scan("clip").select(time=(2.0, 2.0)))

    def test_out_of_range_selection_rejected(self, executor):
        with pytest.raises(QueryError):
            executor.execute(Scan("clip").select(time=(5.0, 6.0)))


class TestAngularSelect:
    def test_aligned_select_is_homomorphic(self, executor):
        result = executor.execute(Scan("clip").select(theta=(0.0, math.pi)))
        assert isinstance(result.value, EncodedVideo)
        assert "select.angular:homomorphic-tile" in result.stats.operator_paths
        assert set(result.value.windows[0].payloads) == {(0, 0), (1, 0)}

    def test_phi_select_picks_row(self, executor):
        result = executor.execute(Scan("clip").select(phi=(0.0, math.pi / 2)))
        assert set(result.value.windows[0].payloads) == {(0, 0), (0, 1)}

    def test_unaligned_select_crops_pixels(self, executor):
        result = executor.execute(Scan("clip").select(theta=(0.3, 2.0)))
        assert isinstance(result.value, RawVideo)
        frame = result.value.windows[0][0]
        assert frame.width < 64
        assert frame.width % 16 == 0

    def test_select_needs_a_dimension(self, executor):
        with pytest.raises(QueryError):
            executor.execute(Scan("clip").select())

    def test_selection_outside_sphere_rejected(self, executor):
        with pytest.raises(QueryError):
            executor.execute(Scan("clip").select(phi=(0.0, 4.0)))


class TestAlignedTileSet:
    def test_full_sphere(self):
        grid = TileGrid(2, 2)
        assert _aligned_tile_set(grid, None, None) == set(grid.tiles())

    def test_unaligned_returns_none(self):
        assert _aligned_tile_set(TileGrid(2, 2), (0.1, math.pi), None) is None

    def test_aligned_range(self):
        grid = TileGrid(2, 4)
        tiles = _aligned_tile_set(grid, (math.pi / 2, math.pi), (0.0, math.pi / 2))
        assert tiles == {(0, 1)}


class TestMap:
    def test_map_applies_udf(self, executor, storage):
        result = executor.execute(Scan("clip").map(udfs.invert))
        frame = result.value.windows[0][0]
        original = storage.decode_window("clip", 0, Quality.HIGH)[0]
        assert np.array_equal(frame.y, 255 - original.y)

    def test_map_counts_frames(self, executor):
        result = executor.execute(Scan("clip").map(udfs.grayscale))
        assert result.stats.frames_processed >= 12


class TestUnion:
    def test_tile_disjoint_union_is_homomorphic(self, executor):
        left = Scan("clip").select(theta=(0.0, math.pi))
        right = Scan("clip", quality=Quality.LOW).select(theta=(math.pi, 2 * math.pi))
        result = executor.execute(left.union(right))
        assert isinstance(result.value, EncodedVideo)
        assert "union:homomorphic-tile" in result.stats.operator_paths
        window = result.value.windows[0]
        assert window.tile_quality(0, 0) is Quality.HIGH
        assert window.tile_quality(0, 1) is Quality.LOW

    def test_overlapping_union_prefers_right(self, executor):
        left = Scan("clip")
        right = Scan("clip", quality=Quality.LOW)
        result = executor.execute(left.union(right))
        window = result.value.windows[0]
        assert window.tile_quality(0, 0) is Quality.LOW  # LAST semantics

    def test_mismatched_window_counts_rejected(self, executor):
        left = Scan("clip").select(time=(0.0, 1.0)).map(udfs.grayscale)
        right = Scan("clip").map(udfs.grayscale)
        with pytest.raises(QueryError):
            executor.execute(left.union(right))


class TestEncodeStore:
    def test_encode_noop_when_already_at_quality(self, executor):
        result = executor.execute(Scan("clip").encode(Quality.HIGH))
        assert "encode:noop" in result.stats.operator_paths
        assert result.stats.encode_ops == 0

    def test_encode_requality_round_trips(self, executor):
        result = executor.execute(Scan("clip").encode(Quality.LOWEST))
        assert isinstance(result.value, EncodedVideo)
        assert result.stats.decode_ops == 3
        assert result.stats.encode_ops == 3

    def test_store_persists_result(self, executor, storage):
        query = Scan("clip").select(time=(0.0, 2.0)).map(udfs.grayscale).store("gray")
        result = executor.execute(query)
        meta = result.value
        assert meta.name == "gray"
        assert "gray" in storage.list_videos()
        decoded = storage.decode_window("gray", 0, meta.qualities[0])
        assert np.all(np.abs(decoded[0].u.astype(int) - 128) < 8)

    def test_store_grayscale_preserves_luma(self, executor, storage):
        executor.execute(Scan("clip").map(udfs.grayscale).store("gray2"))
        original = storage.decode_window("clip", 0, Quality.HIGH)[0]
        stored = storage.decode_window("gray2", 0, Quality.HIGH)[0]
        assert psnr(original, stored) > 30


class TestPipelines:
    def test_full_pipeline_stats(self, executor):
        """The watermark-style pipeline: scan, trim, transform, store."""
        query = (
            Scan("clip")
            .select(time=(0.0, 2.0))
            .map(udfs.invert)
            .store("negative")
        )
        result = executor.execute(query)
        paths = result.stats.operator_paths
        assert paths[0] == "scan:indexed"
        assert "select.time:homomorphic-gop" in paths
        assert "store:catalog" in paths

    def test_homomorphic_pipeline_never_decodes(self, executor):
        query = Scan("clip").select(time=(1.0, 3.0)).select(theta=(0.0, math.pi))
        result = executor.execute(query)
        assert result.stats.decode_ops == 0
        assert result.stats.encode_ops == 0
        assert result.stats.homomorphic_ops >= 3
