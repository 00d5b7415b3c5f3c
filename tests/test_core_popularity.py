"""Tests for tile popularity and popularity-driven partial storage."""

import math

import numpy as np
import pytest

from repro import (
    ConstantBandwidth,
    IngestConfig,
    NaiveFullQuality,
    PredictiveTilingPolicy,
    Quality,
    SessionConfig,
    TileGrid,
    Viewport,
)
from repro.core.errors import IngestError
from repro.core.popularity import StoragePlanner, tile_popularity
from repro.predict.traces import circular_pan_trace
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

GRID = TileGrid(2, 4)
QUALITIES = (Quality.HIGH, Quality.LOW)


def equatorial_trace(duration=4.0):
    return circular_pan_trace(duration, rate=10.0, period=1e9)  # static at equator


class TestTilePopularity:
    def test_probabilities_in_unit_range(self):
        traces = ViewerPopulation(seed=1).traces(2, duration=4.0, rate=10.0)
        popularity = tile_popularity(traces, GRID, Viewport())
        assert popularity.shape == (2, 4)
        assert np.all((popularity >= 0) & (popularity <= 1))

    def test_static_gaze_marks_its_tiles(self):
        popularity = tile_popularity([equatorial_trace()], GRID, Viewport())
        # The viewer stares at theta=0 on the equator forever.
        gazed = GRID.tile_of(0.0, math.pi / 2)
        assert popularity[gazed] == pytest.approx(1.0)
        far_side = GRID.tile_of(math.pi, math.pi / 2)
        assert popularity[far_side] < 0.5

    def test_requires_traces(self):
        with pytest.raises(ValueError):
            tile_popularity([], GRID, Viewport())

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            tile_popularity([equatorial_trace()], GRID, Viewport(), samples_per_second=0)


class TestStoragePlanner:
    def test_hot_tiles_get_full_ladder(self):
        planner = StoragePlanner(QUALITIES, hot_threshold=0.5)
        popularity = np.zeros((2, 4))
        popularity[0, 0] = 0.9
        plan = planner.plan(popularity, GRID)
        assert plan[(0, 0)] == QUALITIES
        assert plan[(1, 3)] == (Quality.LOW,)

    def test_every_tile_keeps_a_rung(self):
        planner = StoragePlanner(QUALITIES, hot_threshold=1.1)  # nothing is hot
        plan = planner.plan(np.zeros((2, 4)), GRID)
        assert all(ladder for ladder in plan.values())

    def test_cold_rungs_count(self):
        planner = StoragePlanner(
            (Quality.HIGH, Quality.MEDIUM, Quality.LOW), hot_threshold=2.0, cold_rungs=2
        )
        plan = planner.plan(np.zeros((2, 4)), GRID)
        assert plan[(0, 0)] == (Quality.MEDIUM, Quality.LOW)

    def test_validation(self):
        with pytest.raises(ValueError):
            StoragePlanner(())
        with pytest.raises(ValueError):
            StoragePlanner((Quality.LOW, Quality.HIGH))
        with pytest.raises(ValueError):
            StoragePlanner(QUALITIES, hot_threshold=2.0, cold_rungs=0)
        with pytest.raises(ValueError):
            StoragePlanner(QUALITIES, hot_threshold=-0.1)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            StoragePlanner(QUALITIES).plan(np.zeros((3, 3)), GRID)


class TestPartialStorageEndToEnd:
    @pytest.fixture()
    def partial_db(self, db):
        # Hot: the front equatorial tiles; cold: everything else.
        plan = {
            tile: (QUALITIES if tile in {(1, 0), (0, 0)} else (Quality.LOW,))
            for tile in GRID.tiles()
        }
        config = IngestConfig(grid=GRID, qualities=QUALITIES, gop_frames=4, fps=4.0)
        frames = synthetic_video("venice", width=128, height=64, fps=4, duration=2, seed=6)
        db.ingest("clip", frames, config, quality_plan=plan)
        return db

    def test_partial_ingest_skips_cold_high(self, partial_db):
        meta = partial_db.meta("clip")
        assert (0, (0, 0), Quality.HIGH) in meta.entries
        assert (0, (0, 1), Quality.HIGH) not in meta.entries
        assert (0, (0, 1), Quality.LOW) in meta.entries

    def test_partial_store_is_smaller(self, db):
        config = IngestConfig(grid=GRID, qualities=QUALITIES, gop_frames=4, fps=4.0)
        frames = list(
            synthetic_video("venice", width=128, height=64, fps=4, duration=2, seed=6)
        )
        db.ingest("full", iter(frames), config)
        plan = {tile: (Quality.LOW,) for tile in GRID.tiles()}
        db.ingest("cold", iter(frames), config, quality_plan=plan)
        assert db.storage.total_bytes("cold") < db.storage.total_bytes("full") / 2

    def test_manifest_resolves_missing_rungs(self, partial_db):
        manifest = partial_db.storage.build_manifest("clip")
        assert manifest.resolve(0, (0, 0), Quality.HIGH) is Quality.HIGH
        assert manifest.resolve(0, (0, 1), Quality.HIGH) is Quality.LOW
        assert manifest.available(0, (0, 1)) == (Quality.LOW,)

    def test_serving_partial_store_works(self, partial_db):
        trace = equatorial_trace(duration=2.0)
        report = partial_db.serve(
            "clip",
            (
                trace,
                SessionConfig(
                    policy=PredictiveTilingPolicy(),
                    bandwidth=ConstantBandwidth(1e6),
                    predictor="static",
                    margin=0,
                ),
            ),
        )
        assert len(report.records) == 2
        # Shipped qualities are always stored qualities.
        meta = partial_db.meta("clip")
        for record in report.records:
            for tile, quality in record.quality_map.items():
                assert (record.window, tile, quality) in meta.entries

    def test_naive_on_partial_store_degrades_cold_tiles(self, partial_db):
        trace = equatorial_trace(duration=2.0)
        report = partial_db.serve(
            "clip",
            (
                trace,
                SessionConfig(
                    policy=NaiveFullQuality(), bandwidth=ConstantBandwidth(1e6)
                ),
            ),
        )
        record = report.records[0]
        assert record.quality_map[(0, 0)] is Quality.HIGH
        assert record.quality_map[(0, 1)] is Quality.LOW  # resolved down

    def test_append_preserves_plan(self, partial_db):
        more = synthetic_video("venice", width=128, height=64, fps=4, duration=1, seed=7)
        meta = partial_db.append("clip", more)
        assert (2, (0, 0), Quality.HIGH) in meta.entries
        assert (2, (0, 1), Quality.HIGH) not in meta.entries

    def test_plan_validation_at_ingest(self, db):
        config = IngestConfig(grid=GRID, qualities=QUALITIES, gop_frames=4, fps=4.0)
        frames = synthetic_video("venice", width=128, height=64, fps=4, duration=1, seed=6)
        with pytest.raises(IngestError):
            db.ingest("bad", frames, config, quality_plan={(0, 0): ()})
        with pytest.raises(IngestError):
            db.ingest(
                "bad2",
                frames,
                config,
                quality_plan={(0, 0): (Quality.THUMBNAIL,)},
            )
