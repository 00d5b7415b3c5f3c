"""Tests for the VisualCloud facade."""

import pytest

from repro import (
    ConstantBandwidth,
    IngestConfig,
    NaiveFullQuality,
    PredictiveTilingPolicy,
    Quality,
    SessionConfig,
    TileGrid,
)
from repro.core.errors import CatalogError
from repro.predict.traces import HeadMovementModel
from repro.workloads.videos import synthetic_video

CONFIG = IngestConfig(
    grid=TileGrid(2, 2),
    qualities=(Quality.HIGH, Quality.LOW),
    gop_frames=4,
    fps=4.0,
)


def load(db, name="clip", duration=2.0, seed=1):
    frames = synthetic_video("venice", width=64, height=32, fps=4.0, duration=duration, seed=seed)
    return db.ingest(name, frames, CONFIG)


class TestCatalogFacade:
    def test_fresh_db_is_empty(self, db):
        assert db.list_videos() == []

    def test_ingest_and_list(self, db):
        load(db)
        assert db.list_videos() == ["clip"]

    def test_meta_passthrough(self, db):
        load(db)
        assert db.meta("clip").gop_count == 2

    def test_drop(self, db):
        load(db)
        db.drop("clip")
        assert "clip" not in db.list_videos()

    def test_drop_missing(self, db):
        with pytest.raises(CatalogError):
            db.drop("ghost")

    def test_default_ingest_config(self, db):
        frames = synthetic_video(
            "venice", width=128, height=64, fps=30.0, duration=1.0, seed=0
        )
        meta = db.ingest("default", frames)
        assert meta.grid == TileGrid(4, 4)


class TestServeFacade:
    def test_serve_round_trip(self, db):
        load(db, duration=3.0)
        trace = HeadMovementModel().generate(3.0, rate=10.0, seed=2)
        report = db.serve(
            "clip",
            (
                trace,
                SessionConfig(
                    policy=NaiveFullQuality(), bandwidth=ConstantBandwidth(1e6)
                ),
            ),
        )
        assert len(report.records) == 3

    def test_train_predictor_then_markov_session(self, db):
        load(db, duration=3.0)
        corpus = HeadMovementModel().generate_corpus(2, 3.0, rate=10.0, seed=4)
        db.train_predictor("clip", corpus)
        trace = HeadMovementModel().generate(3.0, rate=10.0, seed=5)
        report = db.serve(
            "clip",
            (
                trace,
                SessionConfig(
                    policy=PredictiveTilingPolicy(),
                    bandwidth=ConstantBandwidth(1e6),
                    predictor="markov",
                ),
            ),
        )
        assert len(report.records) == 3


class TestStatsFacade:
    def test_stats_merges_metrics_registry(self, db):
        load(db, duration=3.0)
        trace = HeadMovementModel().generate(3.0, rate=10.0, seed=2)
        db.serve(
            "clip",
            (
                trace,
                SessionConfig(
                    policy=NaiveFullQuality(), bandwidth=ConstantBandwidth(1e6)
                ),
            ),
        )
        snapshot = db.stats()
        assert "clip" in snapshot["videos"]
        metrics = snapshot["metrics"]
        assert metrics["counters"]["storage.segments_written"] > 0
        assert metrics["counters"]["storage.segments_read"] > 0
        assert any(key.startswith("stream.windows") for key in metrics["counters"])
        assert metrics["histograms"]["storage.read_segment.seconds"]["count"] > 0

    def test_one_registry_spans_all_components(self, db):
        assert db.storage.metrics is db.metrics
        assert db.prediction.metrics is db.metrics
        assert db.streamer.metrics is db.metrics
        assert db.storage.segment_cache.metrics is db.metrics
