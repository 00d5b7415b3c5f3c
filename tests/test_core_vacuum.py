"""Tests for version retention, vacuum, stats, and RTT."""

import pytest

from repro import (
    ConstantBandwidth,
    IngestConfig,
    NaiveFullQuality,
    Quality,
    SessionConfig,
    TileGrid,
)
from repro.core.errors import CatalogError
from repro.stream.network import SimulatedLink
from repro.workloads.videos import synthetic_video

CONFIG = IngestConfig(
    grid=TileGrid(2, 2),
    qualities=(Quality.HIGH,),
    gop_frames=4,
    fps=4.0,
)


@pytest.fixture()
def versioned(db):
    """A video with three versions (ingest + two appends)."""
    frames = synthetic_video("venice", width=64, height=32, fps=4, duration=1, seed=41)
    db.ingest("clip", frames, CONFIG)
    for seed in (42, 43):
        more = synthetic_video("venice", width=64, height=32, fps=4, duration=1, seed=seed)
        db.append("clip", more)
    return db


class TestVacuum:
    def test_vacuum_keeps_latest_fully_readable(self, versioned):
        before = versioned.meta("clip")
        files, freed = versioned.vacuum("clip", keep_versions=1)
        assert files == 0  # appends share files; nothing is unreferenced
        assert freed == 0
        after = versioned.meta("clip")
        assert after.entries == before.entries
        for gop in range(after.gop_count):
            versioned.storage.read_segment("clip", gop, (0, 0), Quality.HIGH)

    def test_vacuum_drops_old_metadata(self, versioned):
        versioned.vacuum("clip", keep_versions=1)
        assert versioned.storage.catalog.versions("clip") == [3]
        with pytest.raises(CatalogError):
            versioned.meta("clip", version=1)

    def test_vacuum_after_overwrite_frees_bytes(self, versioned):
        # A full re-store supersedes every old pack.
        meta = versioned.meta("clip")
        windows = [
            versioned.storage.read_window(
                "clip", gop, {tile: Quality.HIGH for tile in meta.grid.tiles()}
            )
            for gop in range(meta.gop_count)
        ]
        versioned.storage.store_windows("clip", windows, fps=meta.fps)
        files, freed = versioned.vacuum("clip", keep_versions=1)
        assert files > 0
        assert freed > 0
        latest = versioned.meta("clip")
        for gop in range(latest.gop_count):
            versioned.storage.read_segment("clip", gop, (1, 1), Quality.HIGH)

    def test_vacuum_spares_an_uncommitted_append(self, versioned):
        """Packs an append has published but not yet committed are the
        next version, not garbage: vacuum deletes only what the versions it
        drops pointed into, and orphans stay ``fsck --repair``'s."""
        storage = versioned.storage
        pending = storage.catalog.pack_path("clip", 3, 4)
        pending.write_bytes(b"the next version's pack")
        versioned.vacuum("clip", keep_versions=1)
        assert pending.read_bytes() == b"the next version's pack"
        orphans = storage.fsck(repair=True)["orphan_packs"]
        assert orphans == [str(pending.relative_to(storage.catalog.root))]

    def test_vacuum_keep_two(self, versioned):
        versioned.vacuum("clip", keep_versions=2)
        assert versioned.storage.catalog.versions("clip") == [2, 3]

    def test_vacuum_validates_keep(self, versioned):
        with pytest.raises(ValueError):
            versioned.vacuum("clip", keep_versions=0)

    def test_vacuum_missing_video(self, db):
        with pytest.raises(CatalogError):
            db.vacuum("ghost")


class TestStats:
    def test_stats_shape(self, versioned):
        snapshot = versioned.stats()
        assert "clip" in snapshot["videos"]
        info = snapshot["videos"]["clip"]
        assert info["version"] == 3
        assert info["versions"] == 3
        assert info["bytes"] == versioned.storage.total_bytes("clip")
        assert snapshot["cache"]["capacity"] > 0

    def test_stats_counts_cache_activity(self, versioned):
        versioned.storage.read_segment("clip", 0, (0, 0), Quality.HIGH)
        versioned.storage.read_segment("clip", 0, (0, 0), Quality.HIGH)
        cache = versioned.stats()["cache"]
        assert cache["entries"] >= 1
        assert cache["hit_rate"] > 0

    def test_stats_empty_db(self, db):
        snapshot = db.stats()
        assert snapshot["videos"] == {}


class TestRtt:
    def test_rtt_delays_first_byte(self):
        link = SimulatedLink(ConstantBandwidth(100.0), rtt=0.5)
        assert link.transfer(100, 0.0) == pytest.approx(1.5)

    def test_rtt_charged_per_request(self):
        link = SimulatedLink(ConstantBandwidth(100.0), rtt=0.5)
        link.transfer(100, 0.0)
        assert link.transfer(100, 0.0) == pytest.approx(3.0)

    def test_negative_rtt_rejected(self):
        with pytest.raises(ValueError):
            SimulatedLink(ConstantBandwidth(1.0), rtt=-0.1)

    def test_session_with_rtt_still_completes(self, session_db):
        from repro.workloads.users import ViewerPopulation

        trace = ViewerPopulation(seed=2).trace(0, duration=3.0, rate=10.0)
        report = session_db.serve(
            "clip",
            (
                trace,
                SessionConfig(
                    policy=NaiveFullQuality(),
                    bandwidth=ConstantBandwidth(1e6),
                    rtt=0.05,
                ),
            ),
        )
        assert len(report.records) == 3
        # RTT shows up in delivery times: never faster than one RTT.
        assert all(
            record.delivered_time - record.request_time >= 0.05
            for record in report.records
        )


class TestCliVacuumStats:
    def test_cli_commands(self, tmp_path, capsys):
        from repro.cli import main

        root = ["--root", str(tmp_path / "db")]
        assert (
            main(
                root
                + [
                    "ingest", "demo", "--width", "64", "--height", "32",
                    "--duration", "1", "--fps", "4", "--grid", "2x2",
                    "--gop-frames", "4", "--qualities", "high",
                ]
            )
            == 0
        )
        assert main(root + ["vacuum", "demo"]) == 0
        assert "vacuumed" in capsys.readouterr().out
        assert main(root + ["stats"]) == 0
        out = capsys.readouterr().out
        assert "demo: v1" in out
        assert "cache:" in out
