"""Tests for single-file export/import."""

import struct

import pytest

from repro import IngestConfig, Quality, TileGrid
from repro.cli import main
from repro.core.errors import CatalogError
from repro.core.export import export_video, import_video, read_export
from repro.video.mp4 import Mp4File, make_stss, parse_stss
from repro.workloads.videos import synthetic_video

CONFIG = IngestConfig(
    grid=TileGrid(2, 2),
    qualities=(Quality.HIGH, Quality.LOW),
    gop_frames=4,
    fps=4.0,
)


def _stss_count_plus_5(moov, mdat):
    stss = moov.find("trak.stss")
    (count,) = struct.unpack_from(">I", stss.payload)
    stss.payload = struct.pack(">I", count + 5) + stss.payload[4:]


def _truncated_mvhd(moov, mdat):
    moov.find("mvhd").payload = moov.find("mvhd").payload[:4]


def _entry_past_mdat(moov, mdat):
    stss = moov.find("trak.stss")
    entries = parse_stss(stss)
    time_ms, _, size = entries[-1]
    entries[-1] = (time_ms, len(mdat.payload), size)
    stss.payload = make_stss(entries).payload


def _other_projection(moov, mdat):
    moov.find("vcld.sv3d").payload = b"cubemap"


DAMAGE = {
    "stss-count-plus-5": _stss_count_plus_5,
    "truncated-mvhd": _truncated_mvhd,
    "stss-entry-past-mdat": _entry_past_mdat,
}


def _export_altered(storage, target, alter) -> None:
    export_video(storage, "clip", target)
    mp4 = Mp4File.parse(target.read_bytes())
    alter(mp4.find("moov"), mp4.find("mdat"))
    target.write_bytes(mp4.serialize())


@pytest.fixture()
def loaded(db):
    frames = synthetic_video("venice", width=64, height=32, fps=4, duration=2, seed=8)
    db.ingest("clip", frames, CONFIG)
    return db


class TestExport:
    def test_export_writes_parseable_file(self, loaded, tmp_path):
        target = tmp_path / "clip.mp4"
        written = export_video(loaded.storage, "clip", target)
        assert written == target.stat().st_size
        info, windows = read_export(target)
        assert info["codec"] == "vctg"
        assert info["width"] == 64
        assert info["quality"] == "high"
        assert info["duration"] == pytest.approx(2.0)
        assert len(windows) == 2

    def test_export_specific_quality(self, loaded, tmp_path):
        high = export_video(loaded.storage, "clip", tmp_path / "h.mp4", Quality.HIGH)
        low = export_video(loaded.storage, "clip", tmp_path / "l.mp4", Quality.LOW)
        assert low < high

    def test_export_decodes_to_the_stored_frames(self, loaded, tmp_path):
        target = tmp_path / "clip.mp4"
        export_video(loaded.storage, "clip", target)
        decoded = [frame for window in read_export(target)[1] for frame in window.decode()]
        assert len(decoded) == 8
        reference = loaded.storage.decode_window("clip", 0, Quality.HIGH)
        assert decoded[0].equals(reference[0])

    def test_round_trip_through_import(self, loaded, tmp_path):
        target = tmp_path / "clip.mp4"
        export_video(loaded.storage, "clip", target)
        meta = import_video(loaded.storage, "copy", target)
        assert meta.gop_count == 2
        original = loaded.storage.decode_window("clip", 1, Quality.HIGH)
        imported = loaded.storage.decode_window("copy", 1, Quality.HIGH)
        assert original[0].equals(imported[0])  # stored bytes, no transcode

    def test_import_bad_file(self, loaded, tmp_path):
        bad = tmp_path / "bad.mp4"
        bad.write_bytes(b"\x00\x00\x00\x08free")
        with pytest.raises(CatalogError):
            import_video(loaded.storage, "x", bad)

    def test_import_missing_atoms(self, loaded, tmp_path):
        from repro.video.mp4 import Atom, Mp4File

        half = tmp_path / "half.mp4"
        half.write_bytes(
            Mp4File(
                atoms=[Atom("moov", children=[]), Atom("mdat", payload=b"")]
            ).serialize()
        )
        with pytest.raises(CatalogError):
            read_export(half)

    @pytest.mark.parametrize("damage", sorted(DAMAGE))
    def test_damaged_export_is_a_catalog_error(self, loaded, tmp_path, capsys, damage):
        target = tmp_path / "damaged.mp4"
        _export_altered(loaded.storage, target, DAMAGE[damage])
        with pytest.raises(CatalogError):
            read_export(target)
        code = main(["--root", str(tmp_path / "db"), "import", "copy", str(target)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_other_projection_is_refused(self, loaded, tmp_path):
        target = tmp_path / "cubemap.mp4"
        _export_altered(loaded.storage, target, _other_projection)
        with pytest.raises(CatalogError, match="cubemap"):
            read_export(target)
