"""Tests for single-file export/import."""

import struct

import pytest

from repro import IngestConfig, Quality, TileGrid
from repro.cli import main
from repro.core.errors import CatalogError
from repro.core.export import _export_bytes, export_video, import_video, read_export
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


def _entry_past_mdat(moov, mdat):
    """The last ``stss`` entry's size runs one byte past the ``mdat``."""
    stss = moov.find_all("trak")[-1].find("stss")
    entries = parse_stss(stss)
    time_ms, file_version, size = entries[-1]
    entries[-1] = (time_ms, file_version, size + 1)
    stss.payload = make_stss(entries).payload


def _stco_past_mdat(moov, mdat):
    stco = moov.find("trak.stco")
    (count,) = struct.unpack_from(">I", stco.payload)
    offsets = [len(mdat.serialize())] * count
    stco.payload = struct.pack(f">I{count}I", count, *offsets)


def _csum_mismatch(moov, mdat):
    csum = moov.find("trak.csum")
    (first,) = struct.unpack_from(">I", csum.payload, 4)
    csum.payload = csum.payload[:4] + struct.pack(">I", first ^ 1) + csum.payload[8:]


def _other_projection(moov, mdat):
    moov.find("vcld.sv3d").payload = b"cubemap"


#: Each damage and the refusal it must draw.
DAMAGE = {
    "csum-mismatch": (_csum_mismatch, "fails its checksum"),
    "stco-past-mdat": (_stco_past_mdat, "runs past its mdat"),
    "stss-count-plus-5": (_stss_count_plus_5, "truncated or damaged"),
    "stss-entry-past-mdat": (_entry_past_mdat, "runs past its mdat"),
}


def _export_altered(storage, target, alter) -> None:
    """Export, alter the index, and reseal it under a fresh metadata
    checksum: a file whose writer was wrong, not one that rotted, so the
    refusal must come from the check named for the damage."""
    export_video(storage, "clip", target)
    ftyp, moov, _, mdat = Mp4File.parse(target.read_bytes()).atoms
    alter(moov, mdat)
    target.write_bytes(_export_bytes(Mp4File(atoms=[ftyp, moov]), mdat.payload))


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
        meta, windows = read_export(target)
        assert (meta.width, meta.height, meta.fps) == (64, 32, 4.0)
        assert meta.qualities == (Quality.HIGH,)
        assert meta.duration == pytest.approx(2.0)
        assert {entry.file_version for entry in meta.entries.values()} == {1}
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

    def test_import_refuses_an_existing_name(self, loaded, tmp_path, capsys):
        """Import makes version 1 of a new name; it never commits a version
        that replaces a stored video's ladder."""
        target = tmp_path / "exports" / "low.mp4"
        target.parent.mkdir()
        export_video(loaded.storage, "clip", target, Quality.LOW)
        stored = sorted(loaded.storage.catalog.video_dir("clip").rglob("*"))
        with pytest.raises(CatalogError, match="already exists"):
            import_video(loaded.storage, "clip", target)
        root = str(loaded.storage.catalog.root)
        assert main(["--root", root, "import", "clip", str(target)]) == 1
        assert "already exists" in capsys.readouterr().err
        assert sorted(loaded.storage.catalog.video_dir("clip").rglob("*")) == stored
        assert loaded.meta("clip").qualities == (Quality.HIGH, Quality.LOW)

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
        alter, refusal = DAMAGE[damage]
        _export_altered(loaded.storage, target, alter)
        with pytest.raises(CatalogError, match=refusal):
            read_export(target)
        code = main(["--root", str(tmp_path / "db"), "import", "copy", str(target)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: ")

    def test_every_metadata_bit_flip_is_refused(self, loaded, tmp_path):
        """The export's metadata carries its own checksum: no flipped bit
        of ``ftyp`` + ``moov`` imports, even one the parser would accept."""
        target = tmp_path / "clip.mp4"
        export_video(loaded.storage, "clip", target, Quality.LOW)
        data = target.read_bytes()
        ftyp, moov = Mp4File.parse(data).atoms[:2]
        flipped = tmp_path / "flipped.mp4"
        for position in range(len(ftyp.serialize()) + len(moov.serialize())):
            for bit in range(8):
                damaged = bytearray(data)
                damaged[position] ^= 1 << bit
                flipped.write_bytes(bytes(damaged))
                with pytest.raises(CatalogError):
                    read_export(flipped)

    def test_export_without_its_checksum_is_refused(self, loaded, tmp_path):
        target = tmp_path / "clip.mp4"
        export_video(loaded.storage, "clip", target)
        atoms = Mp4File.parse(target.read_bytes()).atoms
        assert [atom.kind for atom in atoms] == ["ftyp", "moov", "vcok", "mdat"]
        target.write_bytes(Mp4File(atoms=atoms[:2] + atoms[3:]).serialize())
        with pytest.raises(CatalogError, match="not a VisualCloud export"):
            read_export(target)

    def test_other_projection_is_refused(self, loaded, tmp_path):
        target = tmp_path / "cubemap.mp4"
        _export_altered(loaded.storage, target, _other_projection)
        with pytest.raises(CatalogError, match="cubemap"):
            read_export(target)
