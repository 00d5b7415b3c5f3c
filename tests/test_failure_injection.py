"""Failure injection: corrupted files, truncated inputs, hostile bytes.

A storage system's error paths are part of its contract: a damaged
segment must surface as a database error (never a wrong image, a raw
``FileNotFoundError``, or an unrelated crash), and the container parsers
must reject arbitrary bytes with controlled exceptions.

The corruption cases are no longer hand-rolled; they come from the
structural corpora in :mod:`repro.chaos.corrupt` — truncation at every
framing boundary, bit flips aimed at header vs payload, the empty file —
so every parser sees damage exactly where real damage lands.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IngestConfig, Quality, TileGrid
from repro.chaos.corrupt import (
    atom_boundaries,
    bit_flip,
    gop_boundaries,
    metadata_corruption_corpus,
    segment_corruption_corpus,
    truncate,
)
from repro.cli import main
from repro.core.errors import CatalogError, SegmentCorruptError, SegmentNotFoundError
from repro.core.export import export_video, read_export
from repro.core.metadata import parse_metadata_file
from repro.video.frame import Frame
from repro.video.gop import _HEADER, GOP_FORMAT_VERSION, GOP_MAGIC, decode_gop, encode_gop
from repro.video.mp4 import Mp4File, parse_atoms
from repro.workloads.videos import checkerboard_video, synthetic_video
from tests import segment_damage

CONFIG = IngestConfig(
    grid=TileGrid(2, 2),
    qualities=(Quality.HIGH,),
    gop_frames=4,
    fps=4.0,
)

# A canonical encoded GOP, fixed at collection time so the corruption
# corpus can drive pytest parametrization with one test id per case.
_CANONICAL_GOP = encode_gop(checkerboard_video(32, 32, frames=4), Quality.HIGH)
SEGMENT_CORPUS = segment_corruption_corpus(_CANONICAL_GOP, seed=5)


@pytest.fixture()
def loaded(db):
    frames = synthetic_video("venice", width=64, height=32, fps=4, duration=2, seed=31)
    db.ingest("clip", frames, CONFIG)
    return db


FIRST = (0, (0, 0), Quality.HIGH)  # the first segment of GOP 0's pack


class TestSegmentCorpus:
    """The decoder's contract over the structural corruption corpus."""

    def test_corpus_covers_the_framing(self):
        boundaries = gop_boundaries(_CANONICAL_GOP)
        # 0, magic end, header end, end: the frames are one bit stream.
        assert boundaries == [0, 4, 12, len(_CANONICAL_GOP)]
        labels = [label for label, _ in SEGMENT_CORPUS]
        assert "zero-length" in labels
        assert any(label.startswith("truncate@") for label in labels)
        assert any(label.startswith("header-bitflip@") for label in labels)
        assert any(label.startswith("payload-bitflip@") for label in labels)

    @pytest.mark.parametrize(
        "label,payload", SEGMENT_CORPUS, ids=[label for label, _ in SEGMENT_CORPUS]
    )
    def test_decode_of_corrupted_gop_is_controlled(self, label, payload):
        try:
            frames = decode_gop(payload, 32, 32, 4)
        except (ValueError, EOFError):
            return  # a controlled failure is a pass
        assert isinstance(frames, list)
        assert all(isinstance(frame, Frame) for frame in frames)

    @pytest.mark.parametrize(
        "label,payload",
        [case for case in SEGMENT_CORPUS if case[0].startswith(("truncate", "zero"))],
        ids=[
            case[0]
            for case in SEGMENT_CORPUS
            if case[0].startswith(("truncate", "zero"))
        ],
    )
    def test_truncation_never_decodes(self, label, payload):
        # A short stream must never quietly yield frames: either the
        # header, the frame count, or a frame payload comes up short.
        with pytest.raises((ValueError, EOFError)):
            decode_gop(payload, 32, 32, 4)

    def test_corpus_is_seed_deterministic(self):
        again = segment_corruption_corpus(_CANONICAL_GOP, seed=5)
        assert again == SEGMENT_CORPUS
        shifted = segment_corruption_corpus(_CANONICAL_GOP, seed=6)
        assert [label for label, _ in shifted] != [label for label, _ in SEGMENT_CORPUS]


class TestDamagedSegments:
    def test_truncated_segment_detected_by_size_check(self, loaded):
        segment_damage.truncate(loaded.storage, "clip", FIRST, short_by=10)
        with pytest.raises(SegmentNotFoundError, match="index says"):
            loaded.storage.read_segment("clip", 0, (0, 0), Quality.HIGH)

    def test_deleted_segment_raises_database_error(self, loaded):
        # Regression: this used to leak a raw FileNotFoundError out of
        # Streamer.serve when the file vanished under a live session.
        segment_damage.delete(loaded.storage, "clip", FIRST)
        with pytest.raises(SegmentNotFoundError, match="missing from disk") as excinfo:
            loaded.storage.read_segment("clip", 0, (0, 0), Quality.HIGH)
        assert not isinstance(excinfo.value, FileNotFoundError)
        assert isinstance(excinfo.value.__cause__, FileNotFoundError)

    def test_deleted_segment_does_not_crash_a_session(self, loaded):
        # End-to-end: the streamer degrades/skips, it never propagates
        # an OS error to the viewer.
        from repro import ConstantBandwidth, SessionConfig, UniformAdaptive
        from repro.workloads.users import ViewerPopulation

        segment_damage.delete(loaded.storage, "clip", (1, (0, 1), Quality.HIGH))
        loaded.storage.segment_cache.invalidate_prefix("clip")
        trace = ViewerPopulation(seed=3).trace(0, duration=2.0, rate=10.0)
        config = SessionConfig(
            policy=UniformAdaptive(), bandwidth=ConstantBandwidth(50_000.0)
        )
        report = loaded.serve("clip", (trace, config))
        assert len(report.records) == loaded.meta("clip").gop_count

    def test_corrupted_segment_reads_are_controlled(self, loaded):
        # Every corpus case applied to the real on-disk segment: the
        # storage layer either refuses with a database error or serves
        # bytes whose decode fails in a controlled way.
        storage = loaded.storage
        pack = segment_damage.locate(storage, "clip", FIRST)[0].read_bytes()
        original = segment_damage.stored(storage, "clip", FIRST)
        corpus = segment_corruption_corpus(original, seed=9)
        for label, payload in corpus:
            segment_damage.splice(storage, "clip", FIRST, payload, pack=pack)
            storage.segment_cache.invalidate_prefix("clip")
            try:
                data = loaded.storage.read_segment("clip", 0, (0, 0), Quality.HIGH)
            except SegmentNotFoundError:
                continue  # includes SegmentCorruptError (size mismatch)
            assert len(data) == len(original), label
            try:
                frames = decode_gop(data, 32, 16, 4)
            except (ValueError, EOFError):
                continue
            assert isinstance(frames, list), label

    def test_size_mismatch_is_reported_as_corruption(self, loaded):
        size = segment_damage.locate(loaded.storage, "clip", FIRST)[1].size
        segment_damage.truncate(loaded.storage, "clip", FIRST, short_by=size)  # reads empty
        with pytest.raises(SegmentCorruptError):
            loaded.storage.read_segment("clip", 0, (0, 0), Quality.HIGH)


class TestDamagedMetadata:
    """Rotted metadata meets two gates: ``meta`` refuses a file that is not
    what its commit marker recorded, and behind that the parser itself
    rejects damage in a controlled way — each is exercised directly."""

    def _refused_by_meta(self, loaded, payload: bytes) -> None:
        path = loaded.storage.catalog.metadata_path("clip", 1)
        path.write_bytes(payload)
        loaded.storage._meta_cache.clear()
        with pytest.raises(CatalogError, match="commit marker"):
            loaded.meta("clip")

    def test_metadata_corpus_never_crashes_uncontrolled(self, loaded):
        path = loaded.storage.catalog.metadata_path("clip", 1)
        original = path.read_bytes()
        for label, payload in metadata_corruption_corpus(original, seed=3):
            if payload != original:
                self._refused_by_meta(loaded, payload)
            try:
                meta = parse_metadata_file("clip", payload)
            except (CatalogError, ValueError, EOFError):
                continue  # controlled rejection
            # A surviving parse (e.g. a flipped bit in a name payload)
            # must still describe the same segmentation.
            assert meta.gop_count >= 1, label

    def test_every_vinf_bit_flip_is_controlled(self, loaded):
        """The layout leaf feeds indexing and division: a rotted quality
        rank or fps is a CatalogError, not an IndexError or a
        ZeroDivisionError — and ``meta`` never gets as far as parsing it."""
        path = loaded.storage.catalog.metadata_path("clip", 1)
        original = path.read_bytes()
        start = original.index(b"vinf") + 4
        end = start - 8 + int.from_bytes(original[start - 8 : start - 4], "big")
        for position in range(start, end):
            for bit in range(8):
                flipped = bit_flip(original, position, bit)
                try:
                    parse_metadata_file("clip", flipped)
                except (CatalogError, ValueError, EOFError):
                    pass
        self._refused_by_meta(loaded, bit_flip(original, start, 0))

    def test_truncated_metadata_rejected(self, loaded):
        path = loaded.storage.catalog.metadata_path("clip", 1)
        truncated = path.read_bytes()[:20]
        with pytest.raises((CatalogError, ValueError)):
            parse_metadata_file("clip", truncated)
        self._refused_by_meta(loaded, truncated)

    def test_garbage_metadata_rejected(self, loaded):
        garbage = b"\xde\xad\xbe\xef" * 64
        with pytest.raises((CatalogError, ValueError)):
            parse_metadata_file("clip", garbage)
        self._refused_by_meta(loaded, garbage)

    def test_metadata_without_vcld_atoms_rejected(self, loaded):
        from repro.video.mp4 import Atom, Mp4File

        bare = Mp4File(atoms=[Atom("moov", children=[])]).serialize()
        with pytest.raises(CatalogError, match="missing VisualCloud atoms"):
            parse_metadata_file("clip", bare)
        self._refused_by_meta(loaded, bare)


class TestHostileBytes:
    """Parsers must fail with ValueError/EOFError on arbitrary input —
    never index errors, struct errors, or silent nonsense."""

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_gop_decoder_contains_failures(self, data):
        try:
            frames = decode_gop(data, 16, 16, 1)
        except (ValueError, EOFError):
            return
        # If it "decoded", the framing must at least have been coherent.
        assert isinstance(frames, list)

    def test_export_reader_contains_failures(self, loaded, tmp_path, capsys):
        """The export reader's contract is the store's: a truncation at or
        one byte short of every atom edge, and one flipped bit in each
        segment, is a CatalogError — and the CLI refuses the file whole."""
        source = tmp_path / "clip.mp4"
        export_video(loaded.storage, "clip", source)
        data = source.read_bytes()
        mdat_start = len(data) - len(Mp4File.parse(data).find("mdat").serialize())
        damaged = [
            truncate(data, length)
            for boundary in atom_boundaries(data)
            for length in {boundary - 1, boundary}
            if 0 <= length < len(data)
        ] + [
            bit_flip(data, mdat_start + entry.offset + entry.size // 2, bit=3)
            for entry in read_export(source)[0].entries.values()
        ]
        target = tmp_path / "damaged.mp4"
        for case in damaged:
            target.write_bytes(case)
            with pytest.raises(CatalogError):
                read_export(target)

        root = str(loaded.storage.catalog.root)
        main(["--root", root, "ls"])
        listed = capsys.readouterr().out
        assert main(["--root", root, "import", "copy", str(target)]) == 1
        refusal = capsys.readouterr().err
        assert refusal.startswith("error: ") and "fails its checksum" in refusal
        main(["--root", root, "ls"])
        assert capsys.readouterr().out == listed

    @given(st.binary(max_size=200))
    @settings(max_examples=200)
    def test_atom_parser_contains_failures(self, data):
        try:
            atoms = parse_atoms(data)
        except (ValueError, UnicodeDecodeError):
            return
        assert isinstance(atoms, list)

    @given(st.binary(min_size=1, max_size=300))
    @settings(max_examples=100)
    def test_frame_decoder_contains_failures(self, data):
        gop = _HEADER.pack(GOP_MAGIC, GOP_FORMAT_VERSION, 0, 16, 16, 1)
        try:
            (frame,) = decode_gop(gop + data, 16, 16, 1)
        except (ValueError, EOFError):
            return
        assert isinstance(frame, Frame)
