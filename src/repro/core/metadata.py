"""The per-version metadata file: its in-memory form and its atom codec.

One ``metadata_vN.mp4`` describes one committed version of one video: a
``vcld`` box with the layout (``vinf``) and projection (``sv3d``), then one
``trak`` per (tile, quality) stream. A ``trak``'s ``stss`` is the GOP
index — one ``(time, file_version, size)`` per stored segment — and two
sibling leaves run parallel to it, one ``>I`` per ``stss`` entry in the
same order:

``csum``  the segment's content checksum (``storage.segment_checksum``)
``stco``  the segment's byte offset inside its GOP's pack

so ``(file_version, offset, size)`` locate a segment's bytes inside the
pack its GOP was written to, and ``checksum`` says what they must hash to.
The leaves ride beside ``stss`` rather than widening its record. An
export (``repro.core.export``) is this file for one rung followed by one
``mdat`` that its offsets index.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.core.errors import CatalogError
from repro.geometry.grid import TileGrid
from repro.stream.dash import SegmentKey
from repro.video.mp4 import (
    Atom,
    Mp4File,
    make_ftyp,
    make_mvhd,
    make_stsd,
    make_stss,
    make_sv3d,
    parse_stsd,
    parse_stss,
    parse_sv3d,
)
from repro.video.quality import Quality

#: The one projection the tile grid, viewport and tiler model; every
#: version records it in ``sv3d``, and a reader refuses any other.
PROJECTION = "equirectangular"


@dataclass(frozen=True)
class SegmentEntry:
    """Index entry for one stored segment: ``size`` bytes at ``offset`` in
    the pack that version ``file_version`` wrote for the segment's GOP,
    and what those bytes must hash to (``storage.segment_checksum``)."""

    size: int
    file_version: int  # the version whose STORE wrote the bytes
    checksum: int
    offset: int


@dataclass
class VideoMeta:
    """Parsed metadata for one version of one stored video."""

    name: str
    version: int
    width: int
    height: int
    fps: float
    grid: TileGrid
    gop_frames: int
    qualities: tuple[Quality, ...]
    streaming: bool
    gop_frame_counts: list[int]
    entries: dict[SegmentKey, SegmentEntry] = field(default_factory=dict)

    @property
    def gop_count(self) -> int:
        return len(self.gop_frame_counts)

    @property
    def gop_duration(self) -> float:
        return self.gop_frames / self.fps

    @property
    def duration(self) -> float:
        return sum(self.gop_frame_counts) / self.fps

    def gop_start_time(self, gop: int) -> float:
        if not 0 <= gop < self.gop_count:
            raise IndexError(f"GOP {gop} outside [0, {self.gop_count})")
        return sum(self.gop_frame_counts[:gop]) / self.fps


_VINF = struct.Struct(">HHdBBHIB B")  # w, h, fps, rows, cols, gop_frames, version, streaming, qcount


def _words(kind: str, values: list[int]) -> Atom:
    """A leaf of ``>I`` words after a ``>I`` count (``csum``, ``stco``)."""
    return Atom(kind, payload=struct.pack(f">I{len(values)}I", len(values), *values))


def _parse_words(name: str, atom: Atom, expected: int) -> tuple[int, ...]:
    (count,) = struct.unpack_from(">I", atom.payload)
    if count != expected:
        raise CatalogError(
            f"metadata for {name!r} has a trak with {count} {atom.kind} entries "
            f"for {expected} segments"
        )
    return struct.unpack_from(f">{count}I", atom.payload, 4)


def build_metadata_file(meta: VideoMeta) -> Mp4File:
    vinf_payload = _VINF.pack(
        meta.width,
        meta.height,
        meta.fps,
        meta.grid.rows,
        meta.grid.cols,
        meta.gop_frames,
        meta.version,
        1 if meta.streaming else 0,
        len(meta.qualities),
    )
    vinf_payload += bytes(quality.rank for quality in meta.qualities)
    vinf_payload += struct.pack(">I", meta.gop_count)
    vinf_payload += b"".join(struct.pack(">H", count) for count in meta.gop_frame_counts)

    vcld = Atom(
        "vcld",
        children=[Atom("vinf", payload=vinf_payload), make_sv3d(PROJECTION)],
    )
    traks = []
    tile_width = meta.width // meta.grid.cols
    tile_height = meta.height // meta.grid.rows
    for tile in meta.grid.tiles():
        for quality in meta.qualities:
            samples = []
            stored = []
            for gop in range(meta.gop_count):
                entry = meta.entries.get((gop, tile, quality))
                if entry is None:
                    continue
                time_ms = int(round(meta.gop_start_time(gop) * 1000))
                samples.append((time_ms, entry.file_version, entry.size))
                stored.append(entry)
            if not samples:
                continue
            traks.append(
                Atom(
                    "trak",
                    children=[
                        make_stsd("vcbd", tile_width, tile_height, meta.fps, quality.label),
                        Atom("tloc", payload=struct.pack(">BB", *tile)),
                        make_stss(samples),
                        _words("csum", [entry.checksum for entry in stored]),
                        _words("stco", [entry.offset for entry in stored]),
                    ],
                )
            )
    moov = Atom(
        "moov",
        children=[make_mvhd(1000, int(round(meta.duration * 1000))), vcld] + traks,
    )
    return Mp4File(atoms=[make_ftyp("vcld"), moov])


def parse_metadata_file(name: str, data: bytes) -> VideoMeta:
    """Parse one metadata blob, rejecting damage in a controlled way.

    Torn or bit-rotted metadata must surface as :class:`CatalogError`
    (or ``ValueError``/``EOFError`` from the MP4 layer) — never a raw
    ``struct.error`` from an unpack that ran off the end of a truncated
    payload, an ``IndexError`` from a rotted quality rank or an
    ``ArithmeticError`` from a rotted fps, which callers would not
    recognise as corruption.
    """
    try:
        return _parse_metadata_atoms(name, data)
    except (struct.error, IndexError, ArithmeticError) as error:
        raise CatalogError(
            f"metadata for {name!r} is truncated or damaged: {error}"
        ) from error


def _parse_metadata_atoms(name: str, data: bytes) -> VideoMeta:
    mp4 = Mp4File.parse(data)
    moov = mp4.find("moov")
    if moov is None:
        raise CatalogError(f"metadata for {name!r} has no moov atom")
    vinf = moov.find("vcld.vinf")
    sv3d = moov.find("vcld.sv3d")
    if vinf is None or sv3d is None:
        raise CatalogError(f"metadata for {name!r} is missing VisualCloud atoms")
    projection = parse_sv3d(sv3d)
    if projection != PROJECTION:
        raise CatalogError(f"metadata for {name!r} names projection {projection!r}")
    (
        width,
        height,
        fps,
        rows,
        cols,
        gop_frames,
        version,
        streaming,
        quality_count,
    ) = _VINF.unpack_from(vinf.payload)
    offset = _VINF.size
    ranks = vinf.payload[offset : offset + quality_count]
    offset += quality_count
    (gop_count,) = struct.unpack_from(">I", vinf.payload, offset)
    offset += 4
    frame_counts = [
        struct.unpack_from(">H", vinf.payload, offset + 2 * i)[0] for i in range(gop_count)
    ]
    all_qualities = list(Quality)
    meta = VideoMeta(
        name=name,
        version=version,
        width=width,
        height=height,
        fps=fps,
        grid=TileGrid(rows, cols),
        gop_frames=gop_frames,
        qualities=tuple(all_qualities[rank] for rank in ranks),
        streaming=bool(streaming),
        gop_frame_counts=frame_counts,
    )
    gop_duration_ms = gop_frames / fps * 1000
    for trak in moov.find_all("trak"):
        stsd = trak.find("stsd")
        tloc = trak.find("tloc")
        stss = trak.find("stss")
        csum = trak.find("csum")
        stco = trak.find("stco")
        if None in (stsd, tloc, stss, csum, stco):
            raise CatalogError(f"metadata for {name!r} has an incomplete trak")
        quality = Quality.from_label(parse_stsd(stsd)["quality"])
        tile = tuple(struct.unpack(">BB", tloc.payload))
        samples = parse_stss(stss)
        checksums = _parse_words(name, csum, len(samples))
        offsets = _parse_words(name, stco, len(samples))
        for (time_ms, file_version, size), checksum, at in zip(samples, checksums, offsets):
            gop = int(round(time_ms / gop_duration_ms))
            meta.entries[SegmentKey(gop, tile, quality)] = SegmentEntry(
                size, file_version, checksum, at
            )
    return meta
