"""Single-file export/import of stored videos.

The store keeps each GOP's segments of every tile and rung in one pack,
read by byte range; to hand a video to an external consumer,
``export_video`` flattens one quality
rung into a single MP4-style container: a ``moov`` describing the stream
(codec, projection, GOP index) and an ``mdat`` holding the concatenated
GOP bytes. ``import_video`` ingests such a file back into a store —
together they are the DECODE/ENCODE boundary of the system.
"""

from __future__ import annotations

import struct
from pathlib import Path

from repro.core.errors import CatalogError
from repro.core.metadata import PROJECTION
from repro.core.storage import StorageManager
from repro.video.mp4 import (
    Atom,
    Mp4File,
    make_ftyp,
    make_mvhd,
    make_stsd,
    make_stss,
    make_sv3d,
    parse_mvhd,
    parse_stsd,
    parse_stss,
    parse_sv3d,
)
from repro.video.quality import Quality
from repro.video.tiles import TiledGop


def export_video(
    storage: StorageManager,
    name: str,
    path: Path | str,
    quality: Quality | None = None,
    version: int | None = None,
) -> int:
    """Flatten one quality rung of a stored video into a single MP4 file.

    Each delivery window becomes one serialized tiled GOP in the ``mdat``;
    the ``stss`` index maps window start times to byte ranges within it.
    Returns the number of bytes written.
    """
    meta = storage.meta(name, version)
    quality = quality or meta.qualities[0]
    media_chunks: list[bytes] = []
    index_entries: list[tuple[int, int, int]] = []
    offset = 0
    for gop in range(meta.gop_count):
        quality_map = {tile: quality for tile in meta.grid.tiles()}
        window = storage.read_window(name, gop, quality_map, version)
        payload = window.to_bytes()
        time_ms = int(round(meta.gop_start_time(gop) * 1000))
        index_entries.append((time_ms, offset, len(payload)))
        media_chunks.append(payload)
        offset += len(payload)
    trak = Atom(
        "trak",
        children=[
            make_stsd("vctg", meta.width, meta.height, meta.fps, quality.label),
            make_stss(index_entries),
        ],
    )
    moov = Atom(
        "moov",
        children=[
            make_mvhd(1000, int(round(meta.duration * 1000))),
            Atom("vcld", children=[make_sv3d(PROJECTION)]),
            trak,
        ],
    )
    mdat = Atom("mdat", payload=b"".join(media_chunks))
    data = Mp4File(atoms=[make_ftyp("vcex"), moov, mdat]).serialize()
    target = Path(path)
    target.write_bytes(data)
    return len(data)


def read_export(path: Path | str) -> tuple[dict, list[TiledGop]]:
    """Parse an exported file; returns (stream info, tiled windows).

    A damaged file — a truncated atom or payload, or an index entry that
    points beyond ``mdat`` — is a :class:`CatalogError`, as damaged
    stored metadata is.
    """
    try:
        return _parse_export(path, Path(path).read_bytes())
    except (struct.error, ValueError, EOFError) as error:
        raise CatalogError(f"{path} is truncated or damaged: {error}") from error


def _parse_export(path: Path | str, data: bytes) -> tuple[dict, list[TiledGop]]:
    mp4 = Mp4File.parse(data)
    moov = mp4.find("moov")
    mdat = mp4.find("mdat")
    if moov is None or mdat is None:
        raise CatalogError(f"{path} is not a VisualCloud export (missing moov/mdat)")
    trak = moov.find("trak")
    stsd = trak.find("stsd") if trak else None
    stss = trak.find("stss") if trak else None
    sv3d = moov.find("vcld.sv3d")
    mvhd = moov.find("mvhd")
    if stsd is None or stss is None or mvhd is None or sv3d is None:
        raise CatalogError(f"{path} export is missing required atoms")
    projection = parse_sv3d(sv3d)
    if projection != PROJECTION:
        raise CatalogError(f"{path} names projection {projection!r}")
    info = parse_stsd(stsd)
    timescale, duration = parse_mvhd(mvhd)
    info["duration"] = duration / timescale
    windows = []
    for _, offset, size in parse_stss(stss):
        if offset + size > len(mdat.payload):
            raise CatalogError(f"{path} indexes bytes beyond its mdat")
        windows.append(TiledGop.from_bytes(mdat.payload[offset : offset + size]))
    return info, windows


def import_video(
    storage: StorageManager, name: str, path: Path | str
) -> "object":
    """Ingest an exported single-file video back into a store.

    The encoded windows are stored as-is (no transcode); the result is a
    single-quality video under ``name``.
    """
    info, windows = read_export(path)
    if not windows:
        raise CatalogError(f"{path} contains no media windows")
    return storage.store_windows(name, windows, fps=info["fps"])
