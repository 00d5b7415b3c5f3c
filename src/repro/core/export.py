"""Single-file export/import of stored videos.

An export is one version of one quality rung in the store's own format:
that rung's metadata file (:func:`~repro.core.metadata.build_metadata_file`,
every entry at file version 1), its commit marker as a ``vcok`` atom (the
checksum of the ``ftyp`` + ``moov`` bytes before it, the rule a stored
version's ``.ok`` file follows), then one ``mdat`` laid out as a pack of
every GOP, so each ``stco`` offset locates a segment inside that ``mdat``
atom and each ``csum`` says what its bytes must hash to. ``read_export``
checks the metadata against its marker before parsing it and every
segment against its entry, so ``import_video`` refuses a damaged file
before the store's one writer (``StorageManager.store_windows``) sees a
byte — together they are the DECODE/ENCODE boundary of the system.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

from repro.core.errors import CatalogError
from repro.core.metadata import VideoMeta, build_metadata_file, parse_metadata_file
from repro.core.storage import StorageManager, _marker_payload, _mismatch
from repro.stream.dash import SegmentKey
from repro.video.mp4 import Atom, Mp4File
from repro.video.quality import Quality
from repro.video.tiles import TiledGop

_MDAT_HEADER = len(Atom("mdat").serialize())
#: The top-level atoms of an export, in order.
_LAYOUT = ["ftyp", "moov", "vcok", "mdat"]


def _export_bytes(metadata: Mp4File, body: bytes) -> bytes:
    """An export file: ``metadata``'s atoms, their commit marker, then
    one ``mdat`` of ``body``."""
    blob = metadata.serialize()
    marker = Atom("vcok", payload=_marker_payload(blob))
    return blob + marker.serialize() + Atom("mdat", payload=body).serialize()


def export_video(
    storage: StorageManager,
    name: str,
    path: Path | str,
    quality: Quality | None = None,
    version: int | None = None,
) -> int:
    """Write one quality rung of a stored video as a single MP4 file.

    Every segment is read (and checksum-verified) through the store's
    index in one ``read_segments`` walk; the first that fails raises its
    storage error. Returns the number of bytes written.
    """
    meta = storage.meta(name, version)
    quality = quality or meta.qualities[0]
    keys = [
        SegmentKey(gop, tile, quality)
        for gop in range(meta.gop_count)
        for tile in meta.grid.tiles()
    ]
    entries = {}
    body = []
    offset = _MDAT_HEADER
    for key, data in zip(keys, storage.read_segments(name, keys, meta.version)):
        if not isinstance(data, bytes):
            raise data
        entries[key] = dataclasses.replace(
            meta.entries[key], file_version=1, offset=offset
        )
        body.append(data)
        offset += len(data)
    rung = dataclasses.replace(meta, version=1, qualities=(quality,), entries=entries)
    data = _export_bytes(build_metadata_file(rung), b"".join(body))
    Path(path).write_bytes(data)
    return len(data)


def read_export(path: Path | str) -> tuple[VideoMeta, list[TiledGop]]:
    """Parse an exported file; returns (its metadata, tiled windows).

    A damaged file — a truncated atom, metadata that is not what its
    marker recorded (or has no marker), an incomplete index, a segment
    beyond ``mdat`` or failing its checksum — is a :class:`CatalogError`,
    as damaged stored metadata is.
    """
    data = Path(path).read_bytes()
    try:
        atoms = Mp4File.parse(data).atoms
    except (ValueError, EOFError) as error:
        raise CatalogError(f"{path} is truncated or damaged: {error}") from error
    if [atom.kind for atom in atoms] != _LAYOUT:
        raise CatalogError(
            f"{path} is not a VisualCloud export: its atoms are "
            f"{[atom.kind for atom in atoms]}, not {_LAYOUT}"
        )
    marker, pack = atoms[2], atoms[3].serialize()
    blob = data[: len(data) - len(marker.serialize()) - len(pack)]
    if marker.payload != _marker_payload(blob):
        raise CatalogError(f"{path}: its metadata does not match its checksum")
    try:
        meta = parse_metadata_file(str(path), blob)
    except (ValueError, EOFError) as error:
        raise CatalogError(f"{path} is truncated or damaged: {error}") from error
    if len(meta.qualities) != 1:
        raise CatalogError(f"{path} holds {len(meta.qualities)} rungs, not one")
    windows = []
    for gop, frame_count in enumerate(meta.gop_frame_counts):
        window = TiledGop(meta.width, meta.height, meta.grid, frame_count)
        for tile in meta.grid.tiles():
            entry = meta.entries.get((gop, tile, meta.qualities[0]))
            if entry is None:
                continue
            segment = pack[entry.offset : entry.offset + entry.size]
            broken = _mismatch(entry, segment)
            if broken:
                raise CatalogError(
                    f"{path}: segment (gop={gop}, tile={tile}) "
                    + ("runs past its mdat" if broken == "size" else "fails its checksum")
                )
            window.payloads[tile] = segment
        windows.append(window)
    return meta, windows


def import_video(storage: StorageManager, name: str, path: Path | str) -> VideoMeta:
    """Store an exported single-file video as version 1 of a new name.

    The verified segments are stored as they came (no transcode). An
    existing name is refused before the file is read.
    """
    if storage.catalog.exists(name):
        raise CatalogError(f"video {name!r} already exists")
    meta, windows = read_export(path)
    return storage.store_windows(name, windows, fps=meta.fps)
