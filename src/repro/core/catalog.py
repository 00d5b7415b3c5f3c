"""The video catalog: names, versions, and on-disk layout.

Each video occupies one directory under the catalog root:

.. code-block:: text

    <root>/<name>/
        metadata_v1.mp4     one MP4-style metadata file per version
        metadata_v1.ok      commit marker (written last; holds the
        metadata_v2.mp4      metadata file's content checksum)
        metadata_v2.ok
        segments/           one pack per written GOP, shared across versions
            g00000_v1.pack  an ``mdat`` of every (tile, quality) segment
                            of GOP 0 that version 1 wrote

Metadata files are never overwritten: a new STORE writes ``metadata_v{n+1}``
and packs for only the GOPs it actually wrote, pointing at prior versions'
packs for everything else (GOP-granularity copy-on-write). The index
locates each segment inside its pack by ``(file_version, offset, size)``.
Readers therefore get snapshot isolation for free — a version, once
written, never changes underneath them.

Commit protocol: packs are published first (temp file + fsync +
``os.replace``), then the metadata file, then the ``.ok`` marker — each
step atomic, so a version costs its GOP count + 2 publishes. A version
is *committed* once its marker exists; :meth:`Catalog.versions` never
reports a marker-less version, so a hard crash at any point leaves
either the old catalog state or the new one, never a half-written
version. ``StorageManager.fsck`` rolls marker-less
metadata forward (validating and adopting it) or back (deleting it).
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core.errors import CatalogError

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9_][A-Za-z0-9_.-]*$")
_METADATA_PATTERN = re.compile(r"^metadata_v(\d+)\.mp4$")
_MARKER_PATTERN = re.compile(r"^metadata_v(\d+)\.ok$")


def pack_file_name(gop: int, version: int) -> str:
    """Canonical file name of the pack ``version`` wrote for one GOP. The
    one place the name is built; nothing parses it back — what a store
    holds is read from its index (``StorageManager.segment_files``)."""
    return f"g{gop:05d}_v{version}.pack"


class Catalog:
    """Directory-backed name/version bookkeeping."""

    def __init__(self, root: Path | str) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def validate_name(self, name: str) -> None:
        if not _NAME_PATTERN.match(name):
            raise CatalogError(
                f"invalid video name {name!r}: use letters, digits, '_', '.', '-'"
            )

    def video_dir(self, name: str) -> Path:
        self.validate_name(name)
        return self.root / name

    def segments_dir(self, name: str) -> Path:
        return self.video_dir(name) / "segments"

    def exists(self, name: str) -> bool:
        return self.video_dir(name).is_dir()

    def list_videos(self) -> list[str]:
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir() and _NAME_PATTERN.match(entry.name)
        )

    def scan_versions(self, name: str) -> tuple[set[int], set[int]]:
        """One-pass raw listing: ``(metadata_versions, marker_versions)``.

        The fsck substrate — no commit-state interpretation is applied.
        """
        directory = self.video_dir(name)
        if not directory.is_dir():
            raise CatalogError(f"video {name!r} does not exist")
        metadata: set[int] = set()
        markers: set[int] = set()
        for entry in directory.iterdir():
            match = _METADATA_PATTERN.match(entry.name)
            if match:
                metadata.add(int(match.group(1)))
                continue
            match = _MARKER_PATTERN.match(entry.name)
            if match:
                markers.add(int(match.group(1)))
        return metadata, markers

    def versions(self, name: str) -> list[int]:
        """All committed versions of a video, ascending: those whose
        metadata file and ``.ok`` marker both exist."""
        metadata, markers = self.scan_versions(name)
        committed = metadata & markers
        if not committed:
            raise CatalogError(f"video {name!r} has no committed versions")
        return sorted(committed)

    def latest_version(self, name: str) -> int:
        return self.versions(name)[-1]

    def metadata_path(self, name: str, version: int) -> Path:
        return self.video_dir(name) / f"metadata_v{version}.mp4"

    def marker_path(self, name: str, version: int) -> Path:
        """Commit marker published after a version's metadata file."""
        return self.video_dir(name) / f"metadata_v{version}.ok"

    def pack_path(self, name: str, gop: int, version: int) -> Path:
        return self.segments_dir(name) / pack_file_name(gop, version)

    def create(self, name: str) -> None:
        """Reserve a video directory (no versions yet)."""
        directory = self.video_dir(name)
        if directory.exists():
            raise CatalogError(f"video {name!r} already exists")
        (directory / "segments").mkdir(parents=True)

    def drop(self, name: str) -> None:
        """Remove a video and all of its versions and segments."""
        directory = self.video_dir(name)
        if not directory.is_dir():
            raise CatalogError(f"video {name!r} does not exist")
        for path in sorted(directory.rglob("*"), reverse=True):
            if path.is_file():
                path.unlink()
            else:
                path.rmdir()
        directory.rmdir()
