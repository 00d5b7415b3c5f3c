"""Test helper: damage one stored segment on disk.

A segment is a byte range of its GOP's pack, so damage is done to that
range — or to the whole pack, when the case is a lost file. Every rewrite
goes through a temp file and ``os.replace``, never through the pack's
inode in place, so a hard-linked copy in another root stays intact.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.core.metadata import SegmentEntry
from repro.core.storage import StorageManager


def locate(storage: StorageManager, name: str, key) -> tuple[Path, SegmentEntry]:
    """The pack holding ``key = (gop, tile, quality)`` and its index entry."""
    entry = storage.meta(name).entries[tuple(key)]
    return storage.catalog.pack_path(name, key[0], entry.file_version), entry


def stored(storage: StorageManager, name: str, key) -> bytes | None:
    """The bytes the pack holds at ``key``'s range (None: the pack is gone)."""
    path, entry = locate(storage, name, key)
    if not path.exists():
        return None
    return storage.read_range(name, key[0], entry)


def _replace(path: Path, data: bytes) -> None:
    scratch = path.with_name(path.name + ".rot")
    scratch.write_bytes(data)
    os.replace(scratch, path)


def splice(storage: StorageManager, name: str, key, payload: bytes, pack=None) -> bytes:
    """Put ``payload`` (any length) where ``key``'s bytes are in ``pack``
    (default: the pack as it is now) and publish the result over the
    pack; return the segment's bytes before the splice."""
    path, entry = locate(storage, name, key)
    data = path.read_bytes() if pack is None else pack
    end = entry.offset + entry.size
    _replace(path, data[: entry.offset] + payload + data[end:])
    return data[entry.offset : end]


def flip(storage: StorageManager, name: str, key) -> bytes:
    """Flip bit 3 of the middle byte of ``key``'s range (same size,
    different content); return the original bytes."""
    path, entry = locate(storage, name, key)
    data = bytearray(path.read_bytes())
    original = bytes(data[entry.offset : entry.offset + entry.size])
    data[entry.offset + entry.size // 2] ^= 0x08
    _replace(path, bytes(data))
    return original


def truncate(storage: StorageManager, name: str, key, short_by: int = 1) -> None:
    """Cut the pack ``short_by`` bytes before ``key``'s range ends, so the
    range reads short (and every later range in the pack is gone)."""
    path, entry = locate(storage, name, key)
    _replace(path, path.read_bytes()[: entry.offset + entry.size - short_by])


def delete(storage: StorageManager, name: str, key) -> None:
    """Unlink the pack holding ``key``: every segment in it goes missing."""
    locate(storage, name, key)[0].unlink()
