"""An MP4-style atom ("box") container.

VisualCloud persists per-video metadata as a small MP4-compliant file: a
forest of atoms, each a 4-byte big-endian size, a four-character type code,
and a payload that is either raw bytes (leaf) or child atoms (container).
This module implements the generic atom model plus typed helpers for the
atoms the storage manager uses:

``ftyp``  file type / brand
``moov``  metadata container (children)
``mvhd``  movie header: timescale and duration
``trak``  one media stream's metadata (children)
``stsd``  codec description: codec 4cc, dimensions, fps, quality
``stss``  GOP (sync sample) index: time -> byte offset/size
``vcld``  VisualCloud-specific metadata (children; see repro.core.metadata)
``mdat``  embedded media data

Unknown atom types round-trip untouched, as the MP4 rules require.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

#: Atom types whose payload is a sequence of child atoms.
CONTAINER_TYPES = frozenset({"moov", "trak", "vcld", "udta", "tils"})


@dataclass
class Atom:
    """One MP4 atom: a type code plus either a payload or children."""

    kind: str
    payload: bytes = b""
    children: list["Atom"] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.kind) != 4:
            raise ValueError(f"atom type must be exactly 4 characters, got {self.kind!r}")
        if self.payload and self.children:
            raise ValueError(f"atom {self.kind!r} cannot have both payload and children")

    @property
    def is_container(self) -> bool:
        return bool(self.children) or self.kind in CONTAINER_TYPES

    def serialize(self) -> bytes:
        body = (
            b"".join(child.serialize() for child in self.children)
            if self.is_container
            else self.payload
        )
        return struct.pack(">I4s", 8 + len(body), self.kind.encode("ascii")) + body

    def find(self, path: str) -> "Atom | None":
        """First atom matching a dotted path, e.g. ``"trak.stss"``."""
        head, _, rest = path.partition(".")
        for child in self.children:
            if child.kind == head:
                return child.find(rest) if rest else child
        return None

    def find_all(self, kind: str) -> list["Atom"]:
        """All direct children of the given type."""
        return [child for child in self.children if child.kind == kind]


def parse_atoms(data: bytes, offset: int = 0, end: int | None = None) -> list[Atom]:
    """Parse a byte range into a list of atoms (recursing into containers)."""
    end = len(data) if end is None else end
    atoms = []
    while offset < end:
        if offset + 8 > end:
            raise ValueError(f"truncated atom header at offset {offset}")
        size, kind_raw = struct.unpack_from(">I4s", data, offset)
        if size < 8 or offset + size > end:
            raise ValueError(f"atom at offset {offset} declares invalid size {size}")
        kind = kind_raw.decode("ascii")
        body_start = offset + 8
        body_end = offset + size
        if kind in CONTAINER_TYPES:
            atom = Atom(kind, children=parse_atoms(data, body_start, body_end))
        else:
            atom = Atom(kind, payload=data[body_start:body_end])
        atoms.append(atom)
        offset = body_end
    return atoms


@dataclass
class Mp4File:
    """A whole container file: an ordered forest of top-level atoms."""

    atoms: list[Atom] = field(default_factory=list)

    def serialize(self) -> bytes:
        return b"".join(atom.serialize() for atom in self.atoms)

    @classmethod
    def parse(cls, data: bytes) -> "Mp4File":
        return cls(atoms=parse_atoms(data))

    def find(self, path: str) -> Atom | None:
        head, _, rest = path.partition(".")
        for atom in self.atoms:
            if atom.kind == head:
                return atom.find(rest) if rest else atom
        return None


# -- typed atom constructors / parsers ---------------------------------------

def make_ftyp(brand: str = "vcld") -> Atom:
    return Atom("ftyp", payload=brand.encode("ascii")[:4].ljust(4, b"\0"))


def make_mvhd(timescale: int, duration: int) -> Atom:
    """Movie header: ``duration`` is in ``timescale`` units per second."""
    return Atom("mvhd", payload=struct.pack(">II", timescale, duration))


def make_stsd(codec: str, width: int, height: int, fps: float, quality_label: str) -> Atom:
    """Codec description for one stream."""
    quality_bytes = quality_label.encode("utf-8")
    payload = struct.pack(
        ">4sHHdB", codec.encode("ascii")[:4].ljust(4, b"\0"), width, height, fps,
        len(quality_bytes),
    ) + quality_bytes
    return Atom("stsd", payload=payload)


def parse_stsd(atom: Atom) -> dict:
    codec, width, height, fps, label_len = struct.unpack_from(">4sHHdB", atom.payload)
    offset = struct.calcsize(">4sHHdB")
    label = atom.payload[offset : offset + label_len].decode("utf-8")
    return {
        "codec": codec.rstrip(b"\0").decode("ascii"),
        "width": width,
        "height": height,
        "fps": fps,
        "quality": label,
    }


def make_stss(entries: list[tuple[int, int, int]]) -> Atom:
    """GOP index: entries of ``(start_time_ms, byte_offset, byte_size)``."""
    payload = struct.pack(">I", len(entries)) + b"".join(
        struct.pack(">IQQ", time_ms, offset, size) for time_ms, offset, size in entries
    )
    return Atom("stss", payload=payload)


def parse_stss(atom: Atom) -> list[tuple[int, int, int]]:
    (count,) = struct.unpack_from(">I", atom.payload)
    entries = []
    offset = 4
    for _ in range(count):
        time_ms, byte_offset, size = struct.unpack_from(">IQQ", atom.payload, offset)
        entries.append((time_ms, byte_offset, size))
        offset += 20
    return entries


def make_sv3d(projection: str) -> Atom:
    """Spherical-video metadata: the projection the raster uses.

    Modelled on the Spherical Video V2 RFC's ``sv3d`` box, reduced to the
    single field this system consumes.
    """
    return Atom("sv3d", payload=projection.encode("ascii"))


def parse_sv3d(atom: Atom) -> str:
    return atom.payload.decode("ascii")
