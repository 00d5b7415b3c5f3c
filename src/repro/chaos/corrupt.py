"""Corruption primitives: structured damage for stored artifacts.

The failure-injection suite used to hand-roll its corruptions (chop ten
bytes here, flip a byte there); these helpers generate *structural*
corpora instead — truncation at every framing boundary of a GOP or
every atom boundary of a metadata file, bit flips aimed at
header vs payload regions, and the empty file — so the parser error
contract is exercised where real damage lands, and every case is
labelled for parametrized tests.
"""

from __future__ import annotations

import random
import struct

_GOP_HEADER = struct.Struct(">4sBBHHH")  # mirrors repro.video.gop._HEADER


def truncate(data: bytes, length: int) -> bytes:
    """The first ``length`` bytes (clamped)."""
    return data[: max(0, min(length, len(data)))]


def bit_flip(data: bytes, position: int, bit: int = 0) -> bytes:
    """``data`` with one bit flipped at byte ``position``."""
    if not 0 <= position < len(data):
        raise ValueError(f"position {position} outside [0, {len(data)})")
    if not 0 <= bit < 8:
        raise ValueError(f"bit index must be in [0, 8), got {bit}")
    corrupted = bytearray(data)
    corrupted[position] ^= 1 << bit
    return bytes(corrupted)


def gop_boundaries(data: bytes) -> list[int]:
    """Structural offsets of a GOP: magic end and header end (plus 0 and
    the end). Its frames are one bit stream with no framing of their own.
    """
    edges = {0, 4, _GOP_HEADER.size, len(data)}
    return sorted(edge for edge in edges if edge <= len(data))


def atom_boundaries(data: bytes) -> list[int]:
    """Offsets of every top-level MP4 atom edge (plus header splits).

    Walks the ``(size, kind)`` framing directly rather than the parser,
    so it works even when a *later* atom is damaged.
    """
    boundaries = {0, len(data)}
    offset = 0
    while offset + 8 <= len(data):
        try:
            size, _ = struct.unpack_from(">I4s", data, offset)
        except struct.error:
            break
        if size < 8 or offset + size > len(data):
            break
        boundaries.add(offset + 8)  # after this atom's header
        boundaries.add(offset + size)
        offset += size
    return sorted(boundary for boundary in boundaries if boundary <= len(data))


def _truncation_cases(data: bytes, boundaries: list[int]) -> list[tuple[str, bytes]]:
    cases = []
    for boundary in boundaries:
        if boundary == len(data):
            continue  # not a truncation
        cases.append((f"truncate@{boundary}", truncate(data, boundary)))
        if boundary > 0:
            # One byte short of the boundary: the classic partial write.
            cases.append((f"truncate@{boundary - 1}", truncate(data, boundary - 1)))
    return cases


def segment_corruption_corpus(data: bytes, seed: int = 0) -> list[tuple[str, bytes]]:
    """Labelled corruptions of one encoded GOP segment.

    Covers: the empty file, truncation at every framing boundary (and
    one byte before it), bit flips in the header region, and seeded bit
    flips in the payload region.
    """
    rng = random.Random(seed)
    cases: list[tuple[str, bytes]] = [("zero-length", b"")]
    cases.extend(_truncation_cases(data, gop_boundaries(data)))
    header_end = min(_GOP_HEADER.size, len(data))
    for position in range(header_end):
        cases.append((f"header-bitflip@{position}", bit_flip(data, position, bit=7)))
    if len(data) > header_end:
        for _ in range(8):
            position = rng.randrange(header_end, len(data))
            bit = rng.randrange(8)
            cases.append((f"payload-bitflip@{position}.{bit}", bit_flip(data, position, bit)))
    seen: set[str] = set()
    unique = []
    for label, payload in cases:
        if label not in seen:
            seen.add(label)
            unique.append((label, payload))
    return unique


def metadata_corruption_corpus(data: bytes, seed: int = 0) -> list[tuple[str, bytes]]:
    """Labelled corruptions of one metadata (MP4 container) file.

    Covers: the empty file, truncation at every atom boundary (and one
    byte before it), bit flips in the first atom header, seeded flips in
    atom payloads, and pure garbage of the original length.
    """
    rng = random.Random(seed)
    cases: list[tuple[str, bytes]] = [("zero-length", b"")]
    cases.extend(_truncation_cases(data, atom_boundaries(data)))
    for position in range(min(8, len(data))):
        cases.append((f"header-bitflip@{position}", bit_flip(data, position, bit=7)))
    if len(data) > 8:
        for _ in range(8):
            position = rng.randrange(8, len(data))
            bit = rng.randrange(8)
            cases.append((f"payload-bitflip@{position}.{bit}", bit_flip(data, position, bit)))
    cases.append(("garbage", bytes(rng.randrange(256) for _ in range(len(data) or 64))))
    seen: set[str] = set()
    unique = []
    for label, payload in cases:
        if label not in seen:
            seen.add(label)
            unique.append((label, payload))
    return unique
