"""Groups of pictures: closed, independently decodable frame runs.

A GOP starts with an intra frame and chains predicted frames off it, so
any GOP can be decoded with no context from outside — the unit of random
access, quality substitution, and the homomorphic (no-decode) temporal
operators below.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.video.bitstream import read_uvarint, write_uvarint
from repro.video.codec import FrameCodec, FrameStackCodec
from repro.video.frame import Frame, downsample_plane, upsample_frame
from repro.video.quality import Quality

GOP_MAGIC = b"VGOP"
_HEADER = struct.Struct(">4sBBHHH")  # magic, version, quality rank, width, height, frames
GOP_FORMAT_VERSION = 1


def coded_planes(
    y: np.ndarray, u: np.ndarray, v: np.ndarray, downscale: int
) -> tuple[np.ndarray, np.ndarray]:
    """One stream's planes as the encoder steps through them: ``y`` as
    ``(frames, h, w)`` and U, V stacked as ``(frames, 2, h/2, w/2)``, all
    box-filtered down by ``downscale`` (the reduced-resolution rungs)."""
    height, width = y.shape[-2:]
    if downscale > 1:
        if width % (16 * downscale) or height % (16 * downscale):
            raise ValueError(
                f"{width}x{height} cannot encode at 1/{downscale} resolution "
                f"(must be a multiple of {16 * downscale})"
            )
        y, u, v = (downsample_plane(plane, downscale) for plane in (y, u, v))
    return y, np.stack((u, v), axis=1)


def encode_gops(
    qualities: Sequence[Quality], y: np.ndarray, uv: np.ndarray, width: int, height: int
) -> list[bytes]:
    """Encode several streams of one coded shape as closed GOPs, in lock-step.

    Stream s is ``y[s]``, ``uv[s]`` as :func:`coded_planes` returns them,
    coded at ``qualities[s]``. Each frame index is one step over every
    stream — first intra, rest predicted from the step before — so the
    transform and the entropy coder are entered once per frame, not once
    per frame per stream; the bytes are those of coding each stream alone.
    Headers record ``width``×``height``, the size a decoder hands back.
    """
    codec = FrameStackCodec(qualities)
    frame_count = y.shape[1]
    gops = [
        [_HEADER.pack(GOP_MAGIC, GOP_FORMAT_VERSION, quality.rank, width, height, frame_count)]
        for quality in qualities
    ]
    reference = None
    for index in range(frame_count):
        payloads, reference = codec.encode_frames(y[:, index], uv[:, index], reference)
        for chunks, data in zip(gops, payloads):
            length = bytearray()
            write_uvarint(length, len(data))
            chunks.append(bytes(length))
            chunks.append(data)
    return [b"".join(chunks) for chunks in gops]


class GopCodec:
    """Encodes/decodes one closed GOP at a fixed quality."""

    def __init__(self, quality: Quality) -> None:
        self.quality = quality
        self._frame_codec = FrameCodec(quality)

    def encode_gop(self, frames: list[Frame]) -> bytes:
        """Encode frames as one closed GOP (first intra, rest predicted):
        the one-stream call of :func:`encode_gops`.

        Qualities with ``downscale > 1`` are coded at reduced resolution;
        the header records the *original* dimensions and decode upsamples
        back, so callers see full-size frames either way.
        """
        if not frames:
            raise ValueError("a GOP must contain at least one frame")
        width, height = frames[0].width, frames[0].height
        for index, frame in enumerate(frames):
            if (frame.width, frame.height) != (width, height):
                raise ValueError(
                    f"frame {index} is {frame.width}x{frame.height}, "
                    f"GOP started at {width}x{height}"
                )
        y, uv = coded_planes(
            *(np.stack(planes) for planes in zip(*(frame.planes for frame in frames))),
            self.quality.downscale,
        )
        return encode_gops((self.quality,), y[None], uv[None], width, height)[0]

    def decode_gop(self, data: bytes) -> list[Frame]:
        """Decode a byte string produced by :meth:`encode_gop`."""
        quality, width, height, count, offset = _parse_gop_header(data)
        if quality is not self.quality:
            raise ValueError(
                f"GOP encoded at {quality.label}, codec configured for {self.quality.label}"
            )
        factor = self.quality.downscale
        coded_width, coded_height = width // factor, height // factor
        frames: list[Frame] = []
        reference = None
        view = memoryview(data)  # per-frame slices below are zero-copy
        for _ in range(count):
            length, offset = read_uvarint(data, offset)
            frame = self._frame_codec.decode_frame(
                view[offset : offset + length], coded_width, coded_height, reference
            )
            offset += length
            reference = frame
            frames.append(upsample_frame(frame, factor) if factor > 1 else frame)
        return frames


def _parse_gop_header(data: bytes) -> tuple[Quality, int, int, int, int]:
    """Parse a GOP header; returns (quality, width, height, frames, offset)."""
    if len(data) < _HEADER.size:
        raise ValueError("truncated GOP (header incomplete)")
    magic, version, quality_rank, width, height, count = _HEADER.unpack_from(data)
    if magic != GOP_MAGIC:
        raise ValueError(f"bad GOP magic {magic!r}")
    if version != GOP_FORMAT_VERSION:
        raise ValueError(f"unsupported GOP format version {version}")
    qualities = list(Quality)
    if quality_rank >= len(qualities):
        raise ValueError(f"unknown quality rank {quality_rank}")
    return qualities[quality_rank], width, height, count, _HEADER.size


def decode_any_gop(data: bytes) -> list[Frame]:
    """Decode a GOP whose quality is read from its own header."""
    quality, *_ = _parse_gop_header(data)
    return GopCodec(quality).decode_gop(data)


def gop_byte_length(data: bytes, offset: int = 0) -> int:
    """Length in bytes of the GOP starting at ``offset``, by parsing only
    the header and per-frame length prefixes (no entropy decode)."""
    _, _, _, count, header_size = _parse_gop_header(data[offset:])
    cursor = offset + header_size
    for _ in range(count):
        if cursor >= len(data):
            raise ValueError("truncated GOP (frame length prefix)")
        length, cursor = read_uvarint(data, cursor)
        cursor += length
    return cursor - offset


@dataclass
class GopStream:
    """A concatenation of encoded GOPs plus a temporal index.

    This is the in-memory analogue of a video track with an MP4 ``stss``
    atom: ``index`` maps each GOP to its start time and byte range. The
    methods contrast three access paths the evaluation measures:

    * :meth:`select_indexed` — O(result) byte slicing via the index
      (the homomorphic GOPSELECT),
    * :meth:`select_scan` — index-less, parsing every preceding GOP's
      framing to find boundaries, and
    * :meth:`select_decode` — the naive path that decodes from the start,
      as a decoder without random access must.
    """

    data: bytes = b""
    index: list[tuple[float, float, int, int]] = field(default_factory=list)
    #: index entries are (start_time_s, duration_s, byte_offset, byte_size)

    @property
    def gop_count(self) -> int:
        return len(self.index)

    @property
    def duration(self) -> float:
        if not self.index:
            return 0.0
        start, length, _, _ = self.index[-1]
        return start + length

    def append(self, gop_bytes: bytes, start_time: float, duration: float) -> None:
        """Append an encoded GOP; times must be contiguous and increasing."""
        if duration <= 0:
            raise ValueError(f"GOP duration must be positive, got {duration}")
        if self.index and abs(start_time - self.duration) > 1e-9:
            raise ValueError(
                f"GOP start {start_time} is not contiguous with stream end {self.duration}"
            )
        self.index.append((start_time, duration, len(self.data), len(gop_bytes)))
        self.data += gop_bytes

    def _covering_entries(self, t0: float, t1: float) -> list[tuple[float, float, int, int]]:
        if t1 <= t0:
            raise ValueError(f"empty temporal selection [{t0}, {t1})")
        return [
            entry
            for entry in self.index
            if entry[0] < t1 and entry[0] + entry[1] > t0
        ]

    def select_indexed(self, t0: float, t1: float) -> list[bytes]:
        """GOP byte strings overlapping ``[t0, t1)``, via the index."""
        return [
            self.data[offset : offset + size]
            for _, _, offset, size in self._covering_entries(t0, t1)
        ]

    def select_scan(self, t0: float, t1: float) -> list[bytes]:
        """Same result as :meth:`select_indexed` but without using the
        index: walks the stream parsing GOP framing to locate boundaries."""
        results = []
        offset = 0
        time = 0.0
        position = 0
        while offset < len(self.data):
            length = gop_byte_length(self.data, offset)
            # Durations still come from the entry list (they are container
            # metadata); what the scan forgoes is the byte offsets.
            duration = self.index[position][1]
            if time < t1 and time + duration > t0:
                results.append(self.data[offset : offset + length])
            time += duration
            offset += length
            position += 1
            if time >= t1:
                break
        return results

    def select_decode(self, t0: float, t1: float) -> list[Frame]:
        """Naive sequential access: decode every GOP from the start of the
        stream until the selection is satisfied, returning selected frames."""
        frames: list[Frame] = []
        time = 0.0
        offset = 0
        for start, duration, _, size in self.index:
            gop = self.data[offset : offset + size]
            decoded = decode_any_gop(gop)
            if start < t1 and start + duration > t0:
                frames.extend(decoded)
            offset += size
            time = start + duration
            if time >= t1:
                break
        return frames

    @staticmethod
    def union(streams: list["GopStream"]) -> "GopStream":
        """Homomorphic GOPUNION: concatenate temporally-contiguous streams
        by splicing bytes and rebasing indexes — no decode, no re-encode."""
        if not streams:
            raise ValueError("union of zero streams")
        result = GopStream()
        for position, stream in enumerate(streams):
            if stream.index and abs(stream.index[0][0]) > 1e-9:
                raise ValueError(f"stream {position} does not start at time zero")
            base_time = result.duration
            base_offset = len(result.data)
            for start, duration, offset, size in stream.index:
                result.index.append((start + base_time, duration, offset + base_offset, size))
            result.data += stream.data
        return result
