"""Groups of pictures: closed, independently decodable frame runs.

A GOP starts with an intra frame and chains predicted frames off it, so
any GOP can be decoded with no context from outside — the unit of random
access and quality substitution. The store's own index (one ``stss``
entry per GOP, one byte range per segment) is what selects GOPs by time;
this module only codes them.
"""

from __future__ import annotations

import struct
from collections.abc import Sequence

import numpy as np

from repro.video.bitstream import read_uvarint, write_uvarint
from repro.video.blocks import INVERSE_ZIGZAG, zigzag_unscan
from repro.video.codec import (
    FRAME_TYPE_INTRA,
    FRAME_TYPE_PREDICTED,
    _encode_keys,
    _read_rows,
    frame_blocks,
    frame_quantisers,
    quantise_blocks,
    reconstruct_blocks,
)
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
    coded at ``qualities[s]``; the bytes are those of coding each stream
    alone. Every frame of every stream is put in block layout once
    (:func:`~repro.video.codec.frame_blocks`); each frame index is then
    one step over every stream and all three planes — first intra, rest
    predicted from the step before — and one entropy pass codes every
    frame of every stream. Headers record ``width``×``height``, the size
    a decoder hands back.

    A step keeps only its nonzero quantised coefficients, as keys and
    levels for :func:`~repro.video.codec._encode_keys`, and reconstructs
    only the blocks that hold one, in place in a float64 reference: an
    all-zero block reconstructs to its reference exactly (integers in
    ``[0, 255]`` plus an inverse transform of zeros), and most predicted
    blocks at the lower rungs are all zero. The last frame, which nothing
    predicts from, is not reconstructed.

    Per stream and frame: a uvarint length, a 1-byte frame type, then one
    continuous bit stream of the Y, U and V blocks back to back —
    self-delimiting, so no per-plane framing bytes exist.
    """
    streams, frame_count, coded_height, coded_width = y.shape
    if coded_width % 16 or coded_height % 16:
        raise ValueError(
            f"frame {coded_width}x{coded_height} must be a multiple of 16 "
            "(so chroma planes split into whole 8px blocks)"
        )
    blocks = frame_blocks(y, uv)
    qmat = frame_quantisers(tuple(qualities))
    group = blocks.shape[-3]  # block k of a step is in group k // group
    unit = 6 * group  # blocks in a frame, the entropy coder's unit
    group_qmat = qmat.reshape(-1, 8, 8)
    reference = None
    keys, levels = [], []
    for index in range(frame_count):
        quantised = quantise_blocks(blocks[:, index], reference, qmat)
        # 64 * k + raster position; a bool mask scans ~6x faster than float64.
        flat = np.flatnonzero(quantised != 0)
        levels.append(quantised.ravel()[flat])
        block = flat >> 6  # sorted
        # Block k is stream k // unit's; the coder orders blocks by
        # stream, then frame, and coefficients by zigzag position.
        keys.append(
            (block + (block // unit * (frame_count - 1) + index) * unit) << 6
            | INVERSE_ZIGZAG[flat & 63]
        )
        if index + 1 < frame_count:
            starts = np.ones(block.size, dtype=bool)
            np.not_equal(block[1:], block[:-1], out=starts[1:])
            coded = block[starts]
            # A reference of None is flat 128 to both kernels.
            if coded.size:
                pixels = reconstruct_blocks(
                    quantised.reshape(-1, 8, 8)[coded],
                    None if reference is None else reference.reshape(-1, 8, 8)[coded],
                    group_qmat[coded // group],
                )
                if reference is None:
                    reference = np.full(quantised.shape, 128.0)
                reference.reshape(-1, 8, 8)[coded] = pixels
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    payloads = _encode_keys(keys[order], np.concatenate(levels)[order], streams * frame_count, unit)
    gops = []
    for stream, quality in enumerate(qualities):
        chunks = [
            _HEADER.pack(GOP_MAGIC, GOP_FORMAT_VERSION, quality.rank, width, height, frame_count)
        ]
        first = stream * frame_count
        for index, payload in enumerate(payloads[first : first + frame_count]):
            framing = bytearray()
            write_uvarint(framing, 1 + len(payload))
            framing.append(FRAME_TYPE_PREDICTED if index else FRAME_TYPE_INTRA)
            chunks += (framing, payload)
        gops.append(b"".join(chunks))
    return gops


def encode_gop(frames: list[Frame], quality: Quality) -> bytes:
    """Encode frames as one closed GOP (first intra, rest predicted) at
    ``quality``: the one-stream call of :func:`encode_gops`.

    Qualities with ``downscale > 1`` are coded at reduced resolution; the
    header records the *original* dimensions and decode upsamples back,
    so callers see full-size frames either way.
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
        quality.downscale,
    )
    return encode_gops((quality,), y[None], uv[None], width, height)[0]


def decode_gop(data: bytes) -> list[Frame]:
    """Decode a GOP :func:`encode_gops` wrote, at the quality its header
    names.

    Each frame is one pass in the encoder's block layout: one
    :func:`~repro.video.codec._read_rows` over its ``6 * n`` blocks (Y,
    U and V are one bit stream), one inverse zigzag and one
    :func:`~repro.video.codec.reconstruct_blocks` onto the previous
    frame's blocks, written straight into the GOP's uint8 planes. The
    working set is those planes plus one frame in flight. The header is
    refused before anything is allocated if its frames could not fit in
    the bytes that follow it (every frame costs at least a length byte,
    a type byte and one bit a block), so hostile bytes cannot size the
    buffers.
    """
    quality, width, height, count, offset = _parse_gop_header(data)
    factor = quality.downscale
    coded_height, coded_width = height // factor, width // factor
    blocks = 6 * (coded_height * coded_width // 256)  # frame_blocks' six groups
    if count * (2 + -(-blocks // 8)) > len(data) - offset:
        raise ValueError(
            f"GOP header claims {count} frames of {coded_width}x{coded_height}, "
            f"more than its {len(data) - offset} bytes of frames could hold"
        )
    qmat = frame_quantisers((quality,))[0]
    y = np.empty((count, coded_height, coded_width), dtype=np.uint8)
    uv = np.empty((count, 2, coded_height // 2, coded_width // 2), dtype=np.uint8)
    # The same planes as 8x8 blocks in stream order: each frame's blocks
    # are written straight into them, with no merge copy.
    across, down = coded_width // 16, coded_height // 16
    y_blocks = y.reshape(count, 2 * down, 8, 2 * across, 8).swapaxes(2, 3)
    uv_blocks = uv.reshape(count, 2, down, 8, across, 8).swapaxes(3, 4)
    reference = None
    view = memoryview(data)  # per-frame slices below are zero-copy
    for index in range(count):
        length, offset = read_uvarint(data, offset)
        payload = view[offset : offset + length]
        offset += length
        if not payload:
            raise ValueError("empty frame payload")
        frame_type = payload[0]
        if frame_type == FRAME_TYPE_INTRA:
            reference = None
        elif frame_type != FRAME_TYPE_PREDICTED:
            raise ValueError(f"unknown frame type {frame_type}")
        elif reference is None:
            raise ValueError("predicted frame requires a reference frame")
        if 8 * (len(payload) - 1) < blocks:
            raise ValueError(f"frame {index}: {blocks} blocks in {len(payload) - 1} bytes")
        # One expression, so no float64 array outlives its frame; the
        # reference is kept as uint8, which adds the same values.
        reference = reconstruct_blocks(
            zigzag_unscan(_read_rows(payload[1:], blocks).reshape(6, -1, 64)).astype(np.float64),
            reference,
            qmat,
        ).astype(np.uint8)
        y_blocks[index] = reference[:4].reshape(2 * down, 2 * across, 8, 8)
        uv_blocks[index] = reference[4:].reshape(2, down, across, 8, 8)
    frames = [Frame(y[index], *uv[index]) for index in range(count)]
    return [upsample_frame(frame, factor) for frame in frames] if factor > 1 else frames


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
    quality = qualities[quality_rank]
    step = 16 * quality.downscale
    if not width or not height or width % step or height % step:
        raise ValueError(f"GOP of {width}x{height} at {quality.label}: not a multiple of {step}")
    return quality, width, height, count, _HEADER.size
