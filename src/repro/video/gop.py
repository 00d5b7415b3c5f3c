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

from repro.video.blocks import INVERSE_ZIGZAG, zigzag_unscan
from repro.video.codec import (
    _encode_keys,
    _read_frames,
    frame_blocks,
    frame_quantisers,
    quantise_blocks,
    reconstruct_blocks,
)
from repro.video.frame import Frame, downsample_plane, upsample_frame
from repro.video.quality import Quality

GOP_MAGIC = b"VGOP"
_HEADER = struct.Struct(">4sBBHHH")  # magic, version, quality rank, width, height, frames
GOP_FORMAT_VERSION = 2


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

    Per stream: the 12-byte header, then one bit stream of every frame's
    Y, U and V blocks back to back (:func:`~repro.video.codec._encode_keys`'
    syntax), padded to a whole byte at its end only. Frame 0 is intra and
    the rest predicted, as a closed GOP implies, so no frame carries a
    length or a type.
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
    payloads = _encode_keys(
        keys[order], np.concatenate(levels)[order], streams, frame_count, unit
    )
    return [
        _HEADER.pack(GOP_MAGIC, GOP_FORMAT_VERSION, quality.rank, width, height, frame_count)
        + payload
        for quality, payload in zip(qualities, payloads)
    ]


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


def decode_gop(data: bytes, width: int, height: int, frames: int) -> list[Frame]:
    """Decode a GOP :func:`encode_gops` wrote, at the quality its header
    names, refusing it unless its header gives the ``frames`` frames of
    ``width``×``height`` the caller expects.

    Each frame is one pass in the encoder's block layout: its ``6 * n``
    blocks' rows from :func:`~repro.video.codec._read_frames` (Y, U and V
    are one bit stream), one inverse zigzag and one
    :func:`~repro.video.codec.reconstruct_blocks` onto the previous
    frame's blocks, written straight into the GOP's uint8 planes. The
    working set is those planes plus one frame in flight and one scan
    chunk. A frame with nothing to code costs one bit, so the bytes
    cannot bound the pixels: the expected shape is what keeps hostile
    bytes from sizing the buffers, and it is checked before anything is
    allocated.
    """
    quality, *shape, offset = _parse_gop_header(data)
    if tuple(shape) != (width, height, frames):
        raise ValueError(
            f"GOP header claims {shape[2]} frames of {shape[0]}x{shape[1]}, "
            f"expected {frames} of {width}x{height}"
        )
    if frames > 8 * (len(data) - offset):  # a frame costs at least one bit
        raise ValueError(
            f"GOP header claims {frames} frames, "
            f"more than its {len(data) - offset} bytes of frames could hold"
        )
    factor = quality.downscale
    coded_height, coded_width = height // factor, width // factor
    qmat = frame_quantisers((quality,))[0]
    y = np.empty((frames, coded_height, coded_width), dtype=np.uint8)
    uv = np.empty((frames, 2, coded_height // 2, coded_width // 2), dtype=np.uint8)
    # The same planes as 8x8 blocks in stream order: each frame's blocks
    # are written straight into them, with no merge copy.
    across, down = coded_width // 16, coded_height // 16
    y_blocks = y.reshape(frames, 2 * down, 8, 2 * across, 8).swapaxes(2, 3)
    uv_blocks = uv.reshape(frames, 2, down, 8, across, 8).swapaxes(3, 4)
    reference = None  # frame 0 is intra
    blocks = 6 * down * across  # frame_blocks' six groups
    for index, rows in enumerate(_read_frames(memoryview(data)[offset:], frames, blocks)):
        # One expression, so no float64 array outlives its frame; the
        # reference is kept as uint8, which adds the same values.
        reference = reconstruct_blocks(
            zigzag_unscan(rows.reshape(6, -1, 64)).astype(np.float64), reference, qmat
        ).astype(np.uint8)
        y_blocks[index] = reference[:4].reshape(2 * down, 2 * across, 8, 8)
        uv_blocks[index] = reference[4:].reshape(2, down, across, 8, 8)
    decoded = [Frame(y[index], *uv[index]) for index in range(frames)]
    return [upsample_frame(frame, factor) for frame in decoded] if factor > 1 else decoded


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
