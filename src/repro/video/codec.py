"""A from-scratch block-transform video codec.

The codec follows the classic hybrid design (the same skeleton as
H.264/HEVC, minus motion search): 8x8 DCT, scalar quantisation against a
perceptual matrix, zigzag scan, run/level entropy coding with exp-Golomb
codes. Frames are either *intra* (I: coded standalone) or *predicted*
(P: the quantised residual against the previous reconstructed frame).

The encoder maintains the same reconstruction the decoder will produce
(quantise -> dequantise -> inverse transform), so P-frame chains do not
drift. Zero-motion prediction ("conditional replenishment") is used instead
of motion search; this keeps tiles trivially motion-constrained — a block
never references pixels outside its own tile — which is the property a
tile-subset window read relies on.
"""

from __future__ import annotations

import functools
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from repro.video.bitstream import BitReader, BitWriter, pack_symbols, se_to_ue, ue_codes
from repro.video.blocks import (
    forward_dct,
    inverse_dct,
    merge_blocks,
    split_blocks,
    zigzag_scan,
)
from repro.video.quality import Quality

# The ITU-T T.81 (JPEG annex K) example matrices: a reasonable perceptual
# weighting for 8x8 DCT coefficients.
_BASE_LUMA = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.float64,
)
_BASE_CHROMA = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.float64,
)


def quant_matrix(base: np.ndarray, scale: float) -> np.ndarray:
    """Scale a base quantisation matrix, clamping steps to ``[1, 4096]``."""
    if scale <= 0:
        raise ValueError(f"quantiser scale must be positive, got {scale}")
    return np.clip(np.round(base * scale), 1.0, 4096.0)


def _keys_to_symbols(
    keys: np.ndarray, levels: np.ndarray, frames: int, blocks: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The exp-Golomb symbol stream of ``frames`` frames of ``blocks``
    blocks whose nonzero coefficients are ``levels`` at sorted ``keys``
    (key ``64 * (f * blocks + b) + z``): ``(codes, nbits, frame starts)``,
    frame f's symbols from ``starts[f]`` to ``starts[f + 1]``.

    Symbols that follow each other on the wire are fused into one packed
    symbol, the first code's bits then the second's: a coded block's skip
    run with its count, and each (run, level) pair. So the packer sees
    ``frames + coded blocks + nonzeros`` symbols. Fusion stays within the
    packer's 63-bit lane because a frame has fewer than ``2**25`` blocks
    (skip -> 49 bits, count <= 64 -> 13) and its callers bound levels to
    ``±2**21`` first (run <= 63 -> 13 bits, |level| < 2**21 -> 43 bits).
    """
    nonzeros = keys.size
    block_of = keys >> 6
    zigzag = keys & 63
    first = np.empty(nonzeros, dtype=bool)  # each coded block's first key
    first[:1] = True
    np.not_equal(block_of[1:], block_of[:-1], out=first[1:])
    starts = np.flatnonzero(first)  # == nonzeros before each coded block
    coded = block_of[starts]
    counts = np.empty_like(starts)
    counts[:-1] = starts[1:] - starts[:-1]
    counts[-1:] = nonzeros - starts[-1:]
    opens = blocks * np.arange(frames + 1)  # each frame's first block
    coded_before = np.searchsorted(coded, opens)
    # The skipped blocks before each coded block: back to the previous
    # coded block of its frame, or to the frame's start.
    previous = np.empty_like(coded)
    previous[:1] = -1
    previous[1:] = coded[:-1]
    np.maximum(previous, coded - coded % blocks - 1, out=previous)
    # The zero run before each coefficient: back to the previous one of
    # its block, or to the block's start.
    before = np.empty_like(zigzag)
    before[1:] = zigzag[:-1]
    before[starts] = -1
    # One ue_codes pass over every symbol value — the arrays are small
    # enough that per-call dispatch, not arithmetic, dominates. Each
    # fused symbol's first codes come before all its second codes.
    all_codes, all_bits = ue_codes(
        np.concatenate(
            [
                coded_before[1:] - coded_before[:-1],
                coded - previous - 1,
                zigzag - before - 1,
                counts - 1,
                se_to_ue(levels),
            ]
        )
    )
    fused = coded.size + nonzeros
    frame_starts = np.arange(frames + 1) + coded_before + np.searchsorted(keys, 64 * opens)
    codes = np.empty(int(frame_starts[-1]), dtype=np.int64)
    nbits = np.empty_like(codes)
    codes[frame_starts[:-1]] = all_codes[:frames]
    nbits[frame_starts[:-1]] = all_bits[:frames]
    # A coded block's head follows its frame's count and every earlier
    # block's symbols; its pairs follow it.
    heads = coded // blocks + 1 + np.arange(coded.size) + starts
    at = np.concatenate((heads, np.repeat(heads + 1 - starts, counts) + np.arange(nonzeros)))
    second_bits = all_bits[frames + fused :]
    codes[at] = (all_codes[frames : frames + fused] << second_bits) | all_codes[frames + fused :]
    nbits[at] = all_bits[frames : frames + fused] + second_bits
    return codes, nbits, frame_starts


_VECTOR_LEVEL_LIMIT = 1 << 21


def _encode_keys(
    keys: np.ndarray, levels: np.ndarray, streams: int, frames: int, blocks: int
) -> list[bytes]:
    """Entropy-code ``streams`` GOPs of ``frames`` frames of ``blocks``
    blocks each, given only their nonzero coefficients: ``levels`` at
    sorted ``keys``, key ``64 * ((s * frames + f) * blocks + b) + z`` for
    zigzag position z of block b of stream s's frame f. Returns each
    stream's payload: one bit stream, zero-padded to whole bytes at its
    end only.

    Per frame: the number of coded blocks (those holding a nonzero
    coefficient), then per coded block the skipped blocks before it, its
    nonzero count less one and its (zero run, level) pairs, all
    exp-Golomb (GOP format 2 in DESIGN.md). A frame that codes nothing
    costs one bit, and no frame or plane carries a length or padding.

    One symbol pass (:func:`_keys_to_symbols`) and one packing pass cover
    every stream; the packer byte-aligns at stream boundaries, so payload
    s equals what :func:`_write_rows_reference` writes for stream s's rows
    alone. Coefficients at or beyond ±2**21 would overflow the packer's
    fused-pair codeword lane, so a stream holding one (never produced by
    the quantiser) is coded by the reference while its batch-mates stay
    vectorised. A frame of ``2**25`` blocks or more (over 1.4 gigapixels)
    would overflow the fused skip-and-count lane and is refused.
    """
    if blocks >= 1 << 25:
        raise ValueError(f"a frame of {blocks} blocks is more than the coder codes")
    levels = levels.astype(np.int64, copy=False)
    stream_of = keys // (64 * frames * blocks)
    beyond = np.unique(stream_of[np.abs(levels) >= _VECTOR_LEVEL_LIMIT])
    if beyond.size:
        # Dense rows for the reference; coded vectorised, these streams'
        # frames are placeholder skips whose bytes it replaces below.
        scalar = np.isin(stream_of, beyond)
        rows = np.zeros((beyond.size, frames, blocks, 64), dtype=np.int64)
        rows.reshape(beyond.size, -1)[
            np.searchsorted(beyond, stream_of[scalar]), keys[scalar] % (64 * frames * blocks)
        ] = levels[scalar]
        keys, levels = keys[~scalar], levels[~scalar]
    codes, nbits, frame_starts = _keys_to_symbols(keys, levels, streams * frames, blocks)
    packed, offsets = pack_symbols(codes, nbits, np.diff(frame_starts[::frames]))
    data = packed.tobytes()
    bounds = offsets.tolist()
    payloads = [data[start:stop] for start, stop in zip(bounds, bounds[1:])]
    for row, stream in enumerate(beyond.tolist()):
        writer = BitWriter()
        _write_rows_reference(writer, rows[row])
        payloads[stream] = writer.getvalue()
    return payloads


def _encode_streams(rows: np.ndarray) -> list[bytes]:
    """:func:`_encode_keys` of ``(streams, frames, n, 64)`` dense quantised
    zigzag rows: each stream's payload."""
    keys = np.flatnonzero(rows)
    return _encode_keys(keys, rows.ravel()[keys], *rows.shape[:3])


def _write_rows_reference(writer: BitWriter, rows: np.ndarray) -> None:
    """Scalar reference for :func:`_encode_keys` of one stream's
    ``(frames, n, 64)`` rows (one symbol per call).

    This is the wire format's executable specification; the golden tests
    hold the vectorised path bit-identical to it.
    """
    write_ue = writer.write_ue
    write_se = writer.write_se
    for frame in rows:
        coded = np.flatnonzero(frame.any(axis=1)).tolist()
        write_ue(len(coded))
        previous = -1
        for block in coded:
            write_ue(block - previous - 1)
            previous = block
            zigzag = np.flatnonzero(frame[block]).tolist()
            write_ue(len(zigzag) - 1)
            position = -1
            for index in zigzag:
                write_ue(index - position - 1)
                write_se(int(frame[block, index]))
                position = index


#: Bytes of bit stream one :meth:`BitReader.scan_ue` call expands (~80
#: bytes a bit), so the decoder's scan tables stay one size however long
#: a GOP's payload is.
SCAN_CHUNK_BYTES = 4096


def _read_frames(data: bytes | memoryview, frames: int, blocks: int) -> Iterator[np.ndarray]:
    """Inverse of :func:`_encode_keys` for one stream: its ``frames``
    frames of ``blocks`` blocks, one ``(blocks, 64)`` int32 array of
    zigzag rows at a time. Raises once the last frame is read if anything
    but zero padding (under a byte) follows it.

    The payload is scanned :data:`SCAN_CHUNK_BYTES` at a time through
    :meth:`BitReader.scan_ue`, which locates and decodes every codeword of
    a chunk in one vectorised pass; this function only walks each frame's
    coded blocks to slice counts and skips from (run, level) pairs. It
    holds one chunk's values and the current frame's symbols, never the
    whole payload's.
    """
    reader = BitReader(data)
    values = np.empty(0, dtype=np.uint64)  # scanned, from the frame's first symbol
    listed: list[int] = []  # the same, as ints, for the walk
    cursor = 0  # the next symbol's index in ``values``

    def fill(end: int) -> None:
        # Scan on until ``values`` reaches ``end``, dropping what precedes
        # the current frame (``base``) each time more is scanned.
        nonlocal values, listed, cursor, base
        while len(listed) < end:
            more, malformed = reader.scan_ue(8 * SCAN_CHUNK_BYTES)
            if malformed and not more.size:
                raise ValueError("malformed exp-Golomb code (prefix too long)")
            if not more.size:
                raise ValueError("truncated payload: bit stream ends inside a frame")
            values = np.concatenate((values[base:], more))
            listed = listed[base:] + more.tolist()
            cursor -= base
            end -= base
            base = 0

    for index in range(frames):
        base = cursor
        fill(cursor + 1)
        coded = listed[cursor]
        if coded > blocks:
            raise ValueError(f"frame {index}: {coded} coded blocks of {blocks}")
        cursor += 1
        heads = np.empty(coded, dtype=np.int64)  # each block's first pair, from ``base``
        placed = np.empty(coded, dtype=np.int64)
        counts = np.empty(coded, dtype=np.int64)
        block = -1
        for slot in range(coded):
            fill(cursor + 2)
            block += listed[cursor] + 1
            if block >= blocks:
                raise ValueError(f"frame {index}: skip runs pass its {blocks} blocks")
            count = listed[cursor + 1] + 1
            if count > 64:
                raise ValueError(f"corrupt bitstream: block {block} claims {count} coefficients")
            heads[slot], placed[slot], counts[slot] = cursor + 2 - base, block, count
            cursor += 2 + 2 * count
        fill(cursor)
        rows = np.zeros((blocks, 64), dtype=np.int32)
        nonzeros = int(counts.sum())
        if nonzeros:
            before = np.cumsum(counts) - counts
            which = np.repeat(np.arange(coded), counts)
            pair = base + heads[which] + 2 * (np.arange(nonzeros) - before[which])
            runs = values[pair]
            if int(runs.max()) > 63:
                raise ValueError(f"corrupt bitstream: zero run {int(runs.max())} > 63")
            mapped = values[pair + 1]
            half = (mapped // np.uint64(2)).astype(np.int64)
            levels = np.where((mapped & np.uint64(1)).astype(bool), half + 1, -half)
            if int(np.abs(levels).max()) >= 1 << 31:  # the rows are int32
                raise ValueError("corrupt bitstream: a level beyond ±2**31")
            steps = runs.astype(np.int64) + 1
            walk = np.cumsum(steps)
            positions = walk - np.repeat((walk - steps)[before], counts) - 1
            if int(positions.max()) > 63:
                raise ValueError(
                    f"corrupt bitstream: coefficient index {int(positions.max())} > 63"
                )
            rows[placed[which], positions] = levels
        yield rows
    tail = reader.bits_remaining
    if cursor < len(listed) or tail > 7 or reader.read(tail):
        raise ValueError("corrupt bitstream: bits follow the last frame")


def _read_rows_reference(reader: BitReader, frames: int, blocks: int) -> np.ndarray:
    """Scalar reference for :func:`_read_frames`: ``(frames, blocks, 64)``
    rows, one symbol per call."""
    rows = np.zeros((frames, blocks, 64), dtype=np.int32)
    read_ue = reader.read_ue
    read_se = reader.read_se
    for index in range(frames):
        coded = read_ue()
        if coded > blocks:
            raise ValueError(f"frame {index}: {coded} coded blocks of {blocks}")
        block = -1
        for _ in range(coded):
            block += read_ue() + 1
            if block >= blocks:
                raise ValueError(f"frame {index}: skip runs pass its {blocks} blocks")
            count = read_ue() + 1
            if count > 64:
                raise ValueError(f"corrupt bitstream: block {block} claims {count} coefficients")
            position = -1
            for _ in range(count):
                position += read_ue() + 1
                if position > 63:
                    raise ValueError(f"corrupt bitstream: coefficient index {position} > 63")
                level = read_se()
                if abs(level) >= 1 << 31:  # the rows are int32
                    raise ValueError("corrupt bitstream: a level beyond ±2**31")
                rows[index, block, position] = level
    return rows


def frame_blocks(y: np.ndarray, uv: np.ndarray) -> np.ndarray:
    """Frames in block layout: ``(..., 6, n, 8, 8)`` from ``y`` as
    ``(..., h, w)`` and ``uv`` as ``(..., 2, h/2, w/2)``.

    A frame's 8x8 blocks in bit-stream order — Y, then U, then V, each
    row-major — viewed as six equal groups of ``n = h*w/256``: four of
    luma, one per chroma plane. One ``(6, 1, 8, 8)`` quantiser per stream
    (:func:`frame_quantisers`) then broadcasts over a whole frame.
    """
    *lead, height, width = y.shape
    group = height * width // 256
    return np.concatenate(
        (
            split_blocks(y).reshape(*lead, 4, group, 8, 8),
            split_blocks(uv).reshape(*lead, 2, group, 8, 8),
        ),
        axis=-4,
    )


@functools.lru_cache(maxsize=64)
def frame_quantisers(qualities: tuple[Quality, ...]) -> np.ndarray:
    """``(streams, 6, 1, 8, 8)``: stream s's quantiser for each block group
    of :func:`frame_blocks`, at ``qualities[s]``.

    Memoised per quality tuple (every lock-step step and every GOP decode
    asks for one), so the array is shared and read-only: an in-place op on
    it raises instead of corrupting every later encode.
    """
    qmat = np.stack(
        [
            np.stack(
                [quant_matrix(_BASE_LUMA, quality.scale)] * 4
                + [quant_matrix(_BASE_CHROMA, quality.scale)] * 2
            )
            for quality in qualities
        ]
    )[:, :, None]
    qmat.flags.writeable = False
    return qmat


def quantise_blocks(
    blocks: np.ndarray, reference: np.ndarray | None, qmat: np.ndarray
) -> np.ndarray:
    """Transform + quantise ``(..., 8, 8)`` pixel blocks: the residual
    against ``reference`` (blocks of the previous reconstruction, uint8 or
    the float64 :func:`reconstruct_blocks` returns), or intra (against
    128) without one. Returns the quantised coefficients, rounded but
    still float64; ``qmat`` broadcasts against the blocks.

    The division and ``np.round`` are the wire format: DC coefficients of
    flat blocks land on exact .5 ties, so a reciprocal multiply or another
    precision would flip bytes.
    """
    signal = blocks.astype(np.float64)
    signal -= 128.0 if reference is None else reference
    coefficients = forward_dct(signal)
    coefficients /= qmat
    return np.round(coefficients, out=coefficients)


def reconstruct_blocks(
    quantised: np.ndarray, reference: np.ndarray | None, qmat: np.ndarray
) -> np.ndarray:
    """Dequantise + inverse-transform :func:`quantise_blocks` output back
    onto ``reference``: the decoder's pixel blocks, as float64 integers in
    ``[0, 255]``. Overwrites ``quantised``.

    Blocks are independent: on any subset of a stack it returns those
    blocks of the call on the whole stack, bit for bit, which is what lets
    :func:`repro.video.gop.encode_gops` reconstruct only the blocks that
    hold a nonzero coefficient."""
    quantised *= qmat
    pixels = inverse_dct(quantised)
    pixels += 128.0 if reference is None else reference
    np.round(pixels, out=pixels)
    # np.clip's Python-level wrapper costs more than these two ufuncs on
    # a small tile's blocks; the values are the same.
    np.maximum(pixels, 0.0, out=pixels)
    return np.minimum(pixels, 255.0, out=pixels)


@dataclass(frozen=True)
class PlaneCodec:
    """Transform coding of one plane (luma or chroma) at a fixed quantiser:
    the plane-layout face of :func:`quantise_blocks` and
    :func:`reconstruct_blocks`, one plane and one frame at a time. Nothing
    in the product codes this way (:func:`repro.video.gop.encode_gops`
    steps whole frames in block layout); it is the scalar oracle the
    encoder and :func:`repro.video.gop.decode_gop` are tested against,
    and the plane-sized kernel ``benchmarks/perf`` times."""

    qmat: np.ndarray

    def quantise(
        self, plane: np.ndarray, reference: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Transform + quantise a plane; returns ``(zigzag rows, reconstruction)``.

        With a ``reference`` (the previous reconstructed plane) the residual
        is coded; without, the plane is coded intra. The reconstruction is
        the uint8 plane a decoder produces from the rows.
        """
        if reference is not None and reference.shape != plane.shape:
            raise ValueError(
                f"reference shape {reference.shape} != plane shape {plane.shape}"
            )
        reference_blocks = None if reference is None else split_blocks(reference)
        quantised = quantise_blocks(split_blocks(plane), reference_blocks, self.qmat)
        rows = zigzag_scan(quantised).astype(np.int32)
        pixels = reconstruct_blocks(quantised, reference_blocks, self.qmat)
        return rows, merge_blocks(pixels, *plane.shape[-2:]).astype(np.uint8)

    def encode(self, plane: np.ndarray, reference: np.ndarray | None) -> tuple[bytes, np.ndarray]:
        """Standalone plane encode; returns ``(payload, reconstruction)``."""
        rows, reconstruction = self.quantise(plane, reference)
        return _encode_streams(rows[None, None])[0], reconstruction
