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

FRAME_TYPE_INTRA = 0
FRAME_TYPE_PREDICTED = 1


def quant_matrix(base: np.ndarray, scale: float) -> np.ndarray:
    """Scale a base quantisation matrix, clamping steps to ``[1, 4096]``."""
    if scale <= 0:
        raise ValueError(f"quantiser scale must be positive, got {scale}")
    return np.clip(np.round(base * scale), 1.0, 4096.0)


def _run_length_symbols(keys: np.ndarray, blocks: int) -> tuple[np.ndarray, np.ndarray]:
    """Run/level structure of sorted coefficient keys: ``(counts, runs)``.

    Key ``64 * b + z`` is the nonzero coefficient at zigzag position z of
    block b. ``counts[b]`` is block b's nonzero count (over ``blocks``
    blocks); ``runs`` holds, in key order, the zero-run before each
    nonzero coefficient.
    """
    block_idx = keys >> 6
    coef_idx = keys & 63
    counts = np.bincount(block_idx, minlength=blocks)
    if block_idx.size:
        first = np.empty(block_idx.size, dtype=bool)
        first[0] = True
        np.not_equal(block_idx[1:], block_idx[:-1], out=first[1:])
        runs = np.where(first, coef_idx, np.diff(coef_idx, prepend=0) - 1)
    else:
        runs = coef_idx
    return counts, runs


def _keys_to_symbols(
    keys: np.ndarray, levels: np.ndarray, blocks: int
) -> tuple[np.ndarray, np.ndarray]:
    """The full exp-Golomb symbol stream of ``blocks`` blocks whose nonzero
    coefficients are ``levels`` at sorted ``keys``: ``(codes, nbits)``.

    Each (run, level) pair is fused into one packed symbol — the run code's
    bits followed by the level code's bits, exactly the wire sequence — so
    the packer sees ``blocks + nonzeros`` symbols instead of
    ``blocks + 2 * nonzeros``. Fusion stays within the packer's 63-bit lane
    because its callers bound levels to ``±2**21`` first
    (run <= 63 -> 13 bits, |level| < 2**21 -> 43 bits).
    """
    counts, runs = _run_length_symbols(keys, blocks)
    nonzeros = levels.size
    # One ue_codes pass over every symbol value (counts, runs, mapped
    # levels back to back) — the arrays are small enough that per-call
    # dispatch, not arithmetic, dominates three separate passes.
    all_codes, all_bits = ue_codes(
        np.concatenate([counts, runs, se_to_ue(levels)])
    )
    count_codes, count_bits = all_codes[:blocks], all_bits[:blocks]
    codes = np.empty(blocks + nonzeros, dtype=np.int64)
    nbits = np.empty(blocks + nonzeros, dtype=np.int64)
    before = np.cumsum(counts) - counts
    count_pos = np.arange(blocks) + before
    codes[count_pos] = count_codes
    nbits[count_pos] = count_bits
    if nonzeros:
        run_codes = all_codes[blocks : blocks + nonzeros]
        run_bits = all_bits[blocks : blocks + nonzeros]
        level_codes = all_codes[blocks + nonzeros :]
        level_bits = all_bits[blocks + nonzeros :]
        block_of = keys >> 6
        pair_pos = count_pos[block_of] + 1 + (np.arange(nonzeros) - before[block_of])
        codes[pair_pos] = (run_codes << level_bits) | level_codes
        nbits[pair_pos] = run_bits + level_bits
    return codes, nbits


_VECTOR_LEVEL_LIMIT = 1 << 21


def _encode_keys(keys: np.ndarray, levels: np.ndarray, streams: int, blocks: int) -> list[bytes]:
    """Entropy-code ``streams`` streams of ``blocks`` blocks each, given
    only their nonzero coefficients: ``levels`` at sorted ``keys``, key
    ``64 * (s * blocks + b) + z`` for zigzag position z of stream s's
    block b. Returns each stream's payload, zero-padded to whole bytes.

    Per block: the nonzero count as unsigned exp-Golomb, then (run, level)
    pairs — the run of zeros before each nonzero coefficient and its signed
    value. A count of zero is the skip case and costs a single bit. The
    stream is self-delimiting given the block count, so planes concatenate
    with no length prefixes — the overhead floor that would otherwise
    dominate low-quality segments.

    One symbol pass (:func:`_keys_to_symbols`) and one packing pass cover
    every stream; the packer byte-aligns at stream boundaries, so payload
    s equals what :func:`_write_rows_reference` writes for stream s's rows
    alone. Coefficients at or beyond ±2**21 would overflow the packer's
    fused-pair codeword lane, so a stream holding one (never produced by
    the quantiser) is coded by the reference while its batch-mates stay
    vectorised.
    """
    levels = levels.astype(np.int64, copy=False)
    stream_of = keys // (64 * blocks)
    beyond = np.unique(stream_of[np.abs(levels) >= _VECTOR_LEVEL_LIMIT])
    if beyond.size:
        # Dense rows for the reference; coded vectorised, these streams'
        # blocks are placeholder skips whose bytes it replaces below.
        scalar = np.isin(stream_of, beyond)
        rows = np.zeros((beyond.size, blocks, 64), dtype=np.int64)
        rows.reshape(beyond.size, -1)[
            np.searchsorted(beyond, stream_of[scalar]), keys[scalar] % (64 * blocks)
        ] = levels[scalar]
        keys, levels, stream_of = keys[~scalar], levels[~scalar], stream_of[~scalar]
    codes, nbits = _keys_to_symbols(keys, levels, streams * blocks)
    lengths = blocks + np.bincount(stream_of, minlength=streams)
    packed, offsets = pack_symbols(codes, nbits, lengths)
    data = packed.tobytes()
    bounds = offsets.tolist()
    payloads = [data[start:stop] for start, stop in zip(bounds, bounds[1:])]
    for row, stream in enumerate(beyond.tolist()):
        writer = BitWriter()
        _write_rows_reference(writer, rows[row])
        payloads[stream] = writer.getvalue()
    return payloads


def _encode_streams(rows: np.ndarray) -> list[bytes]:
    """:func:`_encode_keys` of ``(streams, n, 64)`` dense quantised zigzag
    rows: each stream's payload."""
    keys = np.flatnonzero(rows)
    return _encode_keys(keys, rows.ravel()[keys], *rows.shape[:2])


def _write_rows_reference(writer: BitWriter, rows: np.ndarray) -> None:
    """Scalar reference for :func:`_encode_keys` of one stream's ``(n, 64)``
    rows (one symbol per call).

    This is the wire format's executable specification; the golden tests
    hold the vectorised path bit-identical to it.
    """
    keys = np.flatnonzero(rows)
    counts, runs = _run_length_symbols(keys, rows.shape[0])
    write_ue = writer.write_ue
    write_se = writer.write_se
    cursor = 0
    runs_list = runs.tolist()
    levels_list = rows.ravel()[keys].tolist()
    for count in counts.tolist():
        write_ue(count)
        for _ in range(count):
            write_ue(runs_list[cursor])
            write_se(levels_list[cursor])
            cursor += 1


def _raise_scan_stop(stop: str) -> None:
    if stop == BitReader.SCAN_MALFORMED:
        raise ValueError("malformed exp-Golomb code (prefix too long)")
    raise ValueError("truncated payload: bit stream ends inside a block's coefficient data")


def _read_rows(data: bytes | memoryview, block_count: int) -> np.ndarray:
    """Inverse of :func:`_encode_streams`: one payload to ``(n, 64)`` rows.

    Decodes through :meth:`BitReader.scan_ue`: every codeword in the
    payload is located and decoded in one vectorised pass, and this
    function only walks the per-block structure to slice counts from
    (run, level) pairs.
    """
    if block_count == 0:
        return np.zeros((0, 64), dtype=np.int32)
    values, stop = BitReader(data).scan_ue()
    available = values.size
    count_idx = np.empty(block_count, dtype=np.int64)
    cursor = 0
    values_int = values.astype(np.int64, copy=False)
    for block in range(block_count):
        if cursor >= available:
            _raise_scan_stop(stop)
        count = int(values_int[cursor])
        if count > 64:
            raise ValueError(f"corrupt bitstream: block {block} claims {count} coefficients")
        count_idx[block] = cursor
        cursor += 1 + 2 * count
    if cursor > available:
        _raise_scan_stop(stop)
    counts = values_int[count_idx]
    rows = np.zeros((block_count, 64), dtype=np.int32)  # after the scan's peak
    nonzeros = int(counts.sum())
    if nonzeros:
        before = np.cumsum(counts) - counts
        block_of = np.repeat(np.arange(block_count), counts)
        pair_idx = count_idx[block_of] + 1 + 2 * (np.arange(nonzeros) - before[block_of])
        runs = values_int[pair_idx]
        mapped = values[pair_idx + 1]
        half = (mapped // np.uint64(2)).astype(np.int64)
        levels = np.where((mapped & np.uint64(1)).astype(bool), half + 1, -half)
        steps = runs + 1
        walk = np.cumsum(steps)
        segment_base = (walk - steps)[np.minimum(before, nonzeros - 1)]
        positions = walk - np.repeat(segment_base, counts) - 1
        if int(positions.max()) > 63:
            raise ValueError(
                f"corrupt bitstream: coefficient index {int(positions.max())} > 63"
            )
        rows[block_of, positions] = levels
    return rows


def _read_rows_reference(reader: BitReader, block_count: int) -> np.ndarray:
    """Scalar reference for :func:`_read_rows` (one symbol per call)."""
    rows = np.zeros((block_count, 64), dtype=np.int32)
    read_ue = reader.read_ue
    read_se = reader.read_se
    for block in range(block_count):
        count = read_ue()
        if count > 64:
            raise ValueError(f"corrupt bitstream: block {block} claims {count} coefficients")
        position = -1
        for _ in range(count):
            position += read_ue() + 1
            if position > 63:
                raise ValueError(f"corrupt bitstream: coefficient index {position} > 63")
            rows[block, position] = read_se()
    return rows


def _entropy_encode(rows: np.ndarray) -> bytes:
    """One stream's rows as a standalone payload (padded to whole bytes)."""
    return _encode_streams(rows[None])[0]


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
        return _entropy_encode(rows), reconstruction
