"""Bit-level I/O and exponential-Golomb entropy codes.

The codec's entropy layer: a big-endian bit writer/reader pair plus the
unsigned and signed exp-Golomb codes used by H.264/HEVC for header and
residual syntax. Exp-Golomb is a universal code — short for the small
values that dominate quantised transform coefficients — which is what makes
the quality ladder actually change the byte count.

Two speeds coexist here. The scalar ``write_ue``/``read_ue`` methods are
the reference wire format, one symbol at a time. The batched paths —
:func:`ue_codes`, :func:`pack_symbols` and :meth:`BitReader.scan_ue` —
process whole symbol arrays (or bounded windows of bits) with numpy and are
bit-identical to the scalar ones by construction; the codec's hot loops
use them exclusively.
"""

from __future__ import annotations

import numpy as np


def ue_codes(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised unsigned exp-Golomb: ``(codewords, bit lengths)``.

    Each value ``v`` maps to the codeword ``v + 1`` emitted in
    ``2 * bit_length(v + 1) - 1`` bits — exactly what ``write_ue`` does,
    for a whole array at once. Values must satisfy
    ``0 <= v < 2**31`` so the codeword fits the packer's 63-bit lane.
    """
    values = np.asarray(values, dtype=np.int64)
    if values.size == 0:
        return values, values
    if values.min() < 0:
        raise ValueError("unsigned exp-Golomb requires values >= 0")
    if values.max() >= 1 << 31:
        raise ValueError("batched exp-Golomb supports values below 2**31")
    coded = values + 1
    # frexp's exponent is the bit length, exactly: coded < 2**53 converts
    # to float64 without rounding, and no transcendental runs.
    _, length = np.frexp(coded)
    return coded, 2 * length.astype(np.int64) - 1


def se_to_ue(values: np.ndarray) -> np.ndarray:
    """Vectorised signed-to-unsigned exp-Golomb mapping (``write_se``'s
    ``0, 1, -1, 2, -2, ... -> 0, 1, 2, 3, 4`` zigzag)."""
    values = np.asarray(values, dtype=np.int64)
    mapped = np.abs(values)
    mapped <<= 1
    mapped -= values > 0
    return mapped


def pack_symbols(
    codes: np.ndarray, nbits: np.ndarray, lengths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Pack symbols most-significant-bit first, as ``lengths.size`` streams.

    Symbol i is the low ``nbits[i]`` bits of ``codes[i]`` (``int64``, widths
    in ``[1, 63]``, so every shift stays inside one int64 lane); stream s
    is the next ``lengths[s]``
    symbols, zero-padded to a whole byte so that every stream starts
    byte-aligned. Returns ``(packed, offsets)``: stream s is
    ``packed[offsets[s]:offsets[s + 1]]``.
    """
    # Every stream's symbols shift by the padding of the streams before it.
    before = np.concatenate(([0], np.cumsum(nbits)))
    stops = np.cumsum(lengths)
    starts = stops - lengths
    offsets = np.concatenate(([0], np.cumsum((before[stops] - before[starts] + 7) >> 3)))
    if codes.size == 0:
        return np.zeros(0, dtype=np.uint8), offsets
    ends = before[1:] + np.repeat(8 * offsets[:-1] - before[starts], lengths)
    # Pack per symbol-byte, not per bit: shift each codeword so it ends
    # on a byte boundary, slice it into bytes, and scatter-add the
    # nonzero bytes into the output. Two symbols meeting inside a byte
    # occupy disjoint bits, so addition is bitwise OR.
    pad = (-ends) % 8  # zero bits appended to byte-align each symbol's end
    end_byte = (ends + pad) >> 3
    values = codes.astype(np.uint64)
    out_len = int(offsets[-1])
    span = int((int(nbits.max()) + 14) // 8) + 1  # bytes one symbol can touch
    chunks_idx = []
    chunks_val = []
    for j in range(span):
        if j == 0:
            byte = ((values & np.uint64(0xFF)) << pad.astype(np.uint64)) & np.uint64(0xFF)
        else:
            # codes < 2**63, so clamping the shift to 63 zeroes any
            # byte lane beyond the codeword instead of overflowing.
            shift = np.minimum(8 * j - pad, 63).astype(np.uint64)
            byte = (values >> shift) & np.uint64(0xFF)
        live = np.flatnonzero(byte)
        if live.size:
            chunks_idx.append(end_byte[live] - 1 - j)
            chunks_val.append(byte[live])
    if not chunks_idx:
        return np.zeros(out_len, dtype=np.uint8), offsets
    packed = np.bincount(
        np.concatenate(chunks_idx),
        weights=np.concatenate(chunks_val).astype(np.float64),
        minlength=out_len,
    )
    return packed.astype(np.uint8), offsets


class BitWriter:
    """Accumulates bits most-significant-first into a byte buffer."""

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._acc = 0
        self._nbits = 0

    def write(self, value: int, nbits: int) -> None:
        """Append the ``nbits`` low-order bits of ``value``."""
        if nbits < 0:
            raise ValueError(f"bit count must be non-negative, got {nbits}")
        if value < 0 or (nbits < value.bit_length()):
            raise ValueError(f"value {value} does not fit in {nbits} bits")
        self._acc = (self._acc << nbits) | value
        self._nbits += nbits
        while self._nbits >= 8:
            self._nbits -= 8
            self._buffer.append((self._acc >> self._nbits) & 0xFF)
        self._acc &= (1 << self._nbits) - 1

    def write_ue(self, value: int) -> None:
        """Unsigned exp-Golomb: value v is coded as the binary of v+1 with
        leading-zero prefix of equal length minus one."""
        if value < 0:
            raise ValueError(f"unsigned exp-Golomb requires value >= 0, got {value}")
        coded = value + 1
        length = coded.bit_length()
        self.write(coded, 2 * length - 1)

    def write_se(self, value: int) -> None:
        """Signed exp-Golomb: maps 0, 1, -1, 2, -2, ... to 0, 1, 2, 3, 4."""
        mapped = 2 * value - 1 if value > 0 else -2 * value
        self.write_ue(mapped)

    def getvalue(self) -> bytes:
        """The buffer contents, zero-padded to a whole number of bytes."""
        if self._nbits == 0:
            return bytes(self._buffer)
        tail = (self._acc << (8 - self._nbits)) & 0xFF
        return bytes(self._buffer) + bytes([tail])


class BitReader:
    """Reads bits most-significant-first from a byte buffer."""

    def __init__(self, data: bytes | memoryview) -> None:
        self._data = data
        self._pos = 0  # bit position

    @property
    def bits_remaining(self) -> int:
        return len(self._data) * 8 - self._pos

    def read(self, nbits: int) -> int:
        """Read ``nbits`` bits as an unsigned integer."""
        if nbits < 0:
            raise ValueError(f"bit count must be non-negative, got {nbits}")
        if nbits > self.bits_remaining:
            raise EOFError(
                f"requested {nbits} bits with only {self.bits_remaining} remaining"
            )
        result = 0
        remaining = nbits
        while remaining:
            byte_index, bit_offset = divmod(self._pos, 8)
            available = 8 - bit_offset
            take = min(available, remaining)
            chunk = self._data[byte_index]
            chunk >>= available - take
            chunk &= (1 << take) - 1
            result = (result << take) | chunk
            remaining -= take
            self._pos += take
        return result

    def read_ue(self) -> int:
        """Read an unsigned exp-Golomb code (inverse of ``write_ue``)."""
        zeros = 0
        while self.read(1) == 0:
            zeros += 1
            if zeros > 63:
                raise ValueError("malformed exp-Golomb code (prefix too long)")
        if zeros == 0:
            return 0
        suffix = self.read(zeros)
        return (1 << zeros) + suffix - 1

    def read_se(self) -> int:
        """Read a signed exp-Golomb code (inverse of ``write_se``)."""
        mapped = self.read_ue()
        if mapped % 2:
            return (mapped + 1) // 2
        return -(mapped // 2)

    def scan_ue(self, max_bits: int | None = None) -> tuple[np.ndarray, bool]:
        """Decode and consume every complete unsigned exp-Golomb codeword
        in the next ``max_bits`` bits (all that remain by default).

        Returns ``(values, malformed)``: the decoded values (``uint64``)
        and whether the scan stopped, where the reader now stands, at a
        prefix of more than 63 zeros, which no codeword has. Otherwise it
        stopped at the end of the buffer or of the window, or at a
        codeword either cuts. A codeword cut by the window's edge is left
        to the next scan: it is at most 127 bits, so a window of 128 holds
        it whole.

        The boundary structure of a ue stream is self-delimiting (z zeros,
        a one, z suffix bits), so all codeword starts can be found without
        decoding: the successor of a start ``p`` with next set bit at ``o``
        is ``2*o - p + 1``. That successor map is materialised as a jump
        table over the window's bit positions (~80 bytes a bit) and
        iterated by repeated doubling — the whole scan is
        O(bits * log(symbols)) numpy work with no per-bit Python.
        """
        if max_bits is not None and max_bits < 128:
            raise ValueError(f"a scan window of {max_bits} bits may hold no codeword")
        first = self._pos >> 3
        last = len(self._data)
        if max_bits is not None:
            last = min(last, (self._pos + max_bits + 7) >> 3)
        bits = np.unpackbits(np.frombuffer(self._data, dtype=np.uint8)[first:last])
        total = bits.size
        start = self._pos - 8 * first
        positions = np.arange(total, dtype=np.int64)
        # next_one[p]: position of the first set bit at or after p (total if
        # none) — a reverse running minimum over set-bit positions.
        next_one = np.where(bits, positions, total)
        np.minimum.accumulate(next_one[::-1], out=next_one[::-1])
        zeros = next_one - positions  # == total - p when no set bit remains
        code_end = 2 * next_one - positions + 1
        sentinel = total + 1  # "no complete codeword starts here"
        succ = np.where(
            (next_one < total) & (zeros <= 63) & (code_end <= total), code_end, sentinel
        )
        succ = np.concatenate([succ, [sentinel, sentinel]])  # succ[total], succ[sentinel]
        # Enumerate the orbit start, f(start), f²(start), ... by doubling:
        # each round appends f^len applied to what we have and squares the
        # table, so K boundaries cost O(log K) vectorised passes.
        starts = np.array([start], dtype=np.int64)
        jump = succ
        while starts[-1] < total:
            starts = np.concatenate([starts, jump[starts]])
            jump = jump[jump]
        starts = starts[: int(np.argmax(starts >= total))]
        # Only the final orbit entry can start an *incomplete* codeword
        # (its successor is the sentinel, so everything after was trimmed).
        resume = None
        if starts.size and succ[starts[-1]] == sentinel:
            resume = int(starts[-1])
            starts = starts[:-1]

        if starts.size:
            one_at = next_one[starts]
            lengths = one_at - starts + 1  # suffix bits including the leading one
            counts = np.cumsum(lengths) - lengths
            symbol = np.repeat(np.arange(starts.size), lengths)
            offset = np.arange(int(lengths.sum())) - counts[symbol]
            contrib = bits[one_at[symbol] + offset].astype(np.uint64) << (
                (lengths[symbol] - 1 - offset).astype(np.uint64)
            )
            values = np.add.reduceat(contrib, counts) - np.uint64(1)
            if resume is None:
                resume = int(one_at[-1] + lengths[-1])  # the last codeword's end
        else:
            values = np.empty(0, dtype=np.uint64)
            if resume is None:
                resume = start
        self._pos = 8 * first + resume
        return values, bool(resume < total and zeros[resume] > 63)
