"""Unit tests for bit I/O and exp-Golomb codes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.video.bitstream import BitReader, BitWriter, pack_symbols


class TestBitWriter:
    def test_single_byte(self):
        writer = BitWriter()
        writer.write(0xAB, 8)
        assert writer.getvalue() == b"\xab"

    def test_partial_byte_padded(self):
        writer = BitWriter()
        writer.write(0b101, 3)
        assert writer.getvalue() == bytes([0b1010_0000])

    def test_crosses_byte_boundary(self):
        writer = BitWriter()
        writer.write(0b1111, 4)
        writer.write(0b000011, 6)
        assert writer.getvalue() == bytes([0b1111_0000, 0b1100_0000])

    def test_rejects_value_too_wide(self):
        with pytest.raises(ValueError):
            BitWriter().write(8, 3)

    def test_rejects_negative_bits(self):
        with pytest.raises(ValueError):
            BitWriter().write(0, -1)

    def test_zero_bit_write_is_noop(self):
        writer = BitWriter()
        writer.write(0, 0)
        assert writer.getvalue() == b""


class TestBitReader:
    def test_reads_back_writes(self):
        writer = BitWriter()
        for value, nbits in [(5, 3), (0, 2), (1023, 10), (1, 1)]:
            writer.write(value, nbits)
        reader = BitReader(writer.getvalue())
        assert reader.read(3) == 5
        assert reader.read(2) == 0
        assert reader.read(10) == 1023
        assert reader.read(1) == 1

    def test_eof(self):
        reader = BitReader(b"\xff")
        reader.read(8)
        with pytest.raises(EOFError):
            reader.read(1)

    def test_bits_remaining(self):
        reader = BitReader(b"\x00\x00")
        reader.read(3)
        assert reader.bits_remaining == 13

    def test_wide_read(self):
        writer = BitWriter()
        writer.write(0x1234_5678_9ABC, 48)
        assert BitReader(writer.getvalue()).read(48) == 0x1234_5678_9ABC


class TestExpGolomb:
    @pytest.mark.parametrize("value", [0, 1, 2, 3, 7, 8, 63, 64, 255, 100_000])
    def test_unsigned_round_trip(self, value):
        writer = BitWriter()
        writer.write_ue(value)
        assert BitReader(writer.getvalue()).read_ue() == value

    @pytest.mark.parametrize("value", [0, 1, -1, 2, -2, 17, -17, 4095, -4096])
    def test_signed_round_trip(self, value):
        writer = BitWriter()
        writer.write_se(value)
        assert BitReader(writer.getvalue()).read_se() == value

    def test_unsigned_rejects_negative(self):
        with pytest.raises(ValueError):
            BitWriter().write_ue(-1)

    def test_known_codewords(self):
        # Classic table: 0 -> '1', 1 -> '010', 2 -> '011', 3 -> '00100'.
        for value, bits in [(0, "1"), (1, "010"), (2, "011"), (3, "00100")]:
            writer = BitWriter()
            writer.write_ue(value)
            padded = bits.ljust(8, "0")
            assert writer.getvalue() == int(padded, 2).to_bytes(1, "big")
            as_int = int(bits, 2)
            reader = BitReader(writer.getvalue())
            assert reader.read(len(bits)) == as_int

    def test_small_values_are_short(self):
        short = BitWriter()
        short.write_ue(0)
        long = BitWriter()
        long.write_ue(1000)
        assert len(short.getvalue()) < len(long.getvalue())

    def test_sequence_round_trip(self):
        values = list(range(0, 40))
        writer = BitWriter()
        for value in values:
            writer.write_ue(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_ue() for _ in values] == values

    def test_malformed_prefix_raises(self):
        reader = BitReader(b"\x00" * 10)
        with pytest.raises(ValueError):
            reader.read_ue()


def _symbol(max_bits: int = 63):
    """``(value, width)`` with the value fitting the width."""
    return st.integers(1, max_bits).flatmap(
        lambda nbits: st.tuples(st.integers(0, (1 << nbits) - 1), st.just(nbits))
    )


def _pack(streams: list[list[tuple[int, int]]]) -> list[bytes]:
    symbols = [symbol for stream in streams for symbol in stream]
    packed, offsets = pack_symbols(
        np.array([value for value, _ in symbols], dtype=np.int64),
        np.array([nbits for _, nbits in symbols], dtype=np.int64),
        np.array([len(stream) for stream in streams], dtype=np.int64),
    )
    data = packed.tobytes()
    return [data[start:stop] for start, stop in zip(offsets[:-1], offsets[1:])]


def _separate_writers(streams: list[list[tuple[int, int]]]) -> list[bytes]:
    payloads = []
    for stream in streams:
        writer = BitWriter()
        for value, nbits in stream:
            writer.write(value, nbits)
        payloads.append(writer.getvalue())
    return payloads


class TestPackSymbols:
    """The multi-stream packer against one scalar ``BitWriter`` per stream."""

    @given(st.lists(st.lists(_symbol(), max_size=12), min_size=1, max_size=6))
    def test_matches_separate_writers(self, streams):
        assert _pack(streams) == _separate_writers(streams)

    @pytest.mark.parametrize("lead_bits", range(8))
    def test_widest_symbol_ending_a_stream(self, lead_bits):
        # A 63-bit fused (run, level) pair is the widest codeword the codec
        # emits. Ending a stream at every bit phase, it must neither lose
        # its high bits nor spill into the byte-aligned stream after it.
        widest = ((1 << 63) - 1, 63)
        lead = [(0b1, lead_bits)] if lead_bits else []
        streams = [lead + [widest], [(0b101, 3), widest], [widest]]
        assert _pack(streams) == _separate_writers(streams)

    def test_empty_streams_take_no_bytes(self):
        streams = [[], [(1, 1)], [], []]
        assert _pack(streams) == [b"", b"\x80", b"", b""]
        packed, offsets = pack_symbols(
            np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(2, dtype=np.int64)
        )
        assert packed.size == 0 and offsets.tolist() == [0, 0, 0]
