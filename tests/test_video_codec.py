"""Unit tests for the block-transform codec."""

import numpy as np
import pytest

from repro.video.codec import (
    PlaneCodec,
    _encode_streams,
    _read_frames,
    _read_rows_reference,
    frame_quantisers,
    quant_matrix,
    _BASE_LUMA,
)
from repro.video.bitstream import BitReader, BitWriter
from repro.video.frame import Frame, psnr
from repro.video.gop import (
    _HEADER,
    GOP_FORMAT_VERSION,
    GOP_MAGIC,
    decode_gop,
    encode_gop,
    encode_gops,
)
from repro.video.quality import Quality


def textured_plane(height=32, width=48, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 6, width)
    y = np.linspace(0, 3, height)
    plane = 120 + 70 * np.sin(x)[None, :] * np.cos(y)[:, None] + rng.normal(0, 4, (height, width))
    return np.clip(plane, 0, 255).astype(np.uint8)


def encode_one(quality, frames) -> bytes:
    """``frames`` as one GOP at one rung through the encoder ingest runs,
    at full resolution whatever the rung; returns the bit stream after
    the header (the first frame intra, the rest predicted from the one
    before)."""
    y = np.stack([frame.y for frame in frames])
    uv = np.stack([np.stack((frame.u, frame.v)) for frame in frames])
    (gop,) = encode_gops((quality,), y[None], uv[None], frames[0].width, frames[0].height)
    return gop[_HEADER.size :]


def gop_of(quality, width, height, frames, stream, version=GOP_FORMAT_VERSION) -> bytes:
    """A GOP built by hand around a bit stream (the inverse of
    :func:`encode_one`), so the decoder can be handed any frame bytes."""
    return _HEADER.pack(GOP_MAGIC, version, quality.rank, width, height, frames) + stream


def read_rows(payload: bytes, frames: int, blocks: int) -> np.ndarray:
    """The vectorised decoder's frames of one payload, stacked."""
    return np.stack(list(_read_frames(payload, frames, blocks))).reshape(frames, blocks, 64)


def read_rows_reference(payload: bytes, frames: int, blocks: int) -> np.ndarray:
    """The scalar reference decoder's rows of one payload."""
    return _read_rows_reference(BitReader(payload), frames, blocks)


class TestQuantMatrix:
    def test_scale_one_is_base(self):
        assert np.array_equal(quant_matrix(_BASE_LUMA, 1.0), _BASE_LUMA)

    def test_steps_never_below_one(self):
        assert np.min(quant_matrix(_BASE_LUMA, 0.001)) >= 1.0

    def test_steps_capped(self):
        assert np.max(quant_matrix(_BASE_LUMA, 1e9)) <= 4096.0

    def test_rejects_non_positive_scale(self):
        with pytest.raises(ValueError):
            quant_matrix(_BASE_LUMA, 0.0)

    def test_frame_quantisers_are_shared_and_read_only(self):
        """Memoised per quality tuple, so an in-place op on one must raise
        rather than change every later encode's quantiser."""
        qmat = frame_quantisers((Quality.HIGH, Quality.LOW))
        assert frame_quantisers((Quality.HIGH, Quality.LOW)) is qmat
        with pytest.raises(ValueError):
            qmat *= 2.0
        assert np.array_equal(qmat[0, 0, 0], _BASE_LUMA)


class TestEntropy:
    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(-30, 30, (3, 10, 64)).astype(np.int32)
        rows[rng.uniform(size=rows.shape) < 0.8] = 0  # sparse, like real residuals
        assert np.array_equal(read_rows(_encode_streams(rows[None])[0], 3, 10), rows)

    def test_all_zero_blocks_are_tiny(self):
        rows = np.zeros((8, 100, 64), dtype=np.int32)
        assert _encode_streams(rows[None])[0] == b"\xff"  # ue(0) is one set bit a frame

    def test_dense_block_round_trip(self):
        rows = np.full((1, 64), -1, dtype=np.int32)
        assert np.array_equal(read_rows(_encode_streams(rows[None, None])[0], 1, 1)[0], rows)

    def test_single_trailing_coefficient(self):
        rows = np.zeros((1, 64), dtype=np.int32)
        rows[0, 63] = 7
        assert np.array_equal(read_rows(_encode_streams(rows[None, None])[0], 1, 1)[0], rows)

    def test_level_fallback_rows_only_for_its_streams(self, monkeypatch):
        """Levels at the fused-pair limit in streams 1 and 3 of many: those
        two go to the scalar coder in order, every payload matches the
        reference, and no dense rows are built for the other streams."""
        import tracemalloc

        from repro.video import codec

        streams, blocks = 4000, 4  # dense int64 rows would be 8 MB
        rng = np.random.default_rng(5)
        rows = np.zeros((streams, 1, blocks, 64), dtype=np.int64)
        sparse = rng.uniform(size=rows.shape) < 0.01
        rows[sparse] = rng.integers(-40, 40, int(sparse.sum()))
        rows[1, 0, 0, 5] = 1 << 21
        rows[3, 0, 3, 63] = -(1 << 22) - 5
        keys = np.flatnonzero(rows)
        levels = rows.ravel()[keys]
        scalar_calls = []
        reference = codec._write_rows_reference

        def counting(writer, stream_rows):
            scalar_calls.append(stream_rows.copy())
            reference(writer, stream_rows)

        monkeypatch.setattr(codec, "_write_rows_reference", counting)
        tracemalloc.start()
        try:
            payloads = codec._encode_keys(keys, levels, streams, 1, blocks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < rows.nbytes  # ~4 MB; ~12 MB with rows for every stream
        assert len(scalar_calls) == 2
        np.testing.assert_array_equal(scalar_calls[0], rows[1])
        np.testing.assert_array_equal(scalar_calls[1], rows[3])
        for stream in (0, 1, 2, 3, streams - 1):
            writer = BitWriter()
            reference(writer, rows[stream])
            assert payloads[stream] == writer.getvalue(), stream

    def test_frames_past_the_fused_lane_are_refused(self):
        from repro.video import codec

        empty = np.zeros(0, dtype=np.int64)
        assert codec._encode_keys(empty, empty, 1, 1, (1 << 25) - 1) == [b"\x80"]
        with pytest.raises(ValueError, match="more than the coder codes"):
            codec._encode_keys(empty, empty, 1, 1, 1 << 25)

    def test_prefix_of_64_zeros_raises(self, monkeypatch):
        from repro.video import codec

        monkeypatch.setattr(codec, "SCAN_CHUNK_BYTES", 16)  # 128-bit windows
        for zeros in (9, 64):  # zero bytes inside one window, and past it
            with pytest.raises(ValueError, match="malformed"):
                read_rows(bytes(zeros) + b"\xff", 1, 1)

    def test_level_beyond_the_rows_raises(self):
        writer = BitWriter()
        for value in (1, 0, 0, 0):  # one coded block, one coefficient at 0
            writer.write_ue(value)
        writer.write_se(1 << 31)  # one past int32
        for decode in (read_rows, read_rows_reference):
            with pytest.raises(ValueError, match=r"corrupt bitstream: a level beyond ±2\*\*31"):
                decode(writer.getvalue(), 1, 1)

    def test_corrupt_count_raises(self):
        writer = BitWriter()
        writer.write_ue(1)  # one coded block
        writer.write_ue(0)  # no skip before it
        writer.write_ue(64)  # 65 coefficients: impossible
        with pytest.raises(ValueError, match="claims 65"):
            read_rows(writer.getvalue(), 1, 1)


class TestPlaneCodec:
    """The plane-layout oracle against what :func:`decode_gop` makes of
    the same plane, as the luma of a GOP at a rung of the same scale."""

    def test_intra_round_trip_is_close(self):
        codec = PlaneCodec(quant_matrix(_BASE_LUMA, Quality.HIGH.scale))
        plane = textured_plane()
        _, reconstruction = codec.encode(plane, None)
        (decoded,) = decode_gop(encode_gop([Frame.from_luma(plane)], Quality.HIGH), 48, 32, 1)
        assert np.array_equal(decoded.y, reconstruction)
        assert psnr(plane, decoded.y) > 35

    def test_coarser_quantiser_fewer_bytes(self):
        plane = textured_plane()
        fine, _ = PlaneCodec(quant_matrix(_BASE_LUMA, 1.0)).encode(plane, None)
        coarse, _ = PlaneCodec(quant_matrix(_BASE_LUMA, 10.0)).encode(plane, None)
        assert len(coarse) < len(fine)

    def test_predicted_identical_frame_is_tiny(self):
        codec = PlaneCodec(quant_matrix(_BASE_LUMA, 1.0))
        plane = textured_plane()
        _, reconstruction = codec.encode(plane, None)
        payload, second = codec.encode(reconstruction, reconstruction)
        assert len(payload) < 40  # all-skip blocks
        assert np.array_equal(second, reconstruction)

    def test_reference_shape_mismatch(self):
        codec = PlaneCodec(quant_matrix(_BASE_LUMA, 1.0))
        with pytest.raises(ValueError):
            codec.encode(textured_plane(), np.zeros((8, 8), dtype=np.uint8))

    def test_encoder_reconstruction_matches_decoder(self):
        codec = PlaneCodec(quant_matrix(_BASE_LUMA, Quality.MEDIUM.scale))
        plane = textured_plane(seed=1)
        shifted = [np.roll(plane, step * 2, axis=1) for step in range(3)]
        decoded = decode_gop(
            encode_gop([Frame.from_luma(p) for p in shifted], Quality.MEDIUM), 48, 32, 3
        )
        previous = None
        for frame, restored in zip(shifted, decoded):
            _, previous = codec.encode(frame, previous)
            assert np.array_equal(restored.y, previous)


class TestFrameCodec:
    """One frame's contract, through :func:`decode_gop` over crafted GOPs."""

    def test_requires_multiple_of_16(self):
        with pytest.raises(ValueError):
            encode_one(Quality.HIGH, [Frame.blank(24, 16)])

    def test_frames_share_one_bit_stream(self):
        """No frame has a length, a type or padding: a repeated flat frame
        adds one bit."""
        frame = Frame.blank(32, 16)
        one = encode_one(Quality.HIGH, [frame])
        assert len(encode_one(Quality.HIGH, [frame] * 3)) - len(one) <= 1
        writer = BitWriter()
        for _ in range(3):
            writer.write_ue(0)  # a flat grey frame codes nothing, intra too
        assert encode_one(Quality.HIGH, [Frame.blank(32, 16, luma=128)] * 3) == writer.getvalue()

    def test_round_trip_quality_ordering(self):
        # Same-resolution rungs only: across a resolution change the
        # ordering is approximate (tests/test_properties.py).
        frame = Frame.from_luma(textured_plane(32, 48))
        rungs = [quality for quality in Quality if quality.downscale == 1]
        results = {}
        for quality in rungs:
            data = encode_gop([frame], quality)
            results[quality] = (len(data), psnr(frame, decode_gop(data, 48, 32, 1)[0]))
        sizes = [results[quality][0] for quality in rungs]
        psnrs = [results[quality][1] for quality in rungs]
        assert sizes == sorted(sizes, reverse=True)  # better quality, more bytes
        assert psnrs == sorted(psnrs, reverse=True)

    def test_thumbnail_rung_is_smallest_via_gop(self):
        frames = [Frame.from_luma(textured_plane(32, 64, seed=3))]
        sizes = {quality: len(encode_gop(frames, quality)) for quality in Quality}
        assert sizes[Quality.THUMBNAIL] < sizes[Quality.LOWEST]
        decoded = decode_gop(encode_gop(frames, Quality.THUMBNAIL), 64, 32, 1)
        assert (decoded[0].width, decoded[0].height) == (64, 32)

    def test_thumbnail_rejects_unaligned_dimensions(self):
        frames = [Frame.blank(48, 16)]  # not a multiple of 32
        with pytest.raises(ValueError):
            encode_gop(frames, Quality.THUMBNAIL)

    def test_format_one_is_refused(self):
        frame = Frame.from_luma(textured_plane(16, 32))
        stream = encode_one(Quality.HIGH, [frame])
        with pytest.raises(ValueError, match="unsupported GOP format version 1"):
            decode_gop(gop_of(Quality.HIGH, 32, 16, 1, stream, version=1), 32, 16, 1)

    def test_truncated_payload(self):
        stream = encode_one(Quality.HIGH, [Frame.from_luma(textured_plane(16, 32))] * 2)
        with pytest.raises(ValueError, match="truncated"):
            decode_gop(gop_of(Quality.HIGH, 32, 16, 2, stream[: len(stream) // 2]), 32, 16, 2)

    def test_empty_payload(self):
        with pytest.raises(ValueError, match="could hold"):
            decode_gop(gop_of(Quality.HIGH, 32, 16, 1, b""), 32, 16, 1)

    def test_bits_after_the_last_frame(self):
        stream = encode_one(Quality.HIGH, [Frame.from_luma(textured_plane(16, 32))])
        for tail in (b"\x00", b"\x80"):
            with pytest.raises(ValueError, match="follow the last frame"):
                decode_gop(gop_of(Quality.HIGH, 32, 16, 1, stream + tail), 32, 16, 1)

    def test_chroma_survives_round_trip(self):
        frame = Frame(  # strongly red: low blue-difference, high red-difference
            y=np.full((16, 32), 60, dtype=np.uint8),
            u=np.full((8, 16), 90, dtype=np.uint8),
            v=np.full((8, 16), 230, dtype=np.uint8),
        )
        stream = encode_one(Quality.HIGH, [frame])
        (decoded,) = decode_gop(gop_of(Quality.HIGH, 32, 16, 1, stream), 32, 16, 1)
        assert abs(decoded.u.mean() - 90) < 8
        assert abs(decoded.v.mean() - 230) < 8
