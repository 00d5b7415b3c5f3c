"""Unit tests for the block-transform codec."""

import numpy as np
import pytest

from repro.video.codec import (
    FRAME_TYPE_INTRA,
    FRAME_TYPE_PREDICTED,
    PlaneCodec,
    _entropy_encode,
    _read_rows,
    frame_quantisers,
    quant_matrix,
    _BASE_LUMA,
)
from repro.video.bitstream import read_uvarint, write_uvarint
from repro.video.frame import Frame, psnr
from repro.video.gop import (
    _HEADER,
    GOP_FORMAT_VERSION,
    GOP_MAGIC,
    _parse_gop_header,
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


def frame_payloads(gop: bytes) -> list[bytes]:
    """Each frame's bytes of a GOP: a type byte, then the bit stream."""
    *_, count, offset = _parse_gop_header(gop)
    payloads = []
    for _ in range(count):
        length, offset = read_uvarint(gop, offset)
        payloads.append(gop[offset : offset + length])
        offset += length
    return payloads


def encode_one(quality, frames):
    """``frames`` as one GOP at one rung through the encoder ingest runs,
    at full resolution whatever the rung; returns each frame's bytes (the
    first intra, the rest predicted from the one before)."""
    y = np.stack([frame.y for frame in frames])
    uv = np.stack([np.stack((frame.u, frame.v)) for frame in frames])
    (gop,) = encode_gops((quality,), y[None], uv[None], frames[0].width, frames[0].height)
    return frame_payloads(gop)


def gop_of(quality, width, height, payloads) -> bytes:
    """A GOP built by hand around frame ``payloads`` (the inverse of
    :func:`encode_one`), so the decoder can be handed any frame bytes."""
    out = bytearray(
        _HEADER.pack(GOP_MAGIC, GOP_FORMAT_VERSION, quality.rank, width, height, len(payloads))
    )
    for payload in payloads:
        write_uvarint(out, len(payload))
        out += payload
    return bytes(out)


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
        rows = rng.integers(-30, 30, (10, 64)).astype(np.int32)
        rows[rng.uniform(size=rows.shape) < 0.8] = 0  # sparse, like real residuals
        assert np.array_equal(_read_rows(_entropy_encode(rows), 10), rows)

    def test_all_zero_blocks_are_tiny(self):
        rows = np.zeros((100, 64), dtype=np.int32)
        data = _entropy_encode(rows)
        assert len(data) <= 100 // 8 + 1  # one bit per skipped block

    def test_dense_block_round_trip(self):
        rows = np.full((1, 64), -1, dtype=np.int32)
        assert np.array_equal(_read_rows(_entropy_encode(rows), 1), rows)

    def test_single_trailing_coefficient(self):
        rows = np.zeros((1, 64), dtype=np.int32)
        rows[0, 63] = 7
        assert np.array_equal(_read_rows(_entropy_encode(rows), 1), rows)

    def test_level_fallback_rows_only_for_its_streams(self, monkeypatch):
        """Levels at the fused-pair limit in streams 1 and 3 of many: those
        two go to the scalar coder in order, every payload matches the
        reference, and no dense rows are built for the other streams."""
        import tracemalloc

        from repro.video import codec
        from repro.video.bitstream import BitWriter

        streams, blocks = 4000, 4  # dense int64 rows would be 8 MB
        rng = np.random.default_rng(5)
        rows = np.zeros((streams, blocks, 64), dtype=np.int64)
        sparse = rng.uniform(size=rows.shape) < 0.01
        rows[sparse] = rng.integers(-40, 40, int(sparse.sum()))
        rows[1, 0, 5] = 1 << 21
        rows[3, 3, 63] = -(1 << 22) - 5
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
            payloads = codec._encode_keys(keys, levels, streams, blocks)
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

    def test_corrupt_count_raises(self):
        from repro.video.bitstream import BitWriter

        writer = BitWriter()
        writer.write_ue(65)  # impossible coefficient count
        with pytest.raises(ValueError):
            _read_rows(writer.getvalue(), 1)


class TestPlaneCodec:
    """The plane-layout oracle against what :func:`decode_gop` makes of
    the same plane, as the luma of a GOP at a rung of the same scale."""

    def test_intra_round_trip_is_close(self):
        codec = PlaneCodec(quant_matrix(_BASE_LUMA, Quality.HIGH.scale))
        plane = textured_plane()
        _, reconstruction = codec.encode(plane, None)
        (decoded,) = decode_gop(encode_gop([Frame.from_luma(plane)], Quality.HIGH))
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
        decoded = decode_gop(encode_gop([Frame.from_luma(p) for p in shifted], Quality.MEDIUM))
        previous = None
        for frame, restored in zip(shifted, decoded):
            _, previous = codec.encode(frame, previous)
            assert np.array_equal(restored.y, previous)


class TestFrameCodec:
    """One frame's contract, through :func:`decode_gop` over crafted GOPs."""

    def test_requires_multiple_of_16(self):
        with pytest.raises(ValueError):
            encode_one(Quality.HIGH, [Frame.blank(24, 16)])

    def test_intra_frame_type_byte(self):
        (data,) = encode_one(Quality.HIGH, [Frame.blank(32, 16)])
        assert data[0] == FRAME_TYPE_INTRA

    def test_predicted_frame_type_byte(self):
        frame = Frame.blank(32, 16)
        _, data = encode_one(Quality.HIGH, [frame, frame])
        assert data[0] == FRAME_TYPE_PREDICTED

    def test_round_trip_quality_ordering(self):
        # Same-resolution rungs only: across a resolution change the
        # ordering is approximate (tests/test_properties.py).
        frame = Frame.from_luma(textured_plane(32, 48))
        rungs = [quality for quality in Quality if quality.downscale == 1]
        results = {}
        for quality in rungs:
            data = encode_gop([frame], quality)
            results[quality] = (len(data), psnr(frame, decode_gop(data)[0]))
        sizes = [results[quality][0] for quality in rungs]
        psnrs = [results[quality][1] for quality in rungs]
        assert sizes == sorted(sizes, reverse=True)  # better quality, more bytes
        assert psnrs == sorted(psnrs, reverse=True)

    def test_thumbnail_rung_is_smallest_via_gop(self):
        frames = [Frame.from_luma(textured_plane(32, 64, seed=3))]
        sizes = {quality: len(encode_gop(frames, quality)) for quality in Quality}
        assert sizes[Quality.THUMBNAIL] < sizes[Quality.LOWEST]
        decoded = decode_gop(encode_gop(frames, Quality.THUMBNAIL))
        assert (decoded[0].width, decoded[0].height) == (64, 32)

    def test_thumbnail_rejects_unaligned_dimensions(self):
        frames = [Frame.blank(48, 16)]  # not a multiple of 32
        with pytest.raises(ValueError):
            encode_gop(frames, Quality.THUMBNAIL)

    def test_predicted_requires_reference(self):
        frame = Frame.blank(32, 16)
        _, data = encode_one(Quality.HIGH, [frame, frame])
        with pytest.raises(ValueError, match="requires a reference"):
            decode_gop(gop_of(Quality.HIGH, 32, 16, [data]))

    def test_unknown_frame_type(self):
        with pytest.raises(ValueError, match="unknown frame type"):
            decode_gop(gop_of(Quality.HIGH, 32, 16, [b"\x07" + b"\x00" * 16]))

    def test_truncated_payload(self):
        (data,) = encode_one(Quality.HIGH, [Frame.from_luma(textured_plane(16, 32))])
        with pytest.raises(ValueError, match="truncated"):
            # Trailing bytes keep the header's size check out of the way.
            decode_gop(gop_of(Quality.HIGH, 32, 16, [data[: len(data) // 2]]) + bytes(64))

    def test_empty_payload(self):
        with pytest.raises(ValueError, match="empty frame payload"):
            decode_gop(gop_of(Quality.HIGH, 32, 16, [b""]) + bytes(64))

    def test_chroma_survives_round_trip(self):
        frame = Frame(  # strongly red: low blue-difference, high red-difference
            y=np.full((16, 32), 60, dtype=np.uint8),
            u=np.full((8, 16), 90, dtype=np.uint8),
            v=np.full((8, 16), 230, dtype=np.uint8),
        )
        (decoded,) = decode_gop(gop_of(Quality.HIGH, 32, 16, encode_one(Quality.HIGH, [frame])))
        assert abs(decoded.u.mean() - 90) < 8
        assert abs(decoded.v.mean() - 230) < 8
