"""Unit tests for the block-transform codec."""

import numpy as np
import pytest

from repro.video.codec import (
    FRAME_TYPE_INTRA,
    FRAME_TYPE_PREDICTED,
    FrameCodec,
    PlaneCodec,
    _entropy_decode,
    _entropy_encode,
    quant_matrix,
    _BASE_LUMA,
)
from repro.video.bitstream import read_uvarint
from repro.video.frame import Frame, psnr
from repro.video.gop import _parse_gop_header, encode_gops
from repro.video.quality import Quality


def textured_plane(height=32, width=48, seed=0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 6, width)
    y = np.linspace(0, 3, height)
    plane = 120 + 70 * np.sin(x)[None, :] * np.cos(y)[:, None] + rng.normal(0, 4, (height, width))
    return np.clip(plane, 0, 255).astype(np.uint8)


def encode_one(quality, frames):
    """``frames`` as one GOP at one rung through the encoder ingest runs;
    returns each frame's bytes for :class:`FrameCodec` to decode (the
    first intra, the rest predicted from the one before)."""
    y = np.stack([frame.y for frame in frames])
    uv = np.stack([np.stack((frame.u, frame.v)) for frame in frames])
    (gop,) = encode_gops((quality,), y[None], uv[None], frames[0].width, frames[0].height)
    *_, count, offset = _parse_gop_header(gop)
    payloads = []
    for _ in range(count):
        length, offset = read_uvarint(gop, offset)
        payloads.append(gop[offset : offset + length])
        offset += length
    return payloads


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


class TestEntropy:
    def test_round_trip_random(self):
        rng = np.random.default_rng(3)
        rows = rng.integers(-30, 30, (10, 64)).astype(np.int32)
        rows[rng.uniform(size=rows.shape) < 0.8] = 0  # sparse, like real residuals
        assert np.array_equal(_entropy_decode(_entropy_encode(rows), 10), rows)

    def test_all_zero_blocks_are_tiny(self):
        rows = np.zeros((100, 64), dtype=np.int32)
        data = _entropy_encode(rows)
        assert len(data) <= 100 // 8 + 1  # one bit per skipped block

    def test_dense_block_round_trip(self):
        rows = np.full((1, 64), -1, dtype=np.int32)
        assert np.array_equal(_entropy_decode(_entropy_encode(rows), 1), rows)

    def test_single_trailing_coefficient(self):
        rows = np.zeros((1, 64), dtype=np.int32)
        rows[0, 63] = 7
        assert np.array_equal(_entropy_decode(_entropy_encode(rows), 1), rows)

    def test_corrupt_count_raises(self):
        from repro.video.bitstream import BitWriter

        writer = BitWriter()
        writer.write_ue(65)  # impossible coefficient count
        with pytest.raises(ValueError):
            _entropy_decode(writer.getvalue(), 1)


class TestPlaneCodec:
    def test_intra_round_trip_is_close(self):
        codec = PlaneCodec(quant_matrix(_BASE_LUMA, 1.0))
        plane = textured_plane()
        payload, reconstruction = codec.encode(plane, None)
        decoded = codec.decode(payload, 32, 48, None)
        assert np.array_equal(decoded, reconstruction)
        assert psnr(plane, decoded) > 35

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
        codec = PlaneCodec(quant_matrix(_BASE_LUMA, 4.0))
        previous = None
        plane = textured_plane(seed=1)
        for step in range(3):
            shifted = np.roll(plane, step * 2, axis=1)
            payload, reconstruction = codec.encode(shifted, previous)
            decoded = codec.decode(payload, 32, 48, previous)
            assert np.array_equal(decoded, reconstruction)
            previous = reconstruction


class TestFrameCodec:
    def test_requires_multiple_of_16(self):
        codec = FrameCodec(Quality.HIGH)
        with pytest.raises(ValueError):
            encode_one(codec.quality, [Frame.blank(24, 16)])

    def test_intra_frame_type_byte(self):
        codec = FrameCodec(Quality.HIGH)
        (data,) = encode_one(codec.quality, [Frame.blank(32, 16)])
        assert data[0] == FRAME_TYPE_INTRA

    def test_predicted_frame_type_byte(self):
        codec = FrameCodec(Quality.HIGH)
        frame = Frame.blank(32, 16)
        _, data = encode_one(codec.quality, [frame, frame])
        assert data[0] == FRAME_TYPE_PREDICTED

    def test_round_trip_quality_ordering(self):
        # Same-resolution rungs only: FrameCodec is resolution-agnostic;
        # downscaled rungs are handled (and ordered) at the GOP layer.
        frame = Frame.from_luma(textured_plane(32, 48))
        rungs = [quality for quality in Quality if quality.downscale == 1]
        results = {}
        for quality in rungs:
            codec = FrameCodec(quality)
            (data,) = encode_one(codec.quality, [frame])
            decoded = codec.decode_frame(data, 48, 32, None)
            results[quality] = (len(data), psnr(frame, decoded))
        sizes = [results[quality][0] for quality in rungs]
        psnrs = [results[quality][1] for quality in rungs]
        assert sizes == sorted(sizes, reverse=True)  # better quality, more bytes
        assert psnrs == sorted(psnrs, reverse=True)

    def test_thumbnail_rung_is_smallest_via_gop(self):
        from repro.video.gop import GopCodec

        frames = [Frame.from_luma(textured_plane(32, 64, seed=3))]
        sizes = {
            quality: len(GopCodec(quality).encode_gop(frames)) for quality in Quality
        }
        assert sizes[Quality.THUMBNAIL] < sizes[Quality.LOWEST]
        decoded = GopCodec(Quality.THUMBNAIL).decode_gop(
            GopCodec(Quality.THUMBNAIL).encode_gop(frames)
        )
        assert (decoded[0].width, decoded[0].height) == (64, 32)

    def test_thumbnail_rejects_unaligned_dimensions(self):
        from repro.video.gop import GopCodec

        frames = [Frame.blank(48, 16)]  # not a multiple of 32
        with pytest.raises(ValueError):
            GopCodec(Quality.THUMBNAIL).encode_gop(frames)

    def test_predicted_requires_reference(self):
        codec = FrameCodec(Quality.HIGH)
        frame = Frame.blank(32, 16)
        _, data = encode_one(codec.quality, [frame, frame])
        with pytest.raises(ValueError):
            codec.decode_frame(data, 32, 16, None)

    def test_unknown_frame_type(self):
        codec = FrameCodec(Quality.HIGH)
        with pytest.raises(ValueError):
            codec.decode_frame(b"\x07" + b"\x00" * 16, 32, 16, None)

    def test_truncated_payload(self):
        codec = FrameCodec(Quality.HIGH)
        (data,) = encode_one(codec.quality, [Frame.blank(32, 16)])
        with pytest.raises(ValueError):
            codec.decode_frame(data[: len(data) // 2], 32, 16, None)

    def test_empty_payload(self):
        with pytest.raises(ValueError):
            FrameCodec(Quality.HIGH).decode_frame(b"", 32, 16, None)

    def test_chroma_survives_round_trip(self):
        rgb = np.zeros((16, 32, 3), dtype=np.uint8)
        rgb[..., 0] = 200  # strongly red
        frame = Frame.from_rgb(rgb)
        codec = FrameCodec(Quality.HIGH)
        (data,) = encode_one(codec.quality, [frame])
        decoded = codec.decode_frame(data, 32, 16, None)
        recovered = decoded.to_rgb()
        assert recovered[..., 0].mean() > 150
        assert recovered[..., 1].mean() < 80
