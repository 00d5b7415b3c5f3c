"""Unit tests for GOP encoding."""

import pytest

from repro.video.frame import Frame, psnr
from repro.video.gop import GopCodec, decode_any_gop
from repro.video.quality import Quality
from repro.workloads.videos import checkerboard_video, solid_video


@pytest.fixture(scope="module")
def frames() -> list[Frame]:
    return checkerboard_video(width=32, height=32, frames=5)


class TestGopCodec:
    def test_round_trip_frame_count(self, frames):
        codec = GopCodec(Quality.HIGH)
        decoded = codec.decode_gop(codec.encode_gop(frames))
        assert len(decoded) == len(frames)

    def test_round_trip_fidelity(self, frames):
        codec = GopCodec(Quality.HIGH)
        decoded = codec.decode_gop(codec.encode_gop(frames))
        for original, restored in zip(frames, decoded):
            assert psnr(original, restored) > 30

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GopCodec(Quality.HIGH).encode_gop([])

    def test_rejects_mixed_dimensions(self, frames):
        bad = frames[:2] + [Frame.blank(64, 32)]
        with pytest.raises(ValueError):
            GopCodec(Quality.HIGH).encode_gop(bad)

    def test_quality_mismatch_on_decode(self, frames):
        data = GopCodec(Quality.HIGH).encode_gop(frames)
        with pytest.raises(ValueError):
            GopCodec(Quality.LOW).decode_gop(data)

    def test_decode_any_reads_quality_from_header(self, frames):
        data = GopCodec(Quality.MEDIUM).encode_gop(frames)
        assert len(decode_any_gop(data)) == len(frames)

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            decode_any_gop(b"XXXX" + b"\x00" * 16)

    def test_truncated_header(self):
        with pytest.raises(ValueError):
            decode_any_gop(b"VG")

    def test_static_content_predicted_frames_cheap(self):
        static = solid_video(32, 32, frames=6, luma=90)
        data = GopCodec(Quality.HIGH).encode_gop(static)
        one = GopCodec(Quality.HIGH).encode_gop(static[:1])
        # Five extra all-skip frames cost almost nothing next to the intra.
        assert len(data) < len(one) + 5 * 40
