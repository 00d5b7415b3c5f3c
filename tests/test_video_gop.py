"""Unit tests for GOP encoding and the indexed GOP stream."""

import numpy as np
import pytest

from repro.video.frame import Frame, psnr
from repro.video.gop import (
    GopCodec,
    GopStream,
    decode_any_gop,
    gop_byte_length,
)
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

    def test_gop_byte_length_parses_without_decode(self, frames):
        data = GopCodec(Quality.LOW).encode_gop(frames)
        assert gop_byte_length(data) == len(data)

    def test_gop_byte_length_with_offset(self, frames):
        gop = GopCodec(Quality.LOW).encode_gop(frames)
        data = b"\x00" * 7 + gop
        assert gop_byte_length(data, offset=7) == len(gop)


class TestGopStream:
    def make_stream(self, gop_count=4, frames_per_gop=3) -> GopStream:
        stream = GopStream()
        codec = GopCodec(Quality.LOW)
        clips = checkerboard_video(width=32, height=32, frames=gop_count * frames_per_gop)
        for index in range(gop_count):
            batch = clips[index * frames_per_gop : (index + 1) * frames_per_gop]
            stream.append(codec.encode_gop(batch), start_time=float(index), duration=1.0)
        return stream

    def test_duration(self):
        assert self.make_stream(4).duration == pytest.approx(4.0)

    def test_append_must_be_contiguous(self):
        stream = self.make_stream(2)
        with pytest.raises(ValueError):
            stream.append(b"VGOP", start_time=5.0, duration=1.0)

    def test_append_rejects_non_positive_duration(self):
        stream = GopStream()
        with pytest.raises(ValueError):
            stream.append(b"x", start_time=0.0, duration=0.0)

    def test_indexed_select_returns_covering_gops(self):
        stream = self.make_stream(4)
        selected = stream.select_indexed(1.5, 2.5)
        assert len(selected) == 2
        for gop in selected:
            assert len(decode_any_gop(gop)) == 3

    def test_indexed_select_boundary_exclusive(self):
        stream = self.make_stream(4)
        assert len(stream.select_indexed(1.0, 2.0)) == 1

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError):
            self.make_stream(2).select_indexed(1.0, 1.0)

    def test_scan_matches_indexed(self):
        stream = self.make_stream(5)
        assert stream.select_scan(2.0, 4.0) == stream.select_indexed(2.0, 4.0)

    def test_scan_from_start(self):
        stream = self.make_stream(3)
        assert stream.select_scan(0.0, 1.0) == stream.select_indexed(0.0, 1.0)

    def test_select_decode_returns_frames(self):
        stream = self.make_stream(4, frames_per_gop=2)
        frames = stream.select_decode(3.0, 4.0)
        assert len(frames) == 2

    def test_union_splices_bytes(self):
        a = self.make_stream(2)
        b = self.make_stream(3)
        union = GopStream.union([a, b])
        assert union.gop_count == 5
        assert union.duration == pytest.approx(5.0)
        assert union.data == a.data + b.data
        # The spliced stream is still fully decodable via its index.
        last = union.select_indexed(4.0, 5.0)
        assert len(last) == 1
        assert len(decode_any_gop(last[0])) == 3

    def test_union_requires_zero_based_streams(self):
        stream = GopStream()
        stream.index.append((1.0, 1.0, 0, 4))  # doctored non-zero start
        stream.data = b"xxxx"
        with pytest.raises(ValueError):
            GopStream.union([self.make_stream(1), stream])

    def test_union_of_none(self):
        with pytest.raises(ValueError):
            GopStream.union([])
