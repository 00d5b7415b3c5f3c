"""Unit tests for GOP encoding."""

import tracemalloc

import numpy as np
import pytest

from repro.video.frame import Frame, psnr
from repro.video.gop import _HEADER, GOP_FORMAT_VERSION, GOP_MAGIC, decode_gop, encode_gop
from repro.video.quality import Quality
from repro.workloads.videos import checkerboard_video, solid_video, synthetic_video
from tests.test_ingest_parallel import _scalar_reference_gop
from tests.test_video_codec import frame_payloads


@pytest.fixture(scope="module")
def frames() -> list[Frame]:
    return checkerboard_video(width=32, height=32, frames=5)


def header(width: int, height: int, count: int, quality: Quality = Quality.HIGH) -> bytes:
    return _HEADER.pack(GOP_MAGIC, GOP_FORMAT_VERSION, quality.rank, width, height, count)


class TestGopCodec:
    def test_round_trip_frame_count(self, frames):
        decoded = decode_gop(encode_gop(frames, Quality.HIGH))
        assert len(decoded) == len(frames)

    def test_round_trip_fidelity(self, frames):
        decoded = decode_gop(encode_gop(frames, Quality.HIGH))
        for original, restored in zip(frames, decoded):
            assert psnr(original, restored) > 30

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            encode_gop([], Quality.HIGH)

    def test_rejects_mixed_dimensions(self, frames):
        bad = frames[:2] + [Frame.blank(64, 32)]
        with pytest.raises(ValueError):
            encode_gop(bad, Quality.HIGH)

    def test_decode_any_reads_quality_from_header(self, frames):
        medium = decode_gop(encode_gop(frames, Quality.MEDIUM))
        high = decode_gop(encode_gop(frames, Quality.HIGH))
        assert len(medium) == len(frames)
        assert psnr(frames[0], medium[0]) < psnr(frames[0], high[0])

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            decode_gop(b"XXXX" + b"\x00" * 16)

    def test_truncated_header(self):
        with pytest.raises(ValueError):
            decode_gop(b"VG")

    def test_static_content_predicted_frames_cheap(self):
        static = solid_video(32, 32, frames=6, luma=90)
        data = encode_gop(static, Quality.HIGH)
        one = encode_gop(static[:1], Quality.HIGH)
        # Five extra all-skip frames cost almost nothing next to the intra.
        assert len(data) < len(one) + 5 * 40


class TestHostileHeader:
    """Imported payloads are stored as they came, so a GOP header is
    outside input: it must be refused before it sizes any buffer."""

    def test_huge_dimensions_are_refused_before_allocating(self):
        data = header(65520, 65520, 1) + bytes([5, 0, 0, 0, 0, 0])
        assert len(data) == 18
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="could hold"):
                decode_gop(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize(
        "width,height,quality",
        [(17, 16, Quality.HIGH), (16, 0, Quality.HIGH), (0, 16, Quality.HIGH),
         (48, 32, Quality.THUMBNAIL)],
    )
    def test_dimensions_off_the_block_grid(self, width, height, quality):
        with pytest.raises(ValueError, match="not a multiple of"):
            decode_gop(header(width, height, 1, quality) + bytes(64))

    def test_more_frames_than_the_bytes_could_hold(self, frames):
        data = encode_gop(frames, Quality.HIGH)
        with pytest.raises(ValueError, match="could hold"):
            decode_gop(header(32, 32, 65535) + data[_HEADER.size :])

    def test_frame_with_fewer_bits_than_blocks(self):
        # 32x32 is 24 blocks, at least 3 bytes; this frame has 2 and the
        # GOP has trailing bytes enough to pass the header's check.
        data = header(32, 32, 1) + bytes([3, 0, 0xFF, 0xFF]) + bytes(8)
        with pytest.raises(ValueError, match="24 blocks in 2 bytes"):
            decode_gop(data)


def test_decode_working_set_is_one_frame_beyond_the_output():
    """A 30-frame 512x256 GOP decodes within its uint8 output plus one
    frame in flight: the entropy scan of its largest frame (~80 bytes a
    payload bit) and that frame's float64 coefficients and pixels — a
    bound a decoder holding the GOP in float64 cannot meet."""
    frames = list(synthetic_video("venice", width=512, height=256, fps=30, duration=1, seed=2))
    data = encode_gop(frames, Quality.HIGH)
    samples = 512 * 256 * 3 // 2  # one frame's, luma and chroma
    bound = 96 * 8 * max(map(len, frame_payloads(data))) + 24 * samples
    assert bound < 8 * samples * len(frames)
    tracemalloc.start()
    try:
        decoded = decode_gop(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    output = sum(plane.nbytes for frame in decoded for plane in frame.planes)
    assert output == samples * len(frames)
    assert peak - output < bound


class TestCodedBlocksOnly:
    """The encoder reconstructs only blocks holding a nonzero coefficient,
    so a step may reconstruct none of its blocks, or all of them; either
    way the bytes are the scalar reference's."""

    @staticmethod
    def _encode_counting(monkeypatch, frames, quality):
        from repro.video import gop

        sizes = []
        reconstruct = gop.reconstruct_blocks

        def counting(quantised, reference, qmat):
            sizes.append(quantised.size // 64)  # blocks in the call
            return reconstruct(quantised, reference, qmat)

        monkeypatch.setattr(gop, "reconstruct_blocks", counting)
        data = encode_gop(frames, quality)
        assert data == _scalar_reference_gop(frames, quality)
        return sizes

    def test_identical_frames_at_lowest_code_no_predicted_block(self, monkeypatch):
        still = next(iter(synthetic_video("timelapse", width=64, height=32, fps=1, duration=1)))
        sizes = self._encode_counting(monkeypatch, [still] * 6, Quality.LOWEST)
        # The intra frame only: no predicted frame holds a coded block,
        # and the kernel never sees an empty stack.
        assert len(sizes) == 1 and 0 < sizes[0] <= 6 * 64 * 32 // 256

    def test_noise_at_high_codes_every_block(self, monkeypatch):
        rng = np.random.default_rng(4)
        shapes = ((32, 32), (16, 16), (16, 16))
        frames = [
            Frame(*(rng.integers(0, 256, shape, dtype=np.uint8) for shape in shapes))
            for _ in range(4)
        ]
        sizes = self._encode_counting(monkeypatch, frames, Quality.HIGH)
        assert sizes == [6 * 32 * 32 // 256] * 3  # the last frame is not reconstructed
