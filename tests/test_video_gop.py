"""Unit tests for GOP encoding."""

import tracemalloc

import numpy as np
import pytest

from repro.video.bitstream import BitWriter
from repro.video.frame import Frame, psnr
from repro.video.gop import _HEADER, GOP_FORMAT_VERSION, GOP_MAGIC, decode_gop, encode_gop
from repro.video.quality import Quality
from repro.workloads.videos import checkerboard_video, solid_video, synthetic_video
from tests.test_ingest_parallel import _scalar_reference_gop


@pytest.fixture(scope="module")
def frames() -> list[Frame]:
    return checkerboard_video(width=32, height=32, frames=5)


def header(width: int, height: int, count: int, quality: Quality = Quality.HIGH) -> bytes:
    return _HEADER.pack(GOP_MAGIC, GOP_FORMAT_VERSION, quality.rank, width, height, count)


class TestGopCodec:
    def test_round_trip_frame_count(self, frames):
        decoded = decode_gop(encode_gop(frames, Quality.HIGH), 32, 32, len(frames))
        assert len(decoded) == len(frames)

    def test_round_trip_fidelity(self, frames):
        decoded = decode_gop(encode_gop(frames, Quality.HIGH), 32, 32, len(frames))
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
        medium = decode_gop(encode_gop(frames, Quality.MEDIUM), 32, 32, len(frames))
        high = decode_gop(encode_gop(frames, Quality.HIGH), 32, 32, len(frames))
        assert len(medium) == len(frames)
        assert psnr(frames[0], medium[0]) < psnr(frames[0], high[0])

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            decode_gop(b"XXXX" + b"\x00" * 16, 32, 32, 1)

    def test_truncated_header(self):
        with pytest.raises(ValueError):
            decode_gop(b"VG", 32, 32, 1)

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
        # One flat intra frame of 65520x65520 is one bit of stream.
        data = header(65520, 65520, 1) + b"\x80"
        assert len(data) == 13
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="expected 1 of 32x32"):
                decode_gop(data, 32, 32, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_other_frame_count_is_refused(self, frames):
        data = encode_gop(frames, Quality.HIGH)
        with pytest.raises(ValueError, match=f"claims {len(frames)} frames"):
            decode_gop(data, 32, 32, len(frames) + 1)

    @pytest.mark.parametrize(
        "width,height,quality",
        [(17, 16, Quality.HIGH), (16, 0, Quality.HIGH), (0, 16, Quality.HIGH),
         (48, 32, Quality.THUMBNAIL)],
    )
    def test_dimensions_off_the_block_grid(self, width, height, quality):
        with pytest.raises(ValueError, match="not a multiple of"):
            decode_gop(header(width, height, 1, quality) + bytes(64), width, height, 1)

    def test_more_frames_than_the_bytes_could_hold(self, frames):
        data = encode_gop(frames, Quality.HIGH)
        with pytest.raises(ValueError, match="could hold"):
            decode_gop(header(32, 32, 65535) + data[_HEADER.size :], 32, 32, 65535)

    def test_skip_runs_past_the_block_count(self):
        # 32x32 is 24 blocks: a skip of 23 reaches the last block, and a
        # second coded block after it runs past the frame.
        writer = BitWriter()
        writer.write_ue(2)  # two coded blocks
        for skip in (23, 0):
            writer.write_ue(skip)
            writer.write_ue(0)  # one coefficient
            writer.write_ue(0)  # at zigzag position 0
            writer.write_se(1)
        with pytest.raises(ValueError, match="skip runs pass its 24 blocks"):
            decode_gop(header(32, 32, 1) + writer.getvalue(), 32, 32, 1)

    def test_more_coded_blocks_than_blocks(self):
        writer = BitWriter()
        writer.write_ue(25)
        with pytest.raises(ValueError, match="25 coded blocks of 24"):
            decode_gop(header(32, 32, 1) + writer.getvalue() + bytes(8), 32, 32, 1)

    def test_truncated_stream(self, frames):
        data = encode_gop(frames, Quality.HIGH)
        for cut in (1, len(data) // 2, len(data) - _HEADER.size - 1):
            with pytest.raises(ValueError, match="truncated"):
                decode_gop(data[: len(data) - cut], 32, 32, len(frames))


def test_decode_working_set_is_one_frame_beyond_the_output(monkeypatch):
    """A 30-frame 512x256 GOP decodes within its uint8 output plus one
    frame in flight and one scan chunk: the chunk's scan tables (~80
    bytes a bit of :data:`SCAN_CHUNK_BYTES`, whatever the payload's size)
    and the frame's symbols, rows, float64 coefficients and pixels — a
    bound a decoder holding the GOP in float64 cannot meet. The payload
    is many chunks long, and a chunk a quarter the size halves the scan
    term but changes nothing else."""
    from repro.video import codec

    frames = list(synthetic_video("venice", width=512, height=256, fps=30, duration=1, seed=2))
    data = encode_gop(frames, Quality.HIGH)
    samples = 512 * 256 * 3 // 2  # one frame's, luma and chroma

    def peak_over_output() -> int:
        tracemalloc.start()
        try:
            decoded = decode_gop(data, 512, 256, len(frames))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        output = sum(plane.nbytes for frame in decoded for plane in frame.planes)
        assert output == samples * len(frames)
        return peak - output

    for chunk in (codec.SCAN_CHUNK_BYTES, codec.SCAN_CHUNK_BYTES // 4):
        monkeypatch.setattr(codec, "SCAN_CHUNK_BYTES", chunk)
        bound = 96 * 8 * chunk + 32 * samples
        assert len(data) > 4 * chunk and bound < 8 * samples * len(frames)
        assert peak_over_output() < bound, chunk


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
