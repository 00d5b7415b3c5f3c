"""Unit tests for the built-in MAP UDFs."""

import numpy as np
import pytest

from repro.core import udfs
from repro.video.frame import Frame


@pytest.fixture()
def frame() -> Frame:
    rng = np.random.default_rng(0)
    rgb = rng.integers(0, 255, (16, 32, 3), dtype=np.uint8).astype(np.uint8)
    return Frame.from_rgb(rgb)


class TestGrayscale:
    def test_neutral_chroma(self, frame):
        gray = udfs.grayscale(frame)
        assert np.all(gray.u == 128)
        assert np.all(gray.v == 128)

    def test_luma_untouched(self, frame):
        assert np.array_equal(udfs.grayscale(frame).y, frame.y)


class TestInvert:
    def test_involution(self, frame):
        assert udfs.invert(udfs.invert(frame)).equals(frame)

    def test_inverts_luma(self, frame):
        assert np.array_equal(udfs.invert(frame).y, 255 - frame.y)


class TestWatermark:
    def test_stamps_patch(self):
        frame = Frame.blank(32, 16, luma=0)
        mark = np.full((4, 8), 255, dtype=np.uint8)
        stamped = udfs.watermark(mark, x0=8, y0=4)(frame)
        assert np.all(stamped.y[4:8, 8:16] == 255)
        assert stamped.y[0, 0] == 0

    def test_rejects_odd_offset(self):
        frame = Frame.blank(32, 16)
        with pytest.raises(ValueError):
            udfs.watermark(np.zeros((4, 4), dtype=np.uint8), x0=1)(frame)
