"""Unit tests for YUV 4:2:0 frames."""

import math

import numpy as np
import pytest

from repro.video.frame import Frame, mse, psnr


def make_frame(width=16, height=8, luma=50) -> Frame:
    return Frame.blank(width, height, luma=luma)


class TestConstruction:
    def test_rejects_odd_dimensions(self):
        with pytest.raises(ValueError):
            Frame(
                y=np.zeros((7, 16), dtype=np.uint8),
                u=np.zeros((3, 8), dtype=np.uint8),
                v=np.zeros((3, 8), dtype=np.uint8),
            )

    def test_rejects_mismatched_chroma(self):
        with pytest.raises(ValueError):
            Frame(
                y=np.zeros((8, 16), dtype=np.uint8),
                u=np.zeros((8, 16), dtype=np.uint8),
                v=np.zeros((4, 8), dtype=np.uint8),
            )

    def test_rejects_non_uint8(self):
        with pytest.raises(TypeError):
            Frame(
                y=np.zeros((8, 16), dtype=np.float64),
                u=np.zeros((4, 8), dtype=np.uint8),
                v=np.zeros((4, 8), dtype=np.uint8),
            )

    def test_blank_dimensions(self):
        frame = Frame.blank(32, 16, luma=77)
        assert (frame.width, frame.height) == (32, 16)
        assert np.all(frame.y == 77)
        assert np.all(frame.u == 128)

    def test_from_luma_coerces_float(self):
        frame = Frame.from_luma(np.full((8, 16), 300.0))
        assert np.all(frame.y == 255)  # clipped


class TestCropPaste:
    def test_crop_dimensions(self):
        frame = make_frame(32, 16)
        sub = frame.crop(4, 2, 20, 10)
        assert (sub.width, sub.height) == (16, 8)

    def test_crop_rejects_odd_bounds(self):
        with pytest.raises(ValueError):
            make_frame().crop(1, 0, 9, 8)

    def test_crop_rejects_out_of_bounds(self):
        with pytest.raises(ValueError):
            make_frame(16, 8).crop(0, 0, 18, 8)

    def test_crop_copies_pixels(self):
        base = np.arange(8 * 16, dtype=np.uint8).reshape(8, 16)
        frame = Frame.from_luma(base)
        sub = frame.crop(2, 2, 10, 6)
        assert np.array_equal(sub.y, base[2:6, 2:10])

    def test_paste_inverse_of_crop(self):
        frame = Frame.from_luma(
            np.random.default_rng(0).integers(0, 255, (16, 32), dtype=np.uint8).astype(np.uint8)
        )
        sub = frame.crop(8, 4, 24, 12)
        rebuilt = frame.paste(sub, 8, 4)
        assert rebuilt.equals(frame)

    def test_paste_rejects_odd_offset(self):
        with pytest.raises(ValueError):
            make_frame(32, 16).paste(make_frame(8, 8), 1, 0)

    def test_paste_rejects_overflow(self):
        with pytest.raises(ValueError):
            make_frame(16, 8).paste(make_frame(16, 8), 2, 0)

    def test_paste_does_not_mutate_original(self):
        frame = make_frame(16, 8, luma=10)
        frame.paste(make_frame(8, 8, luma=200), 0, 0)
        assert np.all(frame.y == 10)


class TestMetrics:
    def test_mse_zero_for_identical(self):
        frame = make_frame()
        assert mse(frame, frame) == 0.0

    def test_psnr_infinite_for_identical(self):
        frame = make_frame()
        assert psnr(frame, frame) == math.inf

    def test_mse_known_value(self):
        a = Frame.from_luma(np.zeros((8, 16)))
        b = Frame.from_luma(np.full((8, 16), 10.0))
        assert mse(a, b) == pytest.approx(100.0)

    def test_psnr_known_value(self):
        a = Frame.from_luma(np.zeros((8, 16)))
        b = Frame.from_luma(np.full((8, 16), 255.0))
        assert psnr(a, b) == pytest.approx(0.0)

    def test_mse_accepts_arrays(self):
        assert mse(np.zeros((4, 4)), np.ones((4, 4))) == pytest.approx(1.0)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_equals_is_pixelwise(self):
        a = make_frame(16, 8, luma=10)
        b = make_frame(16, 8, luma=10)
        assert a.equals(b)
        c = make_frame(16, 8, luma=11)
        assert not a.equals(c)
