"""Video frames in planar YUV 4:2:0.

Frames are stored the way codecs consume them: a full-resolution luma
plane and quarter-resolution chroma planes, all ``uint8``. Every producer
(the synthetic scenes, the decoder) writes YUV planes directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

@dataclass(frozen=True)
class Frame:
    """One video frame: planar YUV 4:2:0, ``uint8``.

    ``y`` has shape ``(height, width)``; ``u`` and ``v`` have shape
    ``(height // 2, width // 2)``. Width and height must be even.
    """

    y: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        height, width = self.y.shape
        if height % 2 or width % 2:
            raise ValueError(f"frame dimensions must be even, got {width}x{height}")
        expected_chroma = (height // 2, width // 2)
        if self.u.shape != expected_chroma or self.v.shape != expected_chroma:
            raise ValueError(
                f"chroma shape {self.u.shape}/{self.v.shape} does not match "
                f"luma {self.y.shape} at 4:2:0 (expected {expected_chroma})"
            )
        for plane in (self.y, self.u, self.v):
            if plane.dtype != np.uint8:
                raise TypeError(f"planes must be uint8, got {plane.dtype}")

    @property
    def width(self) -> int:
        return self.y.shape[1]

    @property
    def height(self) -> int:
        return self.y.shape[0]

    @property
    def planes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.y, self.u, self.v)

    @classmethod
    def blank(cls, width: int, height: int, luma: int = 16) -> "Frame":
        """A uniform grey frame (neutral chroma)."""
        return cls(
            y=np.full((height, width), luma, dtype=np.uint8),
            u=np.full((height // 2, width // 2), 128, dtype=np.uint8),
            v=np.full((height // 2, width // 2), 128, dtype=np.uint8),
        )

    @classmethod
    def from_luma(cls, y: np.ndarray) -> "Frame":
        """A greyscale frame from a luma plane (chroma set to neutral)."""
        y = np.asarray(y)
        if y.dtype != np.uint8:
            y = np.clip(np.round(y), 0, 255).astype(np.uint8)
        height, width = y.shape
        return cls(
            y=y,
            u=np.full((height // 2, width // 2), 128, dtype=np.uint8),
            v=np.full((height // 2, width // 2), 128, dtype=np.uint8),
        )

    def crop(self, x0: int, y0: int, x1: int, y1: int) -> "Frame":
        """Extract the sub-frame ``[y0:y1, x0:x1]``; bounds must be even."""
        if any(value % 2 for value in (x0, y0, x1, y1)):
            raise ValueError(f"crop bounds must be even for 4:2:0, got {(x0, y0, x1, y1)}")
        if not (0 <= x0 < x1 <= self.width and 0 <= y0 < y1 <= self.height):
            raise ValueError(
                f"crop {(x0, y0, x1, y1)} outside frame {self.width}x{self.height}"
            )
        return Frame(
            y=np.ascontiguousarray(self.y[y0:y1, x0:x1]),
            u=np.ascontiguousarray(self.u[y0 // 2 : y1 // 2, x0 // 2 : x1 // 2]),
            v=np.ascontiguousarray(self.v[y0 // 2 : y1 // 2, x0 // 2 : x1 // 2]),
        )

    def paste(self, other: "Frame", x0: int, y0: int) -> "Frame":
        """A copy of this frame with ``other`` pasted at even offset ``(x0, y0)``."""
        if x0 % 2 or y0 % 2:
            raise ValueError(f"paste offset must be even for 4:2:0, got {(x0, y0)}")
        if x0 + other.width > self.width or y0 + other.height > self.height:
            raise ValueError("pasted frame exceeds target bounds")
        y = self.y.copy()
        u = self.u.copy()
        v = self.v.copy()
        y[y0 : y0 + other.height, x0 : x0 + other.width] = other.y
        u[y0 // 2 : (y0 + other.height) // 2, x0 // 2 : (x0 + other.width) // 2] = other.u
        v[y0 // 2 : (y0 + other.height) // 2, x0 // 2 : (x0 + other.width) // 2] = other.v
        return Frame(y=y, u=u, v=v)

    def equals(self, other: "Frame") -> bool:
        """Exact pixel equality (dataclass ``==`` would compare array identity)."""
        return all(
            np.array_equal(mine, theirs)
            for mine, theirs in zip(self.planes, other.planes)
        )


def downsample_plane(plane: np.ndarray, factor: int) -> np.ndarray:
    """Box-filter downsample of uint8 ``(..., h, w)`` planes by an integer factor."""
    if factor < 1:
        raise ValueError(f"downsample factor must be >= 1, got {factor}")
    if factor == 1:
        return plane.copy()
    *lead, height, width = plane.shape
    if height % factor or width % factor:
        raise ValueError(f"plane {width}x{height} is not divisible by {factor}")
    reduced = plane.reshape(*lead, height // factor, factor, width // factor, factor).mean(
        axis=(-3, -1)
    )
    return np.clip(np.round(reduced), 0, 255).astype(np.uint8)


def upsample_plane(plane: np.ndarray, factor: int) -> np.ndarray:
    """Bilinear upsample of a uint8 plane by an integer factor."""
    if factor < 1:
        raise ValueError(f"upsample factor must be >= 1, got {factor}")
    if factor == 1:
        return plane.copy()
    height, width = plane.shape
    y = np.clip((np.arange(height * factor) + 0.5) / factor - 0.5, 0, height - 1)
    x = np.clip((np.arange(width * factor) + 0.5) / factor - 0.5, 0, width - 1)
    y0 = np.floor(y).astype(np.int64)
    x0 = np.floor(x).astype(np.int64)
    y1 = np.minimum(y0 + 1, height - 1)
    x1 = np.minimum(x0 + 1, width - 1)
    fy = (y - y0)[:, None]
    fx = (x - x0)[None, :]
    data = plane.astype(np.float64)
    top = data[np.ix_(y0, x0)] * (1 - fx) + data[np.ix_(y0, x1)] * fx
    bottom = data[np.ix_(y1, x0)] * (1 - fx) + data[np.ix_(y1, x1)] * fx
    result = top * (1 - fy) + bottom * fy
    return np.clip(np.round(result), 0, 255).astype(np.uint8)


def downsample_frame(frame: Frame, factor: int) -> Frame:
    """Downsample all three planes of a frame by an integer factor."""
    return Frame(
        y=downsample_plane(frame.y, factor),
        u=downsample_plane(frame.u, factor),
        v=downsample_plane(frame.v, factor),
    )


def upsample_frame(frame: Frame, factor: int) -> Frame:
    """Upsample all three planes of a frame by an integer factor."""
    return Frame(
        y=upsample_plane(frame.y, factor),
        u=upsample_plane(frame.u, factor),
        v=upsample_plane(frame.v, factor),
    )


def mse(a: Frame | np.ndarray, b: Frame | np.ndarray) -> float:
    """Mean squared error between two frames (luma only) or two arrays."""
    plane_a = a.y if isinstance(a, Frame) else np.asarray(a)
    plane_b = b.y if isinstance(b, Frame) else np.asarray(b)
    if plane_a.shape != plane_b.shape:
        raise ValueError(f"shape mismatch: {plane_a.shape} vs {plane_b.shape}")
    diff = plane_a.astype(np.float64) - plane_b.astype(np.float64)
    return float(np.mean(diff * diff))


def psnr(a: Frame | np.ndarray, b: Frame | np.ndarray, peak: float = 255.0) -> float:
    """Peak signal-to-noise ratio in dB; ``inf`` for identical inputs."""
    error = mse(a, b)
    if error == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / error)
