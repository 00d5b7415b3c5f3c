"""Built-in frame transformation functions for MAP queries.

Each UDF takes a :class:`repro.video.frame.Frame` and returns a new one of
the same dimensions. They are deliberately simple — the query layer's job
is plumbing, not vision — but each is a real pixel transformation, so MAP
queries measurably cost decode + compute + re-encode.
"""

from __future__ import annotations

import numpy as np

from repro.video.frame import Frame


def grayscale(frame: Frame) -> Frame:
    """Drop the chroma signal, keeping luma untouched."""
    return Frame.from_luma(frame.y)


def invert(frame: Frame) -> Frame:
    """Photographic negative of all three planes."""
    return Frame(
        y=(255 - frame.y).astype(np.uint8),
        u=(255 - frame.u).astype(np.uint8),
        v=(255 - frame.v).astype(np.uint8),
    )


def watermark(mark_luma: np.ndarray, x0: int = 0, y0: int = 0):
    """A UDF factory: stamp a small luma patch at ``(x0, y0)``.

    The patch dimensions and offsets must be even (4:2:0 alignment).
    """
    mark = np.asarray(mark_luma, dtype=np.uint8)

    def apply(frame: Frame) -> Frame:
        stamped = frame.paste(Frame.from_luma(mark), x0, y0)
        return stamped

    apply.__name__ = "watermark"
    return apply
