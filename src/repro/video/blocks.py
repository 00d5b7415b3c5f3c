"""8x8 block transforms: plane blocking, DCT, zigzag scan.

All block math is vectorised across every block of a plane at once —
and across any leading axes, so a stack of equally shaped planes (every
frame of every stream of a lock-step encode) costs one call, not one per
plane.
"""

from __future__ import annotations

import numpy as np
from scipy.fft import dctn, idctn

BLOCK_SIZE = 8


def _zigzag_order(n: int = BLOCK_SIZE) -> np.ndarray:
    """Flat indices of an ``n x n`` block in JPEG zigzag order."""
    # Anti-diagonal traversal: odd diagonals run top-right to bottom-left
    # (increasing row), even diagonals bottom-left to top-right.
    order = sorted(
        ((row, col) for row in range(n) for col in range(n)),
        key=lambda rc: (rc[0] + rc[1], rc[0] if (rc[0] + rc[1]) % 2 else rc[1]),
    )
    return np.array([row * n + col for row, col in order], dtype=np.int64)

ZIGZAG = _zigzag_order()
INVERSE_ZIGZAG = np.argsort(ZIGZAG)


def split_blocks(plane: np.ndarray) -> np.ndarray:
    """Split ``(..., h, w)`` planes into ``(..., h*w/64, 8, 8)`` blocks,
    row-major within each plane.

    Dimensions must be multiples of 8 (the codec pads tiles to guarantee
    this before it ever reaches here).
    """
    *lead, height, width = plane.shape
    if height % BLOCK_SIZE or width % BLOCK_SIZE:
        raise ValueError(
            f"plane {width}x{height} is not a multiple of the {BLOCK_SIZE}px block size"
        )
    rows = height // BLOCK_SIZE
    cols = width // BLOCK_SIZE
    blocks = plane.reshape(*lead, rows, BLOCK_SIZE, cols, BLOCK_SIZE).swapaxes(-3, -2)
    return blocks.reshape(*lead, rows * cols, BLOCK_SIZE, BLOCK_SIZE)


def merge_blocks(blocks: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of :func:`split_blocks`."""
    rows = height // BLOCK_SIZE
    cols = width // BLOCK_SIZE
    lead = blocks.shape[:-3]
    if blocks.shape[-3:] != (rows * cols, BLOCK_SIZE, BLOCK_SIZE):
        raise ValueError(
            f"expected {(rows * cols, BLOCK_SIZE, BLOCK_SIZE)} blocks, got {blocks.shape}"
        )
    plane = blocks.reshape(*lead, rows, cols, BLOCK_SIZE, BLOCK_SIZE).swapaxes(-3, -2)
    return plane.reshape(*lead, height, width)


def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II over the last two axes of a block stack."""
    return dctn(np.asarray(blocks, dtype=np.float64), type=2, norm="ortho", axes=(-2, -1))


def inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_dct` (DCT-III with orthonormal scaling)."""
    return idctn(coefficients, type=2, norm="ortho", axes=(-2, -1))


def zigzag_scan(blocks: np.ndarray) -> np.ndarray:
    """Reorder ``(..., 8, 8)`` coefficient blocks into ``(..., 64)`` zigzag rows."""
    flat = blocks.reshape(*blocks.shape[:-2], BLOCK_SIZE * BLOCK_SIZE)
    return flat[..., ZIGZAG]

def zigzag_unscan(rows: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_scan`: ``(..., 64)`` back to ``(..., 8, 8)``."""
    blocks = rows[..., INVERSE_ZIGZAG]
    return blocks.reshape(*rows.shape[:-1], BLOCK_SIZE, BLOCK_SIZE)
