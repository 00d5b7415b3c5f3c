"""8x8 block transforms: plane blocking, DCT, zigzag scan.

All block math is vectorised across every block of a plane at once —
and across any leading axes, so a stack of equally shaped planes (every
frame of every stream of a lock-step encode) costs one call, not one per
plane.

The DCT is scipy's C++ pocketfft kernel, loaded on its own: importing
``scipy.fft`` to reach it would load some 540 modules and ~27 MB of
resident memory into every process (the server, the forkserver, each
encode worker) for this one function.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
from pathlib import Path

import numpy as np

BLOCK_SIZE = 8


def _load_dct_kernel():
    """``pypocketfft.dct`` out of scipy's wheel, without running scipy's
    ``__init__`` or anything under ``scipy.fft``: ``find_spec`` only
    locates the package. The module name must end in ``pypocketfft``,
    the name pybind11 exports the extension's init function under."""
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ImportError("the codec's DCT kernel ships in scipy, which is not installed")
    folder = Path(scipy.submodule_search_locations[0]) / "fft" / "_pocketfft"
    path = folder / f"pypocketfft{importlib.machinery.EXTENSION_SUFFIXES[0]}"
    if not path.is_file():
        from importlib.metadata import version

        raise ImportError(f"no {path.name} in {folder} (scipy {version('scipy')})")
    loader = importlib.machinery.ExtensionFileLoader("repro.video.pypocketfft", str(path))
    kernel = importlib.util.module_from_spec(importlib.util.spec_from_loader(loader.name, loader))
    loader.exec_module(kernel)
    return kernel.dct


_dct = _load_dct_kernel()


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


# Both transforms call the kernel as ``scipy.fft.dctn`` / ``idctn(norm="ortho",
# axes=(-2, -1))`` do: positive axes, inorm 1 (orthonormal), a new output
# array, one thread. Same call, same kernel, so the same bits.
def forward_dct(blocks: np.ndarray) -> np.ndarray:
    """Orthonormal 2-D DCT-II over the last two axes of a block stack, in
    float64."""
    blocks = np.asarray(blocks, dtype=np.float64)
    return _dct(blocks, 2, (blocks.ndim - 2, blocks.ndim - 1), 1, None, 1)


def inverse_dct(coefficients: np.ndarray) -> np.ndarray:
    """Inverse of :func:`forward_dct` (DCT-III with orthonormal scaling)."""
    coefficients = np.asarray(coefficients, dtype=np.float64)
    return _dct(coefficients, 3, (coefficients.ndim - 2, coefficients.ndim - 1), 1, None, 1)


def zigzag_scan(blocks: np.ndarray) -> np.ndarray:
    """Reorder ``(..., 8, 8)`` coefficient blocks into ``(..., 64)`` zigzag rows."""
    flat = blocks.reshape(*blocks.shape[:-2], BLOCK_SIZE * BLOCK_SIZE)
    return flat[..., ZIGZAG]

def zigzag_unscan(rows: np.ndarray) -> np.ndarray:
    """Inverse of :func:`zigzag_scan`: ``(..., 64)`` back to ``(..., 8, 8)``."""
    blocks = rows[..., INVERSE_ZIGZAG]
    return blocks.reshape(*rows.shape[:-1], BLOCK_SIZE, BLOCK_SIZE)
