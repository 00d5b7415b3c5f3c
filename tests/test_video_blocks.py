"""Unit tests for block transforms: splitting, DCT, zigzag."""

import importlib.machinery
import importlib.metadata
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.video import blocks as blocks_module
from repro.video.blocks import (
    BLOCK_SIZE,
    INVERSE_ZIGZAG,
    ZIGZAG,
    forward_dct,
    inverse_dct,
    merge_blocks,
    split_blocks,
    zigzag_scan,
    zigzag_unscan,
)


class TestSplitMerge:
    def test_round_trip(self):
        plane = np.arange(16 * 24).reshape(16, 24).astype(np.float64)
        blocks = split_blocks(plane)
        assert blocks.shape == (6, 8, 8)
        assert np.array_equal(merge_blocks(blocks, 16, 24), plane)

    def test_block_order_is_row_major(self):
        plane = np.zeros((16, 16))
        plane[0:8, 8:16] = 1.0  # second block in the first block-row
        blocks = split_blocks(plane)
        assert np.all(blocks[1] == 1.0)
        assert np.all(blocks[0] == 0.0)

    def test_rejects_unaligned(self):
        with pytest.raises(ValueError):
            split_blocks(np.zeros((12, 16)))

    def test_merge_validates_shape(self):
        with pytest.raises(ValueError):
            merge_blocks(np.zeros((3, 8, 8)), 16, 16)


class TestDct:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        blocks = rng.uniform(-128, 128, (5, 8, 8))
        back = inverse_dct(forward_dct(blocks))
        assert np.allclose(back, blocks, atol=1e-9)

    def test_constant_block_energy_in_dc(self):
        blocks = np.full((1, 8, 8), 10.0)
        coefficients = forward_dct(blocks)
        assert coefficients[0, 0, 0] == pytest.approx(80.0)  # 10 * 8 (orthonormal)
        assert np.allclose(coefficients[0].flatten()[1:], 0.0, atol=1e-12)

    def test_orthonormal_preserves_energy(self):
        rng = np.random.default_rng(1)
        blocks = rng.normal(0, 50, (3, 8, 8))
        coefficients = forward_dct(blocks)
        assert np.sum(blocks**2) == pytest.approx(np.sum(coefficients**2))

    def test_high_frequency_content_lands_high(self):
        x = np.arange(8)
        checker = np.where((x[None, :] + x[:, None]) % 2 == 0, 100.0, -100.0)
        coefficients = forward_dct(checker[None])
        assert abs(coefficients[0, 7, 7]) > abs(coefficients[0, 0, 0])


def _dct_cases():
    rng = np.random.default_rng(7)
    plane = rng.uniform(-128, 128, (40, 8, 8))
    # Every integer residual level: the DC of a flat block is 8 x its
    # level whenever the kernel rounds it so, and odd levels over the luma
    # DC step of 16 then sit on exact .5 ties.
    flat = np.broadcast_to(np.arange(-128, 128.0)[:, None, None], (256, 8, 8)).copy()
    signed_zero = np.zeros((2, 8, 8))
    signed_zero[1] = -0.0
    signed_zero[0, ::2] = -0.0
    large = rng.uniform(-1e300, 1e300, (4, 8, 8))
    large[0, 0, 0] = np.finfo(np.float64).max / 64
    return {
        "plane": plane,
        "lockstep": rng.uniform(-255, 255, (3, 6, 20, 8, 8)),
        "strided": rng.uniform(-128, 128, (10, 16, 16))[:, ::2, 1::2],
        "swapped": plane.swapaxes(-2, -1),
        "flat": flat,
        "signed_zero": signed_zero,
        "large": large,
        "integer": rng.integers(-128, 128, (6, 8, 8)),
    }


class TestKernelIsScipys:
    """The codec's DCT is scipy's pocketfft kernel called as
    ``scipy.fft.dctn`` / ``idctn(norm="ortho", axes=(-2, -1))`` call it:
    every bit of every output must match, or stored bytes would move."""

    @staticmethod
    def _same_bits(mine, theirs):
        assert mine.dtype == theirs.dtype == np.float64
        assert mine.shape == theirs.shape
        assert np.array_equal(mine.view(np.int64), theirs.view(np.int64))

    @pytest.mark.parametrize("case", sorted(_dct_cases()))
    def test_forward_and_inverse(self, case):
        from scipy.fft import dctn, idctn

        x = _dct_cases()[case]
        self._same_bits(forward_dct(x), dctn(x, norm="ortho", axes=(-2, -1)))
        self._same_bits(inverse_dct(x), idctn(x, norm="ortho", axes=(-2, -1)))

    def test_dc_only_inverse(self):
        from scipy.fft import idctn

        coefficients = np.zeros((3, 6, 4, 8, 8))
        coefficients[..., 0, 0] = np.arange(-36, 36).reshape(3, 6, 4) * 2.5
        self._same_bits(inverse_dct(coefficients), idctn(coefficients, norm="ortho", axes=(-2, -1)))

    def test_codec_round_trip_of_flat_blocks(self):
        """Through the codec's own quantiser: the .5-tie DCs round the same."""
        from scipy.fft import dctn, idctn

        from repro.video.codec import _BASE_LUMA, quant_matrix, quantise_blocks, reconstruct_blocks

        x = _dct_cases()["flat"] + 128.0
        qmat = quant_matrix(_BASE_LUMA, 1.0)
        quantised = quantise_blocks(x, None, qmat)
        dc = forward_dct(x - 128.0)[:, 0, 0] / qmat[0, 0]
        assert np.count_nonzero(dc % 1 == 0.5) > 0  # the ties are there
        expected = np.round(dctn(x - 128.0, norm="ortho", axes=(-2, -1)) / qmat)
        self._same_bits(quantised, expected)
        pixels = idctn(expected * qmat, norm="ortho", axes=(-2, -1)) + 128.0
        expected = np.minimum(np.maximum(np.round(pixels), 0.0), 255.0)
        self._same_bits(reconstruct_blocks(quantised, None, qmat), expected)


class TestBatchIndependence:
    """The encoder transforms and reconstructs gathered subsets of a block
    stack (only the coded blocks): each block's result must not depend on
    which other blocks share the call."""

    @staticmethod
    def _subsets(rng, count):
        return [
            np.arange(count),
            np.array([0]),
            np.array([count - 1]),
            np.flatnonzero(rng.random(count) < 0.3),
            np.flatnonzero(rng.random(count) < 0.9),
        ]

    @pytest.mark.parametrize("seed", range(4))
    def test_subset_equals_rows_of_full_call(self, seed):
        """Bit for bit, as :func:`repro.video.gop.encode_gops` calls them:
        a per-block quantiser row, intra (no reference) and predicted."""
        from repro.video.codec import frame_quantisers, reconstruct_blocks
        from repro.video.quality import Quality

        rng = np.random.default_rng(seed)
        rungs = list(Quality)
        qualities = tuple(rungs[i] for i in rng.integers(0, len(rungs), rng.integers(1, 4)))
        group = int(rng.integers(1, 20))
        count = len(qualities) * 6 * group
        qmat = frame_quantisers(qualities).reshape(-1, 8, 8)[np.arange(count) // group]
        pixels = rng.integers(0, 256, (count, 8, 8)).astype(np.float64)
        reference = rng.integers(0, 256, (count, 8, 8)).astype(np.float64)
        levels = rng.integers(-30, 31, (count, 8, 8)) * (rng.random((count, 8, 8)) < 0.2)
        quantised = levels.astype(np.float64)
        residual = forward_dct(pixels - reference)
        intra = reconstruct_blocks(quantised.copy(), None, qmat)
        predicted = reconstruct_blocks(quantised.copy(), reference, qmat)
        same_bits = TestKernelIsScipys._same_bits
        for subset in self._subsets(rng, count):
            same_bits(forward_dct(pixels[subset] - reference[subset]), residual[subset])
            same_bits(reconstruct_blocks(quantised[subset], None, qmat[subset]), intra[subset])
            same_bits(
                reconstruct_blocks(quantised[subset], reference[subset], qmat[subset]),
                predicted[subset],
            )


_FOOTPRINT_PROBE = """
import sys
sys.path.insert(0, {src!r})
import repro
from repro.core.storage import IngestConfig, StorageManager
from repro.geometry.grid import TileGrid
from repro.video.quality import Quality
from repro.workloads.videos import synthetic_video

config = IngestConfig(TileGrid(2, 2), (Quality.HIGH, Quality.LOW), gop_frames=4, fps=4.0)
storage = StorageManager({root!r})
storage.ingest("clip", synthetic_video("venice", width=64, height=32, fps=4.0, duration=1.0), config, workers=1)
assert len(storage.decode_window("clip", 0, Quality.HIGH)) == 4
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


class TestKernelLoad:
    def test_codec_never_imports_scipy(self, tmp_path):
        """A fresh process that imports ``repro``, ingests a GOP and decodes
        it holds no ``scipy`` module: the kernel comes without the package."""
        src = str(Path(blocks_module.__file__).resolve().parents[2])
        done = subprocess.run(
            [sys.executable, "-c", _FOOTPRINT_PROBE.format(src=src, root=str(tmp_path))],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_missing_kernel_names_where_it_looked(self, tmp_path, monkeypatch):
        empty = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
        empty.submodule_search_locations = [str(tmp_path)]
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: empty)
        with pytest.raises(ImportError) as raised:
            blocks_module._load_dct_kernel()
        message = str(raised.value)
        assert str(tmp_path / "fft" / "_pocketfft") in message
        assert f"scipy {importlib.metadata.version('scipy')}" in message

    def test_missing_scipy_is_an_import_error(self, monkeypatch):
        monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
        with pytest.raises(ImportError, match="not installed"):
            blocks_module._load_dct_kernel()


class TestZigzag:
    def test_permutation(self):
        assert sorted(ZIGZAG.tolist()) == list(range(64))
        assert np.array_equal(ZIGZAG[INVERSE_ZIGZAG], np.arange(64))

    def test_starts_at_dc_then_first_diagonal(self):
        # (0,0), (0,1), (1,0), (2,0), (1,1), (0,2) ... the JPEG order.
        expected_head = [0, 1, 8, 16, 9, 2]
        assert ZIGZAG[:6].tolist() == expected_head

    def test_scan_round_trip(self):
        rng = np.random.default_rng(2)
        blocks = rng.integers(-50, 50, (4, 8, 8)).astype(np.int32)
        assert np.array_equal(zigzag_unscan(zigzag_scan(blocks)), blocks)

    def test_low_frequency_coefficients_scan_early(self):
        blocks = np.zeros((1, 8, 8))
        blocks[0, 0, 1] = 5.0
        blocks[0, 7, 7] = 9.0
        row = zigzag_scan(blocks)[0]
        assert row[1] == 5.0
        assert row[63] == 9.0

    def test_block_size_constant(self):
        assert BLOCK_SIZE == 8
