"""E5 — the tile-subset window read vs. the decode/re-encode path.

The optimisation that dominates the successor system's microbenchmarks
(up to 500x there): an operation aligned with tile boundaries moves
encoded bytes instead of running the codec. The store has one such
operation, and delivery runs it for every window it sends:
``StorageManager.read_window`` with a per-tile quality map, one ``pread``
of a pack range per segment. This experiment times a half-sphere map over
every window of one stored video two ways: that read, and what a store
without motion-constrained tiles would do for the same answer — decode
each window (``decode_window``) and re-encode the half's tiles
(``encode_gop_ladders``) — and prints the throughput factor. The results
file keeps the operation and the bound it is checked against.
"""

from __future__ import annotations

import time

import pytest

from repro import Quality
from repro.bench.harness import emit_table, ratio
from repro.core.storage import StorageManager
from repro.video.tiles import TiledVideoCodec

from bench_config import GRID, RESULTS_DIR, VIDEOS


def timed(fn, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def storage(bench_db) -> StorageManager:
    """The benchmark store with no buffer pool: every read is a pack read."""
    return StorageManager(bench_db.storage.catalog.root, cache_bytes=0)


@pytest.mark.benchmark(group="e5")
def test_e5_tile_subset_read(benchmark, storage):
    name = VIDEOS[0]
    meta = storage.meta(name)
    gops = range(meta.gop_count)
    half = {tile: Quality.HIGH for tile in GRID.tiles() if tile[1] < GRID.cols // 2}
    codec = TiledVideoCodec(GRID, meta.width, meta.height)

    def byte_path():
        return [storage.read_window(name, gop, half) for gop in gops]

    def decode_path():
        ladders = {tile: (quality,) for tile, quality in half.items()}
        return [
            codec.encode_gop_ladders(storage.decode_window(name, gop, Quality.HIGH), ladders)
            for gop in gops
        ]

    byte_t, windows = timed(byte_path)
    decode_t, reencoded = timed(decode_path, repeat=1)
    for gop, window in zip(gops, windows):
        assert window.payloads == {
            tile: storage.read_segment(name, gop, tile, quality)
            for tile, quality in half.items()
        }
    assert all(len(streams) == len(half) for streams in reencoded)

    frames = sum(meta.gop_frame_counts)
    rows = [
        {
            "operation": f"half-sphere window read ({len(half)} of {GRID.tile_count} tiles)",
            "byte_path_s": round(byte_t, 5),
            "decode_path_s": round(decode_t, 3),
            "speedup": ratio(decode_t, max(byte_t, 1e-9)),
            "fps_byte_path": int(frames / max(byte_t, 1e-9)),
            "fps_decode_path": int(frames / max(decode_t, 1e-9)),
        }
    ]
    # Timings move with the host, so they go to stdout; the tracked file
    # holds each row's operation and the bound asserted below.
    title = "E5: tile-subset window read vs decode path"
    emit_table(title, rows)
    emit_table(
        title,
        [{"operation": rows[0]["operation"], "asserted": "decode path > 50x byte path"}],
        RESULTS_DIR / "e5_homomorphic.txt",
    )

    # Shape check: moving stored bytes is orders of magnitude faster.
    assert byte_t * 50 < decode_t

    benchmark.pedantic(byte_path, rounds=3, iterations=1)
