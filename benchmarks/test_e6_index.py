"""E6 — index benefit: GOP and tile indexes make small selections cheap.

Mirrors the index study: a temporal point-select at the end of the video
via the GOP index versus scanning (parsing) or sequentially decoding the
stream, and an angular one-tile select via the tile index versus decoding
the whole sphere. Indexes matter for small selections and wash out for
whole-video reads.
"""

from __future__ import annotations

import time

import pytest

from repro import Quality
from repro.bench.harness import emit_table, ratio
from repro.video.gop import GopStream
from repro.video.tiles import TiledGop

from bench_config import RESULTS_DIR, VIDEOS


def timed(fn, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def stream(bench_db) -> GopStream:
    """One tile's 10-second track as an indexed GOP stream."""
    meta = bench_db.meta(VIDEOS[0])
    stream = GopStream()
    for gop in range(meta.gop_count):
        data = bench_db.storage.read_segment(VIDEOS[0], gop, (1, 1), Quality.HIGH)
        stream.append(data, float(gop), 1.0)
    return stream


@pytest.fixture(scope="module")
def tiled_window(bench_db) -> TiledGop:
    meta = bench_db.meta(VIDEOS[0])
    quality_map = {tile: Quality.HIGH for tile in meta.grid.tiles()}
    return bench_db.storage.read_window(VIDEOS[0], 0, quality_map)


@pytest.mark.benchmark(group="e6")
def test_e6_index_performance(benchmark, stream, tiled_window):
    rows = []
    indexed_best = []  # unrounded: an indexed select takes microseconds
    duration = stream.duration

    for label, (t0, t1) in [
        ("small select [9,10)", (duration - 1.0, duration)),
        ("full select [0,10)", (0.0, duration)),
    ]:
        indexed_t, indexed = timed(lambda: stream.select_indexed(t0, t1), repeat=200)
        indexed_best.append(indexed_t)
        scan_t, scanned = timed(lambda: stream.select_scan(t0, t1))
        decode_t, _ = timed(lambda: stream.select_decode(t0, t1), repeat=1)
        assert indexed == scanned
        rows.append(
            {
                "selection": label,
                "gop_index_s": round(indexed_t, 6),
                "parse_scan_s": round(scan_t, 6),
                "decode_scan_s": round(decode_t, 4),
                "index_vs_decode": ratio(decode_t, max(indexed_t, 1e-9)),
            }
        )

    # Tile index: decode one tile via the byte-range index versus decoding
    # the full sphere to obtain the same tile.
    tile = (1, 1)
    one_tile_t, tile_frames = timed(lambda: tiled_window.decode_tile(*tile))
    full_t, full_frames = timed(lambda: tiled_window.decode(), repeat=1)
    x0, y0, x1, y1 = tiled_window.pixel_rect(*tile)
    assert tile_frames[0].equals(full_frames[0].crop(x0, y0, x1, y1))
    rows.append(
        {
            "selection": "one tile of 32 (angular)",
            "gop_index_s": round(one_tile_t, 6),
            "parse_scan_s": "-",
            "decode_scan_s": round(full_t, 4),
            "index_vs_decode": ratio(full_t, max(one_tile_t, 1e-9)),
        }
    )

    emit_table("E6: index performance", rows, RESULTS_DIR / "e6_index.txt")

    # Shape checks: the index wins big on small selections, and the win
    # shrinks (or vanishes) when the selection covers everything.
    small, full, tile_row = rows
    assert small["gop_index_s"] * 100 < small["decode_scan_s"]
    # Both decode scans decode all ten GOPs, so the relative benefit
    # shrinks on full reads exactly when the full indexed select (ten
    # slices) outlasts the small one (one slice).
    small_indexed, full_indexed = indexed_best
    assert full_indexed > small_indexed
    assert tile_row["gop_index_s"] * 5 < tile_row["decode_scan_s"]

    benchmark.pedantic(
        lambda: stream.select_indexed(duration - 1.0, duration), rounds=3, iterations=1
    )
