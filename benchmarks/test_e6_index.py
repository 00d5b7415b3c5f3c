"""E6 — index benefit: the store's GOP and tile indexes make small reads cheap.

Mirrors the index study on the index the product reads through: one
``stss`` entry per GOP and one byte range per segment, so a segment read
is one ``pread`` of a pack range. A temporal point-select at the end of
the video reads one tile's last GOP through that index, against decoding
the tile's GOPs in order from the start, as a reader without random
access must; an angular one-tile select decodes one tile's payload
against decoding the whole sphere. Indexes matter for small selections
and wash out for whole-video reads.
"""

from __future__ import annotations

import time

import pytest

from repro import Quality
from repro.bench.harness import emit_table, ratio
from repro.core.storage import StorageManager
from repro.video.gop import decode_gop

from bench_config import RESULTS_DIR, VIDEOS

TILE = (1, 1)


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


@pytest.mark.benchmark(group="e6")
def test_e6_index_performance(benchmark, bench_db, storage):
    name = VIDEOS[0]
    meta = storage.meta(name)
    gops = meta.gop_count
    tile_size = (meta.width // meta.grid.cols, meta.height // meta.grid.rows)

    def decode(data, gop):
        # A tile's GOP, at the tile size and frame count the index gives.
        return decode_gop(data, *tile_size, meta.gop_frame_counts[gop])

    def read(selected):
        return [storage.read_segment(name, gop, TILE, Quality.HIGH) for gop in selected]

    def decode_scan(stop):
        # No index: decode the tile's GOPs in order until the selection ends.
        return [
            frame for gop, data in enumerate(read(range(stop))) for frame in decode(data, gop)
        ]

    rows = []
    indexed_best = []  # unrounded: an indexed read takes microseconds
    for label, selected in [
        (f"small select [{gops - 1},{gops})", range(gops - 1, gops)),
        (f"full select [0,{gops})", range(gops)),
    ]:
        indexed_t, indexed = timed(lambda: read(selected), repeat=200)
        decode_t, scanned = timed(lambda: decode_scan(selected.stop), repeat=1)
        # The index lands on the same GOP the sequential decode ends on.
        last = decode(indexed[-1], selected.stop - 1)
        assert last[-1].equals(scanned[-1])
        indexed_best.append(indexed_t)
        rows.append(
            {
                "selection": label,
                "index_s": round(indexed_t, 6),
                "decode_scan_s": round(decode_t, 4),
                "index_vs_decode": ratio(decode_t, max(indexed_t, 1e-9)),
            }
        )

    # Tile index: decode one tile's payload, located by its byte range,
    # versus decoding the full sphere to obtain the same tile.
    window = bench_db.storage.read_window(
        name, 0, {tile: Quality.HIGH for tile in meta.grid.tiles()}
    )
    one_tile_t, tile_frames = timed(lambda: decode(window.payloads[TILE], 0))
    full_t, full_frames = timed(lambda: window.decode(), repeat=1)
    x0, y0, x1, y1 = window.pixel_rect(*TILE)
    assert tile_frames[0].equals(full_frames[0].crop(x0, y0, x1, y1))
    rows.append(
        {
            "selection": f"one tile of {meta.grid.tile_count} (angular)",
            "index_s": round(one_tile_t, 6),
            "decode_scan_s": round(full_t, 4),
            "index_vs_decode": ratio(full_t, max(one_tile_t, 1e-9)),
        }
    )

    # Timings move with the host, so they go to stdout; the tracked file
    # holds each row's selection and the bound asserted below.
    emit_table("E6: index performance", rows)
    bounds = ("decode scan > 100x index", "index > the small select's", "decode > 5x index")
    emit_table(
        "E6: index performance",
        [{"selection": row["selection"], "asserted": bound} for row, bound in zip(rows, bounds)],
        RESULTS_DIR / "e6_index.txt",
    )

    # Shape checks: the index wins big on small selections, and the win
    # shrinks when the selection covers everything: both decode scans
    # decode every GOP, while the full indexed select reads every GOP's
    # range to the small one's one.
    small, full, tile_row = rows
    small_indexed, full_indexed = indexed_best
    assert small_indexed * 100 < small["decode_scan_s"]
    assert full_indexed > small_indexed
    assert tile_row["index_s"] * 5 < tile_row["decode_scan_s"]

    benchmark.pedantic(lambda: read(range(gops - 1, gops)), rounds=3, iterations=1)
