"""E5 — homomorphic operators vs. the decode/re-encode path.

The optimisation that dominates the successor system's microbenchmarks
(up to 500x there): selections and unions that align with GOP or tile
boundaries move encoded bytes instead of running the codec. This
experiment times each homomorphic tile operator the product runs
(``TiledGop.select``, and ``TiledGop.replace``, which is the query
planner's UNION) against the decode-path equivalent on the same stored
video, and the planner end to end, and reports the throughput factor.
Selecting GOPs by time is E6's: the store reads them through its own
index, and it has no GOP concatenation.
"""

from __future__ import annotations

import time

import pytest

from repro import Quality, Scan
from repro.bench.harness import emit_table, ratio
from repro.core.query import QueryExecutor
from repro.video.tiles import TiledVideoCodec

from bench_config import GOP_FRAMES, GRID, RESULTS_DIR, VIDEOS


def timed(fn, repeat=3):
    best = float("inf")
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


@pytest.fixture(scope="module")
def windows(bench_db):
    """All encoded windows of one video, as TiledGops (no decode)."""
    meta = bench_db.meta(VIDEOS[0])
    quality_map = {tile: Quality.HIGH for tile in meta.grid.tiles()}
    return [
        bench_db.storage.read_window(VIDEOS[0], gop, quality_map)
        for gop in range(meta.gop_count)
    ]


@pytest.mark.benchmark(group="e5")
def test_e5_homomorphic_operators(benchmark, bench_db, windows):
    frames_total = sum(window.frame_count for window in windows)
    half_tiles = {tile for tile in GRID.tiles() if tile[1] < GRID.cols // 2}
    other_tiles = set(GRID.tiles()) - half_tiles
    rows = []

    def record(operation, homomorphic_seconds, decode_seconds, frames):
        rows.append(
            {
                "operation": operation,
                "homomorphic_s": round(homomorphic_seconds, 5),
                "decode_path_s": round(decode_seconds, 3),
                "speedup": ratio(decode_seconds, max(homomorphic_seconds, 1e-9)),
                "fps_homomorphic": int(frames / max(homomorphic_seconds, 1e-9)),
                "fps_decode": int(frames / max(decode_seconds, 1e-9)),
            }
        )

    # TILESELECT: keep half the sphere.
    homo_t, homo_result = timed(lambda: [w.select(half_tiles) for w in windows])
    codec = TiledVideoCodec(GRID, windows[0].width, windows[0].height)

    def decode_select():
        out = []
        for window in windows:
            frames = window.decode()
            cropped = [
                frame.crop(0, 0, window.width // 2, window.height) for frame in frames
            ]
            half_codec = TiledVideoCodec(
                GRID.__class__(GRID.rows, GRID.cols // 2),
                window.width // 2,
                window.height,
            )
            out.append(half_codec.encode_gop(cropped, Quality.HIGH))
        return out

    dec_t, _ = timed(decode_select, repeat=1)
    record("TILESELECT (half sphere)", homo_t, dec_t, frames_total)
    assert all(set(w.payloads) == half_tiles for w in homo_result)

    # TILEUNION: stitch the two halves back together, as the planner's
    # UNION does.
    left = [w.select(half_tiles) for w in windows]
    right = [w.select(other_tiles) for w in windows]
    homo_t, union_result = timed(
        lambda: [a.replace(b) for a, b in zip(left, right)]
    )

    def decode_union():
        out = []
        for a, b in zip(left, right):
            frames_a = a.decode()
            frames_b = b.decode()
            merged = []
            for fa, fb in zip(frames_a, frames_b):
                x0 = a.width // 2
                merged.append(fa.paste(fb.crop(x0, 0, a.width, a.height), x0, 0))
            out.append(codec.encode_gop(merged, Quality.HIGH))
        return out

    dec_t, _ = timed(decode_union, repeat=1)
    record("TILEUNION (two halves)", homo_t, dec_t, frames_total)
    assert union_result[0].decode()[0].equals(windows[0].decode()[0])

    # Planner end-to-end: aligned select via executor vs unaligned.
    executor = QueryExecutor(bench_db.storage)
    homo_t, _ = timed(
        lambda: executor.execute(Scan(VIDEOS[0]).select(time=(8.0, 10.0))), repeat=1
    )
    dec_t, _ = timed(
        lambda: executor.execute(Scan(VIDEOS[0]).select(time=(8.05, 9.95))), repeat=1
    )
    record("planner: aligned vs unaligned select", homo_t, dec_t, 2 * GOP_FRAMES)

    emit_table(
        "E5: homomorphic vs decode-path operators", rows, RESULTS_DIR / "e5_homomorphic.txt"
    )

    # Shape check: byte-level operators are orders of magnitude faster.
    for row in rows[:2]:
        assert row["homomorphic_s"] * 50 < row["decode_path_s"], row["operation"]

    benchmark.pedantic(
        lambda: [w.select(half_tiles) for w in windows], rounds=3, iterations=1
    )
