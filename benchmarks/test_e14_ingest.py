"""E14 — ingest throughput: the vectorized entropy path.

The storage manager's premise is pre-encoding every (window × tile ×
quality) segment at ingest; this experiment holds the one ingest number
nothing else measures: how much the vectorized exp-Golomb coder buys over
the scalar reference (the wire format's executable specification), on
quantised coefficient rows taken from real frames, byte identity asserted.

Worker scaling is not measured here: ``benchmarks/perf``'s ``ingest_live``
workload records ``core.storage.serial_ingest_fps`` beside ``ingest_fps``
and ``video.tiles.encode_gop_ms`` beside ``encode_gop_parallel_ms`` every
run (EXPERIMENTS.md E14 quotes them).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro.bench.harness import emit_table, ratio
from repro.video import codec
from repro.video.bitstream import BitReader, BitWriter
from repro.video.quality import Quality
from repro.workloads.videos import synthetic_video

from bench_config import FPS, HEIGHT, RESULTS_DIR, WIDTH

SECONDS = 3.0
REPEATS = 2


def _best_of(fn) -> float:
    """Best wall-clock seconds over ``REPEATS`` runs (min filters noise)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.benchmark(group="e14")
def test_e14_ingest_throughput(benchmark):
    # One stacked (Y, U, V) array of intra-coded rows per frame: what one
    # stream of FrameStackCodec.encode_frames hands the entropy coder.
    planes = codec.FrameCodec(Quality.HIGH)._plane_codecs()
    all_rows = [
        np.vstack([c.quantise(p, None)[0] for c, p in zip(planes, frame.planes)])
        for frame in synthetic_video(
            "venice", width=WIDTH, height=HEIGHT, fps=FPS, duration=SECONDS, seed=5
        )
    ]

    def encode(write) -> list[bytes]:
        payloads = []
        for rows in all_rows:
            writer = BitWriter()
            write(writer, rows)
            payloads.append(writer.getvalue())
        return payloads

    payloads = encode(codec._write_rows)
    assert payloads == encode(codec._write_rows_reference)  # byte-identical

    def decode(read) -> list[np.ndarray]:
        return [read(BitReader(p), r.shape[0]) for p, r in zip(payloads, all_rows)]

    for read in (codec._read_rows, codec._read_rows_reference):
        assert all(np.array_equal(a, b) for a, b in zip(decode(read), all_rows))

    table = []
    for metric, run, vectorized, reference in (
        ("entropy encode", encode, codec._write_rows, codec._write_rows_reference),
        ("entropy decode", decode, codec._read_rows, codec._read_rows_reference),
    ):
        slow, fast = _best_of(lambda: run(reference)), _best_of(lambda: run(vectorized))
        table.append(
            {
                "metric": metric,
                "reference_ms": round(slow * 1e3, 1),
                "vectorized_ms": round(fast * 1e3, 1),
                "speedup": ratio(slow, fast),
            }
        )
        # The vectorized coder must stay well ahead of the scalar reference.
        assert slow / fast > 2.0, table[-1]
    emit_table("E14: ingest throughput", table, RESULTS_DIR / "e14_ingest.txt")
