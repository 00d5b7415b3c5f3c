"""Ingest throughput harness: ``python -m repro.bench.ingest``.

Measures the two axes the parallel-ingest work optimises and writes the
numbers to ``BENCH_ingest.json`` so later PRs have a perf trajectory to
beat:

1. **Entropy codec hot path** — the vectorized exp-Golomb coder
   (:func:`repro.video.codec._write_rows` / ``_read_rows``) against the
   scalar reference implementation, on quantised coefficient rows taken
   from real frames. Byte identity is asserted, not assumed.
2. **End-to-end ingest** — frames/sec and encoded MB/s through
   ``StorageManager.ingest`` at ``workers=1`` versus ``workers=N``
   (serial-vs-parallel speedup), plus the encode/decode split of the GOP
   codec.

Run with ``--smoke`` in CI for a seconds-long small-input pass.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.bench.harness import emit_table, format_bytes, ratio
from repro.core.storage import IngestConfig, StorageManager
from repro.geometry.grid import TileGrid
from repro.video.codec import (
    FrameCodec,
    _read_rows,
    _read_rows_reference,
    _write_rows,
    _write_rows_reference,
)
from repro.video.bitstream import BitReader, BitWriter
from repro.video.gop import GopCodec
from repro.video.quality import Quality
from repro.video.shmem import shared_memory_available
from repro.video.tiles import available_cpus, encode_start_method
from repro.workloads.videos import synthetic_video


def _best_of(repeats: int, fn) -> float:
    """Best wall-clock seconds over ``repeats`` runs (min filters noise)."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _quantised_rows(frames, quality: Quality) -> list[np.ndarray]:
    """Real coefficient rows, one stacked array per frame (intra-coded).

    Mirrors :meth:`FrameCodec.encode_frame`, which stacks all three planes
    into one entropy call per frame.
    """
    codec = FrameCodec(quality)
    rows: list[np.ndarray] = []
    for frame in frames:
        rows.append(
            np.vstack(
                [
                    plane_codec.quantise(plane, None)[0]
                    for plane_codec, plane in zip(codec._plane_codecs(), frame.planes)
                ]
            )
        )
    return rows


def bench_entropy(frames, quality: Quality, repeats: int) -> dict:
    """Vectorized vs reference exp-Golomb coder on real quantised rows."""
    all_rows = _quantised_rows(frames, quality)

    def encode(write) -> list[bytes]:
        payloads = []
        for rows in all_rows:
            writer = BitWriter()
            write(writer, rows)
            payloads.append(writer.getvalue())
        return payloads

    vec_payloads = encode(_write_rows)
    ref_payloads = encode(_write_rows_reference)
    if vec_payloads != ref_payloads:
        raise AssertionError("vectorized entropy coder is not byte-identical")

    encode_vec = _best_of(repeats, lambda: encode(_write_rows))
    encode_ref = _best_of(repeats, lambda: encode(_write_rows_reference))

    def decode(read) -> None:
        for rows, payload in zip(all_rows, vec_payloads):
            read(BitReader(payload), rows.shape[0])

    decode(_read_rows)  # correctness is covered by tests; warm the path
    decode_vec = _best_of(repeats, lambda: decode(_read_rows))
    decode_ref = _best_of(repeats, lambda: decode(_read_rows_reference))

    payload_bytes = sum(len(p) for p in vec_payloads)
    return {
        "planes": len(all_rows),
        "payload_bytes": payload_bytes,
        "encode_seconds_reference": encode_ref,
        "encode_seconds_vectorized": encode_vec,
        "encode_speedup": encode_ref / encode_vec,
        "encode_mb_per_sec_vectorized": payload_bytes / encode_vec / 1e6,
        "decode_seconds_reference": decode_ref,
        "decode_seconds_vectorized": decode_vec,
        "decode_speedup": decode_ref / decode_vec,
        "byte_identical": True,
    }


def bench_ingest(frames, config_args: dict, workers_list: list[int]) -> dict:
    """End-to-end ``StorageManager.ingest`` at each worker count.

    Before timing anything, one small untimed ingest at the highest
    worker count warms the process-pool machinery (the forkserver and
    its preloaded imports are per-process daemons, amortised across every
    later pool) so the timed runs measure steady-state ingest throughput
    rather than one-time interpreter startup.
    """
    raw_bytes = sum(plane.nbytes for frame in frames for plane in frame.planes)
    max_workers = max(workers_list)
    if max_workers > 1:
        warm_config = IngestConfig(workers=max_workers, **config_args)
        warm_frames = frames[: config_args.get("gop_frames", len(frames))]
        with tempfile.TemporaryDirectory(prefix="bench-ingest-warm-") as root:
            StorageManager(root).ingest("warmup", iter(warm_frames), warm_config)
    runs: dict[str, dict] = {}
    metrics_snapshot: dict = {}
    for workers in workers_list:
        config = IngestConfig(workers=workers, **config_args)
        with tempfile.TemporaryDirectory(prefix="bench-ingest-") as root:
            storage = StorageManager(root)
            start = time.perf_counter()
            storage.ingest("bench", iter(frames), config)
            seconds = time.perf_counter() - start
            stored = storage.total_bytes("bench")
            metrics_snapshot = storage.metrics.snapshot()
        counters = metrics_snapshot.get("counters", {})
        runs[str(workers)] = {
            "seconds": seconds,
            "frames_per_sec": len(frames) / seconds,
            "encoded_mb_per_sec": stored / seconds / 1e6,
            "raw_mb_per_sec": raw_bytes / seconds / 1e6,
            "stored_bytes": stored,
            # What actually happened, not what was asked for: GOPs that
            # went over shared memory vs pickling, and pool fallbacks.
            "shm_gops": counters.get("ingest.shm_gops", 0),
            "pickled_gops": counters.get("ingest.pickled_gops", 0),
            "pool_fallbacks": counters.get("ingest.pool_fallback", 0),
        }
    serial = runs[str(workers_list[0])]["seconds"]
    return {
        "frames": len(frames),
        "raw_bytes": raw_bytes,
        "workers": runs,
        "parallel_speedup": {
            key: serial / run["seconds"] for key, run in runs.items()
        },
        # Per-phase observability of the last (most parallel) run: span
        # histograms for encode/write/commit plus storage counters.
        "metrics": metrics_snapshot,
    }


def bench_split(frames, gop_frames: int, quality: Quality, repeats: int) -> dict:
    """Encode/decode wall-clock split of the GOP codec itself."""
    codec = GopCodec(quality)
    gops = [
        frames[start : start + gop_frames]
        for start in range(0, len(frames), gop_frames)
    ]
    payloads = [codec.encode_gop(gop) for gop in gops]
    encode_seconds = _best_of(
        repeats, lambda: [codec.encode_gop(gop) for gop in gops]
    )
    decode_seconds = _best_of(
        repeats, lambda: [codec.decode_gop(payload) for payload in payloads]
    )
    total = encode_seconds + decode_seconds
    return {
        "encode_seconds": encode_seconds,
        "decode_seconds": decode_seconds,
        "encode_fraction": encode_seconds / total,
        "encoded_bytes": sum(len(p) for p in payloads),
    }


def run(args: argparse.Namespace) -> dict:
    frames = list(
        synthetic_video(
            args.profile,
            width=args.width,
            height=args.height,
            fps=args.fps,
            duration=args.duration,
            seed=args.seed,
        )
    )
    grid = TileGrid(*(int(part) for part in args.grid.lower().split("x")))
    quality = Quality.from_label(args.quality)
    config_args = {
        "grid": grid,
        "qualities": (Quality.HIGH, Quality.LOWEST),
        "gop_frames": args.gop_frames,
        "fps": args.fps,
    }
    workers_list = sorted({1, *args.workers})
    cpu_count = available_cpus()  # what this process may use, not what the machine has
    bench_warnings: list[str] = []
    if max(workers_list) > cpu_count:
        message = (
            f"workers={max(workers_list)} exceeds cpu_count={cpu_count}: extra "
            "workers time-slice one core and parallel speedup cannot exceed "
            "1.0x on this machine — the scaling numbers below are not "
            "representative of multi-core hardware"
        )
        bench_warnings.append(message)
        print(f"WARNING: {message}", file=sys.stderr)

    entropy = bench_entropy(frames, quality, args.repeats)
    split = bench_split(frames, args.gop_frames, quality, args.repeats)
    ingest = bench_ingest(frames, config_args, workers_list)

    report = {
        "params": {
            "profile": args.profile,
            "width": args.width,
            "height": args.height,
            "fps": args.fps,
            "duration": args.duration,
            "seed": args.seed,
            "grid": args.grid,
            "gop_frames": args.gop_frames,
            "quality": args.quality,
            "repeats": args.repeats,
            # Scaling provenance: a speedup curve is meaningless without
            # the machine it was recorded on.
            "cpu_count": cpu_count,
            "start_method": encode_start_method(),
            "shm_available": shared_memory_available(),
        },
        "warnings": bench_warnings,
        "entropy": entropy,
        "split": split,
        "ingest": ingest,
    }

    emit_table(
        "entropy codec (vectorized vs reference)",
        [
            {
                "path": "encode",
                "reference_ms": f"{entropy['encode_seconds_reference'] * 1e3:.2f}",
                "vectorized_ms": f"{entropy['encode_seconds_vectorized'] * 1e3:.2f}",
                "speedup": ratio(
                    entropy["encode_seconds_reference"],
                    entropy["encode_seconds_vectorized"],
                ),
            },
            {
                "path": "decode",
                "reference_ms": f"{entropy['decode_seconds_reference'] * 1e3:.2f}",
                "vectorized_ms": f"{entropy['decode_seconds_vectorized'] * 1e3:.2f}",
                "speedup": ratio(
                    entropy["decode_seconds_reference"],
                    entropy["decode_seconds_vectorized"],
                ),
            },
        ],
    )
    emit_table(
        "ingest throughput",
        [
            {
                "workers": workers,
                "frames via": (
                    "shm"
                    if run_stats["shm_gops"]
                    else "pickle"
                    if run_stats["pickled_gops"]
                    else "serial"
                ),
                "seconds": f"{run_stats['seconds']:.2f}",
                "frames/s": f"{run_stats['frames_per_sec']:.1f}",
                "encoded": format_bytes(run_stats["stored_bytes"]),
                "encoded MB/s": f"{run_stats['encoded_mb_per_sec']:.2f}",
                "speedup": ratio(
                    ingest["workers"][str(workers_list[0])]["seconds"],
                    run_stats["seconds"],
                ),
            }
            for workers, run_stats in (
                (int(key), value) for key, value in ingest["workers"].items()
            )
        ],
    )
    print(
        f"\nGOP codec split: encode {split['encode_seconds'] * 1e3:.1f} ms, "
        f"decode {split['decode_seconds'] * 1e3:.1f} ms "
        f"({split['encode_fraction'] * 100:.0f}% encode)"
    )

    output = Path(args.output)
    output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {output}")
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", default="venice")
    parser.add_argument("--width", type=int, default=256)
    parser.add_argument("--height", type=int, default=128)
    parser.add_argument("--fps", type=float, default=10.0)
    parser.add_argument("--duration", type=float, default=4.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--grid", default="4x8")
    parser.add_argument("--gop-frames", type=int, default=10)
    parser.add_argument("--quality", default="high")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument(
        "--workers",
        type=int,
        nargs="+",
        default=[1, available_cpus()],
        help="worker counts to compare (1 is always included)",
    )
    parser.add_argument("--output", default="BENCH_ingest.json")
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="seconds-long small-input pass for CI",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        args.width, args.height = 128, 64
        args.duration = min(args.duration, 2.0)
        args.repeats = 1
        args.grid = "2x4"
    run(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
