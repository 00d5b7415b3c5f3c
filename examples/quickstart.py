"""Quickstart: ingest a 360 video, read a tile subset, stream it to a viewer.

Run:  python examples/quickstart.py

Walks the VisualCloud API — ingest, a window read, serve — against a
procedurally generated 360 clip, printing what happened at each step.
Total runtime is a few seconds.
"""

import tempfile
import time

from repro import (
    ConstantBandwidth,
    IngestConfig,
    NaiveFullQuality,
    PredictiveTilingPolicy,
    Quality,
    SessionConfig,
    TileGrid,
    VisualCloud,
)
from repro.video.tiles import available_cpus
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video


def main() -> None:
    # 1. A VisualCloud database is a directory.
    root = tempfile.mkdtemp(prefix="visualcloud-")
    db = VisualCloud(root)
    print(f"database at {root}")

    # 2. Ingest: segment spatiotemporally (1 s windows x a 4x8 angular
    #    grid) and encode every segment at two quality rungs. Every
    #    (window, tile, quality) segment is an independent closed GOP, so
    #    `db.ingest(..., workers=N)` fans the encodes across N processes
    #    (the default uses every core this process may run on; the bytes
    #    written are identical at any worker count).
    config = IngestConfig(
        grid=TileGrid(4, 8),
        qualities=(Quality.HIGH, Quality.LOWEST),
        gop_frames=10,
        fps=10.0,
    )
    frames = synthetic_video("venice", width=256, height=128, fps=10, duration=6, seed=1)
    start = time.perf_counter()
    meta = db.ingest("venice", frames, config)
    elapsed = time.perf_counter() - start
    stored = db.storage.total_bytes("venice")
    frame_count = meta.gop_count * config.gop_frames
    print(
        f"ingested {meta.duration:.0f}s as {meta.gop_count} windows x "
        f"{meta.grid.tile_count} tiles x {len(meta.qualities)} qualities "
        f"({stored} bytes on disk)"
    )
    print(
        f"  {frame_count / elapsed:.1f} frames/sec with {available_cpus()} encode "
        f"worker(s) ({elapsed:.2f}s wall)"
    )

    # 3. Read a window: any subset of tiles, each at its own rung, comes
    #    back as the stored bytes untouched — no decode, no re-encode.
    #    Here the half sphere facing theta < pi, at the top rung.
    half = {tile: Quality.HIGH for tile in meta.grid.tiles() if tile[1] < meta.grid.cols // 2}
    start = time.perf_counter()
    window = db.storage.read_window("venice", 2, half)
    read_ms = 1e3 * (time.perf_counter() - start)
    start = time.perf_counter()
    db.storage.decode_window("venice", 2, Quality.HIGH)
    decode_ms = 1e3 * (time.perf_counter() - start)
    print(
        f"half-sphere window: {len(window.payloads)} of {meta.grid.tile_count} tiles, "
        f"{sum(map(len, window.payloads.values()))} bytes read, 0 decodes in "
        f"{read_ms:.1f} ms (decoding the whole window takes {decode_ms:.0f} ms)"
    )

    # 4. Serve: one simulated viewer, naive vs. predictive delivery.
    trace = ViewerPopulation(seed=3).trace(0, duration=6.0, rate=10.0)
    link = ConstantBandwidth(20_000)  # bytes/second
    naive = db.serve(
        "venice", (trace, SessionConfig(policy=NaiveFullQuality(), bandwidth=link))
    )
    predictive = db.serve(
        "venice",
        (
            trace,
            SessionConfig(
                policy=PredictiveTilingPolicy(),
                bandwidth=link,
                predictor="static",
            ),
        ),
    )
    print(
        f"naive delivery:      {naive.total_bytes} bytes, "
        f"{naive.stall_time:.2f}s stalled"
    )
    print(
        f"predictive delivery: {predictive.total_bytes} bytes, "
        f"{predictive.stall_time:.2f}s stalled "
        f"({100 * predictive.bytes_saved_vs(naive):.0f}% saved)"
    )


if __name__ == "__main__":
    main()
