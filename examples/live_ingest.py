"""Live ingest: append arriving GOPs and serve from the growing store.

Run:  python examples/live_ingest.py

Simulates a live 360 camera feed: the producer appends one-second
chunks, each append committing a new immutable version; a viewer joining
mid-stream is served from whatever the latest committed version holds,
while a reader pinned to an old version is unaffected (snapshot
isolation by construction).
"""

import itertools
import tempfile
import time

from repro import (
    ConstantBandwidth,
    IngestConfig,
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
    db = VisualCloud(tempfile.mkdtemp(prefix="visualcloud-"))
    # A live feed must keep up with the camera: fan each chunk's
    # (tile, quality) encodes across every core. The committed bytes are
    # identical at any worker count, so this is purely a latency knob.
    config = IngestConfig(
        grid=TileGrid(2, 4),
        qualities=(Quality.HIGH, Quality.LOWEST),
        gop_frames=10,
        fps=10.0,
    )

    # The "camera": an infinite frame source we consume in 1 s chunks.
    camera = iter(
        synthetic_video("timelapse", width=128, height=64, fps=10, duration=30, seed=4)
    )

    def next_second():
        return list(itertools.islice(camera, 10))

    # First chunk creates the video; subsequent chunks append.
    start = time.perf_counter()
    db.ingest("live", next_second(), config, streaming=True)
    print(f"v{db.meta('live').version}: {db.meta('live').duration:.0f}s committed")

    for _ in range(4):
        db.append("live", next_second())
        meta = db.meta("live")
        print(f"v{meta.version}: {meta.duration:.0f}s committed (streaming={meta.streaming})")
    elapsed = time.perf_counter() - start
    ingested_frames = db.meta("live").gop_count * config.gop_frames
    print(
        f"ingest rate: {ingested_frames / elapsed:.1f} frames/sec with "
        f"{available_cpus()} encode worker(s) (camera produces 10.0 frames/sec)"
    )

    # A reader pinned to version 2 sees exactly the first two seconds,
    # no matter how far the live edge has advanced.
    pinned = db.meta("live", version=2)
    print(f"pinned reader at v2 sees {pinned.duration:.0f}s; latest has "
          f"{db.meta('live').duration:.0f}s")

    # A viewer joins and streams the latest committed content.
    trace = ViewerPopulation(seed=8).trace(0, duration=5.0, rate=10.0)
    report = db.serve(
        "live",
        (
            trace,
            SessionConfig(
                policy=PredictiveTilingPolicy(),
                bandwidth=ConstantBandwidth(15_000),
                predictor="static",
            ),
        ),
    )
    print(
        f"viewer streamed {len(report.records)} windows, "
        f"{report.total_bytes} bytes, {report.stall_time:.2f}s stalled"
    )


if __name__ == "__main__":
    main()
