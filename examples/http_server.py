"""Segment delivery over a real socket.

Run:  python examples/http_server.py

Starts the asyncio segment server on a loopback port, streams three
viewers against it through the unified ``db.serve(..., base_url=...)``
entry point, and shows the two properties the wire path promises: the
QoE reports are identical to the simulated path (playback timing stays
on the session's bandwidth model), and the server's metrics registry
records what actually crossed the socket.
"""

import json
import tempfile

from repro import (
    ConstantBandwidth,
    HttpSegmentClient,
    IngestConfig,
    PredictiveTilingPolicy,
    Quality,
    SessionConfig,
    TileGrid,
    VisualCloud,
    start_server,
)
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

DURATION = 4.0


def main() -> None:
    db = VisualCloud(tempfile.mkdtemp(prefix="visualcloud-"))
    config = IngestConfig(
        grid=TileGrid(2, 4),
        qualities=(Quality.HIGH, Quality.LOW),
        gop_frames=10,
        fps=10.0,
    )
    frames = synthetic_video("venice", width=128, height=64, fps=10, duration=DURATION, seed=6)
    db.ingest("venice", frames, config)

    population = ViewerPopulation(seed=11)
    sessions = [
        (
            population.trace(user, DURATION, rate=10.0),
            SessionConfig(
                policy=PredictiveTilingPolicy(),
                bandwidth=ConstantBandwidth(150_000),
                predictor="static",
            ),
        )
        for user in range(3)
    ]

    # Reference: the same sessions on the simulated path.
    simulated = db.serve("venice", sessions)

    with start_server(db.storage) as handle:
        print(f"segment server listening on {handle.base_url}")
        wire = db.serve("venice", sessions, base_url=handle.base_url)
        with HttpSegmentClient(handle.base_url) as client:
            snapshot = client.fetch_metrics()

    for index, (sim, http) in enumerate(zip(simulated, wire)):
        same = json.dumps(sim.summary(), sort_keys=True) == json.dumps(
            http.summary(), sort_keys=True
        )
        print(
            f"viewer {index}: {http.total_bytes} bytes over the wire, "
            f"{http.stall_time:.2f}s stalled, "
            f"QoE {'identical to' if same else 'DIVERGED from'} simulation"
        )

    counters = snapshot["counters"]
    requests = sum(
        value for key, value in counters.items() if key.startswith("serve.requests")
    )
    latency = next(
        summary
        for key, summary in snapshot["histograms"].items()
        if key.startswith("serve.request_seconds") and "segment" in key
    )
    print(
        f"\nserver metrics: {requests:.0f} requests, "
        f"{counters.get('serve.bytes_sent', 0):.0f} bytes sent; "
        f"segment latency p50 {1e3 * latency['p50']:.2f} ms, "
        f"p99 {1e3 * latency['p99']:.2f} ms over {latency['count']} requests"
    )


if __name__ == "__main__":
    main()
