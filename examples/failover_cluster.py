"""Streaming through a replicated delivery tier that loses a server.

Run:  python examples/failover_cluster.py

Starts three segment servers over one catalog and streams through
``FailoverSegmentClient`` — circuit breakers, a global retry budget,
round-robin over healthy replicas. The first session runs against the
healthy tier; then one server is killed and a second session streams
anyway, with the client's metrics showing exactly how the outage was
absorbed (failovers, no degradation).
"""

import tempfile

from repro import (
    ConstantBandwidth,
    IngestConfig,
    PredictiveTilingPolicy,
    Quality,
    SessionConfig,
    TileGrid,
    VisualCloud,
    start_server,
)
from repro.obs import MetricsRegistry
from repro.serve import FailoverConfig, serve_session
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

DURATION = 4.0
REPLICAS = 3


def main() -> None:
    db = VisualCloud(tempfile.mkdtemp(prefix="visualcloud-"))
    config = IngestConfig(
        grid=TileGrid(2, 4),
        qualities=(Quality.HIGH, Quality.LOW),
        gop_frames=10,
        fps=10.0,
    )
    frames = synthetic_video(
        "venice", width=128, height=64, fps=10, duration=DURATION, seed=6
    )
    db.ingest("venice", frames, config)

    trace = ViewerPopulation(seed=11).trace(0, DURATION, rate=10.0)
    session = SessionConfig(
        policy=PredictiveTilingPolicy(),
        bandwidth=ConstantBandwidth(150_000),
        predictor="static",
    )

    handles = [start_server(db.storage) for _ in range(REPLICAS)]
    urls = [handle.base_url for handle in handles]
    print("replica tier:")
    for url in urls:
        print(f"  {url}")

    failover = FailoverConfig(failure_threshold=2, reset_timeout=0.5)
    try:
        for label, outage in (("healthy tier", False), ("replica 0 down", True)):
            if outage:
                handles[0].stop()
            registry = MetricsRegistry()
            report = serve_session(
                urls, "venice", trace, session, registry=registry, failover=failover
            )
            counters = registry.snapshot()["counters"]

            def total(name):
                return sum(
                    value
                    for key, value in counters.items()
                    if key.startswith(name)
                )

            events = sum(len(record.events) for record in report.records)
            print(
                f"\n{label}: {report.total_bytes} bytes delivered, "
                f"{report.stall_time:.2f}s stalled, {events} resilience events"
            )
            print(
                f"  failover client: {total('failover.requests'):.0f} requests, "
                f"{total('failover.failovers'):.0f} failovers"
            )
    finally:
        for handle in handles:
            handle.stop()


if __name__ == "__main__":
    main()
