"""The demo floor: many headsets, one server uplink.

Run:  python examples/shared_server.py [--duration S] [--metrics-out PATH]

Recreates the demonstration's physical setup — several attendees watching
the same 360 video through one server — with the shared-bottleneck
scheduler. The uplink is sized to carry exactly two naive full-quality
streams; the experiment shows how many viewers each delivery strategy
actually sustains on it.

``--metrics-out`` dumps the database's full metrics snapshot (cache,
storage, per-window streaming, shared-link utilisation) as JSON — the
same registry ``python -m repro metrics`` exports.
"""

import argparse
import json
import tempfile

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
from repro.bench.harness import format_table
from repro.stream.estimator import HarmonicMeanEstimator
from repro.stream.network import SimulatedLink
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=8.0, help="video seconds")
    parser.add_argument(
        "--metrics-out", default=None, help="write the metrics snapshot JSON here"
    )
    args = parser.parse_args()
    duration = args.duration

    db = VisualCloud(tempfile.mkdtemp(prefix="visualcloud-"))
    config = IngestConfig(
        grid=TileGrid(4, 8),
        qualities=(Quality.HIGH, Quality.LOWEST),
        gop_frames=10,
        fps=10.0,
    )
    print("ingesting the demo video ...")
    frames = synthetic_video("venice", width=256, height=128, fps=10, duration=duration, seed=12)
    db.ingest("demo", frames, config)

    manifest = db.storage.build_manifest("demo")
    one_stream = sum(
        manifest.full_sphere_size(window, Quality.HIGH)
        for window in range(manifest.window_count)
    ) / manifest.duration
    uplink_rate = 2.0 * one_stream
    print(f"uplink sized for exactly 2 naive streams ({uplink_rate:.0f} B/s)\n")

    population = ViewerPopulation(seed=77)
    rows = []
    for label, policy_factory, use_estimator in [
        ("naive", NaiveFullQuality, False),
        ("predictive", PredictiveTilingPolicy, True),
    ]:
        for viewers in (2, 4, 6):
            sessions = [
                (
                    population.trace(user, duration, rate=10.0),
                    SessionConfig(
                        policy=policy_factory(),
                        bandwidth=ConstantBandwidth(1e9),  # ignored: shared link rules
                        predictor="static",
                        estimator=HarmonicMeanEstimator() if use_estimator else None,
                    ),
                )
                for user in range(viewers)
            ]
            reports = db.serve(
                "demo", sessions, link=SimulatedLink(ConstantBandwidth(uplink_rate))
            )
            rows.append(
                {
                    "strategy": label,
                    "viewers": viewers,
                    "stall_s/viewer": round(
                        sum(r.stall_time for r in reports) / viewers, 2
                    ),
                    "viewed@top_%": round(
                        100 * sum(r.mean_visible_at_best for r in reports) / viewers, 1
                    ),
                }
            )
    print(format_table("viewers sharing one uplink", rows))
    print(
        "\nReading: naive delivery saturates the link at its design point\n"
        "(2 viewers) and rebuffers hard beyond it; predictive tiling's\n"
        "~2x byte savings carry roughly twice the audience on the same\n"
        "wire, which was the demonstration's operational pitch."
    )

    snapshot = db.metrics.snapshot()
    windows = db.metrics.counter("stream.windows").total()
    print(
        f"\nmetrics: {windows:.0f} windows served, "
        f"cache hits {db.metrics.counter('cache.hits').total():.0f} / "
        f"misses {db.metrics.counter('cache.misses').total():.0f}, "
        f"link utilisation {db.metrics.gauge('sharedlink.utilisation').value():.2f}"
    )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote metrics snapshot to {args.metrics_out}")


if __name__ == "__main__":
    main()
