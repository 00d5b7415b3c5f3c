"""The demonstration scenario: one viewer, four delivery strategies.

Run:  python examples/predictive_streaming.py

Recreates what a demo attendee saw: the same 360 video streamed to the
same head-movement trace under naive full-quality delivery, un-tiled
adaptive streaming, and VisualCloud's predictive tiling (with and
without the trained Markov predictor) — then prints the bandwidth/QoE
comparison table.
"""

import tempfile

from repro import (
    ConstantBandwidth,
    IngestConfig,
    NaiveFullQuality,
    PredictiveTilingPolicy,
    Quality,
    SessionConfig,
    TileGrid,
    UniformAdaptive,
    VisualCloud,
)
from repro.bench.harness import format_table
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

DURATION = 8.0


def main() -> None:
    db = VisualCloud(tempfile.mkdtemp(prefix="visualcloud-"))
    config = IngestConfig(
        grid=TileGrid(4, 8),
        qualities=(Quality.HIGH, Quality.MEDIUM, Quality.LOWEST),
        gop_frames=10,
        fps=10.0,
    )
    print("ingesting the 'coaster' reference video ...")
    frames = synthetic_video("coaster", width=256, height=128, fps=10, duration=DURATION, seed=2)
    db.ingest("coaster", frames, config)

    # Train the Markov predictor on other viewers of the same content,
    # then evaluate on a held-out viewer.
    population = ViewerPopulation(seed=5)
    train_users, test_users = population.split(26, train_fraction=0.92)
    db.train_predictor(
        "coaster", [population.trace(user, DURATION, rate=10.0) for user in train_users]
    )
    trace = population.trace(test_users[0], DURATION, rate=10.0)

    manifest = db.storage.build_manifest("coaster")
    naive_rate = (
        sum(
            manifest.full_sphere_size(window, Quality.HIGH)
            for window in range(manifest.window_count)
        )
        / manifest.duration
    )
    link = ConstantBandwidth(naive_rate)

    strategies = [
        ("naive", NaiveFullQuality(), "static"),
        ("uniform DASH", UniformAdaptive(), "static"),
        ("predictive (static)", PredictiveTilingPolicy(), "static"),
        ("predictive (markov)", PredictiveTilingPolicy(), "markov"),
    ]
    rows = []
    baseline = None
    for label, policy, predictor in strategies:
        report = db.serve(
            "coaster",
            (
                trace,
                SessionConfig(
                    policy=policy,
                    bandwidth=link,
                    predictor=predictor,
                    evaluate_quality=True,
                ),
            ),
        )
        if baseline is None:
            baseline = report
        rows.append(
            {
                "strategy": label,
                "bytes": report.total_bytes,
                "saved_%": round(100 * report.bytes_saved_vs(baseline), 1),
                "viewport_psnr": round(report.mean_viewport_psnr, 1),
                "viewed@top_%": round(100 * report.mean_visible_at_best, 1),
                "stalls_s": round(report.stall_time, 2),
            }
        )
    print(format_table("one viewer, four delivery strategies", rows))
    print(
        "\nReading: 'uniform DASH' matches predictive byte counts only by\n"
        "degrading the pixels the viewer is actually looking at (low\n"
        "viewport PSNR); predictive tiling keeps the viewport at top\n"
        "quality and spends the savings behind the viewer's head."
    )

    metrics = db.metrics
    read = metrics.histogram("storage.read_segment.seconds").summary()
    hits = metrics.counter("cache.hits").total()
    lookups = hits + metrics.counter("cache.misses").total()
    print(
        f"\nmetrics: {metrics.counter('stream.windows').total():.0f} windows served, "
        f"{metrics.counter('stream.bytes_sent').total():.0f} bytes on the wire; "
        f"cache hit rate "
        f"{100 * hits / lookups:.1f}%; "
        f"segment read p50 {1e3 * read.get('p50', 0.0):.2f} ms "
        f"over {read['count']} reads"
    )


if __name__ == "__main__":
    main()
