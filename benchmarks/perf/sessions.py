"""Streaming-session arms and what the benchmark reads off a QoE report.

Used on both sides of the pipe: the host runs simulated sessions through
``VisualCloud.serve``; the driver runs wire sessions through
``serve_session``. Both build their :class:`SessionConfig` here so the
wire == sim gate compares like with like.
"""

from __future__ import annotations

import json
from time import perf_counter

from repro import (
    ConstantBandwidth,
    NaiveFullQuality,
    PredictiveTilingPolicy,
    SessionConfig,
)
from repro.stream.abr import QualityPolicy

#: arm -> (policy factory, predictor, margin). ``headline`` is the
#: ``SessionConfig`` default (dead reckoning, one margin ring); ``oracle``
#: is the ceiling no predictor can beat.
ARMS = {
    "naive": (NaiveFullQuality, "deadreckoning", 1),
    "headline": (PredictiveTilingPolicy, "deadreckoning", 1),
    "markov": (PredictiveTilingPolicy, "markov", 0),
    "oracle": (PredictiveTilingPolicy, "oracle", 0),
}


class TimedPolicy(QualityPolicy):
    """Delegates to a real policy and notes when each window's quality
    assignment was asked for.

    ``assign`` is called exactly once per delivery window, at the end of
    the window's decision, so consecutive marks bound one window's wall
    time from outside the streamer: assignment, every tile fetched and
    verified, record keeping, and the next window's prediction.
    """

    def __init__(self, inner: QualityPolicy, spans) -> None:
        self.inner = inner
        self.name = inner.name
        self.spans = spans
        self.marks: list[float] = []

    def assign(self, manifest, window, predicted_tiles, budget_bytes):
        self.marks.append(perf_counter())
        with self.spans.span("stream.abr.assign"):
            return self.inner.assign(manifest, window, predicted_tiles, budget_bytes)


def session_config(arm: str, rate: float, spans, probe: bool = False) -> SessionConfig:
    policy, predictor, margin = ARMS[arm]
    return SessionConfig(
        policy=TimedPolicy(policy(), spans),
        bandwidth=ConstantBandwidth(rate),
        predictor=predictor,
        margin=margin,
        evaluate_quality=probe,
    )


def naive_rate(manifest) -> float:
    """Bytes/second that ships the whole sphere at the top rung — the
    link every arm streams over, so savings are not forced by the link."""
    total = sum(
        manifest.full_sphere_size(window, manifest.best_quality)
        for window in range(manifest.window_count)
    )
    return total / manifest.duration


def window_walls(marks: list[float], started: float, ended: float) -> list[tuple[float, float]]:
    """``(end, seconds)`` per delivery window from a TimedPolicy's marks.

    Window 0 runs from the session start (so it carries the manifest
    fetch); window ``w`` from its assignment to the next one's.
    """
    bounds = [started, *marks[1:], ended]
    return [(high, high - low) for low, high in zip(bounds, bounds[1:])]


def digest(report, manifest, config: SessionConfig, arm: str,
           started: float, ended: float) -> dict:
    """The numbers the benchmark keeps from one session."""
    best = manifest.best_quality
    naive = credit = out_of_view = 0
    for record in report.records:
        full = manifest.full_sphere_size(record.window, best)
        naive += full
        # Equal in-viewport quality or nothing: a window that showed the
        # viewer any tile below the top rung earns no credit.
        if record.visible_at_best == 1.0:
            credit += full - record.bytes_sent
        out_of_view += sum(
            manifest.size_of(record.window, tile, quality)
            for tile, quality in record.quality_map.items()
            if tile not in record.visible_tiles
        )
    summary = report.summary()
    return {
        "arm": arm,
        "started": started,
        "ended": ended,
        "windows": len(report.records),
        "walls": window_walls(config.policy.marks, started, ended),
        "bytes": report.total_bytes,
        "naive_bytes": naive,
        "credit_bytes": credit,
        "out_of_view_bytes": out_of_view,
        "stall_s": report.stall_time,
        "visible_at_best": report.mean_visible_at_best,
        "psnr_db": report.mean_viewport_psnr,
        "degraded": report.degradation_count,
        "retries": report.retry_count,
        # NaN-stable rendering, so wire and simulated summaries compare.
        "summary": json.dumps(summary, sort_keys=True),
    }
