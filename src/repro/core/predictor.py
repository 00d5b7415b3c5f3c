"""The server-side prediction service.

The streamer does not construct predictors directly: sessions ask this
service for one by kind, and the service injects whatever offline state
the kind needs — the Markov predictor's per-video transition matrix
(trained from historical traces of other viewers of the same content) or
the oracle's ground-truth trace.
"""

from __future__ import annotations

import numpy as np

from repro.geometry.grid import TileGrid
from repro.obs import MetricsRegistry
from repro.predict.predictors import (
    DeadReckoningPredictor,
    MarkovPredictor,
    OraclePredictor,
    Predictor,
    StaticPredictor,
)
from repro.predict.traces import Trace

PREDICTOR_KINDS = ("static", "deadreckoning", "markov", "oracle")


class PredictionService:
    """Creates per-session predictors and holds trained per-video priors."""

    def __init__(
        self,
        markov_coverage: float = 0.9,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.markov_coverage = markov_coverage
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._trained: dict[tuple[str, TileGrid], np.ndarray] = {}

    def train(self, video: str, grid: TileGrid, traces: list[Trace]) -> None:
        """Train the Markov prior for one video from a trace corpus."""
        with self.metrics.span("prediction.train", video=video, traces=len(traces)):
            trainer = MarkovPredictor(grid)
            trainer.train(traces)
            self._trained[(video, grid)] = trainer.transitions
        self.metrics.counter("prediction.models_trained", "Markov priors trained").inc()

    def session_predictor(
        self,
        kind: str,
        video: str | None = None,
        grid: TileGrid | None = None,
        trace: Trace | None = None,
    ) -> Predictor:
        """A fresh predictor for one session.

        ``video``/``grid`` are required for ``markov`` (to look up the
        trained matrix); ``trace`` is required for ``oracle``.
        """
        if kind in PREDICTOR_KINDS:
            self.metrics.counter(
                "prediction.sessions", "session predictors handed out"
            ).inc(kind=kind)
        if kind == "static":
            return StaticPredictor()
        if kind == "deadreckoning":
            return DeadReckoningPredictor()
        if kind == "markov":
            if video is None or grid is None:
                raise ValueError("markov predictor requires video and grid")
            key = (video, grid)
            if key not in self._trained:
                raise ValueError(
                    f"no trained Markov model for video {video!r} on {grid.rows}x"
                    f"{grid.cols}; call PredictionService.train first"
                )
            return MarkovPredictor.from_transitions(
                grid, self._trained[key], coverage=self.markov_coverage
            )
        if kind == "oracle":
            if trace is None:
                raise ValueError("oracle predictor requires the ground-truth trace")
            return OraclePredictor(trace)
        raise ValueError(f"unknown predictor kind {kind!r}; choose from {PREDICTOR_KINDS}")
