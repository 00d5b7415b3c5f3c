"""Head-orientation predictors.

All predictors share one online protocol: the streamer feeds them
orientation observations as they arrive (``observe``) and asks for the
expected orientation at a future time (``predict``). Tile-set prediction
— the thing the streamer actually consumes — is derived by intersecting
the predicted viewport with the tile grid, except for the Markov
predictor, which predicts tile probabilities directly and can hedge across
multiple likely tiles.
"""

from __future__ import annotations

import abc
from collections import deque

import numpy as np

from repro.geometry.angles import clamp_phi, unwrap_theta, wrap_theta
from repro.geometry.grid import TileGrid
from repro.geometry.viewport import Orientation, Viewport
from repro.predict.traces import Trace

#: Seconds of observations a predictor retains. Dead reckoning fits only
#: this recent window, matching the latency budget of a live server.
HISTORY_WINDOW = 2.0
#: Seconds one Markov transition spans.
STEP_DURATION = 0.5
#: Additive smoothing on the Markov transition counts.
SMOOTHING = 0.05
#: Markov tile candidates less likely than this are never shipped beyond
#: the modal tile.
MIN_PROBABILITY = 0.05


class Predictor(abc.ABC):
    """Online head-orientation predictor.

    Observations older than :data:`HISTORY_WINDOW` seconds before the
    latest are dropped, so a session's memory stays bounded.
    """

    def __init__(self) -> None:
        self._history: deque[tuple[float, float, float]] = deque()

    def reset(self) -> None:
        """Forget all observations (start of a new session)."""
        self._history.clear()

    def observe(self, time: float, orientation: Orientation) -> None:
        """Record an orientation report from the client."""
        if self._history and time <= self._history[-1][0]:
            raise ValueError(
                f"observations must be time-ordered; got {time} after {self._history[-1][0]}"
            )
        self._history.append((time, orientation.theta, orientation.phi))
        while self._history and self._history[0][0] < time - HISTORY_WINDOW:
            self._history.popleft()

    @property
    def last_observation(self) -> tuple[float, Orientation]:
        if not self._history:
            raise RuntimeError("predictor has no observations yet")
        time, theta, phi = self._history[-1]
        return time, Orientation(theta, phi)

    @abc.abstractmethod
    def predict(self, time: float) -> Orientation:
        """Expected orientation at the (future) absolute ``time``."""

    def predict_tiles(
        self,
        time: float,
        grid: TileGrid,
        viewport: Viewport,
        margin: int = 1,
    ) -> set[tuple[int, int]]:
        """Tiles expected to be visible at ``time``: the viewport around
        the predicted orientation, grown by ``margin`` rings of neighbours
        to hedge against prediction error."""
        predicted = self.predict(time)
        visible = viewport.visible_tiles(predicted, grid)
        return grid.expand(visible, margin=margin) if margin else visible

    def _history_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        times = np.array([entry[0] for entry in self._history])
        thetas = np.array([entry[1] for entry in self._history])
        phis = np.array([entry[2] for entry in self._history])
        return times, thetas, phis


class StaticPredictor(Predictor):
    """Assumes the viewer holds their current pose — the baseline every
    real predictor must beat, and surprisingly strong at short horizons."""

    def predict(self, time: float) -> Orientation:
        _, orientation = self.last_observation
        return orientation


class DeadReckoningPredictor(Predictor):
    """Constant-angular-velocity extrapolation from the recent window.

    Velocity is estimated by a least-squares slope over the history window
    (wrap-aware in azimuth), which filters sensor jitter better than a
    two-point difference.
    """

    def predict(self, time: float) -> Orientation:
        times, thetas, phis = self._history_arrays()
        last_time, last = self.last_observation
        if times.size < 2:
            return last
        horizon = time - last_time
        rel = times - times[-1]
        centered = rel - rel.mean()
        denom = float(np.sum(centered * centered))
        if denom == 0.0:
            return last
        theta_line = unwrap_theta(thetas)
        theta_rate = float(np.sum(centered * (theta_line - theta_line.mean()))) / denom
        phi_rate = float(np.sum(centered * (phis - phis.mean()))) / denom
        return Orientation(
            wrap_theta(last.theta + theta_rate * horizon),
            clamp_phi(last.phi + phi_rate * horizon),
        )


class MarkovPredictor(Predictor):
    """A trained tile-transition model over a discretised orientation grid.

    Offline, the storage manager trains one transition matrix per video
    from historical traces: ``P[i, j]`` is the probability that a viewer in
    tile ``i`` is in tile ``j`` one step (:data:`STEP_DURATION`) later. Online,
    the predictor rolls the current tile's distribution forward
    ``ceil(horizon / step)`` steps and reports either the modal tile
    (:meth:`predict`) or the smallest tile set covering ``coverage``
    probability mass (:meth:`predict_tiles`).
    """

    def __init__(self, grid: TileGrid, coverage: float = 0.9) -> None:
        super().__init__()
        if not 0.0 < coverage <= 1.0:
            raise ValueError(f"coverage must be in (0, 1], got {coverage}")
        self.grid = grid
        self.coverage = coverage
        self._transitions: np.ndarray | None = None

    @property
    def transitions(self) -> np.ndarray:
        """The trained one-step transition matrix (rows sum to 1)."""
        if self._transitions is None:
            raise RuntimeError("predictor is not trained")
        return self._transitions

    @classmethod
    def from_transitions(
        cls,
        grid: TileGrid,
        transitions: np.ndarray,
        coverage: float = 0.9,
    ) -> "MarkovPredictor":
        """A session predictor sharing an offline-trained matrix."""
        predictor = cls(grid, coverage=coverage)
        if transitions.shape != (grid.tile_count, grid.tile_count):
            raise ValueError(
                f"transition matrix {transitions.shape} does not match "
                f"{grid.tile_count}-tile grid"
            )
        predictor._transitions = transitions
        return predictor

    def train(self, traces: list[Trace]) -> None:
        """Estimate the one-step transition matrix from a trace corpus.

        Counts tile-to-tile transitions at :data:`STEP_DURATION` spacing
        with additive :data:`SMOOTHING`, so unseen transitions keep small
        nonzero probability (viewers do occasionally do new things).
        """
        if not traces:
            raise ValueError("training requires at least one trace")
        size = self.grid.tile_count
        counts = np.full((size, size), SMOOTHING, dtype=np.float64)
        for trace in traces:
            resampled = trace.resample(1.0 / STEP_DURATION)
            tiles = self.grid.tiles_of(resampled.thetas, resampled.phis)
            np.add.at(counts, (tiles[:-1], tiles[1:]), 1.0)
        self._transitions = counts / counts.sum(axis=1, keepdims=True)

    def _distribution(self, horizon: float) -> np.ndarray:
        if self._transitions is None:
            raise RuntimeError("MarkovPredictor.predict requires train() first")
        _, last = self.last_observation
        row, col = self.grid.tile_of(last.theta, last.phi)
        state = np.zeros(self.grid.tile_count)
        state[self.grid.index_of(row, col)] = 1.0
        steps = max(0, int(np.ceil(horizon / STEP_DURATION - 1e-9)))
        for _ in range(steps):
            state = state @ self._transitions
        return state

    def predict(self, time: float) -> Orientation:
        last_time, last = self.last_observation
        distribution = self._distribution(time - last_time)
        row, col = self.grid.tile_at(int(np.argmax(distribution)))
        theta, phi = self.grid.rect(row, col).center()
        return Orientation(theta, phi)

    def predict_tiles(
        self,
        time: float,
        grid: TileGrid,
        viewport: Viewport,
        margin: int = 1,
    ) -> set[tuple[int, int]]:
        """The smallest tile set covering ``coverage`` of the predicted
        distribution, each expanded to its viewport footprint.

        Candidates below :data:`MIN_PROBABILITY` are never added (beyond the
        modal tile): a 2 %-likely gaze tile would drag its whole viewport
        footprint into the high-quality set, costing far more than the
        residual risk it hedges.
        """
        if grid != self.grid:
            raise ValueError("MarkovPredictor was trained on a different grid")
        last_time, _ = self.last_observation
        distribution = self._distribution(time - last_time)
        order = np.argsort(distribution)[::-1]
        mass = 0.0
        tiles: set[tuple[int, int]] = set()
        for index in order:
            if tiles and (
                mass >= self.coverage or distribution[index] < MIN_PROBABILITY
            ):
                break
            row, col = grid.tile_at(int(index))
            theta, phi = grid.rect(row, col).center()
            tiles |= viewport.visible_tiles(Orientation(theta, phi), grid)
            mass += float(distribution[index])
        return grid.expand(tiles, margin=margin) if margin else tiles


class OraclePredictor(Predictor):
    """Perfect foresight from the ground-truth trace: the upper bound on
    what any predictor could save."""

    def __init__(self, trace: Trace) -> None:
        super().__init__()
        self.trace = trace

    def predict(self, time: float) -> Orientation:
        return self.trace.orientation_at(time)
