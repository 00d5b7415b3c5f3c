"""Quality-assignment (ABR) policies.

Given a delivery window, the set of tiles the predictor expects to be
visible, and a byte budget derived from the link estimate, a policy
assigns a quality to every tile of the window. The three policies here
are the systems the evaluation compares:

* :class:`NaiveFullQuality` — what monolithic 360 services do: ship the
  whole sphere at top quality, ignore the budget.
* :class:`UniformAdaptive` — classic un-tiled DASH: one quality for the
  whole sphere, the best that fits the budget.
* :class:`PredictiveTilingPolicy` — VisualCloud: top quality on the tiles
  that maximise the expected matched savings over the window forecast,
  the floor quality elsewhere, degrading gracefully when even the modal
  viewport exceeds the budget.

``predicted_tiles`` is either a plain tile set (one certain footprint) or
a forecast: a boolean ``(samples, tile_count)`` array of equally weighted
footprints over row-major tile indices, row 0 the modal one (see
:meth:`repro.predict.predictors.Predictor.forecast`).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.stream.dash import Manifest
from repro.video.quality import Quality

QualityMap = dict[tuple[int, int], Quality]


class QualityPolicy(abc.ABC):
    """Assigns a quality to every tile of one delivery window."""

    name: str = "policy"

    @abc.abstractmethod
    def assign(
        self,
        manifest: Manifest,
        window: int,
        predicted_tiles: set[tuple[int, int]] | np.ndarray,
        budget_bytes: float,
    ) -> QualityMap:
        """Quality per tile. Every grid tile must appear in the result —
        a tile that is never delivered would render as a grey hole."""


@dataclass
class NaiveFullQuality(QualityPolicy):
    """The baseline: the entire sphere at the best quality, always."""

    name: str = "naive"

    def assign(
        self,
        manifest: Manifest,
        window: int,
        predicted_tiles: set[tuple[int, int]] | np.ndarray,
        budget_bytes: float,
    ) -> QualityMap:
        return {tile: manifest.best_quality for tile in manifest.grid.tiles()}


@dataclass
class UniformAdaptive(QualityPolicy):
    """Un-tiled rate adaptation: the best single quality that fits.

    Falls back to the worst rung when nothing fits (a DASH player would
    likewise keep playing at the lowest representation and stall).
    """

    name: str = "uniform"

    def assign(
        self,
        manifest: Manifest,
        window: int,
        predicted_tiles: set[tuple[int, int]] | np.ndarray,
        budget_bytes: float,
    ) -> QualityMap:
        for quality in manifest.qualities:
            if manifest.full_sphere_size(window, quality) <= budget_bytes:
                return {tile: quality for tile in manifest.grid.tiles()}
        return {tile: manifest.worst_quality for tile in manifest.grid.tiles()}


@dataclass
class PredictiveTilingPolicy(QualityPolicy):
    """VisualCloud's policy: spend quality where the viewer will look.

    Picks the top-rung set S that maximises the expected matched credit,
    P(every visible tile in S) x (naive bytes - window bytes(S)), with the
    rest at the floor. S starts from the modal footprint and grows by
    tiles in order of forecast frequency per extra byte; every prefix is
    scored against the forecast and the best one that fits the budget
    wins. Spare budget is not spent: a tile is upgraded only when it buys
    more expected credit than it costs. If the modal footprint does not
    fit at the top rung, its rung steps down one at a time instead.
    """

    name: str = "predictive"

    def assign(
        self,
        manifest: Manifest,
        window: int,
        predicted_tiles: set[tuple[int, int]] | np.ndarray,
        budget_bytes: float,
    ) -> QualityMap:
        grid = manifest.grid
        ladder = manifest.qualities
        tiles = list(grid.tiles())
        if isinstance(predicted_tiles, np.ndarray):
            footprints = predicted_tiles
        else:
            footprints = grid.mask_of(predicted_tiles)[None]
        predicted = grid.tiles_in(footprints[0])
        # Degradation schedule: step the modal footprint toward the floor.
        for quality in ladder:
            quality_map = {tile: quality if tile in predicted else ladder[-1] for tile in tiles}
            if manifest.window_size(window, quality_map) <= budget_bytes:
                if quality == ladder[0] and len(footprints) > 1:
                    return self._hedge(manifest, window, footprints, budget_bytes)
                return quality_map
        # Nothing fits: everything at the floor, accept the stall risk.
        return {tile: ladder[-1] for tile in tiles}

    @staticmethod
    def _hedge(
        manifest: Manifest, window: int, footprints: np.ndarray, budget_bytes: float
    ) -> QualityMap:
        """The top-rung set with the best expected matched credit that fits
        the budget, given that the modal footprint does."""
        ladder = manifest.qualities
        tiles = list(manifest.grid.tiles())

        def sizes(quality):
            return np.array(
                [manifest.size_of(window, tile, manifest.resolve(window, tile, quality)) for tile in tiles]
            )

        top, floor = sizes(ladder[0]), sizes(ladder[-1])
        extra = top - floor
        modal = footprints[0]
        frequency = footprints.mean(axis=0)
        candidates = np.flatnonzero((frequency > 0) & ~modal)
        order = candidates[
            np.argsort(-frequency[candidates] / np.maximum(extra[candidates], 1), kind="stable")
        ]
        # Prefix j (the modal footprint plus the first j candidates)
        # covers sample k once it holds the latest-ranked tile of k.
        rank = np.zeros(len(tiles), dtype=np.int64)
        rank[order] = np.arange(1, order.size + 1)
        covered_at = np.where(footprints, rank, 0).max(axis=1)
        covered = np.cumsum(np.bincount(covered_at, minlength=order.size + 1))
        sent = floor.sum() + extra[modal].sum() + np.concatenate(([0], np.cumsum(extra[order])))
        score = covered * (top.sum() - sent)
        best = int(np.argmax(np.where(sent <= budget_bytes, score, -1)))
        chosen = modal.copy()
        chosen[order[:best]] = True
        return {
            tile: ladder[0] if chosen[index] else ladder[-1] for index, tile in enumerate(tiles)
        }


#: Every policy under its ``name``: what ``--policy`` and a plan's ``sessions.policy`` pick from.
POLICIES = {p.name: p for p in (NaiveFullQuality, UniformAdaptive, PredictiveTilingPolicy)}


def estimate_budget(
    bandwidth_estimate: float, window_duration: float, safety: float = 0.9
) -> float:
    """Byte budget for one window from a link estimate.

    ``safety`` derates the estimate so transient dips do not immediately
    stall playback; 0.9 matches common DASH practice.
    """
    if bandwidth_estimate <= 0:
        raise ValueError(f"bandwidth estimate must be positive, got {bandwidth_estimate}")
    if not 0.0 < safety <= 1.0:
        raise ValueError(f"safety factor must be in (0, 1], got {safety}")
    if window_duration <= 0:
        raise ValueError(f"window duration must be positive, got {window_duration}")
    return bandwidth_estimate * window_duration * safety
