"""Quality-assignment (ABR) policies.

Given a delivery window, the set of tiles the predictor expects to be
visible, and a byte budget derived from the link estimate, a policy
assigns a quality to every tile of the window. The three policies here
are the systems the evaluation compares:

* :class:`NaiveFullQuality` — what monolithic 360 services do: ship the
  whole sphere at top quality, ignore the budget.
* :class:`UniformAdaptive` — classic un-tiled DASH: one quality for the
  whole sphere, the best that fits the budget.
* :class:`PredictiveTilingPolicy` — VisualCloud: top quality inside the
  predicted viewport, the floor quality elsewhere, degrading gracefully
  when even that exceeds the budget.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

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
        predicted_tiles: set[tuple[int, int]],
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
        predicted_tiles: set[tuple[int, int]],
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
        predicted_tiles: set[tuple[int, int]],
        budget_bytes: float,
    ) -> QualityMap:
        for quality in manifest.qualities:
            if manifest.full_sphere_size(window, quality) <= budget_bytes:
                return {tile: quality for tile in manifest.grid.tiles()}
        return {tile: manifest.worst_quality for tile in manifest.grid.tiles()}


@dataclass
class PredictiveTilingPolicy(QualityPolicy):
    """VisualCloud's policy: spend quality where the viewer will look.

    Starts from (predicted -> ladder top, rest -> ladder floor) and, if
    the budget is exceeded, steps the predicted tiles down one rung at a
    time. If the budget allows, unpredicted tiles are *not* upgraded —
    spare budget is headroom against bandwidth variance, matching the
    demo's behaviour of shipping background tiles at low quality
    unconditionally.
    """

    name: str = "predictive"

    def assign(
        self,
        manifest: Manifest,
        window: int,
        predicted_tiles: set[tuple[int, int]],
        budget_bytes: float,
    ) -> QualityMap:
        ladder = manifest.qualities
        all_tiles = set(manifest.grid.tiles())
        predicted = predicted_tiles & all_tiles
        background = all_tiles - predicted

        # Degradation schedule: step the predicted rung toward the floor.
        for quality in ladder:
            quality_map = {tile: quality for tile in predicted}
            quality_map.update({tile: ladder[-1] for tile in background})
            if manifest.window_size(window, quality_map) <= budget_bytes:
                return quality_map
        # Nothing fits: everything at the floor, accept the stall risk.
        return {tile: ladder[-1] for tile in all_tiles}


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
