"""Viewer populations: many users, varied behaviour.

Multi-session runs and the Markov-predictor training both
need *populations* of viewers rather than single traces: users who watch
the same content with correlated (hotspot-driven) but individually noisy
behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.predict.traces import DEFAULT_HOTSPOTS, HeadMovementModel, Hotspot, Trace


@dataclass
class ViewerPopulation:
    """A reproducible population of viewers of one video.

    Every viewer shares the content's hotspot layout (people look at the
    same interesting things) but has private dwell/saccade randomness and
    a personal attention span (fixation-duration multiplier).
    """

    hotspots: tuple[Hotspot, ...] = DEFAULT_HOTSPOTS
    base_fixation: float = 2.5
    attention_spread: float = 0.5  # lognormal sigma of per-user fixation scale
    seed: int = 0

    def trace(self, user: int, duration: float, rate: float = 30.0) -> Trace:
        """The head-movement trace of one user (deterministic per user)."""
        user_rng = np.random.default_rng((self.seed, user))
        fixation = self.base_fixation * math.exp(
            user_rng.normal(0.0, self.attention_spread)
        )
        model = HeadMovementModel(
            hotspots=self.hotspots,
            fixation_duration_mean=fixation,
        )
        return model.generate(duration, rate=rate, seed=int(user_rng.integers(2**31)))

    def traces(self, count: int, duration: float, rate: float = 30.0) -> list[Trace]:
        """Traces for users ``0..count-1``."""
        if count < 1:
            raise ValueError(f"population must have at least one user, got {count}")
        return [self.trace(user, duration, rate) for user in range(count)]

    def split(self, count: int, train_fraction: float = 0.5) -> tuple[list[int], list[int]]:
        """Deterministically split user ids into train/test populations.

        The Markov predictor must be trained on *other* users' traces than
        the ones it is evaluated on; this is the split that enforces it.
        """
        if not 0.0 < train_fraction < 1.0:
            raise ValueError(f"train fraction must be in (0, 1), got {train_fraction}")
        cut = max(1, int(round(count * train_fraction)))
        cut = min(cut, count - 1)
        users = list(range(count))
        return users[:cut], users[cut:]
