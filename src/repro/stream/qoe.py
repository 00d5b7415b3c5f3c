"""Quality-of-experience accounting.

The demo's claim has two halves — fewer bytes, same experience — so the
report tracks both: delivered bytes against the naive baseline, and what
the viewer actually saw. "What the viewer saw" has a cheap structural
metric (the fraction of viewed tile-time that arrived at top quality) and
an expensive pixel metric (viewport PSNR, computed by the
:class:`repro.stream.client.ViewportQualityProbe` when requested).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.stream.dash import SegmentKey
from repro.video.quality import Quality


@dataclass(frozen=True)
class DegradationEvent:
    """One resilience action taken while assembling a delivery window.

    ``kind`` is one of:

    * ``"retry"`` — a transient read error was retried and eventually
      succeeded at the requested quality;
    * ``"degrade"`` — the requested rung could not be read and a lower
      stored rung shipped instead (``delivered < requested``, never
      above: degradation must not silently upgrade a budgeted request);
    * ``"skip"`` — no rung of the tile's ladder could be read; the window
      shipped without the tile (``delivered is None``).
    """

    window: int
    tile: tuple[int, int]
    requested: Quality
    delivered: Quality | None
    kind: str
    attempts: int  # total read attempts spent on this tile
    reason: str = ""

    @property
    def segment_key(self) -> SegmentKey:
        """Canonical identity of the segment the session asked for."""
        return SegmentKey(self.window, self.tile, self.requested)

    def to_json(self) -> dict:
        return {
            "window": self.window,
            "tile": list(self.tile),
            "segment": self.segment_key.to_path(),
            "requested": self.requested.label,
            "delivered": None if self.delivered is None else self.delivered.label,
            "kind": self.kind,
            "attempts": self.attempts,
            "reason": self.reason,
        }


@dataclass
class WindowRecord:
    """Everything that happened to one delivery window of one session."""

    window: int
    request_time: float  # when the transfer was enqueued
    delivered_time: float  # when the last byte arrived
    playback_start: float  # when the client began displaying it
    stall_seconds: float  # rebuffering charged to this window
    bytes_sent: int
    quality_map: dict[tuple[int, int], Quality]
    predicted_tiles: set[tuple[int, int]]
    ladder_best: Quality
    visible_tiles: set[tuple[int, int]] = field(default_factory=set)
    viewport_psnr: float | None = None  # filled by the quality probe
    #: What the policy asked for (post-resolve), before any resilience
    #: fallback. Equal to ``quality_map`` plus skipped tiles on a clean
    #: window; the delta is exactly what ``events`` records.
    requested_map: dict[tuple[int, int], Quality] | None = None
    #: Retries, degradations, and skips charged to this window.
    events: list[DegradationEvent] = field(default_factory=list)

    @property
    def visible_at_best(self) -> float:
        """Fraction of actually-visible tiles delivered at the ladder's
        best rung (1.0 when prediction was perfect or the whole sphere
        shipped at top quality)."""
        if not self.visible_tiles:
            return float("nan")
        hits = sum(
            1
            for tile in self.visible_tiles
            if self.quality_map.get(tile) == self.ladder_best
        )
        return hits / len(self.visible_tiles)


@dataclass
class QoEReport:
    """Session-level aggregation of :class:`WindowRecord`."""

    records: list[WindowRecord]

    def __post_init__(self) -> None:
        if not self.records:
            raise ValueError("a QoE report needs at least one window record")

    @property
    def total_bytes(self) -> int:
        return sum(record.bytes_sent for record in self.records)

    @property
    def stall_time(self) -> float:
        return sum(record.stall_seconds for record in self.records)

    @property
    def stall_count(self) -> int:
        return sum(1 for record in self.records if record.stall_seconds > 1e-9)

    @property
    def mean_visible_at_best(self) -> float:
        values = [
            record.visible_at_best
            for record in self.records
            if record.visible_tiles
        ]
        if not values:
            return float("nan")
        return sum(values) / len(values)

    @property
    def mean_viewport_psnr(self) -> float:
        values = [
            record.viewport_psnr
            for record in self.records
            if record.viewport_psnr is not None
        ]
        if not values:
            return float("nan")
        return sum(values) / len(values)

    @property
    def quality_switches(self) -> int:
        """How often the quality of a *visible* tile changed between
        consecutive windows — rapid flapping is perceptually jarring."""
        switches = 0
        for previous, current in zip(self.records, self.records[1:]):
            for tile in current.visible_tiles:
                before = previous.quality_map.get(tile)
                now = current.quality_map.get(tile)
                if before is not None and now is not None and before != now:
                    switches += 1
        return switches

    @property
    def degradation_events(self) -> list[DegradationEvent]:
        """Every resilience event of the session, in delivery order."""
        return [event for record in self.records for event in record.events]

    @property
    def degradation_count(self) -> int:
        """Tiles that shipped below the requested rung or not at all."""
        return sum(
            1 for event in self.degradation_events if event.kind in ("degrade", "skip")
        )

    @property
    def retry_count(self) -> int:
        """Transient read errors healed by retry (requested rung shipped)."""
        return sum(1 for event in self.degradation_events if event.kind == "retry")

    def bytes_saved_vs(self, baseline: "QoEReport") -> float:
        """Fractional byte reduction relative to a baseline session."""
        if baseline.total_bytes == 0:
            raise ValueError("baseline delivered zero bytes")
        return 1.0 - self.total_bytes / baseline.total_bytes

    def summary(self) -> dict:
        """A flat dict for tabular experiment output."""
        return {
            "windows": len(self.records),
            "total_bytes": self.total_bytes,
            "stall_time_s": round(self.stall_time, 3),
            "stall_count": self.stall_count,
            "visible_at_best": round(self.mean_visible_at_best, 4),
            "viewport_psnr_db": round(self.mean_viewport_psnr, 2),
            "quality_switches": self.quality_switches,
            "degradations": self.degradation_count,
            "retries": self.retry_count,
        }
