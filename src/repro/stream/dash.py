"""DASH-style manifests for tiled adaptive streaming.

A manifest is what the server publishes to a session: the video's layout
(grid, window duration, quality ladder) plus the exact byte size of every
(window, tile, quality) segment. Sizes matter — the ABR policy budgets
real bytes against real link capacity, so the manifest is built from the
storage manager's index rather than a bitrate model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from repro.geometry.grid import TileGrid
from repro.video.quality import Quality

#: The route every segment URL starts with (:meth:`SegmentKey.url`).
SEGMENT_ROUTE = "/segment/"


class SegmentKey(NamedTuple):
    """Identity of one deliverable segment.

    This is the *canonical* segment identity: the store's index
    (``VideoMeta.entries``) is keyed by it — a ``SegmentKey`` equals and
    hashes as its ``(window, tile, quality)`` tuple — and wire URLs
    (:meth:`url`/:func:`parse_segment_url`) and buffer-pool keys
    (:meth:`cache_key`) are derived from it, so the index, the HTTP
    surface, the cache, and chaos targeting cannot drift apart. On disk a
    segment is a byte range of its GOP's pack
    (:func:`repro.core.catalog.pack_file_name`), found through the index.
    """

    window: int  # delivery-window (GOP) index
    tile: tuple[int, int]  # (row, col) in the grid
    quality: Quality

    def to_path(self) -> str:
        """The wire path of this segment: ``window/row/col/quality``.

        This is the tail of the segment URL (:meth:`url`); it contains
        no video name or version — names scope the URL, versions are a
        storage concern the wire never sees.
        """
        row, col = self.tile
        return f"{self.window}/{row}/{col}/{self.quality.label}"

    def url(self, video: str) -> str:
        """The request path of this segment of ``video``:
        ``/segment/<video>/<window>/<row>/<col>/<quality>``, the one
        writer of the URL :func:`parse_segment_url` reads."""
        return f"{SEGMENT_ROUTE}{video}/{self.to_path()}"

    @classmethod
    def from_path(cls, path: str) -> "SegmentKey":
        """Parse :meth:`to_path` output (raises ``ValueError`` on junk)."""
        parts = path.strip("/").split("/")
        if len(parts) != 4:
            raise ValueError(
                f"segment path must be window/row/col/quality, got {path!r}"
            )
        try:
            window, row, col = int(parts[0]), int(parts[1]), int(parts[2])
        except ValueError as error:
            raise ValueError(f"non-integer component in segment path {path!r}") from error
        if window < 0 or row < 0 or col < 0:
            raise ValueError(f"negative component in segment path {path!r}")
        return cls(window, (row, col), Quality.from_label(parts[3]))

    def cache_key(self, video: str, file_version: int) -> tuple:
        """The buffer-pool key for this segment's bytes.

        The tuple shape ``(video, window, tile, quality, version)`` is
        relied on by the chaos cache wrapper and the scenario runner's
        cache/disk consistency audit — construct it here, nowhere else.
        """
        return (video, self.window, self.tile, self.quality, file_version)


def parse_segment_url(path: str) -> tuple[str, SegmentKey]:
    """``(video, key)`` of a :meth:`SegmentKey.url` request path; raises
    ``ValueError`` on anything else."""
    parts = [part for part in path.split("/") if part]
    if len(parts) != 6 or parts[0] != "segment":
        raise ValueError(f"not a segment path: {path!r}")
    return parts[1], SegmentKey.from_path("/".join(parts[2:]))


@dataclass
class Manifest:
    """The session-facing description of one stored video."""

    video: str
    width: int
    height: int
    fps: float
    window_duration: float  # seconds per delivery window (= GOP duration)
    window_count: int
    grid: TileGrid
    qualities: tuple[Quality, ...]  # available ladder, best first
    segment_sizes: dict[SegmentKey, int] = field(default_factory=dict)
    #: Optional :class:`~repro.serve.placement.ShardMap` published by a
    #: sharded tier (typed loosely: stream must not import serve at module
    #: load). ``None`` on single-node manifests, and omitted from the wire
    #: form so pre-shard manifest JSON stays byte-identical.
    shard_map: object | None = None

    def __post_init__(self) -> None:
        if self.window_duration <= 0:
            raise ValueError(f"window duration must be positive, got {self.window_duration}")
        if self.window_count <= 0:
            raise ValueError(f"window count must be positive, got {self.window_count}")
        if not self.qualities:
            raise ValueError("a manifest needs at least one quality")
        if list(self.qualities) != sorted(self.qualities, reverse=True):
            raise ValueError("qualities must be ordered best first")

    @property
    def duration(self) -> float:
        return self.window_count * self.window_duration

    @property
    def best_quality(self) -> Quality:
        return self.qualities[0]

    @property
    def worst_quality(self) -> Quality:
        return self.qualities[-1]

    def size_of(self, window: int, tile: tuple[int, int], quality: Quality) -> int:
        """Byte size of one segment; raises if it was never stored."""
        key = SegmentKey(window, tile, quality)
        if key not in self.segment_sizes:
            raise KeyError(
                f"no segment for window {window}, tile {tile}, quality {quality.label}"
            )
        return self.segment_sizes[key]

    def available(self, window: int, tile: tuple[int, int]) -> tuple[Quality, ...]:
        """Stored qualities for one (window, tile), best first.

        With full-matrix storage this is the whole ladder; popularity-
        planned stores (see :mod:`repro.core.popularity`) leave gaps.
        """
        if not hasattr(self, "_availability"):
            index: dict[tuple[int, tuple[int, int]], list[Quality]] = {}
            for key in self.segment_sizes:
                index.setdefault((key.window, key.tile), []).append(key.quality)
            self._availability = {
                position: tuple(sorted(qualities, reverse=True))
                for position, qualities in index.items()
            }
        stored = self._availability.get((window, tile), ())
        if not stored:
            raise KeyError(f"window {window}, tile {tile} has no stored segments")
        return stored

    def resolve(self, window: int, tile: tuple[int, int], quality: Quality) -> Quality:
        """The stored quality a request for ``quality`` is served at.

        Exact match when stored; otherwise the best stored rung *below*
        the request (never silently upgrade a budgeted request); if the
        request is below everything stored, the worst stored rung.
        """
        stored = self.available(window, tile)
        if quality in stored:
            return quality
        at_or_below = [candidate for candidate in stored if candidate < quality]
        if at_or_below:
            return at_or_below[0]  # best of the worse ones (list is best-first)
        return stored[-1]

    def window_size(self, window: int, quality_map: dict[tuple[int, int], Quality]) -> int:
        """Total bytes to deliver one window under a quality assignment.

        Requests resolve to stored rungs, so partial stores budget with
        the sizes they will actually ship.
        """
        return sum(
            self.size_of(window, tile, self.resolve(window, tile, quality))
            for tile, quality in quality_map.items()
        )

    def full_sphere_size(self, window: int, quality: Quality) -> int:
        """Bytes for every tile of a window at a single (resolved) quality."""
        return self.window_size(window, {tile: quality for tile in self.grid.tiles()})

    def window_interval(self, window: int) -> tuple[float, float]:
        """Playback interval ``[start, end)`` of a window."""
        if not 0 <= window < self.window_count:
            raise IndexError(f"window {window} outside [0, {self.window_count})")
        start = window * self.window_duration
        return (start, start + self.window_duration)

    # -- wire (de)serialisation -----------------------------------------------

    def to_json(self) -> dict:
        """A JSON-able dict; the payload of the server's manifest endpoint.

        Segment sizes are keyed by :meth:`SegmentKey.to_path`, so the keys
        in the wire manifest are exactly the URL tails a client requests.
        """
        payload = {
            "video": self.video,
            "width": self.width,
            "height": self.height,
            "fps": self.fps,
            "window_duration": self.window_duration,
            "window_count": self.window_count,
            "grid": [self.grid.rows, self.grid.cols],
            "qualities": [quality.label for quality in self.qualities],
            "segments": {
                key.to_path(): size
                for key, size in sorted(
                    self.segment_sizes.items(),
                    key=lambda item: (item[0].window, item[0].tile, item[0].quality.rank),
                )
            },
        }
        if self.shard_map is not None:
            payload["shard_map"] = self.shard_map.to_json()
        return payload

    @classmethod
    def from_json(cls, data: dict) -> "Manifest":
        """Rebuild a manifest from :meth:`to_json` output (exact inverse)."""
        rows, cols = data["grid"]
        shard_map = None
        if data.get("shard_map") is not None:
            from repro.serve.placement import ShardMap

            shard_map = ShardMap.from_json(data["shard_map"])
        return cls(
            video=data["video"],
            width=int(data["width"]),
            height=int(data["height"]),
            fps=float(data["fps"]),
            window_duration=float(data["window_duration"]),
            window_count=int(data["window_count"]),
            grid=TileGrid(int(rows), int(cols)),
            qualities=tuple(
                Quality.from_label(label) for label in data["qualities"]
            ),
            segment_sizes={
                SegmentKey.from_path(path): int(size)
                for path, size in data["segments"].items()
            },
            shard_map=shard_map,
        )
