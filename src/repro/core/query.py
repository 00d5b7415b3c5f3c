"""The declarative query layer and its rule-based planner.

Applications compose queries over stored videos without saying *how* they
execute::

    result = (
        Scan("venice")
        .select(time=(0.0, 3.0))
        .map(udfs.grayscale)
        .store("venice_gray")
    )
    executor = QueryExecutor(storage)
    meta = executor.execute(result)

The executor walks the expression tree bottom-up and picks a physical
operator for each logical one. The load-bearing optimisation — the one
the evaluation quantifies — is *homomorphic substitution*: when a
selection aligns with GOP (window) boundaries or tile-grid lines, or a
union's operands are tile-disjoint, the executor moves encoded bytes
instead of running the decode/re-encode cycle. Execution statistics
record which path each operator took.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.core.errors import QueryError
from repro.core.storage import StorageManager
from repro.geometry.angles import TWO_PI
from repro.geometry.grid import TileGrid
from repro.video.frame import Frame
from repro.video.quality import Quality
from repro.video.tiles import TiledGop, TiledVideoCodec

_EPS = 1e-9


# -- logical expressions --------------------------------------------------------


@dataclass(frozen=True)
class Expr:
    """Base class for logical query expressions (immutable, composable)."""

    def select(
        self,
        time: tuple[float, float] | None = None,
        theta: tuple[float, float] | None = None,
        phi: tuple[float, float] | None = None,
    ) -> "Expr":
        """Restrict the video to a spatiotemporal hyperrectangle."""
        if time is None and theta is None and phi is None:
            raise QueryError("select() needs at least one of time, theta, phi")
        return Select(self, time=time, theta=theta, phi=phi)

    def map(self, fn: Callable[[Frame], Frame]) -> "Expr":
        """Apply a frame transformation to every frame."""
        return Map(self, fn=fn)

    def union(self, other: "Expr") -> "Expr":
        """Merge with another video; overlapping tiles prefer ``other``
        (the LAST merge semantics used for overlays)."""
        return Union(self, other)

    def encode(self, quality: Quality) -> "Expr":
        """Request (re-)encoding at a target quality."""
        return Encode(self, quality=quality)

    def store(self, name: str) -> "Expr":
        """Persist the result in the catalog under ``name``."""
        return Store(self, name=name)


@dataclass(frozen=True)
class Scan(Expr):
    """Read a stored video (at one quality rung; best by default)."""

    name: str
    quality: Quality | None = None
    version: int | None = None


@dataclass(frozen=True)
class Select(Expr):
    source: Expr
    time: tuple[float, float] | None = None
    theta: tuple[float, float] | None = None
    phi: tuple[float, float] | None = None


@dataclass(frozen=True)
class Map(Expr):
    source: Expr
    fn: Callable[[Frame], Frame]


@dataclass(frozen=True)
class Union(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Encode(Expr):
    source: Expr
    quality: Quality


@dataclass(frozen=True)
class Store(Expr):
    source: Expr
    name: str


# -- physical values --------------------------------------------------------------


@dataclass
class EncodedVideo:
    """Encoded-domain intermediate: a list of tiled windows."""

    windows: list[TiledGop]
    fps: float

    @property
    def grid(self) -> TileGrid:
        return self.windows[0].grid


@dataclass
class RawVideo:
    """Decoded-domain intermediate: frames per window."""

    windows: list[list[Frame]]
    fps: float
    grid: TileGrid  # layout to use when re-encoding


@dataclass
class ExecutionStats:
    """What the planner actually did — the evaluation's instrument."""

    homomorphic_ops: int = 0
    decode_ops: int = 0
    encode_ops: int = 0
    segments_read: int = 0
    frames_processed: int = 0
    operator_paths: list[str] = field(default_factory=list)

    def note(self, operator: str, path: str) -> None:
        self.operator_paths.append(f"{operator}:{path}")


@dataclass
class QueryResult:
    """The executor's output: a value plus how it was computed."""

    value: EncodedVideo | RawVideo | object  # Store returns a VideoMeta
    stats: ExecutionStats


# -- the executor -------------------------------------------------------------------


class QueryExecutor:
    """Evaluates logical expressions against a storage manager."""

    def __init__(self, storage: StorageManager) -> None:
        self.storage = storage

    def execute(self, expr: Expr) -> QueryResult:
        stats = ExecutionStats()
        value = self._eval(expr, stats)
        return QueryResult(value=value, stats=stats)

    # each _eval_* returns EncodedVideo | RawVideo (Store returns VideoMeta)

    def _eval(self, expr: Expr, stats: ExecutionStats):
        if isinstance(expr, Scan):
            return self._eval_scan(expr, stats)
        if isinstance(expr, Select):
            return self._eval_select(expr, stats)
        if isinstance(expr, Map):
            return self._eval_map(expr, stats)
        if isinstance(expr, Union):
            return self._eval_union(expr, stats)
        if isinstance(expr, Encode):
            return self._eval_encode(expr, stats)
        if isinstance(expr, Store):
            return self._eval_store(expr, stats)
        raise QueryError(f"unknown expression type {type(expr).__name__}")

    def _eval_scan(self, expr: Scan, stats: ExecutionStats) -> EncodedVideo:
        meta = self.storage.meta(expr.name, expr.version)
        quality = expr.quality or meta.qualities[0]
        windows = []
        for gop in range(meta.gop_count):
            quality_map = {tile: quality for tile in meta.grid.tiles()}
            windows.append(self.storage.read_window(expr.name, gop, quality_map, expr.version))
            stats.segments_read += meta.grid.tile_count
        stats.note("scan", "indexed")
        return EncodedVideo(windows=windows, fps=meta.fps)

    # -- SELECT ---------------------------------------------------------------

    def _eval_select(self, expr: Select, stats: ExecutionStats):
        value = self._eval(expr.source, stats)
        if expr.time is not None:
            value = self._select_time(value, expr.time, stats)
        if expr.theta is not None or expr.phi is not None:
            value = self._select_angular(value, expr.theta, expr.phi, stats)
        return value

    def _select_time(self, value, time: tuple[float, float], stats: ExecutionStats):
        t0, t1 = time
        if t1 <= t0:
            raise QueryError(f"empty temporal selection [{t0}, {t1})")
        if isinstance(value, EncodedVideo):
            duration = value.windows[0].frame_count / value.fps
            aligned = (
                abs(t0 / duration - round(t0 / duration)) < _EPS
                and abs(t1 / duration - round(t1 / duration)) < _EPS
            )
            if aligned:
                first = int(round(t0 / duration))
                last = int(round(t1 / duration))
                selected = value.windows[first:last]
                if not selected:
                    raise QueryError(f"temporal selection [{t0}, {t1}) is outside the video")
                stats.homomorphic_ops += 1
                stats.note("select.time", "homomorphic-gop")
                return EncodedVideo(windows=selected, fps=value.fps)
            value = self._decode(value, stats)
        # Frame-accurate selection on raw frames.
        flat = [frame for window in value.windows for frame in window]
        first_frame = max(0, int(math.floor(t0 * value.fps + _EPS)))
        last_frame = min(len(flat), int(math.ceil(t1 * value.fps - _EPS)))
        if first_frame >= last_frame:
            raise QueryError(f"temporal selection [{t0}, {t1}) contains no frames")
        window_size = len(value.windows[0])
        selected_frames = flat[first_frame:last_frame]
        windows = [
            selected_frames[i : i + window_size]
            for i in range(0, len(selected_frames), window_size)
        ]
        stats.note("select.time", "decode")
        return RawVideo(windows=windows, fps=value.fps, grid=value.grid)

    def _select_angular(
        self,
        value,
        theta: tuple[float, float] | None,
        phi: tuple[float, float] | None,
        stats: ExecutionStats,
    ):
        for bounds, extent, label in ((theta, TWO_PI, "theta"), (phi, math.pi, "phi")):
            if bounds is None:
                continue
            lo, hi = bounds
            if hi <= lo:
                raise QueryError(f"empty {label} selection [{lo}, {hi})")
            if lo < 0 or hi > extent + _EPS:
                raise QueryError(
                    f"{label} selection [{lo}, {hi}) outside [0, {extent:.6f}]"
                )
        if isinstance(value, EncodedVideo):
            grid = value.grid
            tiles = _aligned_tile_set(grid, theta, phi)
            if tiles is not None:
                present = set(value.windows[0].payloads)
                if not tiles <= present:
                    raise QueryError(
                        f"angular selection needs tiles {sorted(tiles - present)} "
                        "that are not present"
                    )
                windows = [window.select(tiles) for window in value.windows]
                stats.homomorphic_ops += len(windows)
                stats.note("select.angular", "homomorphic-tile")
                return EncodedVideo(windows=windows, fps=value.fps)
            value = self._decode(value, stats)
        # Pixel-accurate crop on raw frames, rounded outward to 16px blocks.
        height, width = value.windows[0][0].height, value.windows[0][0].width
        x0, x1 = _angular_to_pixels(theta, width, TWO_PI)
        y0, y1 = _angular_to_pixels(phi, height, math.pi)
        cropped = [
            [frame.crop(x0, y0, x1, y1) for frame in window] for window in value.windows
        ]
        stats.note("select.angular", "decode")
        return RawVideo(windows=cropped, fps=value.fps, grid=TileGrid(1, 1))

    # -- MAP --------------------------------------------------------------------

    def _eval_map(self, expr: Map, stats: ExecutionStats) -> RawVideo:
        value = self._eval(expr.source, stats)
        raw = value if isinstance(value, RawVideo) else self._decode(value, stats)
        windows = [[expr.fn(frame) for frame in window] for window in raw.windows]
        stats.frames_processed += sum(len(window) for window in windows)
        stats.note("map", "decode")
        return RawVideo(windows=windows, fps=raw.fps, grid=raw.grid)

    # -- UNION ------------------------------------------------------------------

    def _eval_union(self, expr: Union, stats: ExecutionStats):
        left = self._eval(expr.left, stats)
        right = self._eval(expr.right, stats)
        if isinstance(left, EncodedVideo) and isinstance(right, EncodedVideo):
            # LAST merge at tile granularity: the right operand's tiles win
            # where both sides define a tile — a pure byte substitution.
            compatible = len(left.windows) == len(right.windows) and abs(
                left.fps - right.fps
            ) < _EPS
            if compatible:
                try:
                    windows = [a.replace(b) for a, b in zip(left.windows, right.windows)]
                except ValueError:
                    windows = None  # mismatched layouts: fall through to decode
                if windows is not None:
                    stats.homomorphic_ops += len(windows)
                    stats.note("union", "homomorphic-tile")
                    return EncodedVideo(windows=windows, fps=left.fps)
        raw_left = left if isinstance(left, RawVideo) else self._decode(left, stats)
        raw_right = right if isinstance(right, RawVideo) else self._decode(right, stats)
        if len(raw_left.windows) != len(raw_right.windows):
            raise QueryError(
                f"union operands have {len(raw_left.windows)} vs "
                f"{len(raw_right.windows)} windows"
            )
        windows = []
        for window_a, window_b in zip(raw_left.windows, raw_right.windows):
            if len(window_a) != len(window_b):
                raise QueryError("union operands have mismatched frame counts")
            # LAST merge: the right operand wins wherever both are defined;
            # since raw frames are dense, that means the right frame wins.
            windows.append(list(window_b))
        stats.note("union", "decode")
        return RawVideo(windows=windows, fps=raw_left.fps, grid=raw_left.grid)

    # -- ENCODE / STORE ------------------------------------------------------------

    def _eval_encode(self, expr: Encode, stats: ExecutionStats) -> EncodedVideo:
        value = self._eval(expr.source, stats)
        if isinstance(value, EncodedVideo):
            qualities = {
                window.tile_quality(*tile)
                for window in value.windows
                for tile in window.payloads
            }
            if qualities == {expr.quality}:
                stats.note("encode", "noop")  # already at the target quality
                return value
            value = self._decode(value, stats)
        return self._encode(value, expr.quality, stats)

    def _eval_store(self, expr: Store, stats: ExecutionStats):
        value = self._eval(expr.source, stats)
        if isinstance(value, RawVideo):
            value = self._encode(value, Quality.HIGH, stats)
        meta = self.storage.store_windows(expr.name, value.windows, value.fps)
        stats.note("store", "catalog")
        return meta

    # -- domain conversion helpers ---------------------------------------------------

    def _decode(self, value: EncodedVideo, stats: ExecutionStats) -> RawVideo:
        windows = [window.decode() for window in value.windows]
        stats.decode_ops += len(windows)
        stats.frames_processed += sum(len(window) for window in windows)
        stats.note("convert", "decode")
        return RawVideo(windows=windows, fps=value.fps, grid=value.grid)

    def _encode(self, value: RawVideo, quality: Quality, stats: ExecutionStats) -> EncodedVideo:
        if not value.windows or not value.windows[0]:
            raise QueryError("cannot encode an empty video")
        sample = value.windows[0][0]
        grid = value.grid
        if sample.width % (grid.cols * 16) or sample.height % (grid.rows * 16):
            grid = TileGrid(1, 1)  # fall back when the crop broke tile alignment
        codec = TiledVideoCodec(grid, sample.width, sample.height)
        windows = [codec.encode_gop(window, quality) for window in value.windows]
        stats.encode_ops += len(windows)
        stats.note("convert", "encode")
        return EncodedVideo(windows=windows, fps=value.fps)


# -- alignment helpers -------------------------------------------------------------


def _aligned_tile_set(
    grid: TileGrid,
    theta: tuple[float, float] | None,
    phi: tuple[float, float] | None,
) -> set[tuple[int, int]] | None:
    """The tile set exactly covering an angular selection, or ``None`` if
    the bounds do not lie on grid lines (within a small tolerance)."""

    def span(bounds: tuple[float, float] | None, step: float, count: int) -> range | None:
        if bounds is None:
            return range(count)
        lo, hi = bounds
        if hi <= lo:
            raise QueryError(f"empty angular selection [{lo}, {hi})")
        lo_index = lo / step
        hi_index = hi / step
        if abs(lo_index - round(lo_index)) > 1e-6 or abs(hi_index - round(hi_index)) > 1e-6:
            return None
        start, stop = int(round(lo_index)), int(round(hi_index))
        if not (0 <= start < stop <= count):
            raise QueryError(f"angular selection [{lo}, {hi}) outside the sphere")
        return range(start, stop)

    cols = span(theta, grid.theta_step, grid.cols)
    rows = span(phi, grid.phi_step, grid.rows)
    if cols is None or rows is None:
        return None
    return {(row, col) for row in rows for col in cols}


def _angular_to_pixels(
    bounds: tuple[float, float] | None, extent_px: int, extent_rad: float
) -> tuple[int, int]:
    """Angular bounds to pixel bounds, rounded outward to 16px multiples."""
    if bounds is None:
        return (0, extent_px)
    lo, hi = bounds
    if hi <= lo:
        raise QueryError(f"empty angular selection [{lo}, {hi})")
    lo_px = int(math.floor(lo / extent_rad * extent_px / 16.0)) * 16
    hi_px = int(math.ceil(hi / extent_rad * extent_px / 16.0)) * 16
    lo_px = max(0, lo_px)
    hi_px = min(extent_px, max(hi_px, lo_px + 16))
    return (lo_px, hi_px)
