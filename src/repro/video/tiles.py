"""Motion-constrained tiles: independently decodable frame subregions.

Each GOP of a 360-degree video is split along the angular tile grid and
every tile is encoded as its own closed GOP. Because the codec's
prediction never crosses tile boundaries (zero-motion residuals), a tile's
bytes decode without any other tile's — so a window is any subset of its
tiles, each at its own quality, and a store reads one by moving bytes
only (``StorageManager.read_window``), never running the entropy decoder.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import warnings
from collections.abc import Callable, Iterator
from concurrent.futures import Executor, Future, ProcessPoolExecutor
from dataclasses import dataclass, field
from multiprocessing import forkserver
from multiprocessing.util import Finalize
from pathlib import Path

import numpy as np

from repro.geometry.grid import TileGrid
from repro.video.frame import Frame
from repro.video.gop import coded_planes, decode_gop, encode_gops
from repro.video.quality import Quality


@dataclass
class TiledGop:
    """One GOP's worth of video, tiled: a byte payload per present tile.

    ``payloads`` maps ``(row, col)`` to that tile's encoded GOP bytes.
    Tiles may be encoded at *different* qualities (each payload carries its
    own quality in its GOP header) — that heterogeneity is exactly what the
    predictive streamer produces. Absent tiles decode as flat grey.
    """

    width: int
    height: int
    grid: TileGrid
    frame_count: int
    payloads: dict[tuple[int, int], bytes] = field(default_factory=dict)

    @property
    def tile_width(self) -> int:
        return self.width // self.grid.cols

    @property
    def tile_height(self) -> int:
        return self.height // self.grid.rows

    def pixel_rect(self, row: int, col: int) -> tuple[int, int, int, int]:
        """Pixel bounds (x0, y0, x1, y1) of a tile within the full frame."""
        self.grid.index_of(row, col)
        return (
            col * self.tile_width,
            row * self.tile_height,
            (col + 1) * self.tile_width,
            (row + 1) * self.tile_height,
        )

    # -- decode path ---------------------------------------------------------

    def decode(self) -> list[Frame]:
        """Decode all present tiles and composite them into full frames.

        Absent tiles are rendered flat grey — visually obvious, which is
        deliberate: a delivery bug should look like a bug.
        """
        frames = [
            Frame.blank(self.width, self.height, luma=128)
            for _ in range(self.frame_count)
        ]
        for tile, payload in self.payloads.items():
            tile_frames = decode_gop(
                payload, self.tile_width, self.tile_height, self.frame_count
            )
            x0, y0, _, _ = self.pixel_rect(*tile)
            frames = [
                frame.paste(tile_frame, x0, y0)
                for frame, tile_frame in zip(frames, tile_frames)
            ]
        return frames

    def tile_quality(self, row: int, col: int) -> Quality:
        """The quality a present tile was encoded at (from its GOP header)."""
        from repro.video.gop import _parse_gop_header

        quality, *_ = _parse_gop_header(self.payloads[(row, col)])
        return quality


#: One (tile, rung) segment of a GOP: the unit the encoder steps through.
Stream = tuple[tuple[int, int], Quality]
#: A tile's raw planes, frames stacked: ``(y, u, v)`` as ``(frames, h, w)``.
Planes = tuple[np.ndarray, np.ndarray, np.ndarray]

#: Samples (luma + chroma, every frame of the GOP counted) one lock-step
#: step may hold: 6 streams of a 10-frame 32x32 GOP. A step holds its
#: whole GOP in block layout and its nonzero coefficients until the one
#: entropy pass, so its working set grows with samples x frames. Measured per
#: 256x128 10-frame GOP x 3 rungs in-process (DESIGN.md, "Process-parallel
#: segment encoding"): 6 streams a step 50-51 ms, 12 45-46 ms, 24 44 ms
#: and +1.4 MB of RSS, 96 48-49 ms and +13 MB; at 6 the ``ingest_live``
#: benchmark host peaks lowest. A measurement, not an option: it also
#: bounds the encoder's working set at any frame size and GOP length.
STEP_SAMPLES = 6 * 32 * 32 * 3 // 2 * 10
#: What the encoder may allocate beyond its output while it runs, per
#: step sample: the GOP's uint8 crops and blocks, its nonzero coefficients
#: and the entropy coder's symbol arrays grow with every frame, and one
#: frame's float64 signal, coefficients and reconstruction with the stream
#: count alone (measured on a 1024x512 GOP: ~16 bytes a sample at 1 frame,
#: ~13 at 2, ~9 at 10). ``tests/test_ingest_parallel.py`` holds the
#: tracemalloc peak under ``STEP_SAMPLES`` times this at 2 and 10 frames,
#: and shows it broken (~100 MB) once the budget is taken away.
STEP_PEAK_BYTES_PER_SAMPLE = 96


def _steps(streams: list[Stream], gop_samples: int) -> Iterator[list[Stream]]:
    """Cut streams into lock-step batches: one coded shape each (tiles are
    equal, so that is one ``downscale``), at most ``STEP_SAMPLES`` a step;
    ``gop_samples`` is one full-size stream's, every frame counted."""
    by_shape: dict[int, list[Stream]] = {}
    for stream in streams:
        by_shape.setdefault(stream[1].downscale, []).append(stream)
    for downscale, group in by_shape.items():
        size = max(1, STEP_SAMPLES * downscale**2 // gop_samples)
        for start in range(0, len(group), size):
            yield group[start : start + size]


def _encode_share(
    streams: list[Stream],
    tile_planes: Callable[[tuple[int, int]], Planes],
    tile_width: int,
    tile_height: int,
    frame_count: int,
) -> dict[Stream, bytes]:
    """Encode one share of a GOP's streams (in-process: all of them), batch
    by batch; ``tile_planes`` hands out a tile's raw planes when a batch
    needs them. Every stream is an independent closed GOP, so any batching
    yields identical bytes."""
    payloads: dict[Stream, bytes] = {}
    for batch in _steps(streams, tile_width * tile_height * 3 // 2 * frame_count):
        downscale = batch[0][1].downscale
        coded = {
            tile: coded_planes(*tile_planes(tile), downscale)
            for tile in dict.fromkeys(tile for tile, _ in batch)
        }
        gops = encode_gops(
            [quality for _, quality in batch],
            np.stack([coded[tile][0] for tile, _ in batch]),
            np.stack([coded[tile][1] for tile, _ in batch]),
            tile_width,
            tile_height,
        )
        payloads.update(zip(batch, gops))
    return payloads


def _shares(
    ladder_map: dict[tuple[int, int], tuple[Quality, ...]], count: int
) -> list[list[Stream]]:
    """The GOP's streams as at most ``count`` contiguous shares of whole
    tiles, as equal in stream count as whole tiles allow."""
    total = sum(len(ladder) for ladder in ladder_map.values())
    shares: list[list[Stream]] = [[] for _ in range(count)]
    seen = 0
    for tile, ladder in ladder_map.items():
        # A tile goes where the middle of its run of streams falls.
        middle = 2 * seen + len(ladder)
        shares[middle * count // (2 * total)].extend((tile, quality) for quality in ladder)
        seen += len(ladder)
    return [share for share in shares if share]


def _in_ladder_order(
    encoded: dict[Stream, bytes], ladder_map: dict[tuple[int, int], tuple[Quality, ...]]
) -> dict[Stream, bytes]:
    return {
        (tile, quality): encoded[(tile, quality)]
        for tile, ladder in ladder_map.items()
        for quality in ladder
    }


def _encode_share_job(
    job: tuple[list[Stream], dict[tuple[int, int], Planes], int, int, int],
) -> dict[Stream, bytes]:
    """One pool worker's share of a GOP: its streams and the raw planes of
    the tiles they cover, each tile exactly once.

    Module-level (and taking one picklable tuple) so a
    :class:`~concurrent.futures.ProcessPoolExecutor` can ship it.
    """
    streams, planes, tile_width, tile_height, frame_count = job
    return _encode_share(streams, planes.__getitem__, tile_width, tile_height, frame_count)


def available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a container limited to 2 of 64 cores reads 2), else the
    machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_ENCODE_CONTEXT: multiprocessing.context.BaseContext | None = None
_FORKSERVER_LAUNCH = threading.Lock()


def _context() -> multiprocessing.context.BaseContext:
    global _ENCODE_CONTEXT
    if _ENCODE_CONTEXT is None:
        try:
            context = multiprocessing.get_context("forkserver")
            context.set_forkserver_preload(["repro.video.tiles"])
        except ValueError:
            context = multiprocessing.get_context("spawn")
        _ENCODE_CONTEXT = context
    return _ENCODE_CONTEXT


def encode_context() -> multiprocessing.context.BaseContext:
    """The multiprocessing context every encode pool is built from.

    Explicitly ``forkserver`` (preloaded with this module, so numpy and
    the codec, its DCT kernel included, are imported once in the server
    and inherited by every forked worker) or ``spawn`` where forkserver
    is unavailable — never the platform default: bare ``fork`` after
    threads exist, with numpy loaded, is a latent deadlock, and the
    import cost should be paid once per process rather than once per
    pool.

    The preload only happens if the server can import this package, and
    until Python 3.13 it neither applies the ``sys.path`` it is sent nor
    reports the ``ImportError``: when ``repro`` was found through a
    run-time ``sys.path`` entry, every worker of every pool imported
    numpy and the codec cold (550-650 ms to a first result, measured
    while the codec imported ``scipy.fft``, instead of 14-20 ms). So the
    server is launched here, with the package root on ``PYTHONPATH`` for
    just that moment.
    """
    context = _context()
    if context.get_start_method() == "forkserver":
        root = str(Path(__file__).resolve().parents[2])
        with _FORKSERVER_LAUNCH:
            inherited = os.environ.get("PYTHONPATH")
            os.environ["PYTHONPATH"] = root + (os.pathsep + inherited if inherited else "")
            try:
                forkserver.ensure_running()
            finally:
                if inherited is None:
                    del os.environ["PYTHONPATH"]
                else:
                    os.environ["PYTHONPATH"] = inherited
    return context


def encode_start_method() -> str:
    """The start method encode pools use (bench/provenance reporting)."""
    return _context().get_start_method()


def make_encode_executor(
    workers: int, jobs: int, registry=None
) -> ProcessPoolExecutor | None:
    """A process pool for tile-encode fan-out, or None to run serially.

    Returns None when one worker (or one job) makes a pool pointless —
    the deliberate serial path. When the caller asked for parallelism but
    the platform refuses to spawn workers (restricted sandboxes), the
    fallback is *loud*: a ``RuntimeWarning`` plus an
    ``ingest.pool_fallback`` counter on ``registry``, so a user who asked
    for ``--workers 8`` learns they got 1.
    """
    if workers <= 1 or jobs <= 1:
        return None
    try:
        return ProcessPoolExecutor(
            max_workers=min(workers, jobs), mp_context=encode_context()
        )
    except (OSError, NotImplementedError, ValueError) as error:
        warnings.warn(
            f"requested {workers} encode workers but the platform refused to "
            f"start a process pool ({error!r}); ingest is running serially",
            RuntimeWarning,
            stacklevel=2,
        )
        if registry is not None:
            registry.counter(
                "ingest.pool_fallback",
                "encode pools that could not start and fell back to serial",
            ).inc()
        return None


#: The process's encode pools, one per size, each with the finalizer that
#: ends it (see :func:`encode_pool`).
_POOLS: dict[int, tuple[ProcessPoolExecutor, Finalize]] = {}
_POOLS_LOCK = threading.Lock()
#: When a pool is shut down at exit, relative to multiprocessing's other
#: exit finalizers (higher runs first). In a multiprocessing child,
#: ``multiprocessing.util._exit_function`` joins every non-daemon child
#: *before* threading's exit hooks run, and those hooks are where
#: ``ProcessPoolExecutor`` registers its own shutdown: without a finalizer
#: the child waits forever on workers that wait for work. It must also
#: run before the finalizer (priority 10) with which ``multiprocessing.Queue``
#: closes itself: at 10 the call queue's feeder thread was already gone
#: when the shutdown sentinels were queued, and the workers never exited.
_POOL_EXIT_PRIORITY = 100


def encode_pool(
    workers: int, jobs: int, registry=None
) -> ProcessPoolExecutor | None:
    """The process's encode pool of ``min(workers, jobs)`` workers, or None
    to run serially.

    Built on first use by :func:`make_encode_executor` (same serial cases,
    same loud fallback) and then shared by every ingest, append and
    reingest of the process, concurrent ones included, so a version pays
    no pool start. It is shut down when the process exits, before
    multiprocessing joins its children; a pool that breaks is handed to
    :func:`drop_encode_pool`, and the next call builds a fresh one.
    """
    size = min(workers, jobs)
    with _POOLS_LOCK:
        if size in _POOLS:
            return _POOLS[size][0]
        pool = make_encode_executor(workers, jobs, registry=registry)
        if pool is not None:
            _POOLS[size] = pool, Finalize(
                pool, pool.shutdown, exitpriority=_POOL_EXIT_PRIORITY
            )
        return pool


def drop_encode_pool(pool: Executor) -> None:
    """Shut a broken pool down without waiting, and forget it if it is still
    the process's pool of its size — an identity check, so a caller that
    saw the break late cannot drop the fresh pool that replaced it."""
    with _POOLS_LOCK:
        for size, (held, finalizer) in _POOLS.items():
            if held is pool:
                del _POOLS[size]
                finalizer.cancel()
                break
    pool.shutdown(wait=False)


class TiledVideoCodec:
    """Splits GOPs along a tile grid and encodes each tile independently."""

    def __init__(self, grid: TileGrid, width: int, height: int) -> None:
        if width % (grid.cols * 16) or height % (grid.rows * 16):
            raise ValueError(
                f"{width}x{height} does not divide into {grid.rows}x{grid.cols} "
                "tiles of 16px-aligned size"
            )
        self.grid = grid
        self.width = width
        self.height = height
        self.tile_width = width // grid.cols
        self.tile_height = height // grid.rows

    def encode_gop_ladders(
        self,
        frames: list[Frame],
        ladder_map: dict[tuple[int, int], tuple[Quality, ...]],
        *,
        workers: int = 1,
        executor: Executor | None = None,
        registry=None,
    ) -> dict[tuple[tuple[int, int], Quality], bytes]:
        """Encode one GOP at a per-tile quality *ladder*.

        The ingest-side primitive. Every (tile, rung) is one stream — a
        closed GOP of its own — and streams of equal coded shape are
        encoded in lock-step, ``STEP_SAMPLES`` at a time, so the
        transform is entered once per frame per step and the entropy
        coder once per step, instead of once per frame per segment.
        Partial ladders and reduced-resolution rungs are just more streams.

        With a pool — ``executor``, else the process's :func:`encode_pool`
        for ``workers`` — it is :meth:`submit_gop_ladders` then
        :meth:`collect_gop_ladders`. A pool that cannot start degrades
        (loudly, ``ingest.pool_fallback`` on ``registry``) to the
        in-process path; both are byte-identical.
        """
        if executor is None:
            executor = encode_pool(workers, len(ladder_map), registry=registry)
        if executor is not None:
            return self.collect_gop_ladders(
                self.submit_gop_ladders(frames, ladder_map, executor), ladder_map
            )
        self._check(frames, ladder_map)
        encoded = _encode_share(
            [(tile, quality) for tile, ladder in ladder_map.items() for quality in ladder],
            lambda tile: self._crop(frames, tile),
            self.tile_width,
            self.tile_height,
            len(frames),
        )
        return _in_ladder_order(encoded, ladder_map)

    def submit_gop_ladders(
        self,
        frames: list[Frame],
        ladder_map: dict[tuple[int, int], tuple[Quality, ...]],
        executor: Executor,
    ) -> list[Future]:
        """Hand one GOP's streams to ``executor`` and return at once, so the
        caller can crop and submit the next GOP while this one encodes.

        Each worker gets one contiguous share of whole tiles, cut for the
        executor's actual worker count, and its job carries those tiles'
        raw planes, so every tile crosses the process boundary exactly once
        per GOP.
        """
        self._check(frames, ladder_map)
        jobs = [
            (
                share,
                {
                    tile: self._crop(frames, tile)
                    for tile in dict.fromkeys(tile for tile, _ in share)
                },
                self.tile_width,
                self.tile_height,
                len(frames),
            )
            for share in _shares(ladder_map, getattr(executor, "_max_workers", 1))
        ]
        return [executor.submit(_encode_share_job, job) for job in jobs]

    @staticmethod
    def collect_gop_ladders(
        futures: list[Future],
        ladder_map: dict[tuple[int, int], tuple[Quality, ...]],
    ) -> dict[tuple[tuple[int, int], Quality], bytes]:
        """Wait for a :meth:`submit_gop_ladders` GOP: the same mapping
        :meth:`encode_gop_ladders` returns. A worker's exception is raised
        here as itself."""
        encoded: dict[Stream, bytes] = {}
        for future in futures:
            encoded.update(future.result())
        return _in_ladder_order(encoded, ladder_map)

    def _check(
        self,
        frames: list[Frame],
        ladder_map: dict[tuple[int, int], tuple[Quality, ...]],
    ) -> None:
        if not frames:
            raise ValueError("cannot encode an empty GOP")
        for index, frame in enumerate(frames):
            if (frame.width, frame.height) != (self.width, self.height):
                raise ValueError(
                    f"frame {index} is {frame.width}x{frame.height}, "
                    f"codec configured for {self.width}x{self.height}"
                )
        for tile, ladder in ladder_map.items():
            self.grid.index_of(*tile)
            if not ladder:
                raise ValueError(f"tile {tile} has an empty quality ladder")

    def _crop(self, frames: list[Frame], tile: tuple[int, int]) -> Planes:
        row, col = tile
        x0, y0 = col * self.tile_width, row * self.tile_height
        x1, y1 = x0 + self.tile_width, y0 + self.tile_height
        return (
            np.stack([frame.y[y0:y1, x0:x1] for frame in frames]),
            np.stack([frame.u[y0 // 2 : y1 // 2, x0 // 2 : x1 // 2] for frame in frames]),
            np.stack([frame.v[y0 // 2 : y1 // 2, x0 // 2 : x1 // 2] for frame in frames]),
        )
