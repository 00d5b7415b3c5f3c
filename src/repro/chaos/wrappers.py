"""Fault-injecting views over storage and the segment cache.

Both wrappers are pure delegators with one interception point, so any
code written against :class:`~repro.core.storage.StorageManager` or
:class:`~repro.core.cache.LruSegmentCache` runs unmodified under chaos —
the streamers and the scenario runner take the wrapped object where they
took the real one.
"""

from __future__ import annotations

from repro.chaos.faults import FaultDecision, FaultPlan
from repro.core.errors import (
    SegmentCorruptError,
    SegmentNotFoundError,
    SegmentReadTimeout,
    TransientSegmentError,
    VisualCloudError,
)
from repro.stream.dash import SegmentKey
from repro.video.quality import Quality
from repro.video.tiles import TiledGop


class ChaosStorageManager:
    """A storage manager whose ``read_segment`` obeys a fault plan.

    Every read consults the plan *before* touching the real store; a
    fired fault surfaces as the matching error from the storage error
    contract (``missing`` → :class:`SegmentNotFoundError`, ``corrupt`` →
    :class:`SegmentCorruptError`, ``slow`` → :class:`SegmentReadTimeout`,
    ``flaky`` → :class:`TransientSegmentError`). ``read_window`` is
    reimplemented through the faulty ``read_segment``, and
    ``read_segments`` consults the plan per key, so neither window
    assembly nor a pin loop's bulk read can bypass injection. Everything
    else (ingest, metadata, manifests, vacuum, metrics) delegates to the
    wrapped manager.

    Read time is simulated, so nothing sleeps: the read budget is zero,
    and a slow fault is always a timeout.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def _fault(self, name: str, meta, key: SegmentKey) -> VisualCloudError | None:
        """The error the plan injects into a read of ``key``, if any."""
        gop = key.window
        media_time = meta.gop_start_time(gop) if 0 <= gop < meta.gop_count else None
        decision = self.plan.decide_key(
            name, key, media_time=media_time, target="storage"
        )
        if decision is None:
            return None
        context = f"{name!r} segment {key.to_path()}"
        if decision.kind == "missing":
            return SegmentNotFoundError(f"injected fault: segment missing ({context})")
        if decision.kind == "corrupt":
            return SegmentCorruptError(
                f"injected fault: segment failed validation ({context})"
            )
        if decision.kind == "slow":
            return SegmentReadTimeout(
                f"injected fault: read exceeded 0.000s budget by {decision.delay:.3f}s ({context})"
            )
        if decision.kind == "flaky":
            return TransientSegmentError(f"injected fault: transient I/O error ({context})")
        raise AssertionError(f"storage wrapper cannot inject {decision.kind!r}")

    def read_segment(
        self,
        name: str,
        gop: int,
        tile: tuple[int, int],
        quality: Quality,
        version: int | None = None,
    ) -> bytes:
        meta = self.inner.meta(name, version)
        fault = self._fault(name, meta, SegmentKey(gop, tile, quality))
        if fault is not None:
            raise fault
        return self.inner.read_segment(name, gop, tile, quality, meta.version)

    def read_segments(
        self, name: str, keys, version: int | None = None
    ) -> list[bytes | VisualCloudError]:
        """The wrapped bulk read with the plan consulted per key, in
        ``keys``' order: a faulted key gets its injected error, the rest
        are read from the real store in one call."""
        keys = list(keys)
        meta = self.inner.meta(name, version)
        faults = [self._fault(name, meta, key) for key in keys]
        clean = [key for key, fault in zip(keys, faults) if fault is None]
        read = iter(self.inner.read_segments(name, clean, meta.version))
        return [next(read) if fault is None else fault for fault in faults]

    def read_window(
        self,
        name: str,
        gop: int,
        quality_map: dict[tuple[int, int], Quality],
        version: int | None = None,
    ) -> TiledGop:
        meta = self.inner.meta(name, version)
        payloads = {
            tile: self.read_segment(name, gop, tile, quality, meta.version)
            for tile, quality in quality_map.items()
        }
        return TiledGop(
            width=meta.width,
            height=meta.height,
            grid=meta.grid,
            frame_count=meta.gop_frame_counts[gop],
            payloads=payloads,
        )

    def decode_window(
        self, name: str, gop: int, quality: Quality, version: int | None = None
    ):
        meta = self.inner.meta(name, version)
        quality_map = {tile: quality for tile in meta.grid.tiles()}
        return self.read_window(name, gop, quality_map, meta.version).decode()


class ChaosSegmentCache:
    """A segment cache whose lookups obey a fault plan.

    The only cache-level fault is ``evict``: the key is invalidated the
    instant before the lookup, forcing a miss (and, under concurrency,
    exercising the invalidation fence against whatever load is already
    in flight). Keys that do not look like storage segment keys —
    ``(name, gop, tile, quality, version)`` tuples — bypass the plan.
    """

    def __init__(self, inner, plan: FaultPlan) -> None:
        self.inner = inner
        self.plan = plan

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __len__(self) -> int:
        return len(self.inner)

    def _decide(self, key) -> FaultDecision | None:
        if not (isinstance(key, tuple) and len(key) >= 4):
            return None
        name, gop, tile, quality = key[0], key[1], key[2], key[3]
        label = quality.label if isinstance(quality, Quality) else str(quality)
        return self.plan.decide(name, gop, tile, label, target="cache")

    def get_or_load(self, key, loader, remote=False):
        decision = self._decide(key)
        if decision is not None and decision.kind == "evict":
            self.inner.invalidate(key)
        return self.inner.get_or_load(key, loader, remote)

    def get(self, key):
        decision = self._decide(key)
        if decision is not None and decision.kind == "evict":
            self.inner.invalidate(key)
        return self.inner.get(key)
