"""Shared-memory GOP transport for parallel ingest.

The encode fan-out's cost problem is not compute, it is IPC: pickling a
GOP's raw frames into every worker job re-ships megabytes per tile. This
module moves the raw bytes out of band. The parent publishes one GOP's
planes into a single ``multiprocessing.shared_memory`` block; worker jobs
receive only a tiny :class:`GopBlock` descriptor and slice their own
tiles' sub-planes out of the mapping.

Lifecycle contract: blocks are created by :func:`publish_gop`, named
deterministically (``vcin-<pid>-<seq>``), and destroyed by the publisher
— :meth:`PublishedGop.destroy` is idempotent and callers run it in a
``finally`` so success, worker failure, and ``KeyboardInterrupt`` all
unlink. Workers only ever attach and close; they never unlink (and they
deregister their attachment from the ``resource_tracker`` so a pooled
worker's exit cannot reap a block behind the parent's back).
"""

from __future__ import annotations

import itertools
import os
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from repro.video.frame import Frame

#: Prefix of every block this module creates; the leak tests (and a
#: worried operator inspecting /dev/shm) key off it.
BLOCK_PREFIX = "vcin"

_SEQUENCE = itertools.count()
_AVAILABLE: bool | None = None


def _next_block_name() -> str:
    """Deterministic, collision-free block name: pid + process-local seq."""
    return f"{BLOCK_PREFIX}-{os.getpid()}-{next(_SEQUENCE)}"


def shared_memory_available() -> bool:
    """Whether this platform can create shared-memory blocks (cached probe).

    Restricted sandboxes (no /dev/shm, seccomp'd ``shm_open``) raise
    ``OSError`` at create time; callers fall back to the pickling
    transport.
    """
    global _AVAILABLE
    if _AVAILABLE is None:
        try:
            probe = shared_memory.SharedMemory(create=True, size=16)
        except (OSError, NotImplementedError):
            _AVAILABLE = False
        else:
            probe.close()
            probe.unlink()
            _AVAILABLE = True
    return _AVAILABLE


def _reset_probe_cache() -> None:
    """Forget the cached probe result (test hook)."""
    global _AVAILABLE
    _AVAILABLE = None


@dataclass(frozen=True)
class GopBlock:
    """Picklable descriptor of one published GOP: name + plane geometry.

    The block packs three contiguous uint8 arrays back to back:
    luma ``(frames, height, width)``, then the two quarter-resolution
    chroma planes ``(frames, height // 2, width // 2)`` each. Everything
    a worker needs to rebuild the views is derivable from these fields.
    """

    name: str
    width: int
    height: int
    frame_count: int

    @property
    def luma_bytes(self) -> int:
        return self.frame_count * self.height * self.width

    @property
    def chroma_bytes(self) -> int:
        return self.frame_count * (self.height // 2) * (self.width // 2)

    @property
    def total_bytes(self) -> int:
        return self.luma_bytes + 2 * self.chroma_bytes


def _plane_views(
    block: GopBlock, buf
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three plane arrays over a block's buffer (no copies)."""
    luma_shape = (block.frame_count, block.height, block.width)
    chroma_shape = (block.frame_count, block.height // 2, block.width // 2)
    y = np.ndarray(luma_shape, dtype=np.uint8, buffer=buf, offset=0)
    u = np.ndarray(chroma_shape, dtype=np.uint8, buffer=buf, offset=block.luma_bytes)
    v = np.ndarray(
        chroma_shape,
        dtype=np.uint8,
        buffer=buf,
        offset=block.luma_bytes + block.chroma_bytes,
    )
    return y, u, v


class PublishedGop:
    """Publisher-side handle on one GOP's shared block."""

    def __init__(self, descriptor: GopBlock, shm: shared_memory.SharedMemory) -> None:
        self.descriptor = descriptor
        self._shm: shared_memory.SharedMemory | None = shm

    def destroy(self) -> None:
        """Close and unlink the block. Idempotent; never raises for a
        block that is already gone."""
        shm = self._shm
        if shm is None:
            return
        self._shm = None
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


def _fill_block(block: GopBlock, buf, frames: list[Frame]) -> None:
    # In a helper so the numpy views die before the caller ever closes
    # the mapping (SharedMemory.close raises BufferError while views
    # of its buffer are alive).
    y, u, v = _plane_views(block, buf)
    for index, frame in enumerate(frames):
        y[index] = frame.y
        u[index] = frame.u
        v[index] = frame.v


def publish_gop(frames: list[Frame]) -> PublishedGop:
    """Copy a GOP's planes into a fresh shared block.

    Raises ``OSError`` where shared memory is unavailable; callers fall
    back to the pickling transport. A stale same-named block (a previous
    process's pid recycled) is skipped, not reused.
    """
    if not frames:
        raise ValueError("cannot publish an empty GOP")
    first = frames[0]
    block = GopBlock(
        name=_next_block_name(),
        width=first.width,
        height=first.height,
        frame_count=len(frames),
    )
    shm = None
    while shm is None:
        try:
            shm = shared_memory.SharedMemory(
                create=True, size=block.total_bytes, name=block.name
            )
        except FileExistsError:
            block = GopBlock(
                name=_next_block_name(),
                width=block.width,
                height=block.height,
                frame_count=block.frame_count,
            )
    try:
        _fill_block(block, shm.buf, frames)
    except BaseException:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
        raise
    return PublishedGop(block, shm)


def _attach(name: str) -> shared_memory.SharedMemory:
    # Until 3.13's track=False, attaching registers the block with the
    # resource tracker, which pooled workers share with the publisher
    # under forkserver — a later unregister (ours at detach, or the
    # publisher's at unlink) would then hit the tracker's per-name set
    # twice. Only the creator may track; suppress registration for the
    # duration of the attach.
    register = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = register


def _copy_tile(
    block: GopBlock, buf, rect: tuple[int, int, int, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Copy one tile's sub-planes out of the mapping.

    Explicit ``.copy()`` (never ``ascontiguousarray``): a full-width tile
    slices contiguously and ``ascontiguousarray`` would hand back a view
    into a mapping the caller is about to close.
    """
    x0, y0, x1, y1 = rect
    y, u, v = _plane_views(block, buf)
    return (
        y[:, y0:y1, x0:x1].copy(),
        u[:, y0 // 2 : y1 // 2, x0 // 2 : x1 // 2].copy(),
        v[:, y0 // 2 : y1 // 2, x0 // 2 : x1 // 2].copy(),
    )


@contextmanager
def attached_gop(
    block: GopBlock,
) -> Iterator[Callable[[tuple[int, int, int, int]], tuple[np.ndarray, np.ndarray, np.ndarray]]]:
    """Worker side: attach to a published GOP for the length of the block.

    Yields ``rect -> (y, u, v)``, each call copying one tile's sub-planes
    (frames stacked on the first axis) out of the mapping — equal to
    stacking ``frame.crop(*rect)`` over the GOP on the publisher side,
    the equality the byte-identity guarantee rides on. The copies outlive
    the attachment; the attachment is closed on exit, never unlinked.
    """
    shm = _attach(block.name)
    try:
        yield partial(_copy_tile, block, shm.buf)
    finally:
        shm.close()
