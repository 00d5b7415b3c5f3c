"""The VisualCloud storage manager.

Ingests 360-degree video, segments it spatiotemporally (GOP-length
temporal windows x an angular tile grid), encodes every segment at every
rung of a quality ladder, and persists the result under the catalog with
MP4-style metadata. Each GOP a version writes lands as one pack — an
``mdat`` of that GOP's segments — and reads are selective: any (window,
tile, quality) segment is one ``pread`` of its byte range, found through
the metadata's GOP index (``stss``) and offset leaf (``stco``).

Writes are no-overwrite and versioned: re-storing a video writes only the
changed GOPs plus a new metadata file whose index points at old packs
for unchanged content. Readers of an existing version are unaffected —
snapshot isolation by construction.

The read surface — ``build_manifest`` + ``read_segment`` — is the
:class:`~repro.core.backends.SegmentBackend` protocol (re-exported here
as :data:`SegmentBackend`): :class:`StorageManager` is its canonical
local-disk implementation, and :class:`repro.serve.peering.ShardedBackend`
satisfies the same contract over *(local store, shard map, peers)*, which
is what lets the sharded delivery tier serve segments a node does not own.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import signal
import struct
import threading
import warnings
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.backends import SegmentBackend
from repro.core.catalog import Catalog, pack_file_name
from repro.core.metadata import (
    SegmentEntry,
    VideoMeta,
    build_metadata_file,
    parse_metadata_file,
)
from repro.core.errors import (
    CatalogError,
    IngestError,
    SegmentCorruptError,
    SegmentNotFoundError,
    VisualCloudError,
)
from repro.geometry.grid import TileGrid
from repro.obs import MetricsRegistry
from repro.stream.dash import Manifest, SegmentKey
from repro.video.frame import Frame
from repro.video.mp4 import Atom
from repro.video.quality import Quality
from repro.video.tiles import (
    TiledGop,
    TiledVideoCodec,
    available_cpus,
    drop_encode_pool,
    encode_pool,
)


@dataclass(frozen=True)
class IngestConfig:
    """How a video is segmented and encoded at ingest time — exactly what
    a stored version records, so :meth:`StorageManager._config_of` can
    rebuild it."""

    grid: TileGrid = TileGrid(4, 4)
    qualities: tuple[Quality, ...] = (Quality.HIGH, Quality.LOW)
    gop_frames: int = 30
    fps: float = 30.0

    def __post_init__(self) -> None:
        if self.gop_frames < 1:
            raise ValueError(f"gop_frames must be >= 1, got {self.gop_frames}")
        if self.fps <= 0:
            raise ValueError(f"fps must be positive, got {self.fps}")
        if not self.qualities:
            raise ValueError("at least one quality is required")
        if list(self.qualities) != sorted(self.qualities, reverse=True):
            raise ValueError("qualities must be ordered best first")


# -- durability substrate ------------------------------------------------------

def segment_checksum(data: bytes) -> int:
    """Content checksum for stored bytes: the first 32 bits of SHA-256.

    Stored per segment in the metadata index, carried on the wire as the
    ``X-Checksum`` response header, and verified on local read, peer
    fetch, and scrub. A cryptographic prefix (rather than a plain CRC)
    keeps single-bit, swap, and truncation errors detectable with the
    stdlib only. A digest prefix of 0 is stored as 1 — a one-in-4-billion
    bias — so a zeroed index field never verifies any bytes.
    """
    value = int.from_bytes(hashlib.sha256(data).digest()[:4], "big")
    return value or 1


def checksum_hex(data: bytes) -> str:
    """Wire form of :func:`segment_checksum`: 8 lowercase hex digits."""
    return format(segment_checksum(data), "08x")


#: Crash-point hook for durability tests: when set to an integer N, the
#: N-th atomic publish in this process is replaced by SIGKILL — the
#: hardest possible failure at a seeded write point. N=1 dies before any
#: file lands; higher N leaves N-1 completed publishes behind.
_CRASH_ENV = "REPRO_CRASH_AFTER_WRITES"
_publish_attempts = 0


def _maybe_crash() -> None:
    target = os.environ.get(_CRASH_ENV)
    if not target:
        return
    global _publish_attempts
    _publish_attempts += 1
    if _publish_attempts >= int(target):
        os.kill(os.getpid(), signal.SIGKILL)


def _fsync_directory(directory: Path) -> None:
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return  # platform without directory fds (or O_RDONLY on dirs)
    try:
        os.fsync(fd)
    except OSError:
        pass  # some filesystems refuse directory fsync; rename is still atomic
    finally:
        os.close(fd)


def _publish_bytes(path: Path, payload: bytes) -> None:
    """Crash-consistent write: temp file, fsync, atomic rename, dir fsync.

    After this returns, ``path`` holds exactly ``payload``; if the
    process dies at any earlier point, ``path`` is untouched and at worst
    a ``*.tmp`` orphan remains for ``fsck`` to sweep. Readers never see a
    partial file.
    """
    _maybe_crash()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(payload)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    _fsync_directory(path.parent)


def _mismatch(entry: SegmentEntry, data: bytes) -> str | None:
    """The one integrity rule: which of ``entry``'s promises ``data``
    breaks — ``"size"``, ``"checksum"`` — or None when the bytes are the
    segment the index committed."""
    if len(data) != entry.size:
        return "size"
    if segment_checksum(data) != entry.checksum:
        return "checksum"
    return None


def _marker_payload(metadata_blob: bytes) -> bytes:
    """Commit-marker contents: the metadata file's own content checksum,
    so fsck can detect bit rot in the metadata file itself."""
    return (checksum_hex(metadata_blob) + "\n").encode("ascii")


def _range_label(gop: int, entry: SegmentEntry) -> str:
    """Where a segment's bytes live: ``<pack file>@<offset>``."""
    return f"{pack_file_name(gop, entry.file_version)}@{entry.offset}"


def _tag_repairable(error: SegmentNotFoundError) -> SegmentNotFoundError:
    """Mark a storage error as peer-repairable (see ``core/errors.py``):
    the index references the segment, only the local bytes failed."""
    error.repairable = True
    return error


def _entry_of(name: str, meta: VideoMeta, key: SegmentKey) -> SegmentEntry:
    """``key``'s entry in ``meta``'s index;
    :class:`SegmentNotFoundError` when that version has no such segment."""
    entry = meta.entries.get(key)
    if entry is None:
        gop, tile, quality = key
        raise SegmentNotFoundError(
            f"{name!r} v{meta.version} has no segment (gop={gop}, tile={tile}, "
            f"quality={quality.label})"
        )
    return entry


def _checked(name: str, gop: int, entry: SegmentEntry, data: bytes | OSError):
    """``data`` when it is the segment ``entry`` committed, else the error
    a read of it raises: :class:`SegmentNotFoundError` when the pack is
    gone or unreadable (``data`` is the ``OSError``, never leaked past the
    storage boundary — see ``core/errors.py``), :class:`SegmentCorruptError`
    when the bytes break :func:`_mismatch`. Both are tagged repairable: the
    index has an entry, so an intact copy may exist on a peer owner."""
    if isinstance(data, OSError):
        pack = pack_file_name(gop, entry.file_version)
        failure = SegmentNotFoundError(
            f"pack {pack} of {name!r} is missing from disk"
            if isinstance(data, FileNotFoundError)
            else f"pack {pack} of {name!r} could not be read: {data}"
        )
        failure.__cause__ = data
        return _tag_repairable(failure)
    broken = _mismatch(entry, data)
    if broken is None:
        return data
    where = _range_label(gop, entry)
    return _tag_repairable(
        SegmentCorruptError(
            f"segment {where} is {len(data)} bytes, index says {entry.size}"
            if broken == "size"
            else f"segment {where} of {name!r} fails its content "
            "checksum (bit rot or torn write)"
        )
    )


#: One GOP on its way to disk: its frame count and a ``(tile, quality,
#: payload)`` per segment, in pack order.
_EncodedGop = tuple[int, list[tuple[tuple[int, int], Quality, bytes]]]


def _chunk(frames: Iterable[Frame], size: int) -> Iterator[list[Frame]]:
    batch: list[Frame] = []
    for frame in frames:
        batch.append(frame)
        if len(batch) == size:
            yield batch
            batch = []
    if batch:
        yield batch


class StorageManager:
    """Segment store + metadata index over a :class:`Catalog` directory.

    ``cache_bytes`` sizes the in-memory segment buffer pool
    (:class:`repro.core.cache.LruSegmentCache`); pass 0 to disable caching
    (every read hits the filesystem — the configuration the cache
    benchmark compares against).

    ``registry`` is the metrics registry every read/ingest timing and the
    cache's accounting report into; by default the manager owns one
    (``self.metrics``), and :class:`~repro.core.server.VisualCloud`
    passes a database-wide registry so storage, delivery, and prediction
    metrics export together.

    Every uncached :meth:`read_segment` hashes the bytes it loaded and
    compares against the index entry's recorded checksum.
    """

    def __init__(
        self,
        root: Path | str,
        cache_bytes: int = 8 * 1024 * 1024,
        registry: MetricsRegistry | None = None,
    ) -> None:
        from repro.core.cache import LruSegmentCache

        self.catalog = Catalog(root)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._drop_listeners: list = []
        self._meta_cache: dict[tuple[str, int], VideoMeta] = {}
        self._repair_lock = threading.Lock()
        self.segment_cache = (
            LruSegmentCache(cache_bytes, registry=self.metrics)
            if cache_bytes > 0
            else None
        )
        # Hot-path series, bound once: read_segment runs per request on
        # the serve path, and a get-or-create plus label canonicalisation
        # per call is measurable at saturation.
        self._segments_read = self.metrics.counter(
            "storage.segments_read", "segment reads served"
        ).labels()
        self._bytes_read = self.metrics.counter(
            "storage.bytes_read", "segment bytes served"
        ).labels()
        self._windows_assembled = self.metrics.counter(
            "storage.windows_assembled", "delivery windows built"
        ).labels()

    # -- catalog passthroughs -------------------------------------------------

    def list_videos(self) -> list[str]:
        return self.catalog.list_videos()

    def drop(self, name: str) -> None:
        self.catalog.drop(name)
        self._forget_metas(name)
        if self.segment_cache is not None:
            self.segment_cache.invalidate_prefix(name)
        # Layers holding derived copies of this video's bytes (the serve
        # tier's pinned hot set) invalidate through these —
        # without them a dropped-then-recreated name could keep serving
        # the old video's RAM copies.
        for listener in list(self._drop_listeners):
            listener(name)

    def add_drop_listener(self, listener) -> None:
        """Register ``listener(name)`` to run after every :meth:`drop`.

        Callbacks run on the dropping thread and must not block; a serve
        tier schedules its hot-set invalidation onto its own event loop.
        """
        self._drop_listeners.append(listener)

    def remove_drop_listener(self, listener) -> None:
        if listener in self._drop_listeners:
            self._drop_listeners.remove(listener)

    # -- ingest ----------------------------------------------------------------

    def ingest(
        self,
        name: str,
        frames: Iterable[Frame],
        config: IngestConfig,
        streaming: bool = False,
        quality_plan: dict[tuple[int, int], tuple[Quality, ...]] | None = None,
        workers: int | None = None,
    ) -> VideoMeta:
        """Segment, encode, and commit version 1 of a new video.

        ``quality_plan`` optionally restricts which rungs are materialised
        per tile (popularity-driven partial storage); unplanned tiles get
        the config's full ladder. Every planned ladder must be a subset of
        the config's qualities.

        ``workers`` sizes the encode fan-out: every (tile, quality) segment
        of a GOP is an independent stream, and each of that many processes
        (the process's pool, shared by every version) is dealt one share
        of them, one GOP ahead of the writer. ``None``
        resolves to the CPUs this process may run on (its affinity mask,
        not the machine's count); ``workers=1`` encodes in-process. Output
        bytes are identical at any worker count.
        """
        if self.catalog.exists(name):
            raise CatalogError(f"video {name!r} already exists; use append or store")
        if quality_plan is not None:
            for tile, ladder in quality_plan.items():
                if not ladder:
                    raise IngestError(f"quality plan leaves tile {tile} with no rungs")
                if not set(ladder) <= set(config.qualities):
                    raise IngestError(
                        f"quality plan for tile {tile} includes rungs outside the "
                        "ingest ladder"
                    )
        gops = _chunk(frames, config.gop_frames)
        first = next(gops, None)
        if first is None:
            raise IngestError(f"cannot ingest {name!r}: the frame source is empty")
        return self._ingest_version(
            name,
            "ingest",
            config,
            itertools.chain([first], gops),
            (first[0].width, first[0].height),
            streaming,
            quality_plan=quality_plan,
            workers=workers,
        )

    def _ingest_version(
        self,
        name: str,
        phase: str,
        config: IngestConfig,
        gop_batches: Iterable[list[Frame]],
        size: tuple[int, int],
        streaming: bool,
        quality_plan: dict[tuple[int, int], tuple[Quality, ...]] | None = None,
        workers: int | None = None,
        base: VideoMeta | None = None,
    ) -> VideoMeta:
        """Encode raw GOP batches and write them as the next version of
        ``name`` (on top of ``base``'s GOPs when appending)."""
        if workers is None:
            workers = available_cpus()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        first_gop = base.gop_count if base is not None else 0
        # Per-tile ladders are fixed for the whole version: the full
        # config ladder, or the planned subset (validated non-empty by
        # ingest) under popularity-driven partial storage.
        ladder_map: dict[tuple[int, int], tuple[Quality, ...]] = {}
        for tile in config.grid.tiles():
            if quality_plan is None:
                ladder_map[tile] = config.qualities
            else:
                ladder_map[tile] = tuple(
                    quality
                    for quality in config.qualities
                    if quality in quality_plan.get(tile, config.qualities)
                )

        def pooled(call, *args):
            # ``call(*args)`` while the version has a pool; None without
            # one, or once it has broken. Workers that die mid-version (OOM
            # kill, sandbox policy) leave the version to finish serially —
            # same bytes, honest accounting — instead of failing ingest,
            # with no later GOP offered to (and broken on) a pool again;
            # the next version starts a fresh pool.
            nonlocal pool
            if pool is None:
                return None
            try:
                return call(*args)
            except BrokenProcessPool:
                warnings.warn(
                    "encode worker pool broke mid-ingest; finishing serially",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.metrics.counter(
                    "ingest.pool_fallback",
                    "encode pools that could not start and fell back to serial",
                ).inc()
                drop_encode_pool(pool)
                pool = None
                return None

        def encoded(
            gop_index: int, batch: list[Frame], futures: list[Future] | None
        ) -> _EncodedGop:
            # The parent's wait for this GOP's shares; in-process, the
            # encode itself.
            with self.metrics.span("storage.ingest.encode", video=name, gop=gop_index):
                payloads = None
                if futures is not None:
                    payloads = pooled(codec.collect_gop_ladders, futures, ladder_map)
                if payloads is None:
                    payloads = codec.encode_gop_ladders(batch, ladder_map)
            return len(batch), [
                (tile, quality, payloads[(tile, quality)])
                for quality in config.qualities
                for tile in config.grid.tiles()
                if (tile, quality) in payloads
            ]

        def encoded_gops() -> Iterator[_EncodedGop]:
            # With a pool, GOP k+1 is submitted before GOP k is collected,
            # so the workers never wait on the parent's crop, write and
            # commit; in-process, a GOP is encoded as it arrives.
            ahead = None
            for gop_index, batch in enumerate(gop_batches, start=first_gop):
                if gop_index == first_gop and (batch[0].width, batch[0].height) != size:
                    raise IngestError(
                        f"appended frames are {batch[0].width}x{batch[0].height}, "
                        f"video is {size[0]}x{size[1]}"
                    )
                futures = pooled(codec.submit_gop_ladders, batch, ladder_map, pool)
                if ahead is not None:
                    yield encoded(*ahead)
                ahead = gop_index, batch, futures
                if futures is None:
                    yield encoded(*ahead)
                    ahead = None
            if ahead is not None:
                yield encoded(*ahead)

        with self.metrics.span("storage.ingest", video=name, phase=phase):
            codec = TiledVideoCodec(config.grid, *size)
            # The process's pool, shared by every version; each GOP hands
            # every worker one share of its (tile, quality) streams.
            pool = encode_pool(workers, config.grid.tile_count, registry=self.metrics)
            return self._write_version(
                name,
                encoded_gops(),
                base,
                width=size[0],
                height=size[1],
                fps=config.fps,
                grid=config.grid,
                gop_frames=config.gop_frames,
                qualities=config.qualities,
                streaming=streaming,
            )

    def _write_version(
        self,
        name: str,
        gops: Iterable[_EncodedGop],
        base: VideoMeta | None = None,
        **layout,
    ) -> VideoMeta:
        """The one place a version reaches disk.

        Publishes each GOP's ``(tile, quality, payload)`` list as one pack
        (an ``mdat`` of the payloads in list order) of the next version of
        ``name`` (version 1 of a new name), records a checksummed index
        entry per payload locating it in its pack, and commits metadata +
        marker over ``base``'s GOPs and entries (append) or over nothing:
        GOPs + 2 publishes in all. ``layout`` is the rest of
        :class:`VideoMeta`. A name this call created is dropped again if
        anything fails, so a failed first write can simply be retried; a
        failed later version leaves only orphan packs for ``fsck``.
        """
        created = not self.catalog.exists(name)
        if created:
            self.catalog.create(name)
        try:
            version = 1 if created else self.catalog.latest_version(name) + 1
            entries = dict(base.entries) if base is not None else {}
            frame_counts = list(base.gop_frame_counts) if base is not None else []
            first_gop = len(frame_counts)
            segments_written = self.metrics.counter(
                "storage.segments_written", "segments written"
            )
            bytes_written = self.metrics.counter(
                "storage.bytes_written", "segment bytes written"
            )
            for gop_index, (frame_count, payloads) in enumerate(gops, start=first_gop):
                with self.metrics.span(
                    "storage.ingest.write", video=name, gop=gop_index
                ):
                    body = b"".join(payload for _, _, payload in payloads)
                    pack = Atom("mdat", payload=body).serialize()
                    offset = len(pack) - len(body)  # past the mdat header
                    for tile, quality, payload in payloads:
                        entries[SegmentKey(gop_index, tile, quality)] = SegmentEntry(
                            len(payload), version, segment_checksum(payload), offset
                        )
                        offset += len(payload)
                    _publish_bytes(self.catalog.pack_path(name, gop_index, version), pack)
                    segments_written.inc(len(payloads))
                    bytes_written.inc(len(body))
                frame_counts.append(frame_count)
            if len(frame_counts) == first_gop:
                raise IngestError(f"no frames to write for {name!r}")
            meta = VideoMeta(
                name=name,
                version=version,
                gop_frame_counts=frame_counts,
                entries=entries,
                **layout,
            )
            self._commit_meta(meta)
        except Exception:
            if created:
                self.catalog.drop(name)
            raise
        return meta

    @staticmethod
    def _config_of(meta: VideoMeta) -> IngestConfig:
        """The segmentation parameters a stored version was written with."""
        return IngestConfig(
            grid=meta.grid,
            qualities=meta.qualities,
            gop_frames=meta.gop_frames,
            fps=meta.fps,
        )

    def append(
        self, name: str, frames: Iterable[Frame], workers: int | None = None
    ) -> VideoMeta:
        """Extend a (live) video with more frames, as a new version.

        New GOPs are encoded with the video's original segmentation
        parameters; prior segments are shared, not rewritten. ``workers``
        parallelises the new GOPs' segment encodes as in :meth:`ingest`.
        """
        base = self.meta(name)
        if base.gop_frame_counts[-1] != base.gop_frames:
            raise IngestError(
                f"cannot append to {name!r}: its last GOP is partial "
                f"({base.gop_frame_counts[-1]} of {base.gop_frames} frames), and "
                "appended GOPs would break the temporal index alignment"
            )
        # Preserve a partial (popularity-planned) store's per-tile ladders:
        # new GOPs materialise exactly the rungs the existing ones have.
        observed: dict[tuple[int, int], set[Quality]] = {}
        for (gop, tile, quality) in base.entries:
            if gop == 0:
                observed.setdefault(tile, set()).add(quality)
        quality_plan = {
            tile: tuple(sorted(ladder, reverse=True)) for tile, ladder in observed.items()
        }
        return self._ingest_version(
            name,
            "append",
            self._config_of(base),
            _chunk(frames, base.gop_frames),
            (base.width, base.height),
            streaming=True,
            quality_plan=quality_plan,
            workers=workers,
            base=base,
        )

    def reingest(
        self,
        name: str,
        config: IngestConfig | None = None,
        workers: int | None = None,
    ) -> VideoMeta:
        """Re-encode a stored video's content as a new version.

        Decodes each window at the best quality stored per tile and
        re-runs the segmentation pipeline — the way to change a video's
        grid, ladder, or GOP length after the fact. Without ``config`` the
        original segmentation parameters are reused (a pure re-encode).
        Old versions keep serving until :meth:`vacuum` reclaims them.
        ``workers`` parallelises the segment encodes as in :meth:`ingest`.
        """
        base = self.meta(name)
        if config is None:
            config = self._config_of(base)

        def decoded_frames() -> Iterator[Frame]:
            for gop in range(base.gop_count):
                best = {}
                for tile in base.grid.tiles():
                    stored = [
                        quality
                        for quality in base.qualities
                        if (gop, tile, quality) in base.entries
                    ]
                    if not stored:
                        raise SegmentNotFoundError(
                            f"{name!r} cannot be reingested: (gop={gop}, tile={tile}) "
                            "has no stored quality"
                        )
                    best[tile] = stored[0]  # qualities are ordered best first
                yield from self.read_window(name, gop, best, base.version).decode()

        return self._ingest_version(
            name,
            "reingest",
            config,
            _chunk(decoded_frames(), config.gop_frames),
            (base.width, base.height),
            base.streaming,
            workers=workers,
        )

    def store_windows(
        self,
        name: str,
        windows: list[TiledGop],
        fps: float,
    ) -> VideoMeta:
        """Persist already-encoded windows: the writer behind
        :func:`repro.core.export.import_video`.

        Creates version 1 for a new name, or the next version of an
        existing one. Each window's tiles may be at heterogeneous
        qualities; the index records each tile's actual quality, and the
        ladder is the rungs observed, best first.
        """
        if not windows:
            raise IngestError(f"cannot store zero windows as {name!r}")
        layout = windows[0]
        for index, window in enumerate(windows[1:], start=1):
            if (window.width, window.height, window.grid) != (
                layout.width,
                layout.height,
                layout.grid,
            ):
                raise IngestError(f"window {index} has a different layout than window 0")
        gops = [
            (
                window.frame_count,
                [
                    (tile, window.tile_quality(*tile), payload)
                    for tile, payload in window.payloads.items()
                ],
            )
            for window in windows
        ]
        observed = {quality for _, payloads in gops for _, quality, _ in payloads}
        return self._write_version(
            name,
            gops,
            width=layout.width,
            height=layout.height,
            fps=fps,
            grid=layout.grid,
            gop_frames=layout.frame_count,
            qualities=tuple(sorted(observed, reverse=True)),
            streaming=False,
        )

    def _commit_meta(self, meta: VideoMeta) -> None:
        path = self.catalog.metadata_path(meta.name, meta.version)
        if path.exists():
            raise CatalogError(
                f"refusing to overwrite committed metadata {path.name} of {meta.name!r}"
            )
        with self.metrics.span(
            "storage.ingest.commit", video=meta.name, version=meta.version
        ):
            # Segments are already durable; the metadata publish makes
            # the version parseable and the marker publish commits it —
            # both atomic renames, so a crash between them leaves a
            # complete-but-uncommitted version that fsck rolls forward.
            blob = build_metadata_file(meta).serialize()
            _publish_bytes(path, blob)
            _publish_bytes(
                self.catalog.marker_path(meta.name, meta.version),
                _marker_payload(blob),
            )
        self._meta_cache[(meta.name, meta.version)] = meta
        # One cached meta per name: each version's index covers every GOP so
        # far, O(N²) entries under live append. An old version re-parses on demand.
        self._forget_metas(meta.name, keep=meta.version)
        self.metrics.counter("storage.versions_committed", "metadata commits").inc()

    def _forget_metas(self, name: str, keep: int | None = None) -> None:
        """Evict ``name``'s cached metas (all but version ``keep``). Read
        threads insert while this runs: snapshot the keys, pop tolerantly."""
        for key in list(self._meta_cache):
            if key[0] == name and key[1] != keep:
                self._meta_cache.pop(key, None)

    # -- reads -------------------------------------------------------------------

    def meta(self, name: str, version: int | None = None) -> VideoMeta:
        """Metadata for a committed version (latest if unspecified), cached.

        A cache miss reads the metadata file and its commit marker and
        refuses (:class:`CatalogError`) a file whose content checksum is not
        the one its marker recorded, before parsing it.
        """
        if version is None:
            version = self.catalog.latest_version(name)
        key = (name, version)
        # One get, then the local: a commit on another thread may evict the entry.
        meta = self._meta_cache.get(key)
        if meta is None:
            meta = self._meta_cache[key] = parse_metadata_file(
                name, self._committed_blob(name, version)
            )
        return meta

    def _committed_blob(self, name: str, version: int) -> bytes:
        """A committed version's metadata bytes, checked against its
        marker: the rule :meth:`_validate_version` applies to an
        uncommitted one. Raises :class:`CatalogError`."""
        try:
            blob = self.catalog.metadata_path(name, version).read_bytes()
            marker = self.catalog.marker_path(name, version).read_bytes()
        except FileNotFoundError as error:
            raise CatalogError(
                f"video {name!r} has no committed version {version}"
            ) from error
        if marker != _marker_payload(blob):
            raise CatalogError(
                f"metadata_v{version}.mp4 of {name!r} does not match the checksum "
                "its commit marker recorded (bit rot)"
            )
        return blob

    def read_range(self, name: str, gop: int, entry: SegmentEntry) -> bytes:
        """The bytes on disk at ``entry``'s range of its GOP's pack — fewer
        than ``entry.size`` when the pack ends early. One ``open`` +
        ``pread``, bypassing the buffer pool and checking nothing: a
        :meth:`read_segment` miss checks them with :func:`_checked`, the
        chaos runner looks at what a disk holds, and many ranges of one
        video are read by :meth:`_read_entries` instead, one open per pack.
        Raises ``OSError`` (``FileNotFoundError`` when the pack is gone)."""
        fd = os.open(self.catalog.pack_path(name, gop, entry.file_version), os.O_RDONLY)
        try:
            return os.pread(fd, entry.size, entry.offset)
        finally:
            os.close(fd)

    def read_segment(
        self,
        name: str,
        gop: int,
        tile: tuple[int, int],
        quality: Quality,
        version: int | None = None,
    ) -> bytes:
        """One segment's encoded bytes, located via the metadata index.

        Served from the in-memory buffer pool on a hit; packs are
        immutable once written (no-overwrite storage), so cached bytes can
        never go stale.
        """
        meta = self.meta(name, version)
        key = SegmentKey(gop, tile, quality)
        entry = _entry_of(name, meta, key)

        def load() -> bytes:
            try:
                data = self.read_range(name, gop, entry)
            except OSError as error:
                data = error
            checked = _checked(name, gop, entry, data)
            if isinstance(checked, bytes):
                return checked
            raise checked

        with self.metrics.span(
            "storage.read_segment", video=name, gop=gop, tile=tile, quality=quality.label
        ):
            if self.segment_cache is None:
                data = load()
            else:
                cache_key = key.cache_key(name, entry.file_version)
                # Single-flight: concurrent sessions missing on the same
                # segment share one file read instead of stampeding the
                # filesystem.
                data = self.segment_cache.get_or_load(cache_key, load)
        self._segments_read.inc()
        self._bytes_read.inc(len(data))
        return data

    def read_segments(
        self, name: str, keys: Iterable[SegmentKey], version: int | None = None
    ) -> list[bytes | SegmentNotFoundError]:
        """Many segments of one version of ``name`` in one disk walk: the
        version is resolved once and each pack the keys fall in is opened
        once. Returns, per key and in ``keys``' order, its bytes or the
        error :meth:`read_segment` would raise for it
        (:class:`SegmentNotFoundError`, :class:`SegmentCorruptError`); an
        error for the video as a whole (no committed version) is raised.

        Reads the disk, never the buffer pool: the caller keeps its own
        copy (the serve tier's pins), so a bulk read must not churn the
        pool the cold path relies on.
        """
        meta = self.meta(name, version)
        keys = list(keys)
        results: list = [None] * len(keys)
        for position, result in self._read_entries(name, meta, keys):
            results[position] = result
            if isinstance(result, bytes):
                self._segments_read.inc()
                self._bytes_read.inc(len(result))
        return results

    def _read_entries(
        self, name: str, meta: VideoMeta, keys: list
    ) -> Iterator[tuple[int, bytes | SegmentNotFoundError]]:
        """The one bulk walk of stored bytes: ``(position, bytes or
        error)`` for each :class:`SegmentKey` of ``keys`` in
        ``meta``'s index, pack by pack — each opened once, its ranges read
        in offset order and checked by :func:`_checked`. ``position`` is
        the key's index in ``keys``; errors are :meth:`read_segment`'s.
        ``meta`` need not be committed (fsck's adopt check walks one that
        is not)."""
        packs: dict[tuple[int, int], list[tuple[int, int, SegmentEntry]]] = {}
        for position, key in enumerate(keys):
            try:
                entry = _entry_of(name, meta, key)
            except SegmentNotFoundError as error:
                yield position, error
                continue
            packs.setdefault((key.window, entry.file_version), []).append(
                (entry.offset, position, entry)
            )
        for (gop, file_version), ranges in packs.items():
            ranges.sort()
            try:
                fd = os.open(
                    self.catalog.pack_path(name, gop, file_version), os.O_RDONLY
                )
            except OSError as error:
                for _, position, entry in ranges:
                    yield position, _checked(name, gop, entry, error)
                continue
            try:
                for _, position, entry in ranges:
                    try:
                        data = os.pread(fd, entry.size, entry.offset)
                    except OSError as error:
                        data = error
                    yield position, _checked(name, gop, entry, data)
            finally:
                os.close(fd)

    def read_window(
        self,
        name: str,
        gop: int,
        quality_map: dict[tuple[int, int], Quality],
        version: int | None = None,
    ) -> TiledGop:
        """Assemble a delivery window at a per-tile quality assignment.

        The store's one homomorphic operation: ``quality_map`` names any
        subset of the grid's tiles, each at its own rung, and each tile's
        stored bytes (:meth:`read_segment`) go into the window untouched —
        no decode, no re-encode. Tiles the map leaves out are absent and
        decode as flat grey.
        """
        meta = self.meta(name, version)
        with self.metrics.span("storage.read_window", video=name, gop=gop):
            payloads = {
                tile: self.read_segment(name, gop, tile, quality, meta.version)
                for tile, quality in quality_map.items()
            }
        self._windows_assembled.inc()
        return TiledGop(
            width=meta.width,
            height=meta.height,
            grid=meta.grid,
            frame_count=meta.gop_frame_counts[gop],
            payloads=payloads,
        )

    def decode_window(
        self, name: str, gop: int, quality: Quality, version: int | None = None
    ) -> list[Frame]:
        """Decode a full window at a uniform quality (reference reads)."""
        meta = self.meta(name, version)
        quality_map = {tile: quality for tile in meta.grid.tiles()}
        return self.read_window(name, gop, quality_map, meta.version).decode()

    def build_manifest(self, name: str, version: int | None = None) -> Manifest:
        """The DASH-style manifest a streaming session consumes.

        Every (window, tile) must have at least one stored quality; gaps
        in the ladder (popularity-planned partial stores) are legal and
        resolve at request time via :meth:`Manifest.resolve`.
        """
        meta = self.meta(name, version)
        sizes: dict[SegmentKey, int] = {}
        for gop in range(meta.gop_count):
            for tile in meta.grid.tiles():
                stored_any = False
                for quality in meta.qualities:
                    key = SegmentKey(gop, tile, quality)
                    entry = meta.entries.get(key)
                    if entry is None:
                        continue
                    sizes[key] = entry.size
                    stored_any = True
                if not stored_any:
                    raise SegmentNotFoundError(
                        f"{name!r} is not servable: (gop={gop}, tile={tile}) has "
                        "no stored quality"
                    )
        return Manifest(
            video=name,
            width=meta.width,
            height=meta.height,
            fps=meta.fps,
            window_duration=meta.gop_duration,
            window_count=meta.gop_count,
            grid=meta.grid,
            qualities=meta.qualities,
            segment_sizes=sizes,
        )

    def total_bytes(self, name: str, version: int | None = None) -> int:
        """Total stored segment bytes for one version (storage-cost sweeps)."""
        meta = self.meta(name, version)
        return sum(entry.size for entry in meta.entries.values())

    # -- retention / garbage collection ---------------------------------------

    def vacuum(self, name: str, keep_versions: int = 1) -> tuple[int, int]:
        """Drop old versions and delete packs nothing references.

        A no-overwrite store accretes: every STORE/append commits a new
        metadata file, and copy-on-write means old packs stay on disk as
        long as *any* retained version points into them. ``vacuum``
        retains the newest ``keep_versions`` metadata files, then unlinks
        the packs the dropped versions point into and no retained one
        does. Packs no committed version names — an append's packs
        published but not yet committed, crash debris — are not its to
        judge: the first are the next version, the rest ``fsck --repair``'s.

        Returns ``(files_deleted, bytes_freed)``. Readers of retained
        versions are unaffected; readers pinned to dropped versions lose
        snapshot isolation — retention is the operator's contract.
        """
        if keep_versions < 1:
            raise ValueError(f"must keep at least one version, got {keep_versions}")
        versions = self.catalog.versions(name)
        retained = versions[-keep_versions:]
        dropped = versions[: -keep_versions] if len(versions) > keep_versions else []

        files_deleted = 0
        bytes_freed = 0
        kept = self.segment_files(name, retained)
        for path in sorted(self.segment_files(name, dropped).keys() - kept.keys()):
            try:
                size = path.stat().st_size
                path.unlink()
            except FileNotFoundError:
                continue  # a shard root holds only the packs its node owns into
            bytes_freed += size
            files_deleted += 1
        for version in dropped:
            self.catalog.metadata_path(name, version).unlink()
            self.catalog.marker_path(name, version).unlink(missing_ok=True)
            self._meta_cache.pop((name, version), None)
        if self.segment_cache is not None:
            self.segment_cache.invalidate_prefix(name)
        return files_deleted, bytes_freed

    def segment_files(
        self, name: str, versions: Iterable[int] | None = None
    ) -> dict[Path, dict[SegmentKey, SegmentEntry]]:
        """The packs the index of ``versions`` (default: every committed
        one) points into, each with the segments it holds and their
        entries; a pack copy-on-write shares between versions appears once.
        What the store holds is read from its index, never from a directory
        listing, which would also list crash debris and uncommitted
        publishes."""
        if versions is None:
            versions = self.catalog.versions(name)
        packs: dict[Path, dict[SegmentKey, SegmentEntry]] = {}
        for version in versions:
            for key, entry in self.meta(name, version).entries.items():
                path = self.catalog.pack_path(name, key.window, entry.file_version)
                packs.setdefault(path, {})[key] = entry
        return packs

    # -- durability / self-healing ---------------------------------------------

    def verify_segment_bytes(
        self,
        name: str,
        gop: int,
        tile: tuple[int, int],
        quality: Quality,
        data: bytes,
        version: int | None = None,
    ) -> SegmentEntry:
        """Check candidate bytes against the index entry; return the entry.

        Raises :class:`SegmentNotFoundError` when the index has no such
        segment and :class:`SegmentCorruptError` when the bytes disagree
        with the recorded size or checksum — the gate every read-repair
        write must pass, so a corrupt peer copy can never overwrite disk.
        """
        meta = self.meta(name, version)
        entry = _entry_of(name, meta, SegmentKey(gop, tile, quality))
        broken = _mismatch(entry, data)
        if broken:
            detail = (
                f"are {len(data)} bytes, index says {entry.size}"
                if broken == "size"
                else "fail the index checksum"
            )
            raise SegmentCorruptError(
                f"candidate bytes for (gop={gop}, tile={tile}, "
                f"quality={quality.label}) of {name!r} {detail}"
            )
        return entry

    def repair_segment(
        self,
        name: str,
        gop: int,
        tile: tuple[int, int],
        quality: Quality,
        data: bytes,
        version: int | None = None,
    ) -> Path:
        """Atomically rewrite a segment's range of its local pack from a
        verified copy.

        The one sanctioned exception to no-overwrite storage: the bytes
        must pass :meth:`verify_segment_bytes` first, so the range after
        repair is exactly what the index committed at ingest. The pack is
        never written in place: a copy with the range spliced in is
        published over it (a missing pack, or one too short for the range,
        is zero-filled around it), so a hard link a peer root shares is
        broken, never poisoned. Repairs are serialised per manager, so two
        in one pack cannot lose each other's splice. The buffer pool entry
        is invalidated so the next read serves the repaired range.
        """
        entry = self.verify_segment_bytes(name, gop, tile, quality, data, version)
        path = self.catalog.pack_path(name, gop, entry.file_version)
        end = entry.offset + entry.size
        with self._repair_lock:
            try:
                pack = bytearray(path.read_bytes())
            except FileNotFoundError:
                pack = bytearray()
            pack.extend(bytes(max(0, end - len(pack))))
            pack[entry.offset : end] = data
            _publish_bytes(path, bytes(pack))
        if self.segment_cache is not None:
            self.segment_cache.invalidate(
                SegmentKey(gop, tile, quality).cache_key(name, entry.file_version)
            )
        self.metrics.counter(
            "storage.repair_success", "segments rewritten from a verified copy"
        ).inc(video=name)
        self.metrics.counter(
            "storage.repair_bytes", "bytes rewritten by read-repair"
        ).inc(len(data))
        return path

    def fsck(self, repair: bool = False) -> dict:
        """Audit the catalog for crash debris; optionally repair it.

        Recovery rules (the commit protocol's inverse):

        * ``*.tmp`` files are torn publishes — never visible to readers,
          deleted on repair.
        * A marker without metadata is impossible under the publish order
          (metadata lands first); it is bit-rot/manual damage and is
          deleted on repair.
        * Metadata without a marker is an interrupted commit. The publish
          order guarantees the metadata file itself is complete, so fsck
          *rolls forward*: if it parses and every segment it references
          reads intact from its pack (size + checksum), it is adopted by
          writing its marker; otherwise it is rolled back (deleted).
        * A video directory with no committed versions (the SIGKILL-mid-
          ingest case) is dropped wholesale on repair.
        * A committed version whose metadata file no longer matches the
          checksum its marker recorded is bit rot fsck cannot undo: it is
          reported (``damaged_metadata``), never repaired, and its readers
          get a :class:`CatalogError` from :meth:`meta`.
        * Packs no committed version references are orphans from a
          rolled-back version — deleted on repair. This is the one place
          such crash debris is collected: :meth:`vacuum` deletes only what
          the versions it drops pointed into. Do not run it beside a writer
          (an append's published-but-uncommitted packs look the same).

        Returns a JSON-serialisable report; ``report["clean"]`` is True
        when nothing was found.
        """
        report: dict = {
            "videos_checked": 0,
            "orphan_tmp": [],
            "adopted_versions": [],
            "rolled_back_versions": [],
            "dangling_markers": [],
            "dropped_videos": [],
            "orphan_packs": [],
            "damaged_metadata": [],
            "repair": repair,
        }
        for name in self.list_videos():
            report["videos_checked"] += 1
            video_dir = self.catalog.video_dir(name)
            for tmp in sorted(video_dir.rglob("*.tmp")):
                report["orphan_tmp"].append(str(tmp.relative_to(self.catalog.root)))
                if repair:
                    tmp.unlink()
            metadata, markers = self.catalog.scan_versions(name)
            for version in sorted(markers - metadata):
                report["dangling_markers"].append(f"{name} v{version}")
                if repair:
                    self.catalog.marker_path(name, version).unlink()
                    markers.discard(version)
            committed = metadata & markers
            for version in sorted(committed):
                try:
                    self._committed_blob(name, version)
                except CatalogError:
                    report["damaged_metadata"].append(f"{name} v{version}")
            for version in sorted(metadata - committed):
                if self._validate_version(name, version):
                    report["adopted_versions"].append(f"{name} v{version}")
                    if repair:
                        blob = self.catalog.metadata_path(name, version).read_bytes()
                        _publish_bytes(
                            self.catalog.marker_path(name, version),
                            _marker_payload(blob),
                        )
                        committed.add(version)
                else:
                    report["rolled_back_versions"].append(f"{name} v{version}")
                    if repair:
                        self.catalog.metadata_path(name, version).unlink()
                        self.catalog.marker_path(name, version).unlink(missing_ok=True)
                        self._meta_cache.pop((name, version), None)
            if not metadata or (repair and not committed):
                report["dropped_videos"].append(name)
                if repair:
                    self.drop(name)
                continue
            if repair:
                try:
                    referenced = self.segment_files(name, committed)
                except (CatalogError, ValueError):
                    # A committed version no longer parses: what it points
                    # into is unknown, so no pack can be called an orphan.
                    continue
                for path in sorted(self.catalog.segments_dir(name).iterdir()):
                    if not path.is_file() or path in referenced:
                        continue
                    report["orphan_packs"].append(
                        str(path.relative_to(self.catalog.root))
                    )
                    path.unlink()
        report["clean"] = not any(
            report[key]
            for key in (
                "orphan_tmp",
                "adopted_versions",
                "rolled_back_versions",
                "dangling_markers",
                "dropped_videos",
                "orphan_packs",
                "damaged_metadata",
            )
        )
        return report

    def _validate_version(self, name: str, version: int) -> bool:
        """True when an unmarked version's metadata parses and every
        segment it references is intact on disk."""
        path = self.catalog.metadata_path(name, version)
        try:
            meta = parse_metadata_file(name, path.read_bytes())
        except (OSError, CatalogError, ValueError, struct.error):
            return False
        return not any(self._damaged_entries(name, meta, set()))

    def _damaged_entries(
        self, name: str, meta: VideoMeta, seen: set[str]
    ) -> Iterator[tuple[SegmentKey, str]]:
        """Walk one version's index in a fixed order and yield ``(key,
        range)`` for every segment whose byte range is missing, unreadable,
        or fails :func:`_mismatch`; ``range`` is ``<pack file>@<offset>``.
        Reads through :meth:`_read_entries`, so the disk, never the buffer
        pool. Ranges already in ``seen`` (copy-on-write shares of an earlier
        version) are skipped; every range looked at is added to it."""
        keys = []
        for key, entry in sorted(meta.entries.items(), key=lambda item: str(item[0])):
            where = _range_label(key.window, entry)
            if where not in seen:
                seen.add(where)
                keys.append(key)
        damaged = sorted(
            position
            for position, result in self._read_entries(name, meta, keys)
            if not isinstance(result, bytes)
        )
        for position in damaged:
            key = keys[position]
            yield key, _range_label(key.window, meta.entries[key])

    def scrub(
        self,
        source: SegmentBackend | None = None,
        video: str | None = None,
    ) -> dict:
        """Proactive integrity walk: verify every committed segment.

        Reads each referenced segment's range of its pack directly
        (bypassing the buffer pool — the point is the disk) and checks size
        and checksum. With a ``source`` backend (a peer owner, a replica, a
        backup), corrupt segments are re-fetched, re-verified, and
        atomically repaired; without one they are only reported. Returns a deterministic
        report with per-video counts.
        """
        names = [video] if video is not None else self.list_videos()
        report: dict = {
            "segments_checked": 0,
            "corrupt": [],
            "repaired": [],
            "repair_failed": [],
        }
        for name in sorted(names):
            try:
                versions = self.catalog.versions(name)
            except CatalogError:
                continue
            seen: set[str] = set()
            for version in versions:
                try:
                    meta = self.meta(name, version)
                except CatalogError as error:
                    # Rotted metadata: no index to walk, nothing to repair from.
                    label = f"{name}/metadata_v{version}.mp4"
                    report["corrupt"].append(label)
                    if source is not None:
                        report["repair_failed"].append(f"{label}: {error}")
                    continue
                for key, where in self._damaged_entries(name, meta, seen):
                    label = f"{name}/{where}"
                    report["corrupt"].append(label)
                    if source is None:
                        continue
                    try:
                        fresh = source.read_segment(name, *key)
                        self.repair_segment(name, *key, fresh, version)
                    except VisualCloudError as error:
                        report["repair_failed"].append(f"{label}: {error}")
                    else:
                        report["repaired"].append(label)
            report["segments_checked"] += len(seen)
        return report

    def stats(self) -> dict:
        """Operational snapshot: catalog contents and cache behaviour."""
        videos = {}
        for name in self.list_videos():
            try:
                meta = self.meta(name)
            except CatalogError:
                continue  # created but never committed
            videos[name] = {
                "version": meta.version,
                "versions": len(self.catalog.versions(name)),
                "duration_s": round(meta.duration, 3),
                "bytes": self.total_bytes(name),
                "segments": len(meta.entries),
            }
        cache = self.segment_cache
        if cache is None:
            return {"videos": videos, "cache": None}
        hits = cache.metrics.counter("cache.hits").total()
        requests = hits + cache.metrics.counter("cache.misses").total()
        return {
            "videos": videos,
            "cache": {
                "entries": len(cache),
                "bytes": cache.size_bytes,
                "capacity": cache.capacity_bytes,
                "hit_rate": hits / requests if requests else float("nan"),
                "evictions": int(cache.metrics.counter("cache.evictions").total()),
            },
        }
