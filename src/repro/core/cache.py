"""The in-memory segment cache (the architecture's buffer pool).

The storage manager serves every session from per-GOP pack files; with many
concurrent viewers of the same content, the same high-quality equatorial
segments are read over and over. This cache holds recently used segment
bytes under a byte-capacity bound with least-recently-used eviction —
buffering at GOP granularity improves temporal locality exactly as the
paper's buffer-pool design argues.

Accounting is live: hits, misses, evictions, single-flight waits, and
fenced loads are counters in a :class:`~repro.obs.MetricsRegistry`
(shared with the owning storage manager), and the entry/byte occupancy is
kept as gauges.

Invalidation is *fencing*: dropping a key (or prefix, or everything) also
cancels any in-flight ``get_or_load`` for it — the leader's result is
still returned to the callers already waiting on it, but it is never
published to the cache, and requests arriving after the invalidation
start a fresh load. Without the fence, a leader that began reading before
``StorageManager.drop`` would re-populate the cache with stale bytes
after the invalidation, which serves wrong data once the name is
re-ingested and ``file_version`` restarts.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Hashable

from repro.obs import MetricsRegistry


@dataclass
class _InflightLoad:
    """One in-progress loader shared by every session that missed on a key."""

    done: threading.Event = field(default_factory=threading.Event)
    value: bytes | None = None
    error: BaseException | None = None
    #: Set by invalidation while the load is in flight: the result must
    #: not be published to the cache (it may be stale).
    fenced: bool = False


class LruSegmentCache:
    """A byte-bounded LRU cache for encoded segment payloads.

    Keys are arbitrary hashable segment identities; values are ``bytes``.
    A single value larger than the capacity is never admitted (it would
    evict the whole working set for one read).

    ``registry`` is the metrics registry accounting is reported to; by
    default the cache owns a private one. Pass the storage manager's so
    cache metrics land in the same export as everything else.
    """

    def __init__(self, capacity_bytes: int, registry: MetricsRegistry | None = None) -> None:
        if capacity_bytes <= 0:
            raise ValueError(f"cache capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._hits = self.metrics.counter("cache.hits", "cache lookups served from memory")
        self._misses = self.metrics.counter("cache.misses", "cache lookups that fell through")
        self._evictions = self.metrics.counter("cache.evictions", "entries evicted for capacity")
        self._inflight_waits = self.metrics.counter(
            "cache.inflight_waits", "lookups that blocked on another session's load"
        )
        self._fenced_loads = self.metrics.counter(
            "cache.fenced_loads", "in-flight loads cancelled by invalidation"
        )
        self._invalidations = self.metrics.counter(
            "cache.invalidations", "entries dropped by invalidation"
        )
        self._gauge_entries = self.metrics.gauge("cache.entries", "live cache entries")
        self._gauge_bytes = self.metrics.gauge("cache.bytes", "live cached payload bytes")
        self.metrics.gauge("cache.capacity_bytes", "configured capacity").set(capacity_bytes)
        self._entries: OrderedDict[Hashable, bytes] = OrderedDict()
        self._size = 0
        # One storage manager serves many sessions; gets and puts race.
        self._lock = threading.Lock()
        self._inflight: dict[Hashable, _InflightLoad] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def size_bytes(self) -> int:
        return self._size

    def _update_gauges_locked(self) -> None:
        self._gauge_entries.set(len(self._entries))
        self._gauge_bytes.set(self._size)

    def items(self) -> list[tuple[Hashable, bytes]]:
        """A point-in-time snapshot of every (key, payload) pair, in LRU
        order (least recent first). Does not touch recency — built for
        audits (the chaos runner's stale-byte invariant walks it against
        the on-disk files), not for serving reads."""
        with self._lock:
            return list(self._entries.items())

    def get(self, key: Hashable) -> bytes | None:
        """The cached payload, refreshed to most-recently-used; else None."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses.inc()
                return None
            self._entries.move_to_end(key)
            self._hits.inc()
            return entry

    def put(self, key: Hashable, value: bytes) -> None:
        """Insert (or refresh) a payload, evicting LRU entries to fit."""
        if not isinstance(value, (bytes, bytearray)):
            raise TypeError(f"cache values must be bytes, got {type(value).__name__}")
        with self._lock:
            self._put_locked(key, bytes(value))

    def _put_locked(self, key: Hashable, value: bytes) -> None:
        if len(value) > self.capacity_bytes:
            return  # oversized: serve uncached rather than thrash
        if key in self._entries:
            self._size -= len(self._entries.pop(key))
        while self._size + len(value) > self.capacity_bytes and self._entries:
            _, evicted = self._entries.popitem(last=False)
            self._size -= len(evicted)
            self._evictions.inc()
        self._entries[key] = value
        self._size += len(value)
        self._update_gauges_locked()

    def get_or_load(self, key: Hashable, loader: Callable[[], bytes]) -> bytes:
        """The cached payload, loading it via ``loader`` on a miss.

        Single-flight: when many sessions miss on the same key at once, one
        becomes the leader and runs ``loader`` (outside the cache lock, so
        distinct keys still load concurrently); the rest block on its result
        instead of stampeding the same pack range. A loader exception is
        propagated to the leader and every waiter, and the key is released
        so a later request can retry.

        Invalidation fences in-flight loads: if the key (or the whole
        cache) is invalidated while the leader is loading, the loaded
        bytes are returned to the leader and its waiters but *not*
        cached, and the in-flight slot is released immediately so
        post-invalidation requests load fresh.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits.inc()
                    return entry
                self._misses.inc()
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InflightLoad()
                    self._inflight[key] = flight
                    break  # we are the leader
            self._inflight_waits.inc()
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            assert flight.value is not None
            return flight.value
        try:
            value = bytes(loader())
        except BaseException as exc:
            flight.error = exc
            with self._lock:
                if self._inflight.get(key) is flight:
                    del self._inflight[key]
            flight.done.set()
            raise
        with self._lock:
            if flight.fenced:
                self._fenced_loads.inc()
            else:
                self._put_locked(key, value)
            if self._inflight.get(key) is flight:
                del self._inflight[key]
        flight.value = value
        flight.done.set()
        return value

    def _fence_locked(self, flight: _InflightLoad | None, key: Hashable) -> None:
        """Cancel one in-flight load: its result must not be cached, and
        the slot is freed so later requests load fresh bytes."""
        if flight is None:
            return
        flight.fenced = True
        if self._inflight.get(key) is flight:
            del self._inflight[key]

    def invalidate(self, key: Hashable) -> None:
        """Drop one entry if present (used when a video is dropped).

        Also fences any in-flight load of the key — see :meth:`get_or_load`.
        """
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is not None:
                self._size -= len(entry)
                self._invalidations.inc()
                self._update_gauges_locked()
            self._fence_locked(self._inflight.get(key), key)

    def invalidate_prefix(self, prefix: Hashable) -> None:
        """Drop every entry whose key is a tuple starting with ``prefix``,
        fencing matching in-flight loads as well."""

        def matches(key: Hashable) -> bool:
            return isinstance(key, tuple) and bool(key) and key[0] == prefix

        with self._lock:
            for key in [key for key in self._entries if matches(key)]:
                entry = self._entries.pop(key, None)
                if entry is not None:
                    self._size -= len(entry)
                    self._invalidations.inc()
            for key in [key for key in self._inflight if matches(key)]:
                self._fence_locked(self._inflight.get(key), key)
            self._update_gauges_locked()
