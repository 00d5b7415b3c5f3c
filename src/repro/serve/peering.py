"""Where a shard node's segment bytes come from.

:class:`ShardedBackend` is the :class:`~repro.core.backends.SegmentBackend`
a sharded :class:`~repro.serve.server.SegmentServer` reads through. Given
*(local storage, shard map, peer table)* it decides, per segment:

* **owner** — local read; a *repairable* local failure (the index has
  the entry, the bytes are missing, torn or corrupt) with ``rf >= 2``
  heals itself: fetch a peer owner's copy, verify it against the index
  checksum, atomically rewrite the local file, serve the request;
* **non-owner** — the node's buffer pool, then the owners in map order,
  then local storage (full-copy deployments and freshly re-mapped nodes
  often still hold the bytes), and only then a transient error, so
  clients fail over instead of treating an outage as data loss.

Placement decides the path before storage is consulted: a local 404 on a
non-owner is an artefact of partitioning, never an authoritative answer.
A peer's 404 *is* authoritative on the non-owner path (the owner says
the segment exists nowhere) but not on the repair path (our own index
proves it exists; a peer without it has its own damage).

Every byte that arrives from a peer was verified by
:class:`~repro.serve.client.HttpSegmentClient` against the peer's
``X-Checksum``, which only proves the peer sent what it holds; both
paths check it against this node's own index entry too, so a corrupt or
other-version peer copy is neither served, pooled nor written.
"""

from __future__ import annotations

from repro.core.errors import SegmentNotFoundError, TransientSegmentError
from repro.obs import MetricsRegistry
from repro.serve.client import HttpSegmentClient
from repro.serve.placement import ShardMap
from repro.stream.dash import Manifest, SegmentKey
from repro.video.quality import Quality

#: Seconds per peer segment fetch.
PEER_TIMEOUT = 5.0


class ShardedBackend:
    """Owner-or-peer routing and read-repair over one node's storage.

    ``peers`` maps sibling node id → base URL (one keep-alive
    :class:`HttpSegmentClient` each, safe to share across the server's
    read threads) or → any object with ``fetch_segment(name, key)`` and
    ``close()``, which is how tests substitute fakes. The shard map and
    peer table are read on executor threads but only *replaced* (never
    mutated) by :meth:`update` — atomic attribute swaps need no lock.
    """

    def __init__(
        self,
        local,
        node_id: str,
        shard_map: ShardMap | None,
        peers: dict,
        registry: MetricsRegistry,
    ) -> None:
        self.local = local
        self.node_id = node_id
        self.shard_map = shard_map
        self._peers: dict = {}  # sibling node id → segment client
        self._set_peers(peers)

        def counter(name: str, help: str):
            return registry.counter(name, help).labels()

        self._fetches = counter(
            "serve.peer_fetches", "segments fetched from sibling nodes"
        )
        self._bytes = counter(
            "serve.peer_bytes", "segment bytes fetched from sibling nodes"
        )
        self._cache_hits = counter(
            "serve.peer_cache_hits", "non-owned reads served from the buffer pool"
        )
        self._errors = counter("serve.peer_errors", "failed peer fetch attempts")
        self._fallback_local = counter(
            "serve.peer_fallback_local",
            "non-owned reads served from local storage after peers failed",
        )
        self._map_updates = counter(
            "serve.shard_map_updates", "shard map replacements applied"
        )
        # storage.repair_success/bytes are counted by repair_segment
        # itself, so offline scrubs count too.
        self._repair_attempts = counter(
            "storage.repair_attempts", "peer read-repairs attempted"
        )
        self._repair_failed = counter(
            "storage.repair_failed", "peer read-repairs that found no intact copy"
        )
        self._gauge_version = registry.gauge(
            "serve.shard_map_version", "version of the active shard map"
        )
        if shard_map is not None:
            self._gauge_version.set(shard_map.version)

    # -- topology --------------------------------------------------------------

    def _set_peers(self, peers: dict) -> None:
        """Swap in the sibling table and close the retired clients
        (closing only drops the connection: a client handed in again
        reconnects on its next fetch)."""
        retired = self._peers
        self._peers = {
            node: HttpSegmentClient(peer, timeout=PEER_TIMEOUT)
            if isinstance(peer, str)
            else peer
            for node, peer in peers.items()
            if node != self.node_id
        }
        for client in retired.values():
            client.close()

    def update(self, shard_map: ShardMap, peers: dict | None = None) -> None:
        """Swap in a new placement blueprint (and optionally peer table).

        Version monotonicity is enforced: a stale map is rejected, so a
        replayed update can never roll routing backwards. Pooled bytes
        stay: they are versioned and index-checked, and owners are not in the key.
        """
        previous = self.shard_map
        if previous is not None and shard_map.version < previous.version:
            raise ValueError(
                f"shard map v{shard_map.version} is older than active "
                f"v{previous.version}; refusing to roll back"
            )
        self.shard_map = shard_map
        if peers is not None:
            self._set_peers(dict(peers))
        self._map_updates.inc()
        self._gauge_version.set(shard_map.version)

    def close(self) -> None:
        for client in self._peers.values():
            client.close()

    # -- the read contract -----------------------------------------------------

    def build_manifest(self, name: str) -> Manifest:
        return self.local.build_manifest(name)  # metadata lives on every node

    def read_segment(
        self,
        name: str,
        gop: int,
        tile: tuple[int, int],
        quality: Quality,
        version: int | None = None,
    ) -> bytes:
        shard_map = self.shard_map
        if shard_map is None or version is not None:
            # Placement is version-free and peers serve only the latest
            # version; historical reads are a local affair.
            return self.local.read_segment(name, gop, tile, quality, version)
        key = SegmentKey(gop, tile, quality)
        owners = shard_map.owners(name, key)
        if self.node_id not in owners:
            return self._peer_read(name, key, owners)
        try:
            return self.local.read_segment(name, gop, tile, quality)
        except SegmentNotFoundError as error:
            if not (getattr(error, "repairable", False) and len(owners) > 1):
                raise  # nothing to heal, or no second owner to heal from
            return self._repair(name, key, owners, error)

    def _owner_copies(
        self, name: str, key: SegmentKey, owners, authoritative_404: bool
    ):
        """Each reachable peer owner's copy of one segment, in map order
        — the one owner loop; the caller's loop body decides what to do
        with the bytes. A peer 404 propagates when authoritative, else
        counts as one more failed peer."""
        for node in owners:
            client = self._peers.get(node)
            if client is None:  # ourselves, or a sibling we have no address for
                continue
            try:
                data = client.fetch_segment(name, key)
            except (SegmentNotFoundError, TransientSegmentError) as error:
                if authoritative_404 and isinstance(error, SegmentNotFoundError):
                    raise
                self._errors.inc()  # unreachable, timed out, or a 404 we overrule
                continue
            self._fetches.inc()
            self._bytes.inc(len(data))
            yield data

    def _peer_read(self, name: str, key: SegmentKey, owners) -> bytes:
        """A non-owned read, single-flight through the node's buffer pool
        under the local index entry's key; only an owner copy that passes
        this node's index check is served and pooled. The load is
        ``remote``: an owner reading the same pool (nodes over one store)
        loads the key itself instead of waiting on this fetch."""
        meta = self.local.meta(name)
        entry = meta.entries.get(key)
        if entry is None:  # every node holds the index: no owner has it either
            raise SegmentNotFoundError(f"{name!r} has no segment {key.to_path()}")
        loaded = False

        def load() -> bytes:
            nonlocal loaded
            loaded = True
            for data in self._owner_copies(name, key, owners, authoritative_404=True):
                try:
                    self.local.verify_segment_bytes(name, *key, data, meta.version)
                except SegmentNotFoundError:
                    self._errors.inc()  # not the copy our index names
                    continue
                return data
            # Past the pool: this load holds the key's slot.
            [data] = self.local.read_segments(name, [key], meta.version)
            if isinstance(data, SegmentNotFoundError):
                raise TransientSegmentError(
                    f"no owner of {name}/{key.to_path()} is reachable "
                    f"(owners={list(owners)!r})"
                )
            if not isinstance(data, bytes):
                raise data  # an injected fault of a chaos-wrapped store
            self._fallback_local.inc()
            return data

        pool = self.local.segment_cache
        if pool is None:
            return load()
        data = pool.get_or_load(
            key.cache_key(name, entry.file_version), load, remote=True
        )
        if not loaded:
            self._cache_hits.inc()
        return data

    def _repair(
        self, name: str, key: SegmentKey, owners, cause: SegmentNotFoundError
    ) -> bytes:
        """Heal a locally-failed owned read from a peer owner. Local
        storage is never a fallback here — the local copy is the broken
        one — so with no intact peer copy the original failure stands."""
        self._repair_attempts.inc()
        for data in self._owner_copies(name, key, owners, authoritative_404=False):
            try:
                # Verifies against the index entry, atomically rewrites
                # the local file, and invalidates the buffer pool entry.
                self.local.repair_segment(name, key.window, key.tile, key.quality, data)
            except SegmentNotFoundError:
                continue  # peer copy corrupt too (or raced a drop)
            return data
        self._repair_failed.inc()
        raise cause
