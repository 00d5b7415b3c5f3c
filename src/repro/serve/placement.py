"""Consistent-hash segment placement: the shard map behind the delivery tier.

PR 5 treated every replica as a full copy of storage; this module is the
routing/blueprint split that lets the tier scale past one machine's disk.
A :class:`ShardMap` is the *blueprint*: a versioned, immutable assignment
of every ``(video, SegmentKey)`` to ``replication_factor`` owner nodes,
computed from a consistent-hash ring over logical node ids. Routing — the
server's owner-or-peer read path — consults the map but never mutates it;
topology changes produce a *new* map with a higher version, and key
movement is bounded (only keys adjacent to the joined/left node's virtual
points move, ≈ ``keys / nodes`` per single-node change). Placement is the
tier's business alone: clients see replicas, never owners.

Three design rules, each load-bearing:

* **Stable hashing.** Placement uses SHA-1 over UTF-8 tokens, never
  Python's ``hash()`` — the latter is salted per process, which would give
  every worker its own idea of ownership. The property suite
  (``tests/test_placement.py``) pins determinism across processes/seeds.
* **Logical node ids.** The ring hashes node *ids* ("node-0", ...), not
  URLs. Servers bind ephemeral ports in tests/bench/chaos; hashing URLs
  would reshuffle ownership on every run and break deterministic wire
  scenarios. The peer table a server is handed maps ids to addresses.
* **Versioned maps.** Every derived map (:meth:`ShardMap.with_nodes`)
  bumps ``version``, and a server refuses a map older than its active
  one, so a replayed update can never roll routing backwards.
"""

from __future__ import annotations

import bisect
import hashlib
import os
import shutil
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.core.errors import CatalogError
from repro.stream.dash import SegmentKey

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.storage import StorageManager

__all__ = ["HashRing", "ShardMap", "materialize_shards", "stable_hash"]

#: Virtual points each node puts on the ring.
VNODES = 64


def stable_hash(token: str) -> int:
    """A 64-bit position on the ring for ``token``.

    SHA-1 of the UTF-8 bytes, truncated to 8 bytes. Deterministic across
    processes, platforms, and ``PYTHONHASHSEED`` — the one property the
    whole fabric rests on.
    """
    return int.from_bytes(hashlib.sha1(token.encode("utf-8")).digest()[:8], "big")


class HashRing:
    """A consistent-hash ring over logical node ids with virtual nodes.

    Each node contributes :data:`VNODES` points at ``stable_hash(f"{id}#{i}")``;
    a key's owners are the first ``count`` *distinct* nodes clockwise from
    the key's own hash. Virtual nodes smooth the load split (the property
    suite bounds per-node share) and bound key movement when the node set
    changes.
    """

    def __init__(self, nodes: Iterable[str]) -> None:
        node_list = list(nodes)
        if not node_list:
            raise ValueError("a hash ring needs at least one node")
        if len(set(node_list)) != len(node_list):
            raise ValueError(f"duplicate node ids in {node_list!r}")
        self.nodes = tuple(node_list)
        points = []
        for node in node_list:
            for replica in range(VNODES):
                points.append((stable_hash(f"{node}#{replica}"), node))
        # Sorting (hash, node) pairs breaks the (astronomically unlikely)
        # hash tie deterministically by node id.
        points.sort()
        self._points = points
        self._hashes = [point for point, _ in points]

    def owners(self, token: str, count: int) -> tuple[str, ...]:
        """The first ``min(count, len(nodes))`` distinct nodes clockwise
        from ``stable_hash(token)``. Always non-empty, always distinct."""
        if count < 1:
            raise ValueError(f"owner count must be >= 1, got {count}")
        want = min(count, len(self.nodes))
        start = bisect.bisect_right(self._hashes, stable_hash(token)) % len(self._points)
        found: list[str] = []
        seen: set[str] = set()
        index = start
        while len(found) < want:
            node = self._points[index][1]
            if node not in seen:
                seen.add(node)
                found.append(node)
            index = (index + 1) % len(self._points)
        return tuple(found)


@dataclass(frozen=True)
class ShardMap:
    """A versioned assignment of segments to owner nodes.

    Immutable; the ring itself is derived lazily and cached.
    """

    nodes: tuple[str, ...]
    replication_factor: int = 2
    version: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if not self.nodes:
            raise ValueError("a shard map needs at least one node")
        if len(set(self.nodes)) != len(self.nodes):
            raise ValueError(f"duplicate node ids in {self.nodes!r}")
        if self.replication_factor < 1:
            raise ValueError(
                f"replication factor must be >= 1, got {self.replication_factor}"
            )
        if self.version < 1:
            raise ValueError(f"shard map version must be >= 1, got {self.version}")

    @property
    def ring(self) -> HashRing:
        ring = self.__dict__.get("_ring")
        if ring is None:
            ring = HashRing(self.nodes)
            object.__setattr__(self, "_ring", ring)
        return ring

    @staticmethod
    def segment_token(video: str, key: SegmentKey) -> str:
        """The ring token of one segment: ``video/window/row/col/quality``.

        Versions are deliberately absent — a reingest must not migrate a
        segment to different owners, or every pinned/cached copy would go
        cold on each new version.
        """
        return f"{video}/{key.to_path()}"

    def owners(self, video: str, key: SegmentKey) -> tuple[str, ...]:
        """The ``min(replication_factor, len(nodes))`` owner node ids of a
        segment, primary first."""
        return self.ring.owners(self.segment_token(video, key), self.replication_factor)

    def owns(self, node: str, video: str, key: SegmentKey) -> bool:
        return node in self.owners(video, key)

    def with_nodes(self, nodes: Iterable[str]) -> "ShardMap":
        """A successor map over a new node set, with ``version + 1``."""
        return ShardMap(
            nodes=tuple(nodes),
            replication_factor=self.replication_factor,
            version=self.version + 1,
        )


def materialize_shards(
    storage: "StorageManager",
    node_roots: Mapping[str, Path | str],
    shard_map: ShardMap,
) -> dict[str, int]:
    """Partition a full store into per-node shard roots.

    Every node receives every committed version's metadata file and
    marker (so ``build_manifest`` and the ``/manifest`` endpoint work on
    any node) but only the packs holding at least one segment it owns
    under ``shard_map``. A pack also holds segments its node does not
    own; routing by the shard map, not the disk, keeps those reads on the
    peer-fetch path. What is placed is read from the committed index, so
    crash debris (unmarked metadata, ``*.tmp`` files, an interrupted
    version's packs) stays behind. Files are hard-linked when the
    filesystem allows (packs are immutable per version and read-repair
    replaces rather than rewrites them, so sharing inodes is safe) and
    copied otherwise.

    Returns the number of owned segments placed per node. Raises
    ``ValueError`` if ``node_roots`` does not cover the map's node set.
    """
    missing = [node for node in shard_map.nodes if node not in node_roots]
    if missing:
        raise ValueError(f"node_roots missing entries for {missing!r}")
    catalog = storage.catalog

    def place(source: Path, node: str) -> None:
        destination = Path(node_roots[node]) / source.relative_to(catalog.root)
        destination.parent.mkdir(parents=True, exist_ok=True)
        if destination.exists():
            return
        try:
            os.link(source, destination)
        except OSError:
            shutil.copy2(source, destination)

    placed = {node: 0 for node in shard_map.nodes}
    for name in storage.list_videos():
        try:
            versions = catalog.versions(name)
        except CatalogError:
            continue  # nothing committed: nothing to serve
        for version in versions:
            for node in shard_map.nodes:
                place(catalog.metadata_path(name, version), node)
                place(catalog.marker_path(name, version), node)
        for source, segments in storage.segment_files(name, versions).items():
            owned = Counter(
                node for key in segments for node in shard_map.owners(name, key)
            )
            for node, count in owned.items():
                place(source, node)
                placed[node] += count
    return placed
