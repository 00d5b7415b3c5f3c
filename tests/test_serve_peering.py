"""The shard routing table, without sockets.

``ShardedBackend`` takes its peer clients by construction, so the whole
owner-or-peer / read-repair decision table runs here against fake peers
and a real on-disk store: role × local state × peer behaviour →
bytes or exception, what the disk holds afterwards, and the *exact*
counter movement. The 3-node integration suites (``test_serve_shard``,
``test_durability``) stay the end-to-end check over real sockets.
"""

from __future__ import annotations

import shutil
import sys
import threading
from dataclasses import replace

import pytest

from repro import IngestConfig, Quality, TileGrid
from repro.core.errors import (
    SegmentCorruptError,
    SegmentNotFoundError,
    TransientSegmentError,
)
from repro.core.storage import StorageManager
from repro.obs import MetricsRegistry
from repro.serve import ShardedBackend, ShardMap
from repro.stream.dash import SegmentKey
from repro.workloads.videos import synthetic_video
from tests import segment_damage

NODES = ("node-0", "node-1", "node-2")
SHARD_MAP = ShardMap(nodes=NODES, replication_factor=2)
#: ``session_db``'s "clip" as ingested (tests/conftest.py).
CLIP_CONFIG = IngestConfig(
    grid=TileGrid(2, 2), qualities=(Quality.HIGH, Quality.LOW), gop_frames=4, fps=4.0
)

COUNTERS = (
    "serve.peer_fetches",
    "serve.peer_bytes",
    "serve.peer_cache_hits",
    "serve.peer_errors",
    "serve.peer_fallback_local",
    "storage.repair_attempts",
    "storage.repair_failed",
    "storage.repair_success",
    "storage.repair_bytes",
)


def _damage(data: bytes) -> bytes:
    damaged = bytearray(data)
    damaged[len(damaged) // 2] ^= 0x08
    return bytes(damaged)


class FakePeer:
    """A sibling's segment client with one scripted behaviour."""

    def __init__(self, behaviour: str, canonical: bytes) -> None:
        self.behaviour = behaviour
        self.canonical = canonical
        self.calls = 0
        self.closed = 0

    def fetch_segment(self, name, key):
        self.calls += 1
        if self.behaviour == "404":
            raise SegmentNotFoundError("peer has no such segment")
        if self.behaviour == "transient":
            raise TransientSegmentError("peer unreachable")
        if self.behaviour == "wrong-checksum":
            # A peer whose own copy (and so its X-Checksum) is rotten.
            return _damage(self.canonical)
        return self.canonical

    def close(self):
        self.closed += 1


class Node:
    """node-0 of a 3-node rf=2 tier over a private copy of the store,
    with both siblings played by :class:`FakePeer`."""

    def __init__(self, session_db, root, role, local, peer):
        shutil.copytree(session_db.storage.catalog.root, root)
        self.registry = MetricsRegistry()
        self.storage = StorageManager(root, registry=self.registry)
        manifest = self.storage.build_manifest("clip")
        self.key = next(
            key
            for key in sorted(manifest.segment_sizes, key=lambda k: k.to_path())
            if SHARD_MAP.owns("node-0", "clip", key) == (role == "owner")
        )
        self.canonical = self.storage.read_segment("clip", *self._address())
        if local == "corrupt":
            segment_damage.splice(
                self.storage, "clip", self._address(), _damage(self.canonical)
            )
        elif local == "missing":
            segment_damage.delete(self.storage, "clip", self._address())
        # The next read goes to disk.
        self.storage.segment_cache.invalidate_prefix("clip")
        self.peers = {
            node: FakePeer(peer, self.canonical) for node in ("node-1", "node-2")
        }
        self.backend = ShardedBackend(
            self.storage, "node-0", SHARD_MAP, self.peers, registry=self.registry
        )
        self.before = self.counters()

    def owners_serve_the_store(self) -> bytes:
        """Make both siblings serve the key's bytes as the store holds
        them now (read from disk, past the pool); return those bytes."""
        [current] = self.storage.read_segments("clip", [self.key])
        for fake in self.peers.values():
            fake.canonical = current
        return current

    def _address(self):
        return self.key.window, self.key.tile, self.key.quality

    def read(self) -> bytes:
        return self.backend.read_segment("clip", *self._address())

    def counters(self) -> dict:
        return {name: self.registry.counter(name).total() for name in COUNTERS}

    def moved(self) -> dict:
        """Every counter that moved since construction, by how much."""
        after = self.counters()
        return {
            name: after[name] - self.before[name]
            for name in COUNTERS
            if after[name] != self.before[name]
        }

    def disk(self) -> str:
        stored = segment_damage.stored(self.storage, "clip", self._address())
        if stored is None:
            return "missing"
        return "canonical" if stored == self.canonical else "damaged"


N = object()  # placeholder in the table for len(canonical bytes)
N2 = object()  # … and for twice that

# role, local, peer → outcome ("bytes" or the exception type), the disk
# state afterwards, and the counters that move (all others must not).
# With rf=2 of 3 nodes an owner has one peer owner, a non-owner has two.
ROUTING_TABLE = [
    # -- owner: local read; peers untouched while it succeeds ----------------
    ("owner", "ok", "transient", "bytes", "canonical", {}),
    # -- owner, repairable local failure: verified heal from the peer owner --
    (
        "owner", "corrupt", "ok", "bytes", "canonical",
        {"storage.repair_attempts": 1, "serve.peer_fetches": 1,
         "serve.peer_bytes": N, "storage.repair_success": 1,
         "storage.repair_bytes": N},
    ),
    (
        "owner", "missing", "ok", "bytes", "canonical",
        {"storage.repair_attempts": 1, "serve.peer_fetches": 1,
         "serve.peer_bytes": N, "storage.repair_success": 1,
         "storage.repair_bytes": N},
    ),
    # A peer 404 is NOT authoritative on the repair path: it is one more
    # failed peer, and the request fails with the *local* verdict.
    (
        "owner", "corrupt", "404", SegmentCorruptError, "damaged",
        {"storage.repair_attempts": 1, "serve.peer_errors": 1,
         "storage.repair_failed": 1},
    ),
    (
        "owner", "missing", "404", SegmentNotFoundError, "missing",
        {"storage.repair_attempts": 1, "serve.peer_errors": 1,
         "storage.repair_failed": 1},
    ),
    (
        "owner", "corrupt", "transient", SegmentCorruptError, "damaged",
        {"storage.repair_attempts": 1, "serve.peer_errors": 1,
         "storage.repair_failed": 1},
    ),
    # A corrupt peer copy is neither served nor written.
    (
        "owner", "corrupt", "wrong-checksum", SegmentCorruptError, "damaged",
        {"storage.repair_attempts": 1, "serve.peer_fetches": 1,
         "serve.peer_bytes": N, "storage.repair_failed": 1},
    ),
    (
        "owner", "missing", "wrong-checksum", SegmentNotFoundError, "missing",
        {"storage.repair_attempts": 1, "serve.peer_fetches": 1,
         "serve.peer_bytes": N, "storage.repair_failed": 1},
    ),
    # -- non-owner: owners first, whatever local storage holds ---------------
    (
        "non-owner", "missing", "ok", "bytes", "missing",
        {"serve.peer_fetches": 1, "serve.peer_bytes": N},
    ),
    (
        "non-owner", "ok", "ok", "bytes", "canonical",
        {"serve.peer_fetches": 1, "serve.peer_bytes": N},
    ),
    # An owner copy that fails this node's index check is a failed peer:
    # neither served nor pooled; the next owner, then local storage.
    (
        "non-owner", "ok", "wrong-checksum", "bytes", "canonical",
        {"serve.peer_fetches": 2, "serve.peer_bytes": N2,
         "serve.peer_errors": 2, "serve.peer_fallback_local": 1},
    ),
    (
        "non-owner", "missing", "wrong-checksum", TransientSegmentError, "missing",
        {"serve.peer_fetches": 2, "serve.peer_bytes": N2,
         "serve.peer_errors": 2},
    ),
    # A peer 404 IS authoritative here — even over a local copy.
    ("non-owner", "ok", "404", SegmentNotFoundError, "canonical", {}),
    ("non-owner", "missing", "404", SegmentNotFoundError, "missing", {}),
    # All owners down → local fallback → else transient (never not-found:
    # an outage must read as "fail over", not as data loss).
    (
        "non-owner", "ok", "transient", "bytes", "canonical",
        {"serve.peer_errors": 2, "serve.peer_fallback_local": 1},
    ),
    (
        "non-owner", "missing", "transient", TransientSegmentError, "missing",
        {"serve.peer_errors": 2},
    ),
    (
        "non-owner", "corrupt", "transient", TransientSegmentError, "damaged",
        {"serve.peer_errors": 2},
    ),
]


@pytest.mark.parametrize(
    "role, local, peer, outcome, disk, moved",
    ROUTING_TABLE,
    ids=[f"{row[0]}-local_{row[1]}-peer_{row[2]}" for row in ROUTING_TABLE],
)
def test_routing_table(session_db, tmp_path, role, local, peer, outcome, disk, moved):
    node = Node(session_db, tmp_path / "node-0", role, local, peer)
    if outcome == "bytes":
        assert node.read() == node.canonical
    else:
        with pytest.raises(outcome) as caught:
            node.read()
        assert type(caught.value) is outcome  # the exact taxonomy class
    assert node.disk() == disk
    lengths = {N: len(node.canonical), N2: 2 * len(node.canonical)}
    expected = {name: lengths.get(amount, amount) for name, amount in moved.items()}
    assert node.moved() == expected
    if not moved:
        contacted = sum(fake.calls for fake in node.peers.values())
        assert contacted == (0 if role == "owner" else 1)


def _unindexed_key(owned: bool) -> SegmentKey:
    """A key past the clip's last window that node-0 owns (or does not)."""
    return next(
        key
        for key in (SegmentKey(window, (0, 0), Quality.HIGH) for window in range(900, 999))
        if SHARD_MAP.owns("node-0", "clip", key) == owned
    )


def test_unindexed_segment_is_not_a_repair_case(session_db, tmp_path):
    """No index entry → not repairable → no peer is asked."""
    node = Node(session_db, tmp_path / "node-0", "owner", "ok", "ok")
    bogus = _unindexed_key(owned=True)
    with pytest.raises(SegmentNotFoundError):
        node.backend.read_segment("clip", bogus.window, bogus.tile, bogus.quality)
    assert node.moved() == {}
    assert all(fake.calls == 0 for fake in node.peers.values())


def test_unindexed_non_owned_segment_asks_no_peer(session_db, tmp_path):
    """Every node holds the index, so what it lacks no owner holds."""
    node = Node(session_db, tmp_path / "node-0", "non-owner", "ok", "ok")
    bogus = _unindexed_key(owned=False)
    with pytest.raises(SegmentNotFoundError):
        node.backend.read_segment("clip", bogus.window, bogus.tile, bogus.quality)
    assert node.moved() == {}
    assert all(fake.calls == 0 for fake in node.peers.values())


def test_peer_cache_hit_map_update_and_drop_invalidation(session_db, tmp_path):
    """Non-owned bytes live in the store's buffer pool: a repeat read is
    a hit, a map change leaves it one, and a drop clears it."""
    node = Node(session_db, tmp_path / "node-0", "non-owner", "missing", "ok")
    assert node.read() == node.read() == node.canonical
    assert node.moved() == {
        "serve.peer_fetches": 1,
        "serve.peer_bytes": len(node.canonical),
        "serve.peer_cache_hits": 1,
    }
    # The pooled copy is versioned and index-checked: a map change under
    # which this node still does not own the segment leaves it a hit.
    node.backend.update(SHARD_MAP.with_nodes(NODES))
    assert not node.backend.shard_map.owns("node-0", "clip", node.key)
    assert node.read() == node.canonical
    assert node.moved()["serve.peer_fetches"] == 1
    assert node.moved()["serve.peer_cache_hits"] == 2
    # A new video under the dropped name restarts at v1, the pooled
    # copy's version: the drop's pool invalidation is what keeps it out.
    node.storage.drop("clip")
    node.storage.ingest(
        "clip",
        synthetic_video("venice", width=64, height=32, fps=4.0, duration=3.0, seed=6),
        CLIP_CONFIG,
        workers=1,
    )
    fresh = node.owners_serve_the_store()
    assert fresh != node.canonical
    assert node.read() == fresh
    assert node.moved()["serve.peer_fetches"] == 2


def test_racing_non_owned_misses_cost_one_fetch(session_db, tmp_path):
    """Readers racing on one non-owned segment share one pool load."""
    node = Node(session_db, tmp_path / "node-0", "non-owner", "missing", "ok")
    fetching, release = threading.Event(), threading.Event()
    for fake in node.peers.values():

        def held(name, key, fetch=fake.fetch_segment):
            fetching.set()
            release.wait(5)
            return fetch(name, key)

        fake.fetch_segment = held
    results = []
    threads = [
        threading.Thread(target=lambda: results.append(node.read())) for _ in range(8)
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        assert fetching.wait(5)
        release.set()
        for thread in threads:
            thread.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [node.canonical] * len(threads)
    assert node.moved() == {
        "serve.peer_fetches": 1,
        "serve.peer_bytes": len(node.canonical),
        "serve.peer_cache_hits": len(threads) - 1,
    }


def test_reingest_serves_the_new_version(session_db, tmp_path):
    """Pool keys carry the segment's version: after a reingest the
    non-owner fetches the new version's bytes instead of serving the
    superseded copy."""
    node = Node(session_db, tmp_path / "node-0", "non-owner", "ok", "ok")
    assert node.read() == node.canonical
    node.storage.reingest("clip", replace(CLIP_CONFIG, gop_frames=2), workers=1)
    fresh = node.owners_serve_the_store()
    assert fresh != node.canonical
    assert node.read() == fresh
    assert node.moved() == {
        "serve.peer_fetches": 2,
        "serve.peer_bytes": len(node.canonical) + len(fresh),
    }


def test_update_refuses_rollback_and_retires_replaced_peers(session_db, tmp_path):
    node = Node(session_db, tmp_path / "node-0", "owner", "ok", "ok")
    newer = SHARD_MAP.with_nodes(NODES)
    replacement = {"node-1": FakePeer("ok", node.canonical)}
    node.backend.update(newer, replacement)
    assert [fake.closed for fake in node.peers.values()] == [1, 1]
    assert node.backend.shard_map is newer
    with pytest.raises(ValueError, match="refusing to roll back"):
        node.backend.update(SHARD_MAP)
    assert node.backend.shard_map is newer
    node.backend.close()
    assert replacement["node-1"].closed == 1
