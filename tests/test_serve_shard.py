"""End-to-end sharded delivery: peer fetch, routing, coherence, failover.

A real 3-node tier built with ``materialize_shards`` — each node holds
only the packs holding a segment it owns plus the full metadata set —
exercised over actual sockets. The contracts pinned here:

* **Byte identity regardless of answering node** — any node returns any
  segment, peer-fetching the ones it does not own.
* **Error taxonomy** — an owner's 404 is authoritative (propagates as
  not-found); an unreachable owner set with no local copy surfaces as
  transient so clients fail over.
* **Differential QoE** — a no-fault wire session through the sharded
  tier is JSON-equal to the single-server wire path and the simulated
  path.
* **Coherence** — a shard-map change drops pins the node no longer owns,
  keeps pooled non-owned bytes, and refuses version rollback.
"""

from __future__ import annotations

import json

import pytest

from repro import IngestConfig, Quality, SessionConfig, TileGrid
from repro.core.errors import SegmentNotFoundError, TransientSegmentError
from repro.core.storage import StorageManager
from repro.obs import MetricsRegistry
from repro.serve import (
    FailoverSegmentClient,
    HttpSegmentClient,
    SegmentServer,
    ServerConfig,
    ShardMap,
    materialize_shards,
    serve_session,
    start_server,
)
from repro.stream.abr import UniformAdaptive
from repro.stream.dash import SegmentKey
from repro.stream.network import ConstantBandwidth
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video
from tests import segment_damage

NODES = ("node-0", "node-1", "node-2")


class ShardTier:
    """Three live shard servers over a partitioned copy of ``session_db``."""

    def __init__(self, session_db, root, replication_factor=2):
        self.shard_map = ShardMap(nodes=NODES, replication_factor=replication_factor)
        self.node_roots = {node: root / node for node in NODES}
        materialize_shards(session_db.storage, self.node_roots, self.shard_map)
        self.registries = {node: MetricsRegistry() for node in NODES}
        self.handles = {}
        for node in NODES:
            storage = StorageManager(self.node_roots[node], registry=self.registries[node])
            self.handles[node] = start_server(
                storage,
                ServerConfig(node_id=node, shard_map=self.shard_map),
                registry=self.registries[node],
            )
        self.node_urls = {node: self.handles[node].base_url for node in NODES}
        for handle in self.handles.values():
            handle.update_shard_map(self.shard_map, self.node_urls)

    def counter(self, node, name):
        return self.registries[node].counter(name).total()

    def stop(self):
        for handle in self.handles.values():
            handle.stop()


@pytest.fixture()
def tier(session_db, tmp_path):
    tier = ShardTier(session_db, tmp_path)
    yield tier
    tier.stop()


def _config(bandwidth=200_000):
    return SessionConfig(
        policy=UniformAdaptive(),
        bandwidth=ConstantBandwidth(bandwidth),
        predictor="static",
    )


def _trace(session_db, user=0):
    meta = session_db.meta("clip")
    return ViewerPopulation(seed=2).trace(user, duration=meta.duration, rate=10.0)


def _summary_key(report):
    return json.dumps(report.summary(), sort_keys=True)


class TestByteIdentity:
    def test_every_segment_from_every_node(self, session_db, tier):
        manifest = session_db.storage.build_manifest("clip")
        for node in NODES:
            with HttpSegmentClient(tier.node_urls[node]) as client:
                for key in manifest.segment_sizes:
                    wire = client.fetch_segment("clip", key)
                    local = session_db.storage.read_segment(
                        "clip", key.window, key.tile, key.quality
                    )
                    assert wire == local, f"{node} differed on {key.to_path()}"
        # With rf=2 of 3 nodes, every node is a non-owner for ~1/3 of the
        # catalog — the sweep above cannot succeed without peer fetches.
        fetched = sum(tier.counter(node, "serve.peer_fetches") for node in NODES)
        assert fetched > 0

    def test_repeat_non_owned_read_hits_peer_cache(self, session_db, tier):
        manifest = session_db.storage.build_manifest("clip")
        key = next(
            key
            for key in sorted(manifest.segment_sizes, key=lambda k: k.to_path())
            if not tier.shard_map.owns("node-0", "clip", key)
        )
        with HttpSegmentClient(tier.node_urls["node-0"]) as client:
            first = client.fetch_segment("clip", key)
            second = client.fetch_segment("clip", key)
        assert first == second
        assert tier.counter("node-0", "serve.peer_fetches") == 1
        assert tier.counter("node-0", "serve.peer_cache_hits") == 1
        assert tier.counter("node-0", "cache.hits") == 1  # the store's buffer pool


class TestErrorTaxonomy:
    def test_owner_404_is_authoritative(self, tier):
        # A segment that exists nowhere: whichever node answers, the
        # owners' not-found must propagate as 404, not as a transient
        # error that would send clients on a futile failover tour.
        bogus = SegmentKey(999, (0, 0), Quality.HIGH)
        for node in NODES:
            with HttpSegmentClient(tier.node_urls[node]) as client:
                with pytest.raises(SegmentNotFoundError):
                    client.fetch_segment("clip", bogus)

    def test_unreachable_owners_surface_as_transient(self, session_db, tier):
        manifest = session_db.storage.build_manifest("clip")
        key, owners = next(
            (key, tier.shard_map.owners("clip", key))
            for key in sorted(manifest.segment_sizes, key=lambda k: k.to_path())
            if not tier.shard_map.owns("node-0", "clip", key)
        )
        for owner in owners:
            tier.handles[owner].stop()
        # node-0 holds the key's pack for the segments of it that node-0
        # owns, and would answer from it; an outage with no local copy
        # left is the case that must read as "fail over".
        local = StorageManager(tier.node_roots["node-0"])
        segment_damage.delete(local, "clip", (key.window, key.tile, key.quality))
        with HttpSegmentClient(tier.node_urls["node-0"]) as client:
            with pytest.raises(TransientSegmentError):
                client.fetch_segment("clip", key)
        assert tier.counter("node-0", "serve.peer_errors") > 0


class TestDifferentialQoE:
    def test_sharded_tier_matches_single_server_and_sim(self, session_db, tier):
        # The acceptance criterion: same trace, same config, no faults —
        # the sharded tier must be QoE-indistinguishable from both the
        # single-replica wire path and the simulated path.
        trace, config = _trace(session_db), _config()
        sim = session_db.serve("clip", (trace, config))
        single = start_server(session_db.storage)
        try:
            lone = serve_session(single.base_url, "clip", trace, config)
        finally:
            single.stop()
        sharded = serve_session(
            list(tier.node_urls.values()),
            "clip",
            trace,
            config,
            shard_map=tier.shard_map,
            node_urls=tier.node_urls,
        )
        assert _summary_key(sharded) == _summary_key(lone) == _summary_key(sim)

    def test_owner_routing_is_exercised(self, session_db, tier):
        registry = MetricsRegistry()
        serve_session(
            list(tier.node_urls.values()),
            "clip",
            _trace(session_db),
            _config(),
            registry=registry,
            shard_map=tier.shard_map,
            node_urls=tier.node_urls,
        )
        assert registry.counter("failover.shard_routed").total() > 0
        assert registry.counter("failover.shard_unroutable").total() == 0


class TestFailover:
    def test_sessions_complete_with_a_dead_node(self, session_db, tier):
        # rf=2: every segment has a live owner after one node dies, and
        # surviving non-owners can still peer-fetch from it.
        tier.handles["node-0"].stop()
        registry = MetricsRegistry()
        report = serve_session(
            list(tier.node_urls.values()),
            "clip",
            _trace(session_db),
            _config(),
            registry=registry,
            shard_map=tier.shard_map,
            node_urls=tier.node_urls,
        )
        assert report.records
        meta = session_db.meta("clip")
        assert len(report.records) == session_db.storage.build_manifest("clip").window_count
        assert meta.duration > 0


class TestCoherence:
    def test_map_change_unpins_segments_the_node_no_longer_owns(self, session_db):
        server = SegmentServer(
            session_db.storage,
            ServerConfig(
                node_id="node-0",
                shard_map=ShardMap(nodes=("node-0",), replication_factor=1),
                pin_budget_bytes=1 << 20,
            ),
        )
        manifest = session_db.storage.build_manifest("clip")
        for key in manifest.segment_sizes:
            data = session_db.storage.read_segment(
                "clip", key.window, key.tile, key.quality
            )
            assert server.hot.pin(f"/segment/clip/{key.to_path()}", data)
        pinned_before = len(server.hot.paths())
        successor = server.shard_map.with_nodes(NODES)
        dropped = server.update_shard_map(successor)
        assert dropped > 0
        remaining = server.hot.paths()
        assert len(remaining) == pinned_before - dropped
        for path in remaining:
            key = SegmentKey.from_path("/".join(path.split("/")[3:]))
            assert successor.owns("node-0", "clip", key)

    def test_map_change_unpins_by_exact_path(self, db):
        # ``…/0/0/0/low`` is a string prefix of ``…/0/0/0/lowest``, and
        # ownership hashes the quality: the two rungs of one tile can
        # have different owners. Dropping the un-owned ``low`` pin must
        # not take the still-owned ``lowest`` pin with it.
        frames = synthetic_video("venice", width=64, height=32, fps=4.0, duration=3.0, seed=5)
        db.ingest(
            "ladder",
            frames,
            IngestConfig(
                grid=TileGrid(2, 2),
                qualities=(Quality.HIGH, Quality.LOW, Quality.LOWEST),
                gop_frames=4,
                fps=4.0,
            ),
        )
        server = SegmentServer(
            db.storage,
            ServerConfig(
                node_id="node-0",
                shard_map=ShardMap(nodes=("node-0",), replication_factor=1),
                pin_budget_bytes=1 << 20,
            ),
        )
        successor = server.shard_map.with_nodes(NODES)
        owned, lost = set(), set()
        for key in db.storage.build_manifest("ladder").segment_sizes:
            path = f"/segment/ladder/{key.to_path()}"
            data = db.storage.read_segment("ladder", key.window, key.tile, key.quality)
            assert server.hot.pin(path, data)
            (owned if successor.owns("node-0", "ladder", key) else lost).add(path)
        # The fixture must hold the trap: a lost ``low`` beside a kept ``lowest``.
        assert any(path + "est" in owned for path in lost if path.endswith("/low"))
        dropped = server.update_shard_map(successor)
        assert dropped == len(lost)
        assert set(server.hot.paths()) == owned

    def test_stale_map_is_rejected(self, tier):
        stale = ShardMap(nodes=NODES, replication_factor=2, version=0 + 1)
        newer = stale.with_nodes(NODES)  # version 2
        handle = tier.handles["node-0"]
        handle.update_shard_map(newer, tier.node_urls)
        with pytest.raises(ValueError, match="refusing to roll back"):
            handle.update_shard_map(stale, tier.node_urls)

    def test_map_change_keeps_pooled_non_owned_bytes(self, session_db, tier):
        manifest = session_db.storage.build_manifest("clip")
        key = next(
            key
            for key in sorted(manifest.segment_sizes, key=lambda k: k.to_path())
            if not tier.shard_map.owns("node-0", "clip", key)
        )
        successor = tier.shard_map.with_nodes(NODES)
        assert not successor.owns("node-0", "clip", key)
        with HttpSegmentClient(tier.node_urls["node-0"]) as client:
            first = client.fetch_segment("clip", key)
            tier.handles["node-0"].update_shard_map(successor, tier.node_urls)
            second = client.fetch_segment("clip", key)
        # One peer fetch: pooled bytes are versioned and index-checked,
        # so a topology change has nothing to invalidate.
        assert first == second
        assert tier.counter("node-0", "serve.peer_fetches") == 1
        assert tier.counter("node-0", "serve.peer_cache_hits") == 1
        assert tier.counter("node-0", "cache.hits") == 1  # the store's buffer pool


class TestManifestPublication:
    def test_manifest_carries_the_shard_map(self, tier):
        with HttpSegmentClient(tier.node_urls["node-1"]) as client:
            manifest = client.fetch_manifest("clip")
        assert manifest.shard_map == tier.shard_map

    def test_client_adopts_a_published_map(self, tier):
        registry = MetricsRegistry()
        client = FailoverSegmentClient(
            list(tier.node_urls.values()), registry=registry
        )
        try:
            assert client.shard_map is None
            client.fetch_manifest("clip")
            assert client.shard_map == tier.shard_map
            assert registry.counter("failover.shard_map_adopted").total() == 1
        finally:
            client.close()
