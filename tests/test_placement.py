"""Property suite for the consistent-hash shard placement layer.

These tests pin the four contracts the sharded delivery fabric rests on:

* **Determinism** — the same map yields the same owners in every process,
  under every ``PYTHONHASHSEED``, regardless of node construction order.
* **Bounded movement** — adding or removing one node migrates at most a
  small multiple of ``keys / nodes`` keys; everything else stays put.
* **Full coverage** — every key always has exactly
  ``min(replication_factor, len(nodes))`` distinct live owners; routing
  never loses a key.
* **Partitioning** — ``materialize_shards`` gives every node every
  committed version's metadata but only its owned segment payloads,
  byte-identical; crash debris stays behind.
"""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import IngestConfig, Quality, TileGrid
from repro.core.storage import StorageManager
from repro.serve.placement import (
    HashRing,
    ShardMap,
    materialize_shards,
    stable_hash,
)
from repro.stream.dash import SegmentKey
from repro.workloads.videos import synthetic_video

# -- strategies ------------------------------------------------------------

node_sets = st.lists(
    st.integers(min_value=0, max_value=63).map(lambda i: f"node-{i}"),
    min_size=1,
    max_size=8,
    unique=True,
)

segment_keys = st.builds(
    SegmentKey,
    st.integers(min_value=0, max_value=500),
    st.tuples(st.integers(0, 7), st.integers(0, 7)),
    st.sampled_from(list(Quality)),
)

shard_maps = st.builds(
    ShardMap,
    nodes=node_sets.map(tuple),
    replication_factor=st.integers(min_value=1, max_value=4),
    version=st.integers(min_value=1, max_value=9),
)

# A fixed key population for movement bounds: large enough for the law of
# large numbers, small enough to keep the suite fast.
KEY_POPULATION = [
    SegmentKey(window, (row, col), quality)
    for window in range(25)
    for row, col in ((0, 0), (0, 1), (1, 0), (1, 1))
    for quality in (Quality.HIGH, Quality.LOW)
]


class TestStableHash:
    def test_pinned_golden_values(self):
        # Literals computed once and pinned: any change to the hash breaks
        # every deployed shard map, so it must never drift.
        assert stable_hash("") == 15724779818122431245
        assert stable_hash("clip/0/0/0/high") == 6197821834217773500
        assert stable_hash("node-0#0") == 8472445936761618833

    def test_is_sha1_prefix(self):
        import hashlib

        token = "any/segment/token"
        expected = int.from_bytes(hashlib.sha1(token.encode()).digest()[:8], "big")
        assert stable_hash(token) == expected

    @given(st.text(max_size=64))
    def test_fits_in_64_bits(self, token):
        assert 0 <= stable_hash(token) < 2**64

    def test_survives_hash_randomisation(self):
        # Python's own hash() is salted per process; placement must not be.
        # Run the same owner computation under two different seeds and
        # compare against the in-process answer.
        program = (
            "from repro.serve.placement import ShardMap\n"
            "from repro.stream.dash import SegmentKey\n"
            "from repro.video.quality import Quality\n"
            "m = ShardMap(nodes=('node-0', 'node-1', 'node-2'), replication_factor=2)\n"
            "keys = [SegmentKey(w, (0, 1), Quality.HIGH) for w in range(4)]\n"
            "print([m.owners('clip', k) for k in keys])\n"
        )
        local = ShardMap(nodes=("node-0", "node-1", "node-2"), replication_factor=2)
        expected = repr(
            [local.owners("clip", SegmentKey(w, (0, 1), Quality.HIGH)) for w in range(4)]
        )
        src = Path(__file__).resolve().parent.parent / "src"
        for seed in ("0", "12345"):
            result = subprocess.run(
                [sys.executable, "-c", program],
                capture_output=True,
                text=True,
                env={"PYTHONPATH": str(src), "PYTHONHASHSEED": seed, "PATH": "/usr/bin:/bin"},
                check=True,
            )
            assert result.stdout.strip() == expected


class TestHashRing:
    def test_rejects_empty_node_set(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_rejects_duplicate_nodes(self):
        with pytest.raises(ValueError):
            HashRing(["a", "b", "a"])

    def test_rejects_non_positive_owner_count(self):
        with pytest.raises(ValueError):
            HashRing(["a", "b"]).owners("k", 0)

    def test_owner_count_clamps_to_node_count(self):
        ring = HashRing(["a", "b", "c"])
        owners = ring.owners("some-key", 10)
        assert len(owners) == 3
        assert sorted(owners) == ["a", "b", "c"]

    @given(nodes=node_sets, count=st.integers(1, 6), token=st.text(max_size=40))
    def test_owners_distinct_subset_exact_size(self, nodes, count, token):
        owners = HashRing(nodes).owners(token, count)
        assert len(owners) == min(count, len(nodes))
        assert len(set(owners)) == len(owners)
        assert set(owners) <= set(nodes)

    @given(nodes=st.permutations(["n0", "n1", "n2", "n3", "n4"]))
    def test_construction_order_is_irrelevant(self, nodes):
        shuffled = HashRing(nodes)
        canonical = HashRing(["n0", "n1", "n2", "n3", "n4"])
        for window in range(10):
            token = f"v/{window}/0/0/high"
            assert shuffled.owners(token, 2) == canonical.owners(token, 2)

    def test_vnodes_spread_load(self):
        # 4 nodes x 1000 keys: every node should carry a non-trivial share.
        # Deterministic (fixed hash), so an exact floor is safe to pin.
        ring = HashRing(["a", "b", "c", "d"])
        share = {node: 0 for node in ring.nodes}
        for index in range(1000):
            share[ring.owners(f"key-{index}", 1)[0]] += 1
        assert min(share.values()) >= 50  # >= 5% each; perfect split is 250


class TestShardMapDeterminism:
    @given(shard_map=shard_maps, key=segment_keys)
    def test_identical_maps_agree(self, shard_map, key):
        twin = ShardMap(
            nodes=shard_map.nodes,
            replication_factor=shard_map.replication_factor,
            version=shard_map.version,
        )
        assert shard_map.owners("clip", key) == twin.owners("clip", key)

    def test_pinned_golden_owners(self):
        shard_map = ShardMap(nodes=("node-0", "node-1", "node-2"), replication_factor=2)
        golden = {
            0: ("node-2", "node-0"),
            1: ("node-0", "node-2"),
            2: ("node-2", "node-1"),
            3: ("node-1", "node-2"),
        }
        for window, expected in golden.items():
            key = SegmentKey(window, (0, 1), Quality.HIGH)
            assert shard_map.owners("clip", key) == expected

    def test_segment_token_excludes_version(self):
        # Reingest bumps segment versions; owners must not move when it does.
        key = SegmentKey(3, (1, 0), Quality.LOW)
        token = ShardMap.segment_token("clip", key)
        assert token == f"clip/{key.to_path()}"
        assert "v" + "1" not in token.split("/")[-1]  # quality label only


class TestShardMapCoverage:
    @given(shard_map=shard_maps, key=segment_keys)
    def test_every_key_has_exact_owner_count(self, shard_map, key):
        owners = shard_map.owners("clip", key)
        assert len(owners) == min(shard_map.replication_factor, len(shard_map.nodes))
        assert len(set(owners)) == len(owners)
        assert set(owners) <= set(shard_map.nodes)

    @given(shard_map=shard_maps, key=segment_keys, video=st.sampled_from(["a", "clip"]))
    def test_routing_never_loses_a_key(self, shard_map, key, video):
        owners = shard_map.owners(video, key)
        assert owners, "every key must route somewhere"
        primary = owners[0]
        assert shard_map.owns(primary, video, key)

    @given(shard_map=shard_maps, key=segment_keys)
    def test_owns_agrees_with_owners(self, shard_map, key):
        owners = set(shard_map.owners("clip", key))
        for node in shard_map.nodes:
            assert shard_map.owns(node, "clip", key) == (node in owners)


class TestBoundedMovement:
    @settings(max_examples=25)
    @given(width=st.integers(min_value=2, max_value=6))
    def test_single_join_moves_few_keys(self, width):
        nodes = tuple(f"node-{i}" for i in range(width))
        before = ShardMap(nodes=nodes, replication_factor=2)
        after = before.with_nodes(nodes + ("node-new",))
        moved = sum(
            1
            for key in KEY_POPULATION
            if set(before.owners("clip", key)) != set(after.owners("clip", key))
        )
        # The newcomer takes ~ rf * keys / (n + 1); allow 3x for variance.
        budget = 3.0 * before.replication_factor * len(KEY_POPULATION) / (width + 1)
        assert moved <= budget

    @settings(max_examples=25)
    @given(width=st.integers(min_value=3, max_value=7))
    def test_single_leave_moves_few_keys(self, width):
        nodes = tuple(f"node-{i}" for i in range(width))
        before = ShardMap(nodes=nodes, replication_factor=2)
        after = before.with_nodes(nodes[:-1])
        moved = sum(
            1
            for key in KEY_POPULATION
            if set(before.owners("clip", key)) != set(after.owners("clip", key))
        )
        budget = 3.0 * before.replication_factor * len(KEY_POPULATION) / width
        assert moved <= budget

    @given(width=st.integers(min_value=2, max_value=6))
    def test_surviving_owner_sets_only_shrink_or_gain_newcomer(self, width):
        # A join may hand keys *to* the new node but must never shuffle
        # ownership between two old nodes.
        nodes = tuple(f"node-{i}" for i in range(width))
        before = ShardMap(nodes=nodes, replication_factor=2)
        after = before.with_nodes(nodes + ("node-new",))
        for key in KEY_POPULATION[:50]:
            old = set(before.owners("clip", key))
            new = set(after.owners("clip", key))
            assert new - old <= {"node-new"}


class TestShardMapLifecycle:
    def test_with_nodes_bumps_version(self):
        shard_map = ShardMap(nodes=("a", "b"), replication_factor=2, version=4)
        successor = shard_map.with_nodes(("a", "b", "c"))
        assert successor.version == 5
        assert successor.replication_factor == 2

    def test_pickle_round_trip_with_cached_ring(self):
        shard_map = ShardMap(nodes=("a", "b", "c"))
        key = SegmentKey(1, (1, 1), Quality.LOW)
        shard_map.owners("clip", key)  # force the lazy ring cache
        clone = pickle.loads(pickle.dumps(shard_map))
        assert clone == shard_map
        assert clone.owners("clip", key) == shard_map.owners("clip", key)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nodes": ()},
            {"nodes": ("a", "a")},
            {"nodes": ("a",), "replication_factor": 0},
            {"nodes": ("a",), "version": 0},
        ],
    )
    def test_validation_rejects_bad_maps(self, kwargs):
        with pytest.raises(ValueError):
            ShardMap(**kwargs)


class TestMaterializeShards:
    def test_partitions_segments_and_replicates_metadata(self, session_db, tmp_path):
        storage = session_db.storage
        shard_map = ShardMap(nodes=("node-0", "node-1", "node-2"), replication_factor=2)
        node_roots = {node: tmp_path / node for node in shard_map.nodes}
        placed = materialize_shards(storage, node_roots, shard_map)

        # Other session-scoped tests may have stored derived videos into
        # this catalog; the partitioner covers every listed video, so the
        # audit below must too.
        root = Path(storage.catalog.root)
        manifest = storage.build_manifest("clip")
        total_expected = 0
        for name in storage.list_videos():
            packs = storage.segment_files(name)
            for entry in sorted((root / name).rglob("*")):
                if not entry.is_file():
                    continue
                relative = entry.relative_to(root)
                if entry.parent.name == "segments":
                    # A pack goes to every node owning one of its segments.
                    owners = [
                        node for key in packs[entry] for node in shard_map.owners(name, key)
                    ]
                    total_expected += len(owners)
                    for node in shard_map.nodes:
                        copy = node_roots[node] / relative
                        if node in owners:
                            assert copy.read_bytes() == entry.read_bytes()
                        else:
                            assert not copy.exists()
                else:
                    for node in shard_map.nodes:
                        assert (
                            node_roots[node] / relative
                        ).read_bytes() == entry.read_bytes()
        assert sum(placed.values()) == total_expected
        assert total_expected >= 2 * len(manifest.segment_sizes)
        # No node is left empty: a node that owns nothing would serve
        # the whole catalog by peer fetch and hide a broken ring.
        assert sorted(placed) == sorted(shard_map.nodes)
        assert min(placed.values()) > 0

    def test_every_node_can_build_the_manifest(self, session_db, tmp_path):
        from repro.core.storage import StorageManager

        storage = session_db.storage
        shard_map = ShardMap(nodes=("node-0", "node-1"), replication_factor=1)
        node_roots = {node: tmp_path / node for node in shard_map.nodes}
        materialize_shards(storage, node_roots, shard_map)
        reference = storage.build_manifest("clip")
        for node in shard_map.nodes:
            local = StorageManager(node_roots[node]).build_manifest("clip")
            assert local.segment_sizes == reference.segment_sizes

    def test_missing_node_root_is_an_error(self, session_db, tmp_path):
        shard_map = ShardMap(nodes=("node-0", "node-1"))
        with pytest.raises(ValueError):
            materialize_shards(session_db.storage, {"node-0": tmp_path}, shard_map)

    def test_crash_debris_stays_behind(self, tmp_path):
        """Shards come from the committed index: an interrupted commit (its
        unmarked metadata and its packs) and a torn publish stay on the
        source, so every node root is fsck-clean and holds exactly the
        committed packs holding a segment it owns."""
        storage = StorageManager(tmp_path / "source")
        config = IngestConfig(
            grid=TileGrid(2, 2), qualities=(Quality.HIGH, Quality.LOW), gop_frames=4, fps=4.0
        )
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=1.0, seed=3)
        )
        storage.ingest("clip", iter(frames), config, workers=1)
        storage.append("clip", iter(frames), workers=1)  # v2 writes the new GOP's pack
        catalog = storage.catalog
        catalog.marker_path("clip", 2).unlink()  # ... but never committed
        (catalog.video_dir("clip") / "metadata_v3.mp4.tmp").write_bytes(b"torn")
        committed = storage.segment_files("clip")  # the one committed version's packs
        assert len(committed) < len(list(catalog.segments_dir("clip").iterdir()))

        shard_map = ShardMap(nodes=("node-0", "node-1", "node-2"))
        roots = {node: tmp_path / node for node in shard_map.nodes}
        materialize_shards(storage, roots, shard_map)
        for node, root in roots.items():
            assert StorageManager(root).fsck()["clean"], node
            held = {path.name for path in (root / "clip" / "segments").iterdir()}
            assert held == {
                path.name
                for path, segments in committed.items()
                if any(shard_map.owns(node, "clip", key) for key in segments)
            }
