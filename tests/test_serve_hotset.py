"""The pinned hot set: admission, eviction, identity, and the server path.

The load-bearing test is byte identity under a poisoned backend: once a
segment is pinned, the storage layer is mutated underneath the server
and the wire must keep returning the originally-pinned bytes — proof the
fast path genuinely never touches storage, not merely that it is fast.
"""

from __future__ import annotations

import os
from collections import defaultdict
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.chaos import ChaosStorageManager, FaultPlan, FaultRule

from repro.control import (
    ControlPlan,
    Forecast,
    NodePlan,
    NodeState,
    Planner,
    catalog_from_storage,
    warm_slice,
)
from repro.core.errors import SegmentNotFoundError
from repro.core.storage import StorageManager, checksum_hex, segment_checksum
from repro.obs import MetricsRegistry
from repro.serve import HotSet, HttpSegmentClient, ServerConfig, start_server
from repro.serve.placement import ShardMap
from repro.serve.server import SegmentServer
from repro.stream.dash import SegmentKey
from repro.video.quality import Quality
from tests import segment_damage


def make_hotset(budget: int, threshold: int = 3) -> HotSet:
    return HotSet(budget, threshold, MetricsRegistry())


class TestAdmission:
    def test_zero_budget_disables_everything(self):
        hot = make_hotset(0)
        assert not hot.enabled
        assert not hot.record("/a", b"data")
        assert not hot.pin("/a", b"data")
        assert hot.lookup("/a") is None

    def test_record_promotes_at_threshold(self):
        hot = make_hotset(1024, threshold=3)
        assert not hot.record("/a", b"x" * 10)
        assert not hot.record("/a", b"x" * 10)
        assert hot.record("/a", b"x" * 10)  # third hit crosses the threshold
        assert "/a" in hot
        assert hot.lookup("/a") is not None

    def test_oversized_body_is_rejected(self):
        hot = make_hotset(100)
        assert not hot.pin("/big", b"x" * 101)
        assert len(hot) == 0
        assert hot.bytes_pinned == 0

    def test_repinning_is_idempotent(self):
        hot = make_hotset(1024)
        assert hot.pin("/a", b"x" * 10)
        assert hot.pin("/a", b"x" * 10)
        assert len(hot) == 1
        assert hot.bytes_pinned == 10

    def test_candidate_tracking_is_bounded(self, monkeypatch):
        monkeypatch.setattr("repro.serve.hotset.MAX_TRACKED", 4)
        hot = make_hotset(1024, threshold=2)
        for i in range(16):
            hot.record(f"/cold/{i}", b"x")
        assert len(hot._counts) <= 4
        # A genuinely hot path still promotes after the sweep.
        hot.record("/hot", b"x")
        assert hot.record("/hot", b"x")


class TestEviction:
    def test_colder_entries_make_room_for_hotter(self):
        hot = make_hotset(20)
        hot.pin("/cold", b"x" * 20)
        assert hot.lookup("/cold").hits == 1
        # Heat 5 beats the victim's 1 observed hit.
        assert hot.pin("/hot", b"y" * 20, heat=5)
        assert "/hot" in hot
        assert "/cold" not in hot
        assert hot.bytes_pinned == 20

    def test_hotter_incumbent_is_not_churned(self):
        hot = make_hotset(20)
        hot.pin("/popular", b"x" * 20)
        for _ in range(10):
            hot.lookup("/popular")
        assert not hot.pin("/oneoff", b"y" * 20, heat=3)
        assert "/popular" in hot

    def test_eviction_order_is_deterministic(self):
        hot = make_hotset(30)
        hot.pin("/a", b"x" * 10)
        hot.pin("/b", b"y" * 10)
        hot.pin("/c", b"z" * 10)
        hot.lookup("/b")
        hot.lookup("/c")
        # /a has 0 hits; ties would break by path, but here the single
        # coldest entry is unambiguous.
        assert hot.pin("/d", b"w" * 10, heat=1)
        assert "/a" not in hot
        assert {"/b", "/c", "/d"} <= set(hot._entries)

    def test_budget_accounting_survives_eviction_cycles(self):
        hot = make_hotset(100)
        for round_number in range(1, 6):
            hot.pin(f"/r{round_number}", b"x" * 60, heat=round_number * 10)
        assert hot.bytes_pinned == sum(e.body_length for e in hot._entries.values())
        assert hot.bytes_pinned <= 100


class TestHeat:
    """``heat()`` is the one ordering shared by eviction, the control
    plane's pre-warm ranking, and promotion — these tests pin its
    composition rules so the planner and the evictor can't disagree."""

    def test_heat_is_base_plus_observed(self):
        hot = make_hotset(1024)
        assert hot.heat("/a") == 0
        hot.set_base_heat({"/a": 10})
        assert hot.heat("/a") == 10
        hot.pin("/a", b"x" * 10)
        hot.lookup("/a")
        hot.lookup("/a")
        assert hot.heat("/a") == 12  # base 10 + 2 pinned hits

    def test_candidate_counts_feed_heat(self):
        hot = make_hotset(1024, threshold=5)
        hot.record("/b", b"x")
        hot.record("/b", b"x")
        assert hot.heat("/b") == 2  # not pinned yet: cold-path count

    def test_set_base_heat_replaces_not_merges(self):
        hot = make_hotset(1024)
        hot.set_base_heat({"/old": 7})
        hot.set_base_heat({"/new": 3})
        assert hot.heat("/old") == 0
        assert hot.heat("/new") == 3

    def test_base_heat_accelerates_promotion(self):
        hot = make_hotset(1024, threshold=3)
        hot.set_base_heat({"/predicted": 2})
        # One observed hit + base heat 2 crosses threshold 3.
        assert hot.record("/predicted", b"x" * 4)
        assert "/predicted" in hot

    def test_base_heat_protects_against_eviction(self):
        hot = make_hotset(20)
        hot.pin("/protected", b"x" * 20)
        hot.set_base_heat({"/protected": 100})
        assert not hot.pin("/challenger", b"y" * 20, heat=50)
        assert "/protected" in hot

    def test_set_budget_shrink_evicts_coldest_first(self):
        hot = make_hotset(30)
        hot.pin("/a", b"x" * 10)
        hot.pin("/b", b"y" * 10)
        hot.pin("/c", b"z" * 10)
        hot.lookup("/b")
        hot.lookup("/c")
        hot.set_budget(20)
        assert "/a" not in hot  # zero heat: the first victim
        assert {"/b", "/c"} <= set(hot.paths())
        assert hot.bytes_pinned == 20

    def test_set_budget_grow_enables_a_cold_set(self):
        hot = make_hotset(0)
        assert not hot.enabled
        hot.set_budget(1024)
        assert hot.enabled
        assert hot.pin("/a", b"x" * 10)

    def test_negative_budget_rejected(self):
        hot = make_hotset(10)
        with pytest.raises(ValueError, match=">= 0"):
            hot.set_budget(-1)


class TestInvalidation:
    def test_unpin_prefix_drops_entries_and_candidates(self):
        hot = make_hotset(1024, threshold=5)
        hot.pin("/segment/clip/0/0/0/high", b"a" * 10)
        hot.pin("/segment/clip/1/0/0/high", b"b" * 10)
        hot.pin("/segment/other/0/0/0/high", b"c" * 10)
        hot.record("/segment/clip/2/0/0/low", b"d")
        dropped = hot.unpin_prefix("/segment/clip/")
        assert dropped == 2
        assert len(hot) == 1
        assert hot.bytes_pinned == 10
        assert "/segment/clip/2/0/0/low" not in hot._counts


class TestMetrics:
    def test_counters_and_gauges_track_the_lifecycle(self):
        registry = MetricsRegistry()
        hot = HotSet(20, 1, registry)
        hot.pin("/a", b"x" * 20)
        hot.lookup("/a")
        hot.lookup("/a")
        hot.pin("/b", b"y" * 20, heat=5)  # evicts /a
        hot.pin("/c", b"z" * 21)  # over budget: rejected
        snapshot = registry.snapshot()
        assert snapshot["counters"]["serve.pin_hits"] == 2
        assert snapshot["counters"]["serve.pin_promotions"] == 2
        assert snapshot["counters"]["serve.pin_evictions"] == 1
        assert snapshot["counters"]["serve.pin_rejects"] == 1
        assert snapshot["gauges"]["serve.pin_entries"] == 1
        assert snapshot["gauges"]["serve.pin_bytes"] == 20


@pytest.fixture()
def pinned_server(session_db):
    # A fresh registry per test: the session-scoped storage's registry
    # would otherwise accumulate counters across tests.
    handle = start_server(
        session_db.storage,
        ServerConfig(
            drain_timeout=2.0,
            pin_budget_bytes=32 * 1024 * 1024,
            pin_threshold=1,
            prewarm=("clip",),
        ),
        registry=MetricsRegistry(),
    )
    yield handle
    handle.stop()


class TestServerIntegration:
    def test_prewarm_pins_the_catalog(self, session_db, pinned_server):
        manifest = session_db.storage.build_manifest("clip")
        hot = pinned_server.server.hot
        assert len(hot) == len(manifest.segment_sizes)
        assert hot.bytes_pinned == sum(manifest.segment_sizes.values())

    def test_pinned_bytes_survive_a_poisoned_backend(self, session_db, pinned_server):
        """Pin hits must come from RAM: corrupt the storage read path and
        the wire output must not change."""
        manifest = session_db.storage.build_manifest("clip")
        expected = {
            key: session_db.storage.read_segment(
                "clip", key.window, key.tile, key.quality
            )
            for key in manifest.segment_sizes
        }
        server = pinned_server.server

        def poisoned(*args, **kwargs):
            raise AssertionError("pinned serve must not touch storage")

        original = server.storage.read_segment
        server.storage.read_segment = poisoned
        try:
            with HttpSegmentClient(pinned_server.base_url) as client:
                for key, data in expected.items():
                    assert client.fetch_segment("clip", key) == data
        finally:
            server.storage.read_segment = original
        snapshot = client_free_snapshot(server)
        assert snapshot["counters"]["serve.pin_hits"] == len(expected)

    def test_threshold_promotion_over_the_wire(self, session_db):
        handle = start_server(
            session_db.storage,
            ServerConfig(
                drain_timeout=2.0, pin_budget_bytes=32 * 1024 * 1024, pin_threshold=2
            ),
            registry=MetricsRegistry(),
        )
        try:
            manifest = session_db.storage.build_manifest("clip")
            key = min(manifest.segment_sizes, key=lambda k: k.to_path())
            with HttpSegmentClient(handle.base_url) as client:
                client.fetch_segment("clip", key)
                assert len(handle.server.hot) == 0
                client.fetch_segment("clip", key)
                assert len(handle.server.hot) == 1
                client.fetch_segment("clip", key)
            snapshot = client_free_snapshot(handle.server)
            assert snapshot["counters"]["serve.pin_hits"] == 1
        finally:
            handle.stop()

    def test_query_strings_hit_the_same_pin(self, session_db, pinned_server):
        manifest = session_db.storage.build_manifest("clip")
        key = min(manifest.segment_sizes, key=lambda k: k.to_path())
        expected = session_db.storage.read_segment(
            "clip", key.window, key.tile, key.quality
        )
        import urllib.request

        url = f"{pinned_server.base_url}/segment/clip/{key.to_path()}?session=7"
        with urllib.request.urlopen(url) as response:
            assert response.read() == expected

    def test_connection_budget_still_applies_to_pinned_hits(self, session_db):
        """Pinned hits bypass the in-flight ceiling but not the
        per-connection request budget — 429 shedding must keep working."""
        from repro.core.errors import TransientSegmentError

        handle = start_server(
            session_db.storage,
            ServerConfig(
                drain_timeout=2.0,
                pin_budget_bytes=32 * 1024 * 1024,
                pin_threshold=1,
                prewarm=("clip",),
                max_connection_requests=3,
            ),
        )
        try:
            manifest = session_db.storage.build_manifest("clip")
            key = min(manifest.segment_sizes, key=lambda k: k.to_path())
            with HttpSegmentClient(handle.base_url) as client:
                for _ in range(3):
                    client.fetch_segment("clip", key)
                with pytest.raises(TransientSegmentError) as caught:
                    client.fetch_segment("clip", key)
                assert caught.value.status == 429
        finally:
            handle.stop()


def _demand(*videos: str) -> dict:
    return {
        video: Forecast(key=video, level=1.0, trend=0.0, predicted=1.0, observations=1)
        for video in videos
    }


def _plan(forecasts, catalog, budget: int, version: int = 1) -> ControlPlan:
    plan = Planner().plan(forecasts, catalog, (NodeState("", pin_budget_bytes=budget),))
    return ControlPlan(version=version, nodes=plan.nodes)


class TestPrewarmWeights:
    def test_weights_pin_hottest_first(self, session_db):
        """With a budget too small for everything, a plan slice whose
        catalog weights one tile far above the rest pins only that tile."""
        storage = session_db.storage
        manifest = storage.build_manifest("clip")
        catalog = {
            "clip": tuple(
                (
                    f"/segment/clip/{key.to_path()}",
                    1.0 if key.tile == (0, 0) else 0.01,
                    size,
                )
                for key, size in manifest.segment_sizes.items()
            )
        }
        hot_tile_bytes = sum(
            size for key, size in manifest.segment_sizes.items() if key.tile == (0, 0)
        )
        server = SegmentServer(
            storage, ServerConfig(pin_threshold=1), registry=MetricsRegistry()
        )
        result = server.apply_control_plan(_plan(_demand("clip"), catalog, hot_tile_bytes))
        assert result["pinned"] > 0
        for path in server.hot.paths():
            key = SegmentKey.from_path(path.removeprefix("/segment/clip/"))
            assert key.tile == (0, 0)


class TestOnePrewarmPath:
    """Startup prewarm, control plans and ``repro control --prewarm``
    rank with the planner and pin through one server method."""

    def test_startup_prewarm_is_the_planners_slice_at_demand_one(self, session_db):
        storage = session_db.storage
        manifest = storage.build_manifest("clip")
        budget = sum(manifest.segment_sizes.values()) // 2  # not everything fits
        expected = _plan(_demand("clip"), catalog_from_storage(storage), budget)
        expected = expected.node("").prewarm
        assert expected
        handle = start_server(
            storage,
            ServerConfig(pin_budget_bytes=budget, pin_threshold=1, prewarm=("clip",)),
            registry=MetricsRegistry(),
        )
        try:
            hot = handle.server.hot
            assert handle.server._startup_prewarm() == expected  # paths and heats
            assert sorted(hot.paths()) == sorted(path for path, _ in expected)
            # A startup pin is not a refreshed prediction: no base heat.
            assert all(hot.heat(path) == 0 for path, _ in expected)
            # Startup is not a control plan: no apply, no version fence.
            assert handle.control_state()["version"] == 0
            applies = handle.server.metrics.counter("serve.control_applies")
            assert applies.total() == 0
        finally:
            handle.stop()

    def test_runtime_promotion_displaces_an_unused_startup_pin(self, session_db):
        """A budget full of startup pins still admits a cold path that
        crosses the promotion threshold: the unused pins are colder."""
        storage = session_db.storage
        manifest = storage.build_manifest("clip")
        half = sum(manifest.segment_sizes.values()) // 2
        plan = _plan(_demand("clip"), catalog_from_storage(storage), half)
        warmed = dict(plan.node("").prewarm)
        sizes = {
            f"/segment/clip/{key.to_path()}": size
            for key, size in manifest.segment_sizes.items()
        }
        budget = sum(sizes[path] for path in warmed)  # the slice fills it exactly
        cold = next(
            key for key in sorted(manifest.segment_sizes, key=SegmentKey.to_path)
            if f"/segment/clip/{key.to_path()}" not in warmed
        )
        handle = start_server(
            storage,
            ServerConfig(pin_budget_bytes=budget, pin_threshold=2, prewarm=("clip",)),
            registry=MetricsRegistry(),
        )
        try:
            hot = handle.server.hot
            assert set(hot.paths()) == set(warmed)
            with HttpSegmentClient(handle.base_url) as client:
                client.fetch_segment("clip", cold)
                client.fetch_segment("clip", cold)
            assert f"/segment/clip/{cold.to_path()}" in hot
            assert hot.bytes_pinned <= budget
        finally:
            handle.stop()

    def test_prewarm_pins_carry_the_index_checksum(self, session_db, monkeypatch):
        """A prewarm pins bytes its read checked against the index, so each
        pin sends the index's checksum and no body is hashed again."""
        from repro.serve import hotset

        def no_hash(body):
            raise AssertionError("a prewarm pin hashed its body")

        monkeypatch.setattr(hotset, "checksum_hex", no_hash)
        server = SegmentServer(
            session_db.storage, ServerConfig(pin_budget_bytes=1 << 20), registry=MetricsRegistry()
        )
        manifest = session_db.storage.build_manifest("clip")
        paths = [f"/segment/clip/{key.to_path()}" for key in manifest.segment_sizes]
        plan = ControlPlan(
            version=1, nodes=(NodePlan("", None, 1 << 20, tuple((path, 5) for path in paths)),)
        )
        assert server.apply_control_plan(plan)["pinned"] == len(paths)
        for path in paths:
            entry = server.hot.lookup(path)
            header = f"X-Checksum: {checksum_hex(entry.body)}".encode()
            assert header in b"".join(entry.parts(True)), path

    def test_pin_loop_skips_unreadable_paths_and_propagates_bugs(self):
        class Storage:
            def meta(self, name):
                if name == "gone":
                    raise SegmentNotFoundError(f"{name} is not stored")
                if name == "bug":
                    raise TypeError("a programming error")
                entry = SimpleNamespace(checksum=segment_checksum(b"x" * 8))
                return SimpleNamespace(version=1, entries=defaultdict(lambda: entry))

            def read_segments(self, name, keys, version):
                return [b"x" * 8 for _ in keys]

        registry = MetricsRegistry()
        server = SegmentServer(
            Storage(), ServerConfig(pin_budget_bytes=1024), registry=registry
        )

        def slice_of(*paths):
            return ControlPlan(
                version=1,
                nodes=(NodePlan("", None, 1024, tuple((path, 5) for path in paths)),),
            )

        result = server.apply_control_plan(
            slice_of(
                "/segment/gone/0/0/0/high", "/not/a/segment", "/segment/ok/0/0/0/high"
            )
        )
        assert result["pinned"] == 1
        assert server.hot.paths() == ["/segment/ok/0/0/0/high"]
        counters = registry.snapshot()["counters"]
        assert counters["serve.prewarm_skipped{video=gone}"] == 1
        assert counters["serve.prewarm_skipped{video=}"] == 1
        with pytest.raises(TypeError, match="programming error"):
            server.apply_control_plan(slice_of("/segment/bug/0/0/0/high"))

    def test_shard_node_startup_prewarm_pins_only_what_it_owns(self, session_db):
        storage = session_db.storage
        shard_map = ShardMap(nodes=("node-0", "node-1"), replication_factor=1)
        manifest = storage.build_manifest("clip")
        owned = {
            f"/segment/clip/{key.to_path()}"
            for key in manifest.segment_sizes
            if shard_map.owns("node-0", "clip", key)
        }
        assert 0 < len(owned) < len(manifest.segment_sizes)
        handle = start_server(
            storage,
            ServerConfig(
                pin_budget_bytes=32 * 1024 * 1024,
                pin_threshold=1,
                prewarm=("clip",),
                node_id="node-0",
                shard_map=shard_map,
            ),
            registry=MetricsRegistry(),
        )
        try:
            assert set(handle.server.hot.paths()) == owned
        finally:
            handle.stop()

    def test_shard_node_startup_prewarm_fits_its_budget_over_owned_keys(
        self, session_db
    ):
        """A budget below the node's owned share is filled greedily,
        hottest first, over the segments the node owns: a peer's segment
        never takes room in the fit."""
        storage = session_db.storage
        shard_map = ShardMap(nodes=("node-0", "node-1"), replication_factor=1)
        manifest = storage.build_manifest("clip")
        sizes = {
            f"/segment/clip/{key.to_path()}": size
            for key, size in manifest.segment_sizes.items()
            if shard_map.owns("node-0", "clip", key)
        }
        ranking = [path for path, _ in warm_slice({"clip": manifest}) if path in sizes]
        budget = sum(sizes.values()) // 2
        expected, used = [], 0
        for path in ranking:
            if used + sizes[path] <= budget:  # a smaller segment may still fit
                expected.append(path)
                used += sizes[path]
        fit_over_all = [path for path, _ in warm_slice({"clip": manifest}, budget)]
        assert expected != [path for path in fit_over_all if path in sizes]
        handle = start_server(
            storage,
            ServerConfig(
                pin_budget_bytes=budget,
                pin_threshold=1,
                prewarm=("clip",),
                node_id="node-0",
                shard_map=shard_map,
            ),
            registry=MetricsRegistry(),
        )
        try:
            assert [path for path, _ in handle.server._startup_prewarm()] == expected
            assert sorted(handle.server.hot.paths()) == sorted(expected)
        finally:
            handle.stop()

    def test_runtime_promotion_pins_only_owned_segments(self, session_db):
        """The cold path's promotion states the ownership rule too: a
        peer's segment served here is never pinned here."""
        storage = session_db.storage
        shard_map = ShardMap(nodes=("node-0", "node-1"), replication_factor=1)
        keys = sorted(storage.build_manifest("clip").segment_sizes, key=SegmentKey.to_path)
        peers = [key for key in keys if not shard_map.owns("node-0", "clip", key)]
        mine = [key for key in keys if shard_map.owns("node-0", "clip", key)]
        handle = start_server(
            storage,
            ServerConfig(
                pin_budget_bytes=1 << 20,
                pin_threshold=1,
                node_id="node-0",
                shard_map=shard_map,
            ),
            registry=MetricsRegistry(),
        )
        try:
            with HttpSegmentClient(handle.base_url) as client:
                client.fetch_segment("clip", peers[0])
                client.fetch_segment("clip", mine[0])
            assert handle.server.hot.paths() == [f"/segment/clip/{mine[0].to_path()}"]
        finally:
            handle.stop()


class TestPinLoopReads:
    """The pin loop reads each video in one ``read_segments`` walk: one
    version lookup, one open per pack, every range checked, and the
    buffer pool left to the cold path."""

    def _ingest(self, db, *names):
        """A fresh manager (own registry, empty pool) over ``names``."""
        for name in names:
            _ingest_small(db, name)
        return StorageManager(db.storage.catalog.root)

    @staticmethod
    def _paths(storage, *names) -> list[str]:
        return [
            f"/segment/{name}/{key.to_path()}"
            for name in names
            for key in sorted(
                storage.build_manifest(name).segment_sizes, key=SegmentKey.to_path
            )
        ]

    def _pin(self, storage, *names, paths=None):
        """Pin every segment of ``names`` (or ``paths``) through a
        control-plan slice; returns (server, result, the slice's paths)."""
        paths = paths or self._paths(storage, *names)
        server = SegmentServer(
            storage, ServerConfig(pin_budget_bytes=32 * 1024 * 1024), registry=MetricsRegistry()
        )
        plan = ControlPlan(
            version=1,
            nodes=(NodePlan("", None, 32 * 1024 * 1024, tuple((p, 5) for p in paths)),),
        )
        return server, server.apply_control_plan(plan), paths

    @staticmethod
    def _skipped(server) -> dict:
        counters = server.metrics.snapshot()["counters"]
        return {k: v for k, v in counters.items() if k.startswith("serve.prewarm_skipped")}

    def test_corrupt_range_is_skipped_while_its_pack_mates_pin(self, db):
        storage = self._ingest(db, "vr")
        bad = (0, (0, 0), Quality.HIGH)
        segment_damage.flip(storage, "vr", bad)
        server, result, paths = self._pin(storage, "vr")
        bad_path = f"/segment/vr/{SegmentKey(*bad).to_path()}"
        assert result["pinned"] == len(paths) - 1
        assert set(server.hot.paths()) == set(paths) - {bad_path}
        assert any(path.startswith("/segment/vr/0/") for path in server.hot.paths())
        assert self._skipped(server) == {"serve.prewarm_skipped{video=vr}": 1}

    def test_missing_pack_skips_each_of_its_segments(self, db):
        storage = self._ingest(db, "vr")
        segment_damage.delete(storage, "vr", (0, (0, 0), Quality.HIGH))
        server, result, paths = self._pin(storage, "vr")
        lost = [path for path in paths if path.startswith("/segment/vr/0/")]
        assert 0 < len(lost) < len(paths)
        assert set(server.hot.paths()) == set(paths) - set(lost)
        assert self._skipped(server) == {"serve.prewarm_skipped{video=vr}": len(lost)}

    def test_one_version_lookup_per_video_and_one_open_per_pack(self, db, monkeypatch):
        storage = self._ingest(db, "alpha", "beta")
        packs = {
            path
            for name in ("alpha", "beta")
            for path in storage.segment_files(name)
        }
        paths = self._paths(storage, "alpha", "beta")
        scans, opens = [], []
        scan_versions = storage.catalog.scan_versions
        real_open = os.open

        def counting_scan(name):
            scans.append(name)
            return scan_versions(name)

        def counting_open(path, *args, **kwargs):
            if str(path).endswith(".pack"):
                opens.append(Path(path))
            return real_open(path, *args, **kwargs)

        monkeypatch.setattr(storage.catalog, "scan_versions", counting_scan)
        monkeypatch.setattr(os, "open", counting_open)
        server, result, _ = self._pin(storage, paths=paths)
        monkeypatch.undo()
        assert result["pinned"] == len(paths)
        assert sorted(scans) == ["alpha", "beta"]
        assert sorted(opens) == sorted(packs)

    def test_pinned_bytes_equal_read_segment_and_the_pool_is_untouched(self, db):
        storage = self._ingest(db, "vr")
        server, result, paths = self._pin(storage, "vr")
        assert result["pinned"] == len(paths)
        assert len(storage.segment_cache) == 0
        assert storage.metrics.counter("cache.misses").total() == 0
        for path in paths:
            key = SegmentKey.from_path(path.removeprefix("/segment/vr/"))
            expected = storage.read_segment("vr", key.window, key.tile, key.quality)
            assert server.hot.lookup(path).body == expected

    def test_injected_faults_are_skipped_over_the_chaos_wrapper(self, db):
        storage = self._ingest(db, "vr")
        missing = (0, (0, 1), Quality.LOW)
        corrupt = (1, (1, 0), Quality.HIGH)
        plan = FaultPlan(
            rules=[
                FaultRule(
                    kind=kind, rate=1.0, video="vr", gop=gop, tile=tile,
                    quality=quality.label,
                )
                for kind, (gop, tile, quality) in (("missing", missing), ("corrupt", corrupt))
            ]
        )
        server, result, paths = self._pin(ChaosStorageManager(storage, plan), "vr")
        faulted = {f"/segment/vr/{SegmentKey(*key).to_path()}" for key in (missing, corrupt)}
        assert result["pinned"] == len(paths) - 2
        assert set(server.hot.paths()) == set(paths) - faulted
        assert self._skipped(server) == {"serve.prewarm_skipped{video=vr}": 2}


def _ingest_small(db, name: str) -> None:
    """Two GOPs (two packs) of a 2x2, HIGH + LOW clip."""
    from repro import IngestConfig, TileGrid
    from repro.workloads.videos import synthetic_video

    config = IngestConfig(
        grid=TileGrid(2, 2),
        qualities=(Quality.HIGH, Quality.LOW),
        gop_frames=4,
        fps=4.0,
    )
    frames = synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=7)
    db.ingest(name, frames, config)


def client_free_snapshot(server: SegmentServer) -> dict:
    return server.metrics.snapshot()


class TestReingestCoherence:
    """``unpin_prefix`` is the coherence hook for catalog mutation.

    Segment pin paths are version-free (``/segment/name/w/r/c/q``), so a
    reingest creates a new storage version *under* an existing pin: the
    server keeps answering from the RAM copy of the old version until the
    operator invalidates the prefix. These tests pin that whole story —
    staleness is real, the invalidation is surgical, and after it the
    wire serves the latest stored bytes again.
    """

    def _ingest(self, db, name="vr"):
        _ingest_small(db, name)

    def _wire_bytes(self, base_url, storage, name):
        manifest = storage.build_manifest(name)
        with HttpSegmentClient(base_url) as client:
            return {
                key: client.fetch_segment(name, key) for key in manifest.segment_sizes
            }

    def _storage_bytes(self, storage, name):
        manifest = storage.build_manifest(name)
        return {
            key: storage.read_segment(name, key.window, key.tile, key.quality)
            for key in manifest.segment_sizes
        }

    def test_reingest_then_unpin_prefix_serves_latest_bytes(self, db):
        self._ingest(db)
        handle = start_server(
            db.storage,
            ServerConfig(
                drain_timeout=2.0,
                pin_budget_bytes=32 * 1024 * 1024,
                pin_threshold=1,
                prewarm=("vr",),
            ),
            registry=MetricsRegistry(),
        )
        try:
            server = handle.server
            assert len(server.hot) > 0
            before = self._storage_bytes(db.storage, "vr")
            assert self._wire_bytes(handle.base_url, db.storage, "vr") == before

            db.reingest("vr")
            after = self._storage_bytes(db.storage, "vr")

            # The pins predate the reingest: the wire still answers with
            # the old version's bytes for every pinned key.
            assert self._wire_bytes(handle.base_url, db.storage, "vr") == before

            dropped = server.hot.unpin_prefix("/segment/vr/")
            assert dropped == len(before)
            assert len(server.hot) == 0

            # With the stale pins gone the server reads storage again —
            # byte-identical to the latest stored version.
            assert self._wire_bytes(handle.base_url, db.storage, "vr") == after
        finally:
            handle.stop()

    def test_unpin_prefix_is_surgical_across_videos(self, db):
        self._ingest(db, "alpha")
        self._ingest(db, "beta")
        server = SegmentServer(
            db.storage, ServerConfig(pin_threshold=1), registry=MetricsRegistry()
        )
        plan = _plan(
            _demand("alpha", "beta"), catalog_from_storage(db.storage), 32 * 1024 * 1024
        )
        server.apply_control_plan(plan)
        pinned_alpha = sum(p.startswith("/segment/alpha/") for p in server.hot.paths())
        pinned_beta = sum(p.startswith("/segment/beta/") for p in server.hot.paths())
        assert pinned_alpha > 0 and pinned_beta > 0

        db.reingest("alpha")
        dropped = server.hot.unpin_prefix("/segment/alpha/")
        assert dropped == pinned_alpha
        # Beta's pins are untouched — invalidation is per-prefix, not a
        # full flush.
        assert len(server.hot) == pinned_beta
        assert all(path.startswith("/segment/beta/") for path in server.hot.paths())
