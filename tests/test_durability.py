"""Durability and self-healing: crash-consistent commits, end-to-end
checksums, peer read-repair.

Four contracts pinned here:

* **Checksum soundness** — ``segment_checksum`` detects every labelled
  corruption in the chaos corpus and never flags intact bytes.
* **Crash consistency** — a process SIGKILLed at *any* seeded write
  point leaves no new version visible: nothing adoptable (crash before
  the metadata publish) or a complete but unmarked version that only
  ``fsck --repair`` makes visible (crash between metadata and marker);
  the catalog is clean afterwards either way, and re-ingest succeeds.
* **Drop coherence** — dropping a video also drops its pinned wire
  buffers on an attached server, so a dropped-then-recreated video never
  serves stale bytes.
* **Read-repair** — with rf>=2, a segment corrupt on one node's disk is
  served byte-identical via checksum-triggered peer fetch, and its range
  of the local pack is atomically rewritten to the ingest bytes — by
  replacing the pack, so a root sharing its inode is never written.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chaos.corrupt import segment_corruption_corpus
from repro.core.errors import (
    CatalogError,
    SegmentCorruptError,
    SegmentNotFoundError,
)
from repro.core.storage import (
    StorageManager,
    _marker_payload,
    checksum_hex,
    segment_checksum,
)
from repro.obs import MetricsRegistry
from repro.serve.client import HttpSegmentClient
from repro.serve.placement import ShardMap, materialize_shards
from repro.serve.server import ServerConfig, start_server
from repro.video.quality import Quality
from tests import segment_damage

SRC = str(Path(__file__).resolve().parent.parent / "src")


class TestChecksumSoundness:
    @settings(max_examples=60, deadline=None)
    @given(data=st.binary(min_size=1, max_size=512), seed=st.integers(0, 2**16))
    def test_every_labelled_corruption_is_detected(self, data, seed):
        reference = segment_checksum(data)
        for label, payload in segment_corruption_corpus(data, seed=seed):
            if payload == data:
                continue  # truncation at the full length is a no-op
            assert segment_checksum(payload) != reference, label

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=512))
    def test_intact_bytes_always_verify(self, data):
        assert segment_checksum(data) == segment_checksum(bytes(data))
        assert segment_checksum(data) != 0  # a zeroed index field never verifies
        assert checksum_hex(data) == format(segment_checksum(data), "08x")

    def test_stored_segment_corpus_detected_by_the_read_path(self, session_db):
        storage = session_db.storage
        meta = storage.meta("clip")
        (gop, tile, quality), entry = sorted(
            meta.entries.items(), key=lambda item: str(item[0])
        )[0]
        data = storage.read_segment("clip", gop, tile, quality)
        intact = storage.verify_segment_bytes("clip", gop, tile, quality, data)
        assert intact.checksum == entry.checksum != 0
        for label, payload in segment_corruption_corpus(data, seed=11):
            if payload == data:
                continue
            with pytest.raises(SegmentCorruptError):
                storage.verify_segment_bytes("clip", gop, tile, quality, payload)


def _crashing_ingest(
    root: Path, crash_after: int, append: bool = False
) -> subprocess.CompletedProcess:
    """Run one ingest (or one append to an existing ``clip``) in a
    subprocess that SIGKILLs itself at the ``crash_after``-th durable
    publish (packs, metadata, marker)."""
    script = (
        "from pathlib import Path\n"
        "from repro import IngestConfig, Quality, TileGrid\n"
        "from repro.core.server import VisualCloud\n"
        "from repro.workloads.videos import synthetic_video\n"
        f"db = VisualCloud(Path({str(root)!r}))\n"
        "frames = synthetic_video('venice', width=64, height=32, fps=4.0,\n"
        "                         duration=2.0, seed=5)\n"
        "config = IngestConfig(grid=TileGrid(2, 2),\n"
        "                      qualities=(Quality.HIGH, Quality.LOW),\n"
        "                      gop_frames=4, fps=4.0)\n"
        + (
            "db.append('clip', frames, workers=1)\n"
            if append
            else "db.ingest('clip', frames, config, workers=1)\n"
        )
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC if not existing else SRC + os.pathsep + existing
    env["REPRO_CRASH_AFTER_WRITES"] = str(crash_after)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, timeout=120
    )


class TestCrashConsistency:
    """SIGKILL mid-ingest: 2 GOPs x 4 tiles x 2 rungs is one pack
    publish per GOP (#1, #2), then metadata (#3), then the marker (#4)."""

    @pytest.mark.parametrize("crash_after", [1, 2, 3])
    def test_crash_before_metadata_leaves_nothing_visible(self, tmp_path, crash_after):
        result = _crashing_ingest(tmp_path, crash_after)
        assert result.returncode in (-9, 137), result.stderr.decode()

        storage = StorageManager(tmp_path)
        with pytest.raises(CatalogError, match="no committed versions"):
            storage.catalog.versions("clip")

        report = storage.fsck(repair=True)
        assert report["dropped_videos"] == ["clip"]
        assert storage.fsck()["clean"]

        # The catalog is reusable: the same ingest now lands completely.
        from repro import IngestConfig, Quality, TileGrid
        from repro.workloads.videos import synthetic_video

        frames = synthetic_video(
            "venice", width=64, height=32, fps=4.0, duration=2.0, seed=5
        )
        config = IngestConfig(
            grid=TileGrid(2, 2),
            qualities=(Quality.HIGH, Quality.LOW),
            gop_frames=4,
            fps=4.0,
        )
        meta = storage.ingest("clip", frames, config, workers=1)
        assert storage.catalog.versions("clip") == [1]
        assert all(entry.checksum for entry in meta.entries.values())

    def test_crash_before_marker_rolls_forward(self, tmp_path):
        self._crash_before_marker(tmp_path, version=1)

    def test_crash_before_append_marker_rolls_forward(self, tmp_path):
        _ingest(StorageManager(tmp_path), "clip", seed=5)
        self._crash_before_marker(tmp_path, version=2)

    @staticmethod
    def _crash_before_marker(root: Path, version: int) -> None:
        """One commit rule for a first ingest and an append alike: the
        complete-but-unmarked version stays invisible until fsck adopts
        it (roll-forward), then it reads."""
        result = _crashing_ingest(root, crash_after=4, append=version > 1)
        assert result.returncode in (-9, 137), result.stderr.decode()

        storage = StorageManager(root)
        catalog = storage.catalog
        assert catalog.metadata_path("clip", version).exists()
        if version == 1:
            with pytest.raises(CatalogError, match="no committed versions"):
                catalog.versions("clip")
        else:
            assert catalog.versions("clip") == list(range(1, version))

        report = storage.fsck(repair=True)
        assert report["adopted_versions"] == [f"clip v{version}"]
        assert catalog.marker_path("clip", version).exists()
        assert catalog.versions("clip") == list(range(1, version + 1))
        meta = storage.meta("clip")
        assert meta.version == version
        assert storage.read_segment("clip", meta.gop_count - 1, (0, 0), meta.qualities[0])
        assert storage.fsck()["clean"]

    def test_named_version_is_served_only_once_committed(self, tmp_path):
        """Naming a version is no way round the marker: a CLI ingest killed
        between its metadata publish (#2) and marker (#3) leaves version 1
        unreadable by number until fsck adopts it."""

        def repro(*args: str, crash_after: str = "") -> subprocess.CompletedProcess:
            env = dict(os.environ, PYTHONPATH=SRC, REPRO_CRASH_AFTER_WRITES=crash_after)
            return subprocess.run(
                [sys.executable, "-m", "repro", "--root", str(tmp_path), *args],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )

        ingest = repro(
            "ingest", "dead", "--duration", "1", "--width", "64", "--height", "32",
            "--grid", "2x2", "--gop-frames", "10", "--workers", "1", crash_after="3",
        )
        assert ingest.returncode in (-9, 137), ingest.stderr
        storage = StorageManager(tmp_path)
        assert storage.catalog.metadata_path("dead", 1).exists()
        with pytest.raises(CatalogError, match="no committed version 1"):
            storage.meta("dead", 1)
        with pytest.raises(CatalogError, match="no committed version 1"):
            storage.read_segment("dead", 0, (0, 0), Quality.HIGH, version=1)
        refused = repro("info", "dead", "--version", "1")
        assert refused.returncode == 1
        assert "no committed version 1" in refused.stderr

        repaired = repro("fsck", "--repair")
        assert "adopted versions: dead v1" in repaired.stdout
        assert storage.meta("dead", 1).version == 1
        assert storage.read_segment("dead", 0, (0, 0), Quality.HIGH, version=1)
        assert "version     : 1" in repro("info", "dead", "--version", "1").stdout


def _ingest(db, name: str, seed: int) -> None:
    """Two GOPs x 4 tiles x 2 rungs of seeded content under ``name``."""
    from repro import IngestConfig, Quality, TileGrid
    from repro.workloads.videos import synthetic_video

    frames = synthetic_video(
        "venice", width=64, height=32, fps=4.0, duration=2.0, seed=seed
    )
    db.ingest(
        name,
        frames,
        IngestConfig(
            grid=TileGrid(2, 2),
            qualities=(Quality.HIGH, Quality.LOW),
            gop_frames=4,
            fps=4.0,
        ),
    )


class TestFsckRecovery:
    def test_torn_metadata_is_rolled_back(self, db):
        from repro import IngestConfig, Quality, TileGrid
        from repro.workloads.videos import synthetic_video

        frames = synthetic_video(
            "venice", width=64, height=32, fps=4.0, duration=2.0, seed=9
        )
        db.ingest(
            "torn",
            frames,
            IngestConfig(
                grid=TileGrid(2, 2),
                qualities=(Quality.HIGH, Quality.LOW),
                gop_frames=4,
                fps=4.0,
            ),
        )
        catalog = db.storage.catalog
        catalog.marker_path("torn", 1).unlink()
        path = catalog.metadata_path("torn", 1)
        path.write_bytes(path.read_bytes()[:40])  # a torn, unparseable publish
        db.storage._meta_cache.clear()

        report = db.storage.fsck(repair=True)
        assert report["dropped_videos"] == ["torn"]
        assert not catalog.exists("torn")
        assert db.storage.fsck()["clean"]


    def test_unreadable_committed_metadata_makes_no_segment_an_orphan(self, db):
        """The orphan sweep deletes what no committed version references;
        when a committed version no longer parses, that set is unknown."""
        _ingest(db, "rotted", seed=9)
        catalog = db.storage.catalog
        path = catalog.metadata_path("rotted", 1)
        path.write_bytes(path.read_bytes()[:40])  # marker still present
        db.storage._meta_cache.clear()
        segments = sorted(catalog.segments_dir("rotted").iterdir())

        report = db.storage.fsck(repair=True)
        assert report["orphan_packs"] == []
        assert sorted(catalog.segments_dir("rotted").iterdir()) == segments


DAMAGE = {
    "intact": lambda storage, name, key: None,
    "truncated": segment_damage.truncate,
    "bit-flip": segment_damage.flip,  # same size, different content
    "deleted": segment_damage.delete,  # the whole pack
}

#: What the index concludes about the damaged segment.
VERDICTS = {
    "intact": "ok",
    "truncated": "corrupt",
    "bit-flip": "corrupt",
    "deleted": "missing",
}


class TestIntegrityTable:
    """damage -> every consumer of the integrity rule reaches the same
    verdict: the read path, ``verify_segment_bytes``, ``scrub``, and
    fsck's adopt-or-roll-back of an unmarked version."""

    # The ids keep the suffix they had while a checksum-less entry kind
    # sat beside this one, so the suite's test names stay stable.
    @pytest.mark.parametrize(
        "damage", sorted(VERDICTS), ids=lambda damage: f"{damage}-checksummed"
    )
    def test_consumers_agree(self, tmp_path, damage):
        from repro import IngestConfig, Quality, TileGrid
        from repro.workloads.videos import synthetic_video

        frames = synthetic_video(
            "venice", width=64, height=32, fps=4.0, duration=1.0, seed=9
        )
        config = IngestConfig(
            grid=TileGrid(2, 2), qualities=(Quality.HIGH,), gop_frames=4, fps=4.0
        )
        StorageManager(tmp_path).ingest("clip", frames, config)
        storage = StorageManager(tmp_path, cache_bytes=0)
        catalog = storage.catalog
        entries = storage.meta("clip").entries
        # The pack's last range, so truncating the pack damages it alone.
        key, entry = max(entries.items(), key=lambda item: item[1].offset)
        assert entry.checksum
        pack = catalog.pack_path("clip", key[0], entry.file_version)
        DAMAGE[damage](storage, "clip", key)
        verdict = VERDICTS[damage]
        damaged = [
            f"clip/{pack.name}@{other.offset}"
            for other_key, other in sorted(entries.items(), key=lambda item: str(item[0]))
            if other_key == key or damage == "deleted"
        ]

        if verdict == "ok":
            on_disk = segment_damage.stored(storage, "clip", key)
            assert storage.read_segment("clip", *key) == on_disk
            assert storage.verify_segment_bytes("clip", *key, on_disk) == entry
        else:
            expected = SegmentCorruptError if verdict == "corrupt" else SegmentNotFoundError
            with pytest.raises(SegmentNotFoundError) as raised:
                storage.read_segment("clip", *key)
            assert type(raised.value) is expected
            assert raised.value.repairable
            if verdict == "corrupt":  # a missing pack leaves no bytes to judge
                with pytest.raises(SegmentCorruptError):
                    storage.verify_segment_bytes(
                        "clip", *key, segment_damage.stored(storage, "clip", key)
                    )

        scrubbed = storage.scrub()
        assert scrubbed["segments_checked"] == 4
        assert scrubbed["corrupt"] == ([] if verdict == "ok" else damaged)

        # No marker: fsck has to decide between adopting and rolling back.
        catalog.marker_path("clip", 1).unlink()
        report = storage.fsck()
        decided = "adopted_versions" if verdict == "ok" else "rolled_back_versions"
        assert report[decided] == ["clip v1"]
        assert not report["clean"]


class TestRottedCommittedMetadata:
    """A committed metadata file is checked against the checksum its
    marker recorded: one flipped bit that still parses (here in ``fps``)
    is refused by every reader and reported by fsck and scrub, never
    served as a different video."""

    def _rot_fps(self, db) -> bytes:
        _ingest(db, "clip", seed=9)
        _ingest(db, "fine", seed=10)
        path = db.storage.catalog.metadata_path("clip", 1)
        blob = path.read_bytes()
        fps_at = blob.index(b"vinf") + 4 + 4  # past width and height
        rotted = bytearray(blob)
        rotted[fps_at + 1] ^= 0x10
        path.write_bytes(bytes(rotted))
        return bytes(rotted)

    def test_meta_refuses_and_cli_reports(self, db, capsys):
        from repro.cli import main
        from repro.core.metadata import parse_metadata_file

        rotted = self._rot_fps(db)
        assert parse_metadata_file("clip", rotted).fps != 4.0  # it still parses
        storage = StorageManager(db.storage.catalog.root)
        with pytest.raises(CatalogError, match="commit marker"):
            storage.meta("clip")
        assert storage.meta("fine").fps == 4.0
        root = str(storage.catalog.root)
        capsys.readouterr()
        assert main(["--root", root, "info", "clip"]) == 1
        assert "commit marker" in capsys.readouterr().err
        assert main(["--root", root, "fsck"]) == 1
        assert "damaged metadata: clip v1" in capsys.readouterr().out
        assert main(["--root", root, "fsck", "--repair"]) == 1  # not repairable
        assert storage.catalog.metadata_path("clip", 1).read_bytes() == rotted

    def test_fsck_and_scrub_report_it(self, db):
        self._rot_fps(db)
        storage = StorageManager(db.storage.catalog.root)
        report = storage.fsck()
        assert report["damaged_metadata"] == ["clip v1"]
        assert not report["clean"]
        scrub = storage.scrub()
        assert scrub["corrupt"] == ["clip/metadata_v1.mp4"]
        assert scrub["segments_checked"] == len(storage.meta("fine").entries)


class TestChecksumlessMetadata:
    """The index is read in the one form the writer emits: a ``csum`` and
    an ``stco`` entry per ``stss`` entry. Anything less is damage, not an
    older format, so no stored byte is ever served unverified or from a
    guessed place."""

    @pytest.mark.parametrize("damage", ["missing", "short"])
    def test_trak_without_a_checksum_per_segment_is_rejected(self, db, damage):
        self._damage_leaf(db, "csum", damage)

    @pytest.mark.parametrize("damage", ["missing", "short"])
    def test_trak_without_an_offset_per_segment_is_rejected(self, db, damage):
        self._damage_leaf(db, "stco", damage)

    @staticmethod
    def _damage_leaf(db, kind: str, damage: str) -> None:
        import struct

        from repro.video.mp4 import Mp4File

        _ingest(db, "clip", seed=9)
        path = db.storage.catalog.metadata_path("clip", 1)
        mp4 = Mp4File.parse(path.read_bytes())
        trak = mp4.find("moov").find("trak")
        leaf = trak.find(kind)
        if damage == "missing":
            trak.children.remove(leaf)
        else:
            (count,) = struct.unpack_from(">I", leaf.payload)
            leaf.payload = struct.pack(">I", count - 1) + leaf.payload[4:-4]
        blob = mp4.serialize()
        path.write_bytes(blob)
        # Committed as written, so the parser (not the marker check) judges it.
        db.storage.catalog.marker_path("clip", 1).write_bytes(_marker_payload(blob))

        with pytest.raises(CatalogError, match="trak"):
            StorageManager(db.storage.catalog.root).meta("clip")


class TestDropCoherence:
    def test_drop_unpins_and_recreate_serves_fresh_bytes(self, db):
        _ingest(db, "vr", seed=7)
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

            db.drop("vr")
            deadline = time.monotonic() + 5.0
            while len(server.hot) and time.monotonic() < deadline:
                time.sleep(0.01)  # the unpin hops onto the event loop
            assert len(server.hot) == 0

            _ingest(db, "vr", seed=21)  # different content, same name
            manifest = db.storage.build_manifest("vr")
            with HttpSegmentClient(handle.base_url) as client:
                for key in manifest.segment_sizes:
                    wire = client.fetch_segment("vr", key)
                    disk = db.storage.read_segment(
                        "vr", key.window, key.tile, key.quality
                    )
                    assert wire == disk, f"stale bytes for {key.to_path()}"
        finally:
            handle.stop()

    def test_listener_is_removed_on_stop(self, db):
        _ingest(db, "vr", seed=7)
        handle = start_server(db.storage, ServerConfig(), registry=MetricsRegistry())
        assert db.storage._drop_listeners
        handle.stop()
        assert not db.storage._drop_listeners


class TestRangeRepair:
    def test_concurrent_repairs_in_one_pack_keep_both_and_spare_a_linked_root(
        self, tmp_path
    ):
        """Two segments of one pack rot in place — on an inode a second
        root hard-links. Two threads repair them at once: both splices
        survive, and the other root's copy is never written through."""
        import threading

        storage = StorageManager(tmp_path / "a", cache_bytes=0)
        _ingest(storage, "clip", seed=3)
        peer_root = tmp_path / "b"
        materialize_shards(storage, {"b": peer_root}, ShardMap(nodes=("b",)))
        entries = storage.meta("clip").entries
        keys = sorted((key for key in entries if key[0] == 0), key=str)[:2]
        pack, _ = segment_damage.locate(storage, "clip", keys[0])
        linked = peer_root / pack.relative_to(storage.catalog.root)
        assert os.stat(pack).st_ino == os.stat(linked).st_ino
        canonical = {key: storage.read_segment("clip", *key) for key in keys}
        with open(pack, "r+b") as handle:  # bit rot: in place, through the link
            for key in keys:
                entry = entries[key]
                handle.seek(entry.offset + entry.size // 2)
                byte = handle.read(1)[0]
                handle.seek(-1, os.SEEK_CUR)
                handle.write(bytes([byte ^ 0x08]))
        rotted = linked.read_bytes()

        barrier = threading.Barrier(len(keys))

        def repair(key):
            barrier.wait()
            storage.repair_segment("clip", *key, canonical[key])

        threads = [threading.Thread(target=repair, args=(key,)) for key in keys]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        for key in keys:
            assert storage.read_segment("clip", *key) == canonical[key]
        assert linked.read_bytes() == rotted
        assert os.stat(pack).st_ino != os.stat(linked).st_ino
        assert storage.fsck()["clean"]
        assert storage.scrub()["corrupt"] == []


NODES = ("node-0", "node-1", "node-2")


class TestReadRepair:
    """A real 3-node rf=2 tier; node-0's copy of one segment bit-rots."""

    @pytest.fixture()
    def tier(self, session_db, tmp_path):
        shard_map = ShardMap(nodes=NODES, replication_factor=2)
        node_roots = {node: tmp_path / node for node in NODES}
        materialize_shards(session_db.storage, node_roots, shard_map)
        registries = {node: MetricsRegistry() for node in NODES}
        storages = {
            node: StorageManager(node_roots[node], registry=registries[node])
            for node in NODES
        }
        handles = {
            node: start_server(
                storages[node],
                ServerConfig(node_id=node, shard_map=shard_map),
                registry=registries[node],
            )
            for node in NODES
        }
        urls = {node: handles[node].base_url for node in NODES}
        for handle in handles.values():
            handle.update_shard_map(shard_map, urls)
        yield {
            "map": shard_map,
            "storages": storages,
            "registries": registries,
            "handles": handles,
            "urls": urls,
        }
        for handle in handles.values():
            handle.stop()

    def test_corrupt_local_segment_is_served_and_healed(self, session_db, tier):
        manifest = session_db.storage.build_manifest("clip")
        key = next(
            key
            for key in sorted(manifest.segment_sizes, key=lambda k: k.to_path())
            if tier["map"].owns("node-0", "clip", key)
        )
        storage = tier["storages"]["node-0"]
        address = (key.window, key.tile, key.quality)
        original = segment_damage.flip(storage, "clip", address)
        canonical = session_db.storage.read_segment(
            "clip", key.window, key.tile, key.quality
        )
        assert original == canonical

        with HttpSegmentClient(tier["urls"]["node-0"]) as client:
            served = client.fetch_segment("clip", key)

        assert served == canonical  # byte-identical despite local rot
        assert segment_damage.stored(storage, "clip", address) == canonical  # healed
        registry = tier["registries"]["node-0"]
        assert registry.counter("storage.repair_attempts").total() == 1
        assert registry.counter("storage.repair_success").total() == 1
        assert registry.counter("storage.repair_failed").total() == 0

    def test_repair_disabled_surfaces_the_corruption(self, session_db, tmp_path):
        """Read-repair has no off switch; with rf = 1 there is no second
        owner to heal from, so the local verdict surfaces unrepaired."""
        shard_map = ShardMap(nodes=NODES, replication_factor=1)
        node_roots = {node: tmp_path / node for node in NODES}
        materialize_shards(session_db.storage, node_roots, shard_map)
        registry = MetricsRegistry()
        storage = StorageManager(node_roots["node-0"], registry=registry)
        handle = start_server(
            storage,
            ServerConfig(node_id="node-0", shard_map=shard_map),
            registry=registry,
        )
        try:
            manifest = session_db.storage.build_manifest("clip")
            key = next(
                key
                for key in sorted(manifest.segment_sizes, key=lambda k: k.to_path())
                if shard_map.owns("node-0", "clip", key)
            )
            segment_damage.flip(storage, "clip", (key.window, key.tile, key.quality))
            with HttpSegmentClient(handle.base_url) as client:
                with pytest.raises(SegmentCorruptError):
                    client.fetch_segment("clip", key)
            assert registry.counter("storage.repair_attempts").total() == 0
        finally:
            handle.stop()
