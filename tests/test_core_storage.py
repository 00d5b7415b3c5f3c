"""Unit and integration tests for the storage manager."""

import hashlib

import pytest

from repro.core import storage as storage_module
from repro.core.errors import CatalogError, IngestError, SegmentNotFoundError
from repro.core.metadata import parse_metadata_file
from repro.core.storage import IngestConfig, StorageManager
from repro.geometry.grid import TileGrid
from repro.stream.dash import SegmentKey
from repro.video.frame import psnr
from repro.video.gop import decode_gop
from repro.video.mp4 import Mp4File
from repro.video.quality import Quality
from repro.video import tiles as tiles_module
from repro.video.tiles import TiledGop, TiledVideoCodec
from repro.workloads.videos import checkerboard_video, synthetic_video


CONFIG = IngestConfig(
    grid=TileGrid(2, 2),
    qualities=(Quality.HIGH, Quality.LOW),
    gop_frames=4,
    fps=4.0,
)


def encoded_window(frames, grid=TileGrid(2, 2), tiles=None) -> TiledGop:
    """One GOP's window at HIGH, encoded the way ingest encodes it."""
    height, width = frames[0].y.shape
    ladder_map = {tile: (Quality.HIGH,) for tile in (tiles or grid.tiles())}
    payloads = TiledVideoCodec(grid, width, height).encode_gop_ladders(frames, ladder_map)
    return TiledGop(
        width, height, grid, len(frames), {tile: data for (tile, _), data in payloads.items()}
    )


@pytest.fixture()
def storage(tmp_path) -> StorageManager:
    return StorageManager(tmp_path)


@pytest.fixture()
def loaded(storage) -> StorageManager:
    frames = synthetic_video("venice", width=64, height=32, fps=4.0, duration=3.0, seed=1)
    storage.ingest("clip", frames, CONFIG)
    return storage


class TestIngestConfig:
    def test_defaults_are_valid(self):
        IngestConfig()

    def test_rejects_bad_gop(self):
        with pytest.raises(ValueError):
            IngestConfig(gop_frames=0)

    def test_rejects_bad_fps(self):
        with pytest.raises(ValueError):
            IngestConfig(fps=0.0)

    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError):
            IngestConfig(qualities=())

    def test_rejects_misordered_ladder(self):
        with pytest.raises(ValueError):
            IngestConfig(qualities=(Quality.LOW, Quality.HIGH))


class TestIngest:
    def test_meta_shape(self, loaded):
        meta = loaded.meta("clip")
        assert meta.version == 1
        assert meta.gop_count == 3
        assert meta.gop_frame_counts == [4, 4, 4]
        assert meta.duration == pytest.approx(3.0)
        assert meta.qualities == (Quality.HIGH, Quality.LOW)

    def test_every_segment_indexed(self, loaded):
        meta = loaded.meta("clip")
        assert len(meta.entries) == 3 * 4 * 2  # gops x tiles x qualities

    def test_partial_final_gop(self, storage):
        frames = synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.5, seed=1)
        meta = storage.ingest("clip", frames, CONFIG)
        assert meta.gop_frame_counts == [4, 4, 2]
        assert meta.duration == pytest.approx(2.5)

    def test_empty_source_rejected_and_rolled_back(self, storage):
        with pytest.raises(IngestError):
            storage.ingest("clip", iter([]), CONFIG)
        assert "clip" not in storage.list_videos()

    def test_duplicate_name_rejected(self, loaded):
        with pytest.raises(CatalogError):
            loaded.ingest("clip", iter([]), CONFIG)

    def test_low_quality_smaller_than_high(self, loaded):
        meta = loaded.meta("clip")
        high = sum(e.size for (g, t, q), e in meta.entries.items() if q is Quality.HIGH)
        low = sum(e.size for (g, t, q), e in meta.entries.items() if q is Quality.LOW)
        assert low < high / 2


class TestMetadataRoundTrip:
    def test_parse_from_disk_matches(self, loaded):
        in_memory = loaded.meta("clip")
        loaded._meta_cache.clear()
        from_disk = loaded.meta("clip")
        assert from_disk.entries == in_memory.entries
        assert from_disk.gop_frame_counts == in_memory.gop_frame_counts
        assert from_disk.qualities == in_memory.qualities
        assert from_disk.grid == in_memory.grid
        assert from_disk.fps == in_memory.fps

    def test_other_projection_is_refused(self, loaded):
        mp4 = Mp4File.parse(loaded.catalog.metadata_path("clip", 1).read_bytes())
        assert mp4.find("moov.vcld.sv3d").payload == b"equirectangular"
        mp4.find("moov.vcld.sv3d").payload = b"cubemap"
        with pytest.raises(CatalogError, match="cubemap"):
            parse_metadata_file("clip", mp4.serialize())

    def test_missing_version(self, loaded):
        with pytest.raises(CatalogError):
            loaded.meta("clip", version=9)


class TestReads:
    def test_read_segment_round_trips(self, loaded):
        data = loaded.read_segment("clip", 0, (0, 0), Quality.HIGH)
        from repro.video.gop import decode_gop

        frames = decode_gop(data, 32, 16, 4)
        assert len(frames) == 4

    def test_read_segment_missing(self, loaded):
        with pytest.raises(SegmentNotFoundError):
            loaded.read_segment("clip", 9, (0, 0), Quality.HIGH)

    def test_read_window_mixed_quality(self, loaded):
        quality_map = {tile: Quality.LOW for tile in TileGrid(2, 2).tiles()}
        quality_map[(0, 0)] = Quality.HIGH
        window = loaded.read_window("clip", 1, quality_map)
        assert window.tile_quality(0, 0) is Quality.HIGH
        assert window.tile_quality(1, 1) is Quality.LOW
        assert window.frame_count == 4

    def test_read_window_of_a_tile_subset_moves_bytes_only(self, loaded, monkeypatch):
        """The store's one homomorphic operation: a half-sphere tile map
        reads exactly those tiles, each byte-equal to its stored segment,
        with no decode; the window then decodes its absent half as grey."""

        def no_decode(data):
            raise AssertionError("a window read decoded a segment")

        monkeypatch.setattr(tiles_module, "decode_gop", no_decode)
        half = {(0, 0): Quality.HIGH, (1, 0): Quality.LOW}
        window = loaded.read_window("clip", 1, half)
        assert set(window.payloads) == set(half)
        for tile, quality in half.items():
            assert window.payloads[tile] == loaded.read_segment("clip", 1, tile, quality)
        monkeypatch.undo()
        x0 = window.pixel_rect(0, 1)[0]  # the right half is absent
        for frame in window.decode():
            assert (frame.y[:, x0:] == 128).all()
            assert not (frame.y[:, :x0] == 128).all()

    def test_read_window_lists_versions_once(self, loaded, monkeypatch):
        """A window is one version: resolved once, not once per tile."""
        scans = []
        scan_versions = loaded.catalog.scan_versions
        monkeypatch.setattr(
            loaded.catalog,
            "scan_versions",
            lambda name: scans.append(name) or scan_versions(name),
        )
        quality_map = {tile: Quality.LOW for tile in TileGrid(2, 2).tiles()}
        loaded.read_window("clip", 1, quality_map)
        assert scans == ["clip"]
        loaded.decode_window("clip", 0, Quality.HIGH)
        assert scans == ["clip", "clip"]

    def test_read_segments_answers_per_key_in_order(self, loaded):
        keys = [
            SegmentKey(2, (1, 1), Quality.LOW),
            SegmentKey(9, (0, 0), Quality.HIGH),  # not in the index
            SegmentKey(0, (0, 0), Quality.HIGH),
            SegmentKey(2, (0, 1), Quality.HIGH),
        ]
        results = loaded.read_segments("clip", keys)
        assert isinstance(results[1], SegmentNotFoundError)
        for key, data in zip(keys, results):
            if key.window != 9:
                assert data == loaded.read_segment(
                    "clip", key.window, key.tile, key.quality
                )
        with pytest.raises(CatalogError):
            loaded.read_segments("nope", keys)

    def test_decode_window_fidelity(self, storage):
        frames = checkerboard_video(width=64, height=32, frames=4)
        storage.ingest("board", iter(frames), CONFIG)
        decoded = storage.decode_window("board", 0, Quality.HIGH)
        assert psnr(frames[0], decoded[0]) > 30

    def test_total_bytes_matches_index(self, loaded):
        meta = loaded.meta("clip")
        assert loaded.total_bytes("clip") == sum(e.size for e in meta.entries.values())


class TestAppend:
    def test_append_creates_new_version(self, loaded):
        more = synthetic_video("venice", width=64, height=32, fps=4.0, duration=1.0, seed=2)
        meta = loaded.append("clip", more)
        assert meta.version == 2
        assert meta.gop_count == 4
        assert meta.streaming is True

    def test_old_version_still_readable(self, loaded):
        more = synthetic_video("venice", width=64, height=32, fps=4.0, duration=1.0, seed=2)
        loaded.append("clip", more)
        old = loaded.meta("clip", version=1)
        assert old.gop_count == 3
        assert loaded.read_segment("clip", 0, (0, 0), Quality.HIGH, version=1)

    def test_appended_segments_share_old_files(self, loaded):
        more = synthetic_video("venice", width=64, height=32, fps=4.0, duration=1.0, seed=2)
        meta = loaded.append("clip", more)
        assert meta.entries[(0, (0, 0), Quality.HIGH)].file_version == 1
        assert meta.entries[(3, (0, 0), Quality.HIGH)].file_version == 2

    def test_append_to_partial_gop_rejected(self, storage):
        frames = synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.5, seed=1)
        storage.ingest("clip", frames, CONFIG)
        with pytest.raises(IngestError):
            storage.append("clip", checkerboard_video(64, 32, 4))

    def test_append_wrong_dimensions(self, loaded):
        with pytest.raises(IngestError):
            loaded.append("clip", checkerboard_video(width=32, height=32, frames=4))

    def test_live_append_caches_one_meta_and_never_loses_a_reader(self, loaded):
        """Every version's index covers every GOP so far, so caching each
        one is O(N²) under live append: a commit evicts the name's other
        cached versions — under a reader that must never see the gap."""
        import threading

        first = loaded.meta("clip", 1)
        gop = list(checkerboard_video(64, 32, 4))
        failures, done = [], threading.Event()

        def reader():
            while not done.is_set():
                try:
                    latest = loaded.meta("clip")
                    loaded.read_segment("clip", latest.gop_count - 1, (1, 1), Quality.LOW)
                    loaded.meta("clip", 1)
                except Exception as error:  # the assertion is "none at all"
                    failures.append(error)
                    return

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(30):
                loaded.append("clip", iter(gop), workers=1)
        finally:
            done.set()
            thread.join()
        assert not failures, failures
        loaded.append("clip", iter(gop), workers=1)  # a commit with no reader racing it
        assert [key for key in loaded._meta_cache if key[0] == "clip"] == [("clip", 32)]
        assert loaded.meta("clip", 1) == first


class TestPacks:
    def test_one_publish_per_gop(self, storage, monkeypatch):
        """2 GOPs x 4 tiles x 2 rungs: one pack per GOP, then metadata and
        marker — not one file per segment."""
        published = []
        real = storage_module._publish_bytes

        def publish(path, payload):
            published.append(path.name)
            real(path, payload)

        monkeypatch.setattr(storage_module, "_publish_bytes", publish)
        frames = synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=1)
        meta = storage.ingest("clip", frames, CONFIG, workers=1)
        assert len(meta.entries) == 16
        assert published == [
            "g00000_v1.pack",
            "g00001_v1.pack",
            "metadata_v1.mp4",
            "metadata_v1.ok",
        ]

    def test_index_locates_each_segment_in_its_pack(self, loaded):
        """A pack is an ``mdat`` of its GOP's segments, end to end, in the
        order the index's offsets give."""
        meta = loaded.meta("clip")
        for gop in range(meta.gop_count):
            ranges = sorted(
                (entry.offset, entry.size)
                for (g, _, _), entry in meta.entries.items()
                if g == gop
            )
            pack = loaded.catalog.pack_path("clip", gop, 1).read_bytes()
            assert pack[4:8] == b"mdat"
            ends = [offset + size for offset, size in ranges]
            assert [offset for offset, _ in ranges] == [8] + ends[:-1]
            assert ends[-1] == len(pack)

    def test_golden_bytes_per_key(self, tmp_path):
        """Every committed version's bytes for every key, over ingest at 1
        and 2 workers, two appends, a reingest onto a new grid and a
        store of read-back windows, hash to the digest the one-file-per-
        segment layout produced from the same inputs."""
        config = IngestConfig(
            grid=TileGrid(2, 2), qualities=(Quality.HIGH, Quality.LOW), gop_frames=4, fps=4.0
        )
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=17)
        )
        storage = StorageManager(tmp_path)
        storage.ingest("clip", iter(frames), config, workers=1)
        storage.ingest("twin", iter(frames), config, workers=2)
        for seed, workers in ((18, 1), (19, 2)):
            more = synthetic_video("venice", width=64, height=32, fps=4.0, duration=1.0, seed=seed)
            storage.append("clip", more, workers=workers)
        storage.reingest(
            "twin",
            IngestConfig(grid=TileGrid(1, 2), qualities=(Quality.HIGH,), gop_frames=4, fps=4.0),
            workers=1,
        )
        windows = [
            storage.read_window("clip", gop, {tile: Quality.LOW for tile in config.grid.tiles()})
            for gop in (0, 3)
        ]
        storage.store_windows("clip", windows, fps=4.0)
        digest = hashlib.sha256()
        for name in storage.list_videos():
            for version in storage.catalog.versions(name):
                meta = storage.meta(name, version)
                for gop, tile, quality in sorted(meta.entries, key=str):
                    data = storage.read_segment(name, gop, tile, quality, version)
                    digest.update(
                        f"{name}/{version}/{gop}/{tile}/{quality.label}/{len(data)}".encode()
                    )
                    digest.update(data)
        assert digest.hexdigest() == (
            "51bcdaaf9ae8e2397f83fe77cab141e6506d907f1f03a4a2144f8fc755510aa3"
        )

    @staticmethod
    def _every_rung(tmp_path):
        """Every rung's segments of a 256x128, 4x8 clip with 20 frames (two
        10-frame GOPs), for the profile whose predicted blocks are coded
        most (``coaster``) and least (``timelapse``): ``(label, bytes)``."""
        config = IngestConfig(
            grid=TileGrid(4, 8), qualities=tuple(Quality), gop_frames=10, fps=10.0
        )
        storage = StorageManager(tmp_path)
        for profile in ("coaster", "timelapse"):
            frames = synthetic_video(profile, width=256, height=128, fps=10.0, duration=2.0, seed=5)
            meta = storage.ingest(profile, frames, config, workers=1)
            for gop, tile, quality in sorted(meta.entries, key=str):
                data = storage.read_segment(profile, gop, tile, quality)
                yield f"{profile}/{gop}/{tile}/{quality.label}", data

    def test_golden_bytes_every_rung(self, tmp_path):
        """Every rung's segment bytes hash to a pinned digest."""
        digest = hashlib.sha256()
        for label, data in self._every_rung(tmp_path):
            digest.update(f"{label}/{len(data)}".encode())
            digest.update(data)
        assert digest.hexdigest() == (
            "9e27edafd70d4e4b281a91dd3505dacb086ecc681dae9bcd3af27c198673b202"
        )

    def test_golden_planes_every_rung(self, tmp_path):
        """Every plane every rung's segments decode to hashes to a pinned
        digest: the codec's pixels, whatever its bit syntax."""
        digest = hashlib.sha256()
        for label, data in self._every_rung(tmp_path):
            digest.update(label.encode())
            for frame in decode_gop(data, 32, 32, 10):
                for plane in frame.planes:
                    digest.update(plane.tobytes())
        assert digest.hexdigest() == (
            "e81d78713b0aef18e89e0ac9fd491a2deb9c320ca8c7bdff7cfd49dd179ba7da"
        )


class TestStoreWindows:
    def test_store_encoded_windows(self, storage):
        frames = checkerboard_video(width=64, height=32, frames=8)
        windows = [encoded_window(frames[:4]), encoded_window(frames[4:])]
        meta = storage.store_windows("result", windows, fps=4.0)
        assert meta.version == 1
        assert meta.gop_count == 2
        assert storage.read_segment("result", 0, (0, 0), Quality.HIGH)

    def test_store_over_existing_makes_version(self, loaded):
        window = loaded.read_window(
            "clip", 0, {tile: Quality.HIGH for tile in TileGrid(2, 2).tiles()}
        )
        meta = loaded.store_windows("clip", [window], fps=4.0)
        assert meta.version == 2
        assert loaded.catalog.latest_version("clip") == 2

    def test_store_counts_what_it_writes_like_ingest(self, storage):
        frames = checkerboard_video(width=64, height=32, frames=4)
        window = encoded_window(frames)
        storage.store_windows("result", [window, window], fps=4.0)
        written = storage.metrics.counter("storage.segments_written").total()
        assert written == 2 * len(window.payloads)
        assert storage.metrics.counter("storage.bytes_written").total() == (
            2 * sum(map(len, window.payloads.values()))
        )

    @pytest.fixture()
    def disk_fills_up(self, monkeypatch):
        """The third durable publish from now on fails with ENOSPC: after
        two packs, in place of a two-window store's metadata."""
        import errno

        real = storage_module._publish_bytes
        calls = {"n": 0}

        def publish(path, payload):
            calls["n"] += 1
            if calls["n"] == 3:
                raise OSError(errno.ENOSPC, "No space left on device")
            real(path, payload)

        monkeypatch.setattr(storage_module, "_publish_bytes", publish)

    @pytest.mark.parametrize("retry", ["store_windows", "ingest"])
    def test_failed_store_of_a_new_name_can_be_retried(
        self, storage, disk_fills_up, retry
    ):
        frames = checkerboard_video(width=64, height=32, frames=4)
        window = encoded_window(frames)
        with pytest.raises(OSError, match="No space left"):
            storage.store_windows("x", [window, window], fps=4.0)
        assert "x" not in storage.list_videos()
        assert storage.fsck()["clean"]
        if retry == "store_windows":
            meta = storage.store_windows("x", [window], fps=4.0)
        else:
            meta = storage.ingest("x", frames, CONFIG)
        assert meta.version == 1
        assert storage.read_segment("x", 0, (0, 0), Quality.HIGH)

    def test_failed_store_of_a_next_version_keeps_the_committed_ones(
        self, loaded, disk_fills_up
    ):
        before = loaded.meta("clip")
        window = loaded.read_window(
            "clip", 0, {tile: Quality.HIGH for tile in TileGrid(2, 2).tiles()}
        )
        with pytest.raises(OSError, match="No space left"):
            loaded.store_windows("clip", [window, window], fps=4.0)
        assert loaded.catalog.versions("clip") == [1]
        assert loaded.meta("clip") == before
        report = loaded.fsck(repair=True)
        assert len(report["orphan_packs"]) == 2  # the two publishes that landed
        assert not any(
            report[key]
            for key in (
                "adopted_versions",
                "rolled_back_versions",
                "dangling_markers",
                "dropped_videos",
            )
        )
        assert loaded.fsck()["clean"]
        assert loaded.store_windows("clip", [window], fps=4.0).version == 2

    def test_store_rejects_empty(self, storage):
        with pytest.raises(IngestError):
            storage.store_windows("x", [], fps=4.0)

    def test_store_rejects_mixed_layouts(self, storage):
        frames = checkerboard_video(width=64, height=32, frames=4)
        a = encoded_window(frames)
        b = encoded_window(frames, TileGrid(1, 1))
        with pytest.raises(IngestError):
            storage.store_windows("x", [a, b], fps=4.0)

    def test_metadata_never_overwritten(self, loaded):
        meta = loaded.meta("clip")
        with pytest.raises(CatalogError):
            loaded._commit_meta(meta)  # same version again


class TestManifest:
    def test_manifest_matches_meta(self, loaded):
        manifest = loaded.build_manifest("clip")
        meta = loaded.meta("clip")
        assert manifest.window_count == meta.gop_count
        assert manifest.grid == meta.grid
        assert manifest.qualities == meta.qualities
        assert len(manifest.segment_sizes) == len(meta.entries)

    def test_manifest_sizes_are_real_file_sizes(self, loaded):
        manifest = loaded.build_manifest("clip")
        from repro.stream.dash import SegmentKey

        key = SegmentKey(0, (0, 0), Quality.HIGH)
        assert manifest.segment_sizes[key] == len(
            loaded.read_segment("clip", 0, (0, 0), Quality.HIGH)
        )

    def test_incomplete_ladder_not_servable(self, storage):
        frames = checkerboard_video(width=64, height=32, frames=4)
        window = encoded_window(frames, tiles=[(0, 0)])
        storage.store_windows("partial", [window], fps=4.0)
        with pytest.raises(SegmentNotFoundError):
            storage.build_manifest("partial")


class TestDrop:
    def test_drop_clears_cache_and_disk(self, loaded):
        loaded.drop("clip")
        assert "clip" not in loaded.list_videos()
        with pytest.raises(CatalogError):
            loaded.meta("clip")
