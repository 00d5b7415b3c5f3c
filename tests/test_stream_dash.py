"""Unit tests for DASH-style manifests."""

import pytest

from repro.geometry.grid import TileGrid
from repro.stream.dash import Manifest, SegmentKey
from repro.video.quality import Quality


def make_manifest(windows=3, grid=TileGrid(2, 2), qualities=(Quality.HIGH, Quality.LOW)):
    sizes = {}
    for window in range(windows):
        for tile in grid.tiles():
            for quality in qualities:
                base = 1000 if quality is Quality.HIGH else 200
                sizes[SegmentKey(window, tile, quality)] = base + window
    return Manifest(
        video="demo",
        width=64,
        height=32,
        fps=30.0,
        window_duration=1.0,
        window_count=windows,
        grid=grid,
        qualities=qualities,
        segment_sizes=sizes,
    )


class TestValidation:
    def test_rejects_zero_duration(self):
        with pytest.raises(ValueError):
            Manifest(
                video="x",
                width=64,
                height=32,
                fps=30,
                window_duration=0.0,
                window_count=1,
                grid=TileGrid(1, 1),
                qualities=(Quality.HIGH,),
            )

    def test_rejects_zero_windows(self):
        with pytest.raises(ValueError):
            Manifest(
                video="x",
                width=64,
                height=32,
                fps=30,
                window_duration=1.0,
                window_count=0,
                grid=TileGrid(1, 1),
                qualities=(Quality.HIGH,),
            )

    def test_rejects_empty_ladder(self):
        with pytest.raises(ValueError):
            Manifest(
                video="x",
                width=64,
                height=32,
                fps=30,
                window_duration=1.0,
                window_count=1,
                grid=TileGrid(1, 1),
                qualities=(),
            )

    def test_rejects_misordered_ladder(self):
        with pytest.raises(ValueError):
            Manifest(
                video="x",
                width=64,
                height=32,
                fps=30,
                window_duration=1.0,
                window_count=1,
                grid=TileGrid(1, 1),
                qualities=(Quality.LOW, Quality.HIGH),
            )


class TestLookups:
    def test_best_and_worst(self):
        manifest = make_manifest()
        assert manifest.best_quality is Quality.HIGH
        assert manifest.worst_quality is Quality.LOW

    def test_duration(self):
        assert make_manifest(windows=5).duration == pytest.approx(5.0)

    def test_size_of(self):
        manifest = make_manifest()
        assert manifest.size_of(1, (0, 0), Quality.HIGH) == 1001

    def test_size_of_missing(self):
        manifest = make_manifest()
        with pytest.raises(KeyError):
            manifest.size_of(9, (0, 0), Quality.HIGH)

    def test_window_size_mixed(self):
        manifest = make_manifest()
        quality_map = {tile: Quality.LOW for tile in manifest.grid.tiles()}
        quality_map[(0, 0)] = Quality.HIGH
        assert manifest.window_size(0, quality_map) == 1000 + 3 * 200

    def test_full_sphere_size(self):
        manifest = make_manifest()
        assert manifest.full_sphere_size(0, Quality.HIGH) == 4000

    def test_window_interval(self):
        assert make_manifest().window_interval(1) == (1.0, 2.0)

    def test_window_interval_bounds(self):
        with pytest.raises(IndexError):
            make_manifest(windows=2).window_interval(2)


class TestResolution:
    def make_partial(self):
        """A manifest where tile (0,0) has the full ladder but (0,1) only LOW."""
        grid = TileGrid(1, 2)
        sizes = {}
        for window in range(2):
            for quality in (Quality.HIGH, Quality.LOW):
                sizes[SegmentKey(window, (0, 0), quality)] = 100 if quality is Quality.HIGH else 20
            sizes[SegmentKey(window, (0, 1), Quality.LOW)] = 20
        return Manifest(
            video="partial",
            width=64,
            height=32,
            fps=30.0,
            window_duration=1.0,
            window_count=2,
            grid=grid,
            qualities=(Quality.HIGH, Quality.LOW),
            segment_sizes=sizes,
        )

    def test_available_best_first(self):
        manifest = self.make_partial()
        assert manifest.available(0, (0, 0)) == (Quality.HIGH, Quality.LOW)
        assert manifest.available(0, (0, 1)) == (Quality.LOW,)

    def test_available_missing_position(self):
        manifest = self.make_partial()
        with pytest.raises(KeyError):
            manifest.available(0, (9, 9))

    def test_resolve_exact(self):
        manifest = self.make_partial()
        assert manifest.resolve(0, (0, 0), Quality.HIGH) is Quality.HIGH

    def test_resolve_degrades(self):
        manifest = self.make_partial()
        assert manifest.resolve(0, (0, 1), Quality.HIGH) is Quality.LOW

    def test_resolve_never_upgrades_silently_unless_forced(self):
        # Requesting below everything stored returns the worst stored.
        grid = TileGrid(1, 1)
        sizes = {SegmentKey(0, (0, 0), Quality.HIGH): 100}
        manifest = Manifest(
            video="x",
            width=32,
            height=32,
            fps=30.0,
            window_duration=1.0,
            window_count=1,
            grid=grid,
            qualities=(Quality.HIGH,),
            segment_sizes=sizes,
        )
        assert manifest.resolve(0, (0, 0), Quality.LOWEST) is Quality.HIGH

    def test_window_size_uses_resolved(self):
        manifest = self.make_partial()
        quality_map = {(0, 0): Quality.HIGH, (0, 1): Quality.HIGH}
        assert manifest.window_size(0, quality_map) == 120  # 100 + resolved 20

    def test_full_sphere_size_on_partial(self):
        manifest = self.make_partial()
        assert manifest.full_sphere_size(0, Quality.HIGH) == 120


class TestSegmentKeyIdentity:
    """SegmentKey as the canonical identity: paths, files, cache keys."""

    def test_path_round_trip(self):
        for key in (
            SegmentKey(0, (0, 0), Quality.HIGH),
            SegmentKey(17, (3, 11), Quality.LOWEST),
            SegmentKey(99999, (0, 255), Quality.MEDIUM),
        ):
            assert SegmentKey.from_path(key.to_path()) == key

    def test_path_shape(self):
        assert SegmentKey(4, (1, 2), Quality.LOW).to_path() == "4/1/2/low"

    def test_from_path_tolerates_surrounding_slashes(self):
        assert SegmentKey.from_path("/4/1/2/low/") == SegmentKey(4, (1, 2), Quality.LOW)

    @pytest.mark.parametrize(
        "junk",
        ["", "1/2/3", "1/2/3/4/5", "a/1/2/high", "1/-1/2/high", "1/2/3/neon"],
    )
    def test_from_path_rejects_junk(self, junk):
        with pytest.raises(ValueError):
            SegmentKey.from_path(junk)

    def test_cache_key_shape(self):
        # The 5-tuple layout is load-bearing: the chaos cache wrapper and
        # the scenario runner's cache/disk audit unpack it positionally.
        key = SegmentKey(3, (1, 0), Quality.HIGH)
        assert key.cache_key("demo", 2) == ("demo", 3, (1, 0), Quality.HIGH, 2)


class TestManifestJson:
    def test_round_trip_preserves_segment_sizes(self):
        manifest = make_manifest()
        clone = Manifest.from_json(manifest.to_json())
        assert clone.segment_sizes == manifest.segment_sizes

    def test_round_trip_preserves_layout(self):
        manifest = make_manifest(windows=5, grid=TileGrid(3, 4))
        clone = Manifest.from_json(manifest.to_json())
        assert clone.video == manifest.video
        assert (clone.width, clone.height, clone.fps) == (64, 32, 30.0)
        assert clone.window_duration == manifest.window_duration
        assert clone.window_count == manifest.window_count
        assert clone.grid == manifest.grid
        assert clone.qualities == manifest.qualities

    def test_json_is_actually_serializable(self):
        import json

        text = json.dumps(make_manifest().to_json())
        clone = Manifest.from_json(json.loads(text))
        assert clone.segment_sizes == make_manifest().segment_sizes

    def test_segment_keys_are_wire_paths(self):
        data = make_manifest().to_json()
        for path in data["segments"]:
            SegmentKey.from_path(path)  # must parse

    def test_resolution_still_works_after_round_trip(self):
        manifest = make_manifest()
        clone = Manifest.from_json(manifest.to_json())
        assert clone.resolve(0, (0, 0), Quality.HIGH) is Quality.HIGH
        assert clone.window_size(1, {tile: Quality.LOW for tile in clone.grid.tiles()}) \
            == manifest.window_size(1, {tile: Quality.LOW for tile in manifest.grid.tiles()})
