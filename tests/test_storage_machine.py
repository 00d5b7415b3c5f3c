"""A Hypothesis state machine over ``StorageManager`` (ROADMAP item 3,
step one): *sequences* of committed operations against a model.

The model is ``{name: {version: {(gop, tile, quality): bytes}}}``; the
bytes it expects come from the codec directly, never from a storage
read. Rules here are the committed-sequence ones — ``ingest``,
``append``, ``reingest``, ``store_windows`` (of a window read back),
``drop``, ``vacuum(keep)``, ``fsck(repair=True)``, and ``export_import``
(one rung of a retained version through a single file). The fault rules
(``ENOSPC``, ``REPRO_CRASH_AFTER_WRITES``, a concurrent reader, the
3-node tier) are item 3's next step: add them here, do not restart.
"""

from __future__ import annotations

import functools
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.errors import CatalogError, SegmentNotFoundError, VisualCloudError
from repro.core.export import export_video, import_video
from repro.core.storage import IngestConfig, StorageManager
from repro.geometry.grid import TileGrid
from repro.stream.dash import SegmentKey
from repro.video.quality import Quality
from repro.video.tiles import TiledGop, TiledVideoCodec
from repro.workloads.videos import checkerboard_video

WIDTH, HEIGHT, GOP_FRAMES, FPS = 64, 32, 2, 4.0
GRID = TileGrid(2, 2)
LADDER = (Quality.HIGH, Quality.LOW)
CONFIG = IngestConfig(grid=GRID, qualities=LADDER, gop_frames=GOP_FRAMES, fps=FPS)
CODEC = TiledVideoCodec(GRID, WIDTH, HEIGHT)
NAMES = st.sampled_from(["a", "b"])
CONTENTS = st.integers(0, 2)


@functools.cache
def gop_frames(content: int):
    """One of three distinct 2-frame GOPs (the square size differs)."""
    return checkerboard_video(WIDTH, HEIGHT, GOP_FRAMES, square=4 << content)


@functools.cache
def encoded(content: int):
    """``{(tile, quality): bytes}`` of one content GOP at the full ladder."""
    return CODEC.encode_gop_ladders(
        gop_frames(content), {tile: LADDER for tile in GRID.tiles()}
    )


def reencoded(gop: dict, ladder: tuple) -> dict:
    """What ``reingest`` must write for one GOP of the model: decode the
    best stored rung per tile, encode the version's ladder again."""
    best = {tile: max(q for (t, q) in gop if t == tile) for tile in GRID.tiles()}
    window = TiledGop(
        WIDTH, HEIGHT, GRID, GOP_FRAMES, {tile: gop[(tile, q)] for tile, q in best.items()}
    )
    return CODEC.encode_gop_ladders(window.decode(), {tile: ladder for tile in GRID.tiles()})


def by_gop(version: dict) -> list[dict]:
    """A model version regrouped as one ``{(tile, quality): bytes}`` per GOP."""
    gops: list[dict] = [{} for _ in range(1 + max(gop for gop, _, _ in version))]
    for (gop, tile, quality), data in version.items():
        gops[gop][(tile, quality)] = data
    return gops


class StorageMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.root = Path(tempfile.mkdtemp(prefix="storage-machine-"))
        self.storage = StorageManager(self.root)
        self.model: dict[str, dict[int, dict]] = {}
        self.export_path = self.root.with_name(self.root.name + ".mp4")

    def teardown(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)
        self.export_path.unlink(missing_ok=True)

    def latest(self, name: str) -> dict:
        return self.model[name][max(self.model[name])]

    def commit(self, name: str, meta, version: dict) -> None:
        """A write rule's epilogue: the version number is the next one, and
        the writer left one cached meta for the name (not one per version)."""
        expected = 1 + max(self.model.get(name, {0: None}))
        assert meta.version == expected
        self.model.setdefault(name, {})[expected] = version
        assert [key for key in self.storage._meta_cache if key[0] == name] == [
            (name, expected)
        ]

    # -- rules -------------------------------------------------------------------

    @initialize(name=NAMES, contents=st.lists(CONTENTS, min_size=1, max_size=2))
    def first_ingest(self, name, contents):
        """Start with a video, so the rules that need one are enabled."""
        self.ingest(name, contents)

    @rule(name=NAMES, contents=st.lists(CONTENTS, min_size=1, max_size=2))
    def ingest(self, name, contents):
        frames = [frame for content in contents for frame in gop_frames(content)]
        if name in self.model:
            with pytest.raises(CatalogError):
                self.storage.ingest(name, iter(frames), CONFIG, workers=1)
            return
        meta = self.storage.ingest(name, iter(frames), CONFIG, workers=1)
        self.commit(
            name,
            meta,
            {
                (gop, tile, quality): data
                for gop, content in enumerate(contents)
                for (tile, quality), data in encoded(content).items()
            },
        )

    @precondition(lambda self: self.model)
    @rule(data=st.data(), content=CONTENTS)
    def append(self, data, content):
        name = data.draw(st.sampled_from(sorted(self.model)))
        base = self.latest(name)
        gops = by_gop(base)
        # New GOPs materialise exactly the rungs GOP 0 has per tile.
        grown = dict(base)
        for tile, quality in gops[0]:
            grown[(len(gops), tile, quality)] = encoded(content)[(tile, quality)]
        meta = self.storage.append(name, iter(gop_frames(content)), workers=1)
        self.commit(name, meta, grown)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def reingest(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        base = self.latest(name)
        # A version's ladder is the rungs it holds (a stored window may hold one).
        ladder = tuple(sorted({quality for _, _, quality in base}, reverse=True))
        version = {
            (index, tile, quality): payload
            for index, gop in enumerate(by_gop(base))
            for (tile, quality), payload in reencoded(gop, ladder).items()
        }
        self.commit(name, self.storage.reingest(name, workers=1), version)

    @precondition(lambda self: self.model)
    @rule(data=st.data(), into=NAMES)
    def store_window_read_back(self, data, into):
        source = data.draw(st.sampled_from(sorted(self.model)))
        gops = by_gop(self.latest(source))
        gop = data.draw(st.integers(0, len(gops) - 1))
        quality_map = {
            tile: data.draw(st.sampled_from(sorted(q for (t, q) in gops[gop] if t == tile)))
            for tile in GRID.tiles()
        }
        window = self.storage.read_window(source, gop, quality_map)
        meta = self.storage.store_windows(into, [window], FPS)
        self.commit(
            into,
            meta,
            {(0, tile, q): gops[gop][(tile, q)] for tile, q in quality_map.items()},
        )

    @precondition(lambda self: self.model)
    @rule(data=st.data(), rung=st.sampled_from(LADDER), into=NAMES)
    def export_import(self, data, rung, into):
        """Version 1 of ``into`` holds exactly the exported rung's bytes; a
        rung some segment lacks does not export, and a taken name does not
        import."""
        source = data.draw(st.sampled_from(sorted(self.model)))
        number = data.draw(st.sampled_from(sorted(self.model[source])))
        version = self.model[source][number]
        exported = {key: payload for key, payload in version.items() if key[2] is rung}
        if len(exported) != len(by_gop(version)) * GRID.tile_count:
            with pytest.raises(SegmentNotFoundError):
                export_video(self.storage, source, self.export_path, rung, number)
            return
        export_video(self.storage, source, self.export_path, rung, number)
        if into in self.model:
            with pytest.raises(CatalogError, match="already exists"):
                import_video(self.storage, into, self.export_path)
            return
        self.commit(into, import_video(self.storage, into, self.export_path), exported)

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def drop(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        self.storage.drop(name)
        del self.model[name]

    @precondition(lambda self: self.model)
    @rule(data=st.data(), keep=st.integers(1, 3))
    def vacuum(self, data, keep):
        name = data.draw(st.sampled_from(sorted(self.model)))
        self.storage.vacuum(name, keep_versions=keep)
        versions = self.model[name]
        self.model[name] = {v: versions[v] for v in sorted(versions)[-keep:]}

    @rule()
    def fsck_repair(self):
        """After committed operations only there is nothing to repair, so
        repairing must change nothing the model can see."""
        assert self.storage.fsck(repair=True)["clean"]

    # -- invariants --------------------------------------------------------------

    @invariant()
    def catalog_lists_exactly_the_model(self):
        assert self.storage.catalog.list_videos() == sorted(self.model)
        for name, versions in self.model.items():
            assert self.storage.catalog.versions(name) == sorted(versions)

    @invariant()
    def every_retained_version_reads_back_the_model(self):
        for name, versions in self.model.items():
            for number, version in versions.items():
                for (gop, tile, quality), data in version.items():
                    assert self.storage.read_segment(name, gop, tile, quality, number) == data
                lacking = [
                    (gop, tile, quality)
                    for gop in range(2 + max(g for g, _, _ in version))
                    for tile in GRID.tiles()
                    for quality in LADDER
                    if (gop, tile, quality) not in version
                ]
                for gop, tile, quality in lacking:
                    with pytest.raises(VisualCloudError):
                        self.storage.read_segment(name, gop, tile, quality, number)

    @invariant()
    def manifest_is_the_latest_version(self):
        for name in self.model:
            assert self.storage.build_manifest(name).segment_sizes == {
                SegmentKey(*key): len(data) for key, data in self.latest(name).items()
            }

    @invariant()
    def fsck_is_clean(self):
        assert self.storage.fsck()["clean"]


# settings() inherits the loaded profile: derandomised under shard-ci.
StorageMachine.TestCase.settings = settings(max_examples=15, stateful_step_count=12)
TestStorageMachine = StorageMachine.TestCase
