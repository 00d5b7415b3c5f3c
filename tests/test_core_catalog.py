"""Unit tests for the catalog's name/version/layout bookkeeping."""

import pytest

from repro.core.catalog import Catalog, pack_file_name
from repro.core.errors import CatalogError


@pytest.fixture()
def catalog(tmp_path) -> Catalog:
    return Catalog(tmp_path)


class TestNames:
    def test_accepts_reasonable_names(self, catalog):
        for name in ("venice", "Clip_01", "a.b-c"):
            catalog.validate_name(name)

    @pytest.mark.parametrize("name", ["", "has space", "../escape", "sl/ash", "-lead"])
    def test_rejects_bad_names(self, catalog, name):
        with pytest.raises(CatalogError):
            catalog.validate_name(name)

    def test_pack_file_name_format(self):
        assert pack_file_name(3, 7) == "g00003_v7.pack"


class TestLifecycle:
    def test_create_makes_directories(self, catalog):
        catalog.create("demo")
        assert catalog.exists("demo")
        assert catalog.segments_dir("demo").is_dir()

    def test_create_twice_fails(self, catalog):
        catalog.create("demo")
        with pytest.raises(CatalogError):
            catalog.create("demo")

    def test_list_videos_sorted(self, catalog):
        for name in ("zeta", "alpha", "mid"):
            catalog.create(name)
        assert catalog.list_videos() == ["alpha", "mid", "zeta"]

    def test_drop_removes_everything(self, catalog):
        catalog.create("demo")
        (catalog.segments_dir("demo") / "junk.pack").write_bytes(b"x")
        catalog.drop("demo")
        assert not catalog.exists("demo")

    def test_drop_missing_fails(self, catalog):
        with pytest.raises(CatalogError):
            catalog.drop("ghost")


class TestVersions:
    def test_versions_requires_existing_video(self, catalog):
        with pytest.raises(CatalogError):
            catalog.versions("ghost")

    def test_versions_requires_committed_metadata(self, catalog):
        catalog.create("demo")
        with pytest.raises(CatalogError):
            catalog.versions("demo")

    def test_versions_sorted(self, catalog):
        catalog.create("demo")
        for version in (3, 1, 2):
            catalog.metadata_path("demo", version).write_bytes(b"m")
            catalog.marker_path("demo", version).write_bytes(b"ok")
        assert catalog.versions("demo") == [1, 2, 3]
        assert catalog.latest_version("demo") == 3

    def test_unmarked_metadata_is_not_a_version(self, catalog):
        catalog.create("demo")
        catalog.metadata_path("demo", 1).write_bytes(b"m")
        with pytest.raises(CatalogError, match="no committed versions"):
            catalog.versions("demo")
        catalog.marker_path("demo", 1).write_bytes(b"ok")
        catalog.metadata_path("demo", 2).write_bytes(b"m")
        assert catalog.versions("demo") == [1]

    def test_unrelated_files_ignored(self, catalog):
        catalog.create("demo")
        catalog.metadata_path("demo", 1).write_bytes(b"m")
        catalog.marker_path("demo", 1).write_bytes(b"ok")
        (catalog.video_dir("demo") / "notes.txt").write_bytes(b"x")
        assert catalog.versions("demo") == [1]
