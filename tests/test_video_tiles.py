"""Unit tests for motion-constrained tiles and homomorphic operators."""

import pytest

from repro.geometry.grid import TileGrid
from repro.video.frame import Frame, psnr
from repro.video.gop import decode_gop
from repro.video.quality import Quality
from repro.video.tiles import TiledGop, TiledVideoCodec
from repro.workloads.videos import checkerboard_video


@pytest.fixture(scope="module")
def codec() -> TiledVideoCodec:
    return TiledVideoCodec(TileGrid(2, 4), width=64, height=32)


@pytest.fixture(scope="module")
def frames() -> list:
    return checkerboard_video(width=64, height=32, frames=4)


@pytest.fixture(scope="module")
def tiled(codec, frames) -> TiledGop:
    return codec.encode_gop(frames, Quality.HIGH)


class TestCodecValidation:
    def test_rejects_unaligned_grid(self):
        with pytest.raises(ValueError):
            TiledVideoCodec(TileGrid(2, 4), width=60, height=32)

    def test_rejects_wrong_frame_size(self, codec):
        with pytest.raises(ValueError):
            codec.encode_gop([Frame.blank(32, 32)], Quality.HIGH)

    def test_rejects_empty_gop(self, codec):
        with pytest.raises(ValueError):
            codec.encode_gop([], Quality.HIGH)


class TestEncodeDecode:
    def test_all_tiles_present(self, tiled, codec):
        assert set(tiled.payloads) == set(codec.grid.tiles())

    def test_decode_composites_faithfully(self, tiled, frames):
        decoded = tiled.decode()
        assert len(decoded) == len(frames)
        for original, restored in zip(frames, decoded):
            assert psnr(original, restored) > 30

    def test_partial_encode(self, codec, frames):
        subset = {(0, 0), (1, 3)}
        tiled = codec.encode_gop(frames, Quality.HIGH, tiles=subset)
        assert set(tiled.payloads) == subset

    def test_absent_tiles_decode_grey(self, codec, frames):
        tiled = codec.encode_gop(frames, Quality.HIGH, tiles={(0, 0)})
        decoded = tiled.decode()
        # Pixels far from tile (0,0) are the flat-grey placeholder.
        assert abs(int(decoded[0].y[-1, -1]) - 128) <= 1

    def test_decode_single_tile(self, tiled, codec, frames):
        # A tile's payload is a closed GOP of its own: it decodes alone, at
        # tile resolution, with no neighbour's bytes.
        tile_frames = decode_gop(tiled.payloads[(0, 1)])
        assert tile_frames[0].width == codec.tile_width
        reference = frames[0].crop(16, 0, 32, 16)
        assert psnr(reference, tile_frames[0]) > 30

    def test_mixed_quality_encode(self, codec, frames):
        quality_map = {tile: Quality.LOW for tile in codec.grid.tiles()}
        quality_map[(0, 0)] = Quality.HIGH
        tiled = codec.encode_gop_mixed(frames, quality_map)
        assert tiled.tile_quality(0, 0) is Quality.HIGH
        assert tiled.tile_quality(1, 1) is Quality.LOW
        assert len(tiled.payloads[(0, 0)]) > len(tiled.payloads[(0, 1)])


class TestHomomorphicOps:
    def test_select_subsets_bytes_untouched(self, tiled):
        subset = tiled.select({(0, 0), (0, 1)})
        assert subset.payloads[(0, 0)] is tiled.payloads[(0, 0)]
        assert set(subset.payloads) == {(0, 0), (0, 1)}

    def test_select_missing_tile(self, codec, frames):
        partial = codec.encode_gop(frames, Quality.HIGH, tiles={(0, 0)})
        with pytest.raises(KeyError):
            partial.select({(0, 1)})

    def test_replace_layout_mismatch(self, tiled, frames):
        other_codec = TiledVideoCodec(TileGrid(1, 1), 64, 32)
        other = other_codec.encode_gop(frames, Quality.HIGH)
        with pytest.raises(ValueError):
            tiled.replace(other)

    def test_replace_prefers_other(self, codec, frames):
        base = codec.encode_gop(frames, Quality.LOW)
        patch = codec.encode_gop(frames, Quality.HIGH, tiles={(0, 2)})
        merged = base.replace(patch)
        assert merged.tile_quality(0, 2) is Quality.HIGH
        assert merged.tile_quality(0, 0) is Quality.LOW

    def test_select_then_replace_reconstructs(self, tiled, frames):
        tiles = list(tiled.payloads)
        left = tiled.select(set(tiles[:3]))
        right = tiled.select(set(tiles[3:]))
        rebuilt = left.replace(right)
        assert set(rebuilt.payloads) == set(tiles)
        assert rebuilt.decode()[0].equals(tiled.decode()[0])


class TestLayout:
    def test_pixel_rect(self, tiled):
        assert tiled.pixel_rect(0, 0) == (0, 0, 16, 16)
        assert tiled.pixel_rect(1, 3) == (48, 16, 64, 32)

    def test_pixel_rect_bounds(self, tiled):
        with pytest.raises(IndexError):
            tiled.pixel_rect(2, 0)


class TestMotionConstraint:
    def test_tile_bytes_independent_of_neighbours(self, codec, frames):
        """Editing one tile's content must not change other tiles' bytes —
        the motion-constraint property homomorphic ops rely on."""
        altered_frames = []
        for frame in frames:
            patch = Frame.blank(16, 16, luma=255)
            altered_frames.append(frame.paste(patch, 0, 0))  # only tile (0,0)
        original = codec.encode_gop(frames, Quality.HIGH)
        altered = codec.encode_gop(altered_frames, Quality.HIGH)
        assert original.payloads[(0, 0)] != altered.payloads[(0, 0)]
        for tile in codec.grid.tiles():
            if tile != (0, 0):
                assert original.payloads[tile] == altered.payloads[tile]
