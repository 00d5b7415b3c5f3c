"""Unit tests for motion-constrained tiles."""

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


def encode(codec, frames, quality_map) -> TiledGop:
    """One GOP encoded at one quality per tile, as a window."""
    payloads = codec.encode_gop_ladders(
        frames, {tile: (quality,) for tile, quality in quality_map.items()}
    )
    return TiledGop(
        codec.width, codec.height, codec.grid, len(frames),
        {tile: data for (tile, _), data in payloads.items()},
    )


def at_high(tiles) -> dict:
    return {tile: Quality.HIGH for tile in tiles}


@pytest.fixture(scope="module")
def tiled(codec, frames) -> TiledGop:
    return encode(codec, frames, at_high(codec.grid.tiles()))


class TestCodecValidation:
    def test_rejects_unaligned_grid(self):
        with pytest.raises(ValueError):
            TiledVideoCodec(TileGrid(2, 4), width=60, height=32)

    def test_rejects_wrong_frame_size(self, codec):
        with pytest.raises(ValueError):
            codec.encode_gop_ladders([Frame.blank(32, 32)], {(0, 0): (Quality.HIGH,)})

    def test_rejects_empty_gop(self, codec):
        with pytest.raises(ValueError):
            codec.encode_gop_ladders([], {(0, 0): (Quality.HIGH,)})


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
        tiled = encode(codec, frames, at_high(subset))
        assert set(tiled.payloads) == subset

    def test_absent_tiles_decode_grey(self, codec, frames):
        tiled = encode(codec, frames, at_high([(0, 0)]))
        decoded = tiled.decode()
        # Pixels far from tile (0,0) are the flat-grey placeholder.
        assert abs(int(decoded[0].y[-1, -1]) - 128) <= 1

    def test_decode_single_tile(self, tiled, codec, frames):
        # A tile's payload is a closed GOP of its own: it decodes alone, at
        # tile resolution, with no neighbour's bytes.
        tile_frames = decode_gop(
            tiled.payloads[(0, 1)], codec.tile_width, codec.tile_height, len(frames)
        )
        assert tile_frames[0].width == codec.tile_width
        reference = frames[0].crop(16, 0, 32, 16)
        assert psnr(reference, tile_frames[0]) > 30

    def test_mixed_quality_encode(self, codec, frames):
        quality_map = {tile: Quality.LOW for tile in codec.grid.tiles()}
        quality_map[(0, 0)] = Quality.HIGH
        tiled = encode(codec, frames, quality_map)
        assert tiled.tile_quality(0, 0) is Quality.HIGH
        assert tiled.tile_quality(1, 1) is Quality.LOW
        assert len(tiled.payloads[(0, 0)]) > len(tiled.payloads[(0, 1)])


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
        the motion-constraint property a tile-subset window read relies on."""
        altered_frames = []
        for frame in frames:
            patch = Frame.blank(16, 16, luma=255)
            altered_frames.append(frame.paste(patch, 0, 0))  # only tile (0,0)
        original = encode(codec, frames, at_high(codec.grid.tiles()))
        altered = encode(codec, altered_frames, at_high(codec.grid.tiles()))
        assert original.payloads[(0, 0)] != altered.payloads[(0, 0)]
        for tile in codec.grid.tiles():
            if tile != (0, 0):
                assert original.payloads[tile] == altered.payloads[tile]
