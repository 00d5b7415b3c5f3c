"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.geometry.angles import (
    TWO_PI,
    angular_difference,
    unwrap_theta,
    wrap_theta,
)
from repro.geometry.grid import TileGrid
from repro.geometry.sphere import from_unit_vector, great_circle_distance, to_unit_vector
from repro.video.bitstream import BitReader, BitWriter
from repro.video.codec import _encode_streams, _read_frames
from repro.video.frame import Frame
from repro.video.gop import decode_gop, encode_gop
from repro.video.mp4 import Atom, Mp4File, make_stss, parse_stss
from repro.video.quality import Quality

angles = st.floats(
    min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False
)
unit_angles = st.floats(min_value=0.0, max_value=TWO_PI - 1e-9)
polar_angles = st.floats(min_value=0.0, max_value=math.pi)


class TestAngleProperties:
    @given(angles)
    def test_wrap_theta_in_range(self, theta):
        wrapped = wrap_theta(theta)
        assert 0.0 <= wrapped < TWO_PI

    @given(angles)
    def test_wrap_theta_idempotent(self, theta):
        wrapped = wrap_theta(theta)
        assert wrap_theta(wrapped) == pytest.approx(wrapped)

    @given(angles, angles)
    def test_angular_difference_bounded(self, a, b):
        diff = angular_difference(a, b)
        assert -math.pi < diff <= math.pi

    @given(angles, angles)
    def test_angular_difference_recovers_target(self, a, b):
        diff = angular_difference(a, b)
        residual = angular_difference(wrap_theta(b + diff), wrap_theta(a))
        assert abs(residual) < 1e-6

    @given(st.lists(unit_angles, min_size=1, max_size=30))
    def test_unwrap_preserves_wrapped_values(self, thetas):
        unwrapped = unwrap_theta(np.array(thetas))
        # Compare circularly: a value near 0 may unwrap to near -2*pi.
        residual = angular_difference(np.atleast_1d(wrap_theta(unwrapped)), thetas)
        assert np.all(np.abs(residual) < 1e-6)


class TestSphereProperties:
    @given(unit_angles, polar_angles)
    def test_round_trip(self, theta, phi):
        theta_back, phi_back = from_unit_vector(to_unit_vector(theta, phi))
        assert great_circle_distance(theta, phi, float(theta_back), float(phi_back)) < 1e-6

    @given(unit_angles, polar_angles, unit_angles, polar_angles)
    def test_distance_symmetric_and_bounded(self, t1, p1, t2, p2):
        d12 = great_circle_distance(t1, p1, t2, p2)
        d21 = great_circle_distance(t2, p2, t1, p1)
        assert d12 == pytest.approx(d21)
        assert 0.0 <= d12 <= math.pi + 1e-9

    @given(
        unit_angles, polar_angles, unit_angles, polar_angles, unit_angles, polar_angles
    )
    def test_triangle_inequality(self, t1, p1, t2, p2, t3, p3):
        d12 = great_circle_distance(t1, p1, t2, p2)
        d23 = great_circle_distance(t2, p2, t3, p3)
        d13 = great_circle_distance(t1, p1, t3, p3)
        assert d13 <= d12 + d23 + 1e-6


def _inside(rect, theta, phi):
    """Half-open containment in a grid rect, which never wraps in theta;
    the south pole belongs to the bottom row."""
    in_phi = rect.phi0 <= phi < rect.phi1 or phi == rect.phi1 == math.pi
    return in_phi and rect.theta0 <= theta < rect.theta1


class TestGridProperties:
    grids = st.tuples(st.integers(1, 8), st.integers(1, 8))

    @given(grids, unit_angles, polar_angles)
    def test_every_direction_has_exactly_one_tile(self, shape, theta, phi):
        grid = TileGrid(*shape)
        # Within a ULP of a grid line, ownership is float-rounding dependent
        # (tile_of and the rect bounds compute the boundary differently);
        # exclude that measure-zero set — it is not the invariant under test.
        theta_offset = (theta / grid.theta_step) % 1.0
        phi_offset = (phi / grid.phi_step) % 1.0
        assume(min(theta_offset, 1.0 - theta_offset) > 1e-9)
        assume(phi == math.pi or min(phi_offset, 1.0 - phi_offset) > 1e-9)
        owners = [tile for tile in grid.tiles() if _inside(grid.rect(*tile), theta, phi)]
        assert len(owners) == 1
        assert owners[0] == grid.tile_of(theta, phi)

    @given(grids)
    def test_index_bijection(self, shape):
        grid = TileGrid(*shape)
        indices = {grid.index_of(*tile) for tile in grid.tiles()}
        assert indices == set(range(grid.tile_count))

    @given(grids, st.integers(0, 3))
    def test_expand_monotone(self, shape, margin):
        grid = TileGrid(*shape)
        seed_tiles = {(0, 0)}
        smaller = grid.expand(seed_tiles, margin)
        larger = grid.expand(seed_tiles, margin + 1)
        assert smaller <= larger


class TestBitstreamProperties:
    @given(st.lists(st.integers(0, 2**20), max_size=50))
    def test_ue_stream_round_trip(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_ue(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_ue() for _ in values] == values

    @given(st.lists(st.integers(-(2**18), 2**18), max_size=50))
    def test_se_stream_round_trip(self, values):
        writer = BitWriter()
        for value in values:
            writer.write_se(value)
        reader = BitReader(writer.getvalue())
        assert [reader.read_se() for _ in values] == values

    @given(st.lists(st.tuples(st.integers(0, 255), st.integers(1, 16)), max_size=40))
    def test_raw_bits_round_trip(self, pairs):
        writer = BitWriter()
        for value, nbits in pairs:
            writer.write(value & ((1 << nbits) - 1), nbits)
        reader = BitReader(writer.getvalue())
        for value, nbits in pairs:
            assert reader.read(nbits) == value & ((1 << nbits) - 1)


class TestEntropyProperties:
    @given(
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=30)
    def test_sparse_rows_round_trip(self, block_count, seed):
        rng = np.random.default_rng(seed)
        rows = rng.integers(-100, 100, (3, block_count, 64)).astype(np.int32)
        rows[rng.uniform(size=rows.shape) < 0.7] = 0
        decoded = list(_read_frames(_encode_streams(rows[None])[0], 3, block_count))
        assert np.array_equal(np.stack(decoded), rows)


class TestCodecProperties:
    @staticmethod
    def _random_frames(seed: int, count: int = 3) -> list[Frame]:
        rng = np.random.default_rng(seed)
        frames = []
        # 32x32: divisible by 16 x the largest ladder downscale factor.
        base = rng.uniform(30, 220, (32, 32))
        for _ in range(count):
            base = np.clip(base + rng.normal(0, 5, base.shape), 0, 255)
            frames.append(Frame.from_luma(base))
        return frames

    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(Quality)))
    @settings(max_examples=15, deadline=None)
    def test_decoder_matches_encoder_reconstruction(self, seed, quality):
        """The encoder's prediction loop must be bit-exact with the decoder
        — the invariant that keeps P-frame chains from drifting: every
        frame the GOP encoder writes is what the per-plane oracle writes
        against its own previous reconstruction, and :func:`decode_gop`
        hands back that reconstruction (upsampled, on a reduced-resolution
        rung) for every frame."""
        from repro.video.codec import _BASE_CHROMA, _BASE_LUMA, PlaneCodec, quant_matrix
        from repro.video.frame import downsample_frame, upsample_frame
        from repro.video.gop import _HEADER

        frames = self._random_frames(seed)
        data = encode_gop(frames, quality)
        decoded = decode_gop(data, 32, 32, len(frames))
        assert len(decoded) == len(frames)
        factor = quality.downscale
        luma = PlaneCodec(quant_matrix(_BASE_LUMA, quality.scale))
        chroma = PlaneCodec(quant_matrix(_BASE_CHROMA, quality.scale))
        reference = (None, None, None)
        stream = []
        for frame, restored in zip(frames, decoded):
            coded = [
                plane_codec.quantise(plane, previous)
                for plane_codec, plane, previous in zip(
                    (luma, chroma, chroma),
                    (downsample_frame(frame, factor) if factor > 1 else frame).planes,
                    reference,
                )
            ]
            stream.append(np.concatenate([rows for rows, _ in coded]))
            reference = tuple(plane for _, plane in coded)
            oracle = Frame(*reference)
            assert restored.equals(upsample_frame(oracle, factor) if factor > 1 else oracle)
        assert data[_HEADER.size :] == _encode_streams(np.stack(stream)[None])[0]

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=10, deadline=None)
    def test_distortion_monotone_in_quality(self, seed):
        """Coarser quantisation never reduces reconstruction error."""
        from repro.video.frame import mse

        frames = self._random_frames(seed)
        errors = []
        for quality in Quality:  # best first
            decoded = decode_gop(encode_gop(frames, quality), 32, 32, len(frames))
            errors.append(sum(mse(a, b) for a, b in zip(frames, decoded)))
        rungs = list(Quality)
        for index, (better, worse) in enumerate(zip(errors, errors[1:])):
            if rungs[index].downscale != rungs[index + 1].downscale:
                # Across a resolution change the ordering is approximate:
                # on noise-like content both rungs saturate and can tie
                # within a fraction of a percent.
                assert better <= worse * 1.05 + 1e-9
            else:
                assert better <= worse + 1e-9


class TestMp4Properties:
    atom_kinds = st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz", min_size=4, max_size=4
    ).filter(lambda kind: kind not in ("moov", "trak", "vcld", "udta", "tils"))

    @given(st.lists(st.tuples(atom_kinds, st.binary(max_size=64)), max_size=8))
    def test_atom_forest_round_trip(self, spec):
        original = Mp4File(atoms=[Atom(kind, payload=data) for kind, data in spec])
        parsed = Mp4File.parse(original.serialize())
        assert parsed.serialize() == original.serialize()
        assert [a.kind for a in parsed.atoms] == [kind for kind, _ in spec]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 2**32 - 1),
                st.integers(0, 2**62),
                st.integers(0, 2**62),
            ),
            max_size=20,
        )
    )
    def test_stss_round_trip(self, entries):
        assert parse_stss(make_stss(entries)) == entries


class TestStorageProperties:
    """End-to-end invariants of the storage manager under random configs."""

    configs = st.tuples(
        st.integers(1, 2),  # grid rows
        st.integers(1, 2),  # grid cols
        st.integers(2, 5),  # gop_frames
        st.integers(1, 3),  # whole GOPs of content
        st.integers(0, 3),  # trailing partial frames
        st.integers(1, 2),  # ladder size
    )

    @given(configs, st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_ingest_metadata_round_trip(self, config, seed):
        import math
        import tempfile

        from repro.core.storage import IngestConfig, StorageManager
        from repro.workloads.videos import synthetic_video

        rows, cols, gop_frames, gops, extra, ladder = config
        fps = 4.0
        frame_count = gops * gop_frames + extra
        duration = frame_count / fps
        if frame_count == 0:
            return
        storage = StorageManager(tempfile.mkdtemp(prefix="vc-prop-"))
        ingest = IngestConfig(
            grid=TileGrid(rows, cols),
            qualities=Quality.ladder(ladder),
            gop_frames=gop_frames,
            fps=fps,
        )
        frames = list(
            synthetic_video(
                "venice", width=32 * cols, height=32 * rows, fps=fps,
                duration=duration, seed=seed % 1000,
            )
        )[:frame_count]
        meta = storage.ingest("clip", iter(frames), ingest)

        # Frame accounting is exact.
        assert sum(meta.gop_frame_counts) == frame_count
        assert meta.gop_count == math.ceil(frame_count / gop_frames)
        assert meta.duration == pytest.approx(frame_count / fps)

        # Metadata parsed back from disk is identical.
        storage._meta_cache.clear()
        reloaded = storage.meta("clip")
        assert reloaded.entries == meta.entries
        assert reloaded.gop_frame_counts == meta.gop_frame_counts
        assert reloaded.qualities == meta.qualities

        # The manifest's sizes are the real file sizes, and every window of
        # every quality decodes to the declared frame count.
        manifest = storage.build_manifest("clip")
        for gop in range(meta.gop_count):
            window = storage.read_window(
                "clip",
                gop,
                {tile: meta.qualities[-1] for tile in meta.grid.tiles()},
            )
            assert sum(map(len, window.payloads.values())) == manifest.window_size(
                gop, {tile: meta.qualities[-1] for tile in meta.grid.tiles()}
            )
            decoded = window.decode()
            assert len(decoded) == meta.gop_frame_counts[gop]
            assert decoded[0].width == 32 * cols
