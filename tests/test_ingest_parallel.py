"""Wire-format and parallel-ingest guarantees.

The entropy coder is a wire format: stored segments and the homomorphic
tile operators depend on exact bytes. These tests hold the vectorised
coder bit-identical to the scalar reference (the format's executable
specification) and parallel ingest byte-identical to serial.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.storage import IngestConfig, StorageManager
from repro.geometry.grid import TileGrid
from repro.obs import MetricsRegistry
from repro.video import tiles
from repro.video.bitstream import BitReader, BitWriter
from repro.video.codec import (
    _encode_streams,
    _read_frames,
    _read_rows_reference,
    _write_rows_reference,
)
from repro.video.frame import Frame
from repro.video.quality import Quality
from repro.video.tiles import TiledVideoCodec, make_encode_executor
from repro.workloads.videos import synthetic_video


def _rng_rows(rng: np.random.Generator, blocks: int, density: float, span: int, frames=1):
    """``(frames, blocks, 64)`` random quantised rows."""
    rows = np.zeros((frames, blocks, 64), dtype=np.int32)
    mask = rng.random(rows.shape) < density
    rows[mask] = rng.integers(-span, span + 1, size=int(mask.sum()))
    return rows


def _reference_bytes(rows: np.ndarray) -> bytes:
    writer = BitWriter()
    _write_rows_reference(writer, rows)
    return writer.getvalue()


def _decoded(payload: bytes, frames: int, blocks: int) -> np.ndarray:
    """The vectorised decoder's frames of one payload, stacked."""
    return np.stack(list(_read_frames(payload, frames, blocks))).reshape(frames, blocks, 64)


class TestEntropyGoldenBytes:
    """The coder ingest runs (``_encode_streams`` over dense rows, the
    entry of the keys ``encode_gops`` codes) vs the scalar reference,
    byte for byte, and the vectorised decoder vs the scalar one."""

    @pytest.mark.parametrize("density", [0.0, 0.02, 0.3, 1.0])
    @pytest.mark.parametrize("span", [1, 40, 3000])
    def test_encode_identical(self, density, span):
        rng = np.random.default_rng(int(density * 100) + span)
        rows = _rng_rows(rng, blocks=37, density=density, span=span, frames=3)
        assert _encode_streams(rows[None])[0] == _reference_bytes(rows)

    def test_encode_identical_beyond_fused_pair_limit(self):
        # Levels at/above 2**21 take the scalar fallback inside
        # _encode_streams; the bytes must still match the reference exactly.
        rows = np.zeros((2, 4, 64), dtype=np.int32)
        rows[0, 0, 0] = 1 << 21
        rows[0, 1, 5] = -(1 << 21)
        rows[1, 2, 63] = (1 << 22) + 17
        assert _encode_streams(rows[None])[0] == _reference_bytes(rows)

    @pytest.mark.parametrize("density", [0.05, 0.6])
    def test_decode_identical(self, density):
        rng = np.random.default_rng(13)
        rows = _rng_rows(rng, blocks=29, density=density, span=900, frames=4)
        payload = _reference_bytes(rows)
        got_ref = _read_rows_reference(BitReader(payload), 4, 29)
        np.testing.assert_array_equal(_decoded(payload, 4, 29), got_ref)
        np.testing.assert_array_equal(got_ref, rows)

    @given(
        streams=st.integers(min_value=1, max_value=4),
        frames=st.integers(min_value=1, max_value=5),
        blocks=st.integers(min_value=1, max_value=24),
        kinds=st.lists(
            st.sampled_from(["skip", "sparse", "dense", "full"]), min_size=20, max_size=20
        ),
        span=st.integers(min_value=1, max_value=1 << 22),
        beyond=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=80, deadline=None)
    def test_v2_coder_matches_reference(self, streams, frames, blocks, kinds, span, beyond, seed):
        """Streams of frames that code nothing (one bit each), a few blocks,
        most blocks, or every coefficient of every block, with levels up to
        and past the fused-pair limit (the scalar fallback): every payload
        is the reference's bytes and decodes, both ways, to its rows."""
        rng = np.random.default_rng(seed)
        rows = np.zeros((streams, frames, blocks, 64), dtype=np.int64)
        for stream in range(streams):
            for frame in range(frames):
                kind = kinds[(stream * frames + frame) % len(kinds)]
                density = {"skip": 0.0, "sparse": 0.01, "dense": 0.3, "full": 1.0}[kind]
                rows[stream, frame] = _rng_rows(rng, blocks, density, span)[0]
                if kind == "full":
                    rows[stream, frame][rows[stream, frame] == 0] = 1
        if beyond:
            rows[rng.integers(streams), rng.integers(frames), rng.integers(blocks), 63] = -(
                1 << 21
            )
        payloads = _encode_streams(rows)
        for stream_rows, payload in zip(rows, payloads):
            assert payload == _reference_bytes(stream_rows)
            np.testing.assert_array_equal(
                _read_rows_reference(BitReader(payload), frames, blocks), stream_rows
            )
            np.testing.assert_array_equal(_decoded(payload, frames, blocks), stream_rows)

    def test_all_skip_frames_cost_a_bit(self):
        rows = np.zeros((9, 24, 64), dtype=np.int32)
        rows[0, 5, 0] = 3
        payload = _encode_streams(rows[None])[0]
        assert payload == _reference_bytes(rows)
        # ue(1), ue(5), ue(0), ue(0), se(3); then eight frames of ue(0).
        assert len(payload) == -(-(3 + 5 + 1 + 1 + 5 + 8) // 8)
        np.testing.assert_array_equal(_decoded(payload, 9, 24), rows)

    def test_decode_scans_in_chunks(self, monkeypatch):
        """A payload many scan chunks long decodes the same, whatever
        codewords straddle the chunk edges."""
        from repro.video import codec

        rng = np.random.default_rng(7)
        rows = _rng_rows(rng, blocks=40, density=0.4, span=5000, frames=6)
        payload = _reference_bytes(rows)
        for chunk in (16, 17, 23, 64):
            monkeypatch.setattr(codec, "SCAN_CHUNK_BYTES", chunk)
            assert len(payload) > 20 * chunk
            np.testing.assert_array_equal(_decoded(payload, 6, 40), rows)

    @given(
        blocks=st.integers(min_value=0, max_value=24),
        frames=st.integers(min_value=1, max_value=3),
        density=st.floats(min_value=0.0, max_value=1.0),
        span=st.integers(min_value=1, max_value=1 << 22),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_property(self, blocks, frames, density, span, seed):
        """Any quantised rows survive encode -> decode bit-exactly."""
        rng = np.random.default_rng(seed)
        rows = _rng_rows(rng, blocks=blocks, density=density, span=span, frames=frames)
        payload = _encode_streams(rows[None])[0]
        assert payload == _reference_bytes(rows)
        np.testing.assert_array_equal(_decoded(payload, frames, blocks), rows)


CONFIG = IngestConfig(
    grid=TileGrid(2, 2),
    qualities=(Quality.HIGH, Quality.LOW),
    gop_frames=4,
    fps=4.0,
)


def _end_process_pools() -> None:
    with tiles._POOLS_LOCK:
        held = list(tiles._POOLS.values())
        tiles._POOLS.clear()
    for _, finalizer in held:
        finalizer()  # the pool's shutdown, once


@pytest.fixture
def fresh_encode_pool():
    """No process encode pool before the test and none after it: for tests
    that swap ``ProcessPoolExecutor`` or count the pools built."""
    _end_process_pools()
    yield
    _end_process_pools()


def _segment_files(root) -> dict[str, bytes]:
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


class TestParallelIngestByteIdentity:
    def _frames(self):
        return list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=3)
        )

    def test_parallel_matches_serial(self, tmp_path):
        """workers=2 must write exactly the bytes workers=1 writes."""
        frames = self._frames()
        serial_root = tmp_path / "serial"
        parallel_root = tmp_path / "parallel"
        StorageManager(serial_root).ingest("clip", iter(frames), CONFIG, workers=1)
        StorageManager(parallel_root).ingest("clip", iter(frames), CONFIG, workers=2)
        serial_files = _segment_files(serial_root)
        parallel_files = _segment_files(parallel_root)
        assert serial_files.keys() == parallel_files.keys()
        assert serial_files == parallel_files

    def test_workers_default_resolves_to_cpu_count(self, monkeypatch, tmp_path, tiny_frames):
        """The CPUs this process may run on, not the machine's count — and
        the call's ``workers=`` is the one place the count is said."""
        import os

        if hasattr(os, "sched_getaffinity"):
            assert tiles.available_cpus() == len(os.sched_getaffinity(0))
            # A container limited to 2 cores of a 64-core machine.
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            assert tiles.available_cpus() == 2
            monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert tiles.available_cpus() == 3

        asked = []
        monkeypatch.setattr(
            "repro.core.storage.encode_pool",
            lambda workers, jobs, registry=None: asked.append(workers),
        )
        storage = StorageManager(tmp_path)
        gop = tiny_frames[: CONFIG.gop_frames]
        with pytest.raises(ValueError, match="workers"):
            storage.ingest("clip", iter(gop), CONFIG, workers=0)
        assert "clip" not in storage.list_videos()
        storage.ingest("clip", iter(gop), CONFIG)
        assert asked == [3]
        with pytest.raises(ValueError, match="workers"):
            storage.append("clip", iter(gop), workers=0)
        assert storage.meta("clip").version == 1
        with pytest.raises(TypeError):
            IngestConfig(workers=1)


@pytest.fixture(scope="module")
def shared_pool():
    """One 2-worker pool for the whole module (forkserver warmup paid once)."""
    pool = make_encode_executor(2, 32)
    if pool is None:
        pytest.skip("platform cannot start encode worker pools")
    yield pool
    pool.shutdown()


class TestPoolErrors:
    """What a failing pooled encode looks like from outside."""

    def test_worker_exception_reaches_the_caller_as_itself(self, tiny_frames, shared_pool):
        # THUMBNAIL encodes at half resolution, which a 16px-wide tile
        # cannot satisfy: the job raises *inside the worker*.
        codec = TiledVideoCodec(TileGrid(2, 2), 64, 32)
        ladders = {tile: (Quality.THUMBNAIL,) for tile in codec.grid.tiles()}
        with pytest.raises(ValueError, match="resolution"):
            codec.encode_gop_ladders(tiny_frames, ladders, executor=shared_pool)

    def test_failed_pooled_ingest_leaves_no_video(self, tmp_path, monkeypatch):
        """A write that fails with the next GOP in the pool: no video, and
        the process's pool still serves the next ingest, same bytes."""
        from repro.core.catalog import Catalog

        frames = list(  # three GOPs: the third is in the pool when the second's write fails
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=3.0, seed=3)
        )
        storage = StorageManager(tmp_path / "pooled")
        real = Catalog.pack_path
        calls = {"n": 0}

        def failing_pack_path(self, *args, **kwargs):
            calls["n"] += 1
            if calls["n"] > 1:  # the second GOP's pack
                raise RuntimeError("disk on fire")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Catalog, "pack_path", failing_pack_path)
        with pytest.raises(RuntimeError, match="disk on fire"):
            storage.ingest("clip", iter(frames), CONFIG, workers=2)
        assert "clip" not in storage.list_videos()

        monkeypatch.undo()
        storage.ingest("clip", iter(frames), CONFIG, workers=2)
        StorageManager(tmp_path / "serial").ingest("clip", iter(frames), CONFIG, workers=1)
        assert _segment_files(tmp_path / "pooled") == _segment_files(tmp_path / "serial")


class TestPoolFallbackIsLoud:
    def test_refused_pool_warns_and_counts(self, monkeypatch, fresh_encode_pool):
        registry = MetricsRegistry()

        def refuse(*args, **kwargs):
            raise OSError("spawn forbidden")

        monkeypatch.setattr(tiles, "ProcessPoolExecutor", refuse)
        with pytest.warns(RuntimeWarning, match="refused"):
            assert make_encode_executor(8, 32, registry=registry) is None
        assert registry.snapshot()["counters"]["ingest.pool_fallback"] == 1

    def test_deliberate_serial_stays_quiet(self):
        registry = MetricsRegistry()
        assert make_encode_executor(1, 32, registry=registry) is None
        assert make_encode_executor(4, 1, registry=registry) is None
        assert "ingest.pool_fallback" not in registry.snapshot()["counters"]

    def test_broken_pool_finishes_the_whole_version_serially(
        self, tmp_path, monkeypatch, fresh_encode_pool
    ):
        """A pool that breaks at the second GOP, with the third already
        submitted: the break must retire parallelism for the rest of the
        version (the GOP in flight included), not let the next GOP offer
        itself to a pool again — and the next version starts a fresh one."""

        class BreaksAtSecondGop:
            _max_workers = 2
            made = []

            def __init__(self, *args, **kwargs):
                BreaksAtSecondGop.made.append(self)
                self.submitted = 0

            def submit(self, fn, job):
                self.submitted += 1
                future = Future()
                if self.submitted <= self._max_workers:  # the first GOP's shares
                    future.set_result(fn(job))
                else:
                    future.set_exception(BrokenProcessPool("worker killed"))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=3.0, seed=3)
        )
        StorageManager(tmp_path / "serial").ingest("clip", iter(frames), CONFIG, workers=1)
        monkeypatch.setattr(tiles, "ProcessPoolExecutor", BreaksAtSecondGop)
        for attempt, label in enumerate(("broken", "again"), start=1):
            storage = StorageManager(tmp_path / label)
            with pytest.warns(RuntimeWarning, match="finishing serially"):
                meta = storage.ingest("clip", iter(frames), CONFIG, workers=2)
            assert meta.gop_count >= 2  # a second GOP was there to break again
            assert meta.gop_count == 3
            assert len(BreaksAtSecondGop.made) == attempt
            # Two shares a GOP: the third GOP was in the pool when the second broke.
            assert BreaksAtSecondGop.made[-1].submitted == 6
            assert storage.metrics.snapshot()["counters"]["ingest.pool_fallback"] == 1
            assert _segment_files(tmp_path / "serial") == _segment_files(tmp_path / label)


_PRELOAD_PROBE = """
import sys
sys.path.insert(0, {src!r})
from repro.video.tiles import encode_start_method, make_encode_executor

if __name__ == "__main__":
    held = []
    for _ in range(2):
        pool = make_encode_executor(2, 2)
        # eval unpickles without importing anything: what the worker holds
        # before its first job is what the forkserver preloaded.
        held.append(pool.submit(eval, "'repro.video.blocks' in __import__('sys').modules").result())
        pool.shutdown()
    print(encode_start_method(), held)
"""


class TestEncodePoolPreload:
    def test_workers_are_born_with_the_codec_imported(self):
        """``repro`` reachable only through a run-time ``sys.path`` entry —
        how ``benchmarks/perf/run.py`` runs it: the forkserver's preload
        must still import, so the workers of a second fresh pool hold the
        codec (``repro.video.blocks``, numpy and the DCT kernel) before
        their first job instead of importing it cold in every worker of
        every pool."""
        import os
        import subprocess
        import sys

        src = str(Path(tiles.__file__).resolve().parents[2])
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-c", _PRELOAD_PROBE.format(src=src)],
            env=env,
            cwd=Path(src).anchor,  # not the repo: '' on sys.path must not find repro
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        method, held = done.stdout.strip().split(" ", 1)
        if method != "forkserver":
            pytest.skip("no forkserver on this platform: spawned workers import cold")
        assert held == "[True, True]"


_EXIT_PROBE = """
import json
import multiprocessing
import sys
import time

sys.path.insert(0, {src!r})


def child(connection, root):
    from repro.core.storage import IngestConfig, StorageManager
    from repro.geometry.grid import TileGrid
    from repro.video import tiles
    from repro.video.quality import Quality
    from repro.workloads.videos import synthetic_video

    config = IngestConfig(TileGrid(2, 2), (Quality.LOW,), gop_frames=4, fps=4.0)
    frames = synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0)
    StorageManager(root).ingest("clip", frames, config, workers=2)
    connection.send([pid for pool, _ in tiles._POOLS.values() for pid in pool._processes])


if __name__ == "__main__":
    context = multiprocessing.get_context("spawn")
    here, there = context.Pipe()
    process = context.Process(target=child, args=(there, {root!r}))
    process.start()
    workers = here.recv()
    returned = time.monotonic()
    process.join(timeout={timeout})
    exit_s = time.monotonic() - returned
    if process.is_alive():
        process.kill()
    with open({report!r}, "w") as report:
        json.dump({{"workers": workers, "exit_s": exit_s}}, report)
"""


def _alive(pid: int) -> bool:
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(") ")[2].split()[0] != "Z"


class TestPoolLifetime:
    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
    def test_pool_ends_with_a_multiprocessing_child(self, tmp_path):
        """A ``spawn`` child that ingests on the process pool and returns
        exits within seconds and leaves no encode worker alive. multiprocessing
        joins a child's children before threading's exit hooks (where
        ``ProcessPoolExecutor`` shuts itself down) run, so without the
        pool's exit finalizer the child waits forever on idle workers."""
        import json
        import os
        import signal
        import subprocess
        import sys
        import time

        script, report_path = tmp_path / "probe.py", tmp_path / "report.json"
        script.write_text(
            _EXIT_PROBE.format(
                src=str(Path(tiles.__file__).resolve().parents[2]),
                root=str(tmp_path / "db"),
                timeout=15,
                report=str(report_path),
            )
        )
        # Output to a file, not a pipe: workers left alive would hold a
        # pipe open and stall this test until its timeout.
        with open(tmp_path / "stderr.txt", "w+") as stderr:
            done = subprocess.run(
                [sys.executable, str(script)],
                stdout=subprocess.DEVNULL,
                stderr=stderr,
                timeout=120,
            )
            stderr.seek(0)
            assert done.returncode == 0, stderr.read()
        report = json.loads(report_path.read_text())
        deadline = time.monotonic() + 5
        while any(map(_alive, report["workers"])) and time.monotonic() < deadline:
            time.sleep(0.05)
        left = [pid for pid in report["workers"] if _alive(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert len(report["workers"]) == 2
        assert report["exit_s"] < 10, report
        assert not left, report


class TestProcessPool:
    def test_one_pool_serves_concurrent_ingests(
        self, tmp_path, monkeypatch, fresh_encode_pool
    ):
        """Two threads ingest two videos at once on ``workers=2``: one pool
        is built, and each store is the serial store byte for byte."""
        import threading

        built = []

        class Counted(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                built.append(self)
                super().__init__(*args, **kwargs)

        clips = {
            name: list(
                synthetic_video(name, width=64, height=32, fps=4.0, duration=3.0, seed=4)
            )
            for name in ("venice", "coaster")
        }
        for name, frames in clips.items():
            StorageManager(tmp_path / "serial" / name).ingest(
                name, iter(frames), CONFIG, workers=1
            )
        monkeypatch.setattr(tiles, "ProcessPoolExecutor", Counted)
        start = threading.Barrier(len(clips))
        failures = []

        def ingest(name):
            try:
                start.wait(timeout=30)
                StorageManager(tmp_path / "pooled" / name).ingest(
                    name, iter(clips[name]), CONFIG, workers=2
                )
            except Exception as error:  # reported below, in the test's thread
                failures.append(error)

        threads = [threading.Thread(target=ingest, args=(name,)) for name in clips]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not failures
        assert len(built) == 1
        for name in clips:
            assert _segment_files(tmp_path / "pooled" / name) == _segment_files(
                tmp_path / "serial" / name
            )

    def test_parent_working_set_is_two_gops_ahead_at_most(self, tmp_path):
        """The parent of a pooled ingest holds, beyond the frames it was
        handed, at most 4 x one GOP's raw bytes however long the video:
        the crops of the GOP in the pool and of the next one, and the call
        queue's pickles of two shares (DESIGN.md, "Process-parallel segment
        encoding"). Submitting every GOP up front breaks it."""
        import tracemalloc

        config = IngestConfig(
            grid=TileGrid(2, 4), qualities=(Quality.HIGH, Quality.LOW), gop_frames=4, fps=10.0
        )
        frames = list(
            synthetic_video("venice", width=512, height=256, fps=10.0, duration=2.0, seed=2)
        )
        gop_bytes = 512 * 256 * 3 // 2 * config.gop_frames
        # The process's pool is started outside the measurement.
        StorageManager(tmp_path / "warm").ingest(
            "clip", iter(frames[: config.gop_frames]), config, workers=2
        )
        storage = StorageManager(tmp_path / "db")
        tracemalloc.start()
        try:
            meta = storage.ingest("clip", iter(frames), config, workers=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert meta.gop_count == 5
        assert peak < 4 * gop_bytes, peak / gop_bytes


class RecordingExecutor:
    """Runs jobs inline and keeps them: what a pool would have been sent."""

    def __init__(self, max_workers):
        self._max_workers = max_workers
        self.jobs = []

    def submit(self, fn, job):
        self.jobs.append(job)
        future = Future()
        future.set_result(fn(job))
        return future


class TestShares:
    def test_shares_follow_executor_not_workers_param(self):
        """A shared pool sized 2 gets 2 shares, whatever ``workers`` says,
        and every tile lands — whole — in exactly one of them."""
        frames = list(
            synthetic_video("venice", width=128, height=64, fps=4.0, duration=0.5, seed=1)
        )
        codec = TiledVideoCodec(TileGrid(4, 4), 128, 64)
        ladders = {tile: (Quality.HIGH, Quality.LOW) for tile in codec.grid.tiles()}
        ladders[(0, 0)] = (Quality.LOW,)  # a partial ladder
        executor = RecordingExecutor(max_workers=2)
        parallel = codec.encode_gop_ladders(frames, ladders, workers=16, executor=executor)
        assert parallel == codec.encode_gop_ladders(frames, ladders)
        shares = [job[0] for job in executor.jobs]
        assert len(shares) == 2
        owners = [{tile for tile, _ in share} for share in shares]
        assert not owners[0] & owners[1]
        assert owners[0] | owners[1] == set(ladders)
        assert sorted(stream for share in shares for stream in share) == sorted(
            (tile, quality) for tile, ladder in ladders.items() for quality in ladder
        )
        # 31 streams over 2 workers: as even as whole tiles allow.
        assert sorted(len(share) for share in shares) == [15, 16]

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_each_tile_crosses_the_process_boundary_once_property(self, data):
        """What a GOP's jobs carry is, tile for tile, the crop of every
        laddered tile exactly once — however many rungs it has and however
        many workers share it — so the bytes shipped are the GOP's raw
        bytes, not rungs x that (per-rung jobs measured 0.87x, PR 7)."""
        tile_px = 16
        rows = data.draw(st.integers(1, 2), label="grid rows")
        cols = data.draw(st.integers(1, 4), label="grid cols")
        frame_count = data.draw(st.integers(1, 3), label="frames")
        rungs = [quality for quality in Quality if quality.downscale == 1]
        grid = TileGrid(rows, cols)
        ladders = data.draw(
            st.dictionaries(
                st.sampled_from(list(grid.tiles())),
                st.lists(st.sampled_from(rungs), min_size=1, unique=True).map(tuple),
                min_size=1,
            ),
            label="ladders",
        )
        pool_size = data.draw(st.integers(1, 8), label="pool size")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        height, width = rows * tile_px, cols * tile_px
        shapes = ((height, width), (height // 2, width // 2), (height // 2, width // 2))
        frames = [
            Frame(*(rng.integers(0, 256, shape, dtype=np.uint8) for shape in shapes))
            for _ in range(frame_count)
        ]

        codec = TiledVideoCodec(grid, cols * tile_px, rows * tile_px)
        executor = RecordingExecutor(pool_size)
        codec.encode_gop_ladders(frames, ladders, executor=executor)
        assert len(executor.jobs) <= pool_size
        carried = [tile for _, planes, *_ in executor.jobs for tile in planes]
        assert sorted(carried) == sorted(ladders)
        shipped = 0
        for share, planes, *_ in executor.jobs:
            assert set(planes) == {tile for tile, _ in share}
            for (row, col), stacked in planes.items():
                x0, y0 = col * tile_px, row * tile_px
                for index, frame in enumerate(frames):
                    own = frame.crop(x0, y0, x0 + tile_px, y0 + tile_px)
                    assert Frame(*(plane[index] for plane in stacked)).equals(own)
                shipped += sum(plane.nbytes for plane in stacked)
        assert shipped == len(ladders) * frame_count * tile_px * tile_px * 3 // 2

    def test_never_more_shares_than_tiles(self):
        ladders = {(0, 0): (Quality.HIGH, Quality.LOW), (0, 1): (Quality.HIGH,)}
        shares = tiles._shares(ladders, 8)
        assert [[tile for tile, _ in share] for share in shares] == [
            [(0, 0), (0, 0)],
            [(0, 1)],
        ]


def _scalar_reference_gop(frames: list[Frame], quality: Quality) -> bytes:
    """One (tile, rung) segment the slow way: per frame and per plane, the
    tile's own ``PlaneCodec.quantise`` chain, entropy-coded symbol by
    symbol — the wire format's specification, with no batching anywhere."""
    from repro.video.codec import _BASE_CHROMA, _BASE_LUMA, PlaneCodec, quant_matrix
    from repro.video.frame import downsample_frame
    from repro.video.gop import _HEADER, GOP_FORMAT_VERSION, GOP_MAGIC

    width, height = frames[0].width, frames[0].height
    if quality.downscale > 1:
        frames = [downsample_frame(frame, quality.downscale) for frame in frames]
    luma = PlaneCodec(quant_matrix(_BASE_LUMA, quality.scale))
    chroma = PlaneCodec(quant_matrix(_BASE_CHROMA, quality.scale))
    reference = None
    coded = []  # each frame's Y, U and V rows back to back
    for frame in frames:
        rows, reference = zip(
            *(
                codec.quantise(plane, previous)
                for codec, plane, previous in zip(
                    (luma, chroma, chroma), frame.planes, reference or (None, None, None)
                )
            )
        )
        coded.append(np.concatenate(rows))
    writer = BitWriter()
    _write_rows_reference(writer, np.stack(coded))
    header = _HEADER.pack(GOP_MAGIC, GOP_FORMAT_VERSION, quality.rank, width, height, len(frames))
    return header + writer.getvalue()


class TestLockstepEncoder:
    """The lock-step encoder against the scalar reference, stream by stream."""

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_scalar_reference_property(self, data):
        tile_px = data.draw(st.sampled_from([16, 32]), label="tile px")
        rows = data.draw(st.integers(1, 2), label="grid rows")
        cols = data.draw(st.integers(1, 3), label="grid cols")
        # Up to the benchmark's 10-frame GOP: a 1-frame GOP reconstructs
        # nothing, longer ones skip only the last frame's reconstruction.
        frame_count = data.draw(st.integers(1, 10), label="frames")
        # A reduced-resolution rung needs 32 px of tile to halve.
        rungs = [q for q in Quality if tile_px // q.downscale >= 16]
        ladder = st.lists(st.sampled_from(rungs), min_size=1, max_size=len(rungs), unique=True)
        grid = TileGrid(rows, cols)
        ladders = data.draw(
            st.dictionaries(st.sampled_from(list(grid.tiles())), ladder, min_size=1),
            label="ladders",
        )
        ladders = {tile: tuple(ladder) for tile, ladder in ladders.items()}
        streams_per_step = data.draw(st.sampled_from([1, 2, 5, 1000]), label="streams a step")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        height, width = rows * tile_px, cols * tile_px
        shapes = ((height, width), (height // 2, width // 2), (height // 2, width // 2))
        planes = [rng.uniform(0, 255, shape) for shape in shapes]
        frames = []
        for _ in range(frame_count):
            planes = [np.clip(p + rng.normal(0, 12, p.shape), 0, 255) for p in planes]
            frames.append(Frame(*(np.round(p).astype(np.uint8) for p in planes)))

        codec = TiledVideoCodec(grid, cols * tile_px, rows * tile_px)
        step = streams_per_step * tile_px * tile_px * 3 // 2 * frame_count
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tiles, "STEP_SAMPLES", step)
            encoded = codec.encode_gop_ladders(frames, ladders)
        assert set(encoded) == {
            (tile, quality) for tile, ladder in ladders.items() for quality in ladder
        }
        for (tile, quality), payload in encoded.items():
            x0, y0 = tile[1] * tile_px, tile[0] * tile_px
            own = [frame.crop(x0, y0, x0 + tile_px, y0 + tile_px) for frame in frames]
            assert payload == _scalar_reference_gop(own, quality), (tile, quality)

    def test_still_and_thumbnail_segments_match_reference(self):
        """A 1-frame GOP, predicted frames that code nothing (a still
        image), and the reduced-resolution rung, against the reference."""
        grid = TileGrid(1, 2)
        rng = np.random.default_rng(4)
        still = Frame(
            *(rng.integers(0, 256, shape, dtype=np.uint8) for shape in ((32, 64), (16, 32), (16, 32)))
        )
        flat = Frame.blank(64, 32, luma=90)
        codec = TiledVideoCodec(grid, 64, 32)
        ladders = {tile: (Quality.HIGH, Quality.LOWEST, Quality.THUMBNAIL) for tile in grid.tiles()}
        for frames in ([still], [still] * 5, [flat] * 4):
            encoded = codec.encode_gop_ladders(frames, ladders, workers=1)
            for (tile, quality), payload in encoded.items():
                x0 = tile[1] * 32
                own = [frame.crop(x0, 0, x0 + 32, 32) for frame in frames]
                assert payload == _scalar_reference_gop(own, quality), (len(frames), quality)
        # Three flat predicted frames: one bit each, in the last byte or two.
        intra = codec.encode_gop_ladders([flat], ladders, workers=1)
        assert all(len(encoded[key]) - len(intra[key]) <= 1 for key in intra)

    def test_level_guard_holds_per_stream(self, monkeypatch):
        """Rows at the fused-pair limit in the *middle* stream of a batch:
        that stream alone goes to the scalar coder, its batch-mates stay
        vectorised, and all three match the reference."""
        from repro.video import codec

        rng = np.random.default_rng(21)
        rows = np.stack([_rng_rows(rng, blocks=6, density=0.3, span=900) for _ in range(3)])
        rows[1, 0, 2, 0] = 1 << 21
        rows[1, 0, 4, 63] = -(1 << 22) - 5
        scalar_calls = []
        reference = codec._write_rows_reference

        def counting(writer, stream_rows):
            scalar_calls.append(stream_rows.copy())
            reference(writer, stream_rows)

        monkeypatch.setattr(codec, "_write_rows_reference", counting)
        payloads = codec._encode_streams(rows)
        assert len(scalar_calls) == 1
        np.testing.assert_array_equal(scalar_calls[0], rows[1])
        for stream_rows, payload in zip(rows, payloads):
            writer = BitWriter()
            reference(writer, stream_rows)
            assert payload == writer.getvalue()

    def test_step_budget_bounds_the_working_set(self, monkeypatch):
        """In-process encode of a 1024x512 GOP x 3 rungs allocates no more
        than the step budget allows on top of its output, at 2 frames and
        at the benchmark's 10 — and does once the budget is gone (96
        streams of 128x128 in one step)."""
        import tracemalloc

        codec = TiledVideoCodec(TileGrid(4, 8), 1024, 512)
        ladders = {
            tile: (Quality.HIGH, Quality.MEDIUM, Quality.LOWEST)
            for tile in codec.grid.tiles()
        }

        def peak_over_output(frames) -> int:
            tracemalloc.start()
            try:
                encoded = codec.encode_gop_ladders(frames, ladders, workers=1)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            return peak - sum(len(payload) for payload in encoded.values())

        def bound(frames) -> int:
            # Samples count every frame of the GOP. One 128x128 stream
            # may exceed the budget; a step is never less than one stream.
            step = max(tiles.STEP_SAMPLES, 128 * 128 * 3 // 2 * len(frames))
            return step * tiles.STEP_PEAK_BYTES_PER_SAMPLE

        for frame_count in (2, 10):
            frames = list(
                synthetic_video(
                    "venice", width=1024, height=512, fps=2.0 * frame_count,
                    duration=0.5, seed=2,
                )
            )
            assert len(frames) == frame_count
            assert peak_over_output(frames) < bound(frames), frame_count
        budgeted = bound(frames[:2])
        monkeypatch.setattr(tiles, "STEP_SAMPLES", 1 << 40)
        assert peak_over_output(frames[:2]) > 4 * budgeted


class TestLadderEncodeByteIdentity:
    """encode_gop_ladders on a real pool, against the in-process oracle."""

    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        ladder_picks=st.lists(
            st.sampled_from(
                [
                    (Quality.HIGH,),
                    (Quality.LOW,),
                    (Quality.HIGH, Quality.LOW),
                    (Quality.HIGH, Quality.MEDIUM, Quality.LOWEST),
                ]
            ),
            min_size=4,
            max_size=4,
        ),
    )
    @settings(max_examples=8, deadline=None)
    def test_parallel_matches_in_process_property(self, seed, ladder_picks, shared_pool):
        frames = list(
            synthetic_video(
                "venice", width=64, height=32, fps=4.0, duration=0.75, seed=seed
            )
        )
        codec = TiledVideoCodec(TileGrid(2, 2), 64, 32)
        ladders = dict(zip(codec.grid.tiles(), ladder_picks))
        serial = codec.encode_gop_ladders(frames, ladders)
        parallel = codec.encode_gop_ladders(frames, ladders, executor=shared_pool)
        assert parallel == serial

    def test_planned_ingest_parallel_matches_serial(self, tmp_path):
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=3)
        )
        plan = {
            (0, 0): (Quality.LOW,),
            (1, 1): (Quality.HIGH,),
        }
        for label, workers in (("serial", 1), ("parallel", 2)):
            storage = StorageManager(tmp_path / label)
            storage.ingest("clip", iter(frames), CONFIG, quality_plan=plan, workers=workers)
        assert _segment_files(tmp_path / "serial") == _segment_files(tmp_path / "parallel")
        # One transport, so nothing left to count: the pool's only series
        # is the fallback one.
        counters = storage.metrics.snapshot()["counters"]
        assert not [name for name in counters if "shm" in name or "pickled" in name]

    def test_reingest_parallel_matches_serial(self, tmp_path):
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=5)
        )
        metas = {}
        for label, workers in (("serial", 1), ("parallel", 2)):
            root = tmp_path / label
            storage = StorageManager(root)
            storage.ingest("clip", iter(frames), CONFIG, workers=1)
            metas[label] = storage.reingest("clip", workers=workers)
        assert metas["serial"].version == metas["parallel"].version == 2
        serial_files = _segment_files(tmp_path / "serial")
        parallel_files = _segment_files(tmp_path / "parallel")
        assert serial_files == parallel_files


class TestReingest:
    def test_reingest_creates_new_version(self, tmp_path):
        storage = StorageManager(tmp_path)
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=5)
        )
        storage.ingest("clip", iter(frames), CONFIG, workers=1)
        meta = storage.reingest("clip", workers=1)
        assert meta.version == 2
        assert meta.gop_count == storage.meta("clip", 1).gop_count

    def test_reingest_can_change_grid(self, tmp_path):
        storage = StorageManager(tmp_path)
        frames = list(
            synthetic_video("venice", width=64, height=32, fps=4.0, duration=2.0, seed=5)
        )
        storage.ingest("clip", iter(frames), CONFIG, workers=1)
        new_config = IngestConfig(
            grid=TileGrid(1, 2),
            qualities=(Quality.HIGH,),
            gop_frames=4,
            fps=4.0,
        )
        meta = storage.reingest("clip", config=new_config, workers=1)
        assert meta.grid == TileGrid(1, 2)
        assert set(meta.qualities) == {Quality.HIGH}
