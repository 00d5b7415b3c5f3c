"""The host: one child process that owns the program under test.

It holds the ``VisualCloud(root)`` and the ``start_server(...)`` handle
and executes commands sent over a pipe; the driver owns the clocks and
the sockets. Keeping the server out of the driver's interpreter matters:
as a thread of the load generator it measured 104-136 req/s through
``HttpSegmentClient``, as a child 540-950 req/s on the same store — the
first number was the GIL, not the program.

Everything here goes through public entry points (``VisualCloud``,
``StorageManager``, ``start_server``, ``MetricsRegistry.snapshot``);
nothing under ``src/`` is patched.
"""

from __future__ import annotations

import os
import resource
import shutil
import signal
import time
import traceback
from pathlib import Path
from time import perf_counter

import inputs
import sessions
import spans as spans_module


class Host:
    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        self.roots = 0
        self.root: Path | None = None
        self.db = None
        self.handle = None
        self.served = None  # the StorageManager the server reads through
        self.twin = None  # the hop loop's pinned server
        self.frames_written = 0
        self.spans = spans_module.OFF

    # -- lifecycle ----------------------------------------------------------

    def new_db(self) -> dict:
        """A fresh, empty database root; the previous one is deleted."""
        from repro import VisualCloud

        self.close()
        self.roots += 1
        self.root = self.scratch / f"tmp-{os.getpid()}-{self.roots}"
        self.root.mkdir(parents=True)
        self.db = VisualCloud(self.root)
        # E1's setting: delivery unions predictions across a window, so
        # the Markov coverage target is tightened to keep hedging selective.
        self.db.prediction.markov_coverage = 0.8
        self.frames_written = 0
        return {"root": str(self.root)}

    def close(self) -> None:
        self.stop_server()
        self.stop_pinned_twin()
        self.db = None
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None

    def start_server(self, cache_bytes: int, config: dict) -> dict:
        """Serve the current root through its own ``StorageManager`` (so
        the pool size is the workload's and its registry holds only
        server-side counts)."""
        from repro import ServerConfig, start_server
        from repro.core.storage import StorageManager

        self.stop_server()
        with self.spans.span("serve.server.start"):
            self.served = StorageManager(self.root, cache_bytes=cache_bytes)
            self.handle = start_server(self.served, ServerConfig(**config))
        return {"address": self.handle.address, "base_url": self.handle.base_url}

    def stop_server(self) -> None:
        if self.handle is not None:
            self.handle.stop()
            self.handle = None
            self.served = None

    def trace(self, on: bool) -> None:
        self.spans = spans_module.Spans("host") if on else spans_module.OFF

    def take_spans(self) -> list[dict]:
        rows, self.spans.rows = list(self.spans.rows), []
        return rows

    # -- the write path -----------------------------------------------------

    def ingest(self, name: str, frames: list, streaming: bool = False,
               workers: int | None = None) -> dict:
        return self._write("core.storage.ingest", len(frames), lambda: self.db.ingest(
            name, frames, inputs.ingest_config(), streaming=streaming, workers=workers))

    def append(self, name: str, frames: list) -> dict:
        return self._write("core.storage.append", len(frames),
                           lambda: self.db.append(name, frames))

    def _write(self, span: str, frames: int, write) -> dict:
        commits = self.db.metrics.histogram("storage.ingest.commit.seconds")
        committed = commits.sum()
        with self.spans.span(span):
            started = perf_counter()
            meta = write()
            ended = perf_counter()
        self.frames_written += frames
        return {
            "seconds": ended - started,
            "commit_s": commits.sum() - committed,  # the registry's own timing
            "frames": frames,
            "version": meta.version,
            "windows": meta.gop_count,
            "stored_bytes": self.db.storage.total_bytes(meta.name),
        }

    def same_bytes(self, first: str, second: str) -> bool:
        """Whether two stored videos hold identical segments: same index
        (sizes and checksums) and the same bytes on a read of each."""
        storage = self.db.storage
        one, two = storage.meta(first), storage.meta(second)
        index = lambda meta: {
            key: (entry.size, entry.checksum) for key, entry in meta.entries.items()
        }
        if index(one) != index(two):
            return False
        return all(
            storage.read_segment(first, *key) == storage.read_segment(second, *key)
            for key in one.entries
        )

    def train(self, name: str, traces: list) -> None:
        with self.spans.span("predict.train"):
            self.db.train_predictor(name, traces)

    # -- the read path ------------------------------------------------------

    def catalog(self, name: str) -> dict:
        """Canonical segment paths and the window count of one stored video."""
        manifest = self.db.storage.build_manifest(name)
        keys = sorted(manifest.segment_sizes, key=lambda key: key.to_path())
        return {
            "paths": [f"/segment/{name}/{key.to_path()}" for key in keys],
            "windows": manifest.window_count,
        }

    def read_segments(self, paths: list[str]) -> list[bytes]:
        """Authoritative bytes for sampled wire bodies to be compared with."""
        from repro.stream.dash import SegmentKey

        out = []
        for path in paths:
            _, _, name, tail = path.split("/", 3)
            key = SegmentKey.from_path(tail)
            out.append(self.db.storage.read_segment(name, key.window, key.tile, key.quality))
        return out

    def run_sessions(self, name: str, traces: list, arms: list[str],
                     probe: bool = False) -> list[dict]:
        """Simulated sessions through ``VisualCloud.serve``: every trace
        under every arm, on a constant link at the naive rate."""
        manifest = self.db.storage.build_manifest(name)
        rate = sessions.naive_rate(manifest)
        out = []
        for trace in traces:
            for arm in arms:
                config = sessions.session_config(arm, rate, self.spans, probe)
                with self.spans.span("core.streamer.session"):
                    started = perf_counter()
                    report = self.db.serve(name, (trace, config))
                    ended = perf_counter()
                out.append(sessions.digest(report, manifest, config, arm, started, ended))
        return out

    # -- observation --------------------------------------------------------

    def observe(self) -> dict:
        """The server-side registry, and what the host process has used."""
        return {
            "served": self.served.metrics.snapshot() if self.served is not None else {},
            "peak_rss_mb": peak_rss_mb(),
        }

    def cpu_seconds(self) -> float:
        return time.process_time()

    def layers(self, name: str, frames: list, traces: list, groups: list[str]) -> dict:
        import layers

        return layers.host_side(self, name, frames, traces, groups)

    def start_pinned_twin(self, name: str) -> dict:
        """One more server over the current root with ``name`` prewarmed
        into pins, for the hop loop to compare the workload's against."""
        from repro import ServerConfig, start_server
        from repro.core.storage import StorageManager

        self.twin = start_server(StorageManager(self.root), ServerConfig(
            pin_budget_bytes=64 * 1024 * 1024, pin_threshold=1, prewarm=(name,)))
        return {"address": self.twin.address}

    def stop_pinned_twin(self) -> None:
        if self.twin is not None:
            self.twin.stop()
            self.twin = None


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark. ``VmHWM`` rather than
    ``ru_maxrss``: the latter starts a spawned child at its *parent's*
    size (it read 70, 89, then 95 MB for three identical hosts started
    by one growing driver), the former starts at exec."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # reported in kB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(connection, scratch: str) -> None:
    """Command loop: ``(method, kwargs, calling span)`` in, ``("ok",
    result)`` or ``("error", traceback)`` out, until ``None`` or EOF."""
    # Ctrl-C is the driver's to act on: it unwinds, ends this process and
    # waits for what this process started (see ``run.reap_children``).
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    host = Host(Path(scratch))
    try:
        while True:
            try:
                message = connection.recv()
            except EOFError:
                break
            if message is None:
                break
            method, kwargs, host.spans.caller = message
            try:
                connection.send(("ok", getattr(host, method)(**kwargs)))
            except Exception:
                connection.send(("error", traceback.format_exc()))
    finally:
        host.close()
        connection.close()
