"""The VisualCloud facade: one object that is the database.

Applications interact with two verbs:

* ``ingest`` — feed frames in, get a segmented, multi-quality, indexed
  store back;
* ``serve`` — run an adaptive streaming session against a viewer trace
  and get a QoE report.

Everything else (training predictors, building manifests, catalog
management) hangs off the same object.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.core.metadata import VideoMeta
from repro.core.predictor import PredictionService
from repro.core.storage import IngestConfig, StorageManager
from repro.core.streamer import Streamer
from repro.obs import MetricsRegistry
from repro.predict.traces import Trace
from repro.stream.network import SimulatedLink
from repro.stream.qoe import QoEReport
from repro.video.frame import Frame


class VisualCloud:
    """A VisualCloud database instance rooted at a directory.

    One :class:`~repro.obs.MetricsRegistry` (``self.metrics``) spans the
    whole instance — storage, cache, prediction, and the streamer all
    report into it, and :meth:`stats` merges the snapshot into the
    operational view.
    """

    def __init__(self, root: Path | str) -> None:
        self.metrics = MetricsRegistry()
        self.storage = StorageManager(root, registry=self.metrics)
        self.prediction = PredictionService(registry=self.metrics)
        self.streamer = Streamer(self.storage, self.prediction, registry=self.metrics)

    # -- catalog ------------------------------------------------------------

    def list_videos(self) -> list[str]:
        return self.storage.list_videos()

    def drop(self, name: str) -> None:
        self.storage.drop(name)

    def meta(self, name: str, version: int | None = None) -> VideoMeta:
        return self.storage.meta(name, version)

    def vacuum(self, name: str, keep_versions: int = 1) -> tuple[int, int]:
        """Garbage-collect old versions; returns (files deleted, bytes freed)."""
        return self.storage.vacuum(name, keep_versions)

    def stats(self) -> dict:
        """Operational snapshot: catalog, segment cache, and the merged
        metrics registry (counters/gauges/histograms/recent spans)."""
        return {**self.storage.stats(), "metrics": self.metrics.snapshot()}

    def fsck(self, repair: bool = False) -> dict:
        """Crash-recovery audit of the catalog; see ``StorageManager.fsck``."""
        return self.storage.fsck(repair=repair)

    def scrub(self, source=None, video: str | None = None) -> dict:
        """Verify every committed segment's bytes against its checksum,
        optionally repairing from ``source``; see ``StorageManager.scrub``."""
        return self.storage.scrub(source=source, video=video)

    # -- ingest ---------------------------------------------------------------

    def ingest(
        self,
        name: str,
        frames: Iterable[Frame],
        config: IngestConfig | None = None,
        streaming: bool = False,
        quality_plan: dict | None = None,
        workers: int | None = None,
    ) -> VideoMeta:
        """Segment, encode at the ladder, index, and commit a video.

        ``quality_plan`` optionally restricts materialised rungs per tile
        (see :mod:`repro.core.popularity`).  ``workers`` is the number of
        encode processes (default: the CPUs this process may run on).
        """
        return self.storage.ingest(
            name, frames, config or IngestConfig(), streaming, quality_plan,
            workers=workers,
        )

    def append(
        self, name: str, frames: Iterable[Frame], workers: int | None = None
    ) -> VideoMeta:
        """Extend a live video with newly arrived frames."""
        return self.storage.append(name, frames, workers=workers)

    def reingest(
        self,
        name: str,
        config: IngestConfig | None = None,
        workers: int | None = None,
    ) -> VideoMeta:
        """Re-encode a stored video into a new version (optionally resegmented)."""
        return self.storage.reingest(name, config=config, workers=workers)

    # -- prediction ---------------------------------------------------------------

    def train_predictor(self, name: str, traces: list[Trace]) -> None:
        """Train the per-video Markov prior from historical viewer traces."""
        meta = self.storage.meta(name)
        self.prediction.train(name, meta.grid, traces)

    # -- delivery -------------------------------------------------------------------

    def serve(
        self,
        name: str,
        sessions,
        *,
        base_url: str | None = None,
        link: SimulatedLink | None = None,
    ) -> QoEReport | list[QoEReport]:
        """Stream a stored video to one or many viewers — the single
        delivery entry point.

        ``sessions`` is one ``(trace, config)`` pair or a list of them;
        a single pair returns one :class:`QoEReport`, a list returns a
        list in the same order. Dispatch follows the arguments:

        * no ``base_url``, no ``link`` — each session runs on its own
          simulated link;
        * ``link`` — all sessions contend for the shared bottleneck
          (:meth:`repro.core.streamer.Streamer.serve_all`);
        * ``base_url`` — sessions fetch real bytes from the segment
          server at that address (:func:`repro.serve.serve_session`),
          reusing this instance's trained predictors. Playback timing
          still follows each session's bandwidth model, so reports stay
          comparable with the simulated paths.
        """
        single = isinstance(sessions, tuple)
        pairs = [sessions] if single else list(sessions)
        for pair in pairs:
            if not (isinstance(pair, tuple) and len(pair) == 2):
                raise TypeError(
                    f"sessions must be (trace, config) pairs, got {pair!r}"
                )

        if base_url is not None:
            if link is not None:
                raise ValueError(
                    "base_url uses the real socket; a simulated shared "
                    "link cannot apply"
                )
            from repro.serve import serve_session

            reports = [
                serve_session(
                    base_url, name, trace, session_config,
                    registry=self.metrics, prediction=self.prediction,
                )
                for trace, session_config in pairs
            ]
        else:
            reports = self.streamer.serve_all(
                [(name, trace, session_config) for trace, session_config in pairs],
                link,
            )
        return reports[0] if single else reports

