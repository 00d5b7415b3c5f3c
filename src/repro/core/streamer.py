"""The delivery engine: per-session adaptive tile streaming.

For every delivery window of a session the streamer (1) asks the
predictor for a forecast of the tiles the viewer may see when the window
plays, (2) asks the quality policy for a per-tile quality assignment
under the link budget, (3) assembles the window homomorphically from
stored segments, and (4) accounts for the transfer on the simulated link
and the client's playback schedule. The output is a :class:`repro.stream.qoe.QoEReport`.

Timing model
------------
Media time and wall time are linked through the playback schedule: the
client requests window ``w`` up to ``buffer_windows`` window-durations
before it is due to play, the server's prediction decision happens at
request time, and the prediction horizon is therefore an *emergent*
quantity — deeper client buffers mean earlier decisions and harder
predictions. That coupling is the trade-off the granularity ablation
(E7) measures.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.predictor import PredictionService
from repro.core.resilience import RetryPolicy, read_window_resilient
from repro.core.storage import StorageManager
from repro.obs import MetricsRegistry
from repro.geometry.viewport import Orientation, Viewport
from repro.predict.predictors import Predictor
from repro.predict.traces import Trace
from repro.stream.abr import QualityPolicy, estimate_budget
from repro.stream.client import PlaybackSimulator, ViewportQualityProbe
from repro.stream.estimator import ThroughputEstimator
from repro.stream.dash import Manifest
from repro.stream.network import BandwidthModel, SimulatedLink
from repro.stream.qoe import QoEReport, WindowRecord
from repro.video.tiles import TiledGop

#: Orientation instants per window for forecast and ground-truth footprints.
WINDOW_SAMPLES = 3


@dataclass
class SessionConfig:
    """Everything that parameterises one streaming session."""

    policy: QualityPolicy
    bandwidth: BandwidthModel
    #: Holding the pose is the honest default at the >= 1-s horizon (E3). The
    #: one place it is stated: the CLI and the chaos runner read it from here.
    predictor: str = "static"
    viewport: Viewport = field(default_factory=Viewport)
    #: Not read on the delivery path: the policy's forecast is the hedge.
    #: Kept only because the benchmark's session arms pass it; removing it
    #: waits on ROADMAP item 8 (e).
    margin: int = 1
    buffer_windows: float = 1.0  # request lead, in window durations
    rtt: float = 0.0  # per-request round-trip latency, seconds
    evaluate_quality: bool = False  # run the (expensive) viewport PSNR probe
    #: Client-side throughput estimator. None = oracle (read the link
    #: model's true rate) — the default the estimation ablation compares
    #: realistic estimators against. A template: every session streams on
    #: its own deep copy, so this object is never reset or fed.
    estimator: "ThroughputEstimator | None" = None
    #: Bounded retry for transient segment reads; None uses the module
    #: default (3 attempts — see :mod:`repro.core.resilience`).
    retry: RetryPolicy | None = None


@dataclass
class _Session:
    """One viewer's progress through their video."""

    name: str
    trace: Trace
    config: SessionConfig
    manifest: Manifest
    predictor: Predictor
    #: The session's private throughput estimator. Deep-copied from the
    #: config so N sessions sharing one ``SessionConfig`` do not share
    #: one estimator — a shared instance lets sessions corrupt each
    #: other's bandwidth signal.
    estimator: ThroughputEstimator | None
    start_offset: float  # wall time the session begins
    mode: str  # metrics label: "shared" when the caller passed a link, else "single"
    label: str  # per-session metrics label
    next_window: int = 0
    trace_cursor: int = 0
    starts: list[float] = field(default_factory=list)
    records: list[WindowRecord] = field(default_factory=list)

    @property
    def finished(self) -> bool:
        return self.next_window >= self.manifest.window_count

    def next_request_time(self, link_busy_until: float) -> float:
        """When this session wants its next window on the wire. The first
        request goes out at the arrival offset whatever the link is doing;
        later ones ``buffer_windows`` ahead of playback, once the link frees."""
        if self.next_window == 0:
            return max(self.start_offset, 0.0)
        duration = self.manifest.window_duration
        due = self.starts[-1] + duration
        return max(link_busy_until, due - self.config.buffer_windows * duration)


class Streamer:
    """Serves stored videos to simulated viewers, one link at a time.

    Sessions interleave at window granularity on a
    :class:`~repro.stream.network.SimulatedLink`, in request order, so
    contention — the queueing delay one viewer's bytes impose on
    another's — is modelled rather than assumed away. A viewer with a
    private link is the one-session case of the same loop.

    ``registry`` is where per-window delivery metrics land (decision,
    queue, transfer, and stall timings; byte and window counters; a
    shared link's utilisation); it defaults to the storage manager's
    registry so one export covers the whole path.
    """

    def __init__(
        self,
        storage: StorageManager,
        prediction: PredictionService,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.storage = storage
        self.prediction = prediction
        self.metrics = (
            registry
            if registry is not None
            else getattr(storage, "metrics", None) or MetricsRegistry()
        )

    def serve(self, name: str, trace: Trace, config: SessionConfig) -> QoEReport:
        """Run one complete session on a private link and return its QoE report."""
        return self.serve_all([(name, trace, config)])[0]

    def serve_all(
        self,
        sessions: list[tuple[str, Trace, SessionConfig]],
        link: SimulatedLink | None = None,
        start_offsets: list[float] | None = None,
    ) -> list[QoEReport]:
        """Run every session to completion; one QoE report each, in input order.

        With ``link`` all sessions contend for that one bottleneck (their
        own bandwidth models are ignored), optionally staggered by
        ``start_offsets`` (default: all arrive at 0). Without it each
        session gets a private ``SimulatedLink(config.bandwidth,
        rtt=config.rtt)`` and runs to completion before the next one
        opens, so storage sees one viewer's reads at a time.
        """
        if not sessions:
            raise ValueError("no sessions to serve")
        if link is None:
            if start_offsets is not None:
                raise ValueError("start_offsets only applies to shared-link serving")
            return [
                self._run(
                    [spec], SimulatedLink(spec[2].bandwidth, rtt=spec[2].rtt), [0.0], "single"
                )[0]
                for spec in sessions
            ]
        offsets = start_offsets or [0.0] * len(sessions)
        if len(offsets) != len(sessions):
            raise ValueError(
                f"{len(offsets)} start offsets for {len(sessions)} sessions"
            )
        active = self.metrics.counter(
            "sharedlink.active_seconds", "link time spent transferring"
        )
        active_before = active.total()
        reports = self._run(sessions, link, offsets, "shared")
        if link.busy_until > 0:
            self.metrics.gauge(
                "sharedlink.utilisation",
                "fraction of the link's makespan spent transferring (last run)",
            ).set((active.total() - active_before) / link.busy_until)
        return reports

    def _run(self, specs, link: SimulatedLink, offsets, mode: str) -> list[QoEReport]:
        sessions = self._open_sessions(specs, offsets, mode)
        self._schedule(sessions, link)
        for session in sessions:
            # Cross-check the incremental schedule against the playback model.
            playback = PlaybackSimulator(session.manifest.window_duration)
            model_starts, _ = playback.schedule([r.delivered_time for r in session.records])
            for mine, model in zip(session.starts, model_starts):
                if abs(mine - model) > 1e-6:
                    raise AssertionError("playback schedule diverged from the client model")
        return [QoEReport(session.records) for session in sessions]

    def _open_sessions(self, specs, offsets, mode: str) -> list[_Session]:
        sessions = []
        for index, ((name, trace, config), offset) in enumerate(zip(specs, offsets)):
            self.metrics.counter("stream.sessions", "streaming sessions started").inc(
                mode=mode
            )
            manifest = self.storage.build_manifest(name)
            predictor = self.prediction.session_predictor(
                config.predictor, video=name, grid=manifest.grid, trace=trace
            )
            predictor.reset()
            estimator = copy.deepcopy(config.estimator)
            if estimator is not None:
                estimator.reset()
            sessions.append(
                _Session(
                    name=name,
                    trace=trace,
                    config=config,
                    manifest=manifest,
                    predictor=predictor,
                    estimator=estimator,
                    start_offset=float(offset),
                    mode=mode,
                    label=f"{name}#{index}" if mode == "shared" else name,
                )
            )
        return sessions

    def _schedule(self, sessions: list[_Session], link: SimulatedLink) -> None:
        """Serve every window of every session, earliest requester first,
        ties in input order (``min`` keeps the first of equals). A rescan per
        window: no caller puts more than 8 sessions on a link and a window
        costs 1000x the scan — measured in DESIGN.md "One session engine"."""
        pending = [session for session in sessions if not session.finished]
        while pending:
            session = min(pending, key=lambda s: s.next_request_time(link.busy_until))
            self._serve_window(session, link)
            pending = [session for session in pending if not session.finished]

    def _serve_window(self, session: _Session, link: SimulatedLink) -> None:
        """Deliver the session's next window over ``link``: predict →
        budget → assign → resolve → read → transfer → playback → record."""
        config = session.config
        manifest = session.manifest
        name = session.name
        mode = session.mode
        duration = manifest.window_duration
        window = session.next_window
        window_start, window_end = manifest.window_interval(window)
        request_time = session.next_request_time(link.busy_until)

        # Feed the predictor every client orientation report up to the
        # media instant playing at request time (media time runs on the
        # session's own clock: wall time minus its arrival offset).
        decision_started = time.perf_counter()
        media_now = self._media_time(
            [start - session.start_offset for start in session.starts],
            duration,
            request_time - session.start_offset,
        )
        session.trace_cursor = self._observe(
            session.predictor, session.trace, session.trace_cursor, media_now
        )
        instants = self._instants(window_start, window_end)
        forecast = session.predictor.forecast(instants, manifest.grid, config.viewport)
        # Before any transfer completes an estimator has no signal; start
        # from the link's current rate, as a probing client would. Without
        # an estimator the session reads the link's raw capacity — on a
        # shared link that is optimistic, since it ignores contention,
        # which is precisely why estimators matter under sharing.
        bandwidth_estimate = (
            session.estimator.estimate() if session.estimator is not None else None
        )
        if bandwidth_estimate is None:
            bandwidth_estimate = link.model.rate_at(request_time)
        budget = estimate_budget(bandwidth_estimate, duration)
        quality_map = config.policy.assign(manifest, window, forecast, budget)
        missing = set(manifest.grid.tiles()) - set(quality_map)
        if missing:
            raise ValueError(
                f"policy {config.policy.name!r} left tiles {sorted(missing)} unassigned"
            )
        # Partial (popularity-planned) stores may lack the assigned
        # rung for some tiles; ship the stored rung actually used.
        requested_map = {
            tile: manifest.resolve(window, tile, quality)
            for tile, quality in quality_map.items()
        }
        self.metrics.histogram(
            "stream.decision_seconds", "wall time spent predicting + assigning"
        ).observe(time.perf_counter() - decision_started, mode=mode)
        # Assemble the payload the wire carries — real segment reads
        # through the cache (which is how concurrent viewers of the same
        # content amortise storage work), so storage metrics reflect
        # delivery. Resilient: transient read errors retry, persistent
        # ones degrade down the tile's stored ladder or skip the tile
        # rather than aborting every viewer on this link.
        result = read_window_resilient(
            self.storage,
            manifest,
            name,
            window,
            requested_map,
            policy=config.retry,
            metrics=self.metrics,
        )
        quality_map = result.quality_map
        size = manifest.window_size(window, quality_map)
        transfer_start = max(request_time, link.busy_until)
        delivered = link.transfer(size, request_time)
        if session.estimator is not None:
            # The client times the download from when it asked, once its own
            # previous window was in: on a shared link the wait behind other
            # viewers' bytes is part of the throughput it sees. On a private
            # link that is the transfer start.
            asked = session.next_request_time(
                session.records[-1].delivered_time if session.records else 0.0
            )
            session.estimator.observe(size, delivered - asked)

        if window == 0:
            playback_start, stall = delivered, 0.0
        else:
            nominal = session.starts[-1] + duration
            playback_start = max(nominal, delivered)
            stall = playback_start - nominal
        session.starts.append(playback_start)

        self.metrics.counter("stream.windows", "delivery windows served").inc(
            session=session.label
        )
        self.metrics.counter("stream.bytes_sent", "media bytes put on the wire").inc(
            size, session=session.label
        )
        self.metrics.histogram(
            "stream.queue_seconds", "simulated wait for the link per window"
        ).observe(transfer_start - request_time, mode=mode)
        self.metrics.histogram(
            "stream.transfer_seconds", "simulated on-the-wire time per window"
        ).observe(delivered - transfer_start, mode=mode)
        self.metrics.histogram(
            "stream.stall_seconds", "simulated rebuffering per window"
        ).observe(stall, mode=mode)
        if stall > 1e-9:
            self.metrics.counter("stream.stalls", "windows that rebuffered").inc(
                session=session.label
            )
        if mode == "shared":
            self.metrics.counter("sharedlink.active_seconds").inc(
                delivered - transfer_start
            )
            self.metrics.counter(
                "sharedlink.bytes_sent", "bytes through the shared link"
            ).inc(size)

        # Ground truth: what the viewer actually saw during the window.
        poses = [session.trace.orientation_at(float(at)) for at in instants]
        seen = config.viewport.visible_mask(
            [pose.theta for pose in poses], [pose.phi for pose in poses], manifest.grid
        ).any(axis=0)
        visible = manifest.grid.tiles_in(seen)
        record = WindowRecord(
            window=window,
            request_time=request_time,
            delivered_time=delivered,
            playback_start=playback_start,
            stall_seconds=stall,
            bytes_sent=size,
            quality_map=quality_map,
            predicted_tiles=manifest.grid.tiles_in(forecast[0]),
            ladder_best=manifest.best_quality,
            visible_tiles=visible,
            naive_bytes=manifest.full_sphere_size(window, manifest.best_quality),
            out_of_view_bytes=sum(
                manifest.size_of(window, tile, quality)
                for tile, quality in quality_map.items()
                if tile not in visible
            ),
            requested_map=requested_map,
            events=result.events,
        )
        if config.evaluate_quality:
            record.viewport_psnr = self._probe_window(
                name, manifest, config, window, result.payloads, session.trace, window_start
            )
        session.records.append(record)
        session.next_window += 1

    @staticmethod
    def _media_time(starts: list[float], duration: float, wall: float) -> float:
        """The media instant playing at wall time ``wall`` (0 pre-start)."""
        media = 0.0
        for index, start in enumerate(starts):
            if wall < start:
                break
            media = index * duration + min(duration, wall - start)
        return media

    @staticmethod
    def _observe(predictor: Predictor, trace: Trace, cursor: int, up_to: float) -> int:
        """Feed the predictor all unseen trace samples at or before ``up_to``.

        Always guarantees at least one observation (the trace head) so the
        very first window has something to extrapolate from.
        """
        fed = cursor > 0
        while cursor < len(trace) and (trace.times[cursor] <= up_to or not fed):
            predictor.observe(
                float(trace.times[cursor]),
                Orientation(float(trace.thetas[cursor]), float(trace.phis[cursor])),
            )
            fed = True
            cursor += 1
        return cursor

    @staticmethod
    def _instants(window_start: float, window_end: float) -> np.ndarray:
        """The window's :data:`WINDOW_SAMPLES` interior sample instants."""
        return np.linspace(window_start, window_end, WINDOW_SAMPLES + 2)[1:-1]

    def _probe_window(
        self,
        name: str,
        manifest: Manifest,
        config: SessionConfig,
        window: int,
        payloads: dict[tuple[int, int], bytes],
        trace: Trace,
        window_start: float,
    ) -> float:
        """Viewport PSNR of the delivered window (``payloads``, the bytes
        that shipped) against the best-quality render — i.e. degradation
        relative to what naive delivery shows.

        On partial stores the reference is the best *stored* rung per tile
        (exactly what naive delivery would resolve to)."""
        reference_map = {
            tile: manifest.resolve(window, tile, manifest.best_quality)
            for tile in manifest.grid.tiles()
        }
        reference = self.storage.read_window(name, window, reference_map)
        delivered = TiledGop(
            reference.width, reference.height, reference.grid, reference.frame_count, payloads
        )
        probe = ViewportQualityProbe(config.viewport)
        return probe.window_psnr(
            delivered, reference.decode(), trace, window_start, manifest.fps
        )
