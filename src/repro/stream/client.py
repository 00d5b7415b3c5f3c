"""The client side of a streaming session, simulated.

Two concerns live here:

* :class:`PlaybackSimulator` — the buffer/clock model. Given when each
  window's bytes arrived, it derives when each window actually played and
  how much rebuffering the viewer suffered.
* :class:`ViewportQualityProbe` — the pixel-level QoE instrument. It
  decodes delivered (mixed-quality) windows, renders the viewport the
  viewer was looking at, and scores it against the pristine source.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geometry.viewport import Viewport
from repro.predict.traces import Trace
from repro.video.frame import Frame, psnr
from repro.video.tiles import TiledGop

#: Orientations :class:`ViewportQualityProbe` scores per window.
PROBE_SAMPLES = 2
#: Width and height (pixels) of each viewport it renders.
PROBE_RENDER = 64


@dataclass
class PlaybackSimulator:
    """Derives the playback schedule implied by delivery times.

    Playback is continuous at the media rate once started; a window whose
    bytes are late pushes the whole schedule back (a stall). ``startup``
    is the client's initial buffering policy: playback begins when the
    first window has fully arrived.
    """

    window_duration: float

    def __post_init__(self) -> None:
        if self.window_duration <= 0:
            raise ValueError(f"window duration must be positive, got {self.window_duration}")

    def schedule(self, delivered_times: list[float]) -> tuple[list[float], list[float]]:
        """Map delivery completion times to (playback_starts, stalls).

        ``stalls[i]`` is the rebuffering charged to window ``i``; the
        startup wait for window 0 is not a stall (viewers expect startup
        latency but notice mid-stream freezes).
        """
        if not delivered_times:
            raise ValueError("no windows delivered")
        starts: list[float] = []
        stalls: list[float] = []
        for index, delivered in enumerate(delivered_times):
            if index == 0:
                starts.append(delivered)
                stalls.append(0.0)
                continue
            nominal = starts[-1] + self.window_duration
            actual = max(nominal, delivered)
            starts.append(actual)
            stalls.append(actual - nominal)
        return starts, stalls


@dataclass
class ViewportQualityProbe:
    """Scores delivered windows by the fidelity of the rendered viewport.

    :data:`PROBE_SAMPLES` orientations are taken from the trace across the
    window's media interval; for each, a :data:`PROBE_RENDER`-pixel square
    viewport is rendered from both the delivered composite frame and the
    original source frame, and the luma PSNR between the two is averaged.
    Degradation in tiles the viewer never looked at is invisible to this
    metric — by design, since it is invisible to the viewer too.
    """

    viewport: Viewport

    def window_psnr(
        self,
        delivered: TiledGop,
        original_frames: list[Frame],
        trace: Trace,
        media_start: float,
        fps: float,
    ) -> float:
        """Mean viewport PSNR (dB) for one delivered window."""
        if len(original_frames) != delivered.frame_count:
            raise ValueError(
                f"original window has {len(original_frames)} frames, "
                f"delivered has {delivered.frame_count}"
            )
        decoded = delivered.decode()
        count = delivered.frame_count
        sample_indices = np.linspace(0, count - 1, PROBE_SAMPLES)
        scores = []
        for fractional_index in sample_indices:
            frame_index = int(round(fractional_index))
            media_time = media_start + frame_index / fps
            orientation = trace.orientation_at(media_time)
            seen = self.viewport.render(
                decoded[frame_index].y.astype(np.float64),
                orientation,
                PROBE_RENDER,
                PROBE_RENDER,
            )
            reference = self.viewport.render(
                original_frames[frame_index].y.astype(np.float64),
                orientation,
                PROBE_RENDER,
                PROBE_RENDER,
            )
            scores.append(psnr(seen, reference))
        finite = [score for score in scores if np.isfinite(score)]
        if not finite:
            # All samples identical to the source (e.g. lossless synthetic
            # content): report a conventional ceiling rather than inf.
            return 99.0
        return float(np.mean(finite))
