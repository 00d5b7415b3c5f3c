"""VisualCloud reproduction: a DBMS for virtual-reality (360-degree) video.

The public API in one import::

    from repro import (
        VisualCloud, IngestConfig, SessionConfig,
        Quality, TileGrid, Viewport,
        NaiveFullQuality, UniformAdaptive, PredictiveTilingPolicy,
        ConstantBandwidth, HeadMovementModel,
        FaultPlan, FaultRule, RetryPolicy,
    )

See the README for a quickstart and ``DESIGN.md`` for the system map.
"""

from repro.chaos import FaultPlan, FaultRule
from repro.core.resilience import RetryPolicy
from repro.core.server import VisualCloud
from repro.core.storage import IngestConfig
from repro.core.streamer import SessionConfig
from repro.geometry.grid import TileGrid
from repro.geometry.viewport import Orientation, Viewport
from repro.obs import MetricsRegistry
from repro.predict.traces import HeadMovementModel, Trace
from repro.serve import (
    HttpSegmentClient,
    RemoteStorage,
    SegmentServer,
    ServerConfig,
    ServerHandle,
    serve_session,
    start_server,
)
from repro.stream.abr import NaiveFullQuality, PredictiveTilingPolicy, UniformAdaptive
from repro.stream.network import ConstantBandwidth, SteppedBandwidth, TraceBandwidth
from repro.video.frame import Frame
from repro.video.quality import Quality

__version__ = "1.0.0"

__all__ = [
    "ConstantBandwidth",
    "FaultPlan",
    "FaultRule",
    "Frame",
    "HeadMovementModel",
    "HttpSegmentClient",
    "IngestConfig",
    "RetryPolicy",
    "MetricsRegistry",
    "NaiveFullQuality",
    "Orientation",
    "PredictiveTilingPolicy",
    "Quality",
    "RemoteStorage",
    "SegmentServer",
    "ServerConfig",
    "ServerHandle",
    "SessionConfig",
    "SteppedBandwidth",
    "TileGrid",
    "Trace",
    "TraceBandwidth",
    "UniformAdaptive",
    "VisualCloud",
    "Viewport",
    "__version__",
    "serve_session",
    "start_server",
]
