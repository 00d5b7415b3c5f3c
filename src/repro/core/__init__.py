"""VisualCloud core: the DBMS built on the substrates.

* :mod:`repro.core.storage` — the storage manager: spatiotemporal
  segmentation, multi-quality encoding, versioned no-overwrite metadata,
  GOP/tile indexes.
* :mod:`repro.core.predictor` — the prediction service the server trains
  offline and instantiates per session.
* :mod:`repro.core.streamer` — the delivery engine: per-window predict /
  assign / transfer loop producing QoE reports, for one viewer on a
  private link or many contending for a shared one.
* :mod:`repro.core.server` — the :class:`VisualCloud` facade tying the
  pieces together.
"""

from repro.core.cache import LruSegmentCache
from repro.core.errors import (
    CatalogError,
    SegmentNotFoundError,
    VisualCloudError,
)
from repro.core.export import export_video, import_video
from repro.core.metadata import VideoMeta
from repro.core.popularity import StoragePlanner, tile_popularity
from repro.core.server import VisualCloud
from repro.core.storage import IngestConfig, StorageManager
from repro.core.streamer import SessionConfig, Streamer

__all__ = [
    "CatalogError",
    "IngestConfig",
    "LruSegmentCache",
    "SegmentNotFoundError",
    "SessionConfig",
    "StoragePlanner",
    "StorageManager",
    "Streamer",
    "VideoMeta",
    "VisualCloud",
    "VisualCloudError",
    "export_video",
    "import_video",
    "tile_popularity",
]
