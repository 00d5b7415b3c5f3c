"""The storage read surface.

Everything that consumes stored video — the session loop
(:class:`~repro.core.streamer.Streamer`), the resilience ladder, the
segment server — reads through exactly two methods: ``build_manifest``
and ``read_segment``. This module promotes that implicit duck-typed
contract into an explicit :class:`SegmentBackend` protocol
(:class:`~repro.core.storage.StorageManager` is the canonical local-disk
implementation, :class:`~repro.serve.client.RemoteStorage` the wire one,
:class:`~repro.serve.peering.ShardedBackend` a shard node's owner-or-peer
routing and read-repair stacked over its local store).

Error contract (shared with ``StorageManager.read_segment``): a backend
that *authoritatively* knows a segment does not exist raises
:class:`~repro.core.errors.SegmentNotFoundError`; one that merely cannot
answer right now raises :class:`~repro.core.errors.TransientSegmentError`
(or :class:`~repro.core.errors.SegmentReadTimeout`). The peer-fetch
path relies on that distinction to decide whether falling back is
correct or masking data loss.

Integrity contract: every byte path into this surface is checksummed
end to end. ``StorageManager`` verifies each read against the content
checksum committed in the version's metadata; ``HttpSegmentClient``
verifies a server's ``X-Checksum`` response header against the received
body, and a shard node checks a peer's copy against its own index entry
before it serves, pools or rewrites those bytes.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.stream.dash import Manifest
from repro.video.quality import Quality

__all__ = ["SegmentBackend"]


@runtime_checkable
class SegmentBackend(Protocol):
    """The storage read contract.

    ``StorageManager``, :class:`~repro.serve.client.RemoteStorage`, and
    :class:`~repro.serve.peering.ShardedBackend` satisfy it structurally
    — callers written against the protocol run unchanged over disk or
    the wire.
    """

    def build_manifest(self, name: str) -> Manifest:
        """The session-facing manifest of one video (latest version)."""
        ...  # pragma: no cover - protocol

    def read_segment(
        self,
        name: str,
        gop: int,
        tile: tuple[int, int],
        quality: Quality,
        version: int | None = None,
    ) -> bytes:
        """One segment's encoded bytes; raises the storage error taxonomy."""
        ...  # pragma: no cover - protocol
