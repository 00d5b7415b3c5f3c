"""The storage read surface.

Everything that consumes stored video — the session loop
(:class:`~repro.core.streamer.Streamer`), the resilience ladder, the
segment server — reads through exactly two methods: ``build_manifest``
and ``read_segment``. This module promotes that implicit duck-typed
contract into an explicit :class:`SegmentBackend` protocol
(:class:`~repro.core.storage.StorageManager` is the canonical local-disk
implementation, :class:`~repro.serve.client.RemoteStorage` the wire one)
and ships :class:`RemotePeerBackend` — reads served by a sibling node
over HTTP, the segment server's peer-fetch and read-repair transport.

Error contract (shared with ``StorageManager.read_segment``): a backend
that *authoritatively* knows a segment does not exist raises
:class:`~repro.core.errors.SegmentNotFoundError`; one that merely cannot
answer right now raises :class:`~repro.core.errors.TransientSegmentError`
(or :class:`~repro.core.errors.SegmentReadTimeout`). The server's
peer-fetch path relies on that distinction to decide whether falling
back is correct or masking data loss.

Integrity contract: every byte path into this surface is checksummed
end to end. ``StorageManager`` verifies each read against the content
checksum committed in the version's metadata; :class:`RemotePeerBackend`
rides ``HttpSegmentClient``, which verifies the peer's ``X-Checksum``
response header against the received body — so the bytes handed upward,
or that the read-repair path rewrites to disk, have already survived an
integrity check at their source.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.stream.dash import Manifest, SegmentKey
from repro.video.quality import Quality

__all__ = ["SegmentBackend", "RemotePeerBackend"]


@runtime_checkable
class SegmentBackend(Protocol):
    """The storage read contract.

    ``StorageManager``, :class:`~repro.serve.client.RemoteStorage`, and
    :class:`RemotePeerBackend` satisfy it structurally — callers written
    against the protocol run unchanged over disk or the wire.
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


class RemotePeerBackend:
    """Reads served by a sibling node over HTTP.

    A thin ownership-aware cousin of
    :class:`~repro.serve.client.RemoteStorage`: one keep-alive client per
    peer, lazily connected, safe to share across the server's read
    executor threads (the client serializes on its own lock). Transport
    failures surface as the storage error taxonomy — a dead peer is
    :class:`TransientSegmentError`, a peer that answers 404 is
    authoritative :class:`SegmentNotFoundError`, and a body that fails
    its ``X-Checksum`` header is :class:`TransientSegmentError` (damage
    in transit, not an authoritative verdict about the stored bytes) —
    which makes this backend safe as a read-repair source: repaired
    bytes were verified against the peer's own checksum before the
    repairer re-verifies them against the local index entry.
    """

    def __init__(self, base_url: str, timeout: float = 5.0) -> None:
        self.base_url = base_url
        self.timeout = timeout
        self._client = None

    def _connect(self):
        if self._client is None:
            # Imported lazily: core must not depend on serve at module load.
            from repro.serve.client import HttpSegmentClient

            self._client = HttpSegmentClient(self.base_url, timeout=self.timeout)
        return self._client

    def close(self) -> None:
        if self._client is not None:
            self._client.close()

    def build_manifest(self, name: str) -> Manifest:
        return self._connect().fetch_manifest(name)

    def fetch_segment_key(self, name: str, key: SegmentKey) -> bytes:
        return self._connect().fetch_segment(name, key)

    def read_segment(
        self,
        name: str,
        gop: int,
        tile: tuple[int, int],
        quality: Quality,
        version: int | None = None,
    ) -> bytes:
        if version is not None:
            raise ValueError("peers serve only the latest committed version")
        return self.fetch_segment_key(name, SegmentKey(gop, tile, quality))
