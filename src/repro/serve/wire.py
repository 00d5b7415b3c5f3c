"""The serve tier's wire form: status mapping, the one header builder,
response buffers, and the segment request-path splitter.

Both the cold path (:mod:`repro.serve.server`) and the pinned hot set
(:mod:`repro.serve.hotset`) emit a :class:`Response`, so a pin hit and a
cold read are wire-identical by construction.
``tests/test_response_encoding.py`` holds an independently written
single-buffer encoder that every buffer shape here is checked against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.core.errors import (
    CatalogError,
    SegmentCorruptError,
    SegmentNotFoundError,
    SegmentReadTimeout,
    TransientSegmentError,
)

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


def status_for(error: BaseException) -> int:
    """The wire status of one storage-contract error (order matters:
    subclasses before their bases)."""
    if isinstance(error, SegmentCorruptError):
        return 409
    if isinstance(error, (SegmentNotFoundError, CatalogError)):
        return 404
    if isinstance(error, SegmentReadTimeout):
        return 504
    if isinstance(error, TransientSegmentError):
        return 503
    return 500


@dataclass(frozen=True)
class Response:
    status: int
    body: bytes | memoryview  # a view for pinned segments: shared, never copied
    content_type: str = "application/octet-stream"
    error: str = ""  # exception class name, sent as X-Error
    retry_after: float | None = None  # seconds, sent as Retry-After
    checksum: str = ""  # body content checksum (hex), sent as X-Checksum

    @property
    def body_length(self) -> int:
        return len(self.body)

    def head(self, keep_alive: bool) -> bytes:
        """The header block, blank line included — the one place header
        text is written, for cold reads and pinned segments alike."""
        lines = [
            f"HTTP/1.1 {self.status} {REASONS.get(self.status, 'Unknown')}",
            f"Content-Type: {self.content_type}",
            f"Content-Length: {len(self.body)}",
        ]
        if self.checksum:
            lines.append(f"X-Checksum: {self.checksum}")
        lines.append(f"Connection: {'keep-alive' if keep_alive else 'close'}")
        if self.error:
            lines.append(f"X-Error: {self.error}")
        if self.retry_after is not None:
            lines.append(f"Retry-After: {self.retry_after:g}")
        return ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")

    def parts(self, keep_alive: bool) -> tuple[bytes, ...]:
        """The wire buffers, unconcatenated: header block, then body."""
        head = self.head(keep_alive)
        return (head, self.body) if self.body else (head,)


class Precomputed:
    """A response frozen into its wire buffers at build time.

    Serving one costs a tuple fetch: both ``Connection`` variants of the
    header block are built once, and the body is shared, not copied.
    """

    __slots__ = ("status", "body_length", "_keep", "_close")

    def __init__(self, response: Response) -> None:
        self.status = response.status
        self.body_length = len(response.body)
        self._keep = response.parts(True)
        self._close = response.parts(False)

    def parts(self, keep_alive: bool) -> tuple[bytes, ...]:
        return self._keep if keep_alive else self._close


def json_response(status: int, payload: dict) -> Response:
    return Response(
        status,
        json.dumps(payload, sort_keys=True).encode("utf-8"),
        content_type="application/json",
    )


def error_response(
    status: int, error: BaseException, retry_after: float | None = None
) -> Response:
    body = json.dumps({"error": type(error).__name__, "detail": str(error)})
    return Response(
        status,
        body.encode("utf-8"),
        content_type="application/json",
        error=type(error).__name__,
        retry_after=retry_after,
    )


def split_segment_path(path: str) -> tuple[str, str] | None:
    """``/segment/<video>/<window>/<row>/<col>/<quality>`` → (video, tail),
    ``None`` when ``path`` is not shaped like a segment request.

    The serve loop's per-request split for its demand counter: it names
    the video without parsing the key, so a pinned hit pays no key parse.
    Everything that needs the key calls
    :func:`repro.stream.dash.parse_segment_url`.
    """
    parts = [part for part in path.split("/") if part]
    if len(parts) != 6 or parts[0] != "segment":
        return None
    return parts[1], "/".join(parts[2:])
