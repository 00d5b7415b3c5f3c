"""The wire client: the session loop over a real socket.

Rather than reimplementing ABR, prediction, and resilience for the
network, the client adapts the wire to the storage read contract:
:class:`RemoteStorage` exposes ``build_manifest``/``read_segment`` over
HTTP, so the unchanged :class:`~repro.core.streamer.Streamer` — and with
it :func:`~repro.core.resilience.read_window_resilient`'s retry →
degrade → skip ladder and the chaos invariants — runs end-to-end against
the server.

Error taxonomy (the raw-``OSError`` leak class this layer exists to
close): every transport failure surfaces as the PR 3 error contract.
Connection refused/reset and malformed responses map to
:class:`TransientSegmentError`; socket timeouts map to
:class:`SegmentReadTimeout`; server-side failures are rebuilt from the
HTTP status (404 → :class:`SegmentNotFoundError`, 409 →
:class:`SegmentCorruptError`, 503 → :class:`TransientSegmentError`,
504 → :class:`SegmentReadTimeout`). Callers written against
``StorageManager`` — above all the resilience layer — therefore need no
wire-specific handling.

Session timing stays on the session's *simulated* bandwidth model even
over the wire: localhost transfer time measures the test host, not the
300 Mb/s link the experiment models. The bytes are real (fetched,
hashed into payloads, cache-accounted on the server); the playback
clock is the model's — which is exactly what makes wire and simulated
QoE reports comparable on the same trace. Real transport latency lands
in the metrics registries on both ends instead.
"""

from __future__ import annotations

import http.client
import json
import socket
import threading
from time import monotonic, perf_counter
from urllib.parse import urlsplit

from repro.control.planner import StalePlanError
from repro.core.errors import (
    SegmentCorruptError,
    SegmentNotFoundError,
    SegmentReadTimeout,
    TransientSegmentError,
)
from repro.core.predictor import PredictionService
from repro.core.storage import checksum_hex
from repro.core.streamer import SessionConfig, Streamer
from repro.obs import MetricsRegistry
from repro.predict.traces import Trace
from repro.stream.dash import Manifest, SegmentKey
from repro.stream.qoe import QoEReport

#: HTTP status → taxonomy error. 429 (shed by admission control) and any
#: unknown 5xx map to :class:`TransientSegmentError` so a shed request is
#: retryable by policy — failover clients back off and try again (or try
#: a sibling replica) instead of treating shedding as fatal.
_STATUS_ERRORS = {
    404: SegmentNotFoundError,
    409: SegmentCorruptError,
    429: TransientSegmentError,
    503: TransientSegmentError,
    504: SegmentReadTimeout,
}


class HttpSegmentClient:
    """A keep-alive HTTP/1.1 client for one segment server.

    One underlying connection, serialized by a lock — concurrent
    sessions each own a client (and therefore a socket) rather than
    multiplexing one. A request that fails on a connection that had
    already served traffic is retried once on a fresh socket before the
    failure is reported: a keep-alive connection the server closed
    between requests is indistinguishable from a real refusal, and
    retrying it is the standard cure.
    """

    def __init__(self, base_url: str, timeout: float = 10.0) -> None:
        parts = urlsplit(base_url if "//" in base_url else f"http://{base_url}")
        if parts.scheme not in ("", "http"):
            raise ValueError(f"only http:// servers are supported, got {base_url!r}")
        if not parts.hostname:
            raise ValueError(f"no host in base URL {base_url!r}")
        self.host = parts.hostname
        self.port = parts.port or 80
        self.timeout = timeout
        self._lock = threading.Lock()
        self._connection: http.client.HTTPConnection | None = None
        self._served_requests = 0

    # -- transport ------------------------------------------------------------

    def _connect(self) -> http.client.HTTPConnection:
        if self._connection is None:
            self._connection = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self._served_requests = 0
        return self._connection

    def _drop_connection(self) -> None:
        if self._connection is not None:
            try:
                self._connection.close()
            except Exception:
                pass
            self._connection = None

    def close(self) -> None:
        with self._lock:
            self._drop_connection()

    def __enter__(self) -> "HttpSegmentClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _request(
        self, path: str, method: str = "GET", payload: bytes | None = None
    ) -> tuple[int, dict, bytes]:
        """One request; returns (status, headers, body). All transport
        failures leave as taxonomy errors, never raw OS exceptions."""
        headers = {"Content-Type": "application/json"} if payload is not None else {}
        with self._lock:
            # A connection that already served requests may have been
            # closed by the server's keep-alive policy; one fresh-socket
            # retry distinguishes that from a real fault.
            attempts = 2 if self._served_requests > 0 else 1
            for attempt in range(1, attempts + 1):
                connection = self._connect()
                deadline = monotonic() + self.timeout
                try:
                    connection.request(method, path, body=payload, headers=headers)
                    response = connection.getresponse()
                    body = self._read_body(connection, response, deadline)
                except socket.timeout as error:
                    self._drop_connection()
                    raise SegmentReadTimeout(
                        f"{method} {path} exceeded the {self.timeout:.3f}s budget"
                    ) from error
                except (ConnectionError, http.client.HTTPException, OSError) as error:
                    self._drop_connection()
                    if attempt < attempts:
                        continue
                    raise TransientSegmentError(
                        f"{method} {path} failed in transit: {error}"
                    ) from error
                self._served_requests += 1
                if response.will_close:
                    self._drop_connection()
                return response.status, dict(response.getheaders()), body
        raise AssertionError("unreachable: the retry loop always returns")

    def _read_body(self, connection, response, deadline: float) -> bytes:
        """Drain one response body under the request's *total* deadline.

        A per-recv socket timeout alone cannot catch a slow-loris peer
        that dribbles one byte per interval — every recv succeeds while
        the request as a whole never finishes. Reading incrementally and
        re-arming the socket with the remaining budget bounds the entire
        request by ``timeout`` seconds of wall clock.
        """
        chunks: list[bytes] = []
        while True:
            remaining = deadline - monotonic()
            if remaining <= 0:
                raise socket.timeout(
                    f"response body still arriving at the {self.timeout:.3f}s deadline"
                )
            if connection.sock is not None:
                connection.sock.settimeout(remaining)
            chunk = response.read1(65536)
            if not chunk:
                if response.length:
                    # EOF with Content-Length bytes still owed: a
                    # mid-body disconnect, not a complete response.
                    raise http.client.IncompleteRead(
                        b"".join(chunks), response.length
                    )
                # read1 drains Content-Length without ever marking the
                # response closed; close it explicitly or the next
                # getresponse() on this connection raises
                # ResponseNotReady.
                response.close()
                if connection.sock is not None:
                    connection.sock.settimeout(self.timeout)
                return b"".join(chunks)
            chunks.append(chunk)

    @staticmethod
    def _raise_for_status(
        status: int, headers: dict, body: bytes, path: str, method: str = "GET"
    ) -> None:
        if status == 200:
            return
        try:
            detail = json.loads(body).get("detail", "")
        except (ValueError, AttributeError):
            detail = body[:200].decode("utf-8", "replace")
        error_name = headers.get("X-Error", "")
        message = f"{method} {path} -> {status} {error_name}: {detail}"
        error = _STATUS_ERRORS.get(status, TransientSegmentError)(message)
        # Carry the wire facts for retry policy: the status, and the
        # server's Retry-After hint (seconds) when it shed the request.
        error.status = status
        retry_after = headers.get("Retry-After")
        if retry_after is not None:
            try:
                error.retry_after = float(retry_after)
            except ValueError:
                pass
        raise error

    # -- endpoints ------------------------------------------------------------

    def fetch_manifest(self, name: str) -> Manifest:
        path = f"/manifest/{name}"
        status, headers, body = self._request(path)
        self._raise_for_status(status, headers, body, path)
        try:
            return Manifest.from_json(json.loads(body))
        except (ValueError, KeyError) as error:
            raise TransientSegmentError(
                f"malformed manifest from GET {path}: {error}"
            ) from error

    def fetch_segment(self, name: str, key: SegmentKey) -> bytes:
        path = key.url(name)
        status, headers, body = self._request(path)
        self._raise_for_status(status, headers, body, path)
        expected = headers.get("X-Checksum")
        if expected is not None and checksum_hex(body) != expected.strip().lower():
            # The body the server hashed is not the body that arrived —
            # transport damage. Transient (not SegmentCorruptError: that
            # would read as an authoritative server-side verdict and stop
            # failover) so the caller retries or tries a sibling replica.
            raise TransientSegmentError(
                f"GET {path} -> 200 but the body fails its X-Checksum "
                f"({checksum_hex(body)} != {expected.strip().lower()})"
            )
        return body

    def fetch_metrics(self) -> dict:
        """The server's metrics snapshot (``GET /metrics``)."""
        status, headers, body = self._request("/metrics")
        self._raise_for_status(status, headers, body, "/metrics")
        return json.loads(body)

    def fetch_control(self) -> dict:
        """The server's live control-plane state (``GET /control``)."""
        status, headers, body = self._request("/control")
        self._raise_for_status(status, headers, body, "/control")
        return json.loads(body)

    def post_control(self, payload: dict) -> dict:
        """Apply a control plan (``POST /control/plan``); a 409
        stale-version refusal surfaces as ``StalePlanError`` rather than
        the segment taxonomy's corrupt-read mapping."""
        path = "/control/plan"
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        status, headers, response = self._request(path, method="POST", payload=body)
        if status == 409:
            raise StalePlanError(response.decode("utf-8", "replace"))
        self._raise_for_status(status, headers, response, path, method="POST")
        return json.loads(response)

    def healthy(self) -> bool:
        try:
            status, _, _ = self._request("/healthz")
        except TransientSegmentError:
            return False
        return status == 200


class RemoteStorage:
    """The storage read contract, backed by a segment server.

    Duck-types the two methods the session loop needs —
    ``build_manifest`` and ``read_segment`` — so :class:`Streamer` and
    :func:`read_window_resilient` run against the wire unchanged.
    Manifests are fetched once per name and cached (they are immutable
    per version, like the simulated path's single build per session).
    """

    def __init__(
        self, client: HttpSegmentClient, registry: MetricsRegistry | None = None
    ) -> None:
        self.client = client
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._manifests: dict[str, Manifest] = {}
        self._latency = self.metrics.histogram(
            "client.request_seconds", "wall time per wire segment fetch"
        )
        self._bytes = self.metrics.counter(
            "client.bytes_received", "segment bytes fetched over the wire"
        )

    def build_manifest(self, name: str) -> Manifest:
        manifest = self._manifests.get(name)
        if manifest is None:
            manifest = self.client.fetch_manifest(name)
            self._manifests[name] = manifest
        return manifest

    def read_segment(
        self,
        name: str,
        gop: int,
        tile: tuple[int, int],
        quality,
        version: int | None = None,
    ) -> bytes:
        if version is not None:
            raise ValueError("the wire serves only the latest committed version")
        started = perf_counter()
        data = self.client.fetch_segment(name, SegmentKey(gop, tile, quality))
        self._latency.observe(perf_counter() - started, video=name)
        self._bytes.inc(len(data), video=name)
        return data


def serve_session(
    base_url,
    name: str,
    trace: Trace,
    config: SessionConfig,
    registry: MetricsRegistry | None = None,
    prediction: PredictionService | None = None,
    failover=None,
) -> QoEReport:
    """Run one complete wire session against a segment server (or tier).

    The full simulated-path session loop (prediction, ABR, resilient
    window assembly, playback accounting) with every segment fetched
    over HTTP. ``prediction`` carries trained Markov priors when the
    caller has them; omitted, an untrained service is used (fine for
    every predictor except ``markov``).

    ``base_url`` is one server's URL, or a list of replica URLs — the
    latter streams through a
    :class:`~repro.serve.failover.FailoverSegmentClient` (circuit
    breakers, retry budget, ``Retry-After`` backoff), tuned by the
    optional ``failover`` :class:`~repro.serve.failover.FailoverConfig`.
    A sharded tier is a replica list like any other: each node serves
    every segment, fetching the ones it does not own from their owners.
    """
    if config.evaluate_quality:
        raise ValueError(
            "evaluate_quality needs decoded window access and is not "
            "available over the wire; run the PSNR probe on the server side"
        )
    metrics = registry if registry is not None else MetricsRegistry()
    if isinstance(base_url, str) and failover is None:
        client = HttpSegmentClient(base_url)
    else:
        from repro.serve.failover import FailoverSegmentClient

        client = FailoverSegmentClient(base_url, config=failover, registry=metrics)
    with client:
        storage = RemoteStorage(client, registry=metrics)
        service = prediction if prediction is not None else PredictionService(registry=metrics)
        streamer = Streamer(storage, service, registry=metrics)
        return streamer.serve(name, trace, config)
