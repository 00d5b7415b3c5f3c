"""A deterministic, seeded TCP fault-injecting proxy for the wire.

The storage-level chaos wrappers fault *inside* the server; real
deployments also fail *between* server and headset — connections die
mid-body, responses dribble in at bytes per second, sockets reset. The
:class:`ChaosProxy` sits on a loopback port in front of a
:class:`~repro.serve.server.SegmentServer` and injects exactly those
failures, scheduled by the same :class:`~repro.chaos.faults.FaultPlan`
machinery as every other fault in the harness: the proxy parses each
HTTP request head, derives the segment identity from the URL (the
``/segment/...`` URL is :meth:`SegmentKey.url`), and consults
``plan.decide(..., target="wire")`` — so wire faults are targetable by
video/GOP/tile/quality, replay bit-identically per seed, and land in the
plan's ``injected`` accounting next to the storage faults.

Wire fault kinds (see :data:`repro.chaos.faults.WIRE_KINDS`):

* ``refuse`` — the connection closes before a single response byte;
* ``reset`` — a few bytes of status line, then a hard RST-style close;
* ``truncate`` — full headers plus ``fraction`` of the body, then close
  (a mid-body disconnect the client must detect, not hang on);
* ``trickle`` — slow-loris: the body arrives one byte per ``delay``
  seconds, which a correctly-budgeted client must abandon as a timeout;
* ``delay`` — ``delay`` seconds of added latency, then a clean relay.

The proxy is request-oriented: it never interprets response semantics
beyond framing (``Content-Length``), forwards request heads verbatim,
and holds one upstream connection per client connection — so keep-alive,
pipelining of sequential requests, and the server's shedding behaviour
all pass through untouched when no rule fires.
"""

from __future__ import annotations

import socket
import struct
import threading
import time

from repro.chaos.faults import FaultPlan
from repro.stream.dash import parse_segment_url

_MAX_HEAD = 16 * 1024
#: Ceiling on trickled bytes: enough to outlast any sane client timeout
#: at one byte per ``delay`` seconds without wedging a proxy thread
#: forever if the client never hangs up.
_TRICKLE_LIMIT = 512
#: Seconds the relay waits on either socket before giving the connection up.
UPSTREAM_TIMEOUT = 10.0


def _read_head(sock: socket.socket) -> bytes:
    """Read one HTTP head (through ``\\r\\n\\r\\n``); b"" on EOF."""
    data = b""
    while b"\r\n\r\n" not in data:
        if len(data) > _MAX_HEAD:
            return b""
        try:
            chunk = sock.recv(4096)
        except OSError:
            return b""
        if not chunk:
            return b""
        data += chunk
    return data


def _split_response(head_and_more: bytes, sock: socket.socket) -> tuple[bytes, bytes]:
    """Separate one response into (head incl. blank line, full body)."""
    head, _, rest = head_and_more.partition(b"\r\n\r\n")
    head += b"\r\n\r\n"
    length = 0
    for line in head.split(b"\r\n"):
        name, _, value = line.partition(b":")
        if name.strip().lower() == b"content-length":
            try:
                length = int(value.strip())
            except ValueError:
                length = 0
    body = rest
    while len(body) < length:
        chunk = sock.recv(min(65536, length - len(body)))
        if not chunk:
            break
        body += chunk
    return head, body


class ChaosProxy:
    """A fault-injecting TCP relay in front of one upstream server.

    ``plan=None`` (or a plan with no wire rules) makes the proxy a pure
    pass-through — the chaos scenario runner uses that for the healthy
    replicas of a tier while the faulty one gets the plan.
    """

    def __init__(
        self,
        upstream: tuple[str, int],
        plan: FaultPlan | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream = upstream
        self.plan = plan
        self.host = host
        self.port = port
        self._listener: socket.socket | None = None
        self._accept_thread: threading.Thread | None = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        self._open_sockets: set[socket.socket] = set()

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> tuple[str, int]:
        if self._listener is not None:
            raise RuntimeError("proxy already started")
        self._stopping.clear()
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self.host, self.port))
        listener.listen(64)
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="chaos-proxy", daemon=True
        )
        self._accept_thread.start()
        return self.host, self.port

    def stop(self) -> None:
        self._stopping.set()
        if self._listener is not None:
            # close() alone does not wake a thread blocked in accept();
            # shutdown() does.
            try:
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                self._listener.close()
            except OSError:
                pass
            self._listener = None
        with self._lock:
            victims = list(self._open_sockets)
        for sock in victims:
            try:
                sock.close()
            except OSError:
                pass
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None

    @property
    def base_url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def __enter__(self) -> "ChaosProxy":
        if self._listener is None:
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- the relay ------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while not self._stopping.is_set() and listener is not None:
            try:
                client, _ = listener.accept()
            except OSError:
                return  # listener closed: shutting down
            threading.Thread(
                target=self._serve_connection, args=(client,), daemon=True
            ).start()

    def _track(self, sock: socket.socket) -> None:
        with self._lock:
            self._open_sockets.add(sock)

    def _untrack(self, sock: socket.socket) -> None:
        with self._lock:
            self._open_sockets.discard(sock)

    def _decide(self, request_head: bytes):
        if self.plan is None:
            return None
        line = request_head.split(b"\r\n", 1)[0].decode("latin-1", "replace")
        parts = line.split(" ")
        path = (parts[1] if len(parts) >= 2 else "/").split("?", 1)[0]
        try:
            video, key = parse_segment_url(path)
        except ValueError:
            pass
        else:
            return self.plan.decide_key(video, key, target="wire")
        # Non-segment traffic (manifest, metrics, healthz, junk): match
        # on the route name so unfiltered rules still fire; the sentinel
        # coordinates can never collide with a real segment.
        segments = [part for part in path.split("/") if part]
        name = segments[1] if len(segments) > 1 else (segments[0] if segments else "-")
        return self.plan.decide(name, -1, (-1, -1), "-", target="wire")

    @staticmethod
    def _abort(sock: socket.socket) -> None:
        """Close with a pending-data reset rather than a graceful FIN."""
        try:
            sock.setsockopt(
                socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0)
            )
        except OSError:
            pass
        try:
            sock.close()
        except OSError:
            pass

    def _serve_connection(self, client: socket.socket) -> None:
        self._track(client)
        upstream: socket.socket | None = None
        try:
            client.settimeout(UPSTREAM_TIMEOUT)
            while not self._stopping.is_set():
                request_head = _read_head(client)
                if not request_head:
                    return
                decision = self._decide(request_head)
                if decision is not None and decision.kind == "refuse":
                    # Not one response byte: to the client this is a
                    # refused/died connection.
                    self._abort(client)
                    return
                if decision is not None and decision.kind == "delay":
                    time.sleep(decision.delay)
                if upstream is None:
                    upstream = socket.create_connection(
                        self.upstream, timeout=UPSTREAM_TIMEOUT
                    )
                    self._track(upstream)
                try:
                    upstream.sendall(request_head)
                    raw = _read_head(upstream)
                    if not raw:
                        return  # upstream died; drop the client too
                    response_head, body = _split_response(raw, upstream)
                except OSError:
                    return
                if decision is None or decision.kind == "delay":
                    try:
                        client.sendall(response_head + body)
                    except OSError:
                        return
                    if b"connection: close" in response_head.lower():
                        return
                    continue
                if decision.kind == "reset":
                    try:
                        client.sendall(response_head[:12])
                    except OSError:
                        pass
                    self._abort(client)
                    return
                if decision.kind == "truncate":
                    cut = max(1, int(len(body) * decision.fraction)) if body else 0
                    try:
                        client.sendall(response_head + body[:cut])
                    except OSError:
                        pass
                    # Graceful FIN, not RST: the cut bytes must reach the
                    # client so it deterministically observes a short body
                    # (IncompleteRead), not a racy reset.
                    try:
                        client.shutdown(socket.SHUT_RDWR)
                    except OSError:
                        pass
                    try:
                        client.close()
                    except OSError:
                        pass
                    return
                if decision.kind == "trickle":
                    gap = decision.delay if decision.delay > 0 else 0.05
                    try:
                        client.sendall(response_head)
                        for offset in range(min(len(body), _TRICKLE_LIMIT)):
                            time.sleep(gap)
                            if self._stopping.is_set():
                                return
                            client.sendall(body[offset : offset + 1])
                    except OSError:
                        return  # the client gave up — the intended outcome
                    return
                raise AssertionError(f"proxy cannot inject {decision.kind!r}")
        finally:
            self._untrack(client)
            try:
                client.close()
            except OSError:
                pass
            if upstream is not None:
                self._untrack(upstream)
                try:
                    upstream.close()
                except OSError:
                    pass
