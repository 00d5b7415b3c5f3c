"""The driver's sockets: raw keep-alive HTTP/1.1 with pipelining.

Load comes from one process with at most ``nproc`` connections; depth
comes from pipelining on those connections, not from more sockets. Every
200 body is verified against its ``X-Checksum`` before it counts.
"""

from __future__ import annotations

import select
import socket
import threading
from time import perf_counter, sleep

from repro.core.storage import checksum_hex


KEEP_EVERY = 100  # every hundredth body is kept for a byte-compare with storage


def request_bytes(path: str) -> bytes:
    return f"GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n".encode("ascii")


class Connection:
    """One keep-alive connection; responses are read in request order."""

    def __init__(self, address: tuple[str, int], timeout: float = 10.0) -> None:
        self.sock = socket.create_connection(address, timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = bytearray()

    def close(self) -> None:
        self.sock.close()

    def send(self, payload: bytes) -> None:
        self.sock.sendall(payload)

    def _fill(self) -> None:
        chunk = self.sock.recv(262144)
        if not chunk:
            raise ConnectionError("server closed the connection mid-response")
        self._buffer += chunk

    def buffered_response(self) -> bool:
        """True when a whole response is already in the buffer."""
        end = self._buffer.find(b"\r\n\r\n")
        if end < 0:
            return False
        return len(self._buffer) >= end + 4 + _content_length(self._buffer, end)

    def read(self) -> tuple[int, str, bytes]:
        """The next response: ``(status, X-Checksum or "", body)``."""
        buffer = self._buffer
        while True:
            end = buffer.find(b"\r\n\r\n")
            if end >= 0:
                break
            self._fill()
        length = _content_length(buffer, end)
        total = end + 4 + length
        while len(buffer) < total:
            self._fill()
        status = int(buffer[9:12])
        mark = buffer.find(b"X-Checksum: ", 0, end)
        checksum = bytes(buffer[mark + 12 : mark + 20]).decode("ascii") if mark >= 0 else ""
        body = bytes(buffer[end + 4 : total])
        del buffer[:total]
        return status, checksum, body


def _content_length(buffer: bytearray, head_end: int) -> int:
    mark = buffer.find(b"Content-Length: ", 0, head_end)
    if mark < 0:
        return 0
    return int(buffer[mark + 16 : buffer.find(b"\r\n", mark)])


def verified(status: int, checksum: str, body: bytes) -> bool:
    return status == 200 and checksum != "" and checksum_hex(body) == checksum


class LoadResult:
    """What one load phase saw, merged across its connections."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (completion time, latency s)
        self.lateness: list[float] = []  # open loop: send time - due time
        self.attempted = 0
        self.failed = 0
        self.kept: list[tuple[str, bytes]] = []  # sampled (path, body) for byte-compare
        self._lock = threading.Lock()

    def merge(self, samples, lateness, attempted, failed, kept) -> None:
        with self._lock:
            self.samples += samples
            self.lateness += lateness
            self.attempted += attempted
            self.failed += failed
            self.kept += kept


def _run_threads(targets) -> None:
    threads = [threading.Thread(target=target, daemon=True) for target in targets]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(
    address, paths: list[str], connections: int, depth: int, seconds: float,
    spans, into: LoadResult | None = None,
) -> LoadResult:
    """Each connection sends ``depth`` pipelined GETs, waits for all of
    them, and only then sends the next batch — a player waits for its
    tiles, so closed is the honest model. Latency is batch-send to that
    response's last byte. ``into`` accumulates several calls; each call
    carries on through ``paths`` where the last one stopped."""
    result = into if into is not None else LoadResult()
    requests = [request_bytes(path) for path in paths]
    end = perf_counter() + seconds
    resume = result.attempted

    def worker(offset: int) -> None:
        samples, kept, attempted, failed = [], [], 0, 0
        connection = Connection(address)
        index = offset + resume
        try:
            while perf_counter() < end:
                batch = [(index + step) % len(paths) for step in range(depth)]
                index += depth
                with spans.span("driver.socket.batch"):
                    sent = perf_counter()
                    connection.send(b"".join(requests[i] for i in batch))
                    for i in batch:
                        status, checksum, body = connection.read()
                        done = perf_counter()
                        attempted += 1
                        if verified(status, checksum, body):
                            samples.append((done, done - sent))
                            if attempted % KEEP_EVERY == 0:
                                kept.append((paths[i], body))
                        else:
                            failed += 1
        except (OSError, ValueError):
            failed += 1
            attempted += 1
        finally:
            connection.close()
            result.merge(samples, [], attempted, failed, kept)

    _run_threads(
        [lambda offset=index * 4099: worker(offset) for index in range(connections)]
    )
    return result


def open_loop(
    address, paths: list[str], connections: int, rate: float, seconds: float,
    spans, into: LoadResult | None = None,
) -> LoadResult:
    """A fixed ``rate`` (requests/s, split over the connections) sent on
    schedule whether or not earlier responses are back. Each request is
    timed from when it was *due*, so a stall charges the requests queued
    behind it; how late the generator itself ran is kept beside it."""
    result = into if into is not None else LoadResult()
    requests = [request_bytes(path) for path in paths]
    resume = result.attempted
    interval = connections / rate
    start = perf_counter() + 0.01
    end = start + seconds

    def worker(lane: int) -> None:
        samples, lateness, kept, attempted, failed = [], [], [], 0, 0
        connection = Connection(address)
        pending: list[tuple[float, int]] = []  # (due time, path index), FIFO
        index = lane * 4099 + resume
        due = start + lane * interval / connections
        try:
            with spans.span("driver.socket.paced"):
                while due < end or pending:
                    now = perf_counter()
                    if due < end and now >= due:
                        connection.send(requests[index % len(paths)])
                        lateness.append(perf_counter() - due)
                        pending.append((due, index % len(paths)))
                        index += 1
                        due += interval
                        continue
                    wait = max(0.0, (due if due < end else now + 0.05) - now)
                    if pending and (
                        connection.buffered_response()
                        or select.select([connection.sock], [], [], wait)[0]
                    ):
                        status, checksum, body = connection.read()
                        done = perf_counter()
                        was_due, which = pending.pop(0)
                        attempted += 1
                        if verified(status, checksum, body):
                            samples.append((done, done - was_due))
                            if attempted % KEEP_EVERY == 0:
                                kept.append((paths[which], body))
                        else:
                            failed += 1
                    elif not pending:
                        sleep(wait)
        except (OSError, ValueError):
            failed += 1 + len(pending)
            attempted += 1 + len(pending)
        finally:
            connection.close()
            result.merge(samples, lateness, attempted, failed, kept)

    _run_threads([lambda lane=lane: worker(lane) for lane in range(connections)])
    return result


def fetch(connection: Connection, paths: list[str]) -> list[tuple[int, str, bytes]]:
    """Pipeline ``paths`` on one connection and read every response."""
    connection.send(b"".join(request_bytes(path) for path in paths))
    return [connection.read() for _ in paths]
