"""The multi-process serve tier: N workers, one listening port.

A single asyncio process is ultimately GIL-bound; past its ceiling the
only way up on one box is more processes. ``ServerConfig(processes=N)``
forks N workers that *share one listening port*:

* **SO_REUSEPORT** (Linux, the normal case): every worker binds its own
  listening socket to the same (host, port); the kernel load-balances
  incoming connections across them. The parent holds a bound placeholder
  socket only long enough to claim an ephemeral port atomically.
* **Fallback** (no SO_REUSEPORT, fork start method available): the
  parent binds and listens once, and every forked worker accepts on the
  inherited socket — coarser balancing, same contract.

Each worker is a full :class:`~repro.serve.server.SegmentServer` over a
*fresh* :class:`~repro.core.storage.StorageManager` opened from the
catalog root after the fork — no locks, caches, or thread pools cross
the fork boundary. Segment files are immutable per version, so workers
need no cross-process coherence.

Observability stays single-pane: each worker runs a second listener on
an ephemeral "admin" port, and ``/metrics`` on any worker fetches every
sibling's ``/metrics/local`` (snapshot with histogram sample windows)
and merges them via :func:`repro.obs.merge_snapshots` — counters sum,
quantiles pool.

Control runs over one duplex pipe per worker: the worker reports
``("ready", admin_port)`` or ``("error", detail)`` at startup, the
parent distributes the peer list, and ``stop()`` fans out ``("stop",)``
so every worker drains gracefully (same drain-then-close semantics as a
single process) before the parent joins — with terminate/kill
escalation bounded by the drain budget. A worker that sees its pipe
close (parent died) shuts itself down rather than lingering orphaned.

The handle exposes the exact :class:`ServerHandle` surface —
``address``, ``base_url``, ``stop()``, context manager — so the bench
driver, the failover client, and the chaos proxy stack on top of a
worker fleet unchanged.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import socket
from dataclasses import replace

from repro.serve.server import (
    LISTEN_BACKLOG,
    SegmentServer,
    ServerConfig,
    ServerStartupError,
)


def _tcp_socket() -> socket.socket:
    # IPPROTO_TCP explicitly: sockets accepted from a listener inherit
    # its (family, type, proto), and asyncio only applies TCP_NODELAY to
    # transports whose socket reports proto == IPPROTO_TCP. A proto-0
    # listener therefore silently re-enables Nagle on every accepted
    # connection — which, against the server's header+payload write
    # pair, costs a 40ms delayed-ACK stall per response.
    return socket.socket(socket.AF_INET, socket.SOCK_STREAM, socket.IPPROTO_TCP)


def _so_reuseport_available() -> bool:
    if not hasattr(socket, "SO_REUSEPORT"):
        return False
    probe = _tcp_socket()
    try:
        probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        return True
    except OSError:
        return False
    finally:
        probe.close()


def _bind_reuseport(host: str, port: int) -> socket.socket:
    sock = _tcp_socket()
    try:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
        sock.bind((host, port))
    except BaseException:
        sock.close()
        raise
    return sock


def _run_worker(
    worker_id: int,
    root,
    cache_bytes: int,
    config: ServerConfig,
    port: int,
    conn,
    listen_sock: socket.socket | None,
) -> None:
    """One worker process: bind (or inherit), serve, obey the pipe."""
    from repro.core.storage import StorageManager

    loop = None
    try:
        storage = StorageManager(root, cache_bytes=cache_bytes)
        server = SegmentServer(storage, replace(config, processes=1, port=port))
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        if listen_sock is None:
            sock = _bind_reuseport(config.host, port)
        else:
            sock = listen_sock
        sock.setblocking(False)
        loop.run_until_complete(server.start(sock=sock))
        admin_port = loop.run_until_complete(server.start_admin())
        conn.send(("ready", admin_port))
        command = conn.recv()  # startup barrier: the peer list
        if command[0] == "peers":
            server.set_peers(worker_id, [p for p in command[1] if p != admin_port])
        elif command[0] == "stop":
            loop.run_until_complete(server.stop())
            loop.close()
            return
    except BaseException as error:  # noqa: BLE001 - reported over the pipe
        try:
            conn.send(("error", f"{type(error).__name__}: {error}"))
        except OSError:
            pass
        if loop is not None:
            loop.close()
        raise SystemExit(1)

    stopping = asyncio.Event()

    async def _shutdown() -> None:
        if stopping.is_set():
            return
        stopping.set()
        loop.remove_reader(conn.fileno())
        await server.stop()
        loop.stop()

    async def _apply_control(payload: dict) -> None:
        # Runs on the loop thread, so the apply is serialized with the
        # hit path exactly as in a single-process server. Refusals
        # (stale version) are a distinct reply: the parent treats them
        # as the rollback-refusal contract, not a worker failure.
        try:
            summary = server.apply_control_plan(payload)
            conn.send(("control_ok", summary))
        except ValueError as error:
            conn.send(("control_refused", str(error)))
        except Exception as error:  # noqa: BLE001 - reported over the pipe
            conn.send(("control_error", f"{type(error).__name__}: {error}"))

    def _on_control() -> None:
        try:
            command = conn.recv()
        except (EOFError, OSError):
            # The pipe closed under us: the parent is gone. Drain and
            # exit instead of serving as an orphan forever.
            command = ("stop",)
        if command[0] == "stop":
            loop.create_task(_shutdown())
        elif command[0] == "control":
            loop.create_task(_apply_control(command[1]))

    loop.add_reader(conn.fileno(), _on_control)
    try:
        loop.run_forever()
    finally:
        loop.close()
        try:
            conn.close()
        except OSError:
            pass


class MultiProcessServerHandle:
    """A fleet of :class:`SegmentServer` workers behind one port.

    Same synchronous surface as :class:`~repro.serve.server.ServerHandle`.
    Construct via :func:`~repro.serve.server.start_server` with
    ``ServerConfig(processes=N)``.
    """

    def __init__(
        self,
        root,
        cache_bytes: int,
        config: ServerConfig,
        startup_timeout: float = 30.0,
    ) -> None:
        if config.processes < 2:
            raise ValueError(
                f"MultiProcessServerHandle needs processes >= 2, got {config.processes}"
            )
        self.config = config
        self._stopped = False
        self._workers: list = []
        self._pipes: list = []
        methods = multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )
        reuseport = _so_reuseport_available()
        if not reuseport and context.get_start_method() != "fork":
            raise ServerStartupError(
                "multi-process serving needs SO_REUSEPORT or the fork start "
                "method (to inherit one listening socket); this platform has "
                "neither"
            )
        placeholder: socket.socket | None = None
        shared_listener: socket.socket | None = None
        try:
            if reuseport:
                # Claim the port atomically (matters for port=0): workers
                # bind the resolved port with their own REUSEPORT sockets
                # while this placeholder — never listening, so invisible
                # to connect() — holds the claim.
                placeholder = _bind_reuseport(config.host, config.port)
                host, port = placeholder.getsockname()[:2]
            else:
                shared_listener = _tcp_socket()
                shared_listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                shared_listener.bind((config.host, config.port))
                shared_listener.listen(LISTEN_BACKLOG)
                host, port = shared_listener.getsockname()[:2]
            self._address = (host, port)
            for worker_id in range(config.processes):
                parent_conn, child_conn = context.Pipe(duplex=True)
                worker = context.Process(
                    target=_run_worker,
                    args=(
                        worker_id,
                        root,
                        cache_bytes,
                        config,
                        port,
                        child_conn,
                        None if reuseport else shared_listener,
                    ),
                    name=f"segment-server-{worker_id}",
                    daemon=True,
                )
                worker.start()
                child_conn.close()
                self._workers.append(worker)
                self._pipes.append(parent_conn)
            admin_ports = self._await_ready(startup_timeout)
            for pipe in self._pipes:
                pipe.send(("peers", admin_ports))
        except BaseException:
            self._teardown(force=True)
            raise
        finally:
            if placeholder is not None:
                placeholder.close()
            if shared_listener is not None:
                shared_listener.close()

    def _await_ready(self, timeout: float) -> list[int]:
        admin_ports: list[int] = []
        for index, pipe in enumerate(self._pipes):
            if not pipe.poll(timeout):
                raise ServerStartupError(
                    f"serve worker {index} did not report ready within {timeout:g}s"
                )
            try:
                message = pipe.recv()
            except (EOFError, OSError) as error:
                raise ServerStartupError(
                    f"serve worker {index} died during startup"
                ) from error
            if message[0] == "error":
                raise ServerStartupError(f"serve worker {index} failed: {message[1]}")
            admin_ports.append(message[1])
        return admin_ports

    # -- ServerHandle surface -------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        return self._address

    @property
    def base_url(self) -> str:
        host, port = self._address
        return f"http://{host}:{port}"

    def apply_control_plan(self, plan, timeout: float = 30.0) -> dict:
        """Fan one control plan out to every worker over the pipes and
        collect their summaries.

        Every worker applies the same plan (they share the catalog and
        the node identity), so the fleet-level summary sums pin counts
        and reports the common version. A unanimous refusal re-raises as
        ``ValueError`` — the same stale-plan contract as a single
        server; partial refusals (a worker restarted mid-rollout and is
        behind) surface in the summary instead of failing the apply.
        """
        if self._stopped:
            raise RuntimeError("server fleet is stopped")
        payload = plan.to_json() if hasattr(plan, "to_json") else dict(plan)
        for pipe in self._pipes:
            pipe.send(("control", payload))
        summaries: list[dict] = []
        refusals: list[str] = []
        errors: list[str] = []
        for index, pipe in enumerate(self._pipes):
            if not pipe.poll(timeout):
                errors.append(f"worker {index}: no control reply in {timeout:g}s")
                continue
            try:
                message = pipe.recv()
            except (EOFError, OSError):
                errors.append(f"worker {index}: pipe closed during control apply")
                continue
            if message[0] == "control_ok":
                summaries.append(message[1])
            elif message[0] == "control_refused":
                refusals.append(f"worker {index}: {message[1]}")
            else:
                errors.append(f"worker {index}: {message[1]}")
        if refusals and not summaries:
            raise ValueError(refusals[0])
        return {
            "version": int(payload["version"]),
            "node_id": self.config.node_id,
            "workers": len(summaries),
            "pinned": sum(s.get("pinned", 0) for s in summaries),
            "dropped": sum(s.get("dropped", 0) for s in summaries),
            "max_inflight": (
                summaries[0].get("max_inflight") if summaries else None
            ),
            "refused": refusals,
            "errors": errors,
        }

    def stop(self) -> None:
        """Fan out graceful drain to every worker, then join — with
        terminate/kill escalation if a worker blows the drain budget."""
        if self._stopped:
            return
        self._stopped = True
        self._teardown(force=False)

    def _teardown(self, force: bool) -> None:
        for pipe in self._pipes:
            try:
                pipe.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
        budget = 0.5 if force else self.config.drain_timeout + 10.0
        for worker in self._workers:
            worker.join(timeout=budget)
            if worker.is_alive():
                worker.terminate()
                worker.join(timeout=2.0)
            if worker.is_alive():
                worker.kill()
                worker.join(timeout=2.0)
        for pipe in self._pipes:
            try:
                pipe.close()
            except OSError:
                pass

    def __enter__(self) -> "MultiProcessServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
