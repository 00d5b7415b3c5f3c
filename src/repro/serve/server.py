"""The asyncio segment-delivery server.

One event loop per process, one :class:`~repro.core.storage.StorageManager`.
The loop never touches the disk: every cold segment read is pushed onto a
thread pool (``loop.run_in_executor``), and concurrent misses on the same
segment collapse inside the pool through the storage manager's
single-flight :class:`~repro.core.cache.LruSegmentCache` — N headsets
requesting the same equatorial tile cost one file read.

The server is HTTP + admission + the hot set over *one*
:class:`~repro.core.backends.SegmentBackend` (``self.backend``): the
storage manager itself, or on a shard node a
:class:`~repro.serve.peering.ShardedBackend` that decides owner-or-peer
and read-repair. Where bytes come from is never this module's concern;
how they go out is :mod:`repro.serve.wire`'s.

The hot path is faster still: with ``pin_budget_bytes > 0`` popular
segments are pinned in RAM as prebuilt wire buffers (header block +
``memoryview`` of the payload, see :mod:`repro.serve.hotset`) and served
straight off the event loop — no executor hop, no cache lock, no
per-request ``bytes`` concatenation. ``/healthz`` is precomputed once and
``/metrics`` rendering is cached for :data:`METRICS_TTL` seconds, so the
observability endpoints stop doing full-registry JSON dumps per request.

Endpoints (HTTP/1.1, keep-alive by default; ``GET`` everywhere except
the control plane's one ``POST`` route):

* ``/manifest/<video>`` — :meth:`Manifest.to_json` as JSON;
* ``/segment/<video>/<window>/<row>/<col>/<quality>`` — raw segment
  bytes; the URL is exactly :meth:`SegmentKey.url`;
* ``/metrics`` — the registry snapshot as JSON;
* ``/healthz`` — liveness;
* ``GET /control`` — the active control-plane state (plan version,
  admission ceiling, pin budget and occupancy);
* ``POST /control/plan`` — apply a full versioned
  :class:`~repro.control.planner.ControlPlan`, the one mutating route.
  A version older than the active plan is refused with ``409`` — the
  shard-map rollback-refusal pattern, so a delayed or replayed plan can
  never roll the node backwards.

Failures map onto the storage error contract, never raw ``OSError``:
404 :class:`SegmentNotFoundError` / :class:`CatalogError`,
409 :class:`SegmentCorruptError`, 503 :class:`TransientSegmentError`,
504 :class:`SegmentReadTimeout`, 400 malformed path. The ``X-Error``
header carries the class name so the wire client can rebuild the exact
type.

Backpressure is per connection: responses are enqueued on a bounded
``asyncio.Queue`` drained by a writer task that awaits ``drain()`` after
every response. A client that stops reading fills its own queue and
stalls only its own pipeline — the reader blocks on ``put`` instead of
buffering unboundedly.

Admission control is load *shedding*, not queueing: past
``max_inflight`` concurrently-dispatching requests the server answers
``503`` immediately (with a ``Retry-After`` hint) instead of letting
latency grow unboundedly, and a connection that exceeds its
``max_connection_requests`` budget gets ``429`` + ``Retry-After`` and is
closed — both counted in the ``serve.shed`` counter with the live
``serve.inflight`` gauge alongside. Pinned hits bypass the in-flight
ceiling (they consume no executor slot, which is what the ceiling
protects) but still spend the per-connection budget.

Shutdown is drain-then-close: stop accepting, let every queued response
flush (bounded by ``drain_timeout``), then cancel stragglers and release
the thread pool.
"""

from __future__ import annotations

import asyncio
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from time import perf_counter

from repro.control.planner import ControlPlan, StalePlanError, warm_slice
from repro.core.errors import (
    SegmentReadTimeout,
    TransientSegmentError,
    VisualCloudError,
)
from repro.core.storage import checksum_hex
from repro.obs import MetricsRegistry
from repro.serve.hotset import HotSet
from repro.serve.peering import ShardedBackend
from repro.serve.placement import ShardMap
from repro.serve.wire import (
    Precomputed,
    Response,
    error_response,
    json_response,
    split_segment_path,
    status_for,
)
from repro.stream.dash import SEGMENT_ROUTE, SegmentKey, parse_segment_url

_MAX_REQUEST_BYTES = 16 * 1024  # request line + headers
_ENDPOINTS = frozenset({"segment", "manifest", "metrics", "healthz", "control"})
_MAX_CONTROL_BODY = 4 * 1024 * 1024  # POST /control/plan bodies (plans are small)
LISTEN_BACKLOG = 256  # listen(2) backlog per listening socket
READ_WORKERS = 8  # thread pool for blocking storage reads
QUEUE_DEPTH = 32  # bounded per-connection response queue
READ_TIMEOUT = 5.0  # seconds per storage read before SegmentReadTimeout (504)
STARTUP_TIMEOUT = 10.0  # seconds a ServerHandle waits for its loop thread to bind
METRICS_TTL = 0.25  # /metrics render cache (seconds)
RETRY_AFTER = 0.5  # Retry-After hint (seconds) on shed responses


@dataclass(frozen=True)
class ServerConfig:
    """Tunables for one :class:`SegmentServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = let the kernel pick (the handle reports it)
    drain_timeout: float = 5.0  # graceful-shutdown flush budget
    max_inflight: int | None = None  # concurrent dispatches before 503 shed
    max_connection_requests: int | None = None  # per-connection budget before 429
    pin_budget_bytes: int = 0  # RAM hot-set budget; 0 disables pinning
    pin_threshold: int = 3  # cold-path hits before a segment is pinned
    prewarm: tuple[str, ...] = ()  # videos pinned hottest-first at startup
    # -- sharded delivery (see repro.serve.placement) ----------------------
    node_id: str = ""  # this node's logical id in the shard map; "" = unsharded
    shard_map: ShardMap | None = None  # segment → owners blueprint

    def __post_init__(self) -> None:
        if self.drain_timeout < 0:
            raise ValueError(f"drain_timeout must be >= 0, got {self.drain_timeout}")
        if self.max_inflight is not None and self.max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {self.max_inflight}")
        if self.max_connection_requests is not None and self.max_connection_requests < 1:
            raise ValueError(
                f"max_connection_requests must be >= 1, got {self.max_connection_requests}"
            )
        if self.pin_budget_bytes < 0:
            raise ValueError(
                f"pin_budget_bytes must be >= 0, got {self.pin_budget_bytes}"
            )
        if self.pin_threshold < 1:
            raise ValueError(f"pin_threshold must be >= 1, got {self.pin_threshold}")
        if self.shard_map is not None and not self.node_id:
            raise ValueError("a shard map needs a node_id for this server")
        if self.shard_map is not None and self.node_id not in self.shard_map.nodes:
            raise ValueError(
                f"node_id {self.node_id!r} is not in the shard map "
                f"({self.shard_map.nodes!r})"
            )


class SegmentServer:
    """Serves a storage manager's catalog over HTTP to many sessions.

    Owns nothing but sockets: the storage manager (and therefore the
    cache and the metrics registry) is shared with whatever else the
    process runs. Start with :meth:`start`, stop with :meth:`stop`; or
    use :class:`ServerHandle` / :func:`start_server` to run the loop in
    a daemon thread from synchronous code.
    """

    def __init__(
        self,
        storage,
        config: ServerConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.storage = storage
        self.config = config or ServerConfig()
        self.metrics = (
            registry
            if registry is not None
            else getattr(storage, "metrics", None) or MetricsRegistry()
        )
        self._server: asyncio.base_events.Server | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._connections: set[asyncio.Task] = set()
        self._drain: asyncio.Event | None = None
        self._requests = self.metrics.counter("serve.requests", "HTTP requests served")
        self._latency = self.metrics.histogram(
            "serve.request_seconds", "wall time from request parse to enqueue"
        )
        # Hot-path series are bound once and cached per (endpoint,
        # status): label canonicalisation per request is measurable at
        # saturation. These dicts are touched only on the loop thread.
        self._requests_bound: dict = {}
        self._latency_bound: dict = {}
        self._bytes_sent = self.metrics.counter(
            "serve.bytes_sent", "HTTP body bytes sent"
        ).labels()
        self._gauge_connections = self.metrics.gauge(
            "serve.connections", "open client connections"
        )
        # Admission control state: the loop is single-threaded, so the
        # in-flight count needs no lock — only the gauge mirror is shared.
        # The ceiling starts at the configured value but is runtime
        # state, not config: control plans retune it live.
        self._inflight = 0
        self._max_inflight = self.config.max_inflight
        self._shed = self.metrics.counter(
            "serve.shed", "requests refused by admission control"
        )
        self._gauge_inflight = self.metrics.gauge(
            "serve.inflight", "requests currently dispatching"
        )
        self.hot = HotSet(
            self.config.pin_budget_bytes, self.config.pin_threshold, self.metrics
        )
        self._healthz = Precomputed(Response(200, b"ok", content_type="text/plain"))
        self._metrics_cache: tuple[float, Precomputed] | None = None
        # The one backend every segment and manifest is read through:
        # the storage manager itself, or — on a shard node — owner-or-peer
        # routing and read-repair stacked over it (see serve/peering.py).
        self.node_id: str = self.config.node_id
        self._sharded = (
            ShardedBackend(
                storage,
                self.node_id,
                self.config.shard_map,
                {},
                registry=self.metrics,
            )
            if self.node_id
            else None
        )
        self.backend = self._sharded or storage
        # Control-plane state: the active plan version (monotonic, same
        # refusal contract as the shard map) and the per-video demand
        # counters the controller's forecaster diffs. Counting in the
        # connection loop (not _dispatch) means shed and pinned requests
        # register too — demand is what was *asked for*, not what was
        # admitted. Cardinality is bounded by catalog size: a video gets
        # a series only once the backend has answered for it (see
        # _known_video), never from the raw request path.
        self._control_version = 0
        self._video_requests = self.metrics.counter(
            "serve.video_requests", "segment requests per video (demand signal)"
        )
        self._video_bound: dict = {}
        self._gauge_control_version = self.metrics.gauge(
            "serve.control_plan_version", "version of the active control plan"
        )
        self._control_applies = self.metrics.counter(
            "serve.control_applies", "control plans applied"
        ).labels()
        # Drop coherence: registered against the storage manager while
        # the server runs, so dropping a video also drops its pinned wire
        # buffers (see _on_storage_drop).
        self._loop: asyncio.AbstractEventLoop | None = None

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port)."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._drain = asyncio.Event()
        self._loop = asyncio.get_running_loop()
        add_listener = getattr(self.storage, "add_drop_listener", None)
        if add_listener is not None:
            add_listener(self._on_storage_drop)
        self._executor = ThreadPoolExecutor(
            max_workers=READ_WORKERS, thread_name_prefix="serve-read"
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            backlog=LISTEN_BACKLOG,
        )
        if self.config.prewarm and self.hot.enabled:
            # No base heat: a startup pin is not a refreshed prediction,
            # so runtime promotion may displace it once it goes unused.
            self._pin(path for path, _ in self._startup_prewarm())
        host, port = self._server.sockets[0].getsockname()[:2]
        return host, port

    # -- sharded delivery ------------------------------------------------------

    @property
    def shard_map(self) -> ShardMap | None:
        return self._sharded.shard_map if self._sharded is not None else None

    def update_shard_map(self, shard_map: ShardMap, peers=None) -> int:
        """Swap in a new placement blueprint (loop thread only).

        The backend refuses version rollback; here every pinned segment
        this node no longer owns is dropped — RAM freed for the hot set the
        new map actually routes here. Returns the number of pins dropped.
        """
        if self._sharded is None:
            raise ValueError("a shard map needs a node_id for this server")
        self._sharded.update(shard_map, peers)
        dropped = 0
        for path in self.hot.paths():
            try:
                video, key = parse_segment_url(path)
            except ValueError:
                continue
            if not self._owns(video, key):
                dropped += self.hot.unpin(path)
        return dropped

    def _on_storage_drop(self, name: str) -> None:
        """Storage drop listener: unpin the dropped video's wire buffers
        (storage clears its own pool). Runs on the dropping thread, so the
        hot set (loop-only by contract) is touched via the loop."""
        loop = self._loop

        def invalidate() -> None:
            self.hot.unpin_prefix(f"{SEGMENT_ROUTE}{name}/")
            self._video_bound.pop(name, None)

        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(invalidate)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    async def stop(self) -> None:
        """Drain and shut down: no new connections, queued responses
        flush within ``drain_timeout``, stragglers are cancelled."""
        remove_listener = getattr(self.storage, "remove_drop_listener", None)
        if remove_listener is not None:
            remove_listener(self._on_storage_drop)
        if self._server is None:
            return
        self._server.close()
        await self._server.wait_closed()
        if self._drain is not None:
            self._drain.set()  # idle keep-alive loops exit immediately
        pending = [task for task in self._connections if not task.done()]
        if pending:
            _, unfinished = await asyncio.wait(
                pending, timeout=self.config.drain_timeout
            )
            for task in unfinished:
                task.cancel()
            if unfinished:
                await asyncio.gather(*unfinished, return_exceptions=True)
        self._server = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        if self._sharded is not None:
            self._sharded.close()

    # -- pin prewarm ----------------------------------------------------------

    def _owns(self, video: str, key: SegmentKey) -> bool:
        """Whether this node serves ``key`` from its own storage: every
        segment unsharded, its shard map's share on a shard node."""
        shard_map = self.shard_map
        return shard_map is None or shard_map.owns(self.node_id, video, key)

    def _startup_prewarm(self) -> tuple[tuple[str, int], ...]:
        """``ServerConfig.prewarm`` as the planner would warm it: each
        named video at demand 1.0, fitted to the pin budget over the
        segments this node owns (:func:`warm_slice` over manifests cut
        to :meth:`_owns`)."""
        manifests = {}
        for name in self.config.prewarm:
            manifest = self.storage.build_manifest(name)
            self._known_video(name)
            manifests[name] = replace(
                manifest,
                segment_sizes={
                    key: size
                    for key, size in manifest.segment_sizes.items()
                    if self._owns(name, key)
                },
            )
        return warm_slice(manifests, self.hot.budget_bytes)

    def _pin(self, paths) -> int:
        """Read and pin each of ``paths`` (hottest first) this node owns
        and has not pinned yet; the hot set admits what its budget and
        heat order allow. Reads run inline — startup or control cadence,
        not request cadence — from local storage, not the backend: a node
        pins what it owns and holds, never a peer's copy. A path that fails
        to read (missing or corrupt on disk, raced a drop, malformed) is
        skipped and counted in ``serve.prewarm_skipped``: a slice is a
        target, not a transaction. Each video is read in one
        ``read_segments`` call (one version lookup, one open per pack,
        no buffer-pool insert: the pin is the RAM copy). Returns how many
        paths were newly pinned."""
        skipped = self.metrics.counter(
            "serve.prewarm_skipped",
            "prewarm reads skipped (missing, corrupt or malformed)",
        )
        wanted: dict[str, tuple[str, SegmentKey]] = {}
        for path in paths:
            if path in self.hot or path in wanted:
                continue
            try:
                video, key = parse_segment_url(path)
            except ValueError:
                skipped.inc(video="")
                continue
            if self._owns(video, key):  # a peer's segment warms there
                wanted[path] = (video, key)
        by_video: dict[str, list[str]] = {}
        for path, (video, _) in wanted.items():
            by_video.setdefault(video, []).append(path)
        read: dict[str, bytes | VisualCloudError] = {}
        index = {}  # each video's read version's, whose checksums the reads checked
        for video, video_paths in by_video.items():
            keys = [wanted[path][1] for path in video_paths]
            try:
                meta = self.storage.meta(video)
                results = self.storage.read_segments(video, keys, meta.version)
                index[video] = meta.entries
            except VisualCloudError as error:
                results = [error] * len(keys)
            read.update(zip(video_paths, results))
        pinned = 0
        for path, (video, key) in wanted.items():
            data = read.pop(path)  # let go of each read once it is pinned
            if not isinstance(data, bytes):
                skipped.inc(video=video)
            elif self.hot.pin(path, data, checksum=format(index[video][key].checksum, "08x")):
                pinned += 1
        return pinned

    # -- control plane ---------------------------------------------------------

    def _check_plan_version(self, version: int) -> None:
        """The shard map's rollback refusal, applied to control plans:
        equal re-applies are idempotent, older versions are errors."""
        if version < self._control_version:
            raise StalePlanError(
                f"control plan v{version} is older than active "
                f"v{self._control_version}; refusing to roll back"
            )

    def apply_control_plan(self, plan: ControlPlan) -> dict:
        """Apply one versioned plan slice to this node (loop thread
        only): admission ceiling, pin budget, and predicted-heat
        pre-warm.

        A plan without a slice for this node updates only the version
        fence (the node saw the directive and had nothing to do).
        The slice's heats replace the hot set's base heat (the predicted
        layer), then its paths go through :meth:`_pin`, as startup
        prewarm's do.
        """
        self._check_plan_version(plan.version)
        node_plan = plan.node(self.node_id)
        pinned = dropped = 0
        if node_plan is not None:
            self._max_inflight = node_plan.max_inflight
            # The plan is authoritative over the pin budget: a node that
            # started cold (budget 0) can be resized into pinning — the
            # tier-resizing half of the control plane.
            if node_plan.pin_budget_bytes != self.hot.budget_bytes:
                before = len(self.hot)
                self.hot.set_budget(node_plan.pin_budget_bytes)
                dropped = before - len(self.hot)
            self.hot.set_base_heat(dict(node_plan.prewarm))
            pinned = self._pin(path for path, _ in node_plan.prewarm)
        self._control_version = plan.version
        self._gauge_control_version.set(plan.version)
        self._control_applies.inc()
        return {
            "version": plan.version,
            "node_id": self.node_id,
            "max_inflight": self._max_inflight,
            "pin_budget_bytes": self.hot.budget_bytes,
            "pinned": pinned,
            "dropped": dropped,
        }

    def control_state(self) -> dict:
        """The live control-plane view ``GET /control`` serves."""
        return {
            "version": self._control_version,
            "node_id": self.node_id,
            "max_inflight": self._max_inflight,
            "pin_budget_bytes": self.hot.budget_bytes,
            "pinned_entries": len(self.hot),
            "pinned_bytes": self.hot.bytes_pinned,
            "inflight": self._inflight,
        }

    def _control(self, parts: list[str], method: str, body: bytes) -> Response:
        """Route one ``/control`` request (on the loop thread, so mutations
        are serialized with the hit path). The body becomes a validated
        :class:`ControlPlan` before the version fence is consulted or anything
        is assigned: whatever that raises is a 400, the fence alone a 409."""
        if not parts and method == "GET":
            return json_response(200, self.control_state())
        if parts != ["plan"] or method != "POST":
            return error_response(404, LookupError(f"no control route {parts!r}"))
        try:
            plan = ControlPlan.from_json(json.loads(body.decode("utf-8")))
        except (KeyError, TypeError, ValueError) as error:
            return error_response(400, ValueError(f"malformed control payload: {error!r}"))
        try:
            self._check_plan_version(plan.version)
        except StalePlanError as error:
            return error_response(409, error)
        return json_response(200, self.apply_control_plan(plan))

    # -- connection handling --------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        self._gauge_connections.inc()
        # Bounded send queue: the reader enqueues buffer tuples, the
        # writer drains. A slow consumer fills the queue and stalls its
        # own reader — that is the backpressure.
        queue: asyncio.Queue[tuple | None] = asyncio.Queue(QUEUE_DEPTH)
        writer_task = asyncio.create_task(self._write_loop(queue, writer))
        assert self._drain is not None
        # One drain-wait task per connection, reused across requests —
        # not one per request, which doubled task churn at saturation.
        drain_wait = asyncio.create_task(self._drain.wait())
        served_on_connection = 0
        hot = self.hot
        try:
            while not self._drain.is_set():
                request = await self._next_request(reader, drain_wait)
                if request is None:
                    break
                method, path, keep_alive, body = request
                started = perf_counter()
                served_on_connection += 1
                target = path.partition("?")[0]
                # The forecaster's demand signal: every segment request
                # for a known video, counted before admission so shed
                # and pinned traffic register as demand too.
                segment = split_segment_path(target) if method == "GET" else None
                demand = self._video_bound.get(segment[0]) if segment else None
                if demand is not None:
                    demand.inc()
                if method == "POST" and target.startswith("/control"):
                    response = await self._dispatch(target, method, body)
                elif method != "GET":
                    response = Response(
                        405, b"", content_type="text/plain", error="MethodNotAllowed"
                    )
                    keep_alive = False
                else:
                    budget = self.config.max_connection_requests
                    if budget is not None and served_on_connection > budget:
                        # The connection spent its request budget: shed
                        # with 429 and close so the client reconnects
                        # (or fails over) after the hint.
                        response = self._shed_response(429, "connection_budget")
                        keep_alive = False
                    else:
                        # enabled is read per request, not per connection:
                        # a control plan can resize a zero-budget hot set
                        # mid-connection, and long-lived connections must
                        # see the new tier immediately.
                        pinned = hot.lookup(target) if hot.enabled else None
                        if pinned is not None:
                            # RAM hit: prebuilt buffers, no executor, no
                            # in-flight accounting (nothing to protect).
                            response = pinned
                        elif (
                            self._max_inflight is not None
                            and self._inflight >= self._max_inflight
                        ):
                            # Overloaded: answer immediately instead of
                            # queueing — bounded latency for admitted work.
                            response = self._shed_response(503, "overload")
                        else:
                            self._inflight += 1
                            self._gauge_inflight.set(self._inflight)
                            try:
                                response = await self._dispatch(target)
                            finally:
                                self._inflight -= 1
                                self._gauge_inflight.set(self._inflight)
                if segment and demand is None and response.status == 200:
                    # The backend just answered for this video: it is
                    # known from here on, and this request was demand.
                    self._known_video(segment[0]).inc()
                endpoint = target[1:].partition("/")[0]
                if endpoint not in _ENDPOINTS:
                    endpoint = "other"  # labels come from routes, never raw paths
                series = (endpoint, response.status)
                counter = self._requests_bound.get(series)
                if counter is None:
                    counter = self._requests_bound[series] = self._requests.labels(
                        endpoint=endpoint, status=str(response.status)
                    )
                counter.inc()
                self._bytes_sent.inc(response.body_length)
                histogram = self._latency_bound.get(endpoint)
                if histogram is None:
                    histogram = self._latency_bound[endpoint] = self._latency.labels(
                        endpoint=endpoint
                    )
                histogram.observe(perf_counter() - started)
                await queue.put(response.parts(keep_alive))
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionResetError, asyncio.LimitOverrunError):
            pass  # peer went away mid-request; nothing to answer
        finally:
            drain_wait.cancel()
            await asyncio.gather(drain_wait, return_exceptions=True)
            await queue.put(None)  # sentinel: flush then close
            try:
                await writer_task
            except asyncio.CancelledError:
                pass
            self._connections.discard(task)
            self._gauge_connections.dec()

    async def _next_request(
        self, reader: asyncio.StreamReader, drain_wait: asyncio.Task
    ) -> tuple[str, str, bool, bytes] | None:
        """The next parsed request, or None on client EOF *or* drain.

        Racing the read against the drain event is what makes shutdown
        prompt: an idle keep-alive connection is parked in ``readuntil``
        and would otherwise only notice draining when force-cancelled
        after the full timeout.
        """
        read = asyncio.create_task(self._read_request(reader))
        done, _ = await asyncio.wait(
            {read, drain_wait}, return_when=asyncio.FIRST_COMPLETED
        )
        if read not in done:
            read.cancel()
            await asyncio.gather(read, return_exceptions=True)
            return None
        return read.result()

    @staticmethod
    async def _write_loop(queue: asyncio.Queue, writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                payload = await queue.get()
                if payload is None:
                    break
                # Two writes (header block, payload view) instead of one
                # concatenated bytes: the transport chains the buffers,
                # the payload is never copied on the hit path.
                for part in payload:
                    writer.write(part)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    @staticmethod
    async def _read_request(
        reader: asyncio.StreamReader,
    ) -> tuple[str, str, bool, bytes] | None:
        """Parse one request head (and a Content-Length body, for the
        control plane's POSTs); None on clean EOF."""
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as error:
            if not error.partial:
                return None  # clean close between requests
            raise
        if len(head) > _MAX_REQUEST_BYTES:
            return None
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3:
            return None
        method, target, version = parts
        keep_alive = version == "HTTP/1.1"
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            name = name.strip().lower()
            if name == "connection":
                keep_alive = value.strip().lower() != "close"
            elif name == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    return None
        if length < 0 or length > _MAX_CONTROL_BODY:
            return None
        body = await reader.readexactly(length) if length else b""
        return method, target, keep_alive, body

    # -- request dispatch -----------------------------------------------------

    def _shed_response(self, status: int, reason: str) -> Response:
        self._shed.inc(reason=reason)
        return error_response(
            status,
            TransientSegmentError(f"request shed: {reason}"),
            retry_after=RETRY_AFTER,
        )

    async def _dispatch(self, target: str, method: str = "GET", body: bytes = b""):
        try:
            if target.startswith(SEGMENT_ROUTE):
                return await self._segment(target)
            parts = [part for part in target.split("/") if part]
            if parts == ["healthz"]:
                return self._healthz
            if parts and parts[0] == "control":
                return self._control(parts[1:], method, body)
            if parts == ["metrics"]:
                return self._metrics_response()
            if len(parts) == 2 and parts[0] == "manifest":
                return await self._manifest(parts[1])
            return error_response(404, LookupError(f"no route for {target!r}"))
        except VisualCloudError as error:
            return error_response(status_for(error), error)
        except ValueError as error:
            return error_response(400, error)

    def _metrics_response(self) -> Precomputed:
        """The registry snapshot, rendered at most once per ``METRICS_TTL``.

        Snapshotting and JSON-encoding the full registry per request is
        event-loop work that scales with series count, not traffic — a
        short render cache bounds it without making the data stale in
        any way a scraper would notice.
        """
        now = asyncio.get_running_loop().time()
        cached = self._metrics_cache
        if cached is not None and now - cached[0] < METRICS_TTL:
            return cached[1]
        rendered = Precomputed(json_response(200, self.metrics.snapshot()))
        self._metrics_cache = (now, rendered)
        return rendered

    async def _manifest(self, name: str) -> Response:
        manifest = await self._offload(lambda: self.backend.build_manifest(name))
        self._known_video(name)
        payload = manifest.to_json()
        shard_map = self.shard_map
        if shard_map is not None:
            # Published here, not baked into the stored manifest: the map
            # is delivery-tier state with its own version stream.
            payload["shard_map"] = shard_map.to_json()
        return json_response(200, payload)

    async def _segment(self, target: str) -> Response:
        name, key = parse_segment_url(target)  # ValueError → 400
        data = await self._offload(
            lambda: self.backend.read_segment(name, key.window, key.tile, key.quality)
        )
        checksum = checksum_hex(data)
        # Runtime promotion pins only what this node owns, as _pin does.
        if self.hot.enabled and self._owns(name, key):
            self.hot.record(target, data, checksum)
        return Response(200, data, checksum=checksum)

    def _known_video(self, name: str):
        """The demand series of a video the backend has answered for —
        the only way a ``serve.video_requests`` series comes to exist."""
        demand = self._video_bound.get(name)
        if demand is None:
            demand = self._video_bound[name] = self._video_requests.labels(video=name)
        return demand

    async def _offload(self, call):
        """Run a blocking storage call on the thread pool, bounded by the
        read budget; a blown budget surfaces as the taxonomy's timeout."""
        if self._executor is None:
            raise RuntimeError("server is not running")
        loop = asyncio.get_running_loop()
        future = loop.run_in_executor(self._executor, call)
        try:
            return await asyncio.wait_for(asyncio.shield(future), READ_TIMEOUT)
        except asyncio.TimeoutError:
            raise SegmentReadTimeout(
                f"storage read exceeded the {READ_TIMEOUT:.3f}s budget"
            ) from None


class ServerStartupError(RuntimeError):
    """The server's loop thread did not come up with a bound port."""


class ServerHandle:
    """A :class:`SegmentServer` running its event loop in a daemon thread.

    The synchronous face of the server for tests, the CLI, and the bench
    driver: construct, read ``base_url``, call :meth:`stop` (or use as a
    context manager). Thread-safe to stop more than once.

    Startup is verified, not assumed: the constructor waits on the loop
    thread's started event *and checks the wait result* — a thread that
    dies during startup (bind failure, loop setup failure) propagates its
    exception to the caller instead of handing back a handle with no
    port; a thread that silently never signals raises
    :class:`ServerStartupError` rather than letting callers proceed.
    """

    def __init__(self, server: SegmentServer) -> None:
        self.server = server
        self._loop = asyncio.new_event_loop()
        self._started = threading.Event()
        self._address: tuple[str, int] | None = None
        self._failure: BaseException | None = None
        self._thread = threading.Thread(
            target=self._run, name="segment-server", daemon=True
        )
        self._thread.start()
        signalled = self._started.wait(timeout=STARTUP_TIMEOUT)
        if not signalled and not self._thread.is_alive():
            # The thread died without even reaching its exception guard —
            # give it a beat to flush, then report whatever it recorded.
            self._thread.join(timeout=1.0)
        if self._failure is not None:
            raise self._failure
        if self._address is None:
            if not self._thread.is_alive():
                raise ServerStartupError(
                    "segment server thread died during startup without "
                    "reporting an address or an error"
                )
            raise ServerStartupError(
                f"segment server failed to start within {STARTUP_TIMEOUT:g}s"
            )

    def _run(self) -> None:
        try:
            asyncio.set_event_loop(self._loop)
            self._address = self._loop.run_until_complete(self.server.start())
        except BaseException as error:  # surface bind/setup failures to the caller
            self._failure = error
            self._started.set()
            return
        self._started.set()
        try:
            self._loop.run_forever()
        finally:
            self._loop.close()

    @property
    def address(self) -> tuple[str, int]:
        assert self._address is not None
        return self._address

    @property
    def base_url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def _on_loop(self, call, timeout: float = 10.0):
        """Run ``call()`` on the server's loop thread (where the hot set
        and control state live) and hand back its result or exception."""

        async def run():
            return call()

        future = asyncio.run_coroutine_threadsafe(run(), self._loop)
        return future.result(timeout=timeout)

    def update_shard_map(self, shard_map: ShardMap, peers=None) -> int:
        """Apply a new shard map (and optionally a peer table); returns
        the number of pins dropped.

        This is the two-phase wiring a sharded tier needs: servers bind
        ephemeral ports first, then every node learns the full node →
        URL table once all siblings are up.
        """
        return self._on_loop(lambda: self.server.update_shard_map(shard_map, peers))

    def apply_control_plan(self, plan) -> dict:
        """Apply a control plan — the controller's entry point. Raises
        ``StalePlanError`` on a stale version, the error the wire
        endpoint answers 409 with."""
        return self._on_loop(lambda: self.server.apply_control_plan(plan), 30.0)

    def control_state(self) -> dict:
        """The server's live control-plane view."""
        return self._on_loop(self.server.control_state)

    def stop(self) -> None:
        if not self._thread.is_alive():
            return
        future = asyncio.run_coroutine_threadsafe(self.server.stop(), self._loop)
        future.result(timeout=self.server.config.drain_timeout + 10.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def start_server(
    storage,
    config: ServerConfig | None = None,
    registry: MetricsRegistry | None = None,
) -> ServerHandle:
    """Start a segment server on a daemon loop thread of this process
    and hand back its :class:`ServerHandle`."""
    return ServerHandle(SegmentServer(storage, config, registry))
