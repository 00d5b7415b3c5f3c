"""The chaos scenario runner: whole sessions under a fault plan, judged
by machine-checkable invariants.

A :class:`Scenario` is a self-contained JSON artifact: what to ingest,
how many viewers to simulate (single links or one shared link), the
:class:`~repro.chaos.faults.FaultPlan` to inject, and the invariant
thresholds to enforce. :class:`ScenarioRunner` replays it into an
:class:`InvariantReport` whose JSON is *deterministic for a given seed*
— two runs produce identical reports, including the exact degradation
event sequence — so canned scenarios work as CI regression gates.

Invariants checked on every run:

* ``no_uncaught_exceptions`` — every session terminates with a QoE
  report; nothing escapes the resilience layer;
* ``sessions_complete`` — every session played every window;
* ``visible_tile_coverage`` — every window shipped *some* decodable
  rung for every tile the viewer actually looked at;
* ``no_silent_upgrade`` — delivered quality never exceeds the requested
  (budgeted) rung, in the quality maps and in every event;
* ``qoe_floor`` — optional stall-time and visible-coverage thresholds;
* ``expected_degradations`` — optional: the plan was hostile enough
  that at least one degradation event was recorded (guards against a
  vacuous pass where faults never fired);
* ``cache_disk_consistency`` — every byte in the segment cache equals
  its on-disk file (no stale or corrupt bytes survived invalidation);
* ``metrics_events_agree`` — the ``obs`` counters and the QoE event
  trail tell the same story, exactly.

``sessions.mode == "wire"`` replays the scenario over real sockets: one
or more :class:`~repro.serve.server.SegmentServer` replicas behind
:class:`~repro.chaos.proxy.ChaosProxy` instances (replica 0 gets the
fault plan; siblings relay cleanly), streamed through a
:class:`~repro.serve.failover.FailoverSegmentClient`. Wire runs add:

* ``no_raw_transport_errors`` — any escaping failure is a taxonomy
  error, never a raw ``OSError``;
* ``circuit_monotone`` — every recorded breaker transition is a legal
  edge (closed→open→half_open→{closed | open});
* ``expected_wire_faults`` — anti-vacuous guard that the proxy actually
  injected something;
* ``bounded_degradation`` (any mode, via ``invariants.max_degradations``)
  — a tier with a healthy replica degrades at most that much.

Sharded wire runs (``sessions.shards``) can additionally set
``sessions.materialize`` to give every node its *own* on-disk shard root
(via :func:`~repro.serve.placement.materialize_shards`) instead of one
shared store, and ``sessions.corrupt_at_rest`` to bit-rot one node's
segment files before serving — the read-repair scenario. Those runs add:

* ``repair_restores_ingest_bytes`` — every rotted file the serve tier
  rewrote is byte-identical to the originally ingested segment (a wrong
  repair is strictly worse than no repair);
* ``expected_repairs`` (via ``invariants.min_repairs``) — anti-vacuous
  guard that checksum-triggered peer read-repair actually fired.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.chaos.faults import FaultPlan
from repro.chaos.wrappers import ChaosSegmentCache, ChaosStorageManager
from repro.core.resilience import RetryPolicy
from repro.core.server import VisualCloud
from repro.core.storage import IngestConfig
from repro.core.streamer import SessionConfig, Streamer
from repro.geometry.grid import TileGrid
from repro.stream.abr import NaiveFullQuality, PredictiveTilingPolicy, UniformAdaptive
from repro.stream.network import ConstantBandwidth, SimulatedLink
from repro.video.quality import Quality
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

POLICIES = {
    "naive": NaiveFullQuality,
    "uniform": UniformAdaptive,
    "predictive": PredictiveTilingPolicy,
}


@dataclass
class Scenario:
    """One replayable chaos experiment, loadable from JSON."""

    name: str
    plan: FaultPlan
    seed: int = 0
    #: Synthetic source video parameters (see workloads.videos).
    video: dict = field(default_factory=dict)
    #: Session shape: count, mode ("single" | "shared"), bandwidth, ...
    sessions: dict = field(default_factory=dict)
    #: RetryPolicy overrides: attempts, base_delay, multiplier, max_delay.
    retry: dict = field(default_factory=dict)
    #: Invariant thresholds: max_stall_seconds, min_visible_fraction,
    #: expect_degradations.
    invariants: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "video": dict(self.video),
            "sessions": dict(self.sessions),
            "retry": dict(self.retry),
            "invariants": dict(self.invariants),
            "plan": self.plan.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict, seed: int | None = None) -> "Scenario":
        effective_seed = data.get("seed", 0) if seed is None else seed
        return cls(
            name=data.get("name", "scenario"),
            seed=effective_seed,
            video=dict(data.get("video", {})),
            sessions=dict(data.get("sessions", {})),
            retry=dict(data.get("retry", {})),
            invariants=dict(data.get("invariants", {})),
            plan=FaultPlan.from_json(data.get("plan", {}), seed=effective_seed),
        )

    @classmethod
    def load(cls, path: Path | str, seed: int | None = None) -> "Scenario":
        return cls.from_json(
            json.loads(Path(path).read_text(encoding="utf-8")), seed=seed
        )

    # -- resolved knobs -------------------------------------------------------

    def ingest_config(self) -> IngestConfig:
        video = self.video
        rows, cols = video.get("grid", [2, 2])
        qualities = tuple(
            Quality.from_label(label)
            for label in video.get("qualities", ["high", "low"])
        )
        return IngestConfig(
            grid=TileGrid(int(rows), int(cols)),
            qualities=qualities,
            gop_frames=int(video.get("gop_frames", 4)),
            fps=float(video.get("fps", 4.0)),
            workers=1,  # serial ingest: one fewer moving part to replay
        )

    def frames(self):
        video = self.video
        return synthetic_video(
            video.get("profile", "venice"),
            width=int(video.get("width", 64)),
            height=int(video.get("height", 32)),
            fps=float(video.get("fps", 4.0)),
            duration=float(video.get("duration", 2.0)),
            seed=self.seed,
        )

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(
            attempts=int(self.retry.get("attempts", 3)),
            base_delay=float(self.retry.get("base_delay", 0.0)),
            multiplier=float(self.retry.get("multiplier", 2.0)),
            max_delay=float(self.retry.get("max_delay", 0.25)),
        )


@dataclass
class InvariantCheck:
    """One invariant's verdict."""

    name: str
    ok: bool
    details: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "details": self.details}


@dataclass
class InvariantReport:
    """The runner's output: verdicts, the event trail, and fault stats."""

    scenario: str
    seed: int
    checks: list[InvariantCheck]
    events: list[dict]
    sessions: list[dict]
    metrics: dict

    @property
    def ok(self) -> bool:
        return all(check.ok for check in self.checks)

    def to_json(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "ok": self.ok,
            "checks": [check.to_json() for check in self.checks],
            "events": self.events,
            "sessions": self.sessions,
            "metrics": self.metrics,
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True)


class ScenarioRunner:
    """Replays a :class:`Scenario` into an :class:`InvariantReport`.

    ``root`` optionally pins the database directory (a temporary one is
    used — and cleaned up — otherwise). The runner never touches an
    existing catalog: it always ingests the scenario's synthetic video
    into a fresh directory.
    """

    VIDEO_NAME = "chaos-clip"

    def __init__(self, scenario: Scenario, root: Path | str | None = None) -> None:
        self.scenario = scenario
        self.root = root

    def run(self) -> InvariantReport:
        if self.root is not None:
            return self._run_in(Path(self.root))
        with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
            return self._run_in(Path(tmp))

    # -- internals ------------------------------------------------------------

    def _run_in(self, root: Path) -> InvariantReport:
        scenario = self.scenario
        db = VisualCloud(root / "db")
        db.ingest(self.VIDEO_NAME, scenario.frames(), scenario.ingest_config())
        meta = db.meta(self.VIDEO_NAME)

        scenario.plan.reset()
        if scenario.sessions.get("mode", "single") == "wire":
            return self._run_wire(db, meta)
        chaos_storage = ChaosStorageManager(db.storage, scenario.plan)
        if db.storage.segment_cache is not None and any(
            rule.target == "cache" for rule in scenario.plan.rules
        ):
            db.storage.segment_cache = ChaosSegmentCache(
                db.storage.segment_cache, scenario.plan
            )

        sessions = scenario.sessions
        count = int(sessions.get("count", 2))
        mode = sessions.get("mode", "single")
        bandwidth = float(sessions.get("bandwidth", 50_000.0))
        policy_name = sessions.get("policy", "predictive")
        predictor = sessions.get("predictor", "static")
        margin = int(sessions.get("margin", 1))
        retry_policy = scenario.retry_policy()
        population = ViewerPopulation(seed=scenario.seed)

        def make_config() -> SessionConfig:
            return SessionConfig(
                policy=POLICIES[policy_name](),
                bandwidth=scenario.plan.apply_to_bandwidth(ConstantBandwidth(bandwidth)),
                predictor=predictor,
                margin=margin,
                retry=retry_policy,
            )

        reports: list = [None] * count
        failures: list[tuple[int, str]] = []
        streamer = Streamer(chaos_storage, db.prediction, registry=db.metrics)
        if mode == "shared":
            link = SimulatedLink(
                scenario.plan.apply_to_bandwidth(ConstantBandwidth(bandwidth))
            )
            specs = [
                (
                    self.VIDEO_NAME,
                    population.trace(viewer, duration=meta.duration, rate=10.0),
                    make_config(),
                )
                for viewer in range(count)
            ]
            try:
                reports = streamer.serve_all(specs, link)
            except Exception as error:  # noqa: BLE001 — escapes ARE the finding
                failures = [
                    (viewer, f"{type(error).__name__}: {error}")
                    for viewer in range(count)
                ]
        else:
            for viewer in range(count):
                trace = population.trace(viewer, duration=meta.duration, rate=10.0)
                try:
                    reports[viewer] = streamer.serve(
                        self.VIDEO_NAME, trace, make_config()
                    )
                except Exception as error:  # noqa: BLE001
                    failures.append((viewer, f"{type(error).__name__}: {error}"))

        return self._judge(db, meta, reports, failures)

    def _run_wire(self, db, meta) -> InvariantReport:
        """Replay over real sockets: servers behind chaos proxies,
        streamed through the failover client.

        Sessions run sequentially over one shared client so the order of
        wire-fault decisions — and with it the whole report — is
        deterministic per seed. ``reset_timeout=0`` keeps breaker
        recovery schedule-driven rather than wall-clock-driven.
        """
        from repro.chaos.proxy import ChaosProxy
        from repro.obs import MetricsRegistry
        from repro.serve.client import RemoteStorage
        from repro.serve.failover import FailoverConfig, FailoverSegmentClient
        from repro.serve.server import ServerConfig, start_server

        scenario = self.scenario
        sessions = scenario.sessions
        count = int(sessions.get("count", 2))
        replica_count = int(sessions.get("replicas", 1))
        if sessions.get("shards"):
            # Shard mode: the tier width is the shard count; each node is
            # both a ring owner and a client-facing replica.
            replica_count = int(sessions["shards"])
        bandwidth = float(sessions.get("bandwidth", 50_000.0))
        policy_name = sessions.get("policy", "predictive")
        predictor = sessions.get("predictor", "static")
        margin = int(sessions.get("margin", 1))
        retry_policy = scenario.retry_policy()
        population = ViewerPopulation(seed=scenario.seed)
        client_metrics = MetricsRegistry()
        hedge_delay = sessions.get("hedge_delay")
        # Sharded wire mode: nodes get *logical* ids ("node-0", ...) so the
        # consistent-hash placement — and with it every routing decision —
        # is identical across replays despite ephemeral ports.
        shard_map = None
        node_ids = [f"node-{index}" for index in range(replica_count)]
        if sessions.get("shards"):
            from repro.serve.placement import ShardMap

            shard_map = ShardMap(
                nodes=tuple(node_ids),
                replication_factor=int(sessions.get("replication_factor", 2)),
            )

        # Per-node shard roots: each server reads (and repairs) its own
        # disk, so an at-rest corruption on one node is invisible to its
        # peers — the precondition for exercising read-repair for real.
        node_storages: dict | None = None
        corrupted: list[dict] = []
        if shard_map is not None and sessions.get("materialize"):
            from repro.core.storage import StorageManager
            from repro.serve.placement import materialize_shards

            base = Path(db.storage.catalog.root).parent
            node_roots = {node: base / f"shard-{node}" for node in node_ids}
            materialize_shards(db.storage, node_roots, shard_map)
            node_storages = {
                node: StorageManager(node_roots[node], registry=db.metrics)
                for node in node_ids
            }
            spec = sessions.get("corrupt_at_rest")
            if spec:
                corrupted = self._corrupt_at_rest(node_storages, spec)

        handles: list = []
        proxies: list[ChaosProxy] = []
        client = None
        try:
            for index in range(replica_count):
                config = (
                    ServerConfig(node_id=node_ids[index], shard_map=shard_map)
                    if shard_map is not None
                    else ServerConfig()
                )
                node_storage = (
                    node_storages[node_ids[index]]
                    if node_storages is not None
                    else db.storage
                )
                handle = start_server(node_storage, config, registry=db.metrics)
                handles.append(handle)
                proxy = ChaosProxy(
                    handle.address,
                    plan=scenario.plan if index == 0 else None,
                )
                proxy.start()
                proxies.append(proxy)
            if shard_map is not None:
                # Peer fetches go server-to-server directly (not through
                # the chaos proxies): the plan's fault surface stays the
                # client-facing wire, exactly as in unsharded runs.
                peers = {
                    node_ids[index]: handles[index].base_url
                    for index in range(replica_count)
                }
                for handle in handles:
                    handle.update_shard_map(shard_map, peers)
            controller = None
            if sessions.get("controller"):
                # Deterministic control plane: driven synchronously
                # between sessions (no wall-clock thread), with a
                # counting clock and deterministic=True (no latency
                # reads), so demand — and with it every plan — is a pure
                # function of the replayed request sequence and the
                # whole report stays byte-identical per seed.
                from itertools import count as _tick_counter

                from repro.control import (
                    ControlConfig,
                    Controller,
                    HandleActuator,
                    NodeState,
                    catalog_from_storage,
                )

                ticks = _tick_counter()
                pin_budget = int(sessions.get("pin_budget", 1 << 20))
                control_nodes = tuple(
                    NodeState(
                        node_id=node_id,
                        pin_budget_bytes=pin_budget,
                        max_inflight=None,
                    )
                    for node_id in (node_ids if shard_map is not None else [""])
                )
                controller = Controller(
                    ControlConfig(
                        enabled=True,
                        deterministic=True,
                        prewarm_threshold=float(
                            sessions.get("prewarm_threshold", 0.5)
                        ),
                    ),
                    metrics_source=db.metrics.snapshot,
                    catalog_source=lambda: catalog_from_storage(db.storage),
                    nodes_source=lambda: control_nodes,
                    actuators=tuple(HandleActuator(handle) for handle in handles),
                    clock=lambda: float(next(ticks)),
                )
            client = FailoverSegmentClient(
                [proxy.base_url for proxy in proxies],
                config=FailoverConfig(
                    failure_threshold=int(sessions.get("failure_threshold", 3)),
                    reset_timeout=0.0,
                    request_timeout=float(sessions.get("request_timeout", 2.0)),
                    hedge_delay=None if hedge_delay is None else float(hedge_delay),
                ),
                registry=client_metrics,
                shard_map=shard_map,
                node_urls={
                    node_ids[index]: proxies[index].base_url
                    for index in range(replica_count)
                }
                if shard_map is not None
                else None,
            )
            storage = RemoteStorage(client, registry=client_metrics)
            streamer = Streamer(storage, db.prediction, registry=client_metrics)
            reports: list = [None] * count
            failures: list[tuple[int, str]] = []
            for viewer in range(count):
                trace = population.trace(viewer, duration=meta.duration, rate=10.0)
                config = SessionConfig(
                    policy=POLICIES[policy_name](),
                    bandwidth=scenario.plan.apply_to_bandwidth(
                        ConstantBandwidth(bandwidth)
                    ),
                    predictor=predictor,
                    margin=margin,
                    retry=retry_policy,
                )
                try:
                    reports[viewer] = streamer.serve(self.VIDEO_NAME, trace, config)
                except Exception as error:  # noqa: BLE001 — escapes ARE the finding
                    failures.append((viewer, f"{type(error).__name__}: {error}"))
                if controller is not None:
                    controller.step()
            extra_checks, extra_metrics = self._judge_wire(client, failures)
            if corrupted:
                repair_checks, repair_metrics = self._judge_repair(db, corrupted)
                extra_checks = list(extra_checks) + repair_checks
                extra_metrics["repair"] = repair_metrics
            if controller is not None:
                # Only counter/plan-derived fields: no wall-clock values
                # leak into the report, so double replays stay identical.
                extra_metrics["control"] = {
                    "steps": controller.metrics.counter("control.steps").total(),
                    "plans_applied": controller.metrics.counter(
                        "control.plans_applied"
                    ).total(),
                    "plans_noop": controller.metrics.counter(
                        "control.plans_noop"
                    ).total(),
                    "actuate_errors": controller.metrics.counter(
                        "control.actuate_errors"
                    ).total(),
                    "final_version": (
                        0 if controller.plan is None else controller.plan.version
                    ),
                    "nodes": [
                        {
                            key: value
                            for key, value in handle.control_state().items()
                            if key != "inflight"
                        }
                        for handle in handles
                    ],
                }
            if shard_map is not None:
                extra_metrics["shards"] = {
                    "nodes": len(node_ids),
                    "replication_factor": shard_map.replication_factor,
                    "map_version": shard_map.version,
                    "routed": client.metrics.counter("failover.shard_routed").total(),
                    "unroutable": client.metrics.counter(
                        "failover.shard_unroutable"
                    ).total(),
                    "peer_fetches": db.metrics.counter("serve.peer_fetches").total(),
                    "peer_cache_hits": db.metrics.counter(
                        "serve.peer_cache_hits"
                    ).total(),
                    "peer_errors": db.metrics.counter("serve.peer_errors").total(),
                }
            return self._judge(
                db,
                meta,
                reports,
                failures,
                registry=client_metrics,
                extra_checks=extra_checks,
                extra_metrics=extra_metrics,
            )
        finally:
            if client is not None:
                client.close()
            for proxy in proxies:
                proxy.stop()
            for handle in handles:
                handle.stop()

    def _corrupt_at_rest(self, node_storages, spec) -> list[dict]:
        """Bit-rot one node's segment files on disk before serving.

        ``spec``: ``{"node": "node-0", "quality": "low"}`` — ``node``
        defaults to the first node, ``quality`` (optional) restricts the
        damage to one rung's files. The flip is deterministic (mid-payload,
        bit 3), so double replays rot identical bytes. Rotted files are
        rewritten through a temp file + ``os.replace`` so a hard link
        shared with the canonical store (or a peer) is broken, not
        poisoned.
        """
        from repro.chaos.corrupt import bit_flip

        node = spec.get("node") or next(iter(node_storages))
        label = spec.get("quality")
        storage = node_storages[node]
        records: list[dict] = []
        segments_dir = storage.catalog.segments_dir(self.VIDEO_NAME)
        for path in sorted(segments_dir.iterdir()):
            if not path.name.endswith(".seg"):
                continue
            if label is not None and f"_{label}_" not in path.name:
                continue
            original = path.read_bytes()
            if not original:
                continue
            damaged = bit_flip(original, len(original) // 2, bit=3)
            rotted = path.with_name(path.name + ".rot")
            rotted.write_bytes(damaged)
            os.replace(rotted, path)
            records.append(
                {"node": node, "path": path, "original": original, "damaged": damaged}
            )
        return records

    def _judge_repair(self, db, corrupted):
        """The read-repair invariants plus deterministic repair metrics."""
        scenario = self.scenario
        checks: list[InvariantCheck] = []
        restored = untouched = 0
        wrong: list[str] = []
        for record in corrupted:
            current = record["path"].read_bytes()
            if current == record["original"]:
                restored += 1
            elif current == record["damaged"]:
                untouched += 1  # never read, so never repaired — not a failure
            else:
                wrong.append(record["path"].name)
        checks.append(
            InvariantCheck(
                "repair_restores_ingest_bytes",
                ok=not wrong,
                details=(
                    f"rewritten files differ from ingest bytes: {wrong[:10]}"
                    if wrong
                    else ""
                ),
            )
        )
        registry = db.metrics
        success = registry.counter("storage.repair_success").total()
        min_repairs = scenario.invariants.get("min_repairs")
        if min_repairs is not None:
            ok = success >= int(min_repairs) and restored >= 1
            checks.append(
                InvariantCheck(
                    "expected_repairs",
                    ok=ok,
                    details=(
                        ""
                        if ok
                        else (
                            f"storage.repair_success={success} < "
                            f"min_repairs={min_repairs} "
                            f"(files restored on disk: {restored})"
                        )
                    ),
                )
            )
        metrics = {
            "files_corrupted": len(corrupted),
            "files_restored": restored,
            "files_untouched": untouched,
            "attempts": registry.counter("storage.repair_attempts").total(),
            "success": success,
            "failed": registry.counter("storage.repair_failed").total(),
            "bytes": registry.counter("storage.repair_bytes").total(),
        }
        return checks, metrics

    def _judge_wire(self, client, failures):
        """The wire-only invariants plus deterministic failover metrics.

        Replica URLs carry ephemeral ports, so the report keys breakers
        by index — two replays of the same seed must produce identical
        bytes.
        """
        from repro.chaos.faults import WIRE_KINDS
        from repro.serve.failover import LEGAL_TRANSITIONS

        scenario = self.scenario
        checks: list[InvariantCheck] = []
        taxonomy = {
            "VisualCloudError",
            "CatalogError",
            "SegmentNotFoundError",
            "SegmentCorruptError",
            "TransientSegmentError",
            "SegmentReadTimeout",
        }
        raw = [
            (index, message)
            for index, message in failures
            if message.split(":", 1)[0] not in taxonomy
        ]
        checks.append(
            InvariantCheck(
                "no_raw_transport_errors",
                ok=not raw,
                details=(
                    "; ".join(f"session {i}: {msg}" for i, msg in raw) if raw else ""
                ),
            )
        )
        trails: dict[str, list] = {}
        illegal = []
        for index, replica in enumerate(client.replicas.replicas):
            edges = list(replica.breaker.transitions)
            trails[f"replica-{index}"] = [list(edge) for edge in edges]
            illegal.extend(
                (index, edge) for edge in edges if edge not in LEGAL_TRANSITIONS
            )
        checks.append(
            InvariantCheck(
                "circuit_monotone",
                ok=not illegal,
                details=f"illegal breaker edges: {illegal[:10]}" if illegal else "",
            )
        )
        wire_injected = sum(
            scenario.plan.injected.get(kind, 0) for kind in WIRE_KINDS
        )
        if scenario.invariants.get("expect_wire_faults"):
            checks.append(
                InvariantCheck(
                    "expected_wire_faults",
                    ok=wire_injected >= 1,
                    details="" if wire_injected else "the proxy injected nothing",
                )
            )
        extra_metrics = {
            "wire_calls": scenario.plan.calls("wire"),
            "breaker_transitions": trails,
            "failover": {
                "requests": client.metrics.counter("failover.requests").total(),
                "failovers": client.metrics.counter("failover.failovers").total(),
                "hedges": client.metrics.counter("failover.hedges").total(),
                "budget_exhausted": client.metrics.counter(
                    "failover.budget_exhausted"
                ).total(),
                "budget_spent": client.budget.spent,
                "budget_denied": client.budget.denied,
            },
        }
        return checks, extra_metrics

    def _judge(
        self,
        db,
        meta,
        reports,
        failures,
        registry=None,
        extra_checks=(),
        extra_metrics=None,
    ) -> InvariantReport:
        scenario = self.scenario
        checks: list[InvariantCheck] = []
        completed = [report for report in reports if report is not None]

        checks.append(
            InvariantCheck(
                "no_uncaught_exceptions",
                ok=not failures,
                details="; ".join(f"session {i}: {msg}" for i, msg in failures),
            )
        )

        incomplete = [
            index
            for index, report in enumerate(reports)
            if report is not None and len(report.records) != meta.gop_count
        ]
        checks.append(
            InvariantCheck(
                "sessions_complete",
                ok=not incomplete and not failures,
                details=f"sessions with missing windows: {incomplete}" if incomplete else "",
            )
        )

        uncovered = []
        for index, report in enumerate(reports):
            if report is None:
                continue
            for record in report.records:
                for tile in sorted(record.visible_tiles):
                    if tile not in record.quality_map:
                        uncovered.append((index, record.window, tile))
        checks.append(
            InvariantCheck(
                "visible_tile_coverage",
                ok=not uncovered,
                details=(
                    f"visible tiles with no delivered rung: {uncovered[:10]}"
                    if uncovered
                    else ""
                ),
            )
        )

        upgrades = []
        for index, report in enumerate(reports):
            if report is None:
                continue
            for record in report.records:
                requested_map = record.requested_map or {}
                for tile, delivered in record.quality_map.items():
                    requested = requested_map.get(tile)
                    if requested is not None and delivered > requested:
                        upgrades.append((index, record.window, tile))
                for event in record.events:
                    if event.delivered is not None and event.delivered > event.requested:
                        upgrades.append((index, event.window, event.tile))
        checks.append(
            InvariantCheck(
                "no_silent_upgrade",
                ok=not upgrades,
                details=f"tiles above the requested rung: {upgrades[:10]}" if upgrades else "",
            )
        )

        stream_metrics = registry if registry is not None else db.metrics
        checks.append(self._check_qoe_floor(completed))
        if scenario.invariants.get("expect_degradations"):
            total = sum(report.degradation_count for report in completed)
            checks.append(
                InvariantCheck(
                    "expected_degradations",
                    ok=total >= 1,
                    details="" if total else "plan injected no effective degradation",
                )
            )
        max_degradations = scenario.invariants.get("max_degradations")
        if max_degradations is not None:
            total = sum(report.degradation_count for report in completed)
            checks.append(
                InvariantCheck(
                    "bounded_degradation",
                    ok=total <= int(max_degradations),
                    details=(
                        f"{total} degradation events > allowed {max_degradations}"
                        if total > int(max_degradations)
                        else ""
                    ),
                )
            )
        checks.append(self._check_cache_consistency(db))
        checks.append(self._check_metrics_agree(stream_metrics, completed))
        checks.extend(extra_checks)

        events = []
        for index, report in enumerate(reports):
            if report is None:
                continue
            for event in report.degradation_events:
                events.append({"session": index, **event.to_json()})
        session_summaries = [
            {"session": index, **report.summary()}
            for index, report in enumerate(reports)
            if report is not None
        ]
        metrics = {
            "faults_injected": dict(sorted(scenario.plan.injected.items())),
            "storage_calls": scenario.plan.calls("storage"),
            "cache_calls": scenario.plan.calls("cache"),
            "retries": stream_metrics.counter("stream.retries").total(),
            "degradations": stream_metrics.counter("stream.degradations").total(),
            "tiles_skipped": stream_metrics.counter("stream.tiles_skipped").total(),
        }
        if extra_metrics:
            metrics.update(extra_metrics)
        return InvariantReport(
            scenario=scenario.name,
            seed=scenario.seed,
            checks=checks,
            events=events,
            sessions=session_summaries,
            metrics=metrics,
        )

    def _check_qoe_floor(self, reports) -> InvariantCheck:
        limits = self.scenario.invariants
        problems = []
        max_stall = limits.get("max_stall_seconds")
        min_visible = limits.get("min_visible_fraction")
        for index, report in enumerate(reports):
            if max_stall is not None and report.stall_time > float(max_stall):
                problems.append(
                    f"session {index} stalled {report.stall_time:.3f}s > {max_stall}"
                )
            if min_visible is not None:
                visible = delivered = 0
                for record in report.records:
                    visible += len(record.visible_tiles)
                    delivered += sum(
                        1 for tile in record.visible_tiles if tile in record.quality_map
                    )
                fraction = delivered / visible if visible else 1.0
                if fraction < float(min_visible):
                    problems.append(
                        f"session {index} delivered {fraction:.3f} of visible "
                        f"tile-windows < {min_visible}"
                    )
        return InvariantCheck("qoe_floor", ok=not problems, details="; ".join(problems))

    def _check_cache_consistency(self, db) -> InvariantCheck:
        cache = db.storage.segment_cache
        if cache is None:
            return InvariantCheck("cache_disk_consistency", ok=True, details="cache disabled")
        stale = []
        for key, payload in cache.items():
            if not (isinstance(key, tuple) and len(key) == 5):
                continue
            name, gop, tile, quality, file_version = key
            path = db.storage.catalog.segment_path(name, gop, tile, quality, file_version)
            if not path.exists() or path.read_bytes() != payload:
                stale.append((name, gop, tile, quality.label))
        return InvariantCheck(
            "cache_disk_consistency",
            ok=not stale,
            details=f"cached bytes diverge from disk: {stale[:10]}" if stale else "",
        )

    def _check_metrics_agree(self, registry, reports) -> InvariantCheck:
        event_degrades = sum(
            1
            for report in reports
            for event in report.degradation_events
            if event.kind == "degrade"
        )
        event_skips = sum(
            1
            for report in reports
            for event in report.degradation_events
            if event.kind == "skip"
        )
        counted_degrades = registry.counter("stream.degradations").total()
        counted_skips = registry.counter("stream.tiles_skipped").total()
        problems = []
        if counted_degrades != event_degrades:
            problems.append(
                f"stream.degradations={counted_degrades} but {event_degrades} degrade events"
            )
        if counted_skips != event_skips:
            problems.append(
                f"stream.tiles_skipped={counted_skips} but {event_skips} skip events"
            )
        return InvariantCheck(
            "metrics_events_agree", ok=not problems, details="; ".join(problems)
        )
