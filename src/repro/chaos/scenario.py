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

Every mode runs the same ingest → drive → judge path; ``sessions.mode``
only picks the *target* the one :class:`~repro.core.streamer.Streamer`
reads from. ``"single"`` and ``"shared"`` read a fault-injecting view of
the local store. ``"wire"`` reads over real sockets: one or more
:class:`~repro.serve.server.SegmentServer` replicas behind
:class:`~repro.chaos.proxy.ChaosProxy` instances (replica 0 gets the
fault plan; siblings relay cleanly), through a
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
segments in their packs before serving — the read-repair scenario. Those
runs add:

* ``repair_restores_ingest_bytes`` — every rotted range the serve tier
  rewrote is byte-identical to the originally ingested segment (a wrong
  repair is strictly worse than no repair);
* ``expected_repairs`` (via ``invariants.min_repairs``) — anti-vacuous
  guard that checksum-triggered peer read-repair actually fired.

A plan that cannot be judged — an unknown key, mode or policy, or an
invariant its mode never evaluates — is a ``ValueError`` at load time.
"""

from __future__ import annotations

import json
import os
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.chaos.corrupt import bit_flip
from repro.chaos.faults import WIRE_KINDS, FaultPlan
from repro.chaos.proxy import ChaosProxy
from repro.chaos.wrappers import ChaosSegmentCache, ChaosStorageManager
from repro.control import ControlConfig, Controller, NodeState, Planner
from repro.core.errors import VisualCloudError
from repro.core.resilience import RetryPolicy
from repro.core.server import VisualCloud
from repro.core.storage import IngestConfig, StorageManager
from repro.core.streamer import SessionConfig, Streamer
from repro.geometry.grid import TileGrid
from repro.obs import MetricsRegistry
from repro.serve.client import RemoteStorage
from repro.serve.failover import (
    LEGAL_TRANSITIONS,
    FailoverConfig,
    FailoverSegmentClient,
)
from repro.serve.placement import ShardMap, materialize_shards
from repro.serve.server import ServerConfig, start_server
from repro.stream.abr import POLICIES
from repro.stream.network import ConstantBandwidth, SimulatedLink
from repro.video.quality import Quality
from repro.workloads.users import ViewerPopulation
from repro.workloads.videos import synthetic_video

MODES = ("single", "shared", "wire")
#: The clip's frame rate, which ingest and synthesis must agree on.
_FPS = 4.0

#: The plan's dict sections and every key each may set. Anything else is a
#: typo that would silently drop a knob or an invariant: ``from_json`` rejects it.
#: A knob every plan set to one value is not a key: the runner states it once,
#: below (the clip's shape, ``SessionConfig``'s predictor, the
#: shard map's replication factor, the controller's and client's settings).
_KEYS = {
    "video": "profile qualities",
    "sessions": "count mode bandwidth policy "  # the rest: wire only
    "replicas shards materialize corrupt_at_rest controller",
    "retry": "attempts",
    "invariants": "max_stall_seconds min_visible_fraction expect_degradations "
    "max_degradations expect_wire_faults min_repairs",
}


@dataclass
class Scenario:
    """One replayable chaos experiment, loadable from JSON."""

    name: str
    plan: FaultPlan
    seed: int = 0
    #: Synthetic source video parameters (see workloads.videos).
    video: dict = field(default_factory=dict)
    #: Session shape: count, mode ("single" | "shared" | "wire"), bandwidth, ...
    sessions: dict = field(default_factory=dict)
    #: RetryPolicy override: attempts.
    retry: dict = field(default_factory=dict)
    #: Invariant thresholds: max_stall_seconds, min_visible_fraction,
    #: expect_degradations, ...
    invariants: dict = field(default_factory=dict)

    @classmethod
    def from_json(cls, data: dict, seed: int | None = None) -> "Scenario":
        effective_seed = data.get("seed", 0) if seed is None else seed
        scenario = cls(
            name=data.get("name", "scenario"),
            seed=effective_seed,
            plan=FaultPlan.from_json(data.get("plan", {}), seed=effective_seed),
            **{section: dict(data.get(section, {})) for section in _KEYS},
        )
        scenario._reject_unjudgeable()
        return scenario

    @classmethod
    def load(cls, path: Path | str, seed: int | None = None) -> "Scenario":
        return cls.from_json(
            json.loads(Path(path).read_text(encoding="utf-8")), seed=seed
        )

    def _reject_unjudgeable(self) -> None:
        """A plan the runner cannot judge is an error, not a pass."""
        problems = []
        for section, allowed in _KEYS.items():
            unknown = sorted(set(getattr(self, section)) - set(allowed.split()))
            if unknown:
                problems.append(f"unknown {section} key(s) {unknown}")
        sessions, invariants = self.sessions, self.invariants
        if self.mode not in MODES:
            problems.append(f"unknown mode {self.mode!r} (one of {MODES})")
        if sessions.get("policy", "predictive") not in POLICIES:
            problems.append(
                f"unknown policy {sessions['policy']!r} (one of {sorted(POLICIES)})"
            )
        if invariants.get("expect_wire_faults") and self.mode != "wire":
            problems.append('expect_wire_faults is only evaluated in mode "wire"')
        repairs = self.mode == "wire" and all(
            sessions.get(key) for key in ("shards", "materialize", "corrupt_at_rest")
        )
        if invariants.get("min_repairs") is not None and not repairs:
            problems.append(
                "min_repairs is only evaluated by a sharded wire run with "
                "materialize and corrupt_at_rest"
            )
        if problems:
            raise ValueError(f"scenario {self.name!r}: " + "; ".join(problems))

    # -- resolved knobs -------------------------------------------------------

    @property
    def mode(self) -> str:
        return self.sessions.get("mode", "single")

    def ingest_config(self) -> IngestConfig:
        qualities = tuple(
            Quality.from_label(label)
            for label in self.video.get("qualities", ["high", "low"])
        )
        return IngestConfig(
            grid=TileGrid(2, 2), qualities=qualities, gop_frames=4, fps=_FPS
        )

    def frames(self):
        """A 2-s 64x32 clip: two 4-frame GOPs on a 2x2 grid."""
        return synthetic_video(
            self.video.get("profile", "venice"),
            width=64,
            height=32,
            fps=_FPS,
            duration=2.0,
            seed=self.seed,
        )

    def retry_policy(self) -> RetryPolicy:
        return RetryPolicy(attempts=int(self.retry.get("attempts", 3)))

    def bandwidth(self):
        """The link's rate model, with the plan's blackout windows applied."""
        rate = float(self.sessions.get("bandwidth", 50_000.0))
        return self.plan.apply_to_bandwidth(ConstantBandwidth(rate))

    def session_config(self) -> SessionConfig:
        """One viewer's session knobs — the same in every mode; the
        predictor is ``SessionConfig``'s."""
        return SessionConfig(
            policy=POLICIES[self.sessions.get("policy", "predictive")](),
            bandwidth=self.bandwidth(),
            retry=self.retry_policy(),
        )


@dataclass
class InvariantCheck:
    """One invariant's verdict."""

    name: str
    ok: bool
    details: str = ""


def on_disk(storage, cache_key: tuple) -> bytes | None:
    """What ``storage``'s disk holds under one buffer-pool key ``(name,
    gop, tile, quality, file_version)``: the pack range of a committed
    entry with that key, or None when no such entry or pack exists."""
    name, gop, tile, quality, file_version = cache_key
    for version in reversed(storage.catalog.versions(name)):
        entry = storage.meta(name, version).entries.get((gop, tile, quality))
        if entry is not None and entry.file_version == file_version:
            try:
                return storage.read_range(name, gop, entry)
            except OSError:
                return None
    return None


def _check(name: str, violations, details: str) -> InvariantCheck:
    """The verdict on ``name``: it holds iff ``violations`` is falsy, and
    only a violated check carries ``details``."""
    return InvariantCheck(name, ok=not violations, details=details if violations else "")


def _total(registry, name: str) -> float:
    return registry.counter(name).total()


def _describe(failures) -> str:
    return "; ".join(
        f"session {index}: {type(error).__name__}: {error}"
        for index, error in failures
    )


def _records(reports):
    """``(session index, window record)`` over the sessions that finished."""
    for index, report in enumerate(reports):
        if report is not None:
            for record in report.records:
                yield index, record


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
        return {**asdict(self), "ok": self.ok}

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
        """Ingest → drive → judge; the mode only picks the target."""
        scenario = self.scenario
        db = VisualCloud(root / "db")
        # Serial ingest: one fewer moving part to replay.
        db.ingest(
            self.VIDEO_NAME, scenario.frames(), scenario.ingest_config(), workers=1
        )
        meta = db.meta(self.VIDEO_NAME)

        scenario.plan.reset()
        target = self._tier(db) if scenario.mode == "wire" else self._local(db)
        with target as (storage, registry, after_session, extras):
            streamer = Streamer(storage, db.prediction, registry=registry)
            reports, failures = self._drive(streamer, meta, after_session)
            return self._judge(db, meta, reports, failures, registry, *extras(failures))

    def _drive(self, streamer, meta, after_session):
        """Run every session; an escaping exception is recorded, not raised.

        Sessions run one after another (``after_session`` between them)
        so the order of fault decisions — and with it the whole report —
        is deterministic per seed; ``mode == "shared"`` instead
        interleaves them all on one link.
        """
        scenario = self.scenario
        count = int(scenario.sessions.get("count", 2))
        traces = ViewerPopulation(seed=scenario.seed).traces(
            count, duration=meta.duration, rate=10.0
        )
        reports: list = [None] * count
        failures: list[tuple[int, Exception]] = []
        if scenario.mode == "shared":
            specs = [
                (self.VIDEO_NAME, trace, scenario.session_config()) for trace in traces
            ]
            try:
                reports = streamer.serve_all(specs, SimulatedLink(scenario.bandwidth()))
            except Exception as error:  # noqa: BLE001 — escapes ARE the finding
                failures = [(viewer, error) for viewer in range(count)]
            return reports, failures
        for viewer, trace in enumerate(traces):
            try:
                reports[viewer] = streamer.serve(
                    self.VIDEO_NAME, trace, scenario.session_config()
                )
            except Exception as error:  # noqa: BLE001 — escapes ARE the finding
                failures.append((viewer, error))
            after_session()
        return reports, failures

    # -- targets: (storage, registry, after_session, extras) -------------------

    @contextmanager
    def _local(self, db):
        """The local store behind the plan's storage (and cache) faults."""
        plan = self.scenario.plan
        cache = db.storage.segment_cache
        if cache is not None and any(rule.target == "cache" for rule in plan.rules):
            db.storage.segment_cache = ChaosSegmentCache(cache, plan)
        storage = ChaosStorageManager(db.storage, plan)
        yield storage, db.metrics, lambda: None, lambda failures: ([], {})

    @contextmanager
    def _tier(self, db):
        """Real sockets: servers behind chaos proxies, read through the
        failover client.

        All sessions share one client, and ``reset_timeout=0`` keeps
        breaker recovery schedule-driven rather than wall-clock-driven.
        """
        scenario = self.scenario
        sessions = scenario.sessions
        # Shard mode: the tier width is the shard count; each node is both
        # a ring owner and a client-facing replica. Nodes get *logical* ids
        # ("node-0", ...) so the consistent-hash placement — and with it
        # every routing decision — is identical across replays despite
        # ephemeral ports.
        shards = int(sessions.get("shards") or 0)
        width = shards or int(sessions.get("replicas", 1))
        node_ids = [f"node-{index}" for index in range(width)]
        shard_map = None
        if shards:
            shard_map = ShardMap(nodes=tuple(node_ids))
        storages = dict.fromkeys(node_ids, db.storage)
        corrupted: list[dict] = []
        if shards and sessions.get("materialize"):
            # Per-node shard roots: each server reads (and repairs) its own
            # disk, so an at-rest corruption on one node is invisible to its
            # peers — the precondition for exercising read-repair for real.
            base = Path(db.storage.catalog.root).parent
            roots = {node: base / f"shard-{node}" for node in node_ids}
            materialize_shards(db.storage, roots, shard_map)
            storages = {
                node: StorageManager(root, registry=db.metrics)
                for node, root in roots.items()
            }
            if sessions.get("corrupt_at_rest"):
                corrupted = self._corrupt_at_rest(
                    storages, shard_map, sessions["corrupt_at_rest"]
                )

        client_metrics = MetricsRegistry()
        with ExitStack() as stack:  # unwinds client → proxies → servers
            handles = [
                stack.enter_context(
                    start_server(
                        storages[node],
                        ServerConfig(node_id=node if shards else "", shard_map=shard_map),
                        registry=db.metrics,
                    )
                )
                for node in node_ids
            ]
            proxies = [
                stack.enter_context(
                    ChaosProxy(handle.address, plan=scenario.plan if index == 0 else None)
                )
                for index, handle in enumerate(handles)
            ]
            urls = [proxy.base_url for proxy in proxies]
            if shards:
                # Peer fetches go server-to-server directly (not through
                # the chaos proxies): the plan's fault surface stays the
                # client-facing wire, exactly as in unsharded runs.
                peers = {
                    node: handle.base_url for node, handle in zip(node_ids, handles)
                }
                for handle in handles:
                    handle.update_shard_map(shard_map, peers)
            controller = None
            if sessions.get("controller"):
                controller = self._controller(db, handles, node_ids if shards else [""])
            client = stack.enter_context(
                FailoverSegmentClient(
                    urls,
                    config=FailoverConfig(reset_timeout=0.0, request_timeout=2.0),
                    registry=client_metrics,
                    shard_map=shard_map,
                    node_urls=dict(zip(node_ids, urls)) if shards else None,
                )
            )

            def extras(failures):
                checks, metrics = self._judge_wire(client, failures)
                if corrupted:
                    repair_checks, metrics["repair"] = self._judge_repair(
                        db, storages, corrupted
                    )
                    checks += repair_checks
                if controller is not None:
                    # Only counter/plan-derived fields: no wall-clock values
                    # leak into the report, so double replays stay identical.
                    control, plan = controller.metrics, controller.plan
                    metrics["control"] = {
                        "steps": _total(control, "control.steps"),
                        "plans_applied": _total(control, "control.plans_applied"),
                        "plans_noop": _total(control, "control.plans_noop"),
                        "actuate_errors": _total(control, "control.actuate_errors"),
                        "final_version": 0 if plan is None else plan.version,
                        "nodes": [
                            {
                                key: value
                                for key, value in handle.control_state().items()
                                if key != "inflight"
                            }
                            for handle in handles
                        ],
                    }
                if shards:
                    metrics["shards"] = {
                        "nodes": len(node_ids),
                        "replication_factor": shard_map.replication_factor,
                        "map_version": shard_map.version,
                        "routed": _total(client_metrics, "failover.shard_routed"),
                        "unroutable": _total(client_metrics, "failover.shard_unroutable"),
                        "peer_fetches": _total(db.metrics, "serve.peer_fetches"),
                        "peer_cache_hits": _total(db.metrics, "serve.peer_cache_hits"),
                        "peer_errors": _total(db.metrics, "serve.peer_errors"),
                    }
                return checks, metrics

            after_session = controller.step if controller is not None else lambda: None
            storage = RemoteStorage(client, registry=client_metrics)
            yield storage, client_metrics, after_session, extras

    def _controller(self, db, handles, control_node_ids) -> Controller:
        """A deterministic control plane: stepped synchronously between
        sessions (no wall-clock thread) with ``deterministic=True`` (no
        latency reads), so demand — and with it every plan — is a pure
        function of the replayed request sequence and the whole report
        stays byte-identical per seed."""
        nodes = tuple(
            NodeState(node_id=node_id, pin_budget_bytes=1 << 20, max_inflight=None)
            for node_id in control_node_ids
        )
        return Controller(
            ControlConfig(planner=Planner(prewarm_threshold=0.5), deterministic=True),
            registry=db.metrics,
            storage=db.storage,
            nodes=nodes,
            servers=handles,
        )

    def _corrupt_at_rest(self, node_storages, shard_map, spec) -> list[dict]:
        """Bit-rot one node's segments on disk before serving.

        ``spec``: ``{"node": "node-0"}`` (default: the first node). Every
        segment the node owns of its committed index is damaged in its
        pack range. The flip is deterministic (mid-range, bit 3), so double
        replays rot identical bytes. Each pack is rewritten once, through a
        temp file + ``os.replace``, so a hard link shared with the
        canonical store (or a peer) is broken, not poisoned.
        """
        node = spec.get("node") or next(iter(node_storages))
        records: list[dict] = []
        packs = node_storages[node].segment_files(self.VIDEO_NAME)
        for path, segments in sorted(packs.items()):
            owned = [
                (key, entry)
                for key, entry in sorted(segments.items(), key=lambda item: item[1].offset)
                if shard_map.owns(node, self.VIDEO_NAME, key)
            ]
            if not owned:
                continue  # every segment in it is another node's
            pack = bytearray(path.read_bytes())
            for key, entry in owned:
                end = entry.offset + entry.size
                original = bytes(pack[entry.offset : end])
                damaged = bit_flip(original, len(original) // 2, bit=3)
                pack[entry.offset : end] = damaged
                records.append(
                    {
                        "node": node,
                        "gop": key.window,
                        "entry": entry,
                        "original": original,
                        "damaged": damaged,
                    }
                )
            rotted = path.with_name(path.name + ".rot")
            rotted.write_bytes(pack)
            os.replace(rotted, path)
        return records

    # -- judging --------------------------------------------------------------

    def _judge_repair(self, db, node_storages, corrupted):
        """The read-repair invariants plus deterministic repair metrics."""
        restored = untouched = 0
        wrong: list[str] = []
        for record in corrupted:
            storage, entry = node_storages[record["node"]], record["entry"]
            current = storage.read_range(self.VIDEO_NAME, record["gop"], entry)
            if current == record["original"]:
                restored += 1
            elif current == record["damaged"]:
                untouched += 1  # never read, so never repaired — not a failure
            else:
                wrong.append(f"g{record['gop']}@{entry.offset}")
        checks = [
            _check(
                "repair_restores_ingest_bytes",
                wrong,
                f"repaired ranges differ from ingest bytes: {wrong[:10]}",
            )
        ]
        success = _total(db.metrics, "storage.repair_success")
        min_repairs = self.scenario.invariants.get("min_repairs")
        if min_repairs is not None:
            checks.append(
                _check(
                    "expected_repairs",
                    success < int(min_repairs) or restored < 1,
                    f"storage.repair_success={success} < min_repairs={min_repairs} "
                    f"(files restored on disk: {restored})",
                )
            )
        metrics = {
            "files_corrupted": len(corrupted),
            "files_restored": restored,
            "files_untouched": untouched,
            "attempts": _total(db.metrics, "storage.repair_attempts"),
            "success": success,
            "failed": _total(db.metrics, "storage.repair_failed"),
            "bytes": _total(db.metrics, "storage.repair_bytes"),
        }
        return checks, metrics

    def _judge_wire(self, client, failures):
        """The wire-only invariants plus deterministic failover metrics.

        Replica URLs carry ephemeral ports, so the report keys breakers
        by index — two replays of the same seed must produce identical
        bytes.
        """
        scenario = self.scenario
        raw = [
            (index, error)
            for index, error in failures
            if not isinstance(error, VisualCloudError)
        ]
        checks = [_check("no_raw_transport_errors", raw, _describe(raw))]
        trails: dict[str, list] = {}
        illegal = []
        for index, replica in enumerate(client.replicas.replicas):
            edges = list(replica.breaker.transitions)
            trails[f"replica-{index}"] = [list(edge) for edge in edges]
            illegal.extend(
                (index, edge) for edge in edges if edge not in LEGAL_TRANSITIONS
            )
        checks.append(
            _check("circuit_monotone", illegal, f"illegal breaker edges: {illegal[:10]}")
        )
        if scenario.invariants.get("expect_wire_faults"):
            injected = sum(scenario.plan.injected.get(kind, 0) for kind in WIRE_KINDS)
            checks.append(
                _check("expected_wire_faults", injected < 1, "the proxy injected nothing")
            )
        metrics = {
            "wire_calls": scenario.plan.calls("wire"),
            "breaker_transitions": trails,
            "failover": {
                "requests": _total(client.metrics, "failover.requests"),
                "failovers": _total(client.metrics, "failover.failovers"),
                "budget_exhausted": _total(client.metrics, "failover.budget_exhausted"),
                "budget_spent": client.budget.spent,
                "budget_denied": client.budget.denied,
            },
        }
        return checks, metrics

    def _judge(
        self, db, meta, reports, failures, registry, extra_checks, extra_metrics
    ) -> InvariantReport:
        """``registry`` is where the streamer counted: the database's for
        a local target, the client's for a wire one."""
        scenario = self.scenario
        completed = [report for report in reports if report is not None]
        checks = [_check("no_uncaught_exceptions", failures, _describe(failures))]

        incomplete = [
            index
            for index, report in enumerate(reports)
            if report is not None and len(report.records) != meta.gop_count
        ]
        checks.append(
            _check(
                "sessions_complete",
                incomplete or failures,
                f"sessions with missing windows: {incomplete}" if incomplete else "",
            )
        )

        uncovered = [
            (index, record.window, tile)
            for index, record in _records(reports)
            for tile in sorted(record.visible_tiles)
            if tile not in record.quality_map
        ]
        checks.append(
            _check(
                "visible_tile_coverage",
                uncovered,
                f"visible tiles with no delivered rung: {uncovered[:10]}",
            )
        )

        upgrades = []
        for index, record in _records(reports):
            requested_map = record.requested_map or {}
            for tile, delivered in record.quality_map.items():
                requested = requested_map.get(tile)
                if requested is not None and delivered > requested:
                    upgrades.append((index, record.window, tile))
            for event in record.events:
                if event.delivered is not None and event.delivered > event.requested:
                    upgrades.append((index, event.window, event.tile))
        checks.append(
            _check(
                "no_silent_upgrade",
                upgrades,
                f"tiles above the requested rung: {upgrades[:10]}",
            )
        )

        checks.append(self._check_qoe_floor(completed))
        degradations = sum(report.degradation_count for report in completed)
        if scenario.invariants.get("expect_degradations"):
            checks.append(
                _check(
                    "expected_degradations",
                    degradations < 1,
                    "plan injected no effective degradation",
                )
            )
        max_degradations = scenario.invariants.get("max_degradations")
        if max_degradations is not None:
            checks.append(
                _check(
                    "bounded_degradation",
                    degradations > int(max_degradations),
                    f"{degradations} degradation events > allowed {max_degradations}",
                )
            )
        checks.append(self._check_cache_consistency(db))
        checks.append(self._check_metrics_agree(registry, completed))
        checks.extend(extra_checks)

        events = [
            {"session": index, **event.to_json()}
            for index, report in enumerate(reports)
            if report is not None
            for event in report.degradation_events
        ]
        session_summaries = [
            {"session": index, **report.summary()}
            for index, report in enumerate(reports)
            if report is not None
        ]
        metrics = {
            "faults_injected": dict(sorted(scenario.plan.injected.items())),
            "storage_calls": scenario.plan.calls("storage"),
            "cache_calls": scenario.plan.calls("cache"),
            "retries": _total(registry, "stream.retries"),
            "degradations": _total(registry, "stream.degradations"),
            "tiles_skipped": _total(registry, "stream.tiles_skipped"),
            **extra_metrics,
        }
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
                delivered = [
                    tile in record.quality_map
                    for record in report.records
                    for tile in record.visible_tiles
                ]
                fraction = sum(delivered) / len(delivered) if delivered else 1.0
                if fraction < float(min_visible):
                    problems.append(
                        f"session {index} delivered {fraction:.3f} of visible "
                        f"tile-windows < {min_visible}"
                    )
        return _check("qoe_floor", problems, "; ".join(problems))

    def _check_cache_consistency(self, db) -> InvariantCheck:
        cache = db.storage.segment_cache
        if cache is None:
            return InvariantCheck("cache_disk_consistency", ok=True, details="cache disabled")
        stale = []
        for key, payload in cache.items():
            if not (isinstance(key, tuple) and len(key) == 5):
                continue
            if on_disk(db.storage, key) != payload:
                name, gop, tile, quality, _ = key
                stale.append((name, gop, tile, quality.label))
        return _check(
            "cache_disk_consistency",
            stale,
            f"cached bytes diverge from disk: {stale[:10]}",
        )

    def _check_metrics_agree(self, registry, reports) -> InvariantCheck:
        kinds = [
            event.kind for report in reports for event in report.degradation_events
        ]
        problems = []
        for counter, kind in (
            ("stream.degradations", "degrade"),
            ("stream.tiles_skipped", "skip"),
        ):
            counted, seen = _total(registry, counter), kinds.count(kind)
            if counted != seen:
                problems.append(f"{counter}={counted} but {seen} {kind} events")
        return _check("metrics_events_agree", problems, "; ".join(problems))
