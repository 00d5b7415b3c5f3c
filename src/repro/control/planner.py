"""Planning: versioned cluster plans, computed purely from forecasts.

The planner is the declarative middle of the control loop: it never
looks at a clock, a socket, or a registry. :meth:`Planner.plan` is a
pure function of ``(forecasts, catalog, node states, observed p99,
previous plan)`` — feed it the same inputs and it emits the same
:class:`ControlPlan`, byte for byte. That purity is load-bearing twice
over: it is what the property tests pin, and it is what lets the chaos
harness run the whole controller deterministically (inject a scripted
metrics stream, get identical plans on every replay).

Two decisions per node:

* **What to pre-warm.** Videos whose *predicted* demand crosses
  ``prewarm_threshold`` contribute their segments, each ranked by
  ``predicted demand x popularity weight`` — the same heat number the
  hot set's eviction uses (see :meth:`repro.serve.hotset.HotSet.heat`),
  so the planner and the evictor can never disagree about ordering.
  Segments fill the node's pin budget greedily, hottest first.
* **How hard to admit.** Target ``max_inflight`` moves AIMD-style
  against the p99 SLO: multiplicative decrease when observed p99
  breaches it, additive increase when there is comfortable headroom,
  no change in between — and *no change* when p99 is NaN (no samples,
  or a deterministic run that strips histograms), which is what keeps
  replayed plans identical.

Plans are versioned and monotonic, reusing the shard-map rollback
refusal: an actuator hands a plan to a server, the server compares
versions, and a stale plan is refused with an error rather than applied
— a replayed or delayed plan can never roll the cluster backwards.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from repro.control.forecast import Forecast


@dataclass(frozen=True)
class NodeState:
    """What the planner knows about one serving node: identity, budget,
    configured admission ceiling, and (optionally) which request paths
    it owns under the active shard map (``None`` = owns everything)."""

    node_id: str
    pin_budget_bytes: int = 0
    max_inflight: int | None = None
    owned: tuple[str, ...] | None = None


def _is_int(value) -> bool:
    """A real integer: ``True`` is not a count."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class NodePlan:
    """One node's slice of a :class:`ControlPlan`."""

    node_id: str
    max_inflight: int | None
    pin_budget_bytes: int
    # (request path, integer heat) hottest-first; heat feeds
    # ``HotSet.set_base_heat`` so prewarmed pins outrank cold traffic.
    prewarm: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        # A plan arrives over the wire and a node applies what it holds,
        # so the slice keeps ``ServerConfig``'s rules for the same knobs.
        ceiling, budget = self.max_inflight, self.pin_budget_bytes
        if ceiling is not None and (not _is_int(ceiling) or ceiling < 1):
            raise ValueError(f"max_inflight must be None or an int >= 1, got {ceiling!r}")
        if not _is_int(budget) or budget < 0:
            raise ValueError(f"pin_budget_bytes must be an int >= 0, got {budget!r}")
        for path, heat in self.prewarm:
            if not isinstance(path, str) or not _is_int(heat):
                raise ValueError(f"prewarm entries are (str, int), got {(path, heat)!r}")

    def to_json(self) -> dict:
        return {
            "node_id": self.node_id,
            "max_inflight": self.max_inflight,
            "pin_budget_bytes": self.pin_budget_bytes,
            "prewarm": [[path, heat] for path, heat in self.prewarm],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "NodePlan":
        # Unknown keys are ignored.
        return cls(
            node_id=payload["node_id"],
            max_inflight=payload["max_inflight"],
            pin_budget_bytes=int(payload["pin_budget_bytes"]),
            prewarm=tuple(
                (str(path), int(heat)) for path, heat in payload.get("prewarm", [])
            ),
        )


@dataclass(frozen=True)
class ControlPlan:
    """A versioned, immutable cluster directive.

    Versions are monotonic per control loop; actuators refuse older
    versions exactly as :meth:`SegmentServer.update_shard_map` refuses
    stale shard maps. ``to_json``/``from_json`` round-trip exactly —
    ``canonical()`` is the byte form the chaos replay diffs.
    """

    version: int
    nodes: tuple[NodePlan, ...] = ()

    def __post_init__(self) -> None:
        if self.version < 0:
            raise ValueError(f"plan version must be >= 0, got {self.version}")
        ids = [node.node_id for node in self.nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids in plan: {ids!r}")

    def node(self, node_id: str) -> NodePlan | None:
        """The slice for ``node_id``; a single-node plan keyed ``""``
        applies to any node (the unsharded deployment case)."""
        for node in self.nodes:
            if node.node_id == node_id:
                return node
        if len(self.nodes) == 1 and self.nodes[0].node_id == "":
            return self.nodes[0]
        return None

    def to_json(self) -> dict:
        return {
            "version": self.version,
            "nodes": [node.to_json() for node in self.nodes],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "ControlPlan":
        if not isinstance(payload, dict):
            raise ValueError(
                f"a control plan is a JSON object, got {type(payload).__name__}"
            )
        return cls(
            version=int(payload["version"]),
            nodes=tuple(NodePlan.from_json(node) for node in payload.get("nodes", [])),
        )

    def canonical(self) -> str:
        """The canonical byte form: what replay determinism compares."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Planner:
    """Turns forecasts into a :class:`ControlPlan`. Pure: no clocks, no
    I/O, no hidden state beyond the previous plan passed in."""

    slo_p99: float = 0.25  # seconds; the admission loop's setpoint
    slo_headroom: float = 0.5  # p99 below slo*headroom → raise the ceiling
    prewarm_threshold: float = 1.0  # predicted requests/interval to warm a video
    heat_scale: float = 100.0  # demand x weight → integer heat units
    min_inflight: int = 4  # multiplicative decrease floor
    inflight_ceiling: int | None = None  # additive increase cap (None = config value)
    increase_step: int = 4  # additive increase per interval
    decrease_factor: float = 0.5  # multiplicative decrease on SLO breach
    fallback_inflight: int = 64  # imposed when breaching with no ceiling at all

    def __post_init__(self) -> None:
        if self.slo_p99 <= 0:
            raise ValueError(f"slo_p99 must be positive, got {self.slo_p99}")
        if not 0.0 < self.slo_headroom <= 1.0:
            raise ValueError(f"slo_headroom must be in (0, 1], got {self.slo_headroom}")
        if not 0.0 < self.decrease_factor < 1.0:
            raise ValueError(
                f"decrease_factor must be in (0, 1), got {self.decrease_factor}"
            )
        if self.min_inflight < 1:
            raise ValueError(f"min_inflight must be >= 1, got {self.min_inflight}")
        if self.increase_step < 1:
            raise ValueError(f"increase_step must be >= 1, got {self.increase_step}")

    # -- the plan function ----------------------------------------------------

    def plan(
        self,
        forecasts: dict[str, Forecast],
        catalog: dict[str, tuple[tuple[str, float, int], ...]],
        nodes: tuple[NodeState, ...],
        observed_p99: float = math.nan,
        previous: "ControlPlan | None" = None,
    ) -> ControlPlan:
        """The next plan.

        ``forecasts`` is per-video predicted demand (requests per
        interval); ``catalog`` maps each video to its segments as
        ``(request path, popularity weight, size bytes)`` tuples;
        ``observed_p99`` is the segment-endpoint p99 in seconds (NaN =
        no signal, admission stays put). The returned plan's version is
        ``previous.version + 1`` (or 1), regardless of whether anything
        changed — idempotence is the caller's concern, monotonicity is
        ours.
        """
        ranked = self._rank_segments(forecasts, catalog)
        node_plans = []
        for state in sorted(nodes, key=lambda s: s.node_id):
            previous_node = previous.node(state.node_id) if previous else None
            node_plans.append(
                NodePlan(
                    node_id=state.node_id,
                    max_inflight=self._target_inflight(
                        state, previous_node, observed_p99
                    ),
                    pin_budget_bytes=state.pin_budget_bytes,
                    prewarm=self._fill_budget(ranked, state),
                )
            )
        version = previous.version + 1 if previous is not None else 1
        return ControlPlan(version=version, nodes=tuple(node_plans))

    # -- pre-warm selection ---------------------------------------------------

    def _rank_segments(
        self,
        forecasts: dict[str, Forecast],
        catalog: dict[str, tuple[tuple[str, float, int], ...]],
    ) -> tuple[tuple[str, int, int], ...]:
        """Every warm-worthy segment as ``(path, heat, size)``, hottest
        first, ties broken by path — one global ordering shared by every
        node's budget fill."""
        ranked: list[tuple[str, int, int]] = []
        for video in sorted(catalog):
            forecast = forecasts.get(video)
            if forecast is None or forecast.predicted < self.prewarm_threshold:
                continue
            for path, weight, size in catalog[video]:
                heat = int(round(forecast.predicted * weight * self.heat_scale))
                if heat > 0:
                    ranked.append((path, heat, int(size)))
        ranked.sort(key=lambda item: (-item[1], item[0]))
        return tuple(ranked)

    @staticmethod
    def _fill_budget(
        ranked: tuple[tuple[str, int, int], ...], state: NodeState
    ) -> tuple[tuple[str, int], ...]:
        if state.pin_budget_bytes <= 0:
            return ()
        owned = None if state.owned is None else set(state.owned)
        chosen: list[tuple[str, int]] = []
        used = 0
        for path, heat, size in ranked:
            if owned is not None and path not in owned:
                continue
            if used + size > state.pin_budget_bytes:
                continue  # a smaller segment may still fit, as in prewarm_pins
            chosen.append((path, heat))
            used += size
        return tuple(chosen)

    # -- admission tuning -----------------------------------------------------

    def _target_inflight(
        self,
        state: NodeState,
        previous: NodePlan | None,
        observed_p99: float,
    ) -> int | None:
        current = previous.max_inflight if previous is not None else state.max_inflight
        if math.isnan(observed_p99):
            return current  # no signal (or deterministic mode): hold position
        if observed_p99 > self.slo_p99:
            if current is None:
                # An unbounded node breaching its SLO gets a ceiling
                # imposed; unbounded shedding-free overload is exactly
                # the failure mode the loop exists to prevent.
                return self.fallback_inflight
            return max(self.min_inflight, int(current * self.decrease_factor))
        if current is None:
            return None  # unbounded and inside SLO: nothing to relax
        if observed_p99 < self.slo_p99 * self.slo_headroom:
            ceiling = (
                self.inflight_ceiling
                if self.inflight_ceiling is not None
                else max(current, state.max_inflight or current)
            )
            return min(ceiling, current + self.increase_step)
        return current


def diff_plans(before: ControlPlan | None, after: ControlPlan) -> bool:
    """Whether ``after`` changes anything besides its version — the
    controller's idempotence check before waking the actuators."""
    if before is None:
        return True
    return replace(before, version=0) != replace(after, version=0)


__all__ = [
    "ControlPlan",
    "NodePlan",
    "NodeState",
    "Planner",
    "diff_plans",
]
