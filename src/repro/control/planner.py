"""Planning: versioned cluster plans, computed purely from forecasts.

The planner is the declarative middle of the control loop: it never
looks at a clock, a socket, or a registry. :meth:`Planner.plan` is a
pure function of ``(forecasts, catalog, node states, observed p99,
previous plan)`` — feed it the same inputs and it emits the same
:class:`ControlPlan`, byte for byte. That purity is load-bearing twice
over: it is what the property tests pin, and it is what lets the chaos
harness run the whole controller deterministically (replay the same
request sequence, get identical plans).

Two decisions per node:

* **What to pre-warm.** Videos whose *predicted* demand crosses
  ``prewarm_threshold`` contribute their segments, each ranked by
  ``predicted demand x popularity weight`` — the same heat number the
  hot set's eviction uses (see :meth:`repro.serve.hotset.HotSet.heat`),
  so the planner and the evictor can never disagree about ordering.
  Segments fill the node's pin budget greedily, hottest first.
  :func:`warm_slice` is the same ranking at demand 1.0 per video: how a
  server warms ``ServerConfig.prewarm`` at startup and how ``repro
  control --prewarm`` builds its slice.
* **How hard to admit.** Target ``max_inflight`` moves AIMD-style
  against the p99 SLO: multiplicative decrease when observed p99
  breaches it, additive increase when there is comfortable headroom,
  no change in between — and *no change* when p99 is NaN (no samples,
  or a deterministic run that strips histograms), which is what keeps
  replayed plans identical.

Plans are versioned and monotonic, reusing the shard-map rollback
refusal: the controller hands a plan to a server, the server compares
versions, and a stale plan is refused with :class:`StalePlanError`
rather than applied — a replayed or delayed plan can never roll the
cluster backwards.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.control.forecast import Forecast


class StalePlanError(ValueError):
    """The node refused the plan: it already holds a newer version. A
    server raises it in-process and answers 409 with it over the wire;
    either way a newer controller is in charge, by design."""


@dataclass(frozen=True)
class NodeState:
    """What the planner knows about one serving node: identity, budget,
    and configured admission ceiling."""

    node_id: str
    pin_budget_bytes: int = 0
    max_inflight: int | None = None


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

    Versions are monotonic per control loop; servers refuse older
    versions exactly as :meth:`SegmentServer.update_shard_map` refuses
    stale shard maps. ``to_json``/``from_json`` round-trip exactly; that
    JSON is the body ``POST /control/plan`` carries.
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


#: The admission loop's setpoint: segment-endpoint p99, in seconds.
SLO_P99 = 0.25
#: p99 below ``SLO_P99 * SLO_HEADROOM`` raises the ceiling.
SLO_HEADROOM = 0.5
#: ``demand x weight`` → integer heat units (``HotSet.set_base_heat``).
HEAT_SCALE = 100.0
#: Multiplicative decrease never takes a ceiling below this.
MIN_INFLIGHT = 4
#: Additive increase per interval.
INCREASE_STEP = 4
#: Multiplicative decrease on an SLO breach.
DECREASE_FACTOR = 0.5
#: Additive increase stops here (a node configured above it is not lowered).
INFLIGHT_CEILING = 64
#: Imposed on an unbounded node that breaches the SLO.
FALLBACK_INFLIGHT = 8


def default_segment_weights(manifest) -> dict:
    """Ladder-rank weights when no viewer traces exist yet: every tile
    equally popular, better rungs ahead of the floor."""
    ladder = {quality: rank for rank, quality in enumerate(manifest.qualities)}
    rungs = max(1, len(manifest.qualities))
    return {
        key: 1.0 - ladder.get(key.quality, rungs - 1) / (2.0 * rungs)
        for key in manifest.segment_sizes
    }


def video_catalog(name: str, manifest) -> tuple[tuple[str, float, int], ...]:
    """One video's planner catalog entry: its segments as ``(request
    path, weight, size bytes)``, weighted by
    :func:`default_segment_weights`, in path order."""
    weights = default_segment_weights(manifest)
    return tuple(
        sorted(
            (key.url(name), weights[key], int(size))
            for key, size in manifest.segment_sizes.items()
        )
    )


def _rank_segments(
    demand: dict[str, float],
    catalog: dict[str, tuple[tuple[str, float, int], ...]],
) -> tuple[tuple[str, int, int], ...]:
    """Every segment of every video in ``demand`` as ``(path, heat,
    size)``, hottest first, ties broken by path, with ``heat =
    round(demand x weight x HEAT_SCALE)``. ``demand`` is predicted
    requests per video; ``catalog`` is ``catalog_from_storage``'s shape."""
    ranked: list[tuple[str, int, int]] = []
    for video in sorted(catalog):
        if video not in demand:
            continue
        for path, weight, size in catalog[video]:
            heat = int(round(demand[video] * weight * HEAT_SCALE))
            if heat > 0:
                ranked.append((path, heat, int(size)))
    ranked.sort(key=lambda item: (-item[1], item[0]))
    return tuple(ranked)


def _fill_budget(
    ranked: tuple[tuple[str, int, int], ...], budget: int | None
) -> tuple[tuple[str, int], ...]:
    """The ``(path, heat)`` slice of ``ranked`` that fits ``budget``
    bytes (``None`` = all of it), greedily hottest first."""
    if budget is not None and budget <= 0:
        return ()
    chosen: list[tuple[str, int]] = []
    used = 0
    for path, heat, size in ranked:
        if budget is not None and used + size > budget:
            continue  # a smaller segment may still fit
        chosen.append((path, heat))
        used += size
    return tuple(chosen)


def warm_slice(manifests: dict, budget: int | None = None) -> tuple[tuple[str, int], ...]:
    """The ``(path, heat)`` slice that warms ``manifests`` (``{video:
    manifest}``) as :meth:`Planner.plan` would at a predicted demand of
    1.0 per video: the same ranking and heat scale, fitted to ``budget``
    bytes as a plan's node slice is. ``budget=None`` leaves the whole
    ranking for the receiving node's hot set to fit. A shard node passes
    manifests cut to the segments it owns."""
    catalog = {name: video_catalog(name, m) for name, m in manifests.items()}
    return _fill_budget(_rank_segments(dict.fromkeys(catalog, 1.0), catalog), budget)


@dataclass(frozen=True)
class Planner:
    """Turns forecasts into a :class:`ControlPlan`. Pure: no clocks, no
    I/O, no hidden state beyond the previous plan passed in."""

    prewarm_threshold: float = 1.0  # predicted requests/interval to warm a video

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
        ranked = _rank_segments(
            {
                video: forecast.predicted
                for video, forecast in forecasts.items()
                if forecast.predicted >= self.prewarm_threshold
            },
            catalog,
        )
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
                    prewarm=_fill_budget(ranked, state.pin_budget_bytes),
                )
            )
        version = previous.version + 1 if previous is not None else 1
        return ControlPlan(version=version, nodes=tuple(node_plans))

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
        if observed_p99 > SLO_P99:
            if current is None:
                # An unbounded node breaching its SLO gets a ceiling
                # imposed; unbounded shedding-free overload is exactly
                # the failure mode the loop exists to prevent.
                return FALLBACK_INFLIGHT
            return max(MIN_INFLIGHT, int(current * DECREASE_FACTOR))
        if current is None:
            return None  # unbounded and inside SLO: nothing to relax
        if observed_p99 < SLO_P99 * SLO_HEADROOM:
            return max(current, min(INFLIGHT_CEILING, current + INCREASE_STEP))
        return current


def diff_plans(before: ControlPlan | None, after: ControlPlan) -> bool:
    """Whether ``after`` changes anything besides its version — the
    controller's idempotence check before applying a plan."""
    if before is None:
        return True
    return replace(before, version=0) != replace(after, version=0)


__all__ = [
    "ControlPlan",
    "NodePlan",
    "NodeState",
    "Planner",
    "StalePlanError",
    "default_segment_weights",
    "diff_plans",
    "video_catalog",
    "warm_slice",
]
