"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` is the single artifact a chaos run replays: a seed,
a list of :class:`FaultRule`\\ s over segment reads (and cache lookups),
and the link's blackout windows. Two runs of the same plan with the same
seed inject the *same* faults at the *same* points — determinism is what
turns chaos from flakiness into a regression suite.

Scheduling dimensions, combinable per rule:

* ``calls`` — explicit 1-based indices into the plan's global call
  counter (every matching read increments it);
* ``every`` — every Nth matching call;
* ``rate`` — per-call probability, drawn from a per-rule RNG seeded from
  ``(plan seed, rule index)``;
* ``media`` — only reads whose GOP starts inside ``[t0, t1)`` media
  seconds are eligible (the "blackout this scene" scheduler).

``burst`` makes a fired rule sticky: the next ``burst - 1`` reads of the
*same segment* also fault, which is what forces a bounded-retry policy
to actually exhaust and degrade rather than always healing on the first
retry.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

#: Fault kinds understood by the wrappers.
#: Storage-target kinds: ``missing`` (persistent index/file loss),
#: ``corrupt`` (persistent, detected at validation), ``slow`` (transient
#: latency beyond the read budget), ``flaky`` (transient I/O error).
#: Damage the repair path heals is real bytes, not an injected error: a
#: plan's ``sessions.corrupt_at_rest`` rots one node's stored pack ranges.
#: Cache-target kind: ``evict`` (the entry vanishes before lookup).
#: Wire-target kinds (injected by :class:`repro.chaos.proxy.ChaosProxy`
#: between client and server): ``refuse`` (the connection dies before
#: any response byte), ``reset`` (abrupt close mid-status-line),
#: ``truncate`` (headers plus a ``fraction`` of the body, then close),
#: ``trickle`` (slow-loris: the body dribbles one byte per ``delay``
#: seconds until the client gives up), ``delay`` (fixed added latency,
#: then a clean response).
WIRE_KINDS = ("refuse", "reset", "truncate", "trickle", "delay")
STORAGE_KINDS = ("missing", "corrupt", "slow", "flaky")
KINDS = STORAGE_KINDS + ("evict",) + WIRE_KINDS
TARGETS = ("storage", "cache", "wire")

#: Bound on the remembered injection log (the counters are always exact).
_LOG_LIMIT = 10_000


@dataclass(frozen=True)
class FaultRule:
    """One fault source: what to inject, where, and when."""

    kind: str
    target: str = "storage"
    rate: float = 0.0
    calls: tuple[int, ...] = ()
    every: int = 0
    burst: int = 1
    video: str | None = None
    gop: int | None = None
    tile: tuple[int, int] | None = None
    quality: str | None = None  # a Quality label
    media: tuple[float, float] | None = None
    delay: float = 0.0  # seconds; used by ``slow``, ``trickle``, ``delay``
    fraction: float = 0.5  # body fraction forwarded by ``truncate``

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; use one of {KINDS}")
        if self.target not in TARGETS:
            raise ValueError(f"unknown fault target {self.target!r}; use one of {TARGETS}")
        if self.kind == "evict" and self.target != "cache":
            raise ValueError("'evict' faults only make sense with target='cache'")
        if self.kind in STORAGE_KINDS and self.target not in ("storage",):
            raise ValueError(
                f"{self.kind!r} is a storage fault; it needs target='storage'"
            )
        if self.kind in WIRE_KINDS and self.target != "wire":
            raise ValueError(
                f"{self.kind!r} is a wire fault; it needs target='wire'"
            )
        if self.target == "wire" and self.kind not in WIRE_KINDS:
            raise ValueError(
                f"target='wire' only injects {WIRE_KINDS}, not {self.kind!r}"
            )
        if not 0.0 < self.fraction < 1.0 and self.kind == "truncate":
            raise ValueError(f"fraction must be in (0, 1), got {self.fraction}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"rate must be in [0, 1], got {self.rate}")
        if self.every < 0:
            raise ValueError(f"every must be >= 0, got {self.every}")
        if self.burst < 1:
            raise ValueError(f"burst must be >= 1, got {self.burst}")
        if self.delay < 0:
            raise ValueError(f"delay must be >= 0, got {self.delay}")
        if self.rate == 0.0 and not self.calls and self.every == 0:
            raise ValueError("rule never fires: set rate, calls, or every")
        if self.media is not None and self.media[1] <= self.media[0]:
            raise ValueError(f"empty media interval {self.media}")
        object.__setattr__(self, "calls", tuple(int(call) for call in self.calls))
        if any(call < 1 for call in self.calls):
            raise ValueError("call indices are 1-based")

    def matches(
        self,
        video: str,
        gop: int,
        tile: tuple[int, int],
        quality: str,
        media_time: float | None,
    ) -> bool:
        if self.video is not None and self.video != video:
            return False
        if self.gop is not None and self.gop != gop:
            return False
        if self.tile is not None and tuple(self.tile) != tuple(tile):
            return False
        if self.quality is not None and self.quality != quality:
            return False
        if self.media is not None:
            if media_time is None or not self.media[0] <= media_time < self.media[1]:
                return False
        return True

    @classmethod
    def from_json(cls, data: dict) -> "FaultRule":
        kwargs = dict(data)
        if "calls" in kwargs:
            kwargs["calls"] = tuple(kwargs["calls"])
        if "tile" in kwargs and kwargs["tile"] is not None:
            kwargs["tile"] = tuple(kwargs["tile"])
        if "media" in kwargs and kwargs["media"] is not None:
            kwargs["media"] = tuple(kwargs["media"])
        return cls(**kwargs)


@dataclass(frozen=True)
class FaultDecision:
    """The plan's verdict for one call: which rule fired, and how."""

    kind: str
    rule_index: int
    delay: float = 0.0
    fraction: float = 0.5


class FaultPlan:
    """A seeded schedule of faults, replayable and thread-safe.

    ``decide`` is the single consultation point the wrappers call per
    read; it advances the plan's call counter, per-rule RNG streams, and
    burst state under one lock, so sequential runs are bit-reproducible
    and concurrent runs stay exact (every decision is counted exactly
    once — the stress test pins this).

    ``blackouts`` are link-level faults: intervals of (wall-clock
    simulation) seconds during which the served bandwidth collapses to
    ``blackout_floor`` bytes/s. Apply them to a bandwidth model with
    :meth:`apply_to_bandwidth`.
    """

    def __init__(
        self,
        rules: tuple[FaultRule, ...] | list[FaultRule] = (),
        seed: int = 0,
        blackouts: tuple[tuple[float, float], ...] = (),
        blackout_floor: float = 1.0,
    ) -> None:
        self.rules = tuple(rules)
        self.seed = int(seed)
        self.blackouts = tuple((float(a), float(b)) for a, b in blackouts)
        self.blackout_floor = float(blackout_floor)
        self._lock = threading.Lock()
        self.reset()

    def reset(self) -> None:
        """Rewind to the start of the schedule (fresh RNGs, zero calls)."""
        with self._lock:
            self._calls = {target: 0 for target in TARGETS}
            self._rngs = [
                random.Random(f"{self.seed}:{index}")
                for index in range(len(self.rules))
            ]
            self._bursts: dict[tuple[int, tuple], int] = {}
            self.injected: dict[str, int] = {}
            self.log: list[dict] = []

    def calls(self, target: str = "storage") -> int:
        with self._lock:
            return self._calls[target]

    def decide(
        self,
        video: str,
        gop: int,
        tile: tuple[int, int],
        quality: str,
        media_time: float | None = None,
        target: str = "storage",
    ) -> FaultDecision | None:
        """Should the current call fault? First matching rule wins.

        ``quality`` is a ladder label (``Quality.label``). Rate draws are
        consumed only by rules whose filters match the call, so adding a
        tightly-filtered rule does not perturb the schedule of the rest.
        """
        if target not in TARGETS:
            raise ValueError(f"unknown fault target {target!r}")
        key = (video, int(gop), tuple(tile), str(quality))
        with self._lock:
            self._calls[target] += 1
            call = self._calls[target]
            decision = None
            for index, rule in enumerate(self.rules):
                if rule.target != target:
                    continue
                if not rule.matches(video, gop, tile, str(quality), media_time):
                    continue
                burst_key = (index, key)
                remaining = self._bursts.get(burst_key, 0)
                if remaining > 0:
                    self._bursts[burst_key] = remaining - 1
                    decision = FaultDecision(rule.kind, index, rule.delay, rule.fraction)
                    break
                fired = call in rule.calls
                if not fired and rule.every:
                    fired = call % rule.every == 0
                if not fired and rule.rate > 0.0:
                    fired = self._rngs[index].random() < rule.rate
                if fired:
                    if rule.burst > 1:
                        self._bursts[burst_key] = rule.burst - 1
                    decision = FaultDecision(rule.kind, index, rule.delay, rule.fraction)
                    break
            if decision is not None:
                self.injected[decision.kind] = self.injected.get(decision.kind, 0) + 1
                if len(self.log) < _LOG_LIMIT:
                    self.log.append(
                        {
                            "call": call,
                            "target": target,
                            "kind": decision.kind,
                            "rule": decision.rule_index,
                            "video": video,
                            "gop": int(gop),
                            "tile": list(tile),
                            "quality": str(quality),
                        }
                    )
            return decision

    def decide_key(
        self,
        video: str,
        key,
        media_time: float | None = None,
        target: str = "storage",
    ) -> FaultDecision | None:
        """:meth:`decide` addressed by a canonical ``dash.SegmentKey``.

        Wrappers that already hold a ``SegmentKey`` (the wire server, the
        chaos storage shim) consult the plan through this so rule matching
        uses the same identity as URLs and cache entries.
        """
        return self.decide(
            video,
            key.window,
            key.tile,
            key.quality.label,
            media_time=media_time,
            target=target,
        )

    def apply_to_bandwidth(self, model):
        """Wrap a bandwidth model with this plan's blackout windows."""
        if not self.blackouts:
            return model
        from repro.stream.network import BlackoutBandwidth

        return BlackoutBandwidth(model, self.blackouts, floor_rate=self.blackout_floor)

    # -- deserialisation ------------------------------------------------------

    @classmethod
    def from_json(cls, data: dict, seed: int | None = None) -> "FaultPlan":
        return cls(
            rules=tuple(FaultRule.from_json(rule) for rule in data.get("rules", ())),
            seed=data.get("seed", 0) if seed is None else seed,
            blackouts=tuple(tuple(pair) for pair in data.get("blackouts", ())),
            blackout_floor=data.get("blackout_floor", 1.0),
        )
