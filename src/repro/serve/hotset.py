"""Hot-segment pinning: the serve tier's RAM fast path.

Viewing behaviour over tiled 360 content is Zipf-skewed — most requests
land on a small equatorial hot set — so a byte-budgeted pin layer in
front of the storage read path pays for itself quickly. A pinned segment
is frozen into its *wire form* at pin time: the full immutable header
block (one variant per ``Connection`` disposition) plus a ``memoryview``
of the payload, so serving a hit is two ``writer.write`` calls straight
off the event loop — no executor hop, no cache lock, no per-request
``bytes`` concatenation.

A pinned segment is a frozen :class:`repro.serve.wire.Response` — the
cold path's own response type — so a pin hit and a cold read are
wire-identical.

Admission:

* :meth:`HotSet.pin` pins explicitly: a plan slice or the startup
  prewarm, both ranked by the control planner (see
  ``repro.control.planner.warm_slice``).
* :meth:`HotSet.record` counts cold-path hits and promotes a path once
  it reaches ``threshold`` requests — the runtime feedback loop.

Eviction is colder-first and deterministic: a candidate may displace
pinned entries only when their heat is strictly lower than the
candidate's, so a prewarmed hot set is not churned by one-off requests.

Heat is one number with one definition — :meth:`HotSet.heat` — shared
by eviction, the control plane's pre-warm ranking, and anything else
that asks "how hot is this path": *base heat* (set by a control plan or
prewarm, the predicted component) plus *observed hits* (pinned-entry
lookups, or cold-path candidate counts). Before this accessor existed,
runtime promotion counted raw hits while prewarm ranked on popularity
weights, and the two orderings could disagree about which segment
deserved the RAM; now a planner decision and an eviction decision read
the same scale.

Coherence contract: pinning sits *above* the storage layer's version
fencing. Segment files are immutable per version, so pinned bytes can
never silently rot — but an operator who commits a new version (or
drops a video) while serving must call :meth:`unpin_prefix` for the
affected paths, exactly as the delivery URL space changes.
"""

from __future__ import annotations

from repro.core.storage import checksum_hex
from repro.obs import MetricsRegistry
from repro.serve.wire import Precomputed, Response

#: Cold-path candidate counts kept before the table is aged (dropped whole).
MAX_TRACKED = 4096


class PinnedSegment(Precomputed):
    """One segment frozen into its wire buffers: both header blocks are
    built once at pin time, the payload is a ``memoryview`` of ``body`` —
    zero per-hit cost, never copied. ``checksum`` is the body's wire
    checksum when the caller holds it (a read checked the bytes against
    it); the body is hashed here otherwise."""

    __slots__ = ("path", "body", "hits")

    def __init__(self, path: str, body: bytes, checksum: str | None = None) -> None:
        self.path = path
        self.body = bytes(body)  # no-copy when already bytes
        self.hits = 0
        super().__init__(
            Response(200, memoryview(self.body), checksum=checksum or checksum_hex(self.body))
        )


class HotSet:
    """A byte-budgeted map of request path → :class:`PinnedSegment`.

    Single-threaded by design: every call happens on the server's event
    loop (lookup/record per request, pin at startup prewarm), so there
    are no locks on the hit path — that absence is the point.
    """

    def __init__(
        self, budget_bytes: int, threshold: int, registry: MetricsRegistry
    ) -> None:
        if budget_bytes < 0:
            raise ValueError(f"pin budget must be >= 0, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        self.threshold = max(1, int(threshold))
        self.bytes_pinned = 0
        self._entries: dict[str, PinnedSegment] = {}
        self._counts: dict[str, int] = {}
        self._base_heat: dict[str, int] = {}
        self._hits = registry.counter(
            "serve.pin_hits", "requests served from the pinned hot set"
        ).labels()
        self._promotions = registry.counter(
            "serve.pin_promotions", "segments promoted into the hot set"
        ).labels()
        self._evictions = registry.counter(
            "serve.pin_evictions", "pinned segments evicted for hotter ones"
        ).labels()
        self._rejects = registry.counter(
            "serve.pin_rejects", "pin attempts refused (budget or colder)"
        ).labels()
        self._gauge_entries = registry.gauge("serve.pin_entries", "pinned segments")
        self._gauge_bytes = registry.gauge("serve.pin_bytes", "pinned payload bytes")

    @property
    def enabled(self) -> bool:
        return self.budget_bytes > 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, path: str) -> bool:
        return path in self._entries

    def paths(self) -> list[str]:
        """Every currently pinned path — the shard-map coherence pass
        walks this to decide which pins a topology change invalidates."""
        return list(self._entries)

    # -- heat: the one ordering everyone shares --------------------------------

    def heat(self, path: str) -> int:
        """This path's heat: base heat (predicted, set by a control plan
        or prewarm) plus observed activity (pinned hits, or cold-path
        candidate count). Eviction, the controller's pre-warm ranking,
        and operator introspection all read this one number."""
        base = self._base_heat.get(path, 0)
        entry = self._entries.get(path)
        if entry is not None:
            return base + entry.hits
        return base + self._counts.get(path, 0)

    def set_base_heat(self, heats: dict[str, int]) -> None:
        """Replace the predicted-heat layer (a control plan's pre-warm
        ranking). Replacement, not merge: a plan that stops predicting a
        path withdraws its protection, so stale predictions age out on
        the next plan instead of accreting forever."""
        self._base_heat = {path: int(heat) for path, heat in heats.items()}

    def set_budget(self, budget_bytes: int) -> None:
        """Resize the pin budget at runtime; shrinking evicts coldest
        first until the pinned bytes fit again."""
        if budget_bytes < 0:
            raise ValueError(f"pin budget must be >= 0, got {budget_bytes}")
        self.budget_bytes = int(budget_bytes)
        while self.bytes_pinned > self.budget_bytes:
            victim = min(
                self._entries.values(), key=lambda e: (self.heat(e.path), e.path)
            )
            self._remove(victim.path)
            self._evictions.inc()
        self._update_gauges()

    # -- hit path -------------------------------------------------------------

    def lookup(self, path: str) -> PinnedSegment | None:
        entry = self._entries.get(path)
        if entry is not None:
            entry.hits += 1
            self._hits.inc()
        return entry

    # -- admission ------------------------------------------------------------

    def record(self, path: str, body: bytes, checksum: str | None = None) -> bool:
        """Count one cold-path serve; promote once :meth:`heat` (base
        heat + observed count) reaches ``threshold`` — a path the
        planner already predicts hot earns its pin in fewer hits."""
        if not self.enabled or path in self._entries:
            return False
        count = self._counts.pop(path, 0) + 1
        if count + self._base_heat.get(path, 0) >= self.threshold:
            return self.pin(path, body, heat=count, checksum=checksum)
        if len(self._counts) >= MAX_TRACKED:
            # Cheap aging: drop all candidate counts instead of keeping
            # an unbounded (or LRU-ordered) tracking structure. Genuinely
            # hot paths re-accumulate within a few requests.
            self._counts.clear()
        self._counts[path] = count
        return False

    def pin(
        self, path: str, body: bytes, heat: int = 0, checksum: str | None = None
    ) -> bool:
        """Pin ``path`` if it fits the budget, evicting strictly-colder
        entries; returns whether the path is pinned afterwards.
        ``checksum`` is :class:`PinnedSegment`'s.

        ``heat`` is the candidate's claimed heat (promotion count, or a
        control plan's predicted heat); its effective heat is at least
        :meth:`heat` of the path itself, so a prediction and an observed
        streak compound rather than compete.
        """
        if not self.enabled:
            return False
        if path in self._entries:
            return True
        need = len(body)
        if need > self.budget_bytes:
            self._rejects.inc()
            return False
        candidate = max(int(heat), self.heat(path))
        while self.bytes_pinned + need > self.budget_bytes:
            victim = min(
                self._entries.values(), key=lambda e: (self.heat(e.path), e.path)
            )
            if self.heat(victim.path) >= candidate:
                self._rejects.inc()
                return False
            self._remove(victim.path)
            self._evictions.inc()
        entry = PinnedSegment(path, body, checksum)
        self._entries[path] = entry
        self.bytes_pinned += entry.body_length
        self._promotions.inc()
        self._update_gauges()
        return True

    # -- invalidation ---------------------------------------------------------

    def unpin(self, path: str) -> bool:
        """Drop one pinned entry (and its predicted heat) by exact path
        — the shard-map coherence hook. Exact, not prefix: ``…/low`` is
        a string prefix of ``…/lowest``, a different segment that may
        still be owned here."""
        if path not in self._entries:
            return False
        self._remove(path)
        self._base_heat.pop(path, None)
        self._update_gauges()
        return True

    def unpin_prefix(self, prefix: str) -> int:
        """Drop every pinned entry (and candidate count) under ``prefix``
        — the coherence hook for reingest/drop while serving."""
        doomed = [path for path in self._entries if path.startswith(prefix)]
        for path in doomed:
            self._remove(path)
        for path in [p for p in self._counts if p.startswith(prefix)]:
            del self._counts[path]
        for path in [p for p in self._base_heat if p.startswith(prefix)]:
            del self._base_heat[path]
        self._update_gauges()
        return len(doomed)

    def _remove(self, path: str) -> None:
        entry = self._entries.pop(path)
        self.bytes_pinned -= entry.body_length

    def _update_gauges(self) -> None:
        self._gauge_entries.set(len(self._entries))
        self._gauge_bytes.set(self.bytes_pinned)
