"""Replicated delivery: client-side failover over N segment servers.

One :class:`HttpSegmentClient` talks to one server; a production headset
talks to a *tier* — several replicas serving the same catalog — and must
keep streaming when one crashes, sheds, or melts down. This module is
that client-side policy layer, built from three small, separately
testable pieces:

* :class:`CircuitBreaker` — per-replica health state. Closed (traffic
  flows) → open after ``failure_threshold`` *consecutive* taxonomy
  errors (traffic stops) → half-open after ``reset_timeout`` (exactly
  one probe request is admitted) → closed on probe success, open again
  on probe failure. Transitions are recorded, and per incident they are
  monotone: closed→open→half_open→{closed | open} — the chaos scenario
  runner asserts this invariant.
* :class:`RetryBudget` — a global token bucket bounding how many *extra*
  attempts (failovers, retries) the whole client may spend. Every
  success earns ``refill`` tokens (capped), every failover spends
  one; when the bucket is dry the client fails fast with the last error
  instead of amplifying a storm — N clients retrying 3× against a
  struggling tier is how overloads become outages.
* :class:`ReplicaSet` — deterministic, health-driven selection. Closed
  replicas first (rotated round-robin so load spreads), then half-open
  probes, then — only when nothing healthier exists — open replicas, so
  a fully-dark tier still probes its way back to life. A replica that
  answered ``429``/``503`` with ``Retry-After`` is deprioritised until
  the hint expires.

:class:`FailoverSegmentClient` assembles them behind the *same* duck
type as :class:`HttpSegmentClient` (``fetch_manifest`` /
``fetch_segment`` / ``fetch_metrics`` / ``healthy`` / ``close``), so
:class:`~repro.serve.client.RemoteStorage`, the streamers, and
:func:`~repro.core.resilience.read_window_resilient` run over a replica
set unchanged. Every failure leaves as the PR 3 error taxonomy — never a
raw ``OSError``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.errors import (
    SegmentNotFoundError,
    TransientSegmentError,
)
from repro.obs import MetricsRegistry
from repro.serve.client import HttpSegmentClient
from repro.stream.dash import Manifest, SegmentKey

#: Circuit states, in incident order.
CLOSED, OPEN, HALF_OPEN = "closed", "open", "half_open"

#: Cap (seconds) on an honored ``Retry-After`` hint: a confused replica
#: cannot park itself out of rotation for longer than this.
_MAX_RETRY_AFTER = 30.0
#: The retry budget's bucket: tokens it holds, and tokens a success earns back.
RETRY_CAPACITY = 16.0
RETRY_REFILL = 0.1

#: The legal circuit transitions; anything else is a bug the chaos
#: runner's ``circuit_monotone`` invariant exists to catch.
LEGAL_TRANSITIONS = frozenset(
    {
        (CLOSED, OPEN),
        (OPEN, HALF_OPEN),
        (HALF_OPEN, CLOSED),
        (HALF_OPEN, OPEN),
    }
)


@dataclass(frozen=True)
class FailoverConfig:
    """Tunables for one :class:`FailoverSegmentClient`."""

    failure_threshold: int = 3  # consecutive errors before a breaker opens
    reset_timeout: float = 1.0  # seconds open before a half-open probe
    request_timeout: float = 10.0  # per-replica HTTP client timeout
    clock: Callable[[], float] = time.monotonic

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}"
            )
        if self.reset_timeout < 0:
            raise ValueError(f"reset_timeout must be >= 0, got {self.reset_timeout}")
        if self.request_timeout <= 0:
            raise ValueError(
                f"request_timeout must be positive, got {self.request_timeout}"
            )


class CircuitBreaker:
    """Per-replica circuit state with a recorded transition trail."""

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe_inflight = False
        self.transitions: list[tuple[str, str]] = []

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, to: str) -> None:
        # Callers hold the lock. Every edge lands in the trail so the
        # monotone-per-incident invariant is checkable after the fact.
        if self._state != to:
            self.transitions.append((self._state, to))
            self._state = to

    def allow(self) -> bool:
        """May a request go to this replica right now?

        Open breakers become half-open once ``reset_timeout`` has
        elapsed, and half-open admits exactly one in-flight probe.
        """
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self._clock() - self._opened_at < self.reset_timeout:
                    return False
                self._transition(HALF_OPEN)
                self._probe_inflight = True
                return True
            # Half-open: one probe at a time.
            if self._probe_inflight:
                return False
            self._probe_inflight = True
            return True

    def record_success(self) -> None:
        with self._lock:
            self._consecutive_failures = 0
            self._probe_inflight = False
            if self._state != CLOSED:
                self._transition(CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            self._probe_inflight = False
            if self._state == HALF_OPEN:
                # The probe failed: the incident continues.
                self._opened_at = self._clock()
                self._transition(OPEN)
                return
            self._consecutive_failures += 1
            if (
                self._state == CLOSED
                and self._consecutive_failures >= self.failure_threshold
            ):
                self._opened_at = self._clock()
                self._transition(OPEN)


class RetryBudget:
    """A token bucket bounding a client's *extra* attempts globally.

    The first attempt of every request is free; each failover or retry
    spends one token. Successes earn :data:`RETRY_REFILL` tokens back
    (capped at :data:`RETRY_CAPACITY`), so a mostly-healthy tier never
    exhausts the budget, while a storm drains it and forces fail-fast —
    retries must not amplify an outage.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._tokens = RETRY_CAPACITY
        self.spent = 0
        self.denied = 0

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens

    def try_spend(self) -> bool:
        with self._lock:
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                self.spent += 1
                return True
            self.denied += 1
            return False

    def earn(self) -> None:
        with self._lock:
            self._tokens = min(RETRY_CAPACITY, self._tokens + RETRY_REFILL)


@dataclass
class Replica:
    """One base URL plus its client, breaker, and backoff state."""

    url: str
    client: HttpSegmentClient
    breaker: CircuitBreaker
    backoff_until: float = 0.0  # honored Retry-After deadline (clock domain)
    requests: int = 0
    failures: int = 0


class ReplicaSet:
    """Deterministic health-driven ordering over a set of replicas."""

    def __init__(
        self, replicas: Sequence[Replica], clock: Callable[[], float] = time.monotonic
    ) -> None:
        if not replicas:
            raise ValueError("a replica set needs at least one base URL")
        self.replicas = list(replicas)
        self._clock = clock
        self._lock = threading.Lock()
        self._rotation = 0

    def __len__(self) -> int:
        return len(self.replicas)

    def candidates(self) -> list[Replica]:
        """Every replica, best first.

        Three tiers: closed breakers not under a ``Retry-After`` backoff
        (rotated round-robin across calls so load spreads), then closed
        ones still backing off, then open/half-open ones — kept last but
        *kept*, so a fully-dark tier still gets probed back to health.
        """
        with self._lock:
            offset = self._rotation
            self._rotation += 1
        now = self._clock()
        ready: list[Replica] = []
        backing_off: list[Replica] = []
        unhealthy: list[Replica] = []
        for replica in self.replicas:
            if replica.breaker.state != CLOSED:
                unhealthy.append(replica)
            elif replica.backoff_until > now:
                backing_off.append(replica)
            else:
                ready.append(replica)
        if ready:
            pivot = offset % len(ready)
            ready = ready[pivot:] + ready[:pivot]
        return ready + backing_off + unhealthy


class FailoverSegmentClient:
    """The :class:`HttpSegmentClient` duck type over N replicas.

    Spreads reads across every healthy replica, fails over on taxonomy
    errors (bounded by the shared :class:`RetryBudget`), honors
    ``Retry-After`` backoff hints, and opens a circuit per replica after
    consecutive failures.
    ``SegmentNotFoundError``/``SegmentCorruptError`` do **not** fail
    over: the replica answered, and the catalog is replicated — a rung
    that is gone on one replica is gone on all of them; the resilience
    ladder above decides what to do.
    """

    def __init__(
        self,
        base_urls: Sequence[str] | str,
        config: FailoverConfig | None = None,
        registry: MetricsRegistry | None = None,
        client_factory: Callable[..., HttpSegmentClient] = HttpSegmentClient,
        shard_map=None,
        node_urls: dict[str, str] | None = None,
    ) -> None:
        if isinstance(base_urls, str):
            base_urls = [base_urls]
        self.config = config or FailoverConfig()
        self.metrics = registry if registry is not None else MetricsRegistry()
        clock = self.config.clock
        self.replicas = ReplicaSet(
            [
                Replica(
                    url=url,
                    client=client_factory(url, timeout=self.config.request_timeout),
                    breaker=CircuitBreaker(
                        self.config.failure_threshold,
                        self.config.reset_timeout,
                        clock=clock,
                    ),
                )
                for url in base_urls
            ],
            clock=clock,
        )
        self.budget = RetryBudget()
        self._requests = self.metrics.counter(
            "failover.requests", "requests issued through the failover client"
        )
        self._failovers = self.metrics.counter(
            "failover.failovers", "requests retried on a sibling replica"
        )
        self._exhausted = self.metrics.counter(
            "failover.budget_exhausted", "requests failed fast on a dry retry budget"
        )
        # Shard-aware routing (see repro.serve.placement): the map orders
        # candidates owners-first; everything below it — breakers, budget,
        # backoff — is unchanged, so losing the map only costs locality.
        self.shard_map = shard_map
        self._node_urls = dict(node_urls) if node_urls else {}
        self._replica_urls = frozenset(replica.url for replica in self.replicas.replicas)
        self._shard_routed = self.metrics.counter(
            "failover.shard_routed", "segment requests ordered owners-first"
        ).labels()
        self._shard_unroutable = self.metrics.counter(
            "failover.shard_unroutable",
            "segment requests whose owners map to no configured replica",
        ).labels()
        self._shard_adopted = self.metrics.counter(
            "failover.shard_map_adopted", "shard maps adopted from manifests"
        ).labels()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        for replica in self.replicas.replicas:
            replica.client.close()

    def __enter__(self) -> "FailoverSegmentClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- the failover loop ----------------------------------------------------

    def _apply_backoff(self, replica: Replica, error: BaseException) -> None:
        hint = getattr(error, "retry_after", None)
        if hint is None:
            return
        hint = min(float(hint), _MAX_RETRY_AFTER)
        replica.backoff_until = max(
            replica.backoff_until, self.config.clock() + hint
        )

    def _call(self, replica: Replica, op: Callable[[HttpSegmentClient], object]):
        replica.requests += 1
        try:
            result = op(replica.client)
        except TransientSegmentError as error:
            replica.failures += 1
            replica.breaker.record_failure()
            self._apply_backoff(replica, error)
            raise
        except SegmentNotFoundError:
            # The replica is up and answered authoritatively; failing
            # over cannot produce the bytes. Healthy for the breaker.
            replica.breaker.record_success()
            raise
        replica.breaker.record_success()
        self.budget.earn()
        return result

    def _owner_urls(self, name: str, key: SegmentKey) -> frozenset:
        """The replica URLs owning one segment under the shard map.

        Owner node ids resolve through ``node_urls`` (falling back to the
        id itself, for tiers whose node ids *are* URLs) and are kept only
        when they name a configured replica — a map mentioning nodes this
        client cannot reach must not stop it from streaming.
        """
        if self.shard_map is None:
            return frozenset()
        owners = self.shard_map.owners(name, key)
        urls = frozenset(
            self._node_urls.get(node, node) for node in owners
        ) & self._replica_urls
        if urls:
            self._shard_routed.inc()
        else:
            self._shard_unroutable.inc()
        return urls

    def _ordered_candidates(self, prefer: frozenset) -> list[Replica]:
        """Health-tiered candidates, owners first *within* each tier.

        A ready non-owner outranks a broken owner: placement is a
        locality hint layered on the health ordering, never an override
        of it — otherwise a dead owner would eat budget tokens that a
        healthy sibling (which can peer-fetch the bytes) would serve.
        """
        candidates = self.replicas.candidates()
        if not prefer:
            return candidates
        now = self.config.clock()

        def tier(replica: Replica) -> tuple[int, int]:
            ready = (
                replica.breaker.state == CLOSED and replica.backoff_until <= now
            )
            return (0 if ready else 1, 0 if replica.url in prefer else 1)

        return sorted(candidates, key=tier)  # stable: keeps rotation order

    def _maybe_adopt(self, manifest: Manifest) -> None:
        """Adopt a shard map published in a manifest.

        Only strictly newer versions replace a held map (stale manifests
        must never roll routing backwards); a client with no map adopts
        whatever the tier publishes.
        """
        published = getattr(manifest, "shard_map", None)
        if published is None:
            return
        if self.shard_map is not None and published.version <= self.shard_map.version:
            return
        self.shard_map = published
        self._shard_adopted.inc()

    def _fetch(
        self,
        what: str,
        op: Callable[[HttpSegmentClient], object],
        prefer: frozenset = frozenset(),
    ):
        """Run ``op`` against the best replica, failing over on
        transient errors until the candidates or the budget run out."""
        self._requests.inc(endpoint=what)
        last_error: TransientSegmentError | None = None
        attempted = 0
        for replica in self._ordered_candidates(prefer):
            if attempted > 0 and not self.budget.try_spend():
                self._exhausted.inc()
                break
            # Non-closed circuits admit at most one probe at a time; a
            # refused probe slot still cost its token — conservatively
            # charging skips keeps a dark tier from free-spinning.
            if replica.breaker.state != CLOSED and not replica.breaker.allow():
                continue
            if attempted > 0:
                self._failovers.inc()
            attempted += 1
            try:
                return self._call(replica, op)
            except TransientSegmentError as error:
                last_error = error
                continue
        if last_error is not None:
            raise last_error
        raise TransientSegmentError(
            f"no replica admitted the {what} request "
            f"({len(self.replicas)} configured, all circuits open)"
        )

    # -- HttpSegmentClient duck type ------------------------------------------

    def fetch_manifest(self, name: str) -> Manifest:
        manifest = self._fetch("manifest", lambda client: client.fetch_manifest(name))
        self._maybe_adopt(manifest)
        return manifest

    def fetch_segment(self, name: str, key: SegmentKey) -> bytes:
        prefer = self._owner_urls(name, key)
        return self._fetch("segment", lambda c: c.fetch_segment(name, key), prefer)

    def fetch_metrics(self) -> dict:
        return self._fetch("metrics", lambda client: client.fetch_metrics())

    def healthy(self) -> bool:
        """True when at least one replica answers its health probe.

        Also the *active* health check: every probe outcome feeds the
        breakers, so calling this re-discovers replicas that recovered
        while unloaded.
        """
        alive = False
        for replica in self.replicas.replicas:
            if not replica.breaker.allow():
                continue
            if replica.client.healthy():
                replica.breaker.record_success()
                alive = True
            else:
                replica.breaker.record_failure()
        return alive

    # -- introspection --------------------------------------------------------

    def breaker_transitions(self) -> dict[str, list[tuple[str, str]]]:
        return {
            replica.url: list(replica.breaker.transitions)
            for replica in self.replicas.replicas
        }
