"""Resilient window assembly: bounded retry, then graceful degradation.

Delivery used to propagate the first storage exception and abort the
whole session — one truncated segment killed a viewer. Because the
store encodes every (GOP, tile, quality) segment independently, failure
handling can be *per tile*: a transient read error is retried a bounded
number of times, a persistent one walks down the tile's stored quality
ladder (never up — a budgeted request must not silently upgrade), and a
tile whose every rung is unreadable is skipped with a recorded event.
The session always terminates with a :class:`~repro.stream.qoe.QoEReport`
whose :class:`~repro.stream.qoe.DegradationEvent` trail says exactly what
was sacrificed, and the ``obs`` registry counts every retry, degradation,
and give-up.

The streamer (:class:`repro.core.streamer.Streamer`) assembles windows
through :func:`read_window_resilient`. With a healthy store the function
performs exactly the reads ``StorageManager.read_window`` would — same
segments, same order — so fault-free delivery is byte-identical to the
historical path (the differential test in ``tests/test_resilience.py``
pins this).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.errors import SegmentNotFoundError, TransientSegmentError
from repro.obs import MetricsRegistry
from repro.stream.dash import Manifest
from repro.stream.qoe import DegradationEvent
from repro.video.quality import Quality


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry for transient segment reads.

    ``attempts`` is the *total* number of tries per (tile, quality) —
    ``attempts=3`` means one initial read plus up to two retries.
    Retries are immediate: link time is simulated in this system, so
    the *bound* is the semantics and nothing sleeps between tries.
    """

    attempts: int = 3

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"attempts must be >= 1, got {self.attempts}")


#: The policy both streamers use when a session doesn't configure one.
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass
class WindowReadResult:
    """What resilient assembly actually delivered for one window."""

    #: Tiles that shipped, at the quality that actually shipped. A subset
    #: of the requested map's tiles; values never exceed the request.
    quality_map: dict[tuple[int, int], Quality]
    payloads: dict[tuple[int, int], bytes]
    events: list[DegradationEvent] = field(default_factory=list)


def _read_with_retries(
    storage,
    name: str,
    window: int,
    tile: tuple[int, int],
    quality: Quality,
    policy: RetryPolicy,
    metrics: MetricsRegistry,
) -> tuple[bytes | None, int, int, str]:
    """Try one (tile, quality) up to ``policy.attempts`` times.

    Returns ``(data | None, attempts_used, retries_that_healed, reason)``.
    Transient errors are retried; a persistent error (or retry
    exhaustion) returns ``None`` so the caller can step down the ladder.
    """
    reason = ""
    for attempt in range(1, policy.attempts + 1):
        try:
            data = storage.read_segment(name, window, tile, quality)
        except TransientSegmentError as error:
            reason = str(error)
            metrics.counter(
                "stream.retries", "transient segment reads retried"
            ).inc(video=name)
            if attempt < policy.attempts:
                continue
            return None, attempt, attempt - 1, reason
        except SegmentNotFoundError as error:
            # Persistent: the rung is gone or corrupt — retrying the same
            # bytes cannot help, fall through to the ladder. Repairable
            # failures (file torn or rotted *under* an intact index entry)
            # are counted separately: each is a segment a read-repairing
            # server or an operator ``scrub`` could restore, and the
            # counter is how that backlog becomes visible.
            if getattr(error, "repairable", False):
                metrics.counter(
                    "stream.repairable_failures",
                    "persistent read failures a repair pass could heal",
                ).inc(video=name)
            return None, attempt, attempt - 1, str(error)
        return data, attempt, attempt - 1, reason
    raise AssertionError("unreachable: the retry loop always returns")


def read_window_resilient(
    storage,
    manifest: Manifest,
    name: str,
    window: int,
    quality_map: dict[tuple[int, int], Quality],
    policy: RetryPolicy | None = None,
    metrics: MetricsRegistry | None = None,
) -> WindowReadResult:
    """Assemble a window, surviving missing/corrupt/flaky segment reads.

    ``quality_map`` must already be resolved against the manifest (the
    streamers resolve before calling). Per tile, in sorted tile order
    (deterministic event sequences):

    1. read the requested rung, retrying transient errors per ``policy``;
    2. on persistent failure, walk the tile's stored ladder strictly
       *below* the request, best first — a ``"degrade"`` event records
       the substitution;
    3. if every rung fails, ship the window without the tile and record
       a ``"skip"`` event.

    Exceptions other than the storage error contract (and transient
    errors) propagate: programming errors must not be eaten.
    """
    policy = policy if policy is not None else DEFAULT_RETRY_POLICY
    metrics = metrics if metrics is not None else MetricsRegistry()
    delivered: dict[tuple[int, int], Quality] = {}
    payloads: dict[tuple[int, int], bytes] = {}
    events: list[DegradationEvent] = []

    for tile in sorted(quality_map):
        requested = quality_map[tile]
        attempts_total = 0
        data, attempts, retries, reason = _read_with_retries(
            storage, name, window, tile, requested, policy, metrics
        )
        attempts_total += attempts
        if data is not None:
            delivered[tile] = requested
            payloads[tile] = data
            if retries:
                events.append(
                    DegradationEvent(
                        window=window,
                        tile=tile,
                        requested=requested,
                        delivered=requested,
                        kind="retry",
                        attempts=attempts_total,
                        reason=reason,
                    )
                )
            continue
        # The requested rung is unreadable. Only strictly-worse stored
        # rungs are candidates: never upgrade past the budget.
        fallback_reason = reason
        ladder = [
            candidate
            for candidate in manifest.available(window, tile)
            if candidate < requested
        ]
        for candidate in ladder:
            data, attempts, _, reason = _read_with_retries(
                storage, name, window, tile, candidate, policy, metrics
            )
            attempts_total += attempts
            if data is not None:
                delivered[tile] = candidate
                payloads[tile] = data
                metrics.counter(
                    "stream.degradations", "tiles shipped below the requested rung"
                ).inc(video=name)
                events.append(
                    DegradationEvent(
                        window=window,
                        tile=tile,
                        requested=requested,
                        delivered=candidate,
                        kind="degrade",
                        attempts=attempts_total,
                        reason=fallback_reason,
                    )
                )
                break
            fallback_reason = reason
        else:
            metrics.counter(
                "stream.tiles_skipped", "tiles dropped after the ladder ran dry"
            ).inc(video=name)
            events.append(
                DegradationEvent(
                    window=window,
                    tile=tile,
                    requested=requested,
                    delivered=None,
                    kind="skip",
                    attempts=attempts_total,
                    reason=fallback_reason,
                )
            )
    metrics.counter("storage.windows_assembled", "delivery windows built").inc()
    return WindowReadResult(quality_map=delivered, payloads=payloads, events=events)
