"""Deterministic chaos: seeded fault injection for the delivery path.

The package has four layers:

* :mod:`repro.chaos.faults` — a :class:`FaultPlan` schedules faults
  (missing segments, detected corruption, slow reads, flaky I/O, cache
  evictions, bandwidth blackouts) by call count, probability, or media
  time, all driven by one seed so any run replays exactly;
* :mod:`repro.chaos.wrappers` — drop-in fault-injecting views over the
  storage manager and segment cache;
* :mod:`repro.chaos.proxy` — a fault-injecting TCP relay that breaks
  the wire itself (refused connections, resets, mid-body truncation,
  slow-loris trickle, added latency), scheduled by the same plans;
* :mod:`repro.chaos.scenario` — a runner that drives whole streaming
  sessions under a plan — one ingest → drive → judge path, whatever the
  plan's mode — and checks machine-readable invariants (no uncaught
  exceptions, per-tile coverage, no silent quality upgrades, cache/disk
  consistency, metrics/event agreement — plus, in wire mode,
  taxonomy-only failures, monotone circuit transitions, and bounded
  degradation with a healthy replica).

:mod:`repro.chaos.corrupt` additionally provides the corruption-corpus
primitives (structural truncations, bit flips) the failure-injection
tests are built from.
"""

from repro.chaos.corrupt import (
    atom_boundaries,
    bit_flip,
    gop_boundaries,
    metadata_corruption_corpus,
    segment_corruption_corpus,
    truncate,
)
from repro.chaos.faults import WIRE_KINDS, FaultDecision, FaultPlan, FaultRule
from repro.chaos.proxy import ChaosProxy
from repro.chaos.scenario import (
    InvariantCheck,
    InvariantReport,
    Scenario,
    ScenarioRunner,
)
from repro.chaos.wrappers import ChaosSegmentCache, ChaosStorageManager

__all__ = [
    "ChaosProxy",
    "ChaosSegmentCache",
    "ChaosStorageManager",
    "FaultDecision",
    "FaultPlan",
    "FaultRule",
    "InvariantCheck",
    "InvariantReport",
    "Scenario",
    "ScenarioRunner",
    "atom_boundaries",
    "bit_flip",
    "gop_boundaries",
    "metadata_corruption_corpus",
    "segment_corruption_corpus",
    "truncate",
    "WIRE_KINDS",
]
