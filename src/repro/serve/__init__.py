"""Network delivery: the asyncio segment server and its wire client.

This package is the repo's network-facing surface — the piece of the
VisualCloud demo that actually ships per-tile, per-quality segments to
many concurrent headsets. The server (:mod:`repro.serve.server`) exposes
a stored catalog over HTTP with overload shedding; the client
(:mod:`repro.serve.client`) runs the unchanged ABR + predictor session
loop against the real socket by adapting the wire to the storage read
contract; and :mod:`repro.serve.failover` spreads that client over a
replicated tier with circuit breakers, a retry budget, and
``Retry-After`` backoff.

Sharded delivery (:mod:`repro.serve.placement`): a consistent-hash
:class:`ShardMap` assigns every segment to ``replication_factor`` owner
nodes, a shard server reads through :class:`ShardedBackend`
(:mod:`repro.serve.peering`: owner → local, non-owner → peers,
repairable local failure → verified heal from a peer). Placement stays
in the tier: clients see replicas, never owners — see DESIGN.md
"Sharded delivery".
"""

from repro.serve.client import HttpSegmentClient, RemoteStorage, serve_session
from repro.serve.failover import (
    CircuitBreaker,
    FailoverConfig,
    FailoverSegmentClient,
    ReplicaSet,
    RetryBudget,
)
from repro.serve.hotset import HotSet, PinnedSegment
from repro.serve.peering import ShardedBackend
from repro.serve.placement import HashRing, ShardMap, materialize_shards, stable_hash
from repro.serve.server import (
    SegmentServer,
    ServerConfig,
    ServerHandle,
    ServerStartupError,
    start_server,
)

__all__ = [
    "CircuitBreaker",
    "FailoverConfig",
    "FailoverSegmentClient",
    "HashRing",
    "HotSet",
    "HttpSegmentClient",
    "PinnedSegment",
    "RemoteStorage",
    "ReplicaSet",
    "RetryBudget",
    "SegmentServer",
    "ServerConfig",
    "ServerHandle",
    "ServerStartupError",
    "ShardMap",
    "ShardedBackend",
    "materialize_shards",
    "serve_session",
    "stable_hash",
    "start_server",
]
