"""Sharded server cluster: consistent-hash placement over shard workers.

Each :class:`ShardWorker` is a full server middleware over one
partition; a :class:`ClusterCoordinator` owns placement, routing and
the merged cross-shard views.  The coordinator and the monolithic
server share one application plane (OSN intake, trigger fan-out,
multicasts, listeners).  A 1-shard cluster is bit-identical to the
monolithic server; see ``docs/SCALING.md`` for the ring, the
rebalance protocol and the zero-acknowledged-loss recovery semantics.
"""

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.database import ClusterDatabase
from repro.cluster.ring import DEFAULT_VNODES, ConsistentHashRing, stable_hash
from repro.cluster.worker import REGISTRATION_KEY_LEVEL, ShardWorker

__all__ = [
    "ClusterCoordinator",
    "ClusterDatabase",
    "ConsistentHashRing",
    "DEFAULT_VNODES",
    "REGISTRATION_KEY_LEVEL",
    "ShardWorker",
    "stable_hash",
]
