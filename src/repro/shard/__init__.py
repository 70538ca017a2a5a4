"""Sharded Precursor: consistent-hash routing, per-shard enclaves, live
key migration (see ``docs/SHARDING.md``).

- :class:`~repro.shard.ring.HashRing` -- deterministic consistent-hash
  ring with virtual nodes;
- :class:`~repro.shard.cluster.ShardedCluster` /
  :class:`~repro.shard.cluster.ShardMap` -- N servers (each with its own
  fabric, NIC and enclave) behind one epoch-versioned routing table;
- :class:`~repro.shard.router.ShardedClient` -- one attested session per
  shard under a single identity, key-hash routing, per-shard batch
  fan-out, stale-epoch retry;
- :class:`~repro.shard.migrate.MigrationEngine` -- enclave-sealed key
  migration on shard join/leave;
- :class:`~repro.shard.spec.ClusterSpec` -- the cluster shape every
  harness varies (shards, replication, drain window, read path), checked
  once and built into a cluster plus its routing clients.
"""

from repro.shard.cluster import ShardMap, ShardedCluster
from repro.shard.migrate import MigrationEngine, MigrationReport
from repro.shard.ring import DEFAULT_VNODES, HashRing
from repro.shard.router import ShardedClient
from repro.shard.spec import ClusterSpec

__all__ = [
    "ClusterSpec",
    "DEFAULT_VNODES",
    "HashRing",
    "MigrationEngine",
    "MigrationReport",
    "ShardMap",
    "ShardedClient",
    "ShardedCluster",
]
