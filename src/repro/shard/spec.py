"""The shape of a functional cluster, declared and checked in one place.

:class:`ClusterSpec` holds the knobs every cluster harness varies --
the chaos and health harnesses, the open-loop scenarios, the CLI and
the benches -- refuses inconsistent combinations when it is
constructed, and builds the cluster and its routing clients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.core.server import ServerConfig
from repro.errors import ConfigurationError
from repro.obs import ObsContext
from repro.shard.cluster import ShardedCluster
from repro.shard.router import ShardedClient

__all__ = ["ClusterSpec"]

#: Largest shard count a harness stands up.
MAX_SHARDS = 64

_NS_PER_MS = 1_000_000


@dataclass(frozen=True)
class ClusterSpec:
    """One functional cluster's shape.

    ``shards=None`` is a single unsharded server (the chaos harness's
    default), which has nowhere to put replicas or a routing client's
    read path.  Single-field checks (``ecall_batch``, ``ack_mode``,
    ``cache_entries``) stay with the classes the spec builds.
    """

    shards: Optional[int] = 2
    replicas: int = 0
    ack_mode: str = "sync"
    ecall_batch: int = 1
    near_cache: bool = False
    read_offload: bool = False
    cache_entries: int = 256
    cache_lease_ms: float = 25.0

    def __post_init__(self) -> None:
        if self.shards is None:
            if self.replicas or self.near_cache or self.read_offload:
                raise ConfigurationError(
                    "replicas, the near-cache and the read offload need a "
                    "sharded cluster (pass shards >= 1)"
                )
        elif not 1 <= self.shards <= MAX_SHARDS:
            raise ConfigurationError(
                f"shards must be in [1, {MAX_SHARDS}], got {self.shards}"
            )
        if self.read_offload and self.replicas < 1:
            raise ConfigurationError(
                f"the read offload needs replicas >= 1 to have backups to "
                f"read from, got {self.replicas}"
            )
        # The router takes whole nanoseconds; a lease that rounds to
        # none would fall back to the default instead of being refused.
        if not 1 <= self.cache_lease_ms * _NS_PER_MS < math.inf:
            raise ConfigurationError(
                f"cache_lease_ms must be at least 1 ns (1e-06 ms) and "
                f"finite, got {self.cache_lease_ms}"
            )

    def build(
        self, seed: int, obs: Optional[ObsContext] = None
    ) -> ShardedCluster:
        """Stand up the sharded cluster this spec describes."""
        if self.shards is None:
            raise ConfigurationError(
                "an unsharded spec describes a single server, not a cluster"
            )
        return ShardedCluster(
            shards=self.shards,
            seed=seed,
            obs=obs,
            replicas=self.replicas,
            ack_mode=self.ack_mode,
            config=ServerConfig(ecall_batch=self.ecall_batch),
        )

    def router(self, cluster: ShardedCluster, **session) -> ShardedClient:
        """A routing client over ``cluster`` with this spec's read path.

        ``session`` carries the per-connection
        :class:`~repro.shard.router.ShardedClient` arguments (client id,
        key generator, retry budget, freshness tracking, cache clock).
        """
        return ShardedClient(
            cluster,
            near_cache=self.near_cache,
            read_offload=self.read_offload,
            cache_entries=self.cache_entries,
            cache_lease_ns=int(self.cache_lease_ms * _NS_PER_MS),
            **session,
        )
