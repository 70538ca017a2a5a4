"""The session model: millions of users in bounded memory.

A real deployment has far more client *sessions* than a simulation can
afford live connections: the paper's client-centric design pushes
per-session state (replay counters, MAC keys) to the clients, so the
store itself never sees more than the attested connections.  We model
that the same way.  Each :class:`TenantSpec` declares a **cohort** of
``sessions`` logical users; the cohort keeps O(1) shared state (a key
chooser, a token bucket, counters, one bounded
:class:`~repro.sim.stats.LatencyRecorder`) and multiplexes its traffic
over a small pool of *real* attested
:class:`~repro.shard.router.ShardedClient` connections.  A tenant with
``sessions=2_000_000`` costs the same memory as one with 200 -- the
session id is drawn per arrival and only used to pick the connection
and to report population, never materialized.

Determinism: connection client-ids are assigned arithmetically (never
from the process-global :func:`~repro.core.client.allocate_client_id`
counter), every chooser and the draw stream are seeded from the run
seed, so one seed reproduces the exact operation sequence.

Token buckets enforce per-tenant rate limits *at intended-start time*:
an arrival that finds its tenant's bucket empty is **throttled** --
counted, never sent -- which is how a noisy tenant is kept from
starving the others in the multi-tenant-contention scenario.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.keys import KeyGenerator
from repro.errors import ConfigurationError
from repro.shard.router import ShardedClient
from repro.shard.spec import ClusterSpec
from repro.sim.stats import LatencyRecorder
from repro.traffic.arrivals import NS_PER_S
from repro.ycsb.generator import (
    KeyChooser,
    UniformChooser,
    ZipfianChooser,
    make_key,
    make_value,
)

__all__ = ["TokenBucket", "TenantSpec", "TenantState", "SessionModel"]

#: Keyspace stride between tenants: tenant i owns record indices
#: ``[(i + 1) * stride, (i + 1) * stride + keyspace)``, so tenants never
#: collide on keys and per-tenant keyspaces stay recognisable in dumps.
_TENANT_KEY_STRIDE = 1_000_000

#: Client-id block per tenant (connection k of tenant i gets
#: ``(i + 1) * stride + k``) -- explicit ids keep reruns in one process
#: byte-identical, unlike the process-global allocator.
_TENANT_CLIENT_STRIDE = 1_000


class TokenBucket:
    """A token bucket on the simulated clock: ``rate`` tokens/s, burst cap.

    ``allow(t_ns)`` must be called with non-decreasing timestamps (the
    engine drains arrivals in intended-start order).
    """

    def __init__(self, rate_ops_s: float, burst: float):
        if rate_ops_s <= 0:
            raise ConfigurationError(
                f"token bucket rate must be positive, got {rate_ops_s}"
            )
        if burst < 1:
            raise ConfigurationError(
                f"token bucket burst must be >= 1, got {burst}"
            )
        self.rate = float(rate_ops_s)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last_ns = 0

    def allow(self, t_ns: int) -> bool:
        """Spend one token at time ``t_ns``; False means throttled."""
        if t_ns < self._last_ns:
            raise ConfigurationError(
                "token bucket queried with a time that moved backwards "
                f"({t_ns} < {self._last_ns})"
            )
        self._tokens = min(
            self.burst,
            self._tokens + (t_ns - self._last_ns) * self.rate / NS_PER_S,
        )
        self._last_ns = t_ns
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


@dataclass(frozen=True)
class TenantSpec:
    """One tenant cohort in the traffic mix.

    ``sessions`` is the logical population (may be millions);
    ``connections`` is the pool of real attested routers it multiplexes
    over.  ``rate_limit_ops_s`` of ``None`` disables admission control
    for the tenant.
    """

    name: str
    weight: float = 1.0
    sessions: int = 1_000_000
    keyspace: int = 64
    value_size: int = 64
    read_fraction: float = 0.5
    distribution: str = "uniform"
    theta: float = 0.99
    rate_limit_ops_s: Optional[float] = None
    burst: float = 16.0
    connections: int = 8

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ConfigurationError(
                f"tenant {self.name}: weight must be positive"
            )
        if self.sessions < 1:
            raise ConfigurationError(
                f"tenant {self.name}: sessions must be >= 1"
            )
        if not 1 <= self.keyspace <= _TENANT_KEY_STRIDE:
            raise ConfigurationError(
                f"tenant {self.name}: keyspace must be in "
                f"[1, {_TENANT_KEY_STRIDE}]"
            )
        if not 0 <= self.read_fraction <= 1:
            raise ConfigurationError(
                f"tenant {self.name}: read_fraction must be in [0, 1]"
            )
        if self.distribution not in ("uniform", "zipfian"):
            raise ConfigurationError(
                f"tenant {self.name}: unknown distribution "
                f"{self.distribution!r} (uniform|zipfian)"
            )
        if not 1 <= self.connections <= _TENANT_CLIENT_STRIDE:
            raise ConfigurationError(
                f"tenant {self.name}: connections must be in "
                f"[1, {_TENANT_CLIENT_STRIDE}]"
            )

    def to_dict(self) -> dict:
        """JSON-shaped view for scenario reports."""
        return {
            "name": self.name,
            "weight": self.weight,
            "sessions": self.sessions,
            "keyspace": self.keyspace,
            "value_size": self.value_size,
            "read_fraction": self.read_fraction,
            "distribution": self.distribution,
            "theta": self.theta,
            "rate_limit_ops_s": self.rate_limit_ops_s,
            "burst": self.burst,
            "connections": self.connections,
        }


class TenantState:
    """Runtime cohort state for one tenant (bounded, population-free)."""

    def __init__(self, index: int, spec: TenantSpec, seed: int):
        self.index = index
        self.spec = spec
        self.base_index = (index + 1) * _TENANT_KEY_STRIDE
        chooser_seed = seed ^ (0xA11CE << 4) ^ index
        if spec.distribution == "zipfian":
            self.chooser: KeyChooser = ZipfianChooser(
                spec.keyspace, chooser_seed, spec.theta
            )
        else:
            self.chooser = UniformChooser(spec.keyspace, chooser_seed)
        #: Lazily built hot-key chooser for storm windows.
        self._storm_chooser: Optional[ZipfianChooser] = None
        self._storm_seed = seed ^ (0x5708B << 4) ^ index
        self.bucket: Optional[TokenBucket] = None
        if spec.rate_limit_ops_s is not None:
            self.bucket = TokenBucket(spec.rate_limit_ops_s, spec.burst)
        #: Monotone per-record versions so repeated puts store new values.
        self.versions: Dict[int, int] = {}
        self.offered = 0
        self.throttled = 0
        self.executed = 0
        self.errors = 0
        self.corrected = LatencyRecorder(bounded=True)

    def storm_chooser(self, theta: float, keys: int) -> ZipfianChooser:
        """The hot-key chooser used while a storm window is active."""
        if self._storm_chooser is None:
            self._storm_chooser = ZipfianChooser(
                min(keys, self.spec.keyspace), self._storm_seed, theta
            )
        return self._storm_chooser

    def next_record(self, storm: Optional[Tuple[float, int]]) -> int:
        """Draw a record index (absolute, tenant-namespaced)."""
        if storm is not None:
            theta, keys = storm
            # Ranks map straight to the first `keys` records: the storm
            # is *meant* to concentrate on identifiable hot keys.
            offset = self.storm_chooser(theta, keys).next_rank()
        else:
            offset = self.chooser.next_index()
        return self.base_index + offset

    def stats(self) -> dict:
        """Per-tenant counters + corrected tail for the report."""
        out = {
            "sessions": self.spec.sessions,
            "offered": self.offered,
            "throttled": self.throttled,
            "executed": self.executed,
            "errors": self.errors,
        }
        if not self.corrected.is_empty:
            out["corrected_p50_ns"] = self.corrected.percentile(50)
            out["corrected_p99_ns"] = self.corrected.percentile(99)
        return out


class SessionModel:
    """The full tenant mix, bound to a cluster's attested connections.

    Owns the per-tenant :class:`TenantState` cohorts and the pooled
    :class:`~repro.shard.router.ShardedClient` connections; the engine
    asks it to :meth:`draw` one operation per arrival timestamp.
    """

    def __init__(
        self,
        cluster,
        mix: List[TenantSpec],
        seed: int = 0,
        cluster_spec: ClusterSpec = ClusterSpec(),
    ):
        if not mix:
            raise ConfigurationError("tenant mix must not be empty")
        names = [spec.name for spec in mix]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate tenant names in mix: {names}")
        self.cluster = cluster
        self.seed = seed
        self.cluster_spec = cluster_spec
        self.tenants: List[TenantState] = [
            TenantState(i, spec, seed) for i, spec in enumerate(mix)
        ]
        self._weights = [spec.weight for spec in mix]
        self._draw_rng = random.Random(seed ^ 0xD4A3)
        #: (tenant_index, conn_index) -> router. Real attested sessions;
        #: ids are arithmetic so reruns in one process stay identical.
        self.connections: Dict[Tuple[int, int], ShardedClient] = {}
        for state in self.tenants:
            for k in range(state.spec.connections):
                client_id = (
                    (state.index + 1) * _TENANT_CLIENT_STRIDE + k
                )
                # Pooled connections share tenant keyspaces, so the
                # router keeps its tracker advisory: caching must bound
                # staleness by lease/epoch, not accuse the store of
                # other connections' overwrites.
                self.connections[(state.index, k)] = cluster_spec.router(
                    cluster,
                    client_id=client_id,
                    keygen=KeyGenerator(seed),
                    max_retries=4,
                    retry_backoff_s=0.0,
                )

    @property
    def total_sessions(self) -> int:
        """Logical population across every tenant (can be millions)."""
        return sum(state.spec.sessions for state in self.tenants)

    def all_sessions(self) -> list:
        """Every underlying per-shard client session (for fault install)."""
        out = []
        for conn in self.connections.values():
            out.extend(conn.sessions.values())
        return out

    def preload(self) -> int:
        """Write every tenant's keyspace once (version 0), pre-measurement.

        Ensures in-window GETs hit stored keys rather than measuring the
        NOT_FOUND path.  Returns the number of records loaded.
        """
        loaded = 0
        for state in self.tenants:
            conn = self.connections[(state.index, 0)]
            spec = state.spec
            for offset in range(spec.keyspace):
                record = state.base_index + offset
                conn.put(
                    make_key(record), make_value(record, spec.value_size)
                )
                loaded += 1
        return loaded

    def draw(
        self, t_ns: int, storm: bool = False,
        storm_theta: float = 0.99, storm_keys: int = 4,
    ):
        """Assign the arrival at ``t_ns`` to a session and materialize it.

        Returns ``None`` when the tenant's token bucket throttles the
        arrival, else a tuple ``(tenant, conn_key, op, key, value)``
        where ``op`` is ``"get"`` or ``"put"`` and ``value`` is ``b""``
        for gets.
        """
        rng = self._draw_rng
        state = rng.choices(self.tenants, weights=self._weights, k=1)[0]
        state.offered += 1
        if state.bucket is not None and not state.bucket.allow(t_ns):
            state.throttled += 1
            return None
        spec = state.spec
        session = rng.randrange(spec.sessions)
        conn_key = (state.index, session % spec.connections)
        record = state.next_record(
            (storm_theta, storm_keys) if storm else None
        )
        key = make_key(record)
        if rng.random() < spec.read_fraction:
            return state, conn_key, "get", key, b""
        version = state.versions.get(record, 0) + 1
        state.versions[record] = version
        return (
            state,
            conn_key,
            "put",
            key,
            make_value(record, spec.value_size, version),
        )

    def tenant_stats(self) -> dict:
        """Per-tenant report section, keyed by tenant name."""
        return {
            state.spec.name: state.stats() for state in self.tenants
        }

    def nearcache_stats(self) -> Optional[dict]:
        """Cache/offload counters summed over every connection.

        None when neither feature is enabled (the report section stays
        absent and existing artifacts keep their exact bytes).
        """
        spec = self.cluster_spec
        if not (spec.near_cache or spec.read_offload):
            return None
        out = {
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_revalidations": 0,
            "cache_fills": 0,
            "cache_invalidations": 0,
            "cache_expirations": 0,
            "cache_epoch_drops": 0,
            "cache_claim_mismatches": 0,
            "cache_evictions": 0,
            "offload_served": 0,
            "offload_fallbacks": 0,
        }
        for conn in self.connections.values():
            stats = conn.cache_stats()
            if stats is not None:
                out["cache_hits"] += stats["hits"]
                out["cache_misses"] += stats["misses"]
                out["cache_revalidations"] += stats["revalidations"]
                out["cache_fills"] += stats["fills"]
                out["cache_invalidations"] += stats["invalidations"]
                out["cache_expirations"] += stats["expirations"]
                out["cache_epoch_drops"] += stats["epoch_drops"]
                out["cache_claim_mismatches"] += stats["claim_mismatches"]
                out["cache_evictions"] += stats["evictions"]
            out["offload_served"] += conn.offload_reads
            out["offload_fallbacks"] += conn.offload_fallbacks
        return out
