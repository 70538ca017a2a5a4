"""The sharded cluster: N Precursor replica groups behind one shard map.

Each shard is a :class:`~repro.replica.ReplicaGroup`: a primary
:class:`~repro.core.server.PrecursorServer` plus ``replicas`` backups,
every member a full machine with its own RDMA fabric, NIC and enclave --
the scale-out unit the paper's client-centric design makes cheap, since
the server does almost no per-request work.  One shared
:class:`~repro.obs.ObsContext` collects every member's metrics under a
``shard`` label.

Ownership is decided by a :class:`~repro.shard.ring.HashRing` wrapped in
a versioned :class:`ShardMap`.  Membership changes (``add_shard`` /
``remove_shard``) run the live migration engine and then install the new
map under a bumped epoch; routers holding the old epoch notice on their
next operation and re-route (see ``docs/SHARDING.md`` for the protocol).

Primary failure (:meth:`ShardedCluster.crash_shard`) is handled by
**promotion**, not by ring surgery: the group elects its most-caught-up
backup, the cluster installs the *same* ring under a bumped epoch (the
failover fence), and routers re-attest against the new primary on their
next operation.  Only a group with no live backup falls back to the
PR-3 route-around path (:meth:`handle_shard_failure`), where the dead
shard's keys are unavailable until :meth:`restore_shard`.  There is no
checkpoint taken at crash time -- durability across a crash is exactly
what the group's acknowledged-write contract (sync / semi-sync / async)
bought, nothing more; :class:`~repro.core.persistence.CheckpointManager`
remains available for *explicit operator snapshots* only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.cluster.testbed import TestbedSpec, sharded_testbed
from repro.core.persistence import CheckpointManager
from repro.core.server import PrecursorServer, ServerConfig
from repro.errors import ConfigurationError, ShardUnavailableError
from repro.obs import ObsContext
from repro.rdma.fabric import Fabric
from repro.replica import FailoverReport, ReplicaGroup
from repro.shard.migrate import MigrationEngine, MigrationReport
from repro.shard.ring import DEFAULT_VNODES, HashRing

__all__ = ["ShardMap", "ShardedCluster"]


@dataclass(frozen=True)
class ShardMap:
    """A versioned routing table: who owns which slice of the key space.

    Routers cache a snapshot and compare epochs against the cluster's
    authoritative map; a mismatch means a membership change happened and
    the cached routing may be stale.
    """

    epoch: int
    ring: HashRing

    def owner(self, key: bytes) -> str:
        """Shard owning ``key`` under this map."""
        return self.ring.route(key)


class ShardedCluster:
    """N Precursor shards plus the authoritative shard map.

    Parameters
    ----------
    shards:
        Initial shard count (names default to ``shard-0..N-1``).
    config:
        Per-shard :class:`~repro.core.server.ServerConfig`; every shard
        gets the same configuration (one binary, one measurement).
    vnodes / seed:
        Ring geometry; deterministic placement under ``seed``.
    obs:
        Shared observability context; defaults to a fresh one.
    """

    def __init__(
        self,
        shards: int = 2,
        config: ServerConfig = None,
        vnodes: int = DEFAULT_VNODES,
        seed: int = 0,
        obs: ObsContext = None,
        shard_names: Optional[List[str]] = None,
        replicas: int = 0,
        ack_mode: str = "sync",
        async_flush_every: int = 4,
    ):
        if shard_names is not None:
            names = list(shard_names)
            if len(names) != len(set(names)):
                raise ConfigurationError(f"duplicate shard names: {names}")
        else:
            if shards < 1:
                raise ConfigurationError(
                    f"need at least one shard, got {shards}"
                )
            names = [f"shard-{i}" for i in range(shards)]
        if replicas < 0:
            raise ConfigurationError(f"replicas must be >= 0, got {replicas}")
        self.config = config if config is not None else ServerConfig()
        self.obs = obs if obs is not None else ObsContext.create()
        self.replicas = replicas
        self.ack_mode = ack_mode
        self.async_flush_every = async_flush_every
        self.testbed: TestbedSpec = sharded_testbed(len(names), replicas)
        self._groups: Dict[str, ReplicaGroup] = {}
        self._next_index = 0  # server spawn ordinal (migration-IV space)
        self._name_seq = 0  # default shard-name ordinal
        for name in names:
            self._spawn_group(name)
        self.shard_map = ShardMap(epoch=1, ring=HashRing(names, vnodes, seed))
        # Epoch 1 goes through the event ring like every later install,
        # so an offline reconstruction of a flight dump sees the full
        # topology history from the founding membership onward.
        self.obs.record_event(
            "epoch_install", epoch=1, shards=list(self.shard_map.ring.shards)
        )
        self._engine = MigrationEngine(self)
        #: Sealed persistence for *explicit operator snapshots*, shared
        #: cluster-wide: every shard runs the same measurement, so one
        #: manager (one sealing key + counter guard) serves them all.
        #: Crash durability is the replica groups' job, not this one's.
        self.checkpoints = CheckpointManager()
        self._obs_epoch = self.obs.registry.gauge(
            "shard_map_epoch", "current shard-map epoch"
        )
        self._obs_epoch.set(self.shard_map.epoch)

    def _spawn_server(self, name: str) -> PrecursorServer:
        server = PrecursorServer(
            fabric=Fabric(),
            config=self.config,
            obs=self.obs,
            shard_name=name,
            shard_index=self._next_index,
        )
        self._next_index += 1
        # Start now (idempotent): a member must be polling before the
        # migration engine or replication log imports entries into it, or
        # the first client connection would re-issue ``init_hashtable``
        # and wipe them.
        server.start()
        return server

    def _spawn_group(self, name: str) -> ReplicaGroup:
        primary = self._spawn_server(name)
        backups = [
            self._spawn_server(f"{name}/b{i}") for i in range(self.replicas)
        ]
        group = ReplicaGroup(
            name,
            primary,
            backups,
            ack_mode=self.ack_mode,
            obs=self.obs,
            async_flush_every=self.async_flush_every,
        )
        self._groups[name] = group
        self._name_seq += 1
        return group

    # -- introspection -----------------------------------------------------

    @property
    def shards(self) -> Tuple[str, ...]:
        """Current member shard names (ring order)."""
        return self.shard_map.ring.shards

    @property
    def epoch(self) -> int:
        """Current shard-map epoch."""
        return self.shard_map.epoch

    def server(self, name: str) -> PrecursorServer:
        """The server currently *primary* for shard ``name``."""
        return self.group(name).primary

    def group(self, name: str) -> ReplicaGroup:
        """The replica group behind shard ``name``."""
        group = self._groups.get(name)
        if group is None:
            raise ConfigurationError(f"unknown shard {name!r}")
        return group

    @property
    def promotions(self) -> int:
        """Backup promotions performed across every group."""
        return sum(g.promotions for g in self._groups.values())

    @property
    def lost_records(self) -> int:
        """Acked log records lost at promotions (async tails), all groups."""
        return sum(g.lost_records for g in self._groups.values())

    def owner(self, key: bytes) -> str:
        """Authoritative owner of ``key``."""
        return self.shard_map.owner(key)

    def server_for(self, key: bytes) -> PrecursorServer:
        """Authoritative owning server of ``key``."""
        return self.server(self.owner(key))

    def key_counts(self) -> Dict[str, int]:
        """Stored keys per shard (live shards only)."""
        return {
            name: self.server(name).key_count for name in self.shards
        }

    def total_keys(self) -> int:
        """Keys stored across all live shards."""
        return sum(self.key_counts().values())

    def trusted_bytes(self) -> Dict[str, int]:
        """Per-shard enclave working set (the Table-1 census, per shard)."""
        return {
            name: self.server(name).trusted_working_set_bytes()
            for name in self.shards
        }

    def process_pending(self) -> int:
        """Pump every live shard's polling loop once (explicit-pump mode)."""
        return sum(
            server.process_pending()
            for server in map(self.server, self.shards)
            if not server.crashed
        )

    # -- membership changes ------------------------------------------------

    def _install_map(self, ring: HashRing, epoch: int) -> None:
        # Called by the migration engine once every key is in place.
        self.shard_map = ShardMap(epoch=epoch, ring=ring)
        self._obs_epoch.set(epoch)
        self.obs.record_event(
            "epoch_install", epoch=epoch, shards=list(ring.shards)
        )

    def add_shard(self, name: str = None) -> MigrationReport:
        """Join a new shard: spawn its group, rebalance, bump the epoch.

        Consistent hashing moves ~``1/(n+1)`` of the keys, all of them
        *onto* the joiner (and, via the joiner's replication hook, onto
        its backups).
        """
        if name is None:
            name = f"shard-{self._name_seq}"
        if name in self._groups:
            raise ConfigurationError(f"shard {name!r} already exists")
        self._spawn_group(name)
        self.obs.record_event("shard_join", shard=name)
        report = self._engine.rebalance(self.shard_map.ring.with_shard(name))
        # Only a *successful* join changes the testbed shape; a rebalance
        # aborted by a shard failure leaves the old spec authoritative.
        self.testbed = sharded_testbed(len(self.shards), self.replicas)
        return report

    def remove_shard(self, name: str) -> MigrationReport:
        """Drain and retire shard ``name`` (its keys spread over the rest)."""
        if name not in self.shard_map.ring:
            raise ConfigurationError(f"shard {name!r} not in the ring")
        self.obs.record_event("shard_leave", shard=name)
        report = self._engine.rebalance(self.shard_map.ring.without_shard(name))
        retired = self._groups.pop(name)
        # The drain's evictions replicate through the primary's hook;
        # flush so an async group's backups drop their tail too, then
        # verify no member of the retiring group still holds a key.
        retired.flush()
        retired.primary.replication_hook = None
        for member in retired.members():
            if not member.crashed and member.key_count:
                raise ConfigurationError(
                    f"shard {name!r} retired with {member.key_count} keys "
                    f"left on {member.shard_name!r}"
                )
        self.testbed = sharded_testbed(len(self.shards), self.replicas)
        return report

    def add_replica(self, name: str) -> PrecursorServer:
        """Grow shard ``name``'s replica group by one fresh backup.

        The backup is a full machine (own fabric, NIC, enclave) spawned
        under the next migration-IV ordinal, folded in via the group's
        full state transfer -- it participates in the ack contract from
        the moment this returns.  No ring or epoch change: replica
        membership is invisible to routing.
        """
        group = self.group(name)
        backup = self._spawn_server(f"{name}/b{self._next_index}")
        group.add_backup(backup)
        self.obs.record_event(
            "replica_join", shard=name, backup=backup.shard_name
        )
        return backup

    def remove_replica(self, name: str) -> PrecursorServer:
        """Shrink shard ``name``'s replica group by one backup.

        The group picks the cheapest victim (crashed first, then
        least-applied); see :meth:`ReplicaGroup.remove_backup`.  The
        caller is responsible for not shrinking below the ack
        contract's floor -- the autoscaler's stability guard enforces
        ``min_replicas`` for exactly this reason.
        """
        group = self.group(name)
        victim = group.remove_backup()
        self.obs.record_event(
            "replica_leave", shard=name, backup=victim.shard_name
        )
        return victim

    # -- failures and recovery ----------------------------------------------

    def crash_shard(self, name: str) -> PrecursorServer:
        """Fail shard ``name``'s primary, promoting a backup if one lives.

        The primary's enclave dies with everything it had not shipped:
        there is **no checkpoint at the crash instant** -- what survives
        is exactly what the group's acknowledged-write contract shipped
        to backups.  With a live backup, the group promotes its most
        caught-up member and the cluster installs the *same* ring under a
        bumped epoch (the failover fence routers re-attest through).
        Without one, the shard simply stays dark -- clients see errored
        QPs and :class:`ShardUnavailableError` until either a router
        triggers :meth:`handle_shard_failure` or an operator runs
        :meth:`restore_shard`.  Returns the crashed server; the group's
        ``last_failover`` report carries the promotion details.
        """
        server = self.server(name)
        if server.crashed:
            raise ConfigurationError(f"shard {name!r} is already down")
        self.obs.record_event("shard_crash", shard=name)
        server.crash()
        self._promote_if_possible(name)
        if self.obs.flight is not None:
            self.obs.flight.trigger("shard_crash", shard=name)
        return server

    def _promote_if_possible(self, name: str) -> Optional[FailoverReport]:
        group = self._groups[name]
        if not group.live_backups():
            return None
        report = group.promote()
        # Same ring, new epoch: the fence that tells every router "the
        # member behind this shard name changed, re-route and re-attest".
        self._install_map(self.shard_map.ring, self.shard_map.epoch + 1)
        self.obs.registry.counter(
            "recoveries_total",
            "recovery actions taken",
            {"kind": "promotion"},
        ).inc()
        return report

    def handle_shard_failure(self, name: str) -> bool:
        """Route around a dead shard: drop it from the ring, bump the epoch.

        No migration runs -- the dead shard cannot export.  Its keys stay
        unavailable (routed requests answer NOT_FOUND on the new owners)
        until :meth:`restore_shard` brings them back.  Returns False when
        the shard already left the ring (idempotent under races between
        routers).  Raises :class:`ShardUnavailableError` when the failed
        shard was the last member: there is nowhere left to route.
        """
        if name not in self.shard_map.ring:
            return False
        if len(self.shards) == 1:
            raise ShardUnavailableError(
                f"shard {name!r} was the cluster's last member"
            )
        self.obs.record_event("route_around", shard=name)
        self._install_map(
            self.shard_map.ring.without_shard(name), self.shard_map.epoch + 1
        )
        return True

    def restore_shard(self, name: str) -> int:
        """Bring shard ``name`` back to full strength after a crash.

        The healing path depends on what the crash left behind:

        - the usual case -- a backup was already promoted -- restarts the
          dead ex-primary (fresh enclave, same measurement, *empty*
          state) and folds it back in as a backup via a full resync from
          the current primary;
        - a primary still dark but with live backups (no router touched
          the shard since the crash) is promoted first, then healed the
          same way;
        - a group with nothing live (``replicas=0``, or everyone dead)
          restarts the primary empty: unreplicated data is **gone**, and
          clients that hold freshness claims for it will detect the loss
          (:class:`~repro.errors.StaleReadError`) -- exactly what the
          paper's trust model promises, no more.

        If a route-around removed the shard from the ring meanwhile, it
        is rebalanced back in (keys written to survivors during the
        outage migrate over).  Returns the number of entries resynced
        into rejoining members.
        """
        group = self.group(name)
        if group.primary.crashed:
            if group.live_backups():
                self._promote_if_possible(name)
            else:
                group.primary.restart()
                group.primary.start()
        restored = group.rejoin()
        if name not in self.shard_map.ring:
            self._engine.rebalance(self.shard_map.ring.with_shard(name))
        self.obs.record_event("shard_restore", shard=name, resynced=restored)
        self.obs.registry.counter(
            "recoveries_total",
            "recovery actions taken",
            {"kind": "crash_restart"},
        ).inc()
        return restored
