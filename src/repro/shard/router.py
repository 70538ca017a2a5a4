"""The shard-aware client router.

A :class:`ShardedClient` wraps one attested
:class:`~repro.core.client.PrecursorClient` session (QP pair, reply
ring, replay counter) *per shard*, all under a single client identity,
and routes every operation by key hash through a cached snapshot of the
cluster's shard map.  Multi-key batches are fanned out per shard and the
replies merged back into request order; a single-key ``put``/``get`` is
a batch of one, so batches fail over, cache and anchor freshness claims
exactly as single keys do.

Epoch protocol (see ``docs/SHARDING.md``):

- **writes** are epoch-fenced: before a ``put`` the router validates its
  cached epoch against the authoritative map and refreshes when stale,
  so a write can never land on a shard that no longer owns the key;
- **reads/deletes** route optimistically on the cached map.  When a
  migration raced the operation, the old owner answers ``NOT_FOUND``;
  the router then notices the epoch bump, refreshes its snapshot and
  retries the operation against the new owner -- the "in-flight clients
  retry stale-routed ops" half of the protocol.  A genuine miss under a
  current epoch propagates unchanged.

All of Precursor's client-side guarantees are per-underlying-session and
survive routing: payload MACs are verified by the same code path, replay
counters stay per (client, shard) session, and a one-shard router is
protocol-equivalent to a direct client.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Dict, Optional, Tuple

from repro.cache import NearCache
from repro.core.client import (
    PrecursorClient,
    _first_failure,
    allocate_client_id,
)
from repro.crypto.keys import KeyGenerator
from repro.errors import (
    AccessError,
    ConfigurationError,
    IntegrityError,
    KeyNotFoundError,
    OperationTimeoutError,
    PrecursorError,
    ShardUnavailableError,
    StaleReadError,
)
from repro.replica import FreshnessTracker

__all__ = ["ShardedClient"]


class ShardedClient:
    """A client that speaks to a whole :class:`ShardedCluster`.

    Parameters mirror :class:`~repro.core.client.PrecursorClient` where
    they apply; ``client_id`` defaults to a fresh process-wide id used on
    *every* shard, so ownership metadata stays valid when entries migrate
    between shards.

    With ``track_freshness`` enabled the router keeps a client-side
    :class:`~repro.replica.FreshnessTracker`: the payload MAC of every
    acknowledged single-key write is remembered, and any later read that
    contradicts it -- an older version served back, an acked key gone
    missing, a deleted key resurrected -- raises
    :class:`~repro.errors.StaleReadError`.  This is the *client-centric*
    failover check: no replica, no oracle, just the MACs the client
    already computes.  The single-writer caveat applies: the tracker only
    speaks for this router's own acked writes.

    ``near_cache`` adds a bounded client-side read cache
    (:mod:`repro.cache.nearcache`): a ``get`` whose cached entry passes
    every validity rule -- intact checksum, current ring epoch,
    unexpired lease, MAC equal to the freshness claim -- is served with
    no network round trip at all; anything less revalidates over the
    verified read path.  ``read_offload`` adds freshness-token reads
    against replica backups: the router picks a live backup whose
    applied log position has reached its own claimed position for the
    shard, reads through a dedicated attested session, and serves the
    result only when the payload MAC equals the claim -- every other
    outcome (lagging backup, miss, stale version, tamper, dead session)
    is a *counted fallback* to the primary, never an error.  Both
    features run the tracker in advisory mode unless ``track_freshness``
    is also set (strict mode keeps its single-writer contract).
    """

    def __init__(
        self,
        cluster,
        client_id: Optional[int] = None,
        keygen: Optional[KeyGenerator] = None,
        auto_pump: bool = True,
        expected_measurement: Optional[bytes] = None,
        trace_ops: bool = True,
        max_retries: int = 0,
        track_freshness: bool = False,
        near_cache: bool = False,
        cache_entries: int = 256,
        cache_lease_ns: Optional[int] = None,
        cache_clock=None,
        read_offload: bool = False,
    ):
        self.cluster = cluster
        self.obs = cluster.obs
        self.client_id = (
            client_id if client_id is not None else allocate_client_id()
        )
        self.keygen = keygen if keygen is not None else KeyGenerator()
        self._auto_pump = auto_pump
        self._expected_measurement = expected_measurement
        self._trace_ops = trace_ops
        self._max_retries = max_retries
        self._map = cluster.shard_map
        self._clients: Dict[str, PrecursorClient] = {}
        # Every session ever opened, keyed by server identity: failing
        # *back* to a member we already attested to must revive its old
        # session (our host is still attached to that server's fabric).
        self._by_server: Dict[int, PrecursorClient] = {}
        for name in cluster.shards:
            self._connect(name)

        #: Operations routed through this client, and stale-map events.
        self.operations = 0
        self.stale_retries = 0
        self.failovers = 0
        #: Sessions re-attested because a promotion swapped the primary.
        self.promotions_followed = 0
        registry = self.obs.registry
        self._obs_routed = {}
        self._obs_stale = registry.counter(
            "router_stale_retries_total",
            "operations re-routed after a shard-map epoch bump",
        )
        self._obs_failover = registry.counter(
            "recoveries_total",
            "recovery actions taken",
            {"kind": "failover"},
        )
        self._obs_promoted = registry.counter(
            "router_promotion_follows_total",
            "sessions re-attested against a promoted primary",
        )
        self._obs_detections = registry.counter(
            "client_staleness_detections_total",
            "client-side MAC-freshness staleness detections",
        )
        self._obs_cache_hits = registry.counter(
            "client_cache_hits_total",
            "near-cache hits served without a network read",
        )
        self._obs_cache_misses = registry.counter(
            "client_cache_misses_total",
            "near-cache lookups that fell through to a network read",
        )
        self._obs_cache_reval = registry.counter(
            "client_cache_revalidations_total",
            "cached entries refused (checksum/epoch/lease/claim) and "
            "revalidated over the verified read path",
        )
        self._obs_cache_unchanged = registry.counter(
            "client_cache_revalidations_unchanged_total",
            "revalidations whose verified reply equalled the refused "
            "entry's basis byte for byte (no payload crypto ran)",
        )
        self._obs_cache_entries = registry.gauge(
            "client_cache_entries",
            "live near-cache entries per routing client",
            {"client": str(self.client_id)},
        )
        self._obs_cache_migration_drops = registry.counter(
            "client_cache_migration_drops_total",
            "cached entries dropped because a shard-map change moved "
            "their key's owner",
        )
        self._obs_offload_served = registry.counter(
            "client_offload_reads_total",
            "backup-offloaded reads by outcome",
            {"result": "served"},
        )
        self._obs_offload = {}

        # The near-cache and the read offload both validate against the
        # freshness ledger, so enabling either brings the tracker up --
        # in *advisory* mode unless strict tracking was asked for
        # (pooled multi-writer workloads must not raise on overwrites).
        self.freshness: Optional[FreshnessTracker] = None
        if track_freshness or near_cache or read_offload:
            self.freshness = FreshnessTracker(
                strict=track_freshness,
                on_detection=self._obs_detections.inc,
            )
        self.cache: Optional[NearCache] = None
        if near_cache:
            # Leases tick on the obs clock by default; deterministic
            # harnesses (chaos) pass their own logical clock so lease
            # expiry -- and therefore read routing -- is reproducible.
            self.cache = NearCache(
                capacity=cache_entries,
                **({"lease_ns": cache_lease_ns} if cache_lease_ns else {}),
                clock=(
                    cache_clock
                    if cache_clock is not None
                    else self.obs.tracer.clock
                ),
            )
        self._offload = bool(read_offload)
        #: Dedicated attested backup-read sessions, keyed by server
        #: identity (shared with ``_by_server`` so promotions and
        #: demotions revive rather than re-attach).
        self._backup_sessions: Dict[int, PrecursorClient] = {}
        #: Per-shard log position of this client's last acked mutation
        #: (the ack's piggybacked LSN): a backup must have applied at
        #: least this much before it may serve this client's reads.
        self._claimed_lsn: Dict[str, int] = {}
        #: Where the last ``get`` was served from: cache|backup|primary.
        self.last_read_path = "primary"
        self.offload_reads = 0
        self.offload_fallbacks = 0

    # -- connections -------------------------------------------------------

    def _session(self, server) -> PrecursorClient:
        """A fresh attested session with ``server`` under this router's
        identity and retry policy."""
        return PrecursorClient(
            server,
            client_id=self.client_id,
            keygen=self.keygen,
            auto_pump=self._auto_pump,
            expected_measurement=self._expected_measurement,
            obs=self.obs,
            trace_ops=False,  # the router traces whole routed operations
            max_retries=self._max_retries,
        )

    def _connect(self, shard: str) -> PrecursorClient:
        client = self._session(self.cluster.server(shard))
        self._clients[shard] = client
        self._by_server[id(client.server)] = client
        return client

    def _client(self, shard: str) -> PrecursorClient:
        client = self._clients.get(shard)
        if client is not None:
            try:
                current = self.cluster.server(shard)
            except ConfigurationError:
                # A retired shard (stale-map route) has no cluster entry;
                # the kept session answers NOT_FOUND and the epoch retry
                # re-routes.
                current = client.server
            if client.server is not current:
                # A failover promoted a different member behind this shard
                # name: the old session's QPs died with the old primary, so
                # re-attest against the new one.  (A *restarted* server is
                # the same object -- plain reconnects keep their session.)
                self.promotions_followed += 1
                self._obs_promoted.inc()
                self.obs.hop("reattach", shard=shard)
                # Everything this shard cached was read from the old
                # primary; the promotion fence (epoch bump) already
                # refuses it lazily, dropping it eagerly frees the
                # space and keeps the invariant visible.
                self._drop_cached_shard(shard)
                # The promoted member's backup-read session (if any)
                # graduates to the primary session below.
                self._backup_sessions.pop(id(current), None)
                cached = self._by_server.get(id(current))
                if cached is not None:
                    # Failing *back* to a member we once held a session
                    # with (e.g. the original primary after a rejoin):
                    # revive that session with a full reconnect handshake
                    # rather than re-attaching our host to its fabric.
                    cached.revive()
                    self._clients[shard] = cached
                    return cached
                client = None
        if client is None:
            # A shard that joined after this router connected, or a
            # promoted primary: attest and open a session on first contact.
            client = self._connect(shard)
        return client

    @property
    def sessions(self) -> Dict[str, PrecursorClient]:
        """Live per-shard sessions (shard name -> client)."""
        return dict(self._clients)

    def _all_sessions(self):
        """Every session this router ever opened, primary or backup-read.

        A promotion replaces a shard's session and a failed backup read
        drops its session; neither may erase the counts it holds.
        """
        return self._by_server.values()

    @property
    def integrity_failures(self) -> int:
        """MAC verification failures across every session."""
        return sum(c.integrity_failures for c in self._all_sessions())

    @property
    def retries(self) -> int:
        """Operation retries across every session."""
        return sum(c.retries for c in self._all_sessions())

    @property
    def reconnects(self) -> int:
        """Reconnects (QP + re-attestation) across every session."""
        return sum(c.reconnects for c in self._all_sessions())

    # -- shard map handling ------------------------------------------------

    @property
    def epoch(self) -> int:
        """Epoch of the cached shard-map snapshot."""
        return self._map.epoch

    def refresh_map(self) -> bool:
        """Re-fetch the shard map; returns True when it had changed."""
        current = self.cluster.shard_map
        if current.epoch == self._map.epoch:
            return False
        self._map = current
        self._drop_moved_entries(current)
        return True

    def _drop_moved_entries(self, current) -> None:
        """Eagerly drop cached entries whose keys changed owner.

        Voluntary joins/leaves move key ranges without any promotion, so
        the re-attestation drop path never fires -- yet the moved keys'
        entries are now filled against the wrong shard.  The epoch fence
        would refuse them lazily one lookup at a time; dropping them the
        moment the router adopts the new map keeps the LRU honest under
        autoscaler-driven churn.
        """
        if self.cache is None:
            return
        dropped = self.cache.drop_moved(current.owner)
        if dropped:
            self._obs_cache_migration_drops.inc(dropped)
            self._obs_cache_entries.set(self.cache.entries)
            self.obs.hop(
                "cache_migration_drop",
                epoch=current.epoch,
                dropped=dropped,
            )

    def _note_stale(self) -> None:
        self.stale_retries += 1
        self._obs_stale.inc()
        self.obs.hop("stale_retry", epoch=self._map.epoch)

    def _route(self, key: bytes, fenced: bool) -> Tuple[PrecursorClient, str]:
        """Pick the shard for ``key``; fence writes against stale epochs."""
        if fenced and self.cluster.shard_map.epoch != self._map.epoch:
            self.refresh_map()
            self._note_stale()
        shard = self._map.owner(key)
        counter = self._obs_routed.get(shard)
        if counter is None:
            counter = self.obs.registry.counter(
                "router_routed_ops_total",
                "operations routed to each shard",
                {"shard": shard},
            )
            self._obs_routed[shard] = counter
        counter.inc()
        self.obs.hop(
            "route", shard=shard, epoch=self._map.epoch, fenced=fenced
        )
        return self._client(shard), shard

    # -- failover ----------------------------------------------------------

    def _failover(self, shard: str) -> None:
        """Route around a dead shard: drop it from the ring, refresh."""
        self.cluster.handle_shard_failure(shard)
        self.refresh_map()
        self._drop_cached_shard(shard)
        self.failovers += 1
        self._obs_failover.inc()
        self.obs.hop("failover", shard=shard)

    def _route_all(self, keys, indices, fenced: bool):
        """Route ``keys[i]`` per index: ``[(shard, client, group)]``."""
        groups = {}
        for i in indices:
            client, shard = self._route(keys[i], fenced)
            groups.setdefault(shard, (client, []))[1].append(i)
        return [(shard, client, group) for shard, (client, group) in groups.items()]

    def _failover_retry(self, keys, indices, fenced: bool, run, outcomes):
        """Run ``indices`` of ``keys`` on their owners, surviving a death.

        ``run(client, group)`` serves one shard's group of indices as
        ``(settled, error)`` (:meth:`PrecursorClient._puts` and kin); the
        settled outcomes land in ``outcomes`` and ``error`` is raised.
        When a group's window dies, three recoveries are possible, tried
        in order:

        - a replica **promotion** already swapped the member behind the
          shard name (the cluster's server for the shard is alive but is
          not this session's server): refresh the fence epoch and retry
          -- ``_client`` re-attests against the new primary;
        - the shard is down with nothing promoted: mark it failed
          cluster-wide (ring minus shard, epoch bump) and retry against
          the new owners.  The dead shard's session object is *kept*: on
          restore the same client reconnects and resumes its oid
          sequence.
        - the member is alive and *is* this session's server, yet the
          exchange died at the transport: the server crashed and came
          back behind our back while no operation routed here (crash ->
          rejoin -> re-promotion leaves the same object primary again,
          with this session's QPs errored by the original crash).
          Revive the session -- full handshake plus oid realignment
          against the restarted replay filter -- and retry.

        The retry re-routes only the group's unsettled indices and runs
        them once more.  Failures that are none of these propagate
        unchanged.
        """
        if not indices:
            return

        def attempt(client, group):
            settled, error = run(client, group)
            for i, outcome in zip(group, settled):
                outcomes[i] = outcome
            if error is not None:
                raise error

        with self.obs.tracer.stage("router.route"):
            groups = self._route_all(keys, indices, fenced)
        for shard, client, group in groups:
            try:
                attempt(client, group)
            except (ShardUnavailableError, AccessError, OperationTimeoutError):
                current = self.cluster.server(shard)
                if not current.crashed and current is not client.server:
                    # Failover fence: a backup was promoted under a bumped
                    # epoch; pick it up and re-route.
                    self.refresh_map()
                    self.obs.hop("promotion_follow", shard=shard)
                elif current.crashed:
                    self._failover(shard)
                else:
                    self.refresh_map()
                    self.obs.hop("revive", shard=shard)
                    client.revive()
                rest = [i for i in group if outcomes[i] is None]
                with self.obs.tracer.stage("router.route"):
                    regroups = self._route_all(keys, rest, fenced)
                for _shard, client, regroup in regroups:
                    attempt(client, regroup)

    def _settle(self, keys, indices, run, outcomes) -> None:
        """:meth:`_failover_retry` for reads and deletes, plus the epoch retry.

        A ``NOT_FOUND`` is either a true miss or a stale route that raced
        a migration; only an epoch bump warrants running the misses (and
        what their windows left unsettled) once more.  A final miss is
        stale-loss checked (:meth:`_check_absent`) and may become a
        :class:`~repro.errors.StaleReadError`.
        """
        self._failover_retry(keys, indices, False, run, outcomes)
        missing = [i for i in indices if isinstance(outcomes[i], KeyNotFoundError)]
        if missing and self.refresh_map():
            self._note_stale()
            rerun = [i for i in indices if outcomes[i] is None or i in missing]
            for i in rerun:
                outcomes[i] = None
            self._failover_retry(keys, rerun, False, run, outcomes)
            missing = [i for i in rerun if isinstance(outcomes[i], KeyNotFoundError)]
        for i in missing:
            try:
                self._check_absent(keys[i])
            except StaleReadError as exc:
                outcomes[i] = exc

    # -- tracing -----------------------------------------------------------

    def _traced(self, op: str, run, arg):
        """``run(arg)`` as one routed operation, with its trace record.

        The record starts only when tracing is on and none is active on
        this thread (a caller running under its own record keeps it --
        the stages and hops nest there).
        """
        tracer = self.obs.tracer
        traced = self._trace_ops and tracer.current is None
        with (
            tracer.start(op, client_id=self.client_id, routed=True)
            if traced
            else nullcontext()
        ):
            return run(arg)

    def _observe(self, key: bytes, op: str, t0_ns: int, ok: bool) -> None:
        """Feed the routed operation's latency to the telemetry pipeline."""
        pipeline = self.obs.telemetry
        if pipeline is None:
            return
        latency = self.obs.tracer.clock.now_ns() - t0_ns
        pipeline.observe(self._map.owner(key), op, latency, ok=ok)

    # -- near-cache --------------------------------------------------------

    def _cache_lookup(self, key: bytes):
        """Serve ``key`` from the near-cache when every rule holds.

        Returns ``(value, basis)``: the hit's value, or None and the
        refused intact entry (None if there was none) for the
        revalidation to pass to :meth:`PrecursorClient.get`.

        The validation token is the freshness claim and the fence is the
        *authoritative* ring epoch (not this router's possibly stale
        snapshot): a promotion that bumped the epoch an instant ago
        must already refuse the pre-failover entry, even before any
        operation noticed the bump.
        """
        cache = self.cache
        claim = self.freshness.claim(key)
        if claim is None:
            # No claim, or a tombstone: nothing to validate a hit
            # against -- read through (which establishes a claim).
            cache.misses += 1
            self._obs_cache_misses.inc()
            return None, None
        before = cache.revalidations
        value = cache.lookup(key, self.cluster.shard_map.epoch, claim)
        if value is not None:
            self._obs_cache_hits.inc()
            return value, None
        self._obs_cache_misses.inc()
        if cache.revalidations > before:
            self._obs_cache_reval.inc()
        return None, cache.refused

    def _cache_fill(
        self, key: bytes, value: bytes, k_operation: bytes, payload
    ) -> None:
        """Cache a verified read / acked write under the current epoch.

        ``k_operation`` and ``payload`` are what the value was verified
        or encrypted under.
        """
        if self.cache is None:
            return
        self.cache.fill(
            key, value, payload.mac,
            shard=self._map.owner(key),
            epoch=self.cluster.shard_map.epoch,
            k_operation=k_operation,
            ciphertext=payload.ciphertext,
        )
        self._obs_cache_entries.set(self.cache.entries)

    def _reads(self, client: PrecursorClient, keys, bases):
        """``client``'s verified reads (:meth:`PrecursorClient._gets`).

        Counts the reads the session answered from their basis.
        """
        unchanged = client.unchanged_reads
        outcomes, error = client._gets(keys, bases)
        if client.unchanged_reads != unchanged:
            self._obs_cache_unchanged.inc(client.unchanged_reads - unchanged)
        return outcomes, error

    def _cache_invalidate(self, key: bytes) -> None:
        if self.cache is not None and self.cache.invalidate(key):
            self._obs_cache_entries.set(self.cache.entries)

    def _drop_cached_shard(self, shard: str) -> None:
        if self.cache is not None and self.cache.drop_shard(shard):
            self._obs_cache_entries.set(self.cache.entries)

    def drop_cache(self) -> int:
        """Empty the near-cache (forces every next read to the store)."""
        if self.cache is None:
            return 0
        dropped = self.cache.clear()
        self._obs_cache_entries.set(0)
        return dropped

    def cache_stats(self) -> Optional[dict]:
        """Near-cache counter snapshot, or None when caching is off."""
        return None if self.cache is None else self.cache.stats()

    # -- backup read offload -----------------------------------------------

    def _note_claimed_lsn(self, key: bytes) -> None:
        """Record the acked mutation's log position for ``key``'s shard.

        Models the ack frame piggybacking its log LSN: the record was
        logged before the ack existed, so the group's newest LSN at ack
        time upper-bounds (and here equals) the write's position.
        """
        if not self._offload:
            return
        shard = self._map.owner(key)
        try:
            group = self.cluster.group(shard)
        except PrecursorError:
            return
        self._claimed_lsn[shard] = group.last_lsn

    def _offload_fallback(self, reason: str) -> None:
        self.offload_fallbacks += 1
        counter = self._obs_offload.get(reason)
        if counter is None:
            counter = self.obs.registry.counter(
                "client_offload_reads_total",
                "backup-offloaded reads by outcome",
                {"result": f"fallback_{reason}"},
            )
            self._obs_offload[reason] = counter
        counter.inc()
        self.obs.hop("offload_fallback", reason=reason)

    def _backup_client(self, backup) -> Optional[PrecursorClient]:
        """The attested backup-read session for ``backup``, or None.

        Reuses a session we once held with the member in any role (a
        demoted ex-primary after a rejoin) via a full revive; otherwise
        attests fresh.  Returns None when the handshake fails -- the
        caller falls back to the primary.
        """
        session = self._backup_sessions.get(id(backup))
        if session is not None:
            return session
        session = self._by_server.get(id(backup))
        if session is not None:
            try:
                session.revive()
            except PrecursorError:
                return None
            self._backup_sessions[id(backup)] = session
            return session
        try:
            session = self._session(backup)
        except PrecursorError:
            return None
        self._backup_sessions[id(backup)] = session
        self._by_server[id(backup)] = session
        return session

    def _offload_read(self, key: bytes, basis):
        """Try a freshness-token read on a backup; None => use the primary.

        Returns ``(value, (k_operation, payload))`` when the backup's
        answer is served; ``basis`` is the refused cache entry, as for a
        primary read.

        The contract (``docs/CACHING.md``): the client only accepts a
        backup's answer when (a) the backup's applied log position has
        reached the client's claimed position for the shard and (b) the
        returned payload MAC equals the client's freshness claim for the
        key.  Every other outcome is a counted fallback -- a lagging
        backup under ``inject_lag`` or an async window degrades to a
        primary read, it never produces an error or a stale value.
        """
        if not self.freshness.expects_value(key):
            return None  # no token to attach; the primary read adopts one
        shard = self._map.owner(key)
        try:
            group = self.cluster.group(shard)
        except PrecursorError:
            return None  # retired/unknown shard: let the normal path route
        if not group.backups:
            return None
        backup = group.backup_read_target(self._claimed_lsn.get(shard, 0))
        if backup is None:
            self._offload_fallback("lagging")
            return None
        client = self._backup_client(backup)
        if client is None:
            self._offload_fallback("session")
            return None
        try:
            (outcome,), error = self._reads(client, [key], [basis])
            failure = _first_failure([outcome], error)
            if failure is not None:
                raise failure
        except KeyNotFoundError:
            self._offload_fallback("miss")
            return None
        except IntegrityError:
            # A torn/tampered backup record: the MAC check caught it,
            # the primary still holds the good copy.
            self._offload_fallback("tamper")
            return None
        except PrecursorError:
            self._offload_fallback("unavailable")
            self._backup_sessions.pop(id(backup), None)
            return None
        _value, (_k_operation, payload) = outcome
        if self.freshness.matches(key, payload.mac) is not True:
            # An older version than the claim (an applied-LSN race or a
            # resurrection): never accept it, never accuse the backup.
            self._offload_fallback("stale")
            return None
        self.offload_reads += 1
        self._obs_offload_served.inc()
        return outcome

    # -- key-value API -----------------------------------------------------

    def _check_absent(self, key: bytes) -> None:
        """A final NOT_FOUND: stale-loss check before it propagates.

        Runs only after the epoch-retry resolved (no pending map bump),
        so a NOT_FOUND that merely raced a migration never reaches it.
        """
        if self.freshness is not None:
            self.freshness.check_absent(key)

    def put(self, key: bytes, value: bytes) -> None:
        """Store ``value`` under ``key``: :meth:`put_many` of one item."""
        self._traced("put", self.put_many, [(key, value)])

    def get(self, key: bytes) -> bytes:
        """Fetch and verify ``key``: :meth:`get_many` of one key."""
        return self._traced("get", self.get_many, [key])[0]

    def delete(self, key: bytes) -> None:
        """Delete ``key``, retrying once after an epoch bump."""
        self._traced("delete", self._delete, key)

    def _delete(self, key: bytes) -> None:
        PrecursorClient._check_key(key)
        t0_ns = self.obs.tracer.clock.now_ns()
        outcomes = [None]
        try:
            self._settle(
                [key], [0], lambda client, _group: client._delete(key), outcomes
            )
            error = None
        except BaseException as exc:
            error = exc
        failure = _first_failure(outcomes, error) or error
        if failure is None:
            if self.freshness is not None:
                self.freshness.note_delete(key)
            self._cache_invalidate(key)
            self._note_claimed_lsn(key)
            self.operations += 1
            self._observe(key, "delete", t0_ns, ok=True)
            return
        # A miss changed nothing; any other failure (a detected loss
        # among them) leaves the delete's outcome unknown.
        if not isinstance(failure, KeyNotFoundError):
            if self.freshness is not None:
                self.freshness.forget(key)
            self._cache_invalidate(key)
        self._observe(key, "delete", t0_ns, ok=False)
        raise failure

    def put_many(self, items) -> int:
        """Store a batch, each item on its owning shard; returns its size.

        Epoch-fenced: every key is routed under a map validated against
        the authoritative epoch, so every item lands on its owner.  Each
        shard's share runs as windows on its session and survives the
        shard's death (:meth:`_failover_retry`).  Every acked item
        anchors its freshness claim, fills the near-cache and bounds the
        backup reads of its shard; an item whose outcome is unknown drops
        its claim and cached entry.  Raises the first failure in item
        order; an invalid key is refused before anything is routed.
        """
        items = list(items)
        keys = [key for key, _value in items]
        for key in keys:
            PrecursorClient._check_key(key)
        t0_ns = self.obs.tracer.clock.now_ns()
        outcomes = [None] * len(items)
        try:
            self._failover_retry(
                keys,
                range(len(keys)),
                True,
                lambda client, group: client._puts([items[i] for i in group]),
                outcomes,
            )
            error = None
        except BaseException as exc:
            error = exc
        for (key, value), outcome in zip(items, outcomes):
            if isinstance(outcome, tuple):
                k_operation, payload = outcome
                if self.freshness is not None:
                    self.freshness.note_write(key, payload.mac)
                # The client holds plaintext + acked MAC right here: an
                # ack is a free cache fill (and the ack's log position
                # bounds which backups may serve this client from now on).
                self._cache_fill(key, value, k_operation, payload)
                self._note_claimed_lsn(key)
                self.operations += 1
                self._observe(key, "put", t0_ns, ok=True)
            else:
                if self.freshness is not None:
                    # Unknown outcome: this key can no longer anchor a
                    # staleness claim.
                    self.freshness.forget(key)
                self._cache_invalidate(key)
                self._observe(key, "put", t0_ns, ok=False)
        failure = _first_failure(outcomes, error) or error
        if failure is not None:
            raise failure
        return len(items)

    def get_many(self, keys) -> list:
        """Fetch and verify a batch; values merge back in key order.

        With freshness tracking on, each verified payload MAC is compared
        against the last acknowledged write of its key; a mismatch (or a
        NOT_FOUND contradicting an acked write) raises
        :class:`~repro.errors.StaleReadError`.

        With the near-cache on, a validated hit short-circuits the
        network entirely, and a refused intact entry rides along the
        revalidation as its basis; with the read offload on, a
        qualifying backup serves the read and the primary is only
        consulted on fallback.  The rest run as windows per shard,
        surviving a shard's death and retried once after an epoch bump
        (:meth:`_settle`).  :attr:`last_read_path` records which lane
        answered the last key (``cache`` | ``backup`` | ``primary``).
        Raises the first failure in key order; a failed key's cached
        entry is dropped, so its next read revalidates from the store.
        """
        keys = list(keys)
        for key in keys:
            PrecursorClient._check_key(key)
        t0_ns = self.obs.tracer.clock.now_ns()
        outcomes = [None] * len(keys)
        bases = [None] * len(keys)
        lanes = ["primary"] * len(keys)
        for i, key in enumerate(keys):
            if self.cache is not None:
                cached, bases[i] = self._cache_lookup(key)
                if cached is not None:
                    outcomes[i], lanes[i] = (cached, None), "cache"
                    continue
            if self._offload:
                outcomes[i] = self._offload_read(key, bases[i])
                if outcomes[i] is not None:
                    lanes[i] = "backup"
        if keys:
            self.last_read_path = lanes[-1]
        try:
            self._settle(
                keys,
                [i for i, outcome in enumerate(outcomes) if outcome is None],
                lambda client, group: self._reads(
                    client, [keys[i] for i in group], [bases[i] for i in group]
                ),
                outcomes,
            )
            error = None
        except BaseException as exc:
            error = exc
        for i, key in enumerate(keys):
            outcome = outcomes[i]
            if isinstance(outcome, tuple):
                if lanes[i] == "primary" and self.freshness is not None:
                    try:
                        self.freshness.check_read(key, outcome[1][1].mac)
                    except StaleReadError as exc:
                        outcome = outcomes[i] = exc
            if not isinstance(outcome, tuple):
                self._cache_invalidate(key)
                self._observe(key, "get", t0_ns, ok=False)
                continue
            if lanes[i] != "cache":
                value, (k_operation, payload) = outcome
                self._cache_fill(key, value, k_operation, payload)
            self.operations += 1
            self._observe(key, "get", t0_ns, ok=True)
        failure = _first_failure(outcomes, error) or error
        if failure is not None:
            raise failure
        return [value for value, _record in outcomes]
