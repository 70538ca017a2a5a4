"""The chaos harness: seeded workloads under fault schedules, verified.

:func:`run_chaos` drives a deterministic key-value workload (a YCSB-ish
put/get/delete mix over a bounded keyspace) against a single server or a
sharded cluster while a :class:`~repro.faults.engine.FaultEngine` injects
faults, and checks every observable outcome against a shadow dict:

- a GET returning a value the shadow never stored (or a stale one) is a
  **silent corruption** violation;
- a GET/DELETE answering NOT_FOUND for a key the shadow holds -- with no
  shard down to excuse it -- is a **lost acked write** violation;
- a GET returning a value for a key the shadow deleted is a
  **resurrection** violation;
- an :class:`~repro.errors.IntegrityError` is *correct* behaviour (the
  client caught tampering); the harness counts it and repairs the key;
- a :class:`~repro.errors.StaleReadError` is likewise *correct*: the
  client's own MAC-freshness record caught a replica failover serving
  pre-loss state (``async`` groups).  Counted as ``loss_detected`` and
  repaired -- crucially, the *client* caught it, not the shadow oracle.

Replication (``replicas >= 1``) changes what ``shard_death`` means: the
primary's enclave dies with its unshipped log tail, a backup is promoted
(no checkpoint-at-crash exists), and the ack-mode contract decides what
survives.  Under ``sync``/``semi-sync`` a single primary death loses
nothing; under ``async`` tail writes die and every such loss must
surface as a client-side detection, never as a shadow-only discovery.
The router runs with freshness tracking enabled for exactly this reason.

Operations that exhaust their retry budget must fail with a *typed*
:class:`~repro.errors.PrecursorError`; the harness then resolves the
store's actual state with a fault-free readback so the shadow stays
truthful.  After the workload, every possible key is read back fault-free
and compared against the shadow exactly.

Determinism: one seed feeds the fault engine, a second derived stream
feeds the workload, so two runs with the same ``(seed, schedule)`` agree
byte-for-byte on the fault log (:meth:`FaultEngine.fingerprint`) and on
the final store state (:attr:`ChaosReport.state_digest`).
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.client import PrecursorClient
from repro.core.persistence import CheckpointManager
from repro.core.server import PrecursorServer, ServerConfig
from repro.crypto.keys import KeyGenerator
from repro.errors import (
    ConfigurationError,
    IntegrityError,
    KeyNotFoundError,
    PrecursorError,
    ShardUnavailableError,
    StaleReadError,
)
from repro.faults.engine import FaultEngine
from repro.faults.recovery import crash_restart
from repro.faults.schedule import FaultKind, FaultSchedule
from repro.obs import FlightRecorder, ManualClock, ObsContext
from repro.shard.spec import ClusterSpec

__all__ = ["ChaosReport", "run_chaos"]

#: Ops a dead shard stays down before the harness restores it.
_OUTAGE_SPAN = 3

#: Workload shape: keys drawn from a bounded keyspace (so gets and
#: deletes hit written keys), fixed-size values, and the client's retry
#: budget per operation before it gives up with a typed error.
_KEYSPACE = 24
_VALUE_SIZE = 32
_MAX_RETRIES = 4

#: Workload ops between telemetry ticks when the autoscaler is live.
_AUTOSCALE_EVERY = 10

#: Default chaos-mode policy: latency windows are empty here (the
#: harness drives no open-loop load), so pressure comes from the
#: probes -- the EPC working set crossing a split point (the working
#: set is bucket-granular: ~208 KiB for an idle enclave, ~258 KiB once
#: its table pages are touched, so 230 KiB sits exactly between the
#: steps), and replication lag opened up by injected lag faults (only
#: visible above the contract: run ``semi-sync``/``async`` to exercise
#: the replica rules).  Deliberately aggressive so topology actually
#: churns within a short chaos run; the guard still brackets the churn.
_CHAOS_POLICY = (
    "scale-out:epc>230KiB:for=2,scale-in:util<20%:for=6,"
    "replica-out:lag>3:for=1,replica-in:lag<1:for=4"
)


@dataclass
class ChaosReport:
    """Everything one chaos run observed."""

    seed: int
    schedule: str
    ops: int
    shards: Optional[int]
    #: Replication factor and ack mode of the cluster under test.
    replicas: int = 0
    ack_mode: Optional[str] = None
    #: Outcome class -> count (ok, miss, tamper_detected, unavailable, ...).
    outcomes: Dict[str, int] = field(default_factory=dict)
    #: Integrity violations -- empty on a correct run.
    violations: List[str] = field(default_factory=list)
    fault_counts: Dict[str, int] = field(default_factory=dict)
    fault_log: List[str] = field(default_factory=list)
    fault_fingerprint: str = ""
    #: SHA-256 over the final (fault-free) readback of the whole keyspace.
    state_digest: str = ""
    retries: int = 0
    reconnects: int = 0
    failovers: int = 0
    crash_restarts: int = 0
    tamper_detected: int = 0
    #: Failover losses the *client* caught via MAC freshness (async tails).
    losses_detected: int = 0
    #: Backup promotions performed across all groups.
    promotions: int = 0
    #: Acked log records the groups report lost at promotions (ground
    #: truth for tests: every one must be matched by client detections).
    lost_records: int = 0
    #: Near-cache / backup-offload configuration and counters (the new
    #: read paths run under the same shadow verification as everything
    #: else; the section is only serialized when a feature was on).
    near_cache: bool = False
    read_offload: bool = False
    cache_stats: Optional[dict] = None
    offload_served: int = 0
    offload_fallbacks: int = 0
    #: Flight-recorder dump triggered by the run's violations, if any.
    flight_dump: Optional[dict] = None
    #: Elastic-controller section (only serialized when it was live).
    autoscale: bool = False
    autoscale_decisions: int = 0
    autoscale_applied: int = 0
    autoscale_flapping: int = 0
    autoscale_log: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no integrity violation was observed."""
        return not self.violations

    @property
    def contract_broken(self) -> bool:
        """A ``sync``/``semi-sync`` group lost acked writes at a promotion.

        Those contracts promise zero acked loss, so a client-detected
        loss or a group-reported lost record is itself a violation.
        """
        return (
            self.replicas > 0
            and self.ack_mode in ("sync", "semi-sync")
            and (self.losses_detected > 0 or self.lost_records > 0)
        )

    @property
    def exit_code(self) -> int:
        """Process exit code: 0 clean; 1 on an integrity violation, a
        broken ack contract or a flapping autoscaler."""
        failed = self.violations or self.contract_broken
        return 1 if failed or self.autoscale_flapping else 0

    def to_dict(self) -> dict:
        """JSON-shaped view of the report (the ``--json`` CLI output)."""
        out = {
            "seed": self.seed,
            "schedule": self.schedule,
            "ops": self.ops,
            "shards": self.shards,
            "replicas": self.replicas,
            "ack_mode": self.ack_mode,
            "ok": self.ok,
            "outcomes": dict(self.outcomes),
            "violations": list(self.violations),
            "fault_counts": dict(self.fault_counts),
            "fault_fingerprint": self.fault_fingerprint,
            "state_digest": self.state_digest,
            "retries": self.retries,
            "reconnects": self.reconnects,
            "failovers": self.failovers,
            "crash_restarts": self.crash_restarts,
            "tamper_detected": self.tamper_detected,
            "losses_detected": self.losses_detected,
            "promotions": self.promotions,
            "lost_records": self.lost_records,
            "flight_dump_recorded": self.flight_dump is not None,
        }
        if self.near_cache or self.read_offload:
            out["near_cache"] = self.near_cache
            out["read_offload"] = self.read_offload
            out["cache_stats"] = (
                dict(self.cache_stats) if self.cache_stats else None
            )
            out["offload_served"] = self.offload_served
            out["offload_fallbacks"] = self.offload_fallbacks
        if self.autoscale:
            out["autoscale"] = {
                "enabled": True,
                "decisions": self.autoscale_decisions,
                "applied": self.autoscale_applied,
                "flapping": self.autoscale_flapping,
                "log": list(self.autoscale_log),
            }
        return out


def _workload_key(index: int) -> bytes:
    return b"key-%03d" % index


def _workload_value(op_index: int, size: int) -> bytes:
    return (b"v%06d-" % op_index).ljust(size, b"x")


class _ChaosRun:
    """One chaos run's mutable state (split out of run_chaos for clarity)."""

    def __init__(
        self,
        seed: int,
        schedule: FaultSchedule,
        ops: int,
        obs: Optional[ObsContext],
        cluster: ClusterSpec,
        autoscale: bool,
        autoscale_policy: Optional[str],
    ):
        self.ops = ops
        self.replicas = cluster.replicas
        self.obs = obs if obs is not None else ObsContext.create()
        if self.obs.flight is None:
            # Every chaos run carries its own black box: a red run dumps
            # the recent contexts/faults/events it recorded along the way.
            self.obs.attach_flight(FlightRecorder())
        self.oprng = random.Random((seed << 1) ^ 0x5EED)
        self.engine = FaultEngine(schedule, seed, obs=self.obs)
        self.report = ChaosReport(
            seed=seed,
            schedule=str(schedule),
            ops=ops,
            shards=cluster.shards,
            replicas=cluster.replicas,
            ack_mode=cluster.ack_mode if cluster.shards is not None else None,
            near_cache=cluster.near_cache,
            read_offload=cluster.read_offload,
        )
        self.shadow: Dict[bytes, bytes] = {}
        self.uncertain: set = set()
        self.down: Dict[str, int] = {}  # shard name -> restore-at op index

        if cluster.shards is None:
            self.cluster = None
            self.cache_clock = None
            self.server = PrecursorServer(
                obs=self.obs,
                config=ServerConfig(ecall_batch=cluster.ecall_batch),
            )
            self.manager = CheckpointManager()
            self.target = PrecursorClient(
                self.server,
                keygen=KeyGenerator(seed),
                max_retries=_MAX_RETRIES,
            )
            fabrics = [self.server.fabric]
            sessions = [self.target]
        else:
            self.server = None
            self.cluster = cluster.build(seed, self.obs)
            self.manager = self.cluster.checkpoints
            # The near-cache lease must tick on *logical* time here: on
            # the wall clock, whether a lease survives until the next
            # read of its key depends on host speed, which would make
            # the wire-fault stream -- and the fingerprint -- flaky.
            # One millisecond per workload op keeps the default 25 ms
            # lease meaningful (entries expire ~25 ops after fill).
            self.cache_clock = ManualClock() if cluster.near_cache else None
            self.target = cluster.router(
                self.cluster,
                keygen=KeyGenerator(seed),
                max_retries=_MAX_RETRIES,
                # The client-centric failover check: losses must be caught
                # by the client's own MAC record, not the shadow oracle.
                track_freshness=cluster.replicas > 0,
                cache_clock=self.cache_clock,
            )
            fabrics = [
                self.cluster.server(name).fabric for name in self.cluster.shards
            ]
            sessions = list(self.target.sessions.values())
        self.engine.install(fabrics=fabrics, clients=sessions)

        self.scale_clock: Optional[ManualClock] = None
        self.pipeline = None
        self.controller = None
        if autoscale:
            from repro.autoscale import AutoScaler, StabilityGuard
            from repro.obs import TelemetryPipeline

            # The controller runs between workload ops on its own
            # logical clock (same reasoning as the cache clock: wall
            # time would make decision timing host-dependent).
            self.scale_clock = ManualClock()
            self.pipeline = TelemetryPipeline(
                clock=self.scale_clock,
                window_ticks=2,
                registry=self.obs.registry,
            )
            self.pipeline.attach_cluster(self.cluster)
            guard = StabilityGuard(
                min_shards=max(1, cluster.shards - 1),
                max_shards=cluster.shards + 2,
                min_replicas=cluster.replicas,
                max_replicas=cluster.replicas + 1,
                cooldown_ticks=3,
                shard_cooldown_ticks=6,
            )
            self.controller = AutoScaler(
                self.cluster,
                policy=autoscale_policy or _CHAOS_POLICY,
                guard=guard,
                obs=self.obs,
            )
            self.pipeline.attach_controller(self.controller)

    # -- bookkeeping -------------------------------------------------------

    def _outcome(self, kind: str) -> None:
        outcomes = self.report.outcomes
        outcomes[kind] = outcomes.get(kind, 0) + 1

    def _violation(self, text: str) -> None:
        self.report.violations.append(text)

    def _servers(self) -> List[PrecursorServer]:
        if self.cluster is None:
            return [self.server]
        # Every group member: a tampered *backup* blob must surface as an
        # IntegrityError after its promotion, exactly like primary tamper.
        servers: List[PrecursorServer] = []
        for name in self.cluster._groups:
            servers.extend(self.cluster.group(name).members())
        return servers

    @property
    def _any_down(self) -> bool:
        return bool(self.down)

    @property
    def _outage_excuses_misses(self) -> bool:
        # Only an unreplicated dead shard makes keys legitimately
        # unavailable.  A replicated cluster promoted a backup instead --
        # a NOT_FOUND there is a loss, and losses must be *detected*
        # (StaleReadError), never excused.
        return bool(self.down) and self.replicas == 0

    # -- machine-level faults ----------------------------------------------

    def _machine_faults(self, op_index: int) -> None:
        # Restore shards whose outage span elapsed (replicated groups
        # rejoin their dead ex-primary as a backup).  A shard the
        # autoscaler retired meanwhile has nothing left to restore --
        # its keys already migrated to the survivors.
        for name in [n for n, due in self.down.items() if op_index >= due]:
            if name in self.cluster._groups:
                self.cluster.restore_shard(name)
                self.report.crash_restarts += 1
            del self.down[name]

        for kind in self.engine.schedule.harness_kinds():
            if kind == FaultKind.ENCLAVE_CRASH and self.engine.draw(kind):
                # An enclave *process* dies but its host survives, so the
                # sealed-persistence checkpoint on the host's disk is
                # legitimately available -- unlike shard_death, which
                # loses the whole machine and leans on replication.
                if self.cluster is None:
                    crash_restart(self.server, self.manager, self.obs)
                else:
                    live = [n for n in self.cluster.shards if n not in self.down]
                    victim = live[self.engine.rng.randrange(len(live))]
                    crash_restart(
                        self.cluster.server(victim),
                        self.cluster.checkpoints,
                        self.obs,
                    )
                self.report.crash_restarts += 1
            elif kind == FaultKind.SHARD_DEATH:
                if self.cluster is None or self.down or self.replicas < 1:
                    # No rng draw: kind inapplicable right now.  Without
                    # replicas there is no promotion path and no
                    # checkpoint-at-crash cheat to fall back on; the
                    # harness refuses to fake one.
                    continue
                if self.engine.draw(kind):
                    live = list(self.cluster.shards)
                    victim = live[self.engine.rng.randrange(len(live))]
                    self.cluster.crash_shard(victim)
                    self.down[victim] = op_index + _OUTAGE_SPAN
            elif kind == FaultKind.REPLICA_LAG:
                if self.cluster is None or self.replicas < 1:
                    continue
                if self.engine.draw(kind):
                    live = list(self.cluster.shards)
                    name = live[self.engine.rng.randrange(len(live))]
                    lag = 2 + self.engine.rng.randrange(5)
                    self.cluster.group(name).inject_lag(lag)
            elif kind == FaultKind.PROMOTE_DURING_MIGRATION:
                if self.cluster is None or self.down or self.replicas < 1:
                    continue
                if self.engine.draw(kind):
                    self._promote_during_migration(op_index)
            elif kind == FaultKind.CORRUPT_PAYLOAD and self.engine.draw(kind):
                self.engine.tamper_stored(self._servers())

    def _promote_during_migration(self, op_index: int) -> None:
        """Race a primary death against a live rebalance.

        A scratch shard joins (pulling ~1/(n+1) of the keys through the
        migration engine) and immediately leaves; the first entry copied
        triggers ``crash_shard`` on a random established shard, promoting
        its backup *mid-copy*.  The PR-3 guarantee must hold either way:
        the rebalance completes against the promoted primary, or it
        aborts with the old ring map intact and nothing evicted.
        """
        cluster = self.cluster
        live = list(cluster.shards)
        victim = live[self.engine.rng.randrange(len(live))]
        joiner = f"chaos-join-{op_index}"
        engine = cluster._engine
        fired: List[bool] = []

        def crash_once(_copied: int) -> None:
            if not fired:
                fired.append(True)
                cluster.crash_shard(victim)

        engine.on_entry_copied = crash_once
        try:
            cluster.add_shard(joiner)
            if joiner in cluster.shard_map.ring:
                cluster.remove_shard(joiner)
        except ShardUnavailableError:
            # The race aborted the rebalance; the cluster guarantees the
            # old map stayed authoritative, so the workload just carries
            # on (the idle joiner group stays outside the ring).
            pass
        finally:
            engine.on_entry_copied = None
        if not fired:
            # Nothing crossed shards during the join (tiny-keyspace
            # corner); crash the victim directly so the drawn fault
            # still happens.
            cluster.crash_shard(victim)
        self.down[victim] = op_index + _OUTAGE_SPAN

    # -- fault-free resolution ---------------------------------------------

    def _resolve_shadow(self, key: bytes) -> None:
        """After a failed mutation, learn the store's actual state."""
        self.engine.disarm()
        try:
            self.shadow[key] = self.target.get(key)
            self.uncertain.discard(key)
        except KeyNotFoundError:
            self.shadow.pop(key, None)
            self.uncertain.discard(key)
        except StaleReadError:
            # The resolution read itself tripped the freshness check: a
            # failover already lost this key's acked state.  Count the
            # detection and repair from the shadow.
            self.report.losses_detected += 1
            self._outcome("loss_detected")
            self._repair_lost(key)
        except PrecursorError:
            # Unresolvable right now (e.g. the owning shard is down);
            # exclude the key from violation checking until readback.
            self.uncertain.add(key)
        finally:
            self.engine.arm()

    def _repair_tampered(self, key: bytes) -> None:
        """Put the shadow's value back over a detected at-rest tamper."""
        self.engine.disarm()
        try:
            value = self.shadow.get(key)
            if value is not None:
                self.target.put(key, value)
            else:
                self.target.delete(key)
        except PrecursorError:
            self.uncertain.add(key)
        finally:
            self.engine.arm()

    def _repair_lost(self, key: bytes) -> None:
        """Re-establish a key's state after a client-detected loss.

        Mirrors what a real application does on ``StaleReadError``: drop
        the stale claim and re-issue the lost write from its own copy
        (here, the shadow).
        """
        freshness = getattr(self.target, "freshness", None)
        if freshness is not None:
            freshness.forget(key)
        self.engine.disarm()
        try:
            value = self.shadow.get(key)
            if value is not None:
                self.target.put(key, value)
            else:
                try:
                    self.target.delete(key)
                except KeyNotFoundError:
                    pass  # lost write was a delete of an absent key
        except PrecursorError:
            self.uncertain.add(key)
        finally:
            self.engine.arm()

    # -- one workload operation --------------------------------------------

    def _one_op(self, op_index: int) -> None:
        roll = self.oprng.random()
        op = "put" if roll < 0.5 else ("get" if roll < 0.85 else "delete")
        key = _workload_key(self.oprng.randrange(_KEYSPACE))
        value = _workload_value(op_index, _VALUE_SIZE)
        try:
            if op == "put":
                self.target.put(key, value)
                self.shadow[key] = value
                self.uncertain.discard(key)
                self._outcome("ok")
            elif op == "get":
                actual = self.target.get(key)
                if key in self.uncertain:
                    self.shadow[key] = actual
                    self.uncertain.discard(key)
                    self._outcome("resolved")
                elif key not in self.shadow:
                    self._violation(
                        f"op {op_index}: get {key!r} returned a value the "
                        "shadow never stored (resurrection)"
                    )
                elif actual != self.shadow[key]:
                    self._violation(
                        f"op {op_index}: get {key!r} returned stale/corrupt "
                        "bytes that passed verification (silent corruption)"
                    )
                else:
                    self._outcome("ok")
            else:
                self.target.delete(key)
                if key in self.shadow or key in self.uncertain:
                    self.shadow.pop(key, None)
                    self.uncertain.discard(key)
                    self._outcome("ok")
                else:
                    # Documented ambiguity: a retried DELETE whose first
                    # attempt answered NOT_FOUND but lost the ack reports
                    # success (the key is gone either way).
                    self._outcome("delete_ambiguous")
        except KeyNotFoundError:
            if key in self.uncertain:
                self.shadow.pop(key, None)
                self.uncertain.discard(key)
                self._outcome("resolved")
            elif key in self.shadow:
                if self._outage_excuses_misses:
                    # The owning shard is dead with no backup; its keys
                    # are unavailable (not lost) until restore_shard.
                    self._outcome("unavailable")
                else:
                    self._violation(
                        f"op {op_index}: {op} {key!r} answered NOT_FOUND "
                        "for an acknowledged write (lost write)"
                    )
            else:
                self._outcome("miss")
        except StaleReadError:
            # The client's MAC-freshness record caught a failover that
            # lost acked state -- the designed detection for ``async``
            # groups.  No oracle involved: the check ran on the client's
            # own record before the shadow was ever consulted.
            self.report.losses_detected += 1
            self._outcome("loss_detected")
            self._repair_lost(key)
        except IntegrityError:
            # Tampering detected by the client's MAC check -- the designed
            # behaviour.  Repair so later reads see the shadow's value.
            self.report.tamper_detected += 1
            self._outcome("tamper_detected")
            self._repair_tampered(key)
        except ShardUnavailableError:
            self._outcome("unavailable" if self._any_down else "gave_up")
            if op != "get":
                self.uncertain.add(key)
        except PrecursorError:
            # Typed failure after the retry budget -- acceptable, but the
            # store's state for a mutation is now unknown: resolve it.
            self._outcome("gave_up")
            if op != "get":
                self._resolve_shadow(key)

    # -- final verification ------------------------------------------------

    def _final_readback(self) -> None:
        for name in list(self.down):
            if name in self.cluster._groups:
                self.cluster.restore_shard(name)
                self.report.crash_restarts += 1
            del self.down[name]
        self.engine.disarm()
        self.engine.flush_delayed()
        # The readback is the store's word, not the client's memory of
        # it: drop the near-cache so at-rest tamper injected after a
        # key's last (legitimately cached) read still gets detected.
        drop_cache = getattr(self.target, "drop_cache", None)
        if drop_cache is not None:
            drop_cache()
        digest = hashlib.sha256()
        for index in range(_KEYSPACE):
            key = _workload_key(index)
            expected = self.shadow.get(key)
            try:
                actual = self.target.get(key)
            except KeyNotFoundError:
                actual = None
            except StaleReadError:
                # A failover loss surfacing only now: still caught by the
                # client's own record before the shadow comparison below.
                self.report.losses_detected += 1
                self._outcome("loss_detected")
                self._repair_lost(key)
                try:
                    actual = self.target.get(key)
                except KeyNotFoundError:
                    actual = None
            except IntegrityError:
                # At-rest tamper injected after the key's last read: the
                # detection *is* correct behaviour.  Repair once and
                # re-read; a second failure would be a real violation.
                self.report.tamper_detected += 1
                self._repair_tampered(key)
                try:
                    actual = self.target.get(key)
                except KeyNotFoundError:
                    actual = None
            if key in self.uncertain:
                # State was unresolvable mid-run; adopt the store's word.
                if actual is None:
                    self.shadow.pop(key, None)
                else:
                    self.shadow[key] = actual
                expected = actual
                self._outcome("resolved")
            if actual != expected:
                self._violation(
                    f"final readback: {key!r} is "
                    f"{actual!r}, shadow says {expected!r}"
                )
            digest.update(key + b"=" + (actual or b"<absent>") + b";")
        self.report.state_digest = digest.hexdigest()

    # -- entry point -------------------------------------------------------

    def run(self) -> ChaosReport:
        for op_index in range(self.ops):
            if self.cache_clock is not None:
                self.cache_clock.advance(1_000_000)  # 1 ms of lease time
            if self.scale_clock is not None:
                self.scale_clock.advance(1_000_000)
                if (op_index + 1) % _AUTOSCALE_EVERY == 0:
                    # Controller actions land *between* workload ops,
                    # exactly like the scenario wiring.
                    self.pipeline.tick()
            self._machine_faults(op_index)
            self._one_op(op_index)
        self._final_readback()
        report = self.report
        report.fault_counts = dict(self.engine.counts)
        report.fault_log = list(self.engine.log)
        report.fault_fingerprint = self.engine.fingerprint()
        report.retries = self.target.retries
        report.reconnects = self.target.reconnects
        report.failovers = getattr(self.target, "failovers", 0)
        if self.cluster is not None:
            report.promotions = self.cluster.promotions
            report.lost_records = self.cluster.lost_records
        report.near_cache = getattr(self.target, "cache", None) is not None
        report.read_offload = bool(getattr(self.target, "_offload", False))
        cache_stats = getattr(self.target, "cache_stats", None)
        if cache_stats is not None:
            report.cache_stats = cache_stats()
        report.offload_served = getattr(self.target, "offload_reads", 0)
        report.offload_fallbacks = getattr(
            self.target, "offload_fallbacks", 0
        )
        if self.controller is not None:
            report.autoscale = True
            report.autoscale_decisions = len(self.controller.decisions)
            report.autoscale_applied = len(self.controller.applied())
            report.autoscale_flapping = self.controller.flap_count()
            report.autoscale_log = self.controller.log_lines()
        if report.violations:
            report.flight_dump = self.obs.flight.trigger(
                "chaos_violation", violations=list(report.violations)
            )
        self.engine.uninstall()
        return report


def run_chaos(
    seed: int,
    schedule: str,
    ops: int = 200,
    cluster: ClusterSpec = ClusterSpec(shards=None),
    obs: Optional[ObsContext] = None,
    autoscale: bool = False,
    autoscale_policy: Optional[str] = None,
) -> ChaosReport:
    """Run one seeded chaos workload; see the module docstring.

    ``cluster`` is the store under test: the default single server, or
    a sharded cluster (enabling the ``shard_death`` fault kind once
    ``replicas >= 1`` gives each shard a backup to promote).  Its
    ``ack_mode`` picks the replication acknowledgement contract: under
    ``sync`` and ``semi-sync`` an acked write survives any single
    promotion, while ``async`` may lose the unshipped tail -- which the
    client must then *detect* (``losses_detected``) rather than silently
    absorb.  Its ``near_cache``/``read_offload`` run the workload's reads
    through the client near-cache and the freshness-token backup path
    (``docs/CACHING.md``), under the same shadow verification: a cached
    or offloaded read that returns a wrong value is a violation like any
    other.  ``autoscale`` puts the elastic controller
    (``docs/AUTOSCALING.md``) live under the fault schedule: telemetry
    ticks every few ops, and the controller may split/join shards and
    grow/shrink replica groups *while* faults fire -- the shadow
    verification and state digest then gate that autoscaler-initiated
    migrations and promotions never lose or corrupt acked state.
    Raises :class:`~repro.errors.ConfigurationError` on a bad schedule,
    ``ops < 1`` or ``autoscale`` without shards.
    """
    if ops < 1:
        raise ConfigurationError(f"ops must be >= 1, got {ops}")
    if autoscale and cluster.shards is None:
        raise ConfigurationError(
            "the autoscaler steers a sharded cluster (pass shards >= 1)"
        )
    run = _ChaosRun(
        seed=seed,
        schedule=FaultSchedule.parse(schedule),
        ops=ops,
        obs=obs,
        cluster=cluster,
        autoscale=autoscale,
        autoscale_policy=autoscale_policy,
    )
    return run.run()
