"""The elastic control loop: stability guard + actuator + decision log.

:class:`AutoScaler` is driven by the telemetry pipeline
(:meth:`~repro.obs.telemetry.TelemetryPipeline.attach_controller`): each
published window lands in :meth:`AutoScaler.on_snapshot`, which folds it
through the signal plane, asks the policy engine for proposals, filters
them through the :class:`StabilityGuard`, and actuates at most **one**
topology change -- the "one change in flight" lock is structural, not a
mutex: actuation is synchronous on the sim clock and at most one
proposal per tick survives the guard.

Every proposal becomes a :class:`Decision` record whether it was
applied or refused, with a canonical one-line rendering
(:meth:`Decision.line`) -- the unit of the byte-identical-per-seed
bench gate.  Applied actions additionally emit an ``autoscale`` trace
record (decide -> actuate -> installed hops), an
``autoscale_decision`` flight-recorder event, and bump the
``autoscale_*`` metric families.

The guard's invariants, in refusal-priority order:

- **health**: never touch topology while any primary is crashed -- a
  migration sourced from (or draining to) a dead enclave would abort
  mid-copy, and a promotion is already in charge of that shard.  This
  is what keeps autoscaler migrations from violating the ack contract
  under chaos: actuation only starts from an all-live topology, and
  the migration/replication machinery it delegates to carries the
  epoch fences from there.
- **bounds**: ``min_shards <= shards <= max_shards``; per-group backup
  counts in ``[min_replicas, max_replicas]`` (the floor preserves the
  configured ack contract -- scale-in never strips a witness the
  operator provisioned).
- **global cooldown**: at least ``cooldown_ticks`` between *any* two
  applied actions (migrations settle before the next change).
- **shard cooldown**: a shard touched by an applied action is
  untouchable for ``shard_cooldown_ticks`` -- the anti-flap band that,
  with the policy's hysteresis, makes "split then immediately join the
  same shard" structurally impossible inside the window.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs import ObsContext
from repro.obs.telemetry import ClusterTelemetry
from repro.autoscale.policy import PolicyEngine, Proposal
from repro.autoscale.signals import SignalPlane

__all__ = ["Decision", "StabilityGuard", "AutoScaler"]


@dataclass(frozen=True)
class Decision:
    """One autoscaling decision -- applied or refused, always logged."""

    seq: int
    tick: int
    t_ns: int
    action: str
    shard: str  # target shard ("?" for a refused scale-out, pre-naming)
    rule: str
    value: float
    limit: float
    outcome: str  # "applied" | "refused"
    reason: str  # "ok" or the guard's refusal reason
    epoch: int  # shard-map epoch after the decision
    shards: int  # shard count after the decision
    detail: Dict[str, Any] = field(default_factory=dict)

    def line(self) -> str:
        """Canonical rendering -- the byte-identical decision-log unit."""
        extra = ""
        if self.detail:
            pairs = ",".join(
                f"{k}={self.detail[k]}" for k in sorted(self.detail)
            )
            extra = f" [{pairs}]"
        return (
            f"#{self.seq:03d} tick={self.tick} t={self.t_ns}ns "
            f"{self.outcome}:{self.action} shard={self.shard} "
            f"rule={self.rule} value={self.value:.3f} limit={self.limit:g} "
            f"reason={self.reason} epoch={self.epoch} "
            f"shards={self.shards}{extra}"
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-shaped view of this decision."""
        return {
            "seq": self.seq,
            "tick": self.tick,
            "t_ns": self.t_ns,
            "action": self.action,
            "shard": self.shard,
            "rule": self.rule,
            "value": round(self.value, 3),
            "limit": self.limit,
            "outcome": self.outcome,
            "reason": self.reason,
            "epoch": self.epoch,
            "shards": self.shards,
            "detail": dict(self.detail),
        }


class StabilityGuard:
    """Hysteresis bands' enforcement arm: cooldowns, bounds, health."""

    def __init__(
        self,
        min_shards: int = 1,
        max_shards: int = 8,
        min_replicas: int = 0,
        max_replicas: int = 2,
        cooldown_ticks: int = 6,
        shard_cooldown_ticks: int = 12,
    ):
        if min_shards < 1:
            raise ConfigurationError(
                f"min_shards must be >= 1, got {min_shards}"
            )
        if max_shards < min_shards:
            raise ConfigurationError(
                f"max_shards {max_shards} < min_shards {min_shards}"
            )
        if min_replicas < 0 or max_replicas < min_replicas:
            raise ConfigurationError(
                f"bad replica bounds [{min_replicas}, {max_replicas}]"
            )
        self.min_shards = min_shards
        self.max_shards = max_shards
        self.min_replicas = min_replicas
        self.max_replicas = max_replicas
        self.cooldown_ticks = cooldown_ticks
        self.shard_cooldown_ticks = shard_cooldown_ticks
        self._last_applied_tick: Optional[int] = None
        self._shard_last_tick: Dict[str, int] = {}

    def review(self, proposal: Proposal, cluster, tick: int) -> str:
        """Why ``proposal`` must be refused, or ``"ok"``."""
        for name in cluster.shards:
            if cluster.server(name).crashed:
                return f"unhealthy:{name}"
        if (
            self._last_applied_tick is not None
            and tick - self._last_applied_tick < self.cooldown_ticks
        ):
            return "global-cooldown"
        target = proposal.shard
        if target is not None:
            last = self._shard_last_tick.get(target)
            if last is not None and tick - last < self.shard_cooldown_ticks:
                return "shard-cooldown"
        count = len(cluster.shards)
        if proposal.action == "scale-out" and count >= self.max_shards:
            return "max-shards"
        if proposal.action == "scale-in" and count <= self.min_shards:
            return "min-shards"
        if proposal.action in ("replica-out", "replica-in"):
            group = cluster.group(target)
            backups = len(group.backups)
            if proposal.action == "replica-out":
                if backups >= self.max_replicas:
                    return "max-replicas"
            else:
                if backups <= self.min_replicas:
                    return "min-replicas"
        return "ok"

    def mark_applied(self, tick: int, shards: List[str]) -> None:
        """Record an applied action touching ``shards`` at ``tick``."""
        self._last_applied_tick = tick
        for name in shards:
            self._shard_last_tick[name] = tick


class AutoScaler:
    """The control plane: signals -> policy -> guard -> actuator.

    Parameters
    ----------
    cluster:
        The :class:`~repro.shard.ShardedCluster` to steer.
    policy:
        A policy spec string (see :mod:`repro.autoscale.policy`) or a
        pre-built :class:`PolicyEngine`; defaults to
        :data:`~repro.autoscale.policy.DEFAULT_POLICY_SPEC`.
    guard:
        The :class:`StabilityGuard`; defaults bound shard count at 8.
    obs:
        Observability context; defaults to the cluster's.
    on_topology_change:
        Called (no args) after every *applied* action -- the traffic
        engine uses it to re-install service hooks on members spawned
        mid-run.
    """

    def __init__(
        self,
        cluster,
        policy: Optional[Any] = None,
        guard: Optional[StabilityGuard] = None,
        obs: Optional[ObsContext] = None,
        alpha: float = 0.5,
        on_topology_change: Optional[Callable[[], None]] = None,
    ):
        self.cluster = cluster
        if isinstance(policy, PolicyEngine):
            self.policy = policy
        else:
            self.policy = PolicyEngine.from_spec(policy)
        self.guard = guard if guard is not None else StabilityGuard()
        self.obs = obs if obs is not None else cluster.obs
        self.signals = SignalPlane(self.policy.out_references(), alpha=alpha)
        self.on_topology_change = on_topology_change
        self.decisions: List[Decision] = []
        self.tick = 0
        #: Consecutive identical refusals are logged once, then counted
        #: here -- a policy stuck against a bound (e.g. ``replica-in``
        #: at the floor) states its refusal once instead of once per
        #: tick, keeping the decision log bounded and readable.
        self.suppressed_refusals = 0
        self._last_refusal: Dict[tuple, tuple] = {}
        #: (t_ns, shard_count) change points for the shard-hours integral.
        self._shard_points: List[tuple] = []
        registry = self.obs.registry
        self._obs_shards = registry.gauge(
            "autoscale_shards", "shard count steered by the autoscaler"
        )
        self._obs_backups = registry.gauge(
            "autoscale_backups",
            "replica backups across all groups under the autoscaler",
        )
        self._obs_shards.set(len(cluster.shards))
        self._obs_backups.set(self._backup_count())

    # -- introspection ------------------------------------------------------

    def _backup_count(self) -> int:
        return sum(
            len(self.cluster.group(name).backups)
            for name in self.cluster.shards
        )

    def log_lines(self) -> List[str]:
        """Canonical decision log (applied and refused)."""
        return [d.line() for d in self.decisions]

    def log_fingerprint(self) -> str:
        """sha256 over the canonical log -- the determinism gate."""
        blob = "\n".join(self.log_lines()).encode()
        return hashlib.sha256(blob).hexdigest()

    def applied(self) -> List[Decision]:
        """Decisions that actuated a topology change."""
        return [d for d in self.decisions if d.outcome == "applied"]

    def refused(self) -> List[Decision]:
        """Decisions the stability guard blocked (deduplicated)."""
        return [d for d in self.decisions if d.outcome == "refused"]

    def flap_count(self) -> int:
        """Applied out/in pairs on one shard within the shard cooldown.

        The acceptance gate's definition of flapping: a split (join)
        immediately undone by a join (split) of the *same shard* inside
        the guard's per-shard cooldown window.  Zero by construction
        when the guard is on; counted from the log so the bench can
        verify rather than trust.
        """
        window = self.guard.shard_cooldown_ticks
        inverse = {
            "scale-out": "scale-in",
            "scale-in": "scale-out",
            "replica-out": "replica-in",
            "replica-in": "replica-out",
        }
        applied = self.applied()
        flaps = 0
        for i, first in enumerate(applied):
            for later in applied[i + 1 :]:
                if later.tick - first.tick >= window:
                    break
                if (
                    later.shard == first.shard
                    and later.action == inverse[first.action]
                ):
                    flaps += 1
        return flaps

    def shard_ns(self, until_ns: int) -> int:
        """Integral of shard count over time up to ``until_ns``.

        The elasticity dividend metric: a static-4 topology accrues
        ``4 * duration`` shard-ns; the controller should do better.
        """
        total = 0
        points = self._shard_points
        for i, (t_ns, count) in enumerate(points):
            end = points[i + 1][0] if i + 1 < len(points) else until_ns
            end = min(end, until_ns)
            if end > t_ns:
                total += (end - t_ns) * count
        return total

    def summary(self, duration_ns: Optional[int] = None) -> Dict[str, Any]:
        """Roll-up for reports: counts, churn, fingerprint, shard-time."""
        actions: Dict[str, int] = {}
        for decision in self.applied():
            actions[decision.action] = actions.get(decision.action, 0) + 1
        out = {
            "decisions": len(self.decisions),
            "applied": len(self.applied()),
            "refused": len(self.refused()),
            "suppressed_refusals": self.suppressed_refusals,
            "actions": actions,
            "flapping": self.flap_count(),
            "final_shards": len(self.cluster.shards),
            "final_backups": self._backup_count(),
            "max_shards_seen": max(
                [count for _, count in self._shard_points],
                default=len(self.cluster.shards),
            ),
            "log_sha256": self.log_fingerprint(),
        }
        if duration_ns is not None:
            out["shard_ms"] = round(self.shard_ns(duration_ns) / 1e6, 3)
        return out

    # -- the control loop ---------------------------------------------------

    def on_snapshot(self, snapshot: ClusterTelemetry) -> List[Decision]:
        """One control tick: evaluate the window, actuate at most once."""
        self.tick += 1
        if not self._shard_points:
            # Anchor the shard-time integral at the first window so a
            # late-attached controller does not back-date shard-hours.
            self._shard_points.append(
                (snapshot.t_ns, len(self.cluster.shards))
            )
        pressures = {
            name: view.score
            for name, view in self.signals.update(snapshot).items()
        }
        for name, score in pressures.items():
            self.obs.registry.gauge(
                "autoscale_pressure",
                "smoothed per-shard pressure score (1.0 = scale-out point)",
                {"shard": name},
            ).set(round(score, 6))
        proposals = self.policy.evaluate(snapshot, pressures)
        made: List[Decision] = []
        actuated = False
        for proposal in proposals:
            reason = self.guard.review(proposal, self.cluster, self.tick)
            if reason == "ok" and actuated:
                # One topology change in flight: later proposals this
                # tick wait for the next window (and its cooldowns).
                reason = "change-in-flight"
            if reason != "ok":
                key = (proposal.action, proposal.shard)
                signature = (proposal.rule, reason)
                last = self._last_refusal.get(key)
                self._last_refusal[key] = (signature, self.tick)
                if (
                    last is not None
                    and last[0] == signature
                    and self.tick - last[1] <= 2
                ):
                    # An unbroken streak of the same refusal: one line.
                    self.suppressed_refusals += 1
                    continue
                made.append(self._record(snapshot, proposal, "refused", reason))
                continue
            self._last_refusal.pop((proposal.action, proposal.shard), None)
            made.append(self._actuate(snapshot, proposal))
            actuated = True
        return made

    def _record(
        self,
        snapshot: ClusterTelemetry,
        proposal: Proposal,
        outcome: str,
        reason: str,
        shard: Optional[str] = None,
        detail: Optional[Dict[str, Any]] = None,
    ) -> Decision:
        decision = Decision(
            seq=len(self.decisions) + 1,
            tick=self.tick,
            t_ns=snapshot.t_ns,
            action=proposal.action,
            shard=shard or proposal.shard or "?",
            rule=proposal.rule,
            value=proposal.value,
            limit=proposal.limit,
            outcome=outcome,
            reason=reason,
            epoch=self.cluster.epoch,
            shards=len(self.cluster.shards),
            detail=detail or {},
        )
        self.decisions.append(decision)
        self.obs.registry.counter(
            "autoscale_decisions_total",
            "autoscale decisions by action and outcome",
            {"action": proposal.action, "outcome": outcome},
        ).inc()
        self.obs.record_event(
            "autoscale_decision",
            action=decision.action,
            shard=decision.shard,
            outcome=outcome,
            reason=reason,
            rule=decision.rule,
            tick=decision.tick,
        )
        return decision

    def _actuate(
        self, snapshot: ClusterTelemetry, proposal: Proposal
    ) -> Decision:
        cluster = self.cluster
        # Applied actions carry a trace record of their own unless the
        # controller fired inside someone else's (it never does in the
        # shipped wiring -- ticks run between operations).
        tracer = self.obs.tracer
        with (
            tracer.start("autoscale", client_id=-1)
            if tracer.current is None
            else nullcontext()
        ):
            self.obs.hop(
                "autoscale_decide",
                shard=proposal.shard,
                action=proposal.action,
                rule=proposal.rule,
            )
            detail: Dict[str, Any] = {}
            touched: List[str] = []
            if proposal.action == "scale-out":
                before = set(cluster.shards)
                report = cluster.add_shard()
                joiner = next(iter(set(cluster.shards) - before))
                detail["joined"] = joiner
                detail["moved"] = report.total_moved
                touched = [joiner]
                shard = joiner
            elif proposal.action == "scale-in":
                shard = proposal.shard
                report = cluster.remove_shard(shard)
                detail["moved"] = report.total_moved
                touched = [shard]
            elif proposal.action == "replica-out":
                shard = proposal.shard
                backup = cluster.add_replica(shard)
                detail["backup"] = backup.shard_name
                touched = [shard]
            else:  # replica-in
                shard = proposal.shard
                victim = cluster.remove_replica(shard)
                detail["backup"] = victim.shard_name
                touched = [shard]
            self.obs.hop(
                "autoscale_installed",
                shard=shard,
                epoch=cluster.epoch,
                shards=len(cluster.shards),
            )
        self.guard.mark_applied(self.tick, touched)
        self._shard_points.append((snapshot.t_ns, len(cluster.shards)))
        self._obs_shards.set(len(cluster.shards))
        self._obs_backups.set(self._backup_count())
        decision = self._record(
            snapshot, proposal, "applied", "ok", shard=shard, detail=detail
        )
        if self.on_topology_change is not None:
            self.on_topology_change()
        return decision
