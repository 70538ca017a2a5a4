"""Stability guard, elastic replica membership and the actuator."""

import pytest

from repro.autoscale import AutoScaler, Decision, StabilityGuard
from repro.autoscale.policy import Proposal
from repro.errors import ConfigurationError
from repro.obs import ManualClock, ObsContext
from repro.obs.telemetry import ClusterTelemetry, ShardSample
from repro.shard import ShardedCluster


def _cluster(shards=2, replicas=0, seed=5):
    clock = ManualClock()
    obs = ObsContext.create(clock=clock)
    return ShardedCluster(
        shards=shards, seed=seed, obs=obs, replicas=replicas
    ), clock


def _snap(tick, cluster, t_ns=None, **overrides):
    """A snapshot mirroring ``cluster``'s membership (hot by default)."""
    shards = {}
    for name in cluster.shards:
        kwargs = dict(ops=10, p99_ns=100_000)
        kwargs.update(overrides.get(name, {}))
        shards[name] = ShardSample(shard=name, **kwargs)
    return ClusterTelemetry(
        tick=tick,
        t_ns=t_ns if t_ns is not None else tick * 5_000_000,
        window_ticks=2,
        shards=shards,
        faults={},
    )


def _proposal(action, shard=None, rule="r", value=2.0, limit=1.0):
    return Proposal(
        action=action, shard=shard, rule=rule,
        value=value, limit=limit, streak=1,
    )


class TestStabilityGuard:
    def test_bounds_validation(self):
        with pytest.raises(ConfigurationError):
            StabilityGuard(min_shards=0)
        with pytest.raises(ConfigurationError):
            StabilityGuard(min_shards=4, max_shards=2)
        with pytest.raises(ConfigurationError):
            StabilityGuard(min_replicas=2, max_replicas=1)

    def test_unhealthy_outranks_everything(self):
        cluster, _clock = _cluster(shards=2, replicas=0)
        guard = StabilityGuard(cooldown_ticks=100)
        guard.mark_applied(1, ["shard-0"])  # cooldown also active
        cluster.crash_shard("shard-0")  # replicas=0: stays down
        reason = guard.review(_proposal("scale-out"), cluster, tick=2)
        assert reason == "unhealthy:shard-0"

    def test_global_then_shard_cooldown(self):
        cluster, _clock = _cluster(shards=2)
        guard = StabilityGuard(cooldown_ticks=3, shard_cooldown_ticks=6)
        guard.mark_applied(10, ["shard-1"])
        prop = _proposal("scale-in", shard="shard-1")
        assert guard.review(prop, cluster, tick=12) == "global-cooldown"
        # Global cooldown expired; the touched shard stays protected.
        assert guard.review(prop, cluster, tick=13) == "shard-cooldown"
        assert guard.review(prop, cluster, tick=16) == "ok"
        # An untouched shard only waits out the global cooldown.
        other = _proposal("scale-in", shard="shard-0")
        assert guard.review(other, cluster, tick=13) == "ok"

    def test_shard_and_replica_bounds(self):
        cluster, _clock = _cluster(shards=2, replicas=1)
        guard = StabilityGuard(
            min_shards=2, max_shards=2, min_replicas=1, max_replicas=1
        )
        assert guard.review(_proposal("scale-out"), cluster, 1) == "max-shards"
        assert (
            guard.review(_proposal("scale-in", "shard-0"), cluster, 1)
            == "min-shards"
        )
        assert (
            guard.review(_proposal("replica-out", "shard-0"), cluster, 1)
            == "max-replicas"
        )
        assert (
            guard.review(_proposal("replica-in", "shard-0"), cluster, 1)
            == "min-replicas"
        )


class TestElasticReplicaMembership:
    def test_add_replica_resyncs_and_joins_ack_contract(self):
        from repro.shard import ShardedClient

        cluster, _clock = _cluster(shards=2, replicas=0)
        client = ShardedClient(cluster, trace_ops=False)
        for i in range(12):
            client.put(b"k%d" % i, b"v%d" % i)
        name = cluster.shards[0]
        backup = cluster.add_replica(name)
        group = cluster.group(name)
        assert backup in group.backups
        assert group.lag == 0  # full resync caught it up
        assert backup.key_count == group.primary.key_count
        # Writes after the join replicate to the new member too.
        before = backup.key_count
        client.put(b"fresh-key", b"fresh")
        owner = cluster.shard_map.owner(b"fresh-key")
        if owner == name:
            assert backup.key_count == before + 1

    def test_add_backup_refuses_duplicates_and_primary(self):
        cluster, _clock = _cluster(shards=1, replicas=1)
        group = cluster.group("shard-0")
        with pytest.raises(ConfigurationError):
            group.add_backup(group.primary)
        with pytest.raises(ConfigurationError):
            group.add_backup(group.backups[0])

    def test_remove_backup_prefers_crashed_then_least_applied(self):
        cluster, _clock = _cluster(shards=1, replicas=2)
        group = cluster.group("shard-0")
        crashed = group.backups[1]
        crashed.crash()
        victim = cluster.remove_replica("shard-0")
        assert victim is crashed
        # Down to one live backup; an explicit non-member is refused.
        with pytest.raises(ConfigurationError):
            group.remove_backup(crashed)
        cluster.remove_replica("shard-0")
        with pytest.raises(ConfigurationError):
            group.remove_backup()  # empty

    def test_remove_replica_never_loses_acked_state(self):
        from repro.shard import ShardedClient

        cluster, _clock = _cluster(shards=1, replicas=2)
        client = ShardedClient(cluster, trace_ops=False)
        for i in range(8):
            client.put(b"r%d" % i, b"x%d" % i)
        cluster.remove_replica("shard-0")
        cluster.crash_shard("shard-0")  # promotes the survivor
        for i in range(8):
            assert client.get(b"r%d" % i) == b"x%d" % i


class TestAutoScaler:
    def test_scale_out_applies_with_causal_trace_and_metrics(self):
        cluster, _clock = _cluster(shards=1)
        guard = StabilityGuard(max_shards=2, cooldown_ticks=1)
        scaler = AutoScaler(
            cluster, policy="scale-out:p99>1ms:for=1", guard=guard
        )
        hot = {"shard-0": dict(p99_ns=5_000_000)}
        made = scaler.on_snapshot(_snap(1, cluster, **hot))
        assert [d.outcome for d in made] == ["applied"]
        assert len(cluster.shards) == 2
        assert cluster.epoch == 2
        context = cluster.obs.tracer.last
        assert context.op == "autoscale"
        assert "autoscale_decide" in context.hop_kinds()
        assert "autoscale_installed" in context.hop_kinds()
        families = cluster.obs.registry._families
        assert "autoscale_decisions_total" in families
        assert "autoscale_shards" in families
        assert "autoscale_pressure" in families

    def test_one_change_in_flight_per_tick(self):
        cluster, _clock = _cluster(shards=1, replicas=0)
        guard = StabilityGuard(max_shards=4, cooldown_ticks=0,
                               shard_cooldown_ticks=0, max_replicas=2)
        scaler = AutoScaler(
            cluster,
            policy="scale-out:p99>1ms:for=1,replica-out:lag>1:for=1",
            guard=guard,
        )
        hot = {"shard-0": dict(p99_ns=5_000_000, replication_lag=9)}
        made = scaler.on_snapshot(_snap(1, cluster, **hot))
        outcomes = {(d.action, d.outcome) for d in made}
        assert ("scale-out", "applied") in outcomes
        assert ("replica-out", "refused") in outcomes
        assert any(d.reason == "change-in-flight" for d in made)

    def test_repeated_refusals_are_suppressed_not_spammed(self):
        cluster, _clock = _cluster(shards=1, replicas=0)
        scaler = AutoScaler(
            cluster,
            policy="replica-in:lag<5:for=1",
            guard=StabilityGuard(min_replicas=0),
        )
        for tick in range(1, 7):
            scaler.on_snapshot(_snap(tick, cluster))
        refusals = scaler.refused()
        assert len(refusals) == 1  # logged once...
        assert scaler.suppressed_refusals == 5  # ...counted thereafter
        assert refusals[0].reason == "min-replicas"

    def test_decision_log_lines_are_canonical(self):
        cluster, _clock = _cluster(shards=1)
        scaler = AutoScaler(
            cluster,
            policy="scale-out:p99>1ms:for=1",
            guard=StabilityGuard(max_shards=2),
        )
        scaler.on_snapshot(
            _snap(1, cluster, **{"shard-0": dict(p99_ns=5_000_000)})
        )
        line = scaler.log_lines()[0]
        assert line.startswith("#001 tick=1 t=5000000ns applied:scale-out")
        assert "rule=scale-out:p99>1ms" in line
        assert "reason=ok epoch=2 shards=2" in line
        assert scaler.log_fingerprint() == scaler.log_fingerprint()

    def test_flap_count_reads_the_log(self):
        cluster, _clock = _cluster(shards=1)
        scaler = AutoScaler(cluster, guard=StabilityGuard())

        def fake(seq, tick, action, shard):
            return Decision(
                seq=seq, tick=tick, t_ns=tick, action=action, shard=shard,
                rule="r", value=1.0, limit=1.0, outcome="applied",
                reason="ok", epoch=1, shards=1,
            )

        scaler.decisions = [
            fake(1, 10, "scale-out", "shard-9"),
            fake(2, 14, "scale-in", "shard-9"),  # inverse inside window
            fake(3, 40, "scale-out", "shard-9"),  # far outside window
        ]
        assert scaler.flap_count() == 1

    def test_shard_ns_integral(self):
        cluster, _clock = _cluster(shards=1)
        scaler = AutoScaler(cluster, guard=StabilityGuard())
        scaler._shard_points = [(0, 1), (100, 2), (200, 4)]
        # 100ns at 1 shard + 100ns at 2 + 50ns at 4 = 500 shard-ns.
        assert scaler.shard_ns(250) == 100 + 200 + 200
        assert scaler.shard_ns(50) == 50
