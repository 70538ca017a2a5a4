"""End-to-end chaos runs: every fault recovered, shadow model exact.

Each test drives a seeded workload through :func:`repro.faults.run_chaos`
under one fault kind (or a mixed schedule) and asserts the run's
correctness contract: every operation either succeeds (possibly after
retries) or raises a typed :class:`~repro.errors.PrecursorError`, and the
final fault-free readback of the whole keyspace matches the shadow dict
exactly (``report.ok``).
"""

import pytest

from repro.errors import ConfigurationError, ShardUnavailableError
from repro.faults import ChaosReport, FaultEngine, FaultSchedule, run_chaos
from repro.shard import ClusterSpec

MIXED = (
    "drop:0.06,duplicate:0.05,delay:0.05,corrupt_control:0.02,"
    "qp_error:0.02,corrupt_payload:0.01,enclave_crash:0.01"
)


class TestDeterminism:
    """Same (seed, schedule) => byte-identical faults and final state."""

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_same_seed_same_fingerprint(self, seed):
        first = run_chaos(seed=seed, schedule=MIXED, ops=60)
        second = run_chaos(seed=seed, schedule=MIXED, ops=60)
        assert first.fault_fingerprint == second.fault_fingerprint

    @pytest.mark.parametrize("seed", [3, 11, 42])
    def test_same_seed_same_state_digest(self, seed):
        first = run_chaos(seed=seed, schedule=MIXED, ops=60)
        second = run_chaos(seed=seed, schedule=MIXED, ops=60)
        assert first.state_digest == second.state_digest

    def test_same_seed_same_ordered_fault_log(self):
        first = run_chaos(seed=9, schedule=MIXED, ops=60)
        second = run_chaos(seed=9, schedule=MIXED, ops=60)
        assert first.fault_log == second.fault_log
        assert first.fault_counts == second.fault_counts

    def test_different_seeds_diverge(self):
        first = run_chaos(seed=1, schedule=MIXED, ops=60)
        second = run_chaos(seed=2, schedule=MIXED, ops=60)
        assert first.fault_fingerprint != second.fault_fingerprint

    def test_sharded_run_is_deterministic(self):
        schedule = "drop:0.04,shard_death:0.03,corrupt_payload:0.01"
        sharded = ClusterSpec(shards=3)
        first = run_chaos(seed=7, schedule=schedule, ops=50, cluster=sharded)
        second = run_chaos(seed=7, schedule=schedule, ops=50, cluster=sharded)
        assert first.fault_fingerprint == second.fault_fingerprint
        assert first.state_digest == second.state_digest
        assert first.outcomes == second.outcomes

    def test_fault_free_schedule_injects_nothing(self):
        report = run_chaos(seed=5, schedule="", ops=40)
        assert report.ok
        assert report.fault_counts == {}
        assert report.retries == 0
        assert report.fault_log == []

    def test_engine_fingerprint_depends_on_log_order(self):
        schedule = FaultSchedule.parse("drop:1.0")
        a = FaultEngine(schedule, seed=1)
        b = FaultEngine(schedule, seed=1)
        a._record("drop")
        a._record("delay", 2)
        b._record("delay", 2)
        b._record("drop")
        assert a.fingerprint() != b.fingerprint()


class TestSingleServerChaos:
    """YCSB-ish mix under each fault kind in isolation."""

    @pytest.mark.parametrize(
        "schedule",
        [
            "drop:0.1",
            "duplicate:0.1",
            "delay:0.1",
            "corrupt_control:0.05",
            "qp_error:0.05",
            "corrupt_payload:0.03",
            "enclave_crash:0.02",
        ],
    )
    @pytest.mark.parametrize("seed", [11, 23])
    def test_single_kind_never_violates(self, schedule, seed):
        report = run_chaos(seed=seed, schedule=schedule, ops=80)
        assert report.ok, report.violations
        assert sum(report.outcomes.values()) >= report.ops

    def test_drop_recovers_via_retry_and_reconnect(self):
        report = run_chaos(seed=11, schedule="drop:0.2", ops=80)
        assert report.ok, report.violations
        assert report.fault_counts.get("drop", 0) > 0
        assert report.retries > 0
        assert report.reconnects > 0

    def test_qp_error_recovers(self):
        report = run_chaos(seed=11, schedule="qp_error:0.1", ops=80)
        assert report.ok, report.violations
        assert report.fault_counts.get("qp_error", 0) > 0
        assert report.reconnects > 0

    def test_enclave_crash_restarts_from_sealed_state(self):
        report = run_chaos(seed=11, schedule="enclave_crash:0.05", ops=80)
        assert report.ok, report.violations
        assert report.crash_restarts > 0

    def test_corrupt_payload_is_detected_not_silent(self):
        report = run_chaos(seed=11, schedule="corrupt_payload:0.1", ops=120)
        assert report.ok, report.violations
        assert report.fault_counts.get("corrupt_payload", 0) > 0
        # Every injected at-rest tamper must surface as IntegrityError
        # (counted) on some later read -- never as silently wrong bytes.
        assert report.tamper_detected > 0

    def test_duplicate_frames_are_deduped(self):
        report = run_chaos(seed=11, schedule="duplicate:0.3", ops=80)
        assert report.ok, report.violations
        assert report.fault_counts.get("duplicate", 0) > 0

    @pytest.mark.parametrize("seed", [1, 7, 13])
    def test_mixed_schedule_clean(self, seed):
        report = run_chaos(seed=seed, schedule=MIXED, ops=80)
        assert report.ok, report.violations
        assert report.fault_counts  # something actually fired


class TestShardedChaos:
    def test_shard_death_failover(self):
        # A primary death is repaired by *promotion*: the group's backup
        # takes over under a bumped epoch, no checkpoint involved.
        report = run_chaos(
            seed=11, schedule="shard_death:0.05", ops=60,
            cluster=ClusterSpec(shards=3, replicas=1),
        )
        assert report.ok, report.violations
        if report.fault_counts.get("shard_death"):
            assert report.promotions > 0
            assert report.lost_records == 0  # sync contract

    def test_sharded_mixed_clean(self):
        schedule = "drop:0.05,shard_death:0.03,corrupt_payload:0.01"
        report = run_chaos(
            seed=3, schedule=schedule, ops=60,
            cluster=ClusterSpec(shards=3, replicas=1),
        )
        assert report.ok, report.violations

    def test_shard_death_ignored_without_replicas(self):
        # An unreplicated cluster has no promotion path -- and no
        # checkpoint-at-crash cheat to fall back on -- so the harness
        # refuses to kill primaries it could not honestly recover.
        report = run_chaos(
            seed=11, schedule="shard_death:0.5", ops=30,
            cluster=ClusterSpec(shards=3),
        )
        assert report.ok, report.violations
        assert report.fault_counts.get("shard_death", 0) == 0

    def test_enclave_crash_on_sharded_cluster(self):
        # The enclave process dies but its host survives: recovery is
        # the same sealed-persistence crash-restart the single-server
        # harness runs, applied to the victim member.
        report = run_chaos(
            seed=11, schedule="enclave_crash:0.05", ops=50,
            cluster=ClusterSpec(shards=2),
        )
        assert report.ok, report.violations
        assert report.crash_restarts > 0


class TestChaosReport:
    def test_clean_report_exit_code(self):
        report = run_chaos(seed=11, schedule="", ops=10)
        assert report.ok
        assert report.exit_code == 0

    def test_violation_flips_exit_code(self):
        report = ChaosReport(seed=1, schedule="", ops=0, shards=None)
        assert report.exit_code == 0
        report.violations.append("lost write")
        assert not report.ok
        assert report.exit_code == 1

    @pytest.mark.parametrize(
        "ack_mode, code", [("sync", 1), ("semi-sync", 1), ("async", 0)]
    )
    def test_acked_loss_flips_exit_code_under_sync_contracts(
        self, ack_mode, code
    ):
        # sync/semi-sync promise zero acked loss; async may lose the
        # unshipped tail as long as the client detects it.
        report = ChaosReport(
            seed=1, schedule="", ops=1, shards=3, replicas=1,
            ack_mode=ack_mode, lost_records=1,
        )
        assert report.ok
        assert report.exit_code == code

    def test_autoscaler_flapping_flips_exit_code(self):
        report = ChaosReport(
            seed=1, schedule="", ops=1, shards=3, replicas=1,
            ack_mode="sync", autoscale=True, autoscale_flapping=1,
        )
        assert report.ok
        assert report.exit_code == 1

    def test_to_dict_is_json_shaped(self):
        import json

        report = run_chaos(seed=11, schedule="drop:0.1", ops=20)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["seed"] == 11
        assert payload["ok"] is True
        assert "fault_fingerprint" in payload
        assert "state_digest" in payload

    def test_bad_schedule_raises_configuration_error(self):
        with pytest.raises(ConfigurationError):
            run_chaos(seed=1, schedule="gremlins:0.5", ops=10)
        with pytest.raises(ConfigurationError):
            run_chaos(seed=1, schedule="drop:1.5", ops=10)
        with pytest.raises(ConfigurationError):
            run_chaos(seed=1, schedule="drop=0.1", ops=10)

    def test_faults_counted_in_obs_registry(self):
        from repro.obs import ObsContext
        from repro.obs.exporters import prometheus_text

        obs = ObsContext.create()
        report = run_chaos(
            seed=11, schedule="drop:0.2", ops=40, obs=obs
        )
        assert report.ok
        text = prometheus_text(obs.registry)
        assert "faults_injected_total" in text
        assert "retries_total" in text
        assert "recoveries_total" in text


class TestFailoverDuringMigration:
    """E2E: a shard dies while a rebalance streams entries through it."""

    def _loaded_cluster(self, shards=3, keys=24):
        from repro.shard.cluster import ShardedCluster
        from repro.shard.router import ShardedClient

        cluster = ShardedCluster(shards=shards, seed=11)
        client = ShardedClient(cluster, trace_ops=False, max_retries=2)
        stored = {}
        for i in range(keys):
            key = b"mig-%03d" % i
            value = b"v-%03d" % i
            client.put(key, value)
            stored[key] = value
        return cluster, client, stored

    def test_crash_mid_migration_aborts_with_old_map_intact(self):
        cluster, client, stored = self._loaded_cluster()
        victim = cluster.shards[0]
        epoch_before = cluster.epoch
        counts_before = cluster.key_counts()
        # The shard dies out from under the migration engine: the next
        # rebalance must abort (the dead source cannot export), leaving
        # the old map installed and nothing evicted.
        cluster.server(victim).crash()
        with pytest.raises(ShardUnavailableError):
            cluster.add_shard()
        assert cluster.epoch == epoch_before
        assert victim in cluster.shards
        live_counts = {
            name: count
            for name, count in cluster.key_counts().items()
            if name != victim and name in counts_before
        }
        for name, count in live_counts.items():
            assert count == counts_before[name]

    def test_failover_routes_around_dead_shard_honestly_loses_data(self):
        cluster, client, stored = self._loaded_cluster()
        victim = cluster.shards[0]
        victim_keys = [
            key for key in stored if cluster.owner(key) == victim
        ]
        survivor_keys = [
            key for key in stored if cluster.owner(key) != victim
        ]
        assert victim_keys and survivor_keys

        # No checkpoint is taken at the crash instant: an unreplicated
        # shard's machine dies with everything it held.
        cluster.crash_shard(victim)
        # First touch of a dead-shard key triggers the router's failover:
        # mark the shard failed, bump the epoch, re-route.
        import repro.errors as errors

        with pytest.raises(errors.KeyNotFoundError):
            client.get(victim_keys[0])
        assert client.failovers >= 1
        assert victim not in cluster.shards
        # Survivors keep serving through the new map.
        for key in survivor_keys[:4]:
            assert client.get(key) == stored[key]

        # Restore restarts the member *empty* and rebalances it back in:
        # with replicas=0 the dead shard's acknowledged writes are gone
        # -- the trust model promises detection, not resurrection.
        restored = cluster.restore_shard(victim)
        assert restored == 0
        assert victim in cluster.shards
        for key in victim_keys:
            with pytest.raises(errors.KeyNotFoundError):
                client.get(key)
        for key in survivor_keys:
            assert client.get(key) == stored[key]
        # The restored shard serves fresh writes again.
        client.refresh_map()
        client.put(b"post-restore", b"alive")
        assert client.get(b"post-restore") == b"alive"

    def test_writes_continue_during_outage_and_survive_restore(self):
        cluster, client, stored = self._loaded_cluster(keys=16)
        victim = cluster.shards[1]
        cluster.crash_shard(victim)
        cluster.handle_shard_failure(victim)
        client.refresh_map()
        # New writes land on survivors while the shard is down.
        for i in range(8):
            key = b"during-%02d" % i
            client.put(key, b"outage")
            stored[key] = b"outage"
        cluster.restore_shard(victim)
        for i in range(8):
            assert client.get(b"during-%02d" % i) == b"outage"

    def test_restore_prefers_newer_survivor_writes(self):
        # A key written *after* the victim's checkpoint (via failover to a
        # survivor) must not be rolled back when the checkpointed copy is
        # rebalanced back in.
        cluster, client, stored = self._loaded_cluster(keys=16)
        victim = cluster.shards[0]
        victim_keys = [
            key for key in stored if cluster.owner(key) == victim
        ]
        assert victim_keys
        target = victim_keys[0]
        cluster.crash_shard(victim)
        cluster.handle_shard_failure(victim)
        client.refresh_map()
        client.put(target, b"fresh-after-crash")
        cluster.restore_shard(victim)
        client.refresh_map()
        assert client.get(target) == b"fresh-after-crash"

    def test_last_shard_cannot_be_failed(self):
        from repro.shard.cluster import ShardedCluster

        cluster = ShardedCluster(shards=1, seed=11)
        only = cluster.shards[0]
        cluster.crash_shard(only)
        with pytest.raises(ShardUnavailableError):
            cluster.handle_shard_failure(only)
