"""Tamper matrix + chaos equivalence for the near-cache and offload paths.

Three rows of adversarial coverage (docs/FAULTS.md style): a corrupted
*cached* entry (the attacker reached client memory), a torn/tampered
*backup* record (the attacker reached a replica's sealed store), and a
*replayed* cache entry carried across an epoch fence.  In every row the
client must refuse the bad bytes and recover the true value -- never
serve them, never crash.  The chaos half then re-runs the seeded fault
harness with the cache+offload enabled and demands the same final state
digest as the baseline, because a read path must never change what the
store *contains*.
"""

import pytest

from repro.faults import run_chaos
from repro.obs import ManualClock, ObsContext
from repro.obs.exporters import prometheus_text
from repro.shard import ClusterSpec, ShardedClient, ShardedCluster
from repro.traffic import run_scenario

LEASE_NS = 50_000_000  # generous: these tests tamper, not race, the lease

CHAOS_SCHEDULE = (
    "drop:0.05,corrupt_payload:0.03,delay:0.05,"
    "shard_death:0.02,replica_lag:0.05"
)


def _cluster(shards=2, replicas=1, ack_mode="sync", seed=7):
    clock = ManualClock()
    obs = ObsContext.create(clock=clock)
    cluster = ShardedCluster(
        shards=shards, seed=seed, obs=obs,
        replicas=replicas, ack_mode=ack_mode,
    )
    return cluster, clock


class TestTamperMatrix:
    def test_corrupted_cached_value_refused_then_recovered(self):
        cluster, _clock = _cluster()
        router = ShardedClient(
            cluster, near_cache=True, cache_lease_ns=LEASE_NS,
            trace_ops=False,
        )
        router.put(b"k", b"the-truth")
        router.cache.peek(b"k").value = b"the-lie!!"
        assert router.get(b"k") == b"the-truth"
        assert router.last_read_path == "primary"
        assert router.cache.integrity_drops == 1
        # The refused entry was dropped and the revalidation re-filled
        # it: the next read hits clean bytes.
        assert router.get(b"k") == b"the-truth"
        assert router.last_read_path == "cache"

    def test_corrupted_cached_mac_refused_then_recovered(self):
        # Flipping the cached MAC breaks the entry self-checksum first;
        # even if an attacker re-stamped the checksum, the freshness
        # claim would still disown the foreign MAC.  Either way: refuse.
        cluster, _clock = _cluster()
        router = ShardedClient(
            cluster, near_cache=True, cache_lease_ns=LEASE_NS,
            trace_ops=False,
        )
        router.put(b"k", b"the-truth")
        entry = router.cache.peek(b"k")
        entry.mac = bytes(b ^ 0xFF for b in entry.mac)
        assert router.get(b"k") == b"the-truth"
        assert router.cache.integrity_drops == 1

    def test_restamped_cache_entry_caught_by_freshness_claim(self):
        # The stronger attacker: consistent value+MAC+checksum, but a
        # MAC that is not the one this client last acked.  The cache
        # self-checks all pass; rule five (claim match) must catch it.
        from repro.cache.nearcache import CacheEntry, _checksum

        cluster, _clock = _cluster()
        router = ShardedClient(
            cluster, near_cache=True, cache_lease_ns=LEASE_NS,
            trace_ops=False,
        )
        router.put(b"k", b"the-truth")
        genuine = router.cache.peek(b"k")
        forged_mac = b"f" * len(genuine.mac)
        forged = CacheEntry(
            key=b"k", value=b"the-lie!!", mac=forged_mac,
            shard=genuine.shard, epoch=genuine.epoch,
            expires_ns=genuine.expires_ns,
            check=_checksum(b"k", b"the-lie!!", forged_mac),
        )
        router.cache._entries[next(iter(router.cache._entries))] = forged
        assert router.get(b"k") == b"the-truth"
        assert router.cache.claim_mismatches == 1

    def test_torn_backup_record_falls_back_to_primary(self):
        cluster, _clock = _cluster(ack_mode="sync")
        router = ShardedClient(cluster, read_offload=True, trace_ops=False)
        router.put(b"k", b"the-truth")
        shard = cluster.owner(b"k")
        backup = cluster.group(shard).backups[0]
        entry = backup._table.get(b"k")
        backup.payload_store.corrupt(entry.ptr, flip_at=3)
        assert router.get(b"k") == b"the-truth"
        assert router.last_read_path == "primary"
        assert router.offload_fallbacks == 1
        text = prometheus_text(cluster.obs.registry)
        assert 'client_offload_reads_total{result="fallback_tamper"} 1' in text

    def test_lagged_backup_serves_nothing_stale(self):
        # Race the offload against replication: under async acks the
        # claimed LSN leads the backup's applied LSN, so every offload
        # attempt must degrade to the primary until the group ships.
        cluster, _clock = _cluster(ack_mode="async", seed=29)
        router = ShardedClient(cluster, read_offload=True, trace_ops=False)
        for i in range(6):
            router.put(b"k", b"v%d" % i)
            # A backup may only answer when it has applied the very
            # version just acked; anything else degrades to the primary.
            assert router.get(b"k") == b"v%d" % i
        assert router.offload_reads + router.offload_fallbacks == 6
        assert router.offload_fallbacks >= 1  # lag was actually observed
        cluster.group(cluster.owner(b"k")).flush()
        assert router.get(b"k") == b"v5"
        assert router.last_read_path == "backup"

    def test_replayed_entry_across_epoch_fence_refused(self):
        # Replay attack: capture a valid cache entry, let the ring move
        # (promotion bumps the epoch), then splice the captured entry
        # back in.  Its checksum and claim still verify -- only the
        # epoch fence can refuse it, and it must.
        cluster, _clock = _cluster(shards=2, replicas=1)
        router = ShardedClient(
            cluster, near_cache=True, cache_lease_ns=LEASE_NS,
            trace_ops=False,
        )
        router.put(b"k", b"pre-failover")
        digest, captured = next(iter(router.cache._entries.items()))
        shard = cluster.owner(b"k")
        cluster.crash_shard(shard)
        router.get(b"k")  # router notices the promotion, drops the shard
        router.cache._entries[digest] = captured  # the replay
        assert router.get(b"k") == b"pre-failover"
        assert router.last_read_path != "cache"
        assert router.cache.epoch_drops >= 1


class TestChaosEquivalence:
    def test_clean_run_state_digest_unchanged_by_read_paths(self):
        base = run_chaos(
            seed=11, schedule="", ops=150,
            cluster=ClusterSpec(shards=3, replicas=1),
        )
        cached = run_chaos(
            seed=11, schedule="", ops=150,
            cluster=ClusterSpec(
                shards=3, replicas=1, near_cache=True, read_offload=True
            ),
        )
        assert base.ok and cached.ok
        assert base.state_digest == cached.state_digest
        assert cached.cache_stats["hits"] > 0  # the cache actually engaged

    def test_faulted_run_survives_with_cache_and_offload(self):
        report = run_chaos(
            seed=7, schedule=CHAOS_SCHEDULE, ops=200,
            cluster=ClusterSpec(
                shards=3, replicas=2, ack_mode="async",
                near_cache=True, read_offload=True,
            ),
        )
        assert report.ok, report.violations
        assert sum(report.fault_counts.values()) > 0

    @pytest.mark.parametrize("ack_mode", ["sync", "semi-sync", "async"])
    def test_faulted_runs_deterministic_per_ack_mode(self, ack_mode):
        kwargs = dict(
            seed=7, schedule=CHAOS_SCHEDULE, ops=200,
            cluster=ClusterSpec(
                shards=3, replicas=2, ack_mode=ack_mode,
                near_cache=True, read_offload=True,
            ),
        )
        first = run_chaos(**kwargs)
        second = run_chaos(**kwargs)
        assert first.ok and second.ok
        assert first.state_digest == second.state_digest
        assert first.fault_fingerprint == second.fault_fingerprint
        assert first.cache_stats == second.cache_stats
        assert first.offload_served == second.offload_served


class TestTrafficDefaultsOff:
    def test_defaults_off_report_is_byte_identical_and_unannotated(self):
        cluster = ClusterSpec(shards=2)
        first = run_scenario("steady", seed=5, cluster=cluster, ops=120)
        second = run_scenario("steady", seed=5, cluster=cluster, ops=120)
        assert first.to_dict() == second.to_dict()
        assert "near_cache" not in first.to_dict()

    def test_enabled_report_carries_the_cache_section(self):
        report = run_scenario(
            "steady", seed=5, ops=120,
            cluster=ClusterSpec(
                shards=2, replicas=1, near_cache=True, read_offload=True
            ),
        )
        out = report.to_dict()
        assert out["near_cache"] is True
        assert out["read_offload"] is True
