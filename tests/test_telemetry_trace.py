"""Causal trace-context continuity across retries, duplicates, failover.

The acceptance criterion from the telemetry ISSUE: a request that hits a
fault must carry its *whole* recovery inside one trace record -- the
retry, the reconnect, the failover re-route, the promotion follow -- so
the flight recorder can replay the request's path after the fact.
"""

from repro.obs import ManualClock, ObsContext
from repro.rdma.fabric import FaultAction
from repro.shard import ShardedCluster, ShardedClient


def _cluster_client(shards=2, replicas=0, seed=3, **kwargs):
    obs = ObsContext.create(clock=ManualClock())
    cluster = ShardedCluster(shards=shards, seed=seed, obs=obs, replicas=replicas)
    client = ShardedClient(cluster, client_id=1, max_retries=3, **kwargs)
    return obs, cluster, client


def _owner_key(cluster, shard, limit=512):
    """A key routed to ``shard`` under the current map."""
    for i in range(limit):
        key = b"probe-%03d" % i
        if cluster.shard_map.owner(key) == shard:
            return key
    raise AssertionError(f"no key routed to {shard} in {limit} probes")


def _drop_next_reply(server, session):
    """One-shot fabric fault eating the next server->client write."""
    state = {"armed": True}

    def hook(qp, wr):
        if state["armed"] and qp is not session._qp:
            state["armed"] = False
            return FaultAction.DROP
        return None

    server.fabric.install_fault_hook(hook)
    return state


class TestRetryContinuity:
    def test_lost_ack_retry_stays_in_one_context(self):
        obs, cluster, client = _cluster_client()
        shard = cluster.shards[0]
        key = _owner_key(cluster, shard)
        server = cluster.server(shard)
        state = _drop_next_reply(server, client.sessions[shard])

        client.put(key, b"v")
        server.fabric.install_fault_hook(None)
        assert not state["armed"]  # the fault actually fired

        ctx = obs.tracer.last
        kinds = ctx.hop_kinds()
        assert ctx.status == "ok"
        assert "route" in kinds
        assert "retry" in kinds  # the recovery is part of the same trace
        assert kinds.index("route") < kinds.index("retry")
        assert ctx.shards_touched() == [shard]
        # Exactly one context for the one logical operation.
        assert obs.tracer.finished_total == 1

    def test_clean_op_has_no_recovery_hops(self):
        obs, cluster, client = _cluster_client()
        client.put(b"k", b"v")
        kinds = obs.tracer.last.hop_kinds()
        assert "route" in kinds and "server" in kinds
        assert not {"retry", "reconnect", "failover"} & set(kinds)


class TestDuplicateReplyContinuity:
    def test_dup_reply_cache_hit_lands_as_hop(self):
        obs, cluster, client = _cluster_client()
        shard = cluster.shards[0]
        key = _owner_key(cluster, shard)
        session = client.sessions[shard]
        session.submit_fault_hook = lambda frame: True  # duplicate all

        client.put(key, b"v1")
        client.put(key, b"v2")  # pumping processes the duplicate
        session.submit_fault_hook = None

        server = cluster.server(shard)
        assert server.stats.duplicate_replies > 0
        # The replay-filter hit was recorded into a live context.
        all_kinds = [
            kind
            for ctx in obs.tracer.finished
            for kind in ctx.hop_kinds()
        ]
        assert "dup_reply" in all_kinds
        assert client.get(key) == b"v2"  # duplicates never double-apply


class TestFailoverContinuity:
    def test_promotion_follow_recorded_in_context(self):
        obs, cluster, client = _cluster_client(shards=2, replicas=1)
        victim = cluster.shards[0]
        key = _owner_key(cluster, victim)
        client.put(key, b"before")

        cluster.crash_shard(victim)  # backup promotes behind the name

        assert client.get(key) == b"before"
        ctx = obs.tracer.last
        kinds = ctx.hop_kinds()
        # The router notices the swapped primary at session lookup and
        # re-attests inside the same request context.
        assert "reattach" in kinds
        assert kinds.index("reattach") < kinds.index("server")
        assert ctx.status == "ok"
        assert client.promotions_followed >= 1

    def test_route_around_dead_shard_records_failover_hop(self):
        obs, cluster, client = _cluster_client(shards=2, replicas=0)
        victim = cluster.shards[0]
        key = _owner_key(cluster, victim)

        cluster.server(victim).crash()  # no backup: ring must shrink

        client.put(key, b"v")  # router fails over to the survivor
        ctx = obs.tracer.last
        kinds = ctx.hop_kinds()
        assert "failover" in kinds
        assert ctx.status == "ok"
        survivor = cluster.shards[0]
        assert ctx.shards_touched()[-1] == survivor
        assert client.failovers >= 1

    def test_stale_epoch_retry_recorded_in_context(self):
        obs, cluster, client = _cluster_client(shards=2, replicas=0)
        # A shard joins, bumping the epoch behind the router's back; the
        # next op on a migrated key must record the stale retry.
        items = {}
        for i in range(60):
            key = b"stale-%03d" % i
            client.put(key, b"v%03d" % i)
            items[key] = b"v%03d" % i
        cluster.add_shard()
        migrated = next(
            key for key in items if cluster.owner(key) == "shard-2"
        )
        assert client.get(migrated) == items[migrated]
        assert client.stale_retries >= 1
        all_kinds = [
            kind
            for ctx in obs.tracer.finished
            for kind in ctx.hop_kinds()
        ]
        assert "stale_retry" in all_kinds


class TestTraceIdDeterminism:
    def test_same_workload_same_ids_and_hops(self):
        def run():
            obs, cluster, client = _cluster_client()
            for i in range(12):
                client.put(b"k%02d" % i, b"v")
                client.get(b"k%02d" % i)
            return [
                (c.trace_id, c.op, tuple(c.hop_kinds()))
                for c in obs.tracer.finished
            ]

        assert run() == run()
