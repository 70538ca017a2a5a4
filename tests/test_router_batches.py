"""Router batches run the single-key path: key checks, failover, claims.

``ShardedClient.put``/``get`` are ``put_many``/``get_many`` of one key,
so a batch gets everything a single key gets: every key is checked
before anything is routed, a shard's death fails over, and every acked
write anchors its freshness claim and fills the near-cache.
"""

import pytest

from repro.errors import IntegrityError, ProtocolError
from repro.obs import ManualClock
from repro.shard import ShardedClient, ShardedCluster


def _items(count, prefix=b"key"):
    return [(b"%s-%02d" % (prefix, i), b"value-%02d" % i) for i in range(count)]


class TestKeysAreCheckedBeforeRouting:
    def test_put_many_with_one_empty_key_stores_nothing(self):
        cluster = ShardedCluster(shards=3, seed=2)
        router = ShardedClient(cluster)
        with pytest.raises(ProtocolError):
            router.put_many(_items(30) + [(b"", b"x")])
        assert cluster.total_keys() == 0
        assert router.operations == 0

    @pytest.mark.parametrize(
        "call",
        [
            lambda r: r.get("key"),
            lambda r: r.get_many([b"key-00", "key"]),
            lambda r: r.put("key", b"v"),
            lambda r: r.put_many([(b"key-00", b"v"), ("key", b"v")]),
            lambda r: r.delete("key"),
        ],
        ids=["get", "get_many", "put", "put_many", "delete"],
    )
    def test_a_str_key_is_a_protocol_error(self, call):
        cluster = ShardedCluster(shards=3, seed=2)
        router = ShardedClient(cluster)
        with pytest.raises(ProtocolError):
            call(router)
        assert cluster.total_keys() == 0


class TestBatchFailover:
    def test_put_many_fails_over_a_dead_unreplicated_shard(self):
        cluster = ShardedCluster(shards=3, seed=2)
        router = ShardedClient(cluster)
        assert router.put_many(_items(30)) == 30
        victim = cluster.shards[0]
        cluster.crash_shard(victim)
        fresh = _items(30, prefix=b"again")
        assert router.put_many(fresh) == 30
        assert router.failovers == 1
        assert victim not in cluster.shard_map.ring.shards
        keys = [key for key, _value in fresh]
        assert router.get_many(keys) == [value for _key, value in fresh]


class TestBatchClaimsAndCache:
    def test_put_many_claims_and_caches_every_key(self):
        clock = ManualClock()
        cluster = ShardedCluster(shards=2, seed=2)
        router = ShardedClient(
            cluster, near_cache=True, cache_clock=clock, cache_lease_ns=1_000
        )
        items = _items(20)
        assert router.put_many(items) == 20
        assert router.freshness.tracked == 20
        assert router.cache.entries == 20
        # Every lease runs out, so the next reads revalidate against the
        # store, where one value was flipped at rest.
        clock.advance(10_000)
        victim = items[7][0]
        server = cluster.server(cluster.owner(victim))
        server.payload_store.corrupt(server._table.get(victim).ptr)
        with pytest.raises(IntegrityError):
            router.get_many([key for key, _value in items])
        assert router.integrity_failures == 1
        assert router.cache.peek(victim) is None
        assert router.cache.entries == 19
