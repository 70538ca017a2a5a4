"""Tenant isolation (§3.3's ACL-on-top) and pipelined batch operations."""

import pytest

from repro.core import (
    PrecursorClient,
    PrecursorServer,
    ServerConfig,
    make_pair,
)
from repro.errors import (
    ConfigurationError,
    KeyNotFoundError,
    PrecursorError,
)
from repro.core.persistence import CheckpointManager
from repro.faults.recovery import crash_restart
from repro.rdma.fabric import Fabric
from repro.shard import ShardedClient, ShardedCluster


def make_tenant_setup():
    server = PrecursorServer(
        fabric=Fabric(), config=ServerConfig(tenant_isolation=True)
    )
    alice = PrecursorClient(server, client_id=1)
    bob = PrecursorClient(server, client_id=2)
    return server, alice, bob


class TestTenantIsolation:
    def test_owner_can_read_own_data(self):
        _, alice, _ = make_tenant_setup()
        alice.put(b"a:doc", b"private")
        assert alice.get(b"a:doc") == b"private"

    def test_other_tenant_denied_without_grant(self):
        """The enclave refuses to release the one-time key: the deny reads
        as NOT_FOUND so key existence does not leak."""
        _, alice, bob = make_tenant_setup()
        alice.put(b"a:doc", b"private")
        with pytest.raises(KeyNotFoundError):
            bob.get(b"a:doc")

    def test_grant_enables_cross_tenant_read(self):
        server, alice, bob = make_tenant_setup()
        alice.put(b"a:shared", b"for-bob")
        server.grant_access(b"a:shared", bob.client_id)
        assert bob.get(b"a:shared") == b"for-bob"

    def test_grant_does_not_allow_overwrite(self):
        server, alice, bob = make_tenant_setup()
        alice.put(b"a:doc", b"v1")
        server.grant_access(b"a:doc", bob.client_id)
        with pytest.raises(PrecursorError):
            bob.put(b"a:doc", b"hijacked")
        assert alice.get(b"a:doc") == b"v1"

    def test_non_owner_cannot_delete(self):
        _, alice, bob = make_tenant_setup()
        alice.put(b"a:doc", b"v1")
        with pytest.raises(KeyNotFoundError):
            bob.delete(b"a:doc")
        assert alice.get(b"a:doc") == b"v1"

    def test_owner_delete_revokes_grants(self):
        server, alice, bob = make_tenant_setup()
        alice.put(b"a:doc", b"v1")
        server.grant_access(b"a:doc", bob.client_id)
        alice.delete(b"a:doc")
        # Recreated by another tenant: the stale grant must not apply.
        bob.put(b"a:doc", b"bobs-now")
        charlie = PrecursorClient(server, client_id=3)
        with pytest.raises(KeyNotFoundError):
            charlie.get(b"a:doc")

    def test_grants_survive_crash_restart(self):
        """Grants are enclave metadata, so the sealed checkpoint carries
        them: after a crash-restart the reconnected grantee still reads."""
        server, alice, bob = make_tenant_setup()
        alice.put(b"a:shared", b"for-bob")
        server.grant_access(b"a:shared", bob.client_id)
        assert bob.get(b"a:shared") == b"for-bob"
        crash_restart(server, CheckpointManager())
        bob.reconnect()
        assert bob.get(b"a:shared") == b"for-bob"
        charlie = PrecursorClient(server, client_id=3)
        with pytest.raises(KeyNotFoundError):
            charlie.get(b"a:shared")

    def test_grant_needs_a_stored_key(self):
        """A grant belongs to the stored entry: granted ahead of the
        write, it would go to whichever tenant wrote the key first."""
        server, alice, bob = make_tenant_setup()
        with pytest.raises(KeyNotFoundError):
            server.grant_access(b"a:later", alice.client_id)
        bob.put(b"a:later", b"bobs")
        with pytest.raises(KeyNotFoundError):
            alice.get(b"a:later")

    def test_grant_reaches_the_backup_before_a_failover(self):
        cluster = ShardedCluster(
            shards=1, replicas=1, seed=3,
            config=ServerConfig(tenant_isolation=True),
        )
        owner = ShardedClient(cluster)
        reader = ShardedClient(cluster)
        owner.put(b"shared", b"for-reader")
        cluster.server_for(b"shared").grant_access(
            b"shared", reader.client_id
        )
        cluster.crash_shard(cluster.shards[0])  # the backup is promoted
        assert reader.get(b"shared") == b"for-reader"
        with pytest.raises(KeyNotFoundError):
            ShardedClient(cluster).get(b"shared")

    def test_grants_require_isolation_mode(self):
        server, _ = make_pair(seed=1)
        with pytest.raises(ConfigurationError):
            server.grant_access(b"k", 2)

    def test_isolation_off_by_default(self):
        server, client = make_pair(seed=1)
        other = PrecursorClient(server, client_id=77)
        client.put(b"k", b"open")
        assert other.get(b"k") == b"open"


class TestBatchedOperations:
    def test_put_many_get_many_roundtrip(self, pair):
        _, client = pair
        items = [(f"b{i}".encode(), f"val-{i}".encode()) for i in range(30)]
        assert client.put_many(items) == 30
        values = client.get_many([key for key, _ in items])
        assert values == [value for _, value in items]

    def test_batch_larger_than_ring(self):
        """Batches beyond the ring depth must chunk, not deadlock."""
        config = ServerConfig(ring_slots=8, ring_slot_size=4096)
        _, client = make_pair(config=config, seed=5)
        items = [(f"k{i}".encode(), f"v{i}".encode()) for i in range(50)]
        assert client.put_many(items) == 50
        assert client.get_many([b"k0", b"k49"]) == [b"v0", b"v49"]

    def test_get_many_missing_key_raises(self, pair):
        _, client = pair
        client.put_many([(b"a", b"1")])
        with pytest.raises(KeyNotFoundError):
            client.get_many([b"a", b"ghost"])

    def test_batch_interleaves_with_single_ops(self, pair):
        server, client = pair
        client.put(b"single", b"s")
        client.put_many([(b"x", b"1"), (b"y", b"2")])
        assert client.get(b"single") == b"s"
        assert client.get_many([b"x", b"y"]) == [b"1", b"2"]
        assert server._replay.expected_oid(client.client_id) == client._oid + 1

    def test_empty_batch(self, pair):
        _, client = pair
        assert client.put_many([]) == 0
        assert client.get_many([]) == []

    def test_batched_values_are_integrity_protected(self, pair):
        server, client = pair
        client.put_many([(b"k", b"value")])
        entry = server._table.get(b"k")
        server.payload_store.corrupt(entry.ptr)
        from repro.errors import IntegrityError

        with pytest.raises(IntegrityError):
            client.get_many([b"k"])
