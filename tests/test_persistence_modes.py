"""Persistence across server configuration modes, and ShieldStore bulk load."""

import pytest

from repro.baselines.shieldstore import ShieldStoreConfig, ShieldStoreServer
from repro.core import (
    PrecursorClient,
    PrecursorServer,
    ServerConfig,
    make_pair,
)
from repro.core.persistence import CheckpointManager
from repro.faults.recovery import crash_restart
from repro.rdma.fabric import Fabric


class TestStrictIntegrityPersistence:
    def test_enclave_macs_survive_checkpoint_restore(self):
        """Strict-integrity entries carry their MAC in trusted state; the
        restored server must keep enforcing §3.9 semantics."""
        config = ServerConfig(strict_integrity=True)
        server, client = make_pair(seed=61, config=config)
        for i in range(10):
            client.put(f"k{i}".encode(), f"v{i}".encode())
        manager = CheckpointManager()
        checkpoint = manager.checkpoint(server)

        restarted = PrecursorServer(fabric=Fabric(), config=config)
        restarted.start()
        manager.restore(restarted, checkpoint)
        entry = restarted._table.get(b"k3")
        assert entry.mac is not None and len(entry.mac) == 16

        reader = PrecursorClient(restarted, client_id=300)
        assert reader.get(b"k3") == b"v3"

    def test_inline_mode_checkpoints_round_trip(self):
        """Inline payloads live in trusted memory: their records carry the
        inline flag, and restore charges the bytes back to the enclave."""
        config = ServerConfig(inline_small_values=True)
        server, client = make_pair(seed=62, config=config)
        client.put(b"tiny", b"x")
        client.put(b"large", b"y" * 200)
        manager = CheckpointManager()
        checkpoint = manager.checkpoint(server)

        restarted = PrecursorServer(fabric=Fabric(), config=config)
        restarted.start()
        assert manager.restore(restarted, checkpoint) == 2
        inline_bytes = server.enclave.allocator.bytes_for("inline_values")
        assert inline_bytes > 0
        assert restarted.enclave.allocator.bytes_for("inline_values") == inline_bytes
        assert restarted._table.get(b"tiny").inline_payload is not None
        assert restarted._table.get(b"large").ptr is not None
        reader = PrecursorClient(restarted, client_id=302)
        assert reader.get(b"tiny") == b"x"
        assert reader.get(b"large") == b"y" * 200

    @pytest.mark.parametrize(
        "mode", ["strict_integrity", "inline_small_values", "tenant_isolation"]
    )
    def test_crash_restart_round_trips_every_record(self, mode):
        """Each entry comes back as the record it left as -- MAC, inline
        flag, owner and grants -- and the pool holds only live blobs."""
        config = ServerConfig(**{mode: True})
        server = PrecursorServer(fabric=Fabric(), config=config)
        owner = PrecursorClient(server, client_id=1)
        grantee = PrecursorClient(server, client_id=2)
        for i in range(6):
            owner.put(f"k{i}".encode(), f"v{i}".encode() * (1 + 10 * i))
        owner.put(b"k5", b"rewritten" * 8)  # leaves a dead blob in the pool
        if config.tenant_isolation:
            server.grant_access(b"k1", grantee.client_id)
        records = {key: server._export_record(key) for key in server.stored_keys()}
        inline_bytes = server.enclave.allocator.bytes_for("inline_values")
        live_bytes = server.payload_store.live_bytes
        assert server.payload_store.dead_bytes > 0

        assert crash_restart(server, CheckpointManager()) == 6
        assert {
            key: server._export_record(key) for key in server.stored_keys()
        } == records
        assert server.enclave.allocator.bytes_for("inline_values") == inline_bytes
        assert server.payload_store.live_bytes == live_bytes
        assert server.payload_store.dead_bytes == 0
        owner.reconnect()
        grantee.reconnect()
        assert owner.get(b"k5") == b"rewritten" * 8
        assert grantee.get(b"k1") == b"v1" * 11

    def test_compaction_then_checkpoint_then_restore(self):
        """Pointers rewritten by compaction must checkpoint correctly."""
        server, client = make_pair(seed=63)
        for i in range(15):
            client.put(b"hot", f"version-{i}".encode() * 4)
        server.compact_payloads()
        manager = CheckpointManager()
        checkpoint = manager.checkpoint(server)

        restarted = PrecursorServer(fabric=Fabric(), config=server.config)
        restarted.start()
        manager.restore(restarted, checkpoint)
        reader = PrecursorClient(restarted, client_id=301)
        assert reader.get(b"hot") == b"version-14" * 4

    def test_two_servers_share_one_counter_service(self):
        """Independent enclaves may checkpoint against the same platform
        counters without interfering (distinct counter names)."""
        manager_a = CheckpointManager(counter_name="store-a")
        manager_b = CheckpointManager(
            counters=manager_a.counters, counter_name="store-b"
        )
        server_a, client_a = make_pair(seed=64)
        server_b, client_b = make_pair(seed=65)
        client_a.put(b"a", b"1")
        client_b.put(b"b", b"2")
        ckpt_a = manager_a.checkpoint(server_a)
        ckpt_b = manager_b.checkpoint(server_b)
        # Each restores against its own counter, both at value 1.
        fresh_a = PrecursorServer(fabric=Fabric(), config=server_a.config)
        fresh_a.start()
        manager_a.restore(fresh_a, ckpt_a)
        fresh_b = PrecursorServer(fabric=Fabric(), config=server_b.config)
        fresh_b.start()
        manager_b.restore(fresh_b, ckpt_b)
        assert fresh_a.key_count == 1 and fresh_b.key_count == 1


class TestShieldStoreWarmLoad:
    def test_warm_load_counts_and_serves(self):
        server = ShieldStoreServer(config=ShieldStoreConfig(num_buckets=64))
        rows = [(f"w{i}".encode(), f"v{i}".encode()) for i in range(200)]
        assert server.warm_load(rows) == 200
        assert server.key_count == 200
        assert server.get(b"w42") == b"v42"

    def test_warm_load_updates_merkle_tree(self):
        server = ShieldStoreServer(config=ShieldStoreConfig(num_buckets=8))
        root_before = server.merkle_root
        server.warm_load([(b"k", b"v")])
        assert server.merkle_root != root_before
