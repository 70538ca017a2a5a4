"""Untrusted-pool compaction: garbage reclamation with pointer rewrite."""

from repro.core import ServerConfig, make_pair
from repro.core.threading import ServerThreadPool
from repro.core import PrecursorClient, PrecursorServer


class TestCompaction:
    def test_updates_create_garbage(self, pair):
        server, client = pair
        for _ in range(10):
            client.put(b"k", b"x" * 100)
        assert server.payload_store.dead_bytes >= 9 * 100

    def test_compact_reclaims_dead_bytes(self, pair):
        server, client = pair
        for i in range(20):
            client.put(b"k", f"value-{i}".encode() * 10)
        reclaimed = server.compact_payloads()
        assert reclaimed > 0
        assert server.payload_store.dead_bytes == 0

    def test_values_survive_compaction_with_valid_macs(self, pair):
        """Compaction moves ciphertext+MAC blobs; clients must still be
        able to verify them -- byte-exact relocation."""
        server, client = pair
        for i in range(30):
            client.put(f"k{i}".encode(), f"v{i}".encode() * 5)
        for i in range(30):
            client.put(f"k{i}".encode(), f"v{i}-updated".encode() * 5)
        server.compact_payloads()
        for i in range(30):
            assert client.get(f"k{i}".encode()) == f"v{i}-updated".encode() * 5

    def test_compact_on_clean_pool_is_a_noop(self, pair):
        server, client = pair
        client.put(b"k", b"v")
        store_before = server.payload_store
        assert server.compact_payloads() == 0
        assert server.payload_store is store_before

    def test_compaction_shrinks_arena_count(self):
        config = ServerConfig(arena_size=4096)
        server, client = make_pair(config=config, seed=17)
        for i in range(50):
            client.put(b"hot-key", bytes([i]) * 1000)
        arenas_before = server.payload_store.arena_count
        server.compact_payloads()
        assert server.payload_store.arena_count < arenas_before
        assert client.get(b"hot-key") == bytes([49]) * 1000

    def test_compaction_works_for_server_encryption_variant(self):
        server, client = make_pair(seed=18, server_encryption=True)
        for i in range(10):
            client.put(b"k", f"value-{i}".encode() * 8)
        assert server.compact_payloads() > 0
        assert client.get(b"k") == b"value-9" * 8

    def test_compaction_under_threaded_serving(self):
        """Compaction takes the write lock; concurrent reads must never
        observe a dangling pointer."""
        server = PrecursorServer()
        pool = ServerThreadPool(server, threads=2)
        client = PrecursorClient(
            server, client_id=1, auto_pump=False, response_timeout_s=5.0
        )
        with pool:
            for i in range(20):
                client.put(b"k", f"v{i}".encode() * 20)

            errors = []

            def reader():
                try:
                    for _ in range(30):
                        client_value = None  # placeholder to appease lint
                        del client_value
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

            # Reads interleaved with compaction from the main thread.
            for _ in range(5):
                assert client.get(b"k") == b"v19" * 20
                server.compact_payloads()
            assert errors == []
