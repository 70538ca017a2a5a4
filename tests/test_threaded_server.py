"""Real-thread server: trusted polling threads over client subsets (§3.8)."""

import threading

import pytest

from repro.core import (
    PrecursorClient,
    PrecursorServer,
    PrecursorServerEncryption,
    ServerEncryptionClient,
    ServerThreadPool,
)
from repro.errors import ConfigurationError, KeyNotFoundError


def make_threaded(threads=3, clients=4, server_encryption=False):
    if server_encryption:
        server, client_cls = PrecursorServerEncryption(), ServerEncryptionClient
    else:
        server, client_cls = PrecursorServer(), PrecursorClient
    pool = ServerThreadPool(server, threads=threads)
    client_objects = [
        client_cls(
            server,
            client_id=i + 1,
            auto_pump=False,
            response_timeout_s=5.0,
        )
        for i in range(clients)
    ]
    return server, pool, client_objects


class TestThreadedOperation:
    def test_basic_ops_through_threads(self):
        server, pool, (client,) = make_threaded(threads=2, clients=1)
        with pool:
            client.put(b"k", b"v")
            assert client.get(b"k") == b"v"
            client.delete(b"k")
            with pytest.raises(KeyNotFoundError):
                client.get(b"k")

    def test_many_sequential_ops(self):
        server, pool, (client,) = make_threaded(threads=2, clients=1)
        with pool:
            for i in range(120):
                client.put(f"k{i}".encode(), f"v{i}".encode())
            for i in range(120):
                assert client.get(f"k{i}".encode()) == f"v{i}".encode()
        assert server.key_count == 120
        assert pool.total_handled == 240

    def test_clients_partitioned_across_threads(self):
        server, pool, clients = make_threaded(threads=3, clients=6)
        with pool:
            for index, client in enumerate(clients):
                client.put(f"owner{index}".encode(), b"v")
        # Every thread with assigned clients did some work.
        assert sum(1 for h in pool.handled if h > 0) >= 2

    def test_concurrent_client_threads(self):
        """Multiple client threads hammering the threaded server: all data
        must land, reads must verify, no MAC/replay errors."""
        self._hammer(*make_threaded(threads=3, clients=4))

    def test_concurrent_server_encryption_client_threads(self):
        """The server-encryption variant runs the same trusted threads."""
        server, pool, clients = make_threaded(
            threads=3, clients=4, server_encryption=True
        )
        self._hammer(server, pool, clients)
        assert server.enclave_crypto_bytes > 0

    @staticmethod
    def _hammer(server, pool, clients):
        errors = []

        def worker(client, tag):
            try:
                for i in range(40):
                    key = f"{tag}-{i}".encode()
                    client.put(key, f"{tag}-value-{i}".encode())
                    assert client.get(key) == f"{tag}-value-{i}".encode()
            except Exception as exc:  # pragma: no cover - fail loudly
                errors.append((tag, exc))

        with pool:
            threads = [
                threading.Thread(target=worker, args=(client, f"c{i}"))
                for i, client in enumerate(clients)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        assert errors == []
        assert server.key_count == 4 * 40
        assert server.stats.auth_failures == 0
        assert server.stats.replay_rejections == 0

    def test_cross_client_visibility_under_threads(self):
        server, pool, clients = make_threaded(threads=2, clients=2)
        writer, reader = clients
        with pool:
            writer.put(b"shared", b"payload")
            assert reader.get(b"shared") == b"payload"

    def test_pool_restart(self):
        server, pool, (client,) = make_threaded(threads=2, clients=1)
        pool.start()
        client.put(b"a", b"1")
        pool.stop()
        pool.start()
        assert client.get(b"a") == b"1"
        pool.stop()

    def test_invalid_thread_count(self):
        with pytest.raises(ConfigurationError):
            ServerThreadPool(PrecursorServer(), threads=0)

    def test_client_added_while_pool_running(self):
        server = PrecursorServer()
        pool = ServerThreadPool(server, threads=2)
        with pool:
            late = PrecursorClient(
                server, client_id=50, auto_pump=False, response_timeout_s=5.0
            )
            late.put(b"late", b"arrival")
            assert late.get(b"late") == b"arrival"
