"""Functional integration: the full Precursor client/server data path."""

import pytest

from repro.core import PrecursorClient, PrecursorServer, ServerConfig, make_pair
from repro.errors import KeyNotFoundError, PrecursorError
from repro.rdma.qp import QpState


class TestBasicOperations:
    def test_put_get(self, pair):
        server, client = pair
        client.put(b"user:42", b"alice")
        assert client.get(b"user:42") == b"alice"

    def test_update_overwrites(self, pair):
        _, client = pair
        client.put(b"k", b"v1")
        client.put(b"k", b"v2")
        assert client.get(b"k") == b"v2"

    def test_get_missing_key(self, pair):
        _, client = pair
        with pytest.raises(KeyNotFoundError):
            client.get(b"ghost")

    def test_delete(self, pair):
        _, client = pair
        client.put(b"k", b"v")
        client.delete(b"k")
        with pytest.raises(KeyNotFoundError):
            client.get(b"k")

    def test_delete_missing_key(self, pair):
        _, client = pair
        with pytest.raises(KeyNotFoundError):
            client.delete(b"never-stored")

    def test_empty_value(self, pair):
        _, client = pair
        client.put(b"k", b"")
        assert client.get(b"k") == b""

    def test_large_value(self, pair):
        _, client = pair
        value = bytes(range(256)) * 64  # 16 KiB, the paper's max
        client.put(b"big", value)
        assert client.get(b"big") == value

    def test_binary_keys_and_values(self, pair):
        _, client = pair
        key = bytes(range(32))
        value = bytes(reversed(range(256)))
        client.put(key, value)
        assert client.get(key) == value

    def test_invalid_key_rejected(self, pair):
        _, client = pair
        with pytest.raises(PrecursorError):
            client.put(b"", b"v")
        with pytest.raises(PrecursorError):
            client.get("not-bytes")


class TestManyOperations:
    def test_ring_wraps_many_times(self, pair):
        server, client = pair
        for i in range(300):
            client.put(f"key-{i}".encode(), f"value-{i}".encode())
        for i in range(300):
            assert client.get(f"key-{i}".encode()) == f"value-{i}".encode()
        assert server.key_count == 300

    def test_small_ring_with_credits(self, small_ring_config):
        server, client = make_pair(config=small_ring_config, seed=3)
        for i in range(40):
            client.put(f"k{i}".encode(), b"v")
        assert server.key_count == 40

    def test_interleaved_operations(self, pair):
        _, client = pair
        client.put(b"a", b"1")
        client.put(b"b", b"2")
        assert client.get(b"a") == b"1"
        client.delete(b"a")
        client.put(b"a", b"3")
        assert client.get(b"a") == b"3"
        assert client.get(b"b") == b"2"


class TestMultipleClients:
    def test_clients_share_the_store(self):
        server = PrecursorServer()
        alice = PrecursorClient(server, client_id=1)
        bob = PrecursorClient(server, client_id=2)
        alice.put(b"shared", b"from-alice")
        assert bob.get(b"shared") == b"from-alice"

    def test_clients_have_independent_sessions(self):
        server = PrecursorServer()
        alice = PrecursorClient(server, client_id=1)
        bob = PrecursorClient(server, client_id=2)
        assert alice.session.key != bob.session.key

    def test_many_clients_interleaved(self):
        server = PrecursorServer()
        clients = [PrecursorClient(server, client_id=i + 1) for i in range(5)]
        for index, client in enumerate(clients):
            client.put(f"owner-{index}".encode(), str(index).encode())
        for index, client in enumerate(clients):
            reader = clients[(index + 1) % len(clients)]
            assert reader.get(f"owner-{index}".encode()) == str(index).encode()

    def test_duplicate_client_id_rejected(self):
        server = PrecursorServer()
        PrecursorClient(server, client_id=1)
        with pytest.raises(Exception):
            PrecursorClient(server, client_id=1)


class TestSgxDiscipline:
    def test_exactly_three_ecall_gates(self, pair):
        """The paper's implementation exposes exactly three ecalls (§4)."""
        server, _ = pair
        assert sorted(server.enclave.ecall_names) == [
            "add_client",
            "init_hashtable",
            "start_polling",
        ]

    @pytest.mark.parametrize("ecall_batch", [1, 16])
    def test_transitions_do_not_scale_with_requests(self, ecall_batch):
        """Startup takes 2 ecalls + 1 per client; steady-state requests
        cross the boundary zero times (R2), at every drain window."""
        server, client = make_pair(
            config=ServerConfig(ecall_batch=ecall_batch), seed=1234
        )
        baseline = server.enclave.transitions.ecalls
        for i in range(100):
            client.put(f"k{i}".encode(), b"v")
            client.get(f"k{i}".encode())
        assert server.enclave.transitions.ecalls == baseline

    def test_payload_never_in_trusted_memory(self, pair):
        """The defining invariant: no payload bytes in the trusted heap."""
        server, client = pair
        client.put(b"k", b"supersecret-payload")
        tags = server.enclave.allocator.tags()
        assert "inline_values" not in tags or tags["inline_values"] == 0
        # Payload lives in the untrusted pool instead.
        assert server.payload_store.live_bytes > 0

    def test_pool_growth_issues_ocalls(self):
        config = ServerConfig(arena_size=4096)
        server, client = make_pair(config=config, seed=9)
        baseline = server.enclave.transitions.ocalls
        for i in range(40):
            client.put(f"k{i}".encode(), b"v" * 500)
        assert server.payload_store.grow_count > 0
        assert (
            server.enclave.transitions.ocalls - baseline
            == server.payload_store.grow_count
        )

    def test_trusted_working_set_grows_with_keys_only(self, pair):
        server, client = pair
        client.put(b"k0", b"v" * 4096)
        before = server.trusted_working_set_bytes()
        client.put(b"k0", b"v" * 8192)  # bigger value, same key count
        assert server.trusted_working_set_bytes() == before


class TestInlineSmallValues:
    """The §5.2 future-work extension: values below the control-data size
    may live inside the enclave to save the untrusted read."""

    def test_small_value_stored_inline(self):
        config = ServerConfig(inline_small_values=True)
        server, client = make_pair(config=config, seed=5)
        client.put(b"tiny", b"x" * 8)
        assert server.stats.inline_stores == 1
        assert server.enclave.allocator.bytes_for("inline_values") > 0
        assert client.get(b"tiny") == b"x" * 8

    def test_large_value_still_external(self):
        config = ServerConfig(inline_small_values=True)
        server, client = make_pair(config=config, seed=5)
        client.put(b"big", b"x" * 500)
        assert server.stats.inline_stores == 0
        assert client.get(b"big") == b"x" * 500

    def test_inline_update_and_delete_free_trusted_bytes(self):
        config = ServerConfig(inline_small_values=True)
        server, client = make_pair(config=config, seed=5)
        client.put(b"tiny", b"x" * 8)
        client.put(b"tiny", b"y" * 8)  # update replaces inline slot
        assert client.get(b"tiny") == b"y" * 8
        client.delete(b"tiny")
        assert server.enclave.allocator.bytes_for("inline_values") == 0

    def test_disabled_by_default(self, pair):
        server, client = pair
        client.put(b"tiny", b"x")
        assert server.stats.inline_stores == 0


class TestRevocation:
    def test_revoked_client_is_cut_off(self):
        """§3.9: rogue clients are revoked via QP state transitions."""
        server = PrecursorServer()
        client = PrecursorClient(server, client_id=1)
        client.put(b"k", b"v")
        server.revoke_client(1)
        channel = server._channels[1]
        assert channel.qp.state is QpState.ERR
        with pytest.raises(PrecursorError):
            client.put(b"k2", b"v2")

    def test_other_clients_unaffected_by_revocation(self):
        server = PrecursorServer()
        rogue = PrecursorClient(server, client_id=1)
        honest = PrecursorClient(server, client_id=2)
        rogue.put(b"k", b"v")
        server.revoke_client(1)
        honest.put(b"k2", b"v2")
        assert honest.get(b"k2") == b"v2"


class TestStats:
    def test_counters(self, pair):
        server, client = pair
        client.put(b"a", b"1")
        client.get(b"a")
        try:
            client.get(b"missing")
        except KeyNotFoundError:
            pass
        client.delete(b"a")
        assert server.stats.puts == 1
        assert server.stats.gets == 2
        assert server.stats.deletes == 1
        assert server.stats.hits == 1
        assert server.stats.misses == 1

    def test_key_count_tracks_inserts_and_deletes(self, pair):
        server, client = pair
        client.put(b"a", b"1")
        client.put(b"b", b"2")
        assert server.key_count == 2
        client.delete(b"a")
        assert server.key_count == 1

    def test_updates_release_old_payload_slots(self, pair):
        server, client = pair
        client.put(b"k", b"x" * 100)
        client.put(b"k", b"y" * 100)
        assert server.payload_store.dead_bytes >= 100


class TestManualPump:
    def test_auto_pump_disabled_requires_explicit_processing(self):
        server = PrecursorServer()
        client = PrecursorClient(server, client_id=1, auto_pump=False)
        with pytest.raises(PrecursorError, match="no response"):
            client.put(b"k", b"v")
        # The request is sitting in the ring; pump and retry the receive.
        server.process_pending()
        # put() failed after submission, so the reply is pending; drain it.
        frame = client._reply_consumer.poll_one()
        assert frame is not None
