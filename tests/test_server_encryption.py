"""The server-encryption variant: functionality and cost asymmetry."""

import struct

import pytest

from repro.core import (
    PrecursorClient,
    PrecursorServerEncryption,
    ServerConfig,
    ServerEncryptionClient,
    make_pair,
)
from repro.core.persistence import CheckpointManager
from repro.core.protocol import Request
from repro.errors import KeyNotFoundError, PrecursorError, ReplayError
from repro.faults.recovery import crash_restart


class TestBasicOperations:
    def test_put_get(self, se_pair):
        _, client = se_pair
        client.put(b"k", b"value")
        assert client.get(b"k") == b"value"

    def test_update(self, se_pair):
        _, client = se_pair
        client.put(b"k", b"v1")
        client.put(b"k", b"v2")
        assert client.get(b"k") == b"v2"

    def test_delete(self, se_pair):
        _, client = se_pair
        client.put(b"k", b"v")
        client.delete(b"k")
        with pytest.raises(KeyNotFoundError):
            client.get(b"k")

    def test_missing_key(self, se_pair):
        _, client = se_pair
        with pytest.raises(KeyNotFoundError):
            client.get(b"ghost")
        with pytest.raises(KeyNotFoundError):
            client.delete(b"ghost")

    def test_many_operations(self, se_pair):
        server, client = se_pair
        for i in range(150):
            client.put(f"k{i}".encode(), f"v{i}".encode() * 2)
        for i in range(150):
            assert client.get(f"k{i}".encode()) == f"v{i}".encode() * 2
        assert server.key_count == 150

    def test_large_values(self, se_pair):
        _, client = se_pair
        value = b"\xab" * 8192
        client.put(b"big", value)
        assert client.get(b"big") == value

    def test_multiple_clients(self):
        server = PrecursorServerEncryption()
        alice = ServerEncryptionClient(server, client_id=1)
        bob = ServerEncryptionClient(server, client_id=2)
        alice.put(b"shared", b"hello")
        assert bob.get(b"shared") == b"hello"


class TestTenantIsolation:
    def test_stranger_is_refused_and_a_grantee_reads(self):
        server = PrecursorServerEncryption(
            config=ServerConfig(tenant_isolation=True)
        )
        owner = ServerEncryptionClient(server, client_id=1)
        stranger = ServerEncryptionClient(server, client_id=2)
        grantee = ServerEncryptionClient(server, client_id=3)
        owner.put(b"doc", b"private")
        # A denied read looks like a miss, so existence does not leak.
        with pytest.raises(KeyNotFoundError):
            stranger.get(b"doc")
        with pytest.raises(PrecursorError, match="ERROR"):
            stranger.put(b"doc", b"hijacked")
        with pytest.raises(KeyNotFoundError):
            stranger.delete(b"doc")
        assert owner.get(b"doc") == b"private"
        server.grant_access(b"doc", grantee.client_id)
        assert grantee.get(b"doc") == b"private"
        with pytest.raises(KeyNotFoundError):
            stranger.get(b"doc")


class TestCostAsymmetry:
    """The structural difference the paper measures: the SE server pays
    payload cryptography; the client-centric server pays none."""

    def test_se_server_performs_payload_crypto(self, se_pair):
        server, client = se_pair
        client.put(b"k", b"x" * 100)
        client.get(b"k")
        # PUT: decrypt+re-encrypt (2x), GET: storage decrypt (1x).
        assert server.enclave_crypto_bytes == 300

    def test_client_centric_server_performs_none(self, pair):
        server, client = pair
        client.put(b"k", b"x" * 100)
        client.get(b"k")
        assert not hasattr(server, "enclave_crypto_bytes") or (
            server.enclave_crypto_bytes == 0
        )

    def test_se_stores_ciphertext_in_untrusted_memory(self, se_pair):
        """Same scheme as ShieldStore: values re-encrypted under the
        master key sit outside the enclave."""
        server, client = se_pair
        secret = b"very-secret-value-for-se-check!!"
        client.put(b"k", secret)
        for arena in server.payload_store._arenas:
            assert secret not in bytes(arena)


class TestSecurity:
    def test_tampered_storage_detected_server_side(self, se_pair):
        """In the SE scheme the *server* detects tampering (GCM over the
        stored blob fails in the enclave) -- contrast with Precursor where
        the *client* detects it."""
        server, client = se_pair
        client.put(b"k", b"value")
        entry = server._table.get(b"k")
        server.payload_store.corrupt(entry.ptr, flip_at=1)
        with pytest.raises(PrecursorError):
            client.get(b"k")

    def test_replay_protection_active(self, se_pair):
        server, client = se_pair
        client.put(b"k", b"v")
        # Force a stale oid: rewind the client's counter.
        client._oid -= 1
        with pytest.raises(ReplayError):
            client.put(b"k", b"v2")
        assert server.stats.replay_rejections == 1

    def test_distinct_storage_ivs(self, se_pair):
        server, client = se_pair
        client.put(b"a", b"same")
        client.put(b"b", b"same")
        iv_a = server._table.get(b"a").k_operation
        iv_b = server._table.get(b"b").k_operation
        assert iv_a != iv_b


class TestFactory:
    def test_make_pair_selects_variant(self):
        server, client = make_pair(seed=1, server_encryption=True)
        assert isinstance(server, PrecursorServerEncryption)
        assert isinstance(client, ServerEncryptionClient)


class TestRejectedRequestsCounter:
    """Both servers count dropped and replayed frames the same way."""

    @pytest.mark.parametrize("server_encryption", [False, True])
    def test_undecodable_and_replayed_frames_are_counted(
        self, server_encryption
    ):
        server, client = make_pair(seed=5, server_encryption=server_encryption)
        rejected = server.obs.registry.get("server_rejected_requests_total")
        client.put(b"k", b"v")
        assert rejected.value == 0

        # Authentic (sealed under the session key) but undecodable.
        aad = struct.pack(">I", client.client_id)
        sealed = client.provider.transport_seal(
            client.session, b"\xff", aad=aad
        )
        client._submit(
            Request(
                client_id=client.client_id,
                sealed_control=sealed,
                reply_credit=client._reply_consumer.consumed,
            )
        )
        server.process_pending()
        assert server.stats.protocol_errors == 1
        assert rejected.value == 1

        client._oid -= 1  # reuse the put's oid
        with pytest.raises(ReplayError):
            client.put(b"k", b"v2")
        assert server.stats.replay_rejections == 1
        assert rejected.value == 2


class TestStorageBinding:
    """The storage IV stays in the enclave entry: a blob opens only under
    the IV it was sealed with."""

    def test_swapped_pool_pointers_fail_to_open(self, se_pair):
        server, client = se_pair
        client.put(b"a", b"alpha")
        client.put(b"b", b"bravo")
        entry_a, entry_b = server._table.get(b"a"), server._table.get(b"b")
        entry_a.ptr, entry_b.ptr = entry_b.ptr, entry_a.ptr
        for key in (b"a", b"b"):
            with pytest.raises(PrecursorError, match="ERROR"):
                client.get(key)

    def test_rolled_back_blob_fails_to_open(self, se_pair):
        server, client = se_pair
        client.put(b"k", b"old value")
        old_ptr = server._table.get(b"k").ptr
        client.put(b"k", b"new value")
        server._table.get(b"k").ptr = old_ptr
        with pytest.raises(PrecursorError, match="ERROR"):
            client.get(b"k")


class TestSchemeShapes:
    @pytest.mark.parametrize("server_encryption", [False, True])
    def test_the_other_schemes_put_is_refused(self, server_encryption):
        """One rule on both servers: a PUT shaped for the other scheme is
        a counted protocol error and stores nothing."""
        server, _client = make_pair(seed=6, server_encryption=server_encryption)
        other = (PrecursorClient if server_encryption else ServerEncryptionClient)(
            server
        )
        with pytest.raises(PrecursorError):
            other.put(b"k", b"v")
        assert server.stats.protocol_errors == 1
        assert server.key_count == 0


class TestSharedMachinery:
    """The variant runs Precursor's dispatch and request path, so windows,
    retries, telemetry and the entry record work for it unchanged."""

    def test_windows_with_a_missing_key_mid_window(self, se_pair):
        server, client = se_pair
        window = client._batch_window()
        items = [(b"w-%03d" % i, b"v%d" % i * (i % 4)) for i in range(window + 9)]
        assert client.put_many(items) == len(items)
        keys = [key for key, _value in items]
        assert client.get_many(keys) == [value for _key, value in items]
        keys[window // 2] = b"ghost"
        with pytest.raises(KeyNotFoundError):
            client.get_many(keys)
        assert server.stats.protocol_errors == 0
        assert client.get(keys[0]) == items[0][1]  # the session stays in step

    def test_requests_count_trace_and_emit_the_server_hop(self, se_pair):
        server, client = se_pair
        trace = server.obs.tracer.start("put", client_id=client.client_id)
        client.put(b"k", b"v")
        assert "server" in trace.finish().hop_kinds()
        client.get(b"k")
        assert "server.payload_crypto" in client.obs.tracer.last.stage_names()
        client.delete(b"k")
        registry = server.obs.registry
        for op in ("put", "get", "delete"):
            assert registry.get("server_requests_total", {"op": op}).value == 1

    def test_crash_restart_then_every_key_reads(self):
        server = PrecursorServerEncryption()
        client = ServerEncryptionClient(server, max_retries=3)
        items = {b"c-%02d" % i: b"value-%d" % i for i in range(12)}
        client.put_many(items.items())
        assert crash_restart(server, CheckpointManager()) == len(items)
        for key, value in items.items():
            assert client.get(key) == value

    def test_export_entry_returns_a_record(self, se_pair):
        server, client = se_pair
        client.put(b"k", b"v" * 40)
        sealed, blob = server.export_entry(b"k")
        assert sealed and b"v" * 40 not in blob
        server.evict_entry(b"k")
        assert server.import_entry(sealed, blob) == b"k"
        assert client.get(b"k") == b"v" * 40
