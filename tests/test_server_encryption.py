"""The server-encryption variant: functionality and cost asymmetry."""

import struct

import pytest

from repro.core import (
    PrecursorServerEncryption,
    ServerEncryptionClient,
    make_pair,
)
from repro.core.protocol import Request
from repro.errors import KeyNotFoundError, PrecursorError, ReplayError


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
        iv_a = server._table.get(b"a").iv
        iv_b = server._table.get(b"b").iv
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
