"""Server-side edge cases: malformed traffic, lifecycle, accounting."""

import pytest

from repro.core import PrecursorClient, PrecursorServer, ServerConfig, make_pair
from repro.core.protocol import OpCode, Request, Status
from repro.core.server_encryption import PrecursorServerEncryption
from repro.crypto.provider import EncryptedPayload
from repro.errors import ConfigurationError, PrecursorError


class TestLifecycle:
    def test_process_before_start_rejected(self):
        server = PrecursorServer()
        with pytest.raises(ConfigurationError, match="not started"):
            server.process_pending()

    def test_start_is_idempotent(self):
        server = PrecursorServer()
        server.start()
        server.start()
        assert server.enclave.transitions.ecalls == 2  # init + polling once

    def test_client_admission_implies_start(self):
        server = PrecursorServer()
        PrecursorClient(server, client_id=1)
        assert server._started

    def test_unknown_client_operations_rejected(self):
        server = PrecursorServer()
        server.start()
        with pytest.raises(ConfigurationError):
            server.process_client(999)
        with pytest.raises(ConfigurationError):
            server.revoke_client(999)
        with pytest.raises(ConfigurationError):
            server.warm_load([(b"k", b"v")], client_id=999)


class TestMalformedRequests:
    def test_put_without_payload_gets_error_status(self, pair):
        """A sealed PUT control without the untrusted payload half is a
        protocol violation the server answers (sealed) rather than drops:
        the sender *is* authenticated, just buggy."""
        server, client = pair
        from repro.core.protocol import ControlData

        control = ControlData(
            opcode=OpCode.PUT,
            oid=client._oid + 1,
            key=b"k",
            k_operation=b"o" * 32,
        )
        client._oid += 1
        request = client._seal_control(control)  # payload=None
        client._submit(request)
        server.process_pending()
        response = client._await_response()
        opened = client.provider.transport_open(
            client.session,
            response.sealed_control,
            aad=b"resp" + __import__("struct").pack(">I", client.client_id),
        )
        from repro.core.protocol import ResponseControl

        assert ResponseControl.decode(opened).status is Status.ERROR
        assert server.stats.protocol_errors == 1

    def test_se_server_rejects_untrusted_payload_half(self):
        """The SE scheme has no untrusted payload segment; a frame with
        one is malformed."""
        server, client = make_pair(seed=9, server_encryption=True)
        from repro.core.protocol import ControlData

        body = ControlData(opcode=OpCode.PUT, oid=1, key=b"k", value=b"v")
        import struct

        aad = struct.pack(">I", client.client_id)
        sealed = client.provider.transport_seal(
            client.session, body.encode(), aad=aad
        )
        bad = Request(
            client_id=client.client_id,
            sealed_control=sealed,
            payload=EncryptedPayload(ciphertext=b"x", mac=b"m" * 16),
        )
        client._producer.produce(bad.encode())
        server.process_pending()
        assert server.stats.protocol_errors == 1


class TestWarmLoad:
    def test_warm_load_without_crypto_counts_and_accounts(self, pair):
        server, client = pair
        rows = [(f"w{i}".encode(), b"v" * 32) for i in range(100)]
        loaded = server.warm_load(rows, client_id=client.client_id)
        assert loaded == 100
        assert server.key_count == 100
        assert server.payload_store.live_bytes == 100 * 48

    def test_warm_loaded_values_readable_by_clients(self, pair):
        """warm_load performs real payload encryption: clients can fetch
        and verify the loaded rows through the normal protocol."""
        server, client = pair
        server.warm_load([(b"warm", b"loaded-value")], client_id=client.client_id)
        assert client.get(b"warm") == b"loaded-value"

    def test_warm_load_stores_through_the_server_encryption_step(self):
        """The SE server seals warm-loaded values under its master key,
        so its own GET step opens them like any put value."""
        server, client = make_pair(server_encryption=True, seed=5)
        loaded = server.warm_load(
            [(b"warm-%d" % i, b"value-%d" % i) for i in range(3)],
            client_id=client.client_id,
        )
        assert loaded == 3
        assert server.enclave_crypto_bytes == 2 * 3 * len(b"value-0")
        assert client.get_many([b"warm-%d" % i for i in range(3)]) == [
            b"value-%d" % i for i in range(3)
        ]


class TestTrustedAccounting:
    def test_table_growth_charges_allocator_once_per_doubling(self):
        config = ServerConfig(initial_table_capacity=64)
        server, client = make_pair(config=config, seed=4)
        pages = []
        for i in range(200):
            client.put(f"k{i:04d}".encode(), b"v")
            pages.append(server.enclave.trusted_pages)
        # Page counts step up at doublings, never down, monotone.
        assert pages == sorted(pages)
        distinct_levels = len(set(pages))
        assert 2 <= distinct_levels <= 6

    def test_trusted_bytes_reflect_capacity_not_count(self, pair):
        server, client = pair
        client.put(b"one", b"v")
        bytes_at_one = server.enclave.allocator.bytes_for("hashtable")
        client.put(b"two", b"v")
        assert server.enclave.allocator.bytes_for("hashtable") == bytes_at_one

    def test_deletes_do_not_shrink_the_table(self, pair):
        server, client = pair
        for i in range(50):
            client.put(f"k{i}".encode(), b"v")
        before = server.enclave.allocator.bytes_for("hashtable")
        for i in range(50):
            client.delete(f"k{i}".encode())
        assert server.enclave.allocator.bytes_for("hashtable") == before


class TestServerEncryptionEdgeCases:
    def test_se_put_empty_value(self):
        _, client = make_pair(seed=10, server_encryption=True)
        client.put(b"k", b"")
        assert client.get(b"k") == b""

    def test_se_inherits_exactly_three_ecalls(self):
        server, _ = make_pair(seed=10, server_encryption=True)
        assert sorted(server.enclave.ecall_names) == [
            "add_client",
            "init_hashtable",
            "start_polling",
        ]

    def test_se_host_name_differs(self):
        assert (
            PrecursorServerEncryption.HOST_NAME != PrecursorServer.HOST_NAME
        )


class TestRingGeometryLimits:
    def test_value_larger_than_slot_rejected_client_side(self):
        config = ServerConfig(ring_slots=4, ring_slot_size=2048)
        _, client = make_pair(config=config, seed=11)
        with pytest.raises(PrecursorError):
            client.put(b"big", b"x" * 4096)

    def test_max_frame_sized_value_works(self):
        config = ServerConfig(ring_slots=4, ring_slot_size=4096)
        _, client = make_pair(config=config, seed=11)
        value = b"x" * 3000
        client.put(b"big", value)
        assert client.get(b"big") == value
