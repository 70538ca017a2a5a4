"""Bit-flip matrix: every stored/in-flight field x every operation.

Precursor's integrity story is client-centric: the client's MAC check
catches tampering with untrusted payload memory (IntegrityError), the
sealed channel authenticates control data (AuthenticationError -- the
server silently drops forged requests, the client rejects forged
replies), and the replay filter rejects re-sent oids (ReplayError).
This suite flips single bits in each field and asserts the *precise*
error type each detector raises.
"""

import dataclasses

import pytest

from repro.core import PrecursorClient, PrecursorServer
from repro.core.persistence import CheckpointManager
from repro.core.protocol import OpCode, Request, Response
from repro.core.server import ServerConfig
from repro.crypto.provider import SealedMessage
from repro.errors import (
    AuthenticationError,
    IntegrityError,
    KeyNotFoundError,
    OperationTimeoutError,
    ReplayError,
)


def _pair(config=None, **kwargs):
    server = PrecursorServer(config=config)
    client = PrecursorClient(server, trace_ops=False, **kwargs)
    return server, client


def _stored_blob_len(server, key):
    entry = server._table.get(key)
    return entry.ptr.length


def _corrupt_stored(server, key, flip_at):
    entry = server._table.get(key)
    server.payload_store.corrupt(entry.ptr, flip_at=flip_at)


class TestStoredCiphertextTamper:
    """Flips inside the untrusted ciphertext region (blob[:-16])."""

    @pytest.mark.parametrize("flip_at", [0, 7, 15])
    def test_get_raises_integrity_error(self, flip_at):
        server, client = _pair()
        client.put(b"account", b"balance=100      ")
        _corrupt_stored(server, b"account", flip_at)
        with pytest.raises(IntegrityError):
            client.get(b"account")
        assert client.integrity_failures == 1

    def test_put_overwrites_tampered_entry(self):
        # PUT never reads the stored bytes: overwriting a tampered entry
        # with a fresh ciphertext+MAC fully repairs the key.
        server, client = _pair()
        client.put(b"k", b"original-value--")
        _corrupt_stored(server, b"k", 3)
        client.put(b"k", b"replacement-val-")
        assert client.get(b"k") == b"replacement-val-"

    def test_delete_succeeds_on_tampered_entry(self):
        # DELETE drops the entry without verifying the payload -- there is
        # nothing to protect once the key is gone.
        server, client = _pair()
        client.put(b"k", b"some-value-here-")
        _corrupt_stored(server, b"k", 5)
        client.delete(b"k")
        with pytest.raises(KeyNotFoundError):
            client.get(b"k")

    def test_migrated_tampered_payload_detected_at_read(self):
        # Migration ships the blob as-is (the server cannot verify what it
        # cannot decrypt); the tamper travels with it and the *client*
        # catches it on the first post-migration read.
        source = PrecursorServer()
        target = PrecursorServer()
        client = PrecursorClient(source, trace_ops=False)
        client.put(b"k", b"value-to-migrate")
        _corrupt_stored(source, b"k", 2)
        sealed, blob = source.export_entry(b"k")
        target.import_entry(sealed, blob)
        reader = PrecursorClient(target, trace_ops=False)
        with pytest.raises(IntegrityError):
            reader.get(b"k")


class TestStoredMacTamper:
    """Flips inside the stored MAC (the blob's trailing 16 bytes)."""

    @pytest.mark.parametrize("mac_byte", [0, 8, 15])
    def test_get_raises_integrity_error(self, mac_byte):
        server, client = _pair()
        client.put(b"k", b"protected-value-")
        offset = _stored_blob_len(server, b"k") - 16 + mac_byte
        _corrupt_stored(server, b"k", offset)
        with pytest.raises(IntegrityError):
            client.get(b"k")

    def test_strict_integrity_mode_defeats_mac_substitution(self):
        # In strict-integrity mode (§3.9) the MAC travels inside the
        # sealed channel; the untrusted copy is ignored, so tampering
        # with it changes nothing.
        server, client = _pair(config=ServerConfig(strict_integrity=True))
        client.put(b"k", b"still-protected-")
        offset = _stored_blob_len(server, b"k") - 1
        _corrupt_stored(server, b"k", offset)
        assert client.get(b"k") == b"still-protected-"

    def test_strict_integrity_still_catches_ciphertext_tamper(self):
        server, client = _pair(config=ServerConfig(strict_integrity=True))
        client.put(b"k", b"still-protected-")
        _corrupt_stored(server, b"k", 0)
        with pytest.raises(IntegrityError):
            client.get(b"k")


def _tamper_sealed(sealed: SealedMessage, region: str) -> SealedMessage:
    """Flip one bit in the chosen region of a sealed message."""
    if region == "iv":
        iv = bytearray(sealed.iv)
        iv[0] ^= 0x01
        return SealedMessage(iv=bytes(iv), sealed=sealed.sealed)
    body = bytearray(sealed.sealed)
    if region == "tag":
        body[-1] ^= 0x01  # the trailing GCM tag
    else:
        body[0] ^= 0x01  # the ciphertext of the control data
    return SealedMessage(iv=sealed.iv, sealed=bytes(body))


class TestRequestControlTamper:
    """Forged sealed control segments are dropped, unauthenticated."""

    @pytest.mark.parametrize("region", ["iv", "body", "tag"])
    @pytest.mark.parametrize("opcode", [OpCode.GET, OpCode.DELETE])
    def test_server_silently_drops_forged_request(self, region, opcode):
        server, client = _pair()
        client.put(b"k", b"a-stored-value--")
        control = client._next_control(opcode, b"k")
        request = client._seal_control(control)
        request = Request(
            client_id=request.client_id,
            sealed_control=_tamper_sealed(request.sealed_control, region),
            reply_credit=request.reply_credit,
        )
        before = server.stats.auth_failures
        client._submit(request)
        server.process_pending()
        assert server.stats.auth_failures == before + 1
        # No reply was generated: the client would time out.
        with pytest.raises(OperationTimeoutError):
            client._await_response()
        client._oid -= 1  # hand the orphaned oid back

    def test_forged_client_id_rejected_as_protocol_error(self):
        server, client = _pair()
        client.put(b"k", b"a-stored-value--")
        control = client._next_control(OpCode.GET, b"k")
        request = client._seal_control(control)
        request = Request(
            client_id=request.client_id + 1,  # claim to be someone else
            sealed_control=request.sealed_control,
            reply_credit=request.reply_credit,
        )
        before = server.stats.protocol_errors
        client._submit(request)
        server.process_pending()
        assert server.stats.protocol_errors == before + 1
        client._oid -= 1

    def test_retry_recovers_from_one_corrupted_request(self):
        # With a retry budget the client treats the silent drop as a lost
        # frame: timeout, reconnect, re-seal the same oid, succeed.
        from repro.rdma.fabric import FaultAction

        server, client = _pair()
        client.max_retries = 2
        client.put(b"k", b"v1")
        state = {"armed": True}

        def hook(qp, wr):
            if state["armed"] and qp is client._qp:
                state["armed"] = False
                return FaultAction.CORRUPT, 14
            return None

        server.fabric.install_fault_hook(hook)
        client.put(b"k", b"v2")
        server.fabric.install_fault_hook(None)
        assert client.get(b"k") == b"v2"
        assert client.retries >= 1


class TestResponseControlTamper:
    """Forged replies fail the client's transport authentication."""

    @pytest.mark.parametrize("region", ["iv", "body", "tag"])
    def test_client_raises_authentication_error(self, region):
        server, client = _pair()
        client.put(b"k", b"a-stored-value--")
        original = client._await_response

        def tampered_response():
            response = original()
            return Response(
                sealed_control=_tamper_sealed(
                    response.sealed_control, region
                ),
                payload=response.payload,
            )

        client._await_response = tampered_response
        with pytest.raises(AuthenticationError):
            client.get(b"k")
        client._await_response = original

    def test_swapped_reply_key_material_fails_decrypt(self):
        # A forged k_operation cannot be smuggled in without breaking the
        # seal -- but even a *replayed* wrong-payload reply trips the MAC.
        server, client = _pair()
        client.put(b"k1", b"value-number-one")
        client.put(b"k2", b"value-number-two")
        original = client._await_response
        swap = {"armed": True}

        def crossed_response():
            response = original()
            if swap["armed"] and response.payload is not None:
                swap["armed"] = False
                other = server._table.get(b"k2")
                blob = server.payload_store.load(other.ptr)
                from repro.crypto.provider import EncryptedPayload

                return Response(
                    sealed_control=response.sealed_control,
                    payload=EncryptedPayload(
                        ciphertext=blob[:-16], mac=blob[-16:]
                    ),
                )
            return response

        client._await_response = crossed_response
        with pytest.raises(IntegrityError):
            client.get(b"k1")  # k1's one-time key rejects k2's payload
        client._await_response = original


class TestReplayTamper:
    def test_stale_oid_raises_replay_error(self):
        server, client = _pair()
        client.put(b"k", b"v")
        client._oid -= 1  # next op re-uses an already-consumed oid
        with pytest.raises(ReplayError):
            client.get(b"k")

    def test_resent_frame_answered_from_cache_never_reapplied(self):
        server, client = _pair()
        captured = {}
        client.submit_fault_hook = (
            lambda frame: captured.setdefault("frame", frame) and False
        )
        client.put(b"k", b"v")
        client.submit_fault_hook = None
        # An attacker (or a confused NIC) re-posts the captured frame.
        client._producer.produce(captured["frame"])
        server.process_pending()
        assert server.stats.replay_rejections >= 1
        assert server.stats.duplicate_replies >= 1
        assert server.stats.puts == 1
        client.drain_replies()  # discard the unsolicited cached ack
        assert client.get(b"k") == b"v"

    def test_replay_across_reconnect_fails_authentication(self):
        # Re-attestation rotates the session key: a frame captured before
        # the reconnect cannot even *authenticate* afterwards, let alone
        # reach the replay filter -- strictly stronger than oid rejection.
        server, client = _pair()
        captured = {}
        client.submit_fault_hook = (
            lambda frame: captured.setdefault("frame", frame) and False
        )
        client.put(b"k", b"v")
        client.submit_fault_hook = None
        client.reconnect()
        before = server.stats.auth_failures
        client._producer.produce(captured["frame"])
        server.process_pending()
        assert server.stats.auth_failures == before + 1
        assert server.stats.puts == 1


class TestSealedMigrationRecordTamper:
    @pytest.mark.parametrize("offset", ["first", "middle", "last"])
    def test_import_rejects_tampered_record(self, offset):
        source = PrecursorServer()
        target = PrecursorServer()
        client = PrecursorClient(source, trace_ops=False)
        client.put(b"k", b"value-to-migrate")
        sealed, blob = source.export_entry(b"k")
        position = {
            "first": 0, "middle": len(sealed) // 2, "last": len(sealed) - 1
        }[offset]
        tampered = bytearray(sealed)
        tampered[position] ^= 0x01
        with pytest.raises(IntegrityError):
            target.import_entry(bytes(tampered), blob)
        assert target.key_count == 0  # nothing was installed

    def test_record_sealed_by_foreign_enclave_rejected(self):
        # Sealing keys derive from the measurement: a record sealed by a
        # *different* enclave binary must not unseal, even untampered.
        source = PrecursorServer()
        client = PrecursorClient(source, trace_ops=False)
        client.put(b"k", b"value-to-migrate")
        sealed, blob = source.export_entry(b"k")
        foreign_cfg = ServerConfig(
            code_size_bytes=ServerConfig().code_size_bytes * 2
        )
        foreign = PrecursorServer(config=foreign_cfg)
        foreign.start()
        assert foreign.enclave.measurement != source.enclave.measurement
        with pytest.raises(IntegrityError):
            foreign.import_entry(sealed, blob)


class TestSealedCheckpointTamper:
    """The crash-persistence metadata is sealed + rollback-guarded."""

    def _checkpointed(self):
        server, client = _pair()
        client.put(b"k", b"checkpointed-val")
        manager = CheckpointManager()
        checkpoint = manager.checkpoint(server)
        server.crash()
        server.restart()
        server.start()
        return server, manager, checkpoint

    def test_tampered_sealed_metadata_rejected(self):
        server, manager, checkpoint = self._checkpointed()
        sealed = bytearray(checkpoint.sealed_trusted_state)
        sealed[len(sealed) // 2] ^= 0x01
        tampered = dataclasses.replace(
            checkpoint, sealed_trusted_state=bytes(sealed)
        )
        with pytest.raises(IntegrityError):
            manager.restore(server, tampered)
        assert server.key_count == 0

    def test_tampered_untrusted_payloads_rejected(self):
        # The rollback binding covers the payload arenas too: flipping an
        # untrusted byte breaks the digest before anything is trusted.
        server, manager, checkpoint = self._checkpointed()
        payloads = bytearray(checkpoint.untrusted_payloads)
        payloads[0] ^= 0x01
        tampered = dataclasses.replace(
            checkpoint, untrusted_payloads=bytes(payloads)
        )
        with pytest.raises(IntegrityError):
            manager.restore(server, tampered)

    def test_stale_checkpoint_rejected_as_rollback(self):
        server, client = _pair()
        client.put(b"k", b"old-state-------")
        manager = CheckpointManager()
        stale = manager.checkpoint(server)
        client.put(b"k", b"new-state-------")
        manager.checkpoint(server)  # advances the monotonic counter
        server.crash()
        server.restart()
        server.start()
        with pytest.raises(IntegrityError):
            manager.restore(server, stale)

    def test_untampered_checkpoint_restores(self):
        server, manager, checkpoint = self._checkpointed()
        assert manager.restore(server, checkpoint) == 1
        reader = PrecursorClient(server, trace_ops=False)
        assert reader.get(b"k") == b"checkpointed-val"
