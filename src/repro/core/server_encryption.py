"""The Precursor *server-encryption* variant (the paper's second baseline).

Paper §5.1: "We compare the proposed Precursor client-encryption with a
Precursor server-encryption variant.  Clients and the server rely on RDMA
primitives.  However, the full payload is transported encrypted and copied
into the enclave, where its integrity and authenticity are checked.  Next,
we re-encrypt the payload and store it in the untrusted memory."

This is the conventional scheme of ShieldStore/EnclaveCache/SecureKeeper
(§2.4), kept on the same RDMA transport so the comparison isolates the cost
of server-side cryptography -- the ~27-49 % throughput gap of Figure 5 and
the client-encryption advantage of Figure 4.

Implementation notes: the whole request (opcode, oid, key **and value**)
travels inside the sealed control segment; there is no untrusted payload
half.  The enclave decrypts it (payload crosses the boundary), re-encrypts
the value under a server master key that never leaves the enclave, and
stores the sealed blob in the untrusted pool.  On GET the enclave loads,
decrypts with the master key, and re-seals under the client's session key.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Optional

from repro.core.client import PrecursorClient
from repro.core.protocol import (
    OpCode,
    Request,
    Status,
    _checked_unpack,
    reply_aad,
    request_aad,
)
from repro.core.server import PrecursorServer, ServerConfig, _ClientChannel
from repro.crypto.gcm import GcmFailure
from repro.crypto.keys import KeyGenerator
from repro.crypto.provider import SealedMessage
from repro.errors import (
    KeyNotFoundError,
    PrecursorError,
    ProtocolError,
    ReplayError,
)
from repro.rdma.fabric import Fabric

__all__ = ["PrecursorServerEncryption", "ServerEncryptionClient"]


@dataclass(frozen=True)
class _SEControl:
    """Sealed request body of the server-encryption scheme."""

    opcode: OpCode
    oid: int
    key: bytes
    value: Optional[bytes] = None

    def encode(self) -> bytes:
        head = struct.pack(">BQH", int(self.opcode), self.oid, len(self.key))
        if self.value is None:
            return head + self.key + struct.pack(">I", 0xFFFFFFFF)
        return (
            head
            + self.key
            + struct.pack(">I", len(self.value))
            + self.value
        )

    @classmethod
    def decode(cls, blob: bytes) -> "_SEControl":
        if len(blob) < 15:
            raise ProtocolError("SE control truncated")
        opcode_raw, oid, key_len = _checked_unpack(">BQH", blob[:11])
        try:
            opcode = OpCode(opcode_raw)
        except ValueError as exc:
            raise ProtocolError(f"unknown opcode {opcode_raw}") from exc
        cursor = 11
        key = blob[cursor : cursor + key_len]
        cursor += key_len
        if len(key) != key_len or cursor + 4 > len(blob):
            raise ProtocolError("SE control truncated")
        (value_len,) = _checked_unpack(">I", blob[cursor : cursor + 4])
        cursor += 4
        value = None
        if value_len != 0xFFFFFFFF:
            value = blob[cursor : cursor + value_len]
            cursor += value_len
            if len(value) != value_len:
                raise ProtocolError("SE control truncated in value")
        if cursor != len(blob):
            raise ProtocolError("SE control length mismatch")
        return cls(opcode=opcode, oid=oid, key=key, value=value)


@dataclass(frozen=True)
class _SEResponse:
    """Sealed response body of the server-encryption scheme."""

    status: Status
    oid: int
    value: Optional[bytes] = None

    def encode(self) -> bytes:
        head = struct.pack(">BQ", int(self.status), self.oid)
        if self.value is None:
            return head + struct.pack(">I", 0xFFFFFFFF)
        return head + struct.pack(">I", len(self.value)) + self.value

    @classmethod
    def decode(cls, blob: bytes) -> "_SEResponse":
        if len(blob) < 13:
            raise ProtocolError("SE response truncated")
        status_raw, oid = _checked_unpack(">BQ", blob[:9])
        try:
            status = Status(status_raw)
        except ValueError as exc:
            raise ProtocolError(f"unknown status {status_raw}") from exc
        (value_len,) = _checked_unpack(">I", blob[9:13])
        value = None
        if value_len != 0xFFFFFFFF:
            value = blob[13 : 13 + value_len]
            if len(value) != value_len:
                raise ProtocolError("SE response truncated in value")
            if 13 + value_len != len(blob):
                raise ProtocolError("SE response length mismatch")
        elif len(blob) != 13:
            raise ProtocolError("SE response length mismatch")
        return cls(status=status, oid=oid, value=value)


@dataclass
class _SEEntry:
    """Enclave table value: where the re-encrypted payload lives."""

    iv: bytes
    ptr: object  # PayloadPointer
    client_id: int


class PrecursorServerEncryption(PrecursorServer):
    """Precursor's transport/ring machinery with server-side encryption.

    The master key is generated inside the enclave at startup and never
    leaves it; every stored value is sealed under it with a unique IV.
    """

    HOST_NAME = "precursor-se-server"

    def __init__(
        self,
        fabric: Fabric = None,
        config: ServerConfig = None,
        keygen: KeyGenerator = None,
    ):
        super().__init__(fabric=fabric, config=config, keygen=keygen)
        # The engine caches the cipher per key: one key-schedule + GHASH
        # table expansion for the lifetime of the master key.
        self._master = self.provider.engine.gcm(
            self.provider.keygen.session_key()
        )
        self._storage_iv_counter = 0
        #: Bytes the enclave decrypted + re-encrypted (the cost Precursor
        #: eliminates; tests compare this against the client-encryption
        #: server, where it stays zero).
        self.enclave_crypto_bytes = 0

    def _next_storage_iv(self) -> bytes:
        # Storage IVs live in their own namespace (tag 0x5EA1ED) so they
        # can never collide with transport IVs (client_id || counter).
        self._storage_iv_counter += 1
        return struct.pack(">IQ", 0x5EA1ED, self._storage_iv_counter)

    def _process_control_blob(
        self, channel: _ClientChannel, control_blob: bytes, request: Request
    ) -> None:
        # Drops and replays count in server_rejected_requests_total, as
        # on the client-centric server.
        if request.payload is not None:
            self.stats.protocol_errors += 1
            self._obs_rejects.inc()
            return
        try:
            control = _SEControl.decode(control_blob)
        except ProtocolError:
            self.stats.protocol_errors += 1
            self._obs_rejects.inc()
            return
        try:
            self._replay.check_and_advance(channel.client_id, control.oid)
        except ReplayError:
            self.stats.replay_rejections += 1
            self._obs_rejects.inc()
            self._send_response(
                channel, _SEResponse(status=Status.REPLAY, oid=control.oid)
            )
            return
        if control.opcode is OpCode.PUT:
            self._se_put(channel, control)
        elif control.opcode is OpCode.GET:
            self._se_get(channel, control)
        elif control.opcode is OpCode.DELETE:
            self._se_delete(channel, control)

    def _se_put(self, channel: _ClientChannel, control: _SEControl) -> None:
        self.stats.puts += 1
        if control.value is None:
            self.stats.protocol_errors += 1
            self._send_response(
                channel, _SEResponse(status=Status.ERROR, oid=control.oid)
            )
            return
        # Re-encryption inside the enclave: the step Figure 1 prices.
        iv = self._next_storage_iv()
        sealed_value = self._master.seal(iv, control.value)
        self.enclave_crypto_bytes += 2 * len(control.value)
        ptr = self.payload_store.store(sealed_value)
        stored = self._install(
            control.key,
            _SEEntry(iv=iv, ptr=ptr, client_id=channel.client_id),
            owner=channel.client_id,
        )
        # A cross-tenant overwrite is refused, as on the client-centric
        # server.
        status = Status.OK if stored else Status.ERROR
        self._send_response(
            channel, _SEResponse(status=status, oid=control.oid)
        )

    def _se_get(self, channel: _ClientChannel, control: _SEControl) -> None:
        self.stats.gets += 1
        with self._table_lock.read():
            entry = self._lookup(control.key)
            if entry is not None and not self._access_allowed(
                entry, control.key, channel.client_id
            ):
                # Deny without leaking existence: same answer as a miss.
                entry = None
            # Under the read lock: safe against concurrent compaction.
            sealed_value = (
                self.payload_store.load(entry.ptr) if entry is not None else None
            )
        if entry is None:
            self.stats.misses += 1
            self._send_response(
                channel, _SEResponse(status=Status.NOT_FOUND, oid=control.oid)
            )
            return
        self.stats.hits += 1
        try:
            value = self._master.open(entry.iv, sealed_value)
        except GcmFailure:
            # Untrusted memory corrupted: detected *server-side* here (in
            # client-encryption Precursor the client detects it instead).
            self._send_response(
                channel, _SEResponse(status=Status.ERROR, oid=control.oid)
            )
            return
        self.enclave_crypto_bytes += len(value)
        self._send_response(
            channel,
            _SEResponse(status=Status.OK, oid=control.oid, value=value),
        )

    def _se_delete(self, channel: _ClientChannel, control: _SEControl) -> None:
        self.stats.deletes += 1
        # Only the owner may delete; denials read as misses.
        if self._remove(control.key, owner=channel.client_id) is None:
            self.stats.misses += 1
            status = Status.NOT_FOUND
        else:
            status = Status.OK
        self._send_response(
            channel, _SEResponse(status=status, oid=control.oid)
        )


class ServerEncryptionClient(PrecursorClient):
    """Client for the server-encryption variant.

    No one-time keys, no client-side payload crypto: the value rides inside
    the transport-sealed blob and the server is trusted (via its enclave)
    to verify and re-encrypt it.
    """

    def _submit_se(self, control: _SEControl) -> None:
        sealed = self.provider.transport_seal(
            self.session, control.encode(), aad=request_aad(self.client_id)
        )
        request = Request(
            client_id=self.client_id,
            sealed_control=sealed,
            reply_credit=self._reply_consumer.consumed,
        )
        self._submit(request)
        self.operations += 1

    def _open_se_response(self) -> _SEResponse:
        response = self._await_response()
        blob = self.provider.transport_open(
            self.session, response.sealed_control, aad=reply_aad(self.client_id)
        )
        body = _SEResponse.decode(blob)
        if body.oid != self._oid:
            raise ProtocolError(
                f"response oid {body.oid} does not match request {self._oid}"
            )
        if body.status is Status.REPLAY:
            raise ReplayError(f"server rejected oid {self._oid} as a replay")
        return body

    def put(self, key: bytes, value: bytes) -> None:
        """Store ``value``; the server performs all payload cryptography."""
        self._check_key(key)
        self._oid += 1
        self._submit_se(
            _SEControl(opcode=OpCode.PUT, oid=self._oid, key=key, value=value)
        )
        body = self._open_se_response()
        if body.status is not Status.OK:
            raise PrecursorError(f"put failed: {body.status.name}")

    def get(self, key: bytes) -> bytes:
        """Fetch ``key``; the value arrives transport-sealed, not raw."""
        self._check_key(key)
        self._oid += 1
        self._submit_se(_SEControl(opcode=OpCode.GET, oid=self._oid, key=key))
        body = self._open_se_response()
        if body.status is Status.NOT_FOUND:
            raise KeyNotFoundError(key)
        if body.status is not Status.OK or body.value is None:
            raise PrecursorError(f"get failed: {body.status.name}")
        return body.value

    def delete(self, key: bytes) -> None:
        """Remove ``key``."""
        self._check_key(key)
        self._oid += 1
        self._submit_se(
            _SEControl(opcode=OpCode.DELETE, oid=self._oid, key=key)
        )
        body = self._open_se_response()
        if body.status is Status.NOT_FOUND:
            raise KeyNotFoundError(key)
        if body.status is not Status.OK:
            raise PrecursorError(f"delete failed: {body.status.name}")
