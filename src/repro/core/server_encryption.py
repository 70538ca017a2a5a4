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

Everything but the payload scheme is Precursor's own code: one dispatch
(replay filter, duplicate-reply cache, hops, counters, trace stages, the
entry lifecycle), one client request path (retries, windows, traces).
The variant overrides only the scheme steps:

- **PUT.**  The value travels in the sealed control segment
  (``ControlData.value``) with no untrusted payload half.  The enclave
  seals it under a master key that never leaves the enclave, with a
  fresh storage IV, and stores the sealed blob in the untrusted pool.
  The IV stays in trusted memory as the entry's key material
  (``_Entry.k_operation``), so a swapped or rolled-back blob fails to
  open.
- **GET.**  The enclave opens the stored blob under the master key and
  returns the value inside the sealed reply (``ResponseControl.value``).
"""

from __future__ import annotations

import struct

from repro.core.client import PrecursorClient
from repro.core.protocol import OpCode, ResponseControl, Status
from repro.core.server import PrecursorServer, ServerConfig, _Entry
from repro.crypto.gcm import GcmFailure
from repro.crypto.keys import KeyGenerator
from repro.errors import ProtocolError
from repro.rdma.fabric import Fabric

__all__ = ["PrecursorServerEncryption", "ServerEncryptionClient"]


class PrecursorServerEncryption(PrecursorServer):
    """Precursor's server with server-side payload encryption.

    The master key is generated inside the enclave at startup and never
    leaves it; it outlives :meth:`restart`, as a key sealed to the enclave
    identity would, so values restored from a checkpoint stay readable.
    Every stored value is sealed under it with a unique IV.
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

    def _put_entry(self, client_id, control, payload):
        """Seal the value the control segment carried under the master key.

        A request with an untrusted payload half or one-time key, or
        without a value, is not this scheme's PUT.
        """
        if (
            payload is not None
            or control.k_operation is not None
            or control.value is None
        ):
            return None
        # Re-encryption inside the enclave: the step Figure 1 prices.
        with self.obs.tracer.stage("server.payload_crypto"):
            iv = self._next_storage_iv()
            blob = self._master.seal(iv, control.value)
        self.enclave_crypto_bytes += 2 * len(control.value)
        return _Entry(k_operation=iv, client_id=client_id), blob

    def _get_reply(self, control, entry, blob):
        """Open the stored blob under the entry's IV; reply with the value."""
        try:
            with self.obs.tracer.stage("server.payload_crypto"):
                value = self._master.open(entry.k_operation, blob)
        except GcmFailure:
            # Untrusted memory corrupted: detected *server-side* here (in
            # client-encryption Precursor the client detects it instead).
            return ResponseControl(status=Status.ERROR, oid=control.oid), None
        self.enclave_crypto_bytes += len(value)
        return (
            ResponseControl(status=Status.OK, oid=control.oid, value=value),
            None,
        )


class ServerEncryptionClient(PrecursorClient):
    """Client for the server-encryption variant.

    No one-time keys, no client-side payload crypto: the value rides inside
    the transport-sealed control segment and the server is trusted (via
    its enclave) to verify and re-encrypt it.  A put leaves no client-side
    basis and returns no freshness token.
    """

    def _put_requests(self, items) -> list:
        """The value rides in the sealed control segment; no payload."""
        return [
            (self._next_control(OpCode.PUT, key, value=value), None)
            for key, value in items
        ]

    def _get_values(self, replies, bases=None):
        """The value arrives inside the sealed reply, already verified by
        the enclave and the transport; there is no basis to record."""
        values = []
        for response, control in replies:
            if response.payload is not None or control.value is None:
                raise ProtocolError("GET response missing its sealed value")
            values.append(control.value)
        return values, [None] * len(values)
