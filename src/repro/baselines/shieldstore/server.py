"""The ShieldStore server.

Request path (paper §2.4/§5.1, describing Kim et al.'s design):

1. the sealed request arrives over TCP and is **copied entirely into the
   enclave**;
2. the enclave opens it with the session key (transport decryption);
3. GET: the server decrypts entries in the target bucket to find the key,
   reads the bucket's MAC list, recomputes the leaf hash and verifies it
   against the enclave-resident Merkle root -- per-request integrity work
   that grows with the chain length;
4. PUT: the entry is (re-)encrypted under the enclave's master key and
   written to untrusted memory; the bucket's leaf and the path to the root
   are rehashed;
5. the reply is sealed under the session key and sent back over TCP.

The enclave statically allocates its main structure up front, which is why
Table 1 reports a ~68 MiB working set before a single key is inserted.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.baselines.shieldstore.buckets import BucketStore, EncryptedEntry
from repro.core.protocol import OpCode, Status
from repro.crypto.engine import resolve_engine
from repro.crypto.gcm import GcmFailure
from repro.crypto.keys import KeyGenerator, SessionKey
from repro.errors import (
    ConfigurationError,
    IntegrityError,
    ProtocolError,
)
from repro.htable.robinhood import _fnv1a
from repro.merkle import MerkleTree
from repro.net.tcp import TcpEndpoint, TcpFabric
from repro.sgx.enclave import Enclave

__all__ = ["ShieldStoreServer", "ShieldStoreConfig", "ShieldStoreStats"]

_SERVER_IV_BIT = 0x8000_0000


@dataclass(frozen=True)
class ShieldStoreConfig:
    """ShieldStore sizing.

    The static trusted allocations reproduce Table 1's footprint: the full
    main structure plus a fixed count of in-enclave hashes is committed at
    start time (~17 392 pages), a MAC-hash cache appears with the first
    insert (+194 pages) and small counter blocks accrete every ~12 k
    inserts (+8 pages by 100 k keys).
    """

    num_buckets: int = 4096
    #: Enclave binary (ShieldStore's TCB is much larger than Precursor's).
    code_size_bytes: int = 512 * 1024
    stack_size_bytes: int = 16 * 1024
    #: Statically allocated main structure (bucket heads + in-enclave hashes).
    static_table_bytes: int = 64 * 1024 * 1024
    #: Statically allocated Merkle inner-node array.
    merkle_nodes_bytes: int = 3_588_096
    #: MAC-hash cache committed lazily on the first insert.
    mac_cache_bytes: int = 794_624
    #: One 4 KiB counter block per this many inserts (beyond the first).
    counter_block_interval: int = 12_288
    #: Disable real GCM for bulk accounting runs (Table 1); the functional
    #: protocol path always uses real crypto regardless.
    real_crypto: bool = True


@dataclass
class ShieldStoreStats:
    """Server-side counters; note the crypto/hash work Precursor avoids."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    hits: int = 0
    misses: int = 0
    auth_failures: int = 0
    integrity_failures: int = 0
    #: Bytes the *server* decrypted while scanning buckets.
    scan_decrypted_bytes: int = 0
    #: Bytes the server en/decrypted for storage (re-encryption scheme).
    storage_crypto_bytes: int = 0


class ShieldStoreServer:
    """A ShieldStore instance over the TCP fabric."""

    def __init__(
        self,
        fabric: TcpFabric = None,
        config: ShieldStoreConfig = None,
        keygen: KeyGenerator = None,
    ):
        self.fabric = fabric if fabric is not None else TcpFabric()
        self.config = config if config is not None else ShieldStoreConfig()
        self.stats = ShieldStoreStats()
        self.keygen = keygen if keygen is not None else KeyGenerator()

        cfg = self.config
        self.enclave = Enclave(
            name="shieldstore",
            code_size_bytes=cfg.code_size_bytes,
            stack_size_bytes=cfg.stack_size_bytes,
        )
        # Static allocation at start time (Table 1, "0 keys/init").
        self.enclave.allocator.allocate(cfg.static_table_bytes, "static_table")
        self.enclave.allocator.allocate(cfg.merkle_nodes_bytes, "merkle_nodes")

        # Trusted state.  The engine caches ciphers per key, so the master
        # cipher and every per-session cipher expand their key schedules
        # once instead of once per message.
        self._engine = resolve_engine(getattr(self.keygen, "engine", None))
        self._master = self._engine.gcm(self.keygen.session_key())
        self._tree = MerkleTree(cfg.num_buckets)
        self._sessions: Dict[int, SessionKey] = {}
        self._mac_cache_allocated = False
        self._counter_blocks = 0
        self._iv_counter = 0
        self._inserts = 0

        # Untrusted state.
        self.buckets = BucketStore(cfg.num_buckets)
        self._endpoints: Dict[int, TcpEndpoint] = {}

    # -- connection management ---------------------------------------------

    def connect_client(self, client_id: int, session_key: bytes) -> TcpEndpoint:
        """Admit a client; returns the client-side TCP endpoint."""
        if client_id in self._sessions:
            raise ConfigurationError(f"client {client_id} already connected")
        client_ep, server_ep = self.fabric.connect(
            f"ss-client-{client_id}", "shieldstore-server"
        )
        self._sessions[client_id] = SessionKey(
            key=session_key, client_id=client_id | _SERVER_IV_BIT
        )
        self._endpoints[client_id] = server_ep
        return client_ep

    # -- crypto helpers ----------------------------------------------------

    def _next_iv(self) -> bytes:
        self._iv_counter += 1
        return struct.pack(">IQ", 0x55AA55, self._iv_counter)

    def _seal_entry(self, key: bytes, value: bytes, iv: bytes) -> bytes:
        blob = struct.pack(">H", len(key)) + key + value
        if not self.config.real_crypto:
            # Accounting mode: structure and sizes only, no AES.
            return blob + b"\x00" * 16
        self.stats.storage_crypto_bytes += len(blob)
        return self._master.seal(iv, blob)

    def _open_entry(self, entry: EncryptedEntry) -> Tuple[bytes, bytes]:
        if not self.config.real_crypto:
            blob = entry.sealed[:-16]
        else:
            blob = self._master.open(entry.iv, entry.sealed)
        self.stats.scan_decrypted_bytes += len(entry.sealed)
        (key_len,) = struct.unpack(">H", blob[:2])
        return blob[2 : 2 + key_len], blob[2 + key_len :]

    # -- trusted memory accounting -----------------------------------------

    def _account_insert(self) -> None:
        self._inserts += 1
        if not self._mac_cache_allocated:
            self.enclave.allocator.allocate(
                self.config.mac_cache_bytes, "mac_cache"
            )
            self._mac_cache_allocated = True
        due = (self._inserts - 1) // self.config.counter_block_interval
        while self._counter_blocks < due:
            self.enclave.allocator.allocate(4096, "overflow_counters")
            self._counter_blocks += 1

    # -- core operations (trusted side) ------------------------------------

    def _scan_bucket(
        self, index: int, key: bytes
    ) -> Tuple[Optional[int], Optional[bytes]]:
        """Decrypt entries in a bucket to locate ``key``.

        Returns (position, value) or (None, None).  This decrypt-to-search
        is ShieldStore's structural cost: the server cannot compare
        encrypted keys directly.
        """
        key_hash = _fnv1a(key)
        for position, entry in enumerate(self.buckets.bucket(index)):
            if entry.key_hash != key_hash:
                continue
            try:
                entry_key, value = self._open_entry(entry)
            except GcmFailure as exc:
                self.stats.integrity_failures += 1
                raise IntegrityError(
                    f"entry in bucket {index} failed decryption: {exc}"
                ) from exc
            if entry_key == key:
                return position, value
        return None, None

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key`` (server-side encryption + tree update)."""
        if not key:
            raise ProtocolError("empty key")
        index = self.buckets.bucket_index(_fnv1a(key))
        position, _ = self._scan_bucket(index, key)
        iv = self._next_iv()
        entry = EncryptedEntry(
            key_hash=_fnv1a(key),
            iv=iv,
            sealed=self._seal_entry(key, value, iv),
        )
        if position is None:
            self.buckets.append(index, entry)
            self._account_insert()
        else:
            self.buckets.replace(index, position, entry)
        self._tree.update_leaf(index, self.buckets.mac_list(index))

    def get(self, key: bytes) -> Optional[bytes]:
        """Locate, integrity-verify and return the value, or None."""
        if not key:
            raise ProtocolError("empty key")
        index = self.buckets.bucket_index(_fnv1a(key))
        position, value = self._scan_bucket(index, key)
        if position is None:
            return None
        # Verify the bucket MAC list against the enclave-held root.
        self._tree.verify_leaf(index, self.buckets.mac_list(index))
        return value

    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns whether it existed."""
        if not key:
            raise ProtocolError("empty key")
        index = self.buckets.bucket_index(_fnv1a(key))
        position, _ = self._scan_bucket(index, key)
        if position is None:
            return False
        self.buckets.remove(index, position)
        self._tree.update_leaf(index, self.buckets.mac_list(index))
        return True

    # -- TCP request processing ------------------------------------------------

    def process_pending(self) -> int:
        """Serve every complete request currently queued on any socket."""
        handled = 0
        for client_id, endpoint in self._endpoints.items():
            while True:
                message = endpoint.recv()
                if message is None:
                    break
                self._handle_message(client_id, endpoint, message)
                handled += 1
        return handled

    def _handle_message(
        self, client_id: int, endpoint: TcpEndpoint, message: bytes
    ) -> None:
        session = self._sessions[client_id]
        if len(message) < 12:
            return
        iv, sealed = message[:12], message[12:]
        try:
            blob = self._engine.gcm(session.key).open(
                iv, sealed, aad=struct.pack(">I", client_id)
            )
        except GcmFailure:
            self.stats.auth_failures += 1
            return
        opcode = OpCode(blob[0])
        (key_len,) = struct.unpack(">H", blob[1:3])
        key = blob[3 : 3 + key_len]
        value = blob[3 + key_len :]

        status = Status.OK
        reply_value = b""
        try:
            if opcode is OpCode.PUT:
                self.stats.puts += 1
                self.put(key, value)
            elif opcode is OpCode.GET:
                self.stats.gets += 1
                found = self.get(key)
                if found is None:
                    self.stats.misses += 1
                    status = Status.NOT_FOUND
                else:
                    self.stats.hits += 1
                    reply_value = found
            elif opcode is OpCode.DELETE:
                self.stats.deletes += 1
                if self.delete(key):
                    self.stats.hits += 1
                else:
                    self.stats.misses += 1
                    status = Status.NOT_FOUND
        except IntegrityError:
            # Untrusted memory was tampered with: detected *server-side*
            # here (in Precursor the client detects it instead).
            status = Status.ERROR
            reply_value = b""

        reply = bytes([int(status)]) + reply_value
        reply_iv = session.next_iv()
        sealed_reply = self._engine.gcm(session.key).seal(
            reply_iv, reply, aad=b"resp" + struct.pack(">I", client_id)
        )
        endpoint.send(reply_iv + sealed_reply)

    # -- bulk loading ------------------------------------------------------------

    def warm_load(self, items: Iterable[Tuple[bytes, bytes]]) -> int:
        """Bulk-insert through the real storage path (no transport)."""
        count = 0
        for key, value in items:
            self.put(key, value)
            count += 1
        return count

    # -- introspection -----------------------------------------------------------

    @property
    def key_count(self) -> int:
        """Entries currently stored."""
        return self.buckets.entry_count

    @property
    def merkle_root(self) -> bytes:
        """The enclave-held integrity anchor."""
        return self._tree.root

    @property
    def hash_invocations(self) -> int:
        """Merkle hashes computed so far (per-request integrity cost)."""
        return self._tree.hash_count
