"""The Precursor server: enclave metadata, untrusted payloads, RDMA rings.

Architecture (paper Figure 3):

- Clients RDMA-WRITE framed requests into per-client circular buffers in
  **untrusted** server memory.
- A trusted thread -- entered once through the ``start_polling`` ecall and
  never leaving -- polls the rings.  For each request it opens the sealed
  control data with the client's session key, checks the ``oid`` replay
  counter, and updates the enclave-resident Robin Hood hash table that maps
  ``key -> (K_operation, ptr)``.
- The encrypted payload **never enters the enclave**: on a PUT the trusted
  thread stores the ciphertext+MAC into the pre-allocated untrusted pool
  (growing it with the single batched ocall when exhausted); on a GET it
  attaches the stored bytes to the reply untouched.
- Replies (sealed control + raw payload) are RDMA-WRITTEN into the
  client's reply ring; request-ring credits are pushed with periodic
  one-sided writes.

The enclave exposes exactly three ecalls -- ``init_hashtable``,
``start_polling`` and ``add_client`` -- matching the paper's implementation
(§4), and its trusted allocations are tagged so the EPC working set of
Table 1 can be measured with :mod:`repro.sgx.sgxperf`.
"""

from __future__ import annotations

import functools
import hashlib
import struct
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.crypto.provider import CryptoProvider, EncryptedPayload
from repro.crypto.keys import RESERVOIR_BYTES, KeyGenerator, SessionKey
from repro.core.batch import BatchPipeline
from repro.core.payload_store import PayloadPointer, PayloadStore
from repro.core.protocol import (
    ControlData,
    OpCode,
    Request,
    ResponseControl,
    Status,
)
from repro.core.replay import ReplayGuard
from repro.core.ring_buffer import RingConsumer, RingLayout, RingProducer
from repro.errors import (
    ConfigurationError,
    KeyNotFoundError,
    ProtocolError,
    ReplayError,
    ShardUnavailableError,
)
from repro.htable import ReadWriteLock, RobinHoodTable
from repro.obs import ObsContext
from repro.obs.span import run_stage
from repro.rdma.fabric import Fabric
from repro.rdma.memory import AccessFlags, MemoryRegion
from repro.rdma.qp import QueuePair
from repro.rdma.verbs import WorkRequest
from repro.sgx.enclave import Enclave
from repro.sgx.sealing import seal_data, unseal_data

__all__ = ["PrecursorServer", "ServerConfig", "ServerStats"]

#: Marks server->client traffic in the GCM IV space so the two directions
#: of one session never reuse an IV (the IV is client_id || counter).
_SERVER_IV_BIT = 0x8000_0000

#: AAD binding migration records to their purpose: a sealed checkpoint or
#: any other enclave-sealed blob can never be replayed into import_entry.
_MIGRATION_AAD = b"precursor-migrate-v1"


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of a Precursor server instance.

    The trusted-memory sizes are *nominal accounting* values chosen to
    match the paper's measured binary: ~180 KiB of enclave code and stack
    yield Table 1's 52-page initial working set, and 92 nominal bytes per
    hash-table slot reproduce its growth curve.
    """

    #: Nominal enclave code+data segment (45 pages).
    code_size_bytes: int = 180 * 1024
    #: Nominal enclave stack (4 pages).
    stack_size_bytes: int = 16 * 1024
    #: Other static trusted structures: reply queues, config (3 pages).
    misc_trusted_bytes: int = 12 * 1024
    #: Nominal trusted bytes per hash-table slot (key item, 256-bit
    #: K_operation, pointer, oid, client id -- paper §4).
    table_slot_bytes: int = 92
    #: Slots in the initially materialised table subset.
    initial_table_capacity: int = 512
    #: Per-client session state allocated on the first add_client (1 page).
    client_state_bytes: int = 4096
    #: Request/reply ring geometry.
    ring_slots: int = 64
    ring_slot_size: int = 20 * 1024
    #: Untrusted payload pool arena size.
    arena_size: int = 4 * 1024 * 1024
    #: Store payload MACs inside the enclave and return them over the
    #: sealed channel (the hardening discussed in §3.9 against excluded
    #: clients rewriting values they once knew).
    strict_integrity: bool = False
    #: Keep values smaller than the control data inside the enclave table
    #: (the future-work optimisation sketched in §5.2).
    inline_small_values: bool = False
    #: Threshold for the inline optimisation (~control data size).
    inline_threshold: int = 56
    #: Enforce per-tenant ownership in the enclave: only the writing
    #: client (or clients it shared the key with) may read or delete an
    #: entry.  The "traditional access control schemes on top" the paper's
    #: per-pair key design enables (§3.3).
    tenant_isolation: bool = False
    #: Frames per drain cycle, >= 1.  Every ring drains through the
    #: pipeline (:mod:`repro.core.batch`): up to K frames per cycle,
    #: phase-grouped GCM open/seal across the cycle and one gather reply
    #: write per cycle.  K=1 reproduces the pre-pipeline serial server
    #: byte for byte.
    ecall_batch: int = 1

    def __post_init__(self) -> None:
        if self.ecall_batch < 1:
            raise ConfigurationError(
                f"ecall_batch must be >= 1, got {self.ecall_batch}"
            )


@dataclass
class ServerStats:
    """Operation counters exposed for tests and experiments."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    hits: int = 0
    misses: int = 0
    auth_failures: int = 0
    replay_rejections: int = 0
    duplicate_replies: int = 0
    protocol_errors: int = 0
    inline_stores: int = 0
    entries_exported: int = 0
    entries_imported: int = 0


@dataclass(slots=True)
class _Entry:
    """Enclave hash-table value: the security metadata for one key.

    ``k_operation`` is the key material the enclave holds for the stored
    blob: the client's one-time key, or the storage IV under server
    encryption (:mod:`repro.core.server_encryption`).
    """

    k_operation: bytes
    client_id: int
    mac: Optional[bytes] = None  # strict-integrity mode only
    ptr: Optional[PayloadPointer] = None  # set by _place unless inline
    inline_payload: Optional[bytes] = None  # inline-small-values mode only


#: Record flags: the entry carries a strict-mode MAC; its payload lives
#: inline in the enclave rather than in the untrusted pool.
_FLAG_MAC = 0x01
_FLAG_INLINE = 0x02


def _encode_record(key: bytes, entry: _Entry, grants: Iterable[int]) -> bytes:
    """Serialise one entry's enclave metadata: the record migration,
    replication and checkpoints all carry.

    ``key_len u16 | key | k_len u8 | K_operation | owner u32 | flags u8 |
    [MAC 16] | grant_count u16 | grantee u32 ...``.  The payload blob
    travels beside the record, never inside it.
    """
    grants = sorted(grants)
    flags = (_FLAG_MAC if entry.mac is not None else 0) | (
        _FLAG_INLINE if entry.inline_payload is not None else 0
    )
    return b"".join((
        struct.pack(">H", len(key)),
        bytes(key),
        struct.pack(">B", len(entry.k_operation)),
        entry.k_operation,
        struct.pack(">IB", entry.client_id, flags),
        entry.mac or b"",
        struct.pack(f">H{len(grants)}I", len(grants), *grants),
    ))


def _decode_record(
    record: bytes, offset: int = 0
) -> Tuple[bytes, _Entry, List[int], bool, int]:
    """Parse the record at ``offset``: ``(key, entry, grants, inline, end)``.

    ``entry`` has no payload location yet (:meth:`PrecursorServer._place`
    gives it one); ``end`` is the offset just past the record, so records
    concatenate.  Raises :class:`ProtocolError` on a malformed record.
    """
    try:
        (key_len,) = struct.unpack_from(">H", record, offset)
        offset += 2
        key = record[offset : offset + key_len]
        if len(key) != key_len or key_len == 0:
            raise ProtocolError("migration record: bad key length")
        offset += key_len
        (k_len,) = struct.unpack_from(">B", record, offset)
        offset += 1
        k_operation = record[offset : offset + k_len]
        if len(k_operation) != k_len:
            raise ProtocolError("migration record: truncated key material")
        offset += k_len
        client_id, flags = struct.unpack_from(">IB", record, offset)
        offset += 5
        mac = None
        if flags & _FLAG_MAC:
            mac = record[offset : offset + 16]
            if len(mac) != 16:
                raise ProtocolError("migration record: truncated MAC")
            offset += 16
        (grant_count,) = struct.unpack_from(">H", record, offset)
        grants = list(struct.unpack_from(f">{grant_count}I", record, offset + 2))
        offset += 2 + 4 * grant_count
    except struct.error as exc:
        raise ProtocolError(f"malformed migration record: {exc}") from exc
    entry = _Entry(k_operation=k_operation, client_id=client_id, mac=mac)
    return key, entry, grants, bool(flags & _FLAG_INLINE), offset


@dataclass
class _ClientChannel:
    """Untrusted per-client connection state on the server."""

    client_id: int
    request_region: MemoryRegion
    request_consumer: RingConsumer
    qp: QueuePair
    reply_rkey: int
    credit_rkey: int
    reply_producer: RingProducer = field(default=None)
    revoked: bool = False


@dataclass
class _LastReply:
    """Trusted per-client duplicate filter (retry support).

    The oid, request digest and reply of the client's most recently
    *applied* request.  A retransmission -- same oid, same digest -- gets
    the cached ack re-sent instead of a REPLAY rejection, so a client
    whose reply was lost can retry without double-applying.  The reply
    control carries ``K_operation``, so the cache lives in the enclave,
    beside the replay expectation, and survives a reconnect with it.
    """

    oid: Optional[int] = None
    digest: Optional[bytes] = None
    control: Optional[ResponseControl] = None
    payload: Optional[EncryptedPayload] = None


class PrecursorServer:
    """A Precursor key-value store instance.

    Wire a server to a :class:`~repro.rdma.fabric.Fabric`, then create
    :class:`~repro.core.client.PrecursorClient` objects against it.  Call
    :meth:`process_pending` to run the (conceptually perpetual) trusted
    polling loop; clients constructed with ``auto_pump=True`` do this for
    you after every operation.
    """

    HOST_NAME = "precursor-server"

    def __init__(
        self,
        fabric: Fabric = None,
        config: ServerConfig = None,
        keygen: KeyGenerator = None,
        obs: ObsContext = None,
        shard_name: str = None,
        shard_index: int = 0,
    ):
        self.fabric = fabric if fabric is not None else Fabric()
        self.config = config if config is not None else ServerConfig()
        self.stats = ServerStats()
        self.pd = self.fabric.add_host(self.HOST_NAME)
        self.provider = CryptoProvider(keygen)

        #: Shard membership: ``shard_name`` labels this server's metric
        #: series (one registry serves a whole cluster); ``shard_index``
        #: keeps the sealed-migration IV space disjoint across shards,
        #: which all share one sealing key (identical measurement).
        self.shard_name = shard_name
        self.shard_index = shard_index
        self._migration_seq = 0

        #: Shared observability context (tracer + metrics registry).  The
        #: fabric, the enclave and every attached client record into it.
        self.obs = obs if obs is not None else ObsContext.create()
        self.fabric.bind_obs(self.obs.registry)

        self._table_lock = ReadWriteLock()
        self._reservoir_lock = threading.Lock()
        self._boot()
        shard_labels = {"shard": shard_name} if shard_name is not None else {}
        registry = self.obs.registry
        self._obs_requests = {
            OpCode.PUT: registry.counter(
                "server_requests_total",
                "requests handled",
                {"op": "put", **shard_labels},
            ),
            OpCode.GET: registry.counter(
                "server_requests_total",
                "requests handled",
                {"op": "get", **shard_labels},
            ),
            OpCode.DELETE: registry.counter(
                "server_requests_total",
                "requests handled",
                {"op": "delete", **shard_labels},
            ),
        }
        self._obs_rejects = registry.counter(
            "server_rejected_requests_total",
            "frames dropped for auth/replay/protocol reasons",
            shard_labels or None,
        )
        self._obs_handle_ns = registry.histogram(
            "server_handle_ns",
            "per-frame dispatch time",
            shard_labels or None,
        )
        #: Transport calls served from (hits) or missing (misses) the
        #: sessions' keystream reservoirs, per direction.
        keystream_labels = {"enclave": self.enclave.name, **shard_labels}
        self._obs_keystream = {
            direction: (
                registry.counter(
                    "crypto_keystream_hits_total",
                    "transport GCM calls served from a keystream reservoir",
                    {**keystream_labels, "direction": direction},
                ),
                registry.counter(
                    "crypto_keystream_misses_total",
                    "transport GCM calls that ran their own AES pass",
                    {**keystream_labels, "direction": direction},
                ),
            )
            for direction in ("seal", "open")
        }
        #: Replication seam (:mod:`repro.replica`): when this server is a
        #: group primary, the group installs a callable here and every
        #: applied mutation reports ``(op, key)`` -- *after* the table
        #: commit, *before* the client's ack is produced, which is what
        #: makes sync/semi-sync acknowledged-write contracts real.
        self.replication_hook: Optional[Callable[[str, bytes], None]] = None
        #: Service-time seam: when set, called once per drained frame,
        #: inside its timed dispatch region (``server_handle_ns``).  The health
        #: harness installs a closure here that advances a manual clock
        #: by a modelled per-shard service latency, which is what makes
        #: deterministic hot-shard p99 experiments possible.
        self.service_hook: Optional[Callable[[], None]] = None
        #: The polling engine every ring drains through.
        self._batcher = BatchPipeline(self, self.config.ecall_batch)

    def _boot(self) -> None:
        """Boot an enclave and start every trusted and untrusted field empty.

        Runs at construction and at :meth:`restart`: the replacement
        enclave runs the same binary (identical measurement).
        """
        cfg = self.config
        self.enclave = Enclave(
            name="precursor",
            code_size_bytes=cfg.code_size_bytes,
            stack_size_bytes=cfg.stack_size_bytes,
        )
        shard_labels = (
            {"shard": self.shard_name} if self.shard_name is not None else None
        )
        self.enclave.bind_obs(self.obs.registry, shard_labels)
        self.enclave.allocator.allocate(cfg.misc_trusted_bytes, "misc")
        self.enclave.register_ecall("init_hashtable", self._ecall_init_hashtable)
        self.enclave.register_ecall("start_polling", self._ecall_start_polling)
        self.enclave.register_ecall("add_client", self._ecall_add_client)
        self.enclave.register_ocall("grow_payload_pool", self._ocall_grow_pool)

        # Trusted state (conceptually inside the enclave).
        self._table: Optional[RobinHoodTable] = None
        self._sessions: Dict[int, SessionKey] = {}
        self._replay = ReplayGuard()
        self._last_replies: Dict[int, _LastReply] = {}
        self._client_state_allocated = False
        self._table_capacity_charged = 0
        #: Clients whose keystream reservoirs this enclave has charged.
        self._reservoirs_charged: set = set()
        # Tenant-isolation grants: key -> set of additionally allowed
        # client ids (the owner is always allowed).
        self._grants: Dict[bytes, set] = {}

        # Untrusted state.
        self.payload_store = PayloadStore(
            arena_size=cfg.arena_size,
            grow_ocall=self._grow_via_ocall,
        )
        self._channels: Dict[int, _ClientChannel] = {}
        self._started = False
        self._polling = False
        #: Set by :meth:`crash`; every entry point then raises
        #: :class:`ShardUnavailableError` until :meth:`restart`.
        self.crashed = False

    # -- ecall implementations (trusted side) ------------------------------

    def _ecall_init_hashtable(self) -> None:
        # The table itself is materialised lazily on the first insert
        # ("only initializes a subset of the hash table in the enclave,
        # which increases within a threshold", §5.4).
        self._table = None

    def _ecall_start_polling(self) -> None:
        self._polling = True

    def _ecall_add_client(
        self, client_id: int, session_key: bytes, reconnect: bool = False
    ) -> None:
        if not self._client_state_allocated:
            self.enclave.allocator.allocate(
                self.config.client_state_bytes, "client_state"
            )
            self._client_state_allocated = True
        if client_id in self._sessions and not reconnect:
            raise ConfigurationError(f"client {client_id} already registered")
        session = SessionKey(key=session_key, client_id=client_id | _SERVER_IV_BIT)
        session.seal_reservoir.watch(self._obs_keystream["seal"])
        session.open_reservoir.watch(self._obs_keystream["open"])
        self._sessions[client_id] = session
        self._last_replies.setdefault(client_id, _LastReply())
        if not self._replay.is_registered(client_id):
            # Fresh admission -- or a reconnect after crash-restart where
            # the restored checkpoint did not know this client yet.
            self._replay.register_client(client_id)
        # On a plain reconnect (QP flap) the replay expectation and the
        # duplicate-reply cache are *kept*: the client resumes its oid
        # sequence, so a request lost before the flap can be retried under
        # its original oid -- and the very reason it reconnects may be a
        # reply it never saw for a request the enclave already applied.

    def _charge_reservoirs(self, client_id: int) -> None:
        """Charge a client's keystream reservoirs to the enclave.

        The masks are derived key material, so they live in trusted
        memory.  Charged when the enclave first opens a message from the
        client -- not at admission -- on engines that keep reservoirs,
        and once per enclave lifetime: a reconnect refills reservoirs of
        the same size.  Charging at the first *fill* instead would make
        the total a matter of thread timing: only a one-frame drain
        cycle fills them.
        """
        with self._reservoir_lock:
            if client_id not in self._reservoirs_charged:
                self._reservoirs_charged.add(client_id)
                if self.provider.engine.keystream_reservoirs:
                    self.enclave.allocator.allocate(
                        RESERVOIR_BYTES, "transport_reservoir"
                    )

    def _ocall_grow_pool(self, nbytes: int) -> None:
        # The single batched ocall of §4; PayloadStore performs the actual
        # allocation after this accounting hook returns.
        del nbytes

    def _grow_via_ocall(self, nbytes: int) -> None:
        if self.enclave.inside:
            self.enclave.ocall("grow_payload_pool", nbytes)
        else:
            # Pool growth triggered from the perpetual polling context:
            # still one ocall at the boundary.
            self.enclave.transitions.record_ocall()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Issue the startup ecalls (idempotent)."""
        if self._started:
            return
        self.enclave.ecall("init_hashtable")
        self.enclave.ecall("start_polling")
        self._started = True

    def _check_alive(self) -> None:
        if self.crashed:
            name = self.shard_name or self.HOST_NAME
            raise ShardUnavailableError(f"server {name!r} has crashed")

    def crash(self) -> None:
        """Kill this server: enclave torn down, every connection severed.

        Models a machine/enclave failure.  All trusted state (hash table,
        sessions, replay counters) is conceptually lost -- only what was
        sealed to disk beforehand (:mod:`repro.core.persistence`) survives.
        Every QP errors out, so in-flight client posts fail fast rather
        than timing out.  Service resumes only after :meth:`restart`.
        """
        self.crashed = True
        self.enclave.destroy()
        for channel in self._channels.values():
            channel.qp.error_out()

    def restart(self) -> None:
        """Boot a fresh enclave after :meth:`crash`.

        The replacement enclave runs the same binary (identical
        measurement), so it can unseal checkpoints its predecessor wrote
        -- restore one with :class:`~repro.core.persistence.CheckpointManager`.
        All volatile trusted state starts empty; clients must re-attest
        through :meth:`reconnect_client`.
        """
        if not self.crashed:
            raise ConfigurationError("restart() is only valid after crash()")
        self._boot()

    # -- client admission ------------------------------------------------------

    def add_client(
        self,
        client_id: int,
        session_key: bytes,
        qp: QueuePair,
        reply_rkey: int,
        credit_rkey: int,
    ) -> Tuple[int, RingLayout]:
        """Admit an attested client.

        Returns ``(request_rkey, ring_layout)`` -- the registered buffer
        window the server shares to bootstrap RDMA (paper §3.6).
        """
        return self._admit(
            client_id, session_key, qp, reply_rkey, credit_rkey, reconnect=False
        )

    def reconnect_client(
        self,
        client_id: int,
        session_key: bytes,
        qp: QueuePair,
        reply_rkey: int,
        credit_rkey: int,
    ) -> Tuple[int, RingLayout]:
        """Re-admit a client after a QP error or a server restart.

        The client has re-attested (``session_key`` is the *new* session
        key) and brings a fresh QP and reply/credit regions.  Crucially the
        enclave keeps the client's replay expectation when it still has one
        -- the client resumes its ``oid`` sequence, so a request that was
        in flight when the connection died can be retried under its
        original oid and deduplicated.  After a crash-restart the replay
        state instead comes from the restored checkpoint (or starts fresh
        for clients the checkpoint never saw).
        """
        return self._admit(
            client_id, session_key, qp, reply_rkey, credit_rkey, reconnect=True
        )

    def _admit(
        self,
        client_id: int,
        session_key: bytes,
        qp: QueuePair,
        reply_rkey: int,
        credit_rkey: int,
        reconnect: bool,
    ) -> Tuple[int, RingLayout]:
        self._check_alive()
        self.start()
        self.enclave.ecall("add_client", client_id, session_key, reconnect)
        cfg = self.config
        layout = RingLayout(cfg.ring_slots, cfg.ring_slot_size)
        request_region = self.pd.register(
            layout.total_bytes, AccessFlags.REMOTE_WRITE | AccessFlags.LOCAL_WRITE
        )
        channel = _ClientChannel(
            client_id=client_id,
            request_region=request_region,
            request_consumer=RingConsumer(layout, request_region),
            qp=qp,
            reply_rkey=reply_rkey,
            credit_rkey=credit_rkey,
        )
        channel.reply_producer = RingProducer(
            layout,
            write_remote=functools.partial(self._rdma_write, channel, reply_rkey),
            write_remote_many=functools.partial(
                self._rdma_write_gather, channel, reply_rkey
            ),
        )
        self._channels[client_id] = channel
        return request_region.rkey, layout

    def replay_expected(self, client_id: int) -> int:
        """The oid the enclave expects next from ``client_id``.

        Conceptually part of the attested reconnect handshake: a client
        coming back from a transport fault (or a server crash-restart)
        learns where the enclave's replay filter stands so the two sides
        resume the sequence in lockstep (``docs/FAULTS.md``).
        """
        self._check_alive()
        return self._replay.expected_oid(client_id)

    def revoke_client(self, client_id: int) -> None:
        """Revoke a (rogue) client by erroring out its QP (§3.9)."""
        channel = self._channel(client_id)
        channel.revoked = True
        channel.qp.error_out()

    def _channel(self, client_id: int) -> _ClientChannel:
        channel = self._channels.get(client_id)
        if channel is None:
            raise ConfigurationError(f"unknown client {client_id}")
        return channel

    def _rdma_write(
        self, channel: _ClientChannel, rkey: int, offset: int, data: bytes
    ) -> None:
        self.fabric.post_send(channel.qp, WorkRequest(data, rkey, offset))

    def _rdma_write_gather(
        self,
        channel: _ClientChannel,
        rkey: int,
        writes: List[Tuple[int, bytes]],
    ) -> None:
        """Post one gather WRITE landing several ``(offset, data)`` slices.

        The coalesced-reply transport of the request pipeline: one WQE,
        one doorbell, K reply slots.  ``RingProducer.produce_many`` sends
        a batch of one as a plain write instead, so a one-frame cycle's
        wire behaviour (and fault-injection judgement sequence) matches
        the pre-pipeline serial server.
        """
        data = b"".join([payload for _offset, payload in writes])
        segments = tuple([(offset, len(payload)) for offset, payload in writes])
        self.fabric.post_send(
            channel.qp, WorkRequest(data, rkey, writes[0][0], segments)
        )

    # -- the polling loop ------------------------------------------------------

    def process_client(self, client_id: int, batch: int = 64) -> int:
        """Poll one client's ring: the unit of work of a trusted thread.

        The paper assigns each trusted thread a *subset* of the client
        rings (§3.8); :class:`~repro.core.threading.ServerThreadPool`
        partitions clients over threads by calling this.  The ring
        drains through :class:`~repro.core.batch.BatchPipeline` in
        cycles of up to ``config.ecall_batch`` frames.
        """
        return self._batcher.process_client(client_id, batch)

    def process_pending(self, batch: int = 64) -> int:
        """One iteration of the trusted polling loop over every client ring.

        Returns the number of requests handled.  In the real system this
        loop runs forever inside the enclave; in-process callers pump it.
        Clients are visited in admission order and each is drained
        before the next; one header read passes over an idle ring.
        """
        self._check_alive()
        if not self._started:
            raise ConfigurationError("server not started")
        drain = self._batcher.process_client
        handled = 0
        for client_id, channel in list(self._channels.items()):
            if not channel.request_consumer.idle():
                handled += drain(client_id, batch)
        return handled

    # -- request handling (trusted side) ------------------------------------

    def _process_control_blob(
        self,
        channel: _ClientChannel,
        control_blob: bytes,
        request: Request,
        cycle,
    ) -> None:
        """Dispatch an authenticated control segment.

        The one dispatch of both payload schemes: replay filter, duplicate-
        reply cache, hop, request counter and the entry lifecycle run here;
        a scheme differs only in :meth:`_put_entry` and :meth:`_get_reply`.
        ``cycle`` is the drain cycle's state (:mod:`repro.core.batch`):
        its trace, whether hops are recorded, and its staged replies.
        """
        try:
            control = ControlData.decode(control_blob)
        except ProtocolError:
            self.stats.protocol_errors += 1
            self._obs_rejects.inc()
            return

        digest = self._request_digest(control_blob, request.payload)
        last = self._last_replies[channel.client_id]
        try:
            self._replay.check_and_advance(channel.client_id, control.oid)
        except ReplayError:
            self.stats.replay_rejections += 1
            self._obs_rejects.inc()
            if (
                control.oid == last.oid
                and digest == last.digest
                and last.control is not None
            ):
                # Byte-identical retransmission of the last applied
                # request: the client never saw our reply.  Re-send the
                # cached ack (at-most-once semantics) -- the operation is
                # NOT applied again.
                self.stats.duplicate_replies += 1
                self.obs.hop(
                    "dup_reply",
                    shard=self.shard_name or self.HOST_NAME,
                    oid=control.oid,
                )
                self._send_response(cycle, channel, last.control, last.payload)
            else:
                self._send_response(
                    cycle,
                    channel,
                    ResponseControl(status=Status.REPLAY, oid=control.oid),
                )
            return
        last.digest = digest
        if cycle.trace is not None:
            self.obs.hop(
                "server",
                shard=self.shard_name or self.HOST_NAME,
                op=control.opcode.name.lower(),
                oid=control.oid,
            )

        counter = self._obs_requests.get(control.opcode)
        if counter is not None:
            counter.inc()
        if control.opcode is OpCode.PUT:
            self._handle_put(cycle, channel, control, request.payload)
        elif control.opcode is OpCode.GET:
            self._handle_get(cycle, channel, control)
        elif control.opcode is OpCode.DELETE:
            self._handle_delete(cycle, channel, control)

    def _handle_put(
        self,
        cycle,
        channel: _ClientChannel,
        control: ControlData,
        payload: Optional[EncryptedPayload],
    ) -> None:
        self.stats.puts += 1
        built = self._put_entry(channel.client_id, control, payload)
        if built is None:
            # An authenticated sender, but not this scheme's PUT: answered
            # (sealed) rather than dropped, and nothing is stored.
            self.stats.protocol_errors += 1
            self._send_response(
                cycle,
                channel,
                ResponseControl(status=Status.ERROR, oid=control.oid),
            )
            return
        entry, blob = built
        cfg = self.config
        inline = cfg.inline_small_values and len(blob) <= cfg.inline_threshold
        # Payload bytes go to the untrusted pool -- never the enclave --
        # unless they are small enough to live inline (§5.2).
        run_stage(
            cycle.trace, "server.payload_store", self._place, entry, blob, inline
        )
        if inline:
            self.stats.inline_stores += 1
        stored = run_stage(
            cycle.trace,
            "server.table_update",
            self._install,
            control.key,
            entry,
            channel.client_id,
        )
        if not stored:
            # Cross-tenant overwrite: only the owner may update.
            self._send_response(
                cycle,
                channel,
                ResponseControl(status=Status.ERROR, oid=control.oid),
            )
            return
        self._notify_replication("put", control.key)
        self._send_response(
            cycle, channel, ResponseControl(status=Status.OK, oid=control.oid)
        )

    def _put_entry(
        self,
        client_id: int,
        control: ControlData,
        payload: Optional[EncryptedPayload],
    ) -> Optional[Tuple[_Entry, bytes]]:
        """The scheme's PUT step: the entry and the blob to store, or
        None when the request's shape does not fit the scheme.

        Precursor keeps the client's one-time key in the enclave and
        stores the client's ciphertext+MAC untouched.
        """
        if (
            payload is None
            or control.k_operation is None
            or control.value is not None
        ):
            return None
        entry = _Entry(
            k_operation=control.k_operation,
            client_id=client_id,
            mac=payload.mac if self.config.strict_integrity else None,
        )
        return entry, payload.ciphertext + payload.mac

    def _get_reply(
        self, control: ControlData, entry: _Entry, blob: bytes
    ) -> Tuple[ResponseControl, Optional[EncryptedPayload]]:
        """The scheme's GET step: the reply control and payload for a
        readable ``entry`` whose stored blob is ``blob``.

        Precursor releases the one-time key over the sealed channel and
        attaches the stored bytes untouched.
        """
        return (
            ResponseControl(
                status=Status.OK,
                oid=control.oid,
                k_operation=entry.k_operation,
                mac=entry.mac if self.config.strict_integrity else None,
            ),
            EncryptedPayload(ciphertext=blob[:-16], mac=blob[-16:]),
        )

    def _notify_replication(self, op: str, key: bytes) -> None:
        # Outside every table lock: a group hook re-enters this server
        # through export_entry, which takes the read lock.
        hook = self.replication_hook
        if hook is not None:
            hook(op, bytes(key))

    # -- tenant isolation (§3.3: access control on top of per-pair keys) ----

    def grant_access(self, key: bytes, client_id: int) -> None:
        """Allow ``client_id`` to read ``key`` (tenant-isolation mode).

        An administrative/trusted-path operation: the enclave records the
        grant; on a later GET it releases the one-time key to the grantee.
        A grant belongs to the stored entry, so ``key`` must be stored
        (:class:`KeyNotFoundError` otherwise): a grant made ahead of the
        write would go to whichever tenant wrote the key first.  The
        entry's record, which carries its grants, is shipped to the
        replication group again.
        """
        if not self.config.tenant_isolation:
            raise ConfigurationError("tenant_isolation is not enabled")
        with self._table_lock.write():
            if self._lookup(key) is None:
                raise KeyNotFoundError(key)
            self._grants.setdefault(bytes(key), set()).add(client_id)
        self._notify_replication("put", key)

    def _access_allowed(self, entry: _Entry, key: bytes, client_id: int) -> bool:
        """Whether tenant isolation lets ``client_id`` read ``entry``."""
        if entry.client_id == client_id:
            return True
        return client_id in self._grants.get(bytes(key), ())

    def _read_entry(self, key: bytes, client_id: int):
        """``(entry, blob)`` under ``key`` if ``client_id`` may read it,
        else ``(None, None)``: a denial reads as a miss, leaking nothing
        about the key's existence."""
        with self._table_lock.read():
            entry = self._lookup(key)
            if entry is None or (
                self.config.tenant_isolation
                and not self._access_allowed(entry, key, client_id)
            ):
                return None, None
            return entry, self._load(entry)

    def _handle_get(
        self, cycle, channel: _ClientChannel, control: ControlData
    ) -> None:
        self.stats.gets += 1
        entry, blob = run_stage(
            cycle.trace,
            "server.table_lookup",
            self._read_entry,
            control.key,
            channel.client_id,
        )
        if entry is None:
            self.stats.misses += 1
            self._send_response(
                cycle,
                channel,
                ResponseControl(status=Status.NOT_FOUND, oid=control.oid),
            )
            return
        self.stats.hits += 1
        self._send_response(cycle, channel, *self._get_reply(control, entry, blob))

    def _handle_delete(
        self, cycle, channel: _ClientChannel, control: ControlData
    ) -> None:
        self.stats.deletes += 1
        # Only the owner may delete; denials read as misses.
        entry = run_stage(
            cycle.trace,
            "server.table_update",
            self._remove,
            control.key,
            channel.client_id,
        )
        if entry is None:
            self.stats.misses += 1
            status = Status.NOT_FOUND
        else:
            status = Status.OK
            self._notify_replication("delete", control.key)
        self._send_response(
            cycle, channel, ResponseControl(status=status, oid=control.oid)
        )

    @staticmethod
    def _request_digest(
        control_blob: bytes, payload: Optional[EncryptedPayload]
    ) -> bytes:
        """Fingerprint of one request for the duplicate filter.

        Covers the authenticated control bytes *and* the untrusted payload:
        a new request that happens to reuse an old oid (a protocol bug or
        an attack) hashes differently and is rejected as a replay instead
        of being acked with a stale cached reply.
        """
        h = hashlib.sha256(control_blob)
        if payload is not None:
            h.update(payload.ciphertext)
            h.update(payload.mac)
        return h.digest()

    def _send_response(
        self,
        cycle,
        channel: _ClientChannel,
        control: ResponseControl,
        payload: Optional[EncryptedPayload] = None,
    ) -> None:
        """Stage one reply for ``cycle``'s seal phase."""
        if control.status is not Status.REPLAY:
            # Cache the reply for the duplicate filter BEFORE any reply
            # bytes exist: if the write is later lost to a transport
            # fault, the retried request still recovers the genuine ack
            # -- and a retransmission later in the *same* cycle sees it.
            # (REPLAY rejections are never cached: a replayed frame must
            # not overwrite the genuine reply it duplicates.)
            last = self._last_replies[channel.client_id]
            last.oid = control.oid
            last.control = control
            last.payload = payload
        cycle.replies.append((channel, control, payload))

    # -- the entry lifecycle: every table mutation runs through these -------

    def _lookup(self, key: bytes):
        """The entry under ``key``, or ``None``.  The caller holds a lock."""
        table = self._table
        if table is None:
            return None
        try:
            return table.get(key)
        except KeyError:
            return None

    def _load(self, entry: _Entry) -> bytes:
        """``entry``'s payload blob.  The caller holds a table lock, so
        compaction (which rewrites pointers under the write lock) cannot
        run concurrently."""
        if entry.inline_payload is not None:
            return entry.inline_payload
        return self.payload_store.load(entry.ptr)

    def _place(self, entry: _Entry, blob: bytes, inline: bool) -> None:
        """Store ``entry``'s payload blob: inline in trusted memory, or
        in the untrusted pool."""
        if inline:
            self.enclave.allocator.allocate(len(blob), "inline_values")
            entry.inline_payload = blob
        else:
            entry.ptr = self.payload_store.store(blob)

    def _release(self, entry: _Entry) -> None:
        """Free the storage of an entry that left (or never entered) the
        table."""
        if entry.ptr is not None:
            self.payload_store.release(entry.ptr)
        if entry.inline_payload is not None:
            self.enclave.allocator.free(
                len(entry.inline_payload), "inline_values"
            )

    def _install(self, key: bytes, entry, owner: Optional[int] = None) -> bool:
        """Commit ``entry`` under ``key``, releasing the entry it replaces.

        With ``owner`` given under tenant isolation, another client's
        entry is not overwritten: ``entry`` is released instead and the
        call returns False.  Otherwise one table probe both installs the
        entry and finds the one it replaces.
        """
        with self._table_lock.write():
            if self._table is None:
                # Materialised on the first insert ("only initializes a
                # subset of the hash table in the enclave, which
                # increases within a threshold", §5.4).
                self._table = RobinHoodTable(
                    initial_capacity=self.config.initial_table_capacity
                )
                self._charge_table_growth()
            allowed = True
            if owner is not None and self.config.tenant_isolation:
                resident = self._lookup(key)
                allowed = resident is None or resident.client_id == owner
            old = self._table.put(key, entry, swap=True) if allowed else None
            if self._table.capacity != self._table_capacity_charged:
                self._charge_table_growth()
        released = old if allowed else entry
        if released is not None:
            self._release(released)
        return allowed

    def _remove(self, key: bytes, owner: Optional[int] = None):
        """Delete ``key`` with its grants and free its storage.

        Returns the removed entry, or ``None`` when ``key`` is absent --
        or, with ``owner`` given under tenant isolation, another
        client's.
        """
        with self._table_lock.write():
            entry = self._lookup(key)
            if entry is None or (
                owner is not None
                and self.config.tenant_isolation
                and entry.client_id != owner
            ):
                return None
            self._table.delete(key)
            self._grants.pop(bytes(key), None)
        self._release(entry)
        return entry

    def _export_record(self, key: bytes) -> Tuple[bytes, bytes]:
        """``(record, payload_blob)`` of ``key``, read under the read lock.

        Raises :class:`KeyNotFoundError` when ``key`` is absent.
        """
        with self._table_lock.read():
            entry = self._lookup(key)
            if entry is None:
                raise KeyNotFoundError(key)
            grants = self._grants.get(bytes(key), ())
            return _encode_record(key, entry, grants), self._load(entry)

    def _install_record(
        self, record: bytes, blob: bytes, offset: int = 0
    ) -> Tuple[bytes, int]:
        """Install the record at ``offset`` with its payload ``blob``.

        Returns ``(key, end)``, ``end`` being the offset past the record.
        Raises :class:`ProtocolError` on a malformed record or a blob
        shorter than its MAC -- either way nothing is installed.
        """
        key, entry, grants, inline, end = _decode_record(record, offset)
        if len(blob) < 16:
            raise ProtocolError("migrated payload shorter than its MAC")
        self._place(entry, bytes(blob), inline)
        self._install(key, entry)
        if grants:
            self._grants[bytes(key)] = set(grants)
        return key, end

    # -- trusted memory accounting -----------------------------------------

    def _charge_table_growth(self) -> None:
        """Charge the table's current capacity in place of the last one."""
        capacity = self._table.capacity
        slot_bytes = self.config.table_slot_bytes
        if self._table_capacity_charged:
            self.enclave.allocator.free(
                self._table_capacity_charged * slot_bytes, "hashtable"
            )
        self.enclave.allocator.allocate(capacity * slot_bytes, "hashtable")
        self._table_capacity_charged = capacity

    # -- untrusted pool maintenance ---------------------------------------------

    def compact_payloads(self) -> int:
        """Compact the untrusted pool: drop dead bytes, rewrite pointers.

        Updates and deletes leave garbage behind (the pool is a bump
        allocator, paper §3.8); long-running servers reclaim it here.
        Runs under the table write lock; live payloads are copied into a
        fresh pool and every enclave entry's pointer is rewritten.
        Returns the number of bytes reclaimed.
        """
        with self._table_lock.write():
            old_store = self.payload_store
            reclaimable = old_store.dead_bytes
            if reclaimable == 0:
                return 0
            new_store = PayloadStore(
                arena_size=self.config.arena_size,
                grow_ocall=self._grow_via_ocall,
            )
            if self._table is not None:
                for _key, entry in self._table.items():
                    if entry.ptr is None:
                        continue  # inline in trusted memory
                    blob = old_store.load(entry.ptr)
                    entry.ptr = new_store.store(blob)
            self.payload_store = new_store
            return reclaimable

    # -- bulk loading (warm-up helper) ----------------------------------------

    def warm_load(
        self, items: Iterable[Tuple[bytes, bytes]], client_id: int,
        keygen: KeyGenerator = None,
    ) -> int:
        """Bulk-insert key/value pairs through the real storage path.

        Builds each PUT in whichever shape the scheme's :meth:`_put_entry`
        accepts -- the value sealed in the control segment, or a one-time
        key with its client-encrypted payload -- and stores it through
        that step: genuine payload crypto, pool storage and table/EPC
        accounting, but no per-request transport framing.  The tool the
        experiments use to pre-load 600 k (or 3 M) entries without paying
        pure-Python AES on every control message.
        """
        self._check_alive()
        keygen = keygen if keygen is not None else KeyGenerator(seed=7)
        if client_id not in self._sessions:
            raise ConfigurationError(f"unknown client {client_id}")
        count = 0
        for key, value in items:
            put = ControlData(OpCode.PUT, 0, key, value=value)
            built = self._put_entry(client_id, put, None)
            if built is None:
                k_op = keygen.operation_key()
                payload = self.provider.payload_encrypt(k_op, value)
                put = ControlData(OpCode.PUT, 0, key, k_op)
                built = self._put_entry(client_id, put, payload)
            entry, blob = built
            self._place(entry, blob, inline=False)
            self._install(key, entry)
            count += 1
        return count

    # -- live migration (repro.shard.migrate) --------------------------------
    #
    # Shards rebalance by streaming entries between enclaves.  The security
    # metadata (one-time key, strict-mode MAC, owner, grants) travels as a
    # record sealed to the enclave *binary* identity: every shard runs the
    # same measurement, so only a genuine Precursor enclave can unseal it
    # -- plaintext key material never exists outside the two enclaves.  The
    # payload travels as the ciphertext+MAC blob it already is in untrusted
    # memory; tampering with it in transit is caught by the client's MAC
    # check on the next get(), exactly as for at-rest tampering.  Sealed
    # checkpoints (:mod:`repro.core.persistence`) carry the same record.

    def stored_keys(self) -> List[bytes]:
        """Snapshot of every key this shard currently owns."""
        with self._table_lock.read():
            if self._table is None:
                return []
            return [key for key, _entry in self._table.items()]

    def _next_migration_iv(self) -> int:
        # All shards share one sealing key (same measurement), so the IV
        # counter space is partitioned by shard index to prevent reuse.
        self._migration_seq += 1
        return (self.shard_index << 40) | self._migration_seq

    def export_entry(self, key: bytes) -> Tuple[bytes, bytes]:
        """Export ``key`` for migration: ``(sealed_record, payload_blob)``.

        The sealed record carries the enclave-resident metadata; the blob
        is the untrusted ciphertext+MAC exactly as stored.  The entry
        stays live on this shard until :meth:`evict_entry` -- the engine
        copies first, flips ownership, then evicts, so a crash mid-move
        never loses the key.
        """
        self._check_alive()
        record, blob = self._export_record(key)
        sealed = seal_data(
            self.enclave, record, self._next_migration_iv(), aad=_MIGRATION_AAD
        )
        self.stats.entries_exported += 1
        return sealed, blob

    def import_entry(self, sealed_record: bytes, blob: bytes) -> bytes:
        """Install a migrated entry; returns the key.

        Raises :class:`~repro.errors.IntegrityError` when the record was
        tampered with or sealed by a different enclave binary, and
        :class:`ProtocolError` on a malformed record -- either way nothing
        is installed.
        """
        # The target must be a running shard before entries land in its
        # table; ``start()`` is idempotent, but a later first ``start()``
        # would re-run ``init_hashtable`` and drop everything imported.
        self._check_alive()
        self.start()
        record = unseal_data(self.enclave, sealed_record, aad=_MIGRATION_AAD)
        key, _end = self._install_record(record, blob)
        self.stats.entries_imported += 1
        self._notify_replication("put", key)
        return key

    def evict_entry(self, key: bytes) -> None:
        """Drop ``key`` after a successful migration (frees all storage)."""
        self._check_alive()
        if self._remove(key) is None:
            raise KeyNotFoundError(key)
        self._notify_replication("delete", key)

    # -- introspection -----------------------------------------------------------

    @property
    def key_count(self) -> int:
        """Number of keys currently stored."""
        return len(self._table) if self._table is not None else 0

    @property
    def client_count(self) -> int:
        """Number of admitted clients."""
        return len(self._channels)

    def trusted_working_set_bytes(self) -> int:
        """Enclave working set (what sgx-perf reports for Table 1)."""
        return self.enclave.trusted_bytes

    def queue_depth(self) -> int:
        """Requests visible in client rings but not yet consumed.

        The telemetry pipeline's queue-depth probe.  Non-destructive:
        peeks at ring headers without moving any read cursor.  A crashed
        server reports 0 (nothing will ever be consumed).
        """
        if self.crashed:
            return 0
        depth = 0
        for channel in self._channels.values():
            if channel.revoked:
                continue
            depth += channel.request_consumer.pending()
        return depth
