"""The Precursor client: the "precursor" that does the heavy lifting.

Precursor's headline design decision (paper §3.2-3.3) is to move payload
cryptography to the client: before a ``put()`` the client generates a fresh
one-time key, encrypts the value with it, MACs the ciphertext, and seals
only the tiny control segment to the enclave (Algorithm 1).  After a
``get()`` it receives the raw ciphertext from untrusted server memory plus
the one-time key over the sealed channel, recomputes the MAC and decrypts
-- so the *client*, not the server, verifies integrity and freshness.

The transport is one-sided RDMA in both directions: requests are WRITTEN
into the server's per-client ring; replies appear in a client-local reply
ring the server WRITEs into; request-ring credits arrive in a one-sided
credit word.
"""

from __future__ import annotations

import dataclasses
import hmac
import itertools
import struct
import time
from typing import Callable, Optional, Tuple

from repro.core.protocol import (
    ControlData,
    OpCode,
    Request,
    Response,
    ResponseControl,
    Status,
    reply_aad,
    request_aad,
)
from repro.core.ring_buffer import RingConsumer, RingProducer
from repro.core.server import PrecursorServer
from repro.crypto.keys import KeyGenerator, SessionKey
from repro.crypto.provider import CryptoProvider, EncryptedPayload
from repro.errors import (
    AccessError,
    AuthenticationError,
    CapacityError,
    IntegrityError,
    KeyNotFoundError,
    OperationTimeoutError,
    PrecursorError,
    ProtocolError,
    ReplayError,
    ShardUnavailableError,
)
from repro.obs import ObsContext, Trace
from repro.rdma.memory import AccessFlags
from repro.rdma.verbs import Opcode as RdmaOpcode
from repro.rdma.verbs import WorkRequest
from repro.sgx.attestation import attest_and_establish_session

__all__ = ["PrecursorClient", "allocate_client_id"]

_client_ids = itertools.count(1)

#: Sentinel returned by :meth:`PrecursorClient._exchange` when the server's
#: replay filter confirmed a retried request was already applied but no
#: cached reply could be recovered (e.g. after a crash-restart).
_APPLIED = object()

_MAC_MISMATCH = "payload MAC mismatch: untrusted server memory was modified"


def allocate_client_id() -> int:
    """Reserve the next client id from the shared process-wide counter.

    A sharded router (:mod:`repro.shard.router`) opens one session per
    shard under a *single* identity -- the same client id on every shard
    -- so per-tenant ownership survives key migration between shards.
    Drawing from the same counter as auto-assigned ids keeps direct
    clients and routed clients collision-free in one process.
    """
    return next(_client_ids)


class PrecursorClient:
    """A connected Precursor client.

    Parameters
    ----------
    server:
        The :class:`~repro.core.server.PrecursorServer` to attach to (both
        must share one fabric).
    client_id:
        Optional explicit id; auto-assigned when omitted.
    keygen:
        Source of one-time keys/IVs.  Pass a seeded generator for
        reproducible runs.
    auto_pump:
        When True (default), each operation pumps the server's polling
        loop so the in-process pair behaves synchronously.  Disable to
        drive the server explicitly (e.g. batched or multi-client tests).
    expected_measurement:
        The enclave measurement to attest against; defaults to the
        server's true measurement.  Passing a wrong value makes the
        handshake fail -- that is the point of attestation.
    response_timeout_s:
        When set (and ``auto_pump`` is False), operations spin-wait on
        the reply ring up to this many seconds -- the mode used against a
        threaded server (:class:`~repro.core.threading.ServerThreadPool`),
        where another thread fills the ring.
    max_retries:
        Per-operation retry budget (default 0: fail fast, the historical
        behaviour).  With retries enabled, a transport fault or reply
        timeout triggers reconnect-and-resubmit under the *same* ``oid``,
        so the server's replay filter deduplicates a request that was
        already applied -- retried PUTs never double-apply and GETs are
        idempotent (``docs/FAULTS.md``).
    retry_backoff_s / retry_backoff_cap_s:
        Capped exponential backoff between attempts: the Nth retry sleeps
        ``min(cap, backoff * 2**(N-1))`` seconds.
    obs:
        Observability context to trace operations into; defaults to the
        *server's* context so client- and server-side stages of one
        operation land in the same trace (``docs/OBSERVABILITY.md``).
    trace_ops:
        When True (default), every single-key ``get``/``put``/``delete``
        records an end-to-end span trace.  Disable for micro-benchmarks
        that cannot afford the few clock reads per operation.
    """

    def __init__(
        self,
        server: PrecursorServer,
        client_id: Optional[int] = None,
        keygen: Optional[KeyGenerator] = None,
        auto_pump: bool = True,
        expected_measurement: Optional[bytes] = None,
        response_timeout_s: Optional[float] = None,
        obs: Optional[ObsContext] = None,
        trace_ops: bool = True,
        max_retries: int = 0,
        retry_backoff_s: float = 0.0002,
        retry_backoff_cap_s: float = 0.01,
    ):
        self.response_timeout_s = response_timeout_s
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_cap_s = retry_backoff_cap_s
        self.obs = obs if obs is not None else server.obs
        self._trace_ops = trace_ops
        self.client_id = client_id if client_id is not None else next(_client_ids)
        self.keygen = keygen if keygen is not None else KeyGenerator()
        self.provider = CryptoProvider(self.keygen)
        self._pump: Optional[Callable[[], int]] = (
            server.process_pending if auto_pump else None
        )
        self._server = server

        # Attestation + RDMA bootstrap; reused verbatim by reconnect().
        self._expected_measurement = expected_measurement
        self.fabric = server.fabric
        self._host = f"client-{self.client_id}"
        self.pd = self.fabric.add_host(self._host)
        self._establish(reconnect=False)
        self._oid = 0

        #: Client-side operation counters.
        self.operations = 0
        self.integrity_failures = 0
        self.retries = 0
        self.reconnects = 0
        #: Gets answered from the caller's basis without payload crypto.
        self.unchanged_reads = 0
        #: ``(K_operation, payload)`` of the most recent successful
        #: ``get`` (as verified, the enclave's MAC under strict
        #: integrity) or ``put`` (as encrypted): the basis of the value
        #: it returned or stored.
        self.last_payload: Optional[Tuple[bytes, EncryptedPayload]] = None

        #: Chaos seam (repro.faults): called with the encoded frame after
        #: each submit; returning True makes the client post the frame
        #: again (a duplicated RDMA write -- the server must deduplicate).
        self.submit_fault_hook: Optional[Callable[[bytes], bool]] = None

    def _establish(self, reconnect: bool) -> None:
        """Attest, connect a fresh QP pair, and (re)register the rings.

        1. Remote attestation establishes trust and the session key (§3.6).
        2. RDMA bootstrap: register local regions, connect QPs, learn the
           server's buffer window (rkey + layout).

        Both the first admission and every reconnect run the full
        handshake -- a QP that dropped to ERR cannot be trusted to carry a
        stale session, so re-attestation mints a fresh session key while
        the enclave keeps the client's replay expectation.
        """
        server = self._server
        measurement = (
            self._expected_measurement
            if self._expected_measurement is not None
            else server.enclave.measurement
        )
        self.session = attest_and_establish_session(
            server.enclave, measurement, self.client_id, self.keygen
        )

        self._qp, server_qp = self.fabric.create_qp_pair(
            self._host, server.HOST_NAME
        )

        # Reply ring and credit word live in *client* memory; the server
        # writes both with one-sided WRITEs.
        self._credit_region = self.pd.register(
            8, AccessFlags.REMOTE_WRITE | AccessFlags.LOCAL_WRITE
        )
        layout_probe = server.config
        reply_bytes = layout_probe.ring_slots * layout_probe.ring_slot_size
        self._reply_region = self.pd.register(
            reply_bytes, AccessFlags.REMOTE_WRITE | AccessFlags.LOCAL_WRITE
        )

        admit = server.reconnect_client if reconnect else server.add_client
        request_rkey, layout = admit(
            self.client_id,
            self.session.key,
            server_qp,
            reply_rkey=self._reply_region.rkey,
            credit_rkey=self._credit_region.rkey,
        )
        self._layout = layout
        self._request_rkey = request_rkey
        self._producer = RingProducer(layout, write_remote=self._write_request)
        self._reply_consumer = RingConsumer(layout, self._reply_region)

    def reconnect(self) -> None:
        """Restore service after a transport fault left the QP in ERR.

        Re-runs the full admission handshake: re-attestation (fresh
        session key), a fresh QP pair, and fresh request/reply rings on
        both sides.  The ``oid`` sequence continues where it left off --
        the server kept (or restored) the replay expectation -- so an
        operation that was in flight when the connection died can be
        resubmitted under its original oid and deduplicated.

        Raises :class:`~repro.errors.ShardUnavailableError` while the
        server is crashed; once it restarts, reconnection succeeds.

        Returns the oid the server's replay filter expects next -- the
        resync point the retry engine uses to keep the sequence in
        lockstep after lost requests.
        """
        if self._server.crashed:
            raise ShardUnavailableError(
                f"server {self._server.shard_name or self._server.HOST_NAME!r}"
                " is down; reconnect after it restarts"
            )
        self._establish(reconnect=True)
        self.reconnects += 1
        self.obs.hop(
            "reconnect",
            shard=self._server.shard_name or self._server.HOST_NAME,
        )
        self.obs.registry.counter(
            "recoveries_total",
            "recovery actions taken",
            {"kind": "reconnect"},
        ).inc()
        return self._server.replay_expected(self.client_id)

    def revive(self) -> None:
        """Reconnect an *idle* session and realign the oid sequence.

        For sessions a router parked while another replica served the
        shard: the server behind them may have restarted since (wiping
        its replay table), so after the reconnect handshake the next
        operation picks up at whatever oid the filter expects.  Only
        valid between operations -- the in-flight retry engine does its
        own oid resync and must keep the current oid pinned instead.
        """
        expected = self.reconnect()
        if expected is not None:
            self._oid = expected - 1

    @property
    def server(self) -> PrecursorServer:
        """The server this client is attached to (router introspection)."""
        return self._server

    # -- transport ------------------------------------------------------------

    def _write_request(self, offset: int, data: bytes) -> None:
        self.fabric.post_send(
            self._qp,
            WorkRequest(
                wr_id=self._oid,
                opcode=RdmaOpcode.RDMA_WRITE,
                data=data,
                remote_rkey=self._request_rkey,
                remote_offset=offset,
                signaled=False,
                inline=len(data) <= self._qp.max_inline,
            ),
        )

    def _refresh_credits(self) -> None:
        (consumed,) = struct.unpack(">Q", self._credit_region.read_local(0, 8))
        # The credit word lives in client memory the *server* writes -- but
        # any holder of the rkey could forge it.  Sanitize before applying:
        # never above what we actually produced, never regressing.  A
        # forged credit can then at worst delay us, not make us overwrite
        # unprocessed slots.
        consumed = min(consumed, self._producer._sequence)
        if consumed > self._producer._consumed:
            self._producer.credit_update(consumed)

    def _submit(self, request: Request) -> None:
        frame = request.encode()
        self._refresh_credits()
        try:
            self._producer.produce(frame)
        except CapacityError:
            # Ring full: let the server drain, pick up fresh credits, retry.
            if self._pump is not None:
                self._pump()
            elif self.response_timeout_s:
                deadline = time.monotonic() + self.response_timeout_s
                self._refresh_credits()
                while (
                    self._producer.free_slots <= 0
                    and time.monotonic() < deadline
                ):
                    time.sleep(5e-6)
                    self._refresh_credits()
            self._refresh_credits()
            self._producer.produce(frame)
        hook = self.submit_fault_hook
        if hook is not None and hook(frame):
            try:
                self._producer.produce(frame)  # duplicated in-flight frame
            except CapacityError:
                pass  # ring full: the duplicate is simply lost

    def drain_replies(self) -> int:
        """Discard every queued reply frame; returns the number dropped.

        Error-path resync for batched callers (e.g. the shard router):
        when a pipelined batch aborts mid-window, replies for the already
        submitted remainder are still in flight, and the next operation
        would otherwise read one of them and fail the oid match.
        """
        if self._pump is not None:
            self._pump()
        dropped = 0
        while True:
            frame = self._reply_consumer.poll_one()
            if frame is None:
                break
            dropped += 1
        return dropped

    def _await_response(self) -> Response:
        if self._pump is not None:
            self._pump()
        frame = self._reply_consumer.poll_one()
        if frame is None and self._pump is None and self.response_timeout_s:
            # Threaded-server mode: a trusted thread elsewhere fills the
            # reply ring; spin until it does (or the deadline passes).
            deadline = time.monotonic() + self.response_timeout_s
            while frame is None and time.monotonic() < deadline:
                time.sleep(5e-6)
                frame = self._reply_consumer.poll_one()
        if frame is None:
            raise OperationTimeoutError(
                "no response available; pump the server (process_pending) "
                "when auto_pump is disabled -- or the request/reply was "
                "lost in transit"
            )
        return Response.decode(frame)

    def _open_control(self, response: Response) -> ResponseControl:
        """Authenticate and decode a reply's sealed control segment."""
        blob = self.provider.transport_open(
            self.session, response.sealed_control, aad=reply_aad(self.client_id)
        )
        return ResponseControl.decode(blob)

    def _open_response(
        self, response: Response, expected_oid: Optional[int] = None
    ) -> ResponseControl:
        control = self._open_control(response)
        if expected_oid is None:
            expected_oid = self._oid
        if control.oid != expected_oid:
            raise ProtocolError(
                f"response oid {control.oid} does not match request "
                f"{expected_oid}"
            )
        if control.status is Status.REPLAY:
            raise ReplayError(f"server rejected oid {self._oid} as a replay")
        return control

    def _collect_reply(
        self, expected_oid: int
    ) -> "tuple[Response, ResponseControl]":
        """Await the reply for ``expected_oid``.

        In retry mode, replies for *earlier* oids may still be queued --
        the cached ack a duplicate triggered, or the late reply of an
        operation that was already resolved by a retry.  Those are
        skipped; a reply from the *future* is still a protocol violation.
        """
        while True:
            response = self._await_response()
            with self.obs.tracer.stage("client.open_response"):
                control = self._open_control(response)
            if control.oid < expected_oid and self.max_retries > 0:
                continue
            if control.oid != expected_oid:
                raise ProtocolError(
                    f"response oid {control.oid} does not match request "
                    f"{expected_oid}"
                )
            if control.status is Status.REPLAY:
                raise ReplayError(
                    f"server rejected oid {expected_oid} as a replay"
                )
            return response, control

    # -- retry engine ----------------------------------------------------------

    def _backoff(self, attempt: int) -> None:
        if self.retry_backoff_s <= 0:
            return
        delay = min(
            self.retry_backoff_cap_s,
            self.retry_backoff_s * (2 ** (attempt - 1)),
        )
        time.sleep(delay)

    def _count_retry(self, op: str) -> None:
        self.retries += 1
        self.obs.hop(
            "retry",
            shard=self._server.shard_name or self._server.HOST_NAME,
            op=op,
        )
        self.obs.registry.counter(
            "retries_total", "client operation retries", {"op": op}
        ).inc()

    def _resync_after_failure(self, control: ControlData) -> None:
        """Re-align the local oid counter after an operation failed for good.

        ``_next_control`` consumed an oid the server may never have seen;
        leaving ``_oid`` ahead of the replay expectation would make every
        subsequent operation a permanent oid mismatch.  Ask the filter
        where it stands and step back so the next operation re-uses the
        orphaned oid.  When the server is unreachable the later
        :meth:`reconnect` performs the same resync.
        """
        try:
            expected = self._server.replay_expected(self.client_id)
        except PrecursorError:
            return
        if expected <= control.oid and self._oid == control.oid:
            self._oid = expected - 1

    def _exchange(self, control: ControlData, payload=None, op: str = "op"):
        """Submit one sealed request and collect its reply, with retries.

        Returns ``(response, response_control)`` -- or the :data:`_APPLIED`
        sentinel when a retry learned from the replay filter that the
        original attempt was applied but its reply is unrecoverable.

        The retry loop is replay-safe by construction: every attempt
        re-seals the *same* control data (same oid, same one-time key) and
        re-ships the *same* ciphertext, so the server either applies it
        once or recognises the duplicate and re-sends the cached ack.
        Each retry performs a full :meth:`reconnect` -- a lost ring write
        desynchronises the ring sequence, so fresh rings (and a fresh QP,
        and re-attestation) are the uniform recovery action.
        """
        attempt = 0
        while True:
            try:
                with self.obs.tracer.stage("client.seal_request"):
                    request = self._seal_control(control)
                    if payload is not None:
                        request = Request(
                            client_id=request.client_id,
                            sealed_control=request.sealed_control,
                            payload=payload,
                            reply_credit=request.reply_credit,
                        )
                with self.obs.tracer.stage("client.rdma_write"):
                    self._submit(request)
                return self._collect_reply(control.oid)
            except (
                AccessError,
                OperationTimeoutError,
                AuthenticationError,
                ProtocolError,
            ):
                # Transport-shaped failures: lost/duplicated/corrupted
                # frame or a dead QP.  Retry under the same oid.
                if attempt >= self.max_retries:
                    self._resync_after_failure(control)
                    raise
            except ReplayError:
                if attempt == 0:
                    raise
                # A retried request hit the replay filter without a cached
                # reply: the original WAS applied (only this client can
                # advance its oid), the ack is simply gone -- e.g. the
                # server crash-restarted in between.
                return _APPLIED
            attempt += 1
            self._count_retry(op)
            self._backoff(attempt)
            expected = self.reconnect()
            if expected is not None and expected < control.oid:
                # The filter has not advanced past an *earlier* oid: the
                # monotonic expectation proves none of the intervening
                # requests were applied (sealed checkpoints cannot roll it
                # back).  Re-key this attempt at the expected oid so the
                # two sides resume in lockstep.
                control = dataclasses.replace(control, oid=expected)
                self._oid = expected

    def _next_control(
        self, opcode: OpCode, key: bytes, k_operation=None, value=None
    ) -> ControlData:
        self._oid += 1
        return ControlData(opcode, self._oid, key, k_operation, value)

    def _seal_control(self, control: ControlData) -> Request:
        sealed = self.provider.transport_seal(
            self.session, control.encode(), aad=request_aad(self.client_id)
        )
        return Request(
            client_id=self.client_id,
            sealed_control=sealed,
            reply_credit=self._reply_consumer.consumed,
        )

    # -- tracing ---------------------------------------------------------------

    def _start_trace(self, op: str) -> Optional[Trace]:
        """Begin an end-to-end span trace for one operation.

        Returns None when tracing is disabled or a trace is already active
        (batched operations interleave submissions and replies, so only
        single-key operations are traced per-op).
        """
        if not self._trace_ops:
            return None
        tracer = self.obs.tracer
        if tracer.current is not None:
            return None
        return tracer.start(op, client_id=self.client_id)

    # -- the payload scheme: the two steps a variant overrides ---------------

    def _put_requests(self, items) -> list:
        """The PUT-request step: ``(control, payload)`` per ``(key, value)``.

        Precursor draws a fresh one-time key per value, encrypts and MACs
        the value under it (Algorithm 1, lines 2-4), and ships the
        ciphertext+MAC as the untrusted payload beside a control segment
        carrying the key.  Oids are drawn in item order.
        """
        k_operations = [self.keygen.operation_key() for _item in items]
        payloads = self.provider.payload_encrypt_many(
            [
                (k_operation, value)
                for k_operation, (_key, value) in zip(k_operations, items)
            ]
        )
        return [
            (self._next_control(OpCode.PUT, key, k_operation), payload)
            for k_operation, (key, _value), payload in zip(
                k_operations, items, payloads
            )
        ]

    def _get_values(self, replies, basis=None) -> Tuple[list, list]:
        """The GET-value step: ``(values, records)`` of OK replies, in order.

        ``values[i]`` is the value ``replies[i]`` carries, or None where
        it fails verification; ``records[i]`` is the basis it was verified
        under.  Raises :class:`ProtocolError` at a reply without the
        scheme's value material.

        Precursor verifies each payload's MAC under the one-time key the
        enclave released, then decrypts (paper §3.7, "Query data"); the
        record is that key and the payload as verified.  ``basis``, for
        one reply, is an earlier verified read or acked write of its key
        (a :class:`~repro.cache.CacheEntry`): a reply whose one-time key,
        ciphertext and effective MAC all equal it byte for byte returns
        the basis value without payload crypto, since the check is
        deterministic and the basis holds its result on these bytes.
        """
        records = []
        for response, control in replies:
            if response.payload is None or control.k_operation is None:
                raise ProtocolError(
                    "GET response missing payload or key material"
                )
            payload = response.payload
            if control.mac is not None:
                # Strict-integrity mode (§3.9): the MAC bound inside the
                # sealed channel overrides whatever sits in untrusted memory.
                payload = EncryptedPayload(
                    ciphertext=payload.ciphertext, mac=control.mac
                )
            records.append((control.k_operation, payload))
        if basis is not None:
            ((k_operation, payload),) = records
            if (
                hmac.compare_digest(k_operation, basis.k_operation)
                and payload.ciphertext == basis.ciphertext
                and payload.mac == basis.mac
            ):
                self.unchanged_reads += 1
                return [basis.value], records
        return self.provider.payload_decrypt_many(records), records

    # -- key-value API --------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> bytes:
        """Store ``value`` under ``key`` (Algorithm 1).

        Generates a fresh one-time key, encrypts and MACs the value
        client-side, and ships ciphertext+MAC as the untrusted payload next
        to the sealed control data.  Returns the payload MAC -- the
        client-held freshness token for this acknowledged write (a retry
        re-ships the identical ciphertext, so the MAC survives the retry
        engine; see :mod:`repro.replica.freshness`).
        """
        self._check_key(key)
        trace = self._start_trace("put")
        try:
            with self.obs.tracer.stage("client.encrypt_payload"):
                ((control, payload),) = self._put_requests([(key, value)])
            self.operations += 1
            result = self._exchange(control, payload=payload, op="put")
            if result is not _APPLIED:
                _response, control_resp = result
                if control_resp.status is not Status.OK:
                    raise PrecursorError(
                        f"put failed: {control_resp.status.name}"
                    )
        except BaseException:
            if trace is not None:
                trace.abort()
            raise
        # A value that travelled sealed leaves no client-side basis or token.
        self.last_payload = payload and (control.k_operation, payload)
        if trace is not None:
            trace.finish()
        return payload and payload.mac

    def get(self, key: bytes, basis=None) -> bytes:
        """Fetch and verify the value stored under ``key``.

        The payload arrives as raw ciphertext from untrusted memory; the
        one-time key arrives inside the sealed control data.  The client
        recomputes the MAC and decrypts -- any tampering with the server's
        untrusted memory raises :class:`IntegrityError` here.

        ``basis`` is an earlier verified read or acked write of ``key``
        (a :class:`~repro.cache.CacheEntry`); a reply equal to it byte for
        byte returns its value without payload crypto
        (:meth:`_get_values`).
        """
        self._check_key(key)
        trace = self._start_trace("get")
        try:
            fresh_issues = 0
            while True:
                control = self._next_control(OpCode.GET, key)
                self.operations += 1
                result = self._exchange(control, op="get")
                if result is _APPLIED:
                    # The earlier attempt was consumed server-side but its
                    # reply is unrecoverable.  GET has no side effects:
                    # simply re-issue it under a fresh oid.
                    if fresh_issues >= max(1, self.max_retries):
                        raise OperationTimeoutError(
                            f"get {key!r}: reply unrecoverable after "
                            f"{fresh_issues} fresh re-issues"
                        )
                    fresh_issues += 1
                    self._count_retry("get")
                    continue
                response, control_resp = result
                break
            if control_resp.status is Status.NOT_FOUND:
                raise KeyNotFoundError(key)
            if control_resp.status is not Status.OK:
                raise PrecursorError(f"get failed: {control_resp.status.name}")
            with self.obs.tracer.stage("client.verify_decrypt"):
                (value,), (record,) = self._get_values(
                    [(response, control_resp)], basis
                )
            if value is None:
                self.integrity_failures += 1
                raise IntegrityError(_MAC_MISMATCH)
            # Routers compare the verified MAC against the last acked
            # write to catch stale failover state, and cache the record.
            self.last_payload = record
        except BaseException:
            if trace is not None:
                trace.abort()
            raise
        if trace is not None:
            trace.finish()
        return value

    def delete(self, key: bytes) -> None:
        """Remove ``key``; raises :class:`KeyNotFoundError` when absent."""
        self._check_key(key)
        trace = self._start_trace("delete")
        try:
            control = self._next_control(OpCode.DELETE, key)
            self.operations += 1
            result = self._exchange(control, op="delete")
            if result is not _APPLIED:
                _response, control_resp = result
                if control_resp.status is Status.NOT_FOUND:
                    raise KeyNotFoundError(key)
                if control_resp.status is not Status.OK:
                    raise PrecursorError(
                        f"delete failed: {control_resp.status.name}"
                    )
            # _APPLIED: the delete was consumed server-side and only the
            # ack was lost -- the key is gone either way, report success.
        except BaseException:
            if trace is not None:
                trace.abort()
            raise
        if trace is not None:
            trace.finish()

    # -- batched operations ----------------------------------------------------

    def _batch_window(self) -> int:
        """Outstanding requests per pipelined batch.

        Bounded to half the ring depth so neither the request ring nor the
        reply ring (both ``slot_count`` deep) can overflow while replies
        are still unconsumed.
        """
        return max(1, self._layout.slot_count // 2)

    def _submit_window(self, entries) -> None:
        """Seal ``(control, payload)`` pairs as one batch; submit in order.

        Session IVs are drawn in submission order and the reply credit
        cannot move while nothing is polled, so every frame is
        byte-identical to sealing and submitting one request at a time.
        """
        aad = request_aad(self.client_id)
        sealed = self.provider.transport_seal_many(
            self.session, [(control.encode(), aad) for control, _pl in entries]
        )
        credit = self._reply_consumer.consumed
        for (control, payload), message in zip(entries, sealed):
            try:
                self._submit(
                    Request(
                        client_id=self.client_id,
                        sealed_control=message,
                        payload=payload,
                        reply_credit=credit,
                    )
                )
            except BaseException:
                # As if this frame had been the last one built: the oids
                # of the unsent rest are handed back.
                self._oid = control.oid
                raise

    def _collect_window(self, entries):
        """Await a window's replies, then authenticate them in one batch.

        Returns ``(replies, error)``: ``(response, control)`` for the
        leading replies that opened and answered their oid, and the
        exception that cut the window short (``None`` if nothing did).
        The first failure in submission order wins, as it would
        collecting one reply at a time.
        """
        oids = [control.oid for control, _payload in entries]
        responses = []
        error = None
        for _oid in oids:
            try:
                responses.append(self._await_response())
            except PrecursorError as exc:
                error = exc
                break
        aad = reply_aad(self.client_id)
        blobs = self.provider.transport_open_many(
            self.session,
            [(response.sealed_control, aad) for response in responses],
        )
        replies = []
        for oid, response, blob in zip(oids, responses, blobs):
            try:
                if blob is None:
                    raise AuthenticationError("authentication tag mismatch")
                control = ResponseControl.decode(blob)
                if control.oid != oid:
                    raise ProtocolError(
                        f"response oid {control.oid} does not match request "
                        f"{oid}"
                    )
                if control.status is Status.REPLAY:
                    raise ReplayError(f"server rejected oid {oid} as a replay")
            except PrecursorError as exc:
                return replies, exc
            replies.append((response, control))
        return replies, error

    def put_many(self, items) -> int:
        """Pipeline several puts: submit a window of frames, then collect.

        Amortises server pumping and exploits the ring's depth (with
        selective signaling, batches are how one-sided designs reach their
        throughput).  Each window's payloads are encrypted and MACed, its
        control segments sealed, and its replies opened as one batch
        each.  Returns the number of stored items; raises on the first
        failed reply.
        """
        items = list(items)
        for key, _value in items:
            self._check_key(key)
        window = self._batch_window()
        stored = 0
        for start in range(0, len(items), window):
            entries = self._put_requests(items[start : start + window])
            self._submit_window(entries)
            self.operations += len(entries)
            replies, error = self._collect_window(entries)
            for _response, control in replies:
                if control.status is not Status.OK:
                    raise PrecursorError(
                        f"batched put failed at oid {control.oid}: "
                        f"{control.status.name}"
                    )
                stored += 1
            if error is not None:
                raise error
        return stored

    def get_many(self, keys) -> list:
        """Pipeline several gets; returns values aligned with ``keys``.

        Each window's control segments are sealed, its replies opened
        and its payload MACs verified as one batch each.  Raises on the
        first failure in key order: :class:`KeyNotFoundError` for a
        missing key, :class:`IntegrityError` for a payload that fails
        verification (counted in :attr:`integrity_failures`).
        """
        keys = list(keys)
        for key in keys:
            self._check_key(key)
        window = self._batch_window()
        values = []
        for start in range(0, len(keys), window):
            chunk = keys[start : start + window]
            entries = [
                (self._next_control(OpCode.GET, key), None) for key in chunk
            ]
            self._submit_window(entries)
            self.operations += len(entries)
            replies, error = self._collect_window(entries)
            # Walk in key order up to the first failure; the values
            # before it are verified together.
            found = []
            for (response, control), key in zip(replies, chunk):
                if control.status is Status.NOT_FOUND:
                    error = KeyNotFoundError(key)
                    break
                if control.status is not Status.OK:
                    error = PrecursorError(
                        f"batched get failed: {control.status.name}"
                    )
                    break
                found.append((response, control))
            opened, _records = self._get_values(found)
            failures = opened.count(None)
            if failures:
                self.integrity_failures += failures
                raise IntegrityError(_MAC_MISMATCH)
            if error is not None:
                raise error
            values.extend(opened)
        return values

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or not key:
            raise ProtocolError("keys must be non-empty bytes")
