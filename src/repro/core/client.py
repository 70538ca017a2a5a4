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
from repro.crypto.keys import KeyGenerator
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
from repro.obs import ObsContext
from repro.obs.span import run_stage
from repro.rdma.memory import AccessFlags
from repro.rdma.verbs import WorkRequest
from repro.sgx.attestation import attest_and_establish_session

__all__ = ["PrecursorClient", "allocate_client_id"]

_client_ids = itertools.count(1)

_MAC_MISMATCH = "payload MAC mismatch: untrusted server memory was modified"

#: Failures a window retries under the same oids: a lost, duplicated or
#: corrupted frame, or a dead QP.
_TRANSPORT_FAILURES = (
    AccessError, OperationTimeoutError, AuthenticationError, ProtocolError
)


def _first_failure(outcomes, error):
    """The exception of the first outcome, in order, that is not a result.

    Each outcome is a result, an exception, or None where ``error``
    stopped the batch first.  Returns None when every outcome is a result.
    """
    for outcome in outcomes:
        if outcome is None:
            return error
        if isinstance(outcome, BaseException):
            return outcome
    return None


def _refusal(op: str, key: bytes, control) -> Optional[PrecursorError]:
    """The failure a reply's control segment reports, or None when OK."""
    if control is None or control.status is Status.OK:
        return None
    if control.status is Status.NOT_FOUND:
        return KeyNotFoundError(key)
    return PrecursorError(
        f"{op} failed at oid {control.oid}: {control.status.name}"
    )


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
        Retries per operation (default 0: fail fast, the historical
        behaviour).  Every operation runs as a window -- ``put``/``get``/
        ``delete`` as a window of one -- and a window may retry this many
        times in a row without settling a request.  A transport fault or
        reply timeout triggers reconnect-and-resubmit under the
        *same* oids, so the server's replay filter deduplicates a request
        that was already applied -- retried PUTs never double-apply and
        GETs are idempotent (:meth:`_window`, ``docs/FAULTS.md``).
    obs:
        Observability context to trace operations into; defaults to the
        *server's* context so client- and server-side stages of one
        operation land in the same trace (``docs/OBSERVABILITY.md``).
    trace_ops:
        When True (default), every single-key ``get``/``put``/``delete``
        records one trace: its stages end to end and its hops (the
        server's among them).  ``put_many``/``get_many``
        start none; their windows record the client stages into a trace
        that is already current.  Disable for micro-benchmarks that
        cannot afford the few clock reads per operation.
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
    ):
        self.response_timeout_s = response_timeout_s
        self.max_retries = max_retries
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
            self._qp, WorkRequest(data, self._request_rkey, offset)
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
        if self._producer.free_slots <= 0:
            # Credits only ever free slots, so the credit word matters
            # only when the producer's last view shows the ring full.
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

        Error-path resync for callers that staged frames outside a
        window: replies still queued would otherwise meet the next
        window's oid check.
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
        """Authenticate and decode one reply's sealed control segment."""
        blob = self.provider.transport_open(
            self.session, response.sealed_control, aad=reply_aad(self.client_id)
        )
        return ResponseControl.decode(blob)

    # -- retry engine ----------------------------------------------------------

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

    def _next_control(
        self, opcode: OpCode, key: bytes, k_operation=None, value=None
    ) -> ControlData:
        self._oid += 1
        return ControlData(opcode, self._oid, key, k_operation, value)

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

    def _get_values(self, replies, bases=None) -> Tuple[list, list]:
        """The GET-value step: ``(values, records)`` of OK replies, in order.

        ``values[i]`` is the value ``replies[i]`` carries, or None where
        it fails verification; ``records[i]`` is the basis it was verified
        under.  Raises :class:`ProtocolError` at a reply without the
        scheme's value material.

        Precursor verifies each payload's MAC under the one-time key the
        enclave released, then decrypts (paper §3.7, "Query data"); the
        record is that key and the payload as verified.  ``bases`` holds
        one entry per reply (or is None): an earlier verified read or
        acked write of its key (a :class:`~repro.cache.CacheEntry`), or
        None.  A reply whose one-time key, ciphertext and effective MAC
        all equal its basis byte for byte returns the basis value without
        payload crypto, since the check is deterministic and the basis
        holds its result on these bytes.
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
        values = [None] * len(records)
        todo = []
        for i, ((k_operation, payload), basis) in enumerate(
            zip(records, bases or itertools.repeat(None))
        ):
            if (
                basis is not None
                and hmac.compare_digest(k_operation, basis.k_operation)
                and payload.ciphertext == basis.ciphertext
                and payload.mac == basis.mac
            ):
                self.unchanged_reads += 1
                values[i] = basis.value
            else:
                todo.append(i)
        if todo:
            opened = self.provider.payload_decrypt_many(
                [records[i] for i in todo]
            )
            for i, value in zip(todo, opened):
                values[i] = value
        return values, records

    # -- the request path: windows ---------------------------------------------

    def _batch_window(self) -> int:
        """Outstanding requests per window.

        Bounded to half the ring depth so neither the request ring nor the
        reply ring (both ``slot_count`` deep) can overflow while replies
        are still unconsumed.
        """
        return max(1, self._layout.slot_count // 2)

    def _seal(self, entries) -> list:
        """Seal ``(control, payload)`` pairs into requests as one batch.

        Session IVs are drawn in order and the reply credit cannot move
        while nothing is polled, so every request is byte-identical to
        sealing one at a time.
        """
        aad = request_aad(self.client_id)
        sealed = self.provider.transport_seal_many(
            self.session, [(control.encode(), aad) for control, _pl in entries]
        )
        credit = self._reply_consumer.consumed
        return [
            Request(
                client_id=self.client_id,
                sealed_control=message,
                payload=payload,
                reply_credit=credit,
            )
            for (_control, payload), message in zip(entries, sealed)
        ]

    def _seal_control(self, control: ControlData) -> Request:
        """One control segment sealed as a window of one (no payload)."""
        (request,) = self._seal([(control, None)])
        return request

    def _send(self, entries, trace=None) -> None:
        """The submit half of a window: seal ``entries``, write them in order.

        ``trace`` is the window's trace, if any, which times both steps.
        """
        requests = run_stage(trace, "client.seal_request", self._seal, entries)
        run_stage(trace, "client.rdma_write", self._submit_all, requests)

    def _submit_all(self, requests) -> None:
        """Write sealed ``requests`` into the server's ring, in order."""
        for request in requests:
            self._submit(request)

    def _collect(self, entries, replies: list, resent: bool = False) -> None:
        """The collect half: await ``entries``' replies, open them in one pass.

        Appends to ``replies``, in submission order, ``(response,
        control)`` per answered entry -- or ``(None, None)`` for a
        ``resent`` entry the server refused as a replay: it was applied
        and its reply is gone.  In retry mode, replies of *earlier* oids
        (the cached ack a duplicate triggered, or the late reply of an
        entry a retry already settled) are skipped; a reply from the
        future is a protocol violation.  Raises at the first failure in
        submission order, with ``replies`` holding what came before it.
        """
        aad = reply_aad(self.client_id)
        trace = self.obs.tracer.current
        while len(replies) < len(entries):
            responses, error, blobs = [], None, []
            for _ in range(len(entries) - len(replies)):
                try:
                    responses.append(self._await_response())
                except PrecursorError as exc:
                    error = exc
                    break
            if responses:
                blobs = run_stage(
                    trace,
                    "client.open_response",
                    self.provider.transport_open_many,
                    self.session,
                    [(response.sealed_control, aad) for response in responses],
                )
            for response, blob in zip(responses, blobs):
                if blob is None:
                    raise AuthenticationError("authentication tag mismatch")
                control = ResponseControl.decode(blob)
                oid = entries[len(replies)][0].oid
                if control.oid < oid and self.max_retries > 0:
                    continue
                if control.oid != oid:
                    raise ProtocolError(
                        f"response oid {control.oid} does not match request "
                        f"{oid}"
                    )
                if control.status is not Status.REPLAY:
                    replies.append((response, control))
                elif resent:
                    replies.append((None, None))
                else:
                    raise ReplayError(f"server rejected oid {oid} as a replay")
            if error is not None:
                raise error

    def _window(self, entries, op: str, trace=None):
        """Run one window of ``(control, payload)`` requests to completion.

        Returns ``(replies, error)``: per entry its ``(response,
        control)`` reply, ``(None, None)`` for a put or delete the replay
        filter proves applied whose reply is gone, or None where
        ``error`` stopped the window first.  ``entries`` is updated in
        place when a request is re-keyed or re-issued.

        A transport-shaped failure (a lost, duplicated or corrupted
        frame, a dead QP) with retries left reconnects -- fresh rings,
        re-attestation -- and reads the replay filter's expected oid E.
        The filter accepts oids strictly in order, so each unanswered
        entry is settled by where it stands against E:

        - oid < E-1 was applied and its reply is gone.  A put or delete
          is done; a get, having no side effect, is re-issued under a
          fresh oid;
        - oid E-1 is re-sealed from the same control and payload (same
          digest), so the server re-sends its cached reply;
        - oid >= E is resubmitted, re-keyed from E when E is lower.

        A retry thus re-ships the same bytes under the same oids, and the
        server applies each request at most once.  ``max_retries`` bounds
        the consecutive retries that settle nothing.  ``trace`` is the
        window's trace, if any, which times its client stages.

        A first attempt that raises nothing answers every entry, so only
        a failed one enters the retry engine, :meth:`_retry`.
        """
        got = []
        try:
            self._send(entries, trace)
            self._collect(entries, got)
        except PrecursorError as exc:
            return self._retry(entries, op, trace, got, exc)
        return got, None

    def _retry(self, entries, op: str, trace, got: list, error):
        """:meth:`_window` after a first attempt that collected ``got``
        and then raised ``error``: the settlement rules, one attempt per
        pass, until every entry settles or ``error`` stands."""
        replies = [None] * len(entries)
        reissues = [0] * len(entries)
        pending = list(range(len(entries)))
        attempt = 0
        while True:
            stranded = []
            refused = []  # gets refused on a resend: no recoverable reply
            for i, reply in zip(pending, got):
                if reply[0] is None and entries[i][0].opcode is OpCode.GET:
                    refused.append(i)
                else:
                    replies[i] = reply
            pending = pending[len(got) :]
            if got:
                attempt = 0  # the budget bounds retries that settle nothing
            if error is not None:
                if attempt >= self.max_retries or not isinstance(
                    error, _TRANSPORT_FAILURES
                ):
                    break
                attempt += 1
                self._count_retry(op)
                try:
                    expected = self.reconnect()
                except PrecursorError as exc:
                    error = exc
                    break
                error = None
                pending, stranded = self._resume(entries, pending, replies, expected)
            spent = [i for i in refused if reissues[i] >= max(1, self.max_retries)]
            if spent:
                error = OperationTimeoutError(
                    f"get {entries[spent[0]][0].key!r}: reply unrecoverable "
                    f"after {reissues[spent[0]]} fresh re-issues"
                )
                break
            for i in refused:
                reissues[i] += 1
            for i in refused + stranded:
                self._count_retry(op)
                entries[i] = (self._next_control(OpCode.GET, entries[i][0].key), None)
                self.operations += 1
                pending.append(i)
            if not pending:
                break
            got = []
            try:
                batch = [entries[i] for i in pending]
                self._send(batch, trace)
                self._collect(batch, got, resent=attempt > 0)
            except PrecursorError as exc:
                error = exc
        if error is not None:
            # Hand back the oids the server never consumed, so the next
            # window lines up with the filter.
            try:
                expected = self._server.replay_expected(self.client_id)
                self._oid = min(self._oid, expected - 1)
            except PrecursorError:
                pass  # the server is down: the next reconnect resyncs
        return replies, error

    def _resume(self, entries, pending, replies, expected: int):
        """Settle ``pending`` by the filter's expected oid.

        Returns ``(resend, stranded)``: the entries to resubmit, and the
        applied gets whose replies are gone, to re-issue.
        """
        resend = [i for i in pending if entries[i][0].oid >= expected - 1]
        stranded = []
        for i in pending:
            if entries[i][0].oid >= expected - 1:
                continue
            if entries[i][0].opcode is OpCode.GET:
                stranded.append(i)
            else:
                replies[i] = (None, None)  # applied; its reply is gone
        if resend and entries[resend[0]][0].oid > expected:
            # The filter has not advanced past an *earlier* oid: the
            # monotonic expectation proves none of these was applied
            # (sealed checkpoints cannot roll it back).  Re-key them from
            # the expected oid so the two sides resume in lockstep.
            for offset, i in enumerate(resend):
                control, payload = entries[i]
                entries[i] = (control._replace(oid=expected + offset), payload)
            self._oid = expected + len(resend) - 1
        return resend, stranded

    # -- per-key outcomes of windows -------------------------------------------

    def _puts(self, items):
        """PUT windows over ``(key, value)`` items: ``(outcomes, error)``.

        ``outcomes[i]`` is the ``(k_operation, payload)`` an acked put
        stored (``(None, None)`` when the value travelled sealed), a
        :class:`PrecursorError` for a put the server refused, or None
        where ``error`` stopped the batch first.  A window with a refused
        put ends the batch.
        """
        outcomes = [None] * len(items)
        window = self._batch_window()
        trace = self.obs.tracer.current
        for start in range(0, len(items), window):
            entries = run_stage(
                trace,
                "client.encrypt_payload",
                self._put_requests,
                items[start : start + window],
            )
            self.operations += len(entries)
            replies, error = self._window(entries, "put", trace)
            failed = error is not None
            for offset, ((control, payload), reply) in enumerate(
                zip(entries, replies)
            ):
                if reply is None:
                    break
                refused = _refusal("put", control.key, reply[1])
                failed = failed or refused is not None
                outcomes[start + offset] = refused or (control.k_operation, payload)
            if failed:
                return outcomes, error
        return outcomes, None

    def _gets(self, keys, bases=None):
        """GET windows over ``keys``: ``(outcomes, error)``.

        ``outcomes[i]`` is ``(value, record)`` for a verified value (see
        :meth:`_get_values`; ``bases`` aligns with ``keys``), the
        exception of a key that failed -- :class:`KeyNotFoundError`, a
        failed status, or an :class:`IntegrityError` counted in
        :attr:`integrity_failures` -- or None where the batch stopped
        first.  A window's values before its first failed status are
        verified together and nothing after it is; a window with any
        failure ends the batch.
        """
        outcomes = [None] * len(keys)
        window = self._batch_window()
        trace = self.obs.tracer.current
        for start in range(0, len(keys), window):
            chunk = keys[start : start + window]
            entries = [
                (self._next_control(OpCode.GET, key), None) for key in chunk
            ]
            self.operations += len(entries)
            replies, error = self._window(entries, "get", trace)
            found, failure = [], None
            for reply, key in zip(replies, chunk):
                failure = reply and _refusal("get", key, reply[1])
                if reply is None or failure is not None:
                    outcomes[start + len(found)] = failure
                    break
                found.append(reply)
            if found:
                values, records = run_stage(
                    trace,
                    "client.verify_decrypt",
                    self._get_values,
                    found,
                    bases and bases[start : start + len(found)],
                )
                for offset, (value, record) in enumerate(zip(values, records)):
                    if value is None:
                        self.integrity_failures += 1
                        failure = IntegrityError(_MAC_MISMATCH)
                        outcomes[start + offset] = failure
                    else:
                        outcomes[start + offset] = (value, record)
            if error is not None or failure is not None:
                return outcomes, error
        return outcomes, None

    def _delete(self, key: bytes):
        """A DELETE window of one: ``([outcome], error)`` as :meth:`_puts`."""
        control = self._next_control(OpCode.DELETE, key)
        self.operations += 1
        (reply,), error = self._window(
            [(control, None)], "delete", self.obs.tracer.current
        )
        # (None, None): applied with only the ack lost -- the key is gone
        # either way.
        return [reply and _refusal("delete", key, reply[1]) or reply], error

    def _run(self, op: Optional[str], batch, *args) -> list:
        """``batch(*args)``'s outcomes, raising its first failure in order.

        ``op`` names a single-key operation, traced end to end when
        tracing is on and no trace is active (a failure retires the
        record with its ``error:`` status); a batch passes None, and
        its windows record their stages into whatever trace is active.
        """
        tracer = self.obs.tracer
        if op is not None and self._trace_ops and tracer.current is None:
            with tracer.start(op, client_id=self.client_id):
                return self._run(None, batch, *args)
        outcomes, error = batch(*args)
        failure = _first_failure(outcomes, error)
        if failure is not None:
            raise failure
        return outcomes

    # -- key-value API --------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> bytes:
        """Store ``value`` under ``key`` (Algorithm 1): a window of one.

        Generates a fresh one-time key, encrypts and MACs the value
        client-side, and ships ciphertext+MAC as the untrusted payload next
        to the sealed control data.  Returns the payload MAC -- the
        client-held freshness token for this acknowledged write (a retry
        re-ships the identical ciphertext, so the MAC survives the retry
        engine; see :mod:`repro.replica.freshness`).
        """
        self._check_key(key)
        ((_k_operation, payload),) = self._run("put", self._puts, [(key, value)])
        # A value that travelled sealed leaves no client-side token.
        return payload and payload.mac

    def get(self, key: bytes, basis=None) -> bytes:
        """Fetch and verify the value stored under ``key``: a window of one.

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
        ((value, _record),) = self._run("get", self._gets, [key], [basis])
        return value

    def delete(self, key: bytes) -> None:
        """Remove ``key``; raises :class:`KeyNotFoundError` when absent."""
        self._check_key(key)
        self._run("delete", self._delete, key)

    def put_many(self, items) -> int:
        """Pipeline several puts: windows of frames, submitted then collected.

        Amortises server pumping and exploits the ring's depth (with
        selective signaling, batches are how one-sided designs reach their
        throughput).  Each window's payloads are encrypted and MACed, its
        control segments sealed, and its replies opened as one batch
        each, under the retry engine of :meth:`_window`.  Returns the
        number of stored items; raises the first failure in item order.
        A batch with an invalid key is refused before anything is sent.
        """
        items = list(items)
        for key, _value in items:
            self._check_key(key)
        window = self._batch_window()  # hold one window's records at a time
        for start in range(0, len(items), window):
            self._run(None, self._puts, items[start : start + window])
        return len(items)

    def get_many(self, keys) -> list:
        """Pipeline several gets; returns values aligned with ``keys``.

        Each window's control segments are sealed, its replies opened
        and its payload MACs verified as one batch each.  Raises the
        first failure in key order: :class:`KeyNotFoundError` for a
        missing key, :class:`IntegrityError` for a payload that fails
        verification (counted in :attr:`integrity_failures`).
        """
        keys = list(keys)
        for key in keys:
            self._check_key(key)
        window = self._batch_window()  # hold one window's records at a time
        return [
            value
            for start in range(0, len(keys), window)
            for value, _record in self._run(
                None, self._gets, keys[start : start + window]
            )
        ]

    @staticmethod
    def _check_key(key: bytes) -> None:
        if not isinstance(key, (bytes, bytearray)) or not key:
            raise ProtocolError("keys must be non-empty bytes")
