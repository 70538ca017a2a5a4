"""The server's request pipeline: every ring drains in cycles of K frames.

A trusted thread enters the enclave once, through the ``start_polling``
ecall, and then polls the client rings from inside it (paper §3.8), so
no request crosses the enclave boundary.  :class:`BatchPipeline` is that
polling loop and the only way a
:class:`~repro.core.server.PrecursorServer` drains a ring.  One *cycle*
over one client's ring runs five phases:

1. **drain** -- poll up to K ready frames from the request ring;
2. **parse** -- decode the untrusted framing, validate the client id and
   apply reply-ring credits (a malformed frame is dropped and counted);
3. **open** -- authenticate every sealed control segment with one fused
   :meth:`~repro.crypto.provider.CryptoProvider.transport_open_many`
   call.  A frame that fails authentication is dropped *alone*: its
   batch-mates proceed;
4. **dispatch** -- run each authenticated request through
   :meth:`PrecursorServer._process_control_blob` (replay filter,
   duplicate-reply cache, table update, replication hook), with replies
   *staged*;
5. **seal + coalesced reply** -- seal the staged replies in dispatch
   order with one fused call (session IVs are drawn in dispatch order)
   and write them through one gather work request per cycle.

Equivalence contract: K=1 reproduces the pre-pipeline serial server
byte for byte (pinned digests) -- same frame order, same per-message
seals, same single-frame reply writes (``produce_many`` falls back to
``produce``), same credit write, fault-injection judgements included --
and every K > 1 is observably identical to it.
``tests/test_batch_equivalence.py`` holds store digests, raw reply-ring
bytes and duplicate-reply-cache contents to the pinned serial digests at
every tested K.
"""

from __future__ import annotations

import struct

from repro.core.protocol import Request, Response, reply_aad, request_aad
from repro.errors import CapacityError, ConfigurationError, ProtocolError
from repro.obs.span import run_stage

__all__ = ["BatchPipeline"]

_CREDIT = struct.Struct(">Q")


class _Cycle:
    """One drain cycle's private state, handed through the dispatch.

    ``trace`` is the calling thread's current trace (or None), read
    once per cycle: a cycle runs on one thread, and nothing it calls
    starts or finishes a trace, so a frame pays for no tracer lookup
    when nothing is traced, and records its stages and hops exactly
    when ``trace`` is set.  ``replies`` stages
    ``(channel, control, payload)`` per reply for the seal phase.  The
    state belongs to the cycle's own call, so trusted threads draining
    other rings at the same time
    (:class:`~repro.core.threading.ServerThreadPool`) never see it.
    """

    __slots__ = ("trace", "replies")

    def __init__(self, trace):
        self.trace = trace
        self.replies = []


class BatchPipeline:
    """The trusted polling engine of a :class:`PrecursorServer`.

    Owns no protocol state of its own: replay filters, duplicate-reply
    caches, tenant grants and replication hooks all live in the server.
    The pipeline only decides *when* the crypto and the reply writes
    happen -- grouped across the drained frame set.
    """

    def __init__(self, server, k: int):
        self.server = server
        self.k = k
        shard = (
            {"shard": server.shard_name} if server.shard_name is not None else {}
        )
        registry = server.obs.registry
        self._obs_batch_size = registry.histogram(
            "server_batch_size", "frames drained per cycle", shard or None
        )
        self._obs_cycles = registry.counter(
            "server_batch_cycles_total",
            "drain cycles run by the pipeline",
            shard or None,
        )
        self._obs_messages = registry.counter(
            "sgx_batched_messages_total",
            "control messages drained inside the enclave",
            {"enclave": server.enclave.name, **shard},
        )

    def process_client(self, client_id: int, batch: int = 64) -> int:
        """Drain one client's ring: the unit of work of a trusted thread.

        Runs cycles of up to K frames until the ring is empty or
        ``batch`` frames were handled, then pushes one credit update.
        """
        server = self.server
        server._check_alive()
        channel = server._channel(client_id)
        if channel.revoked:
            return 0
        consumer = channel.request_consumer
        k = self.k
        handled = 0
        while handled < batch:
            frames = consumer.poll(min(k, batch - handled))
            if not frames:
                break
            self._run_cycle(channel, frames)
            handled += len(frames)
        credit = consumer.credits_due()
        if credit is not None:
            server._rdma_write(
                channel, channel.credit_rkey, 0, _CREDIT.pack(credit)
            )
        return handled

    def _run_cycle(self, channel, frames) -> None:
        """Parse, open, dispatch and seal one drained frame set."""
        server = self.server
        obs = server.obs
        stats = server.stats
        rejects = server._obs_rejects
        count = len(frames)
        self._obs_cycles.inc()
        self._obs_batch_size.record(count)
        self._obs_messages.inc(count)
        cycle = _Cycle(obs.tracer.current)

        # Parse: decode the untrusted framing and apply credits.
        client_id = channel.client_id
        credit_update = channel.reply_producer.credit_update
        aad = request_aad(client_id)
        requests = []
        live = []  # (sealed control, aad) of the frames that parsed
        for frame in frames:
            try:
                request = Request.decode(frame)
                if request.client_id != client_id:
                    # A client cannot speak for another: its frames
                    # arrive only in its own ring.
                    raise ProtocolError("client id does not match its ring")
                # The credit rides outside the sealed segment, so a
                # corrupted frame can carry an impossible value.
                credit_update(request.reply_credit)
            except (ProtocolError, ConfigurationError):
                stats.protocol_errors += 1
                rejects.inc()
                request = None
            else:
                live.append((request.sealed_control, aad))
            requests.append(request)

        # Open: one fused call authenticates every surviving segment.
        if live:
            opened = iter(
                run_stage(
                    cycle.trace,
                    "server.unseal_control",
                    server.provider.transport_open_many,
                    server._sessions[client_id],
                    live,
                )
            )
            if client_id not in server._reservoirs_charged:
                server._charge_reservoirs(client_id)

        # Dispatch in frame order, replies staged.  Every drained frame
        # -- dropped ones included -- gets its service hook call and its
        # server_handle_ns sample (per-frame dispatch time), so
        # modeled-latency harnesses observe one event per frame.
        now_ns = obs.tracer.clock.now_ns
        handle_ns = server._obs_handle_ns
        dispatch = server._process_control_blob
        for request in requests:
            entered_ns = now_ns()
            try:
                if request is not None:
                    blob = next(opened)
                    if blob is None:
                        # Failed authentication: dropped alone, its
                        # batch-mates proceed.
                        stats.auth_failures += 1
                        rejects.inc()
                    else:
                        dispatch(channel, blob, request, cycle)
                hook = server.service_hook
                if hook is not None:
                    hook()
            finally:
                handle_ns.record(max(0, now_ns() - entered_ns))
        self._reply_phase(channel, cycle.replies, cycle.trace)

    def _reply_phase(self, cycle_channel, staged, trace=None) -> None:
        """Seal staged replies in dispatch order; coalesce the writes.

        Seal keys and reply rings are per-channel state, so both are
        keyed off each staged entry's *own* channel, never the cycle
        argument: dispatch always replies on the cycle channel today,
        but an entry staged for a different channel must never be sealed
        under the wrong session or land in the wrong ring.  ``trace`` is
        the cycle's trace, which times the seal and the write.
        """
        del cycle_channel  # sealing is keyed per staged entry, see above
        server = self.server
        # Group by entry channel, preserving dispatch order within each
        # group and first-appearance order across groups.
        groups = {}
        for entry in staged:
            groups.setdefault(id(entry[0]), []).append(entry)
        for entries in groups.values():
            channel = entries[0][0]
            aad = reply_aad(channel.client_id)
            sealed = run_stage(
                trace,
                "server.seal_reply",
                server.provider.transport_seal_many,
                server._sessions[channel.client_id],
                [(control.encode(), aad) for _ch, control, _pl in entries],
            )
            encoded = [
                Response(blob, payload).encode()
                for (_ch, _control, payload), blob in zip(entries, sealed)
            ]
            run_stage(
                trace,
                "server.reply_write",
                self._write_replies,
                channel.reply_producer,
                encoded,
            )

    @staticmethod
    def _write_replies(producer, encoded) -> None:
        """One gather write of a group's replies, or the serial fallback."""
        try:
            producer.produce_many(encoded)
        except CapacityError:
            # produce_many is all-or-nothing and raises before writing
            # anything, so replay the group per frame: the leading
            # replies that fit are delivered and the failure surfaces on
            # the frame that did not fit.
            for blob in encoded:
                producer.produce(blob)
