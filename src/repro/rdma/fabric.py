"""The in-memory RDMA fabric: the functional "wire".

The fabric executes posted work requests against real
:class:`~repro.rdma.memory.MemoryRegion` buffers, synchronously, with the
full permission model:

- one-sided WRITE/READ resolve the rkey through the *remote host's*
  protection domain and perform the access with bounds/permission checks;
- access to trusted (enclave) regions is refused -- SGX forbids DMA to the
  EPC, which is exactly why Precursor stages payloads in untrusted memory;
- errored QPs refuse service (client revocation, §3.9);
- completions are pushed subject to selective signaling.

Timing is *not* simulated here -- the fabric is the correctness layer.  The
discrete-event simulations charge :class:`~repro.rdma.nic.RNic` costs
instead of moving real bytes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AccessError, ConfigurationError
from repro.rdma.memory import ProtectionDomain
from repro.rdma.qp import QpState, QueuePair, WorkCompletion
from repro.rdma.verbs import Opcode, WorkRequest

__all__ = ["Fabric", "FaultAction"]


class FaultAction:
    """What a fault hook may do to one posted work request.

    The hook (see :meth:`Fabric.install_fault_hook`) returns one of these
    strings -- or ``None`` for "no fault".  The fabric implements the
    mechanics; the *policy* (which request, which kind, under which seed)
    lives in :class:`repro.faults.engine.FaultEngine`.
    """

    #: Silently lose the write: the post "succeeds" but no bytes land.
    DROP = "drop"
    #: Hold the write back; it lands after ``delay_ops`` later posts.
    DELAY = "delay"
    #: Flip one byte of the payload before it lands (in-flight tamper).
    CORRUPT = "corrupt"
    #: Complete in error and drive the QP to ERR (link flap / NIC fault).
    QP_ERROR = "qp_error"

    ALL = (DROP, DELAY, CORRUPT, QP_ERROR)


class Fabric:
    """Connects hosts and executes verbs between them."""

    def __init__(self) -> None:
        self._pds: Dict[str, ProtectionDomain] = {}
        self._qp_host: Dict[int, str] = {}
        self._next_qp_num = 1
        self.ops_executed = 0
        self.bytes_moved = 0
        self._faults_pending = 0
        self._obs = None
        self._obs_handles: Dict[Tuple[Opcode, bool], tuple] = {}
        # Deterministic fault-injection seam (repro.faults): an optional
        # hook consulted per post, plus writes held back by DELAY faults
        # as (countdown, qp, wr) entries.
        self._fault_hook: Optional[
            Callable[[QueuePair, WorkRequest], Optional[str]]
        ] = None
        self._delayed: List[Tuple[int, QueuePair, WorkRequest]] = []
        self.delay_ops = 2

    def bind_obs(self, registry) -> None:
        """Export verb counts, bytes moved, and CQ depth into ``registry``.

        Idempotent.  A verb's metric handles are bound on its first post,
        so only opcodes actually posted appear in the exposition; binding
        drops the handles of an earlier registry, so later posts count
        in ``registry`` alone.
        """
        self._obs = registry
        self._obs_handles = {}

    def _record_obs(
        self, wr: WorkRequest, qp: QueuePair, ok: bool, nbytes: int
    ) -> None:
        registry = self._obs
        if registry is None:
            return
        handles = self._obs_handles.get((wr.opcode, ok))
        if handles is None:
            handles = self._obs_handles[(wr.opcode, ok)] = (
                registry.counter(
                    "rdma_verbs_total",
                    "work requests posted",
                    {"verb": wr.opcode.name.lower()},
                ),
                registry.counter(
                    "rdma_bytes_total", "payload bytes moved by the fabric"
                )
                if ok
                else registry.counter(
                    "rdma_verb_errors_total", "work requests completed in error"
                ),
                registry.gauge(
                    "rdma_send_cq_depth", "completions waiting in the send CQ"
                ),
            )
        posted, outcome, depth = handles
        posted.inc()
        outcome.inc(nbytes if ok else 1)
        depth.set(len(qp.send_cq))

    def inject_faults(self, count: int = 1) -> None:
        """Make the next ``count`` operations fail (link flap / NIC error).

        Test/chaos hook: each affected post completes with an error and
        drives its QP to ERR, exactly like a genuine transport failure.
        """
        if count < 0:
            raise ConfigurationError(f"negative fault count: {count}")
        self._faults_pending += count

    def install_fault_hook(
        self, hook: Optional[Callable[[QueuePair, WorkRequest], Optional[str]]]
    ) -> None:
        """Install (or clear, with ``None``) the per-post fault hook.

        The hook is called once per :meth:`post_send` with the QP and work
        request and returns a :class:`FaultAction` string or ``None``.
        Exactly one hook is active at a time; installing over an existing
        one replaces it (the fault engine owns composition).
        """
        self._fault_hook = hook

    def flush_delayed(self) -> int:
        """Deliver every write still held back by DELAY faults.

        Returns the number delivered.  Late deliveries run fault-free (a
        frame is delayed once, not repeatedly re-judged).
        """
        delayed, self._delayed = self._delayed, []
        for _countdown, qp, wr in delayed:
            self._deliver_late(qp, wr)
        return len(delayed)

    def _deliver_late(self, qp: QueuePair, wr: WorkRequest) -> None:
        # A delayed frame lands only if its connection is still usable; a
        # write buffered before a QP error dies with the connection.
        if qp.state is not QpState.RTS:
            return
        if qp.remote is None or qp.remote.state is not QpState.RTS:
            return
        try:
            self._execute(qp, wr)
        except AccessError:
            return
        self.bytes_moved += wr.byte_len

    def _tick_delayed(self) -> None:
        due = []
        still = []
        for countdown, qp, wr in self._delayed:
            if countdown <= 1:
                due.append((qp, wr))
            else:
                still.append((countdown - 1, qp, wr))
        self._delayed = still
        for qp, wr in due:
            self._deliver_late(qp, wr)

    # -- topology ------------------------------------------------------------

    def add_host(self, name: str) -> ProtectionDomain:
        """Attach a host; returns its protection domain."""
        if name in self._pds:
            raise ConfigurationError(f"host {name!r} already attached")
        pd = ProtectionDomain(name=name)
        self._pds[name] = pd
        return pd

    def pd(self, host: str) -> ProtectionDomain:
        """The protection domain of ``host``."""
        if host not in self._pds:
            raise ConfigurationError(f"unknown host {host!r}")
        return self._pds[host]

    def create_qp_pair(
        self, host_a: str, host_b: str, **qp_kwargs
    ) -> tuple:
        """Create and connect a QP on each host; returns (qp_a, qp_b)."""
        from repro.rdma.qp import CompletionQueue

        for host in (host_a, host_b):
            if host not in self._pds:
                raise ConfigurationError(f"unknown host {host!r}")
        qp_a = QueuePair(self._next_qp_num, CompletionQueue(), **qp_kwargs)
        self._qp_host[self._next_qp_num] = host_a
        self._next_qp_num += 1
        qp_b = QueuePair(self._next_qp_num, CompletionQueue(), **qp_kwargs)
        self._qp_host[self._next_qp_num] = host_b
        self._next_qp_num += 1
        qp_a.connect(qp_b)
        return qp_a, qp_b

    # -- execution ---------------------------------------------------------

    def post_send(self, qp: QueuePair, wr: WorkRequest) -> None:
        """Post ``wr`` on ``qp`` and execute it against the remote host.

        Completion status is "success" or the error message; an error also
        drives the QP to ERR, per RC semantics.
        """
        qp.check_can_send(wr)
        if qp.remote is None or qp.remote.state is not QpState.RTS:
            raise AccessError(f"QP {qp.qp_num} has no connected remote")
        qp.sends_posted += 1
        if self._delayed:
            self._tick_delayed()
        if self._faults_pending or self._fault_hook is not None:
            action, detail = self._judge(qp, wr)
        else:
            action = detail = None
        status = "success"
        executed = False
        result: bytes = b""
        if action == FaultAction.QP_ERROR:
            status = "injected transport fault"
            qp.error_out()
        elif action == FaultAction.DROP:
            pass  # silent loss: the post "succeeds", no bytes land
        elif action == FaultAction.DELAY:
            self._delayed.append((detail or self.delay_ops, qp, wr))
        else:
            if action == FaultAction.CORRUPT and wr.data:
                flip_at = (detail or 0) % len(wr.data)
                data = bytearray(wr.data)
                data[flip_at] ^= 0x01
                wr.data = bytes(data)
            try:
                result = self._execute(qp, wr)
                executed = True
            except AccessError as exc:
                status = str(exc)
                qp.error_out()
        self.ops_executed += 1
        nbytes = wr.byte_len
        if executed:
            self.bytes_moved += nbytes
        if qp.want_signal(wr) or status != "success":
            qp.send_cq.push(
                WorkCompletion(
                    wr_id=wr.wr_id,
                    opcode=wr.opcode,
                    status=status,
                    byte_len=len(result) if wr.opcode is Opcode.RDMA_READ else nbytes,
                )
            )
        self._record_obs(wr, qp, status == "success", nbytes)
        if status != "success":
            raise AccessError(status)
        if wr.opcode is Opcode.RDMA_READ:
            wr.data = result

    def _judge(
        self, qp: QueuePair, wr: WorkRequest
    ) -> Tuple[Optional[str], Optional[int]]:
        """Decide the fault for one post made while faults are armed.

        :meth:`post_send` asks only while an ``inject_faults`` count is
        pending or a hook is installed.  Legacy ``inject_faults`` counts
        take precedence (they model the always-available "link flap"
        shape); otherwise the installed hook is consulted.  Hooks may
        return an action string or an ``(action, detail)`` pair --
        ``detail`` is the byte offset for CORRUPT and the op countdown
        for DELAY.
        """
        if self._faults_pending > 0:
            self._faults_pending -= 1
            return FaultAction.QP_ERROR, None
        verdict = self._fault_hook(qp, wr)
        if verdict is None:
            return None, None
        if isinstance(verdict, tuple):
            action, detail = verdict
        else:
            action, detail = verdict, None
        if action not in FaultAction.ALL:
            raise ConfigurationError(f"unknown fault action {action!r}")
        return action, detail

    def _execute(self, qp: QueuePair, wr: WorkRequest) -> bytes:
        remote_host = self._qp_host[qp.remote.qp_num]
        remote_pd = self._pds[remote_host]
        if wr.opcode is Opcode.SEND:
            qp.remote.deliver_send(wr.data)
            return b""
        region = remote_pd.lookup(wr.remote_rkey)
        if wr.opcode is Opcode.RDMA_WRITE:
            if wr.segments:
                # Gather write: land each slice of the wire payload at
                # its own remote offset.  A CORRUPT fault flipped one
                # byte of ``wr.data`` above, so exactly one segment
                # arrives poisoned -- its batch-mates are untouched.
                cursor = 0
                for offset, length in wr.segments:
                    region.remote_write(offset, wr.data[cursor:cursor + length])
                    cursor += length
            else:
                region.remote_write(wr.remote_offset, wr.data)
            return b""
        if wr.opcode is Opcode.RDMA_READ:
            return region.remote_read(wr.remote_offset, wr.length)
        raise ConfigurationError(f"unsupported opcode {wr.opcode}")
