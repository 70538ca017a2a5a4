"""The in-memory RDMA fabric: the functional "wire".

The fabric executes posted one-sided WRITEs against real
:class:`~repro.rdma.memory.MemoryRegion` buffers, synchronously, with the
full permission model:

- a WRITE, plain or gathered, resolves its rkey through the *remote
  host's* protection domain and lands with bounds/permission checks;
- access to trusted (enclave) regions is refused -- SGX forbids DMA to the
  EPC, which is exactly why Precursor stages payloads in untrusted memory;
- a failed write drives its QP to ERR, and an errored QP refuses service
  (client revocation, §3.9);
- an installed fault hook may drop, delay, corrupt or fail any post.

Timing is *not* simulated here -- the fabric is the correctness layer.  The
discrete-event simulations charge :class:`~repro.rdma.nic.RNic` costs
instead of moving real bytes.
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional, Tuple

from repro.errors import AccessError, ConfigurationError
from repro.obs.metrics import Counter
from repro.rdma.memory import ProtectionDomain
from repro.rdma.qp import QpState, QueuePair
from repro.rdma.verbs import WorkRequest

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
    #: Fail the write and drive the QP to ERR (link flap / NIC fault).
    QP_ERROR = "qp_error"

    ALL = (DROP, DELAY, CORRUPT, QP_ERROR)


class Fabric:
    """Connects hosts and lands one-sided WRITEs between them."""

    def __init__(self) -> None:
        self._pds: Dict[str, ProtectionDomain] = {}
        self._qp_nums = itertools.count(1)
        #: Payload bytes that landed in a remote region.
        self.bytes_moved = 0
        self._obs = None
        self._obs_posts: Optional[Counter] = None
        self._obs_bytes: Optional[Counter] = None
        self._obs_errors: Optional[Counter] = None
        # Deterministic fault-injection seam (repro.faults): an optional
        # hook consulted per post, plus writes held back by DELAY faults
        # as (countdown, qp, wr) entries.
        self._fault_hook: Optional[
            Callable[[QueuePair, WorkRequest], Optional[str]]
        ] = None
        self._delayed: List[Tuple[int, QueuePair, WorkRequest]] = []
        self.delay_ops = 2

    def bind_obs(self, registry) -> None:
        """Export posts, bytes landed and failed writes into ``registry``.

        Idempotent.  Each counter is bound when it first counts: the post
        counter on the first post, the byte counter when bytes first
        land (it counts what :attr:`bytes_moved` counts) and the error
        counter on the first failed write, so each appears in the
        exposition only from then on.  Binding drops the handles of an
        earlier registry, so later posts count in ``registry`` alone.
        """
        self._obs = registry
        self._obs_posts = self._obs_bytes = self._obs_errors = None

    def _counter(self, name: str, help_text: str, labels=None) -> Counter:
        """The bound registry's counter ``name``, or a detached one."""
        if self._obs is None:
            return Counter()
        return self._obs.counter(name, help_text, labels)

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
        if qp.state is not QpState.RTS or qp.remote.state is not QpState.RTS:
            return
        try:
            self._execute(qp, wr)
        except AccessError:
            return

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

    def create_qp_pair(self, host_a: str, host_b: str) -> tuple:
        """Create a connected QP on each host; returns (qp_a, qp_b)."""
        pd_a, pd_b = self.pd(host_a), self.pd(host_b)
        qp_a = QueuePair(next(self._qp_nums), pd_a)
        qp_b = QueuePair(next(self._qp_nums), pd_b, remote=qp_a)
        qp_a.remote = qp_b
        return qp_a, qp_b

    # -- execution ---------------------------------------------------------

    def post_send(self, qp: QueuePair, wr: WorkRequest) -> None:
        """Post the WRITE ``wr`` on ``qp`` and land it in the remote host.

        A write that fails raises :class:`AccessError` and drives the QP
        to ERR, per RC semantics.
        """
        if qp.state is not QpState.RTS:
            raise AccessError(
                f"QP {qp.qp_num} cannot send in state {qp.state.name}"
            )
        if qp.remote is None or qp.remote.state is not QpState.RTS:
            raise AccessError(f"QP {qp.qp_num} has no connected remote")
        if self._delayed:
            self._tick_delayed()
        error = None
        try:
            if self._fault_hook is None:
                self._execute(qp, wr)
            else:
                self._post_judged(qp, wr)
        except AccessError as exc:
            error = exc
        posts = self._obs_posts
        if posts is None:
            posts = self._obs_posts = self._counter(
                "rdma_verbs_total", "work requests posted", {"verb": "rdma_write"}
            )
        posts.value += 1
        if error is not None:
            errors = self._obs_errors
            if errors is None:
                errors = self._obs_errors = self._counter(
                    "rdma_verb_errors_total", "work requests completed in error"
                )
            errors.value += 1
            qp.error_out()
            raise error

    def _post_judged(self, qp: QueuePair, wr: WorkRequest) -> None:
        """Post ``wr`` as the fault hook's verdict on it says."""
        action, detail = self._judge(qp, wr)
        if action == FaultAction.QP_ERROR:
            raise AccessError("injected transport fault")
        if action == FaultAction.DELAY:
            self._delayed.append((detail or self.delay_ops, qp, wr))
        elif action != FaultAction.DROP:  # a drop lands no bytes, silently
            if action == FaultAction.CORRUPT and wr.data:
                flip_at = (detail or 0) % len(wr.data)
                data = bytearray(wr.data)
                data[flip_at] ^= 0x01
                wr.data = bytes(data)
            self._execute(qp, wr)

    def _judge(
        self, qp: QueuePair, wr: WorkRequest
    ) -> Tuple[Optional[str], Optional[int]]:
        """Ask the installed hook for one post's fault.

        Hooks may return an action string or an ``(action, detail)``
        pair -- ``detail`` is the byte offset for CORRUPT and the op
        countdown for DELAY.
        """
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

    def _execute(self, qp: QueuePair, wr: WorkRequest) -> None:
        """Land ``wr`` in ``qp``'s remote host and count its bytes."""
        region = qp.remote.pd.lookup(wr.remote_rkey)
        if wr.segments:
            # Gather write: land each slice of the wire payload at its
            # own remote offset.  A CORRUPT fault flipped one byte of
            # ``wr.data`` above, so exactly one segment arrives
            # poisoned -- its batch-mates are untouched.
            cursor = 0
            for offset, length in wr.segments:
                region.remote_write(offset, wr.data[cursor:cursor + length])
                cursor += length
        else:
            region.remote_write(wr.remote_offset, wr.data)
        nbytes = len(wr.data)
        self.bytes_moved += nbytes
        landed = self._obs_bytes
        if landed is None:
            landed = self._obs_bytes = self._counter(
                "rdma_bytes_total", "payload bytes moved by the fabric"
            )
        landed.value += nbytes
