"""The seeded fault engine: one PRNG, one totally ordered fault log.

The engine is the *policy* half of fault injection (the fabric and the
client own the mechanics).  All randomness flows through a single
``random.Random(seed)``, and every injected fault is appended to an
ordered log -- so two runs with the same ``(seed, schedule)`` over the
same workload produce byte-identical fault sequences, verifiable via
:meth:`FaultEngine.fingerprint`.

Install points:

- every :class:`~repro.rdma.fabric.Fabric` gets the engine's wire hook
  (judging drop / delay / corrupt / QP-error per posted write);
- every client gets the duplicate-submit hook;
- the chaos harness (:mod:`repro.faults.harness`) calls :meth:`draw`
  for machine-level kinds and :meth:`tamper_stored` for at-rest tamper.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, List, Optional, Tuple

from repro.faults.schedule import FaultKind, FaultSchedule
from repro.rdma.fabric import FaultAction

__all__ = ["FaultEngine"]

#: Wire fault kind -> fabric action (DELAY/CORRUPT also carry a detail).
_WIRE_ACTION = {
    FaultKind.DROP: FaultAction.DROP,
    FaultKind.DELAY: FaultAction.DELAY,
    FaultKind.CORRUPT_CONTROL: FaultAction.CORRUPT,
    FaultKind.QP_ERROR: FaultAction.QP_ERROR,
}


class FaultEngine:
    """Draws faults from a schedule under one seed and logs every hit."""

    def __init__(
        self, schedule: FaultSchedule, seed: int, obs=None
    ):
        self.schedule = schedule
        self.seed = seed
        self.rng = random.Random(seed)
        self.obs = obs
        #: Ordered log of injected faults, ``"kind"`` or ``"kind:detail"``.
        self.log: List[str] = []
        #: Injection counts per kind.
        self.counts: Dict[str, int] = {}
        #: While False, every hook and draw is a no-op (fault-free windows
        #: for verification readbacks) -- but the PRNG state is preserved.
        self.armed = True
        self._fabrics: List = []
        self._clients: List = []

    # -- installation ------------------------------------------------------

    def install(self, fabrics=(), clients=()) -> None:
        """Wire this engine into fabrics and clients.

        Idempotent per target; installing replaces any previous hook (the
        engine owns composition -- one active engine at a time).
        """
        for fabric in fabrics:
            fabric.install_fault_hook(self._wire_hook)
            if fabric not in self._fabrics:
                self._fabrics.append(fabric)
        for client in clients:
            client.submit_fault_hook = self._client_hook
            if client not in self._clients:
                self._clients.append(client)

    def uninstall(self) -> None:
        """Remove every installed hook (the engine stays queryable)."""
        for fabric in self._fabrics:
            fabric.install_fault_hook(None)
        for client in self._clients:
            client.submit_fault_hook = None
        self._fabrics = []
        self._clients = []

    def disarm(self) -> None:
        """Stop injecting (hooks stay installed, draws return nothing)."""
        self.armed = False

    def arm(self) -> None:
        """Resume injecting after :meth:`disarm`."""
        self.armed = True

    def flush_delayed(self) -> int:
        """Deliver every write still held back by DELAY faults."""
        return sum(fabric.flush_delayed() for fabric in self._fabrics)

    # -- hooks -------------------------------------------------------------

    def _wire_hook(self, qp, wr):
        if not self.armed:
            return None
        for spec in self.schedule.wire_specs():
            if self.rng.random() < spec.rate:
                return self._wire_action(spec.kind, wr)
        return None

    def _wire_action(self, kind: str, wr):
        if kind == FaultKind.DELAY:
            ops = self.rng.randint(1, 3)
            self._record(kind, ops)
            return FaultAction.DELAY, ops
        if kind == FaultKind.CORRUPT_CONTROL:
            flip_at = self.rng.randrange(max(1, len(wr.data)))
            self._record(kind, flip_at)
            return FaultAction.CORRUPT, flip_at
        self._record(kind)
        return _WIRE_ACTION[kind], None

    def _client_hook(self, frame: bytes) -> bool:
        if not self.armed:
            return False
        for spec in self.schedule.client_specs():
            if self.rng.random() < spec.rate:
                self._record(spec.kind)
                return True
        return False

    # -- harness-level draws -----------------------------------------------

    def draw(self, kind: str) -> bool:
        """One Bernoulli draw for a harness-level ``kind``.

        Recorded in the log when it fires; always False while disarmed or
        when the kind is not scheduled (no PRNG state is consumed then,
        keeping sharded and single-node runs on the same fault stream for
        schedules that don't include the kind).
        """
        if not self.armed:
            return False
        rate = self.schedule.rate(kind)
        if rate <= 0.0:
            return False
        if self.rng.random() < rate:
            self._record(kind)
            return True
        return False

    def tamper_stored(self, servers) -> Optional[Tuple[object, bytes]]:
        """Flip one byte of one stored payload, chosen deterministically.

        Models the rogue administrator of the paper's threat model (§2.3)
        editing untrusted memory at rest.  Only externally stored entries
        qualify (inline values live in trusted memory, out of reach).
        Returns ``(server, key)`` of the victim, or None when nothing is
        eligible.
        """
        candidates: List[Tuple[object, bytes]] = []
        for server in servers:
            if getattr(server, "crashed", False):
                continue
            for key in sorted(server.stored_keys()):
                entry = server._lookup(key)
                if entry is not None and entry.ptr is not None:
                    candidates.append((server, key))
        if not candidates:
            return None
        server, key = candidates[self.rng.randrange(len(candidates))]
        entry = server._lookup(key)
        flip_at = self.rng.randrange(entry.ptr.length)
        server.payload_store.corrupt(entry.ptr, flip_at=flip_at)
        self._record(FaultKind.CORRUPT_PAYLOAD, flip_at)
        return server, key

    # -- accounting --------------------------------------------------------

    def _record(self, kind: str, detail=None) -> None:
        entry = kind if detail is None else f"{kind}:{detail}"
        self.log.append(entry)
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if self.obs is not None:
            self.obs.registry.counter(
                "faults_injected_total",
                "faults injected by the chaos engine",
                {"kind": kind},
            ).inc()
            flight = getattr(self.obs, "flight", None)
            if flight is not None:
                flight.record_fault(
                    entry, t_ns=self.obs.tracer.clock.now_ns()
                )

    @property
    def total_injected(self) -> int:
        """Faults injected so far, across every kind."""
        return len(self.log)

    def fingerprint(self) -> str:
        """SHA-256 over the ordered fault log.

        Two runs with the same ``(seed, schedule, workload)`` must agree
        on this value -- the determinism contract chaos tests pin.
        """
        return hashlib.sha256("\n".join(self.log).encode()).hexdigest()
