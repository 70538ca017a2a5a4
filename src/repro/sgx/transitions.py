"""Enclave transition costs and accounting.

The paper quotes ~13 100 cycles per enclave transition (ecall or ocall,
§1/§2.1: context switch, security checks, TLB flush) and ~20 000 cycles per
EPC page fault.  These constants parameterise every simulation; the
accounting object is shared between the functional layer (which counts
crossings) and the simulator (which turns counts into time).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["TransitionCosts", "TransitionAccounting"]


@dataclass(frozen=True)
class TransitionCosts:
    """Cycle costs of SGX boundary events."""

    #: Cycles for one ecall (enter enclave).
    ecall_cycles: float = 13_000.0
    #: Cycles for one ocall (leave enclave and return).
    ocall_cycles: float = 13_000.0
    #: Cycles to service one EPC page fault (evict + load + re-enter).
    epc_fault_cycles: float = 20_000.0

    def __post_init__(self) -> None:
        for name in ("ecall_cycles", "ocall_cycles", "epc_fault_cycles"):
            if getattr(self, name) < 0:
                raise ConfigurationError(f"{name} must be non-negative")


class TransitionAccounting:
    """Mutable counters of boundary crossings and faults.

    ``total_cycles`` folds the counters through a :class:`TransitionCosts`,
    giving simulations a single number to charge.  When bound to a
    :class:`~repro.obs.metrics.MetricsRegistry` (see :meth:`bind_obs`) every
    crossing additionally increments the shared ``sgx_*_total`` counters, so
    the same events feed both the simulator and the exporters.
    """

    def __init__(self, costs: TransitionCosts = None):
        self.costs = costs if costs is not None else TransitionCosts()
        self.ecalls = 0
        self.ocalls = 0
        self.epc_faults = 0
        self._obs_ecalls = None
        self._obs_ocalls = None
        self._obs_faults = None

    def bind_obs(self, registry, labels: dict = None) -> None:
        """Mirror crossings into ``registry`` (monotonic, survives reset)."""
        self._obs_ecalls = registry.counter(
            "sgx_ecalls_total", "world switches into the enclave", labels
        )
        self._obs_ocalls = registry.counter(
            "sgx_ocalls_total", "world switches out of the enclave", labels
        )
        self._obs_faults = registry.counter(
            "sgx_epc_faults_total", "EPC page faults serviced", labels
        )

    def record_ecall(self) -> None:
        """Count one world switch into the enclave."""
        self.ecalls += 1
        if self._obs_ecalls is not None:
            self._obs_ecalls.inc()

    def record_ocall(self) -> None:
        """Count one world switch out of the enclave."""
        self.ocalls += 1
        if self._obs_ocalls is not None:
            self._obs_ocalls.inc()

    def record_epc_fault(self, count: int = 1) -> None:
        """Count ``count`` EPC page faults."""
        self.epc_faults += count
        if self._obs_faults is not None:
            self._obs_faults.inc(count)

    def total_cycles(self) -> float:
        """Aggregate cycle cost of everything recorded so far."""
        costs = self.costs
        return (
            self.ecalls * costs.ecall_cycles
            + self.ocalls * costs.ocall_cycles
            + self.epc_faults * costs.epc_fault_cycles
        )

    def reset(self) -> None:
        """Zero all counters (e.g. after a warm-up phase)."""
        self.ecalls = 0
        self.ocalls = 0
        self.epc_faults = 0
