"""Tail latency under transport faults: what retries cost.

The functional chaos harness (:mod:`repro.faults`) proves *correctness*
under faults; this experiment quantifies their *cost* with the same
calibrated model the other figures use.  A GET's fault-free latency is
wire time (client NIC, request + response) plus server processing; a
faulted GET additionally pays, per retry:

- **detection** -- a QP error is NAKed after one extra base latency
  (:meth:`repro.rdma.nic.RNic.retransmit_ns`), while a *silent* loss is
  only caught by the client's response timeout, orders of magnitude
  above the data path;
- **recovery** -- Precursor's recovery unit is a full reconnect: QP
  re-establishment plus re-attestation (two enclave round trips and the
  session-key handshake), charged once per retry.

Because a faulted operation pays milliseconds where the data path pays
microseconds, the p99/p99.9 curves bend away from the median long before
throughput moves -- the usual signature of retry-based recovery, here
made quantitative for Precursor's client-centric variant.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.bench.calibration import Calibration
from repro.bench.costs import SystemCosts
from repro.bench.report import Series, format_table
from repro.core.protocol import OpCode

__all__ = ["FaultTailResult", "run_faulttail", "percentile", "FAULT_RATES"]

#: Per-message fault probabilities swept by the experiment.
FAULT_RATES = (0.0, 0.001, 0.01, 0.05)

#: Client response timeout before a silently dropped message is declared
#: lost (RC retransmission timers sit in this range on the paper's NICs).
TIMEOUT_NS = 500_000

#: QP re-establishment: out-of-band exchange of QPNs/rkeys + state
#: transitions, a few wire round trips.
RECONNECT_NS = 40_000

#: Re-attestation: quote generation + verification + session-key
#: handshake -- two enclave entries and asymmetric crypto, far above any
#: data-path cost (paper §3.6 runs it once per client *admission*; after
#: a fault it is the price of re-entry).
REATTEST_NS = 250_000

#: Fraction of injected faults that are silent losses (timeout-detected)
#: rather than NAKed QP errors.
SILENT_FRACTION = 0.5


@dataclass
class FaultTailResult:
    """Latency percentiles and retry counts per fault rate."""

    fault_rates: Sequence[float]
    value_size: int
    samples: int
    p50_us: List[float] = field(default_factory=list)
    p99_us: List[float] = field(default_factory=list)
    p999_us: List[float] = field(default_factory=list)
    retries_per_kop: List[float] = field(default_factory=list)
    reattest_us: float = 0.0

    def report(self) -> str:
        """Render the paper-style fault-tail table."""
        table = format_table(
            f"GET latency vs transport fault rate "
            f"({self.value_size} B values, {self.samples} samples, "
            f"reconnect+re-attestation = {self.reattest_us:.0f} us/retry)",
            [f"{rate:g}" for rate in self.fault_rates],
            [
                Series("p50 (us)", self.p50_us),
                Series("p99 (us)", self.p99_us),
                Series("p99.9 (us)", self.p999_us),
                Series("retries/kop", self.retries_per_kop),
            ],
            row_header="fault rate",
        )
        return table + (
            "\nFaults move the tail long before the median: recovery pays "
            "detection\n(timeout or NAK) plus reconnect + re-attestation, "
            "milliseconds against a\nmicrosecond data path."
        )


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of an ascending list."""
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def run_faulttail(
    calibration: Calibration = None,
    quick: bool = False,
    value_size: int = 256,
    seed: int = 42,
) -> FaultTailResult:
    """Monte-Carlo sweep of GET latency over :data:`FAULT_RATES`."""
    cal = calibration if calibration is not None else Calibration()
    samples = 4_000 if quick else 40_000
    costs = SystemCosts("precursor", cal, read_fraction=1.0)
    op = costs.op_cost(OpCode.GET, value_size)

    base_ns = (
        cal.client_nic.transfer_ns(op.request_bytes, inline=True)
        + cal.client_nic.transfer_ns(op.response_bytes)
        + cal.server_cycles_to_ns(op.server_total_cycles)
        + cal.client_cycles_to_ns(op.client_cycles)
    )
    retry_fixed_ns = RECONNECT_NS + REATTEST_NS
    rng = random.Random(seed)

    result = FaultTailResult(
        fault_rates=FAULT_RATES,
        value_size=value_size,
        samples=samples,
        reattest_us=retry_fixed_ns / 1000.0,
    )
    for rate in FAULT_RATES:
        latencies: List[float] = []
        retries = 0
        for _ in range(samples):
            latency = float(base_ns)
            while rate > 0.0 and rng.random() < rate:
                retries += 1
                if rng.random() < SILENT_FRACTION:
                    latency += TIMEOUT_NS  # silent drop: timeout-detected
                else:
                    latency += cal.client_nic.retransmit_ns(
                        op.request_bytes, inline=True
                    )
                latency += retry_fixed_ns + base_ns
            latencies.append(latency)
        latencies.sort()
        result.p50_us.append(percentile(latencies, 0.50) / 1000.0)
        result.p99_us.append(percentile(latencies, 0.99) / 1000.0)
        result.p999_us.append(percentile(latencies, 0.999) / 1000.0)
        result.retries_per_kop.append(retries / samples * 1000.0)
    return result
