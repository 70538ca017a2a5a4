"""Failover latency and acked-write loss vs replication ack mode.

The replica subsystem (:mod:`repro.replica`) proves the *correctness*
half of primary-backup failover: sync/semi-sync groups lose nothing,
async groups lose a client-detectable tail.  This experiment quantifies
the *price* of each contract with the same calibrated model the other
figures use, Monte-Carlo style like :mod:`repro.bench.faulttail`:

- **write-ack latency**: a replicated PUT pays the base data path plus
  whatever shipping the contract puts *before* the ack -- all ``R``
  backups for ``sync``, one witness for ``semi-sync``, nothing for
  ``async`` (which instead pays a flush burst on every
  ``flush_every``-th write);
- **failover latency**: detection (the client response timeout -- a
  crashed primary NAKs nothing), the survivors' catch-up resync of
  whatever replication lag the crash caught in flight, and the router's
  reconnect + re-attestation against the promoted backup;
- **acked loss**: per simulated crash, how many *acknowledged* records
  the promoted backup never received.  Structurally zero for sync and
  semi-sync; for async it is the unshipped tail, every record of it
  MAC-detectable by the writing client (``docs/REPLICATION.md``).

Replication records travel between *server* NICs (40 Gbit in the
paper's testbed), so shipping is cheap against the client data path --
the sync penalty is round trips, not bandwidth.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.bench.calibration import Calibration
from repro.bench.costs import SystemCosts
from repro.bench.faulttail import RECONNECT_NS, REATTEST_NS, TIMEOUT_NS
from repro.bench.report import Series, format_table
from repro.core.protocol import OpCode
from repro.replica import ACK_MODES

__all__ = ["ReplicationResult", "run_replication", "REPLICA_COUNTS"]

#: Replication factors swept by the experiment.
REPLICA_COUNTS = (1, 2, 3)

#: Sealed-record framing on top of the payload blob: seal nonce + tag,
#: key material, owner id, MAC (mirrors ``export_entry``'s record).
SEALED_OVERHEAD_BYTES = 120

#: Async groups ship in windows of this many records (the
#: ``async_flush_every`` default of :class:`~repro.replica.ReplicaGroup`).
ASYNC_FLUSH_EVERY = 4

#: Replication-lag records a crash catches in flight, worst case -- the
#: window ``replica_lag`` chaos injection widens (2 + randrange(5)).
MAX_LAG_RECORDS = 6


@dataclass
class ReplicationResult:
    """Write-ack latency, failover latency and acked loss per config."""

    value_size: int
    samples: int
    failovers: int
    #: Row order: every (ack_mode, replicas) combination swept.
    configs: List[Tuple[str, int]] = field(default_factory=list)
    ack_overhead_us: Dict[Tuple[str, int], float] = field(default_factory=dict)
    put_p50_us: Dict[Tuple[str, int], float] = field(default_factory=dict)
    put_p99_us: Dict[Tuple[str, int], float] = field(default_factory=dict)
    failover_p50_us: Dict[Tuple[str, int], float] = field(default_factory=dict)
    failover_p99_us: Dict[Tuple[str, int], float] = field(default_factory=dict)
    lost_per_failover: Dict[Tuple[str, int], float] = field(default_factory=dict)
    model_failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when the model reproduced every contract invariant."""
        return not self.model_failures

    @property
    def exit_code(self) -> int:
        """0 when every invariant held, 1 otherwise."""
        return 0 if self.ok else 1

    def to_dict(self) -> dict:
        """JSON-shaped view (the ``BENCH_replication.json`` schema)."""
        per_config = {
            f"{mode}/r{replicas}": {
                "ack_overhead_us": round(self.ack_overhead_us[c], 2),
                "put_p50_us": round(self.put_p50_us[c], 2),
                "put_p99_us": round(self.put_p99_us[c], 2),
                "failover_p50_us": round(self.failover_p50_us[c], 1),
                "failover_p99_us": round(self.failover_p99_us[c], 1),
                "lost_acked_per_failover": round(self.lost_per_failover[c], 3),
            }
            for c in self.configs
            for mode, replicas in [c]
        }
        return {
            "benchmark": "replication",
            "value_size": self.value_size,
            "samples": self.samples,
            "failovers": self.failovers,
            "configs": per_config,
            "model_failures": self.model_failures,
            "ok": self.ok,
        }

    def report(self) -> str:
        """Render the two paper-style tables (mode sweep, factor sweep)."""
        mid = REPLICA_COUNTS[len(REPLICA_COUNTS) // 2]
        modes = [m for m in ACK_MODES if (m, mid) in self.put_p50_us]
        mode_table = format_table(
            f"Replication cost vs ack mode ({mid} replicas, "
            f"{self.value_size} B values, {self.failovers} simulated "
            f"failovers)",
            modes,
            [
                Series(
                    "ack overhead (us)",
                    [self.ack_overhead_us[(m, mid)] for m in modes],
                ),
                Series(
                    "put p50 (us)", [self.put_p50_us[(m, mid)] for m in modes]
                ),
                Series(
                    "put p99 (us)", [self.put_p99_us[(m, mid)] for m in modes]
                ),
                Series(
                    "failover p50 (us)",
                    [self.failover_p50_us[(m, mid)] for m in modes],
                ),
                Series(
                    "failover p99 (us)",
                    [self.failover_p99_us[(m, mid)] for m in modes],
                ),
                Series(
                    "lost acked/failover",
                    [self.lost_per_failover[(m, mid)] for m in modes],
                ),
            ],
            row_header="ack mode",
        )
        factors = [
            r for r in REPLICA_COUNTS if ("sync", r) in self.put_p50_us
        ]
        factor_table = format_table(
            "Sync-mode cost vs replication factor",
            [f"R={r}" for r in factors],
            [
                Series(
                    "ack overhead (us)",
                    [self.ack_overhead_us[("sync", r)] for r in factors],
                ),
                Series(
                    "put p99 (us)",
                    [self.put_p99_us[("sync", r)] for r in factors],
                ),
                Series(
                    "failover p99 (us)",
                    [self.failover_p99_us[("sync", r)] for r in factors],
                ),
            ],
            row_header="replicas",
        )
        verdict = (
            "OK: sync/semi-sync lost nothing; async tail is "
            "client-detectable"
            if self.ok
            else f"FAIL: {self.model_failures}"
        )
        return (
            mode_table
            + "\n\n"
            + factor_table
            + "\nDetection dominates failover (the crashed primary NAKs "
            "nothing, so the\nclient burns its response timeout); shipping "
            "rides the 40 Gbit server\nfabric and costs round trips, not "
            "bandwidth.\nverdict: "
            + verdict
        )


def _percentile(sorted_values: List[float], q: float) -> float:
    index = min(len(sorted_values) - 1, int(q * len(sorted_values)))
    return sorted_values[index]


def run_replication(
    calibration: Calibration = None,
    quick: bool = False,
    value_size: int = 256,
    seed: int = 42,
) -> ReplicationResult:
    """Monte-Carlo sweep over ack modes x :data:`REPLICA_COUNTS`."""
    cal = calibration if calibration is not None else Calibration()
    samples = 2_000 if quick else 20_000
    failovers = 50 if quick else 500
    costs = SystemCosts("precursor", cal, read_fraction=0.0)
    op = costs.op_cost(OpCode.PUT, value_size)

    base_ns = (
        cal.client_nic.transfer_ns(op.request_bytes, inline=True)
        + cal.client_nic.transfer_ns(op.response_bytes)
        + cal.server_cycles_to_ns(op.server_total_cycles)
        + cal.client_cycles_to_ns(op.client_cycles)
    )
    record_bytes = value_size + SEALED_OVERHEAD_BYTES
    # One record shipped primary -> backup over the server fabric: wire
    # time plus the backup's import (charged like the server half of a
    # put -- unseal, table insert).
    ship_ns = cal.server_nic.transfer_ns(record_bytes) + cal.server_cycles_to_ns(
        op.server_total_cycles
    )
    rng = random.Random(seed)
    result = ReplicationResult(
        value_size=value_size, samples=samples, failovers=failovers
    )

    for mode in ACK_MODES:
        for replicas in REPLICA_COUNTS:
            config = (mode, replicas)
            result.configs.append(config)
            # -- write-ack latency ----------------------------------------
            if mode == "sync":
                pre_ack = replicas * ship_ns
            elif mode == "semi-sync":
                pre_ack = ship_ns  # one witness before the ack
            else:
                pre_ack = 0.0
            latencies: List[float] = []
            for i in range(samples):
                latency = float(base_ns) + pre_ack
                if mode == "async" and (i + 1) % ASYNC_FLUSH_EVERY == 0:
                    # The flush burst serialises on the primary's NIC
                    # ahead of this write's ack turnaround.
                    latency += ASYNC_FLUSH_EVERY * replicas * ship_ns
                latencies.append(latency)
            latencies.sort()
            result.ack_overhead_us[config] = round(pre_ack / 1000.0, 2)
            result.put_p50_us[config] = round(
                _percentile(latencies, 0.50) / 1000.0, 2
            )
            result.put_p99_us[config] = round(
                _percentile(latencies, 0.99) / 1000.0, 2
            )
            # -- failover latency + acked loss ----------------------------
            failover_ns: List[float] = []
            lost_total = 0
            for _ in range(failovers):
                lag = rng.randrange(MAX_LAG_RECORDS + 1)
                if mode == "async":
                    # Unshipped tail: whatever the flush window held at
                    # the crash instant, plus any injected lag.  Every
                    # record was acked -- that is the loss.
                    lost_total += rng.randrange(ASYNC_FLUSH_EVERY) + lag
                # Promotion: detection timeout, survivors resync the lag
                # window from the electee, router reconnect + re-attest.
                resync = (replicas - 1) * lag * ship_ns
                failover_ns.append(
                    TIMEOUT_NS + resync + RECONNECT_NS + REATTEST_NS
                )
            failover_ns.sort()
            result.failover_p50_us[config] = round(
                _percentile(failover_ns, 0.50) / 1000.0, 1
            )
            result.failover_p99_us[config] = round(
                _percentile(failover_ns, 0.99) / 1000.0, 1
            )
            result.lost_per_failover[config] = round(
                lost_total / failovers, 3
            )

    # -- contract invariants the model must reproduce ----------------------
    for config in result.configs:
        mode, replicas = config
        if mode in ("sync", "semi-sync") and result.lost_per_failover[config]:
            result.model_failures.append(
                f"{mode}/r{replicas}: lost acked records "
                f"({result.lost_per_failover[config]})"
            )
    for replicas in REPLICA_COUNTS:
        ordered = [
            result.ack_overhead_us[(m, replicas)]
            for m in ("sync", "semi-sync", "async")
        ]
        if not ordered[0] >= ordered[1] >= ordered[2]:
            result.model_failures.append(
                f"r{replicas}: ack overhead not ordered "
                f"sync >= semi-sync >= async ({ordered})"
            )
    if not any(
        result.lost_per_failover[("async", r)] > 0 for r in REPLICA_COUNTS
    ):
        result.model_failures.append(
            "async: model produced no acked loss to detect"
        )
    return result
