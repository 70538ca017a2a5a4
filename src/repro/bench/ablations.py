"""Ablations: what each Precursor design choice contributes.

Each ablation flips one design decision DESIGN.md calls out -- in the
calibrated model or on the functional servers -- and reports one line:

- **client_offload**: client-side vs server-side payload crypto (the
  core idea);
- **rdma_vs_tcp**: one-sided RDMA vs kernel TCP (paper: 26x latency);
- **enclave_transitions**: in-enclave polling vs per-request ecalls;
- **pool_batching**: batched pool growth vs an ocall per request;
- **inline_small_values**: the §5.2 future-work extension, measured
  functionally;
- **strict_integrity**: enclave-held MACs (§3.9 hardening);
- **epc_headroom**: the EPC-friendly metadata layout.

Every ablation carries bounds; the result is
:class:`~repro.bench.report.Bounded`, so its ``exit_code`` is 1 when any
fails, and the report names it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.bench.calibration import Calibration
from repro.bench.costs import SystemCosts
from repro.bench.report import Bound, Bounded, above, equal
from repro.bench.simulation import SimulationConfig, simulate
from repro.core import ServerConfig, make_pair
from repro.net.tcp import TcpCostModel
from repro.rdma.nic import RNic
from repro.ycsb.workload import WORKLOAD_C

__all__ = ["AblationsResult", "run_ablations"]

#: One ablation's report line and its bounds.
_Outcome = Tuple[str, Dict[str, Bound]]


@dataclass
class AblationsResult(Bounded):
    """One report line per ablation, and every bound they check."""

    lines: List[str]
    checks: Dict[str, Bound]

    def report(self) -> str:
        """The ablation lines in order, then any failed bound."""
        return "\n".join(self.lines) + self.failed_bounds()


def _client_offload(quick: bool) -> _Outcome:
    """Remove client offloading -> the server-encryption variant."""
    duration, warmup = (8.0, 2.0) if quick else (12.0, 3.0)

    def kops(system: str) -> float:
        return simulate(
            SimulationConfig(
                system=system,
                workload=WORKLOAD_C,
                duration_ms=duration,
                warmup_ms=warmup,
            )
        ).kops

    with_offload, without_offload = kops("precursor"), kops("precursor-se")
    gain = with_offload / without_offload
    return (
        f"client-side crypto offload: {with_offload:.0f} vs "
        f"{without_offload:.0f} Kops/s read-only "
        f"({gain:.2f}x; paper: up to 1.4x)",
        {
            "client_offload: 1.15 < gain < 1.6": Bound(
                gain, [1.15, 1.6], 1.15 < gain < 1.6
            )
        },
    )


def _rdma_vs_tcp(quick: bool) -> _Outcome:
    """Swap the network: one-sided RDMA against the kernel TCP stack."""
    rdma_ns = RNic().transfer_ns(64, inline=True)
    tcp_ns = TcpCostModel().one_way_ns(64)
    ratio = tcp_ns / rdma_ns
    return (
        f"one-way 64 B message: RDMA {rdma_ns} ns vs TCP {tcp_ns} ns "
        f"({ratio:.0f}x; paper: ~26x)",
        {
            "rdma_vs_tcp: 20 < TCP/RDMA < 35": Bound(
                ratio, [20, 35], 20 < ratio < 35
            )
        },
    )


def _enclave_transitions(quick: bool) -> _Outcome:
    """What per-request ecalls would cost: add 2 x 13 K cycles per op."""
    cal = Calibration()
    costs = SystemCosts("precursor", cal, read_fraction=1.0)
    base_cycles = costs.mean_cycles(32)
    polling = cal.server_capacity_kops(base_cycles)
    transitions = cal.server_capacity_kops(
        base_cycles + 2 * cal.transitions.ecall_cycles
    )
    gain = polling / transitions
    return (
        f"in-enclave polling {polling:.0f} Kops/s vs per-request "
        f"ecall/ocall {transitions:.0f} Kops/s "
        f"({gain:.2f}x from avoiding transitions)",
        {
            "enclave_transitions: polling/transitions > 1.4": above(
                gain, 1.4
            )
        },
    )


def _pool_batching(quick: bool) -> _Outcome:
    """Batched arena growth vs an ocall per request (functional count).

    The 8 KiB arena is small enough that the run outgrows it: 256 B
    values fill one arena every 30 or so puts.
    """
    server, client = make_pair(config=ServerConfig(arena_size=8 * 1024), seed=13)
    requests = 50 if quick else 200
    for i in range(requests):
        client.put(f"k{i}".encode(), b"v" * 256)
    ocalls = server.payload_store.grow_count
    return (
        f"{requests} puts triggered {ocalls} pool-growth ocalls "
        f"(naive design: {requests} ocalls, one per request)",
        {
            "pool_batching: 1 <= ocalls < requests / 10": Bound(
                ocalls, [1, requests / 10], 1 <= ocalls < requests / 10
            )
        },
    )


def _inline_small_values(quick: bool) -> _Outcome:
    """The §5.2 extension: inline storage avoids the untrusted pool for
    values below the control-data size, at a trusted-memory cost."""
    inline_cfg = ServerConfig(inline_small_values=True)
    server_inline, client_inline = make_pair(config=inline_cfg, seed=14)
    server_plain, client_plain = make_pair(seed=14)
    n = 30 if quick else 100
    for i in range(n):
        client_inline.put(f"k{i}".encode(), b"v" * 8)
        client_plain.put(f"k{i}".encode(), b"v" * 8)
    inline_trusted = server_inline.enclave.allocator.bytes_for("inline_values")
    inline_untrusted = server_inline.payload_store.live_bytes
    plain_untrusted = server_plain.payload_store.live_bytes
    return (
        f"{n} tiny puts: inline mode stores {inline_trusted} B in the "
        f"enclave and {inline_untrusted} B untrusted; default stores 0 B "
        f"in-enclave, {plain_untrusted} B untrusted",
        {
            "inline_small_values: inline mode stores 0 B untrusted": equal(
                inline_untrusted, 0
            ),
            "inline_small_values: default mode stores > 0 B untrusted": above(
                plain_untrusted, 0
            ),
        },
    )


def _strict_integrity(quick: bool) -> _Outcome:
    """§3.9 hardening: enclave-held MACs add trusted bytes per entry."""
    strict_cfg = ServerConfig(strict_integrity=True)
    server_strict, client_strict = make_pair(config=strict_cfg, seed=15)
    server_plain, client_plain = make_pair(seed=15)
    n = 30 if quick else 100
    for i in range(n):
        client_strict.put(f"k{i}".encode(), b"v" * 64)
        client_plain.put(f"k{i}".encode(), b"v" * 64)
    return (
        "strict-integrity mode stores the 16 B MAC per entry in trusted "
        "memory and ships it over the sealed channel; default mode keeps "
        "the MAC untrusted (client-verified only). Both verified "
        "functionally; throughput impact is one extra sealed field.",
        {
            "strict_integrity: both modes store every key": equal(
                server_strict.key_count, server_plain.key_count
            )
        },
    )


def _epc_headroom(quick: bool) -> _Outcome:
    """Precursor's compact metadata defers paging; a fat layout would not."""
    cal = Calibration()
    compact = cal.epc.fault_probability(
        int(3_000_000 * cal.epc_hot_bytes_per_entry)
    )
    # A layout keeping full values (+32 B) in the enclave, as a naive
    # design might, would fault far more at the same key count.
    fat = cal.epc.fault_probability(
        int(3_000_000 * (cal.epc_hot_bytes_per_entry + 48))
    )
    return (
        f"EPC fault probability at 3 M keys: compact metadata "
        f"{compact:.3f} vs value-carrying layout {fat:.3f}",
        {
            "epc_headroom: value-carrying faults > 5x compact": above(
                fat, 5 * compact
            )
        },
    )


_ABLATIONS = (
    _client_offload,
    _rdma_vs_tcp,
    _enclave_transitions,
    _pool_batching,
    _inline_small_values,
    _strict_integrity,
    _epc_headroom,
)


def run_ablations(quick: bool = False) -> AblationsResult:
    """Run every ablation in order; ``quick`` shortens the runs."""
    lines: List[str] = []
    checks: Dict[str, Bound] = {}
    for ablation in _ABLATIONS:
        line, bounds = ablation(quick)
        lines.append(line)
        checks.update(bounds)
    return AblationsResult(lines=lines, checks=checks)
