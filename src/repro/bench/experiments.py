"""One runner per paper artifact: Figures 1, 4, 5, 6, 7, 8 and Table 1.

Each ``run_*`` function returns a result object whose ``report()`` renders
the same rows/series the paper presents, side by side with the paper's
reported numbers (``None`` where a value is not legible from the text).
Pass ``quick=True`` for shortened simulations (used by the test suite);
the benchmark harness runs the full versions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.bench.calibration import Calibration
from repro.bench.costs import SystemCosts
from repro.bench.report import Series, format_table
from repro.bench.simulation import SimulationConfig, simulate
from repro.core.protocol import OpCode
from repro.obs import ManualClock, Tracer, stage_breakdown
from repro.sim.stats import CdfPoint, ns_to_us
from repro.ycsb.workload import (
    UPDATE_MOSTLY,
    WORKLOAD_A,
    WORKLOAD_B,
    WORKLOAD_C,
)

__all__ = [
    "run_fig1",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_fig7",
    "run_fig8",
    "run_table1",
]

_SYSTEM_LABELS = {
    "precursor": "Precursor",
    "precursor-se": "Precursor-SE",
    "shieldstore": "ShieldStore",
}

# ---------------------------------------------------------------------------
# Paper-reported values (Kops/s unless stated).  None = not legible.
# ---------------------------------------------------------------------------

#: Figure 4 at 32 B values, 50 clients: read ratio -> (precursor, se, ss).
PAPER_FIG4 = {
    1.00: (1149, 817, 120),
    0.95: (1096, 781, 114),
    0.50: (849, 631, 103),
    0.05: (781, 554, 97),
}

FIG5_SIZES = (16, 64, 128, 512, 1024, 4096, 16384)

#: Figure 5a (read-only) per value size.
PAPER_FIG5A = {
    "precursor": (1197, 1155, 1126, 1182, 1171, 921, 778),
    "precursor-se": (781, 768, 743, 726, None, 476, 231),
    "shieldstore": (121, 118, 115, 114, 111, 97, 77),
}

#: Figure 5b (update-mostly) per value size.
PAPER_FIG5B = {
    "precursor": (721, 714, 706, 708, 697, 614, 561),
    "precursor-se": (593, 568, 552, 531, 408, None, None),
    "shieldstore": (99, 94, 96, 89, 79, 48, 22),
}

#: Table 1: system -> keys -> (pages, MiB).
PAPER_TABLE1 = {
    "precursor": {0: (52, 0.2), 1: (65, 0.25), 100_000: (2981, 11.6)},
    "shieldstore": {0: (17392, 67.9), 1: (17586, 68.6), 100_000: (17594, 68.7)},
}


# ---------------------------------------------------------------------------
# Figure 1
# ---------------------------------------------------------------------------

FIG1_SIZES = (16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768)


@dataclass
class Fig1Result:
    """Crypto decrypt+encrypt throughput vs RDMA line rate."""

    sizes: Sequence[int]
    threads12_mbps: List[float]
    threads6_mbps: List[float]
    line_rate_mbps: float

    def report(self) -> str:
        """Render the paper-style report for this artifact."""
        return format_table(
            "Figure 1: server-encryption crypto throughput vs 40 Gbit RDMA (MB/s)",
            [f"{s} B" for s in self.sizes],
            [
                Series("12 threads", self.threads12_mbps),
                Series("6 threads", self.threads6_mbps),
                Series("40Gb line", [self.line_rate_mbps] * len(self.sizes)),
            ],
            row_header="buffer",
        )


def run_fig1(calibration: Calibration = None, quick: bool = False) -> Fig1Result:
    """Regenerate Figure 1 from the crypto cost model."""
    del quick  # analytic; always fast
    cal = calibration if calibration is not None else Calibration()
    crypto = cal.crypto
    t12 = [
        crypto.reencrypt_throughput_mbps(s, cal.fig1_threads_12, cal.fig1_ghz)
        for s in FIG1_SIZES
    ]
    t6 = [
        crypto.reencrypt_throughput_mbps(s, cal.fig1_threads_6, cal.fig1_ghz)
        for s in FIG1_SIZES
    ]
    return Fig1Result(
        sizes=FIG1_SIZES,
        threads12_mbps=t12,
        threads6_mbps=t6,
        line_rate_mbps=cal.server_nic.line_rate_mbps() * 0.94,  # iperf goodput
    )


# ---------------------------------------------------------------------------
# Figure 4
# ---------------------------------------------------------------------------


@dataclass
class Fig4Result:
    """Throughput by read ratio for the three systems."""

    read_ratios: Sequence[float]
    simulated: Dict[str, List[float]]  # system -> kops per ratio

    def report(self) -> str:
        """Render the paper-style report for this artifact."""
        columns = []
        for system in ("precursor", "precursor-se", "shieldstore"):
            columns.append(
                Series(_SYSTEM_LABELS[system], self.simulated[system])
            )
            columns.append(
                Series(
                    "paper",
                    [
                        PAPER_FIG4[r][
                            ("precursor", "precursor-se", "shieldstore").index(
                                system
                            )
                        ]
                        for r in self.read_ratios
                    ],
                )
            )
        return format_table(
            "Figure 4: throughput (Kops/s) vs read ratio, 32 B values, 50 clients",
            [f"{int(r * 100)}% read" for r in self.read_ratios],
            columns,
            row_header="workload",
        )

    def speedup_over_shieldstore(self, read_ratio: float) -> float:
        """Precursor / ShieldStore ratio at one mix (paper: 5.9-8.5x)."""
        idx = list(self.read_ratios).index(read_ratio)
        return (
            self.simulated["precursor"][idx]
            / self.simulated["shieldstore"][idx]
        )


_FIG4_WORKLOADS = (WORKLOAD_C, WORKLOAD_B, WORKLOAD_A, UPDATE_MOSTLY)


def run_fig4(
    calibration: Calibration = None, quick: bool = False, seed: int = 11
) -> Fig4Result:
    """Regenerate Figure 4 via discrete-event simulation."""
    cal = calibration if calibration is not None else Calibration()
    duration, warmup = (12.0, 3.0) if quick else (60.0, 10.0)
    simulated: Dict[str, List[float]] = {}
    for system in ("precursor", "precursor-se", "shieldstore"):
        series = []
        for workload in _FIG4_WORKLOADS:
            result = simulate(
                SimulationConfig(
                    system=system,
                    workload=workload,
                    duration_ms=duration,
                    warmup_ms=warmup,
                    seed=seed,
                    calibration=cal,
                )
            )
            series.append(result.kops)
        simulated[system] = series
    return Fig4Result(
        read_ratios=[w.read_fraction for w in _FIG4_WORKLOADS],
        simulated=simulated,
    )


# ---------------------------------------------------------------------------
# Figure 5
# ---------------------------------------------------------------------------


@dataclass
class Fig5Result:
    """Throughput vs value size for read-only and update-mostly mixes."""

    sizes: Sequence[int]
    read_only: Dict[str, List[float]]
    update_mostly: Dict[str, List[float]]

    def _table(self, title: str, simulated, paper) -> str:
        columns = []
        for system in ("precursor", "precursor-se", "shieldstore"):
            columns.append(Series(_SYSTEM_LABELS[system], simulated[system]))
            columns.append(Series("paper", list(paper[system])))
        return format_table(
            title, [f"{s} B" for s in self.sizes], columns, row_header="value"
        )

    def report(self) -> str:
        """Render the paper-style report for this artifact."""
        return (
            self._table(
                "Figure 5a: read-only throughput (Kops/s) vs value size",
                self.read_only,
                PAPER_FIG5A,
            )
            + "\n\n"
            + self._table(
                "Figure 5b: update-mostly throughput (Kops/s) vs value size",
                self.update_mostly,
                PAPER_FIG5B,
            )
        )


def run_fig5(
    calibration: Calibration = None,
    quick: bool = False,
    seed: int = 23,
    sizes: Sequence[int] = FIG5_SIZES,
) -> Fig5Result:
    """Regenerate Figures 5a and 5b."""
    cal = calibration if calibration is not None else Calibration()
    duration, warmup = (10.0, 2.5) if quick else (45.0, 8.0)
    out = {"read_only": {}, "update_mostly": {}}
    for mix_name, base in (
        ("read_only", WORKLOAD_C),
        ("update_mostly", UPDATE_MOSTLY),
    ):
        for system in ("precursor", "precursor-se", "shieldstore"):
            series = []
            for size in sizes:
                result = simulate(
                    SimulationConfig(
                        system=system,
                        workload=base.with_value_size(size),
                        duration_ms=duration,
                        warmup_ms=warmup,
                        seed=seed,
                        calibration=cal,
                    )
                )
                series.append(result.kops)
            out[mix_name][system] = series
    return Fig5Result(
        sizes=sizes,
        read_only=out["read_only"],
        update_mostly=out["update_mostly"],
    )


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------

FIG6_CLIENTS = (10, 20, 30, 40, 50, 55, 60, 70, 80, 90, 100)


@dataclass
class Fig6Result:
    """Read-only throughput vs client count."""

    client_counts: Sequence[int]
    simulated: Dict[str, List[float]]

    def peak_clients(self, system: str = "precursor") -> int:
        """Client count at which the system peaks (paper: ~55)."""
        series = self.simulated[system]
        return self.client_counts[series.index(max(series))]

    def report(self) -> str:
        """Render the paper-style report for this artifact."""
        columns = [
            Series(_SYSTEM_LABELS[s], self.simulated[s])
            for s in ("precursor", "precursor-se", "shieldstore")
        ]
        table = format_table(
            "Figure 6: read-only throughput (Kops/s) vs client count, 32 B",
            [str(c) for c in self.client_counts],
            columns,
            row_header="clients",
        )
        return (
            table
            + f"\n\nPrecursor peak at {self.peak_clients()} clients "
            "(paper: maximum at 55 clients, then declining)"
        )


def run_fig6(
    calibration: Calibration = None,
    quick: bool = False,
    seed: int = 31,
    client_counts: Sequence[int] = FIG6_CLIENTS,
) -> Fig6Result:
    """Regenerate Figure 6 (client scaling)."""
    cal = calibration if calibration is not None else Calibration()
    duration, warmup = (12.0, 3.0) if quick else (50.0, 10.0)
    simulated: Dict[str, List[float]] = {}
    for system in ("precursor", "precursor-se", "shieldstore"):
        series = []
        for clients in client_counts:
            result = simulate(
                SimulationConfig(
                    system=system,
                    workload=WORKLOAD_C,
                    clients=clients,
                    duration_ms=duration,
                    warmup_ms=warmup,
                    seed=seed,
                    calibration=cal,
                )
            )
            series.append(result.kops)
        simulated[system] = series
    return Fig6Result(client_counts=client_counts, simulated=simulated)


# ---------------------------------------------------------------------------
# Figure 7
# ---------------------------------------------------------------------------

FIG7_SIZES = (32, 512, 1024)


@dataclass
class Fig7Curve:
    """One CDF of Figure 7."""

    label: str
    value_size: int
    cdf: List[CdfPoint]
    summary: Dict[str, float]


@dataclass
class Fig7Result:
    """Latency CDFs for 32 B / 512 B / 1024 B, plus the EPC-paging run."""

    curves: Dict[int, Dict[str, Fig7Curve]]  # size -> label -> curve

    def report(self) -> str:
        """Render the paper-style report for this artifact."""
        blocks = []
        for size, by_label in self.curves.items():
            labels = list(by_label)
            metrics = ("p50_us", "p90_us", "p95_us", "p99_us")
            columns = [
                Series(
                    label,
                    [by_label[label].summary[m] for m in metrics],
                )
                for label in labels
            ]
            blocks.append(
                format_table(
                    f"Figure 7: get() latency percentiles (us), {size} B values",
                    [m.replace("_us", "") for m in metrics],
                    columns,
                    row_header="pct",
                )
            )
        return "\n\n".join(blocks)


def run_fig7(
    calibration: Calibration = None,
    quick: bool = False,
    seed: int = 41,
    sizes: Sequence[int] = FIG7_SIZES,
    clients: int = 20,
) -> Fig7Result:
    """Regenerate Figure 7 (latency CDFs, including EPC paging).

    Runs at moderate load (20 clients) so queueing does not dominate --
    matching the paper's steady tail up to the 95th percentile.
    """
    cal = calibration if calibration is not None else Calibration()
    duration, warmup = (25.0, 5.0) if quick else (150.0, 20.0)
    curves: Dict[int, Dict[str, Fig7Curve]] = {}
    for size in sizes:
        by_label: Dict[str, Fig7Curve] = {}
        runs = [
            ("Precursor", "precursor", 600_000),
            ("ShieldStore", "shieldstore", 600_000),
        ]
        if size == sizes[0]:
            # The EPC-paging variant: 3 M loaded entries (§5.3).
            runs.append(("Precursor+EPC", "precursor", 3_000_000))
        for label, system, loaded in runs:
            result = simulate(
                SimulationConfig(
                    system=system,
                    workload=WORKLOAD_C.with_value_size(size),
                    clients=clients,
                    duration_ms=duration,
                    warmup_ms=warmup,
                    seed=seed,
                    loaded_keys=loaded,
                    calibration=cal,
                )
            )
            by_label[label] = Fig7Curve(
                label=label,
                value_size=size,
                cdf=result.latency.cdf(points=200),
                summary=result.latency.summary(),
            )
        curves[size] = by_label
    return Fig7Result(curves=curves)


# ---------------------------------------------------------------------------
# Figure 8
# ---------------------------------------------------------------------------

FIG8_SIZES = (16, 64, 128, 512, 1024, 4096, 8192)


@dataclass
class Fig8Result:
    """Average get() latency split into networking and server processing."""

    sizes: Sequence[int]
    precursor_server_us: List[float]
    precursor_network_us: List[float]
    shieldstore_server_us: List[float]
    shieldstore_network_us: List[float]

    def server_ratio(self, size: int) -> float:
        """ShieldStore/Precursor server-time ratio (paper: 1.34x -> 2.15x)."""
        idx = list(self.sizes).index(size)
        return self.shieldstore_server_us[idx] / self.precursor_server_us[idx]

    def network_ratio(self, size: int) -> float:
        """TCP/RDMA networking ratio (paper: ~26x for small messages)."""
        idx = list(self.sizes).index(size)
        return (
            self.shieldstore_network_us[idx] / self.precursor_network_us[idx]
        )

    def report(self) -> str:
        """Render the paper-style report for this artifact."""
        table = format_table(
            "Figure 8: average get() latency breakdown (us)",
            [f"{s} B" for s in self.sizes],
            [
                Series("P server", self.precursor_server_us),
                Series("P network", self.precursor_network_us),
                Series("SS server", self.shieldstore_server_us),
                Series("SS network", self.shieldstore_network_us),
            ],
            row_header="value",
        )
        small, large = self.sizes[0], self.sizes[-1]
        return table + (
            f"\n\nserver-time ratio SS/P: {self.server_ratio(small):.2f}x at "
            f"{small} B (paper 1.34x), {self.server_ratio(large):.2f}x at "
            f"{large} B (paper 2.15x); networking ratio "
            f"{self.network_ratio(small):.0f}x (paper ~26x)"
        )


def fig8_traces(cal: Calibration, tracer: Tracer) -> None:
    """Record one analytic get() trace per (system, value size) pair.

    The tracer must run on a :class:`~repro.obs.clock.ManualClock`; each
    stage advances it by the cost-model duration, so the resulting spans
    carry exactly the analytic per-stage times.
    """
    clock = tracer.clock
    p_costs = SystemCosts("precursor", cal, read_fraction=1.0)
    ss_costs = SystemCosts("shieldstore", cal, read_fraction=1.0)
    for size in FIG8_SIZES:
        p = p_costs.op_cost(OpCode.GET, size)
        p_cycles = p.server_total_cycles - cal.precursor_poll_overhead_cycles
        with tracer.start("get", system="precursor", value_size=size) as trace:
            with trace.stage("server"):
                clock.advance(int(round(cal.server_cycles_to_ns(p_cycles))))
            with trace.stage("network"):
                clock.advance(
                    cal.client_nic.transfer_ns(p.request_bytes, inline=True)
                    + cal.server_nic.transfer_ns(
                        p.response_bytes, inline=False
                    )
                )
        ss = ss_costs.op_cost(OpCode.GET, size)
        with tracer.start(
            "get", system="shieldstore", value_size=size
        ) as trace:
            with trace.stage("server"):
                clock.advance(
                    int(round(cal.server_cycles_to_ns(ss.server_total_cycles)))
                )
            with trace.stage("network"):
                clock.advance(
                    cal.tcp.one_way_ns(ss.request_bytes)
                    + cal.tcp.one_way_ns(ss.response_bytes)
                )


def run_fig8(calibration: Calibration = None, quick: bool = False) -> Fig8Result:
    """Regenerate Figure 8 analytically, routed through ``repro.obs``.

    Each (system, value size) pair is recorded as one span-based trace on a
    manual clock (see :func:`fig8_traces`); the breakdown columns are then
    read back from :func:`~repro.obs.exporters.stage_breakdown` rather than
    private bookkeeping, so the figure exercises the same pipeline as live
    request traces.
    """
    del quick  # analytic
    cal = calibration if calibration is not None else Calibration()
    tracer = Tracer(clock=ManualClock())
    fig8_traces(cal, tracer)
    breakdown = stage_breakdown(
        tracer.finished, group_by=("system", "value_size")
    )

    def column(system: str, stage: str) -> List[float]:
        return [
            ns_to_us(breakdown[(system, size)][stage]) for size in FIG8_SIZES
        ]

    return Fig8Result(
        sizes=FIG8_SIZES,
        precursor_server_us=column("precursor", "server"),
        precursor_network_us=column("precursor", "network"),
        shieldstore_server_us=column("shieldstore", "server"),
        shieldstore_network_us=column("shieldstore", "network"),
    )


# ---------------------------------------------------------------------------
# Table 1
# ---------------------------------------------------------------------------


@dataclass
class Table1Result:
    """EPC working set at 0 / 1 / N inserted keys, both systems."""

    checkpoints: Sequence[int]
    pages: Dict[str, List[int]]  # system -> pages per checkpoint
    mib: Dict[str, List[float]]

    def report(self) -> str:
        """Render the paper-style report for this artifact."""
        columns = []
        for system in ("precursor", "shieldstore"):
            columns.append(Series(_SYSTEM_LABELS[system], self.pages[system]))
            columns.append(
                Series(
                    "paper",
                    [
                        PAPER_TABLE1[system].get(k, (None,))[0]
                        for k in self.checkpoints
                    ],
                )
            )
        return format_table(
            "Table 1: EPC working set (4 KiB pages) vs inserted keys",
            [f"{k} keys" for k in self.checkpoints],
            columns,
            row_header="inserts",
        )


def run_table1(
    quick: bool = False, max_keys: int = 100_000, seed: int = 5
) -> Table1Result:
    """Regenerate Table 1 by driving the *functional* servers.

    Inserts through the real storage paths and reads the trusted-page
    census sgx-perf style.  ``quick=True`` stops at 10 k keys.
    """
    from repro.baselines.shieldstore import ShieldStoreConfig, ShieldStoreServer
    from repro.core.server import PrecursorServer, _Entry
    from repro.crypto.keys import KeyGenerator
    from repro.rdma.fabric import Fabric
    from repro.sgx.sgxperf import measure_working_set
    from repro.ycsb.generator import make_key

    if quick:
        max_keys = min(max_keys, 10_000)
    checkpoints = [0, 1, max_keys]

    pages: Dict[str, List[int]] = {"precursor": [], "shieldstore": []}
    mib: Dict[str, List[float]] = {"precursor": [], "shieldstore": []}

    # Precursor: real server, bulk loader (crypto-free control path; real
    # allocator/table/pool work).
    keygen = KeyGenerator(seed=seed)
    precursor = PrecursorServer(fabric=Fabric(), keygen=keygen)
    precursor.start()
    value = b"v" * 32
    client_added = False

    def precursor_insert(start: int, stop: int) -> None:
        k_op = keygen.operation_key()
        fake_mac = b"\x00" * 16
        for index in range(start, stop):
            entry = _Entry(k_operation=k_op, client_id=1)
            precursor._place(entry, value + fake_mac, inline=False)
            precursor._install(make_key(index), entry)

    inserted = 0
    for checkpoint in checkpoints:
        if checkpoint > 0 and not client_added:
            # A client connects (and gets its session state page) before
            # any insert can happen -- the "0 keys/init" column predates it.
            precursor.enclave.ecall("add_client", 1, keygen.session_key())
            client_added = True
        precursor_insert(inserted, checkpoint)
        inserted = checkpoint
        report = measure_working_set(precursor.enclave, "precursor", checkpoint)
        pages["precursor"].append(report.pages)
        mib["precursor"].append(report.mib)

    # ShieldStore: real server with the crypto-free accounting seal.
    shieldstore = ShieldStoreServer(
        config=ShieldStoreConfig(num_buckets=16_384, real_crypto=False)
    )
    inserted = 0
    for checkpoint in checkpoints:
        for index in range(inserted, checkpoint):
            shieldstore.put(make_key(index), value)
        inserted = checkpoint
        report = measure_working_set(
            shieldstore.enclave, "shieldstore", checkpoint
        )
        pages["shieldstore"].append(report.pages)
        mib["shieldstore"].append(report.mib)

    return Table1Result(checkpoints=checkpoints, pages=pages, mib=mib)
