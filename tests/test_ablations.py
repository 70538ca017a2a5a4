"""Ablations: one bounded report line per Precursor design choice."""

import pytest

from repro.bench.ablations import run_ablations
from repro.net.tcp import TcpCostModel


@pytest.fixture(scope="module")
def result():
    return run_ablations(quick=True)


def test_one_line_per_ablation(result):
    assert len(result.lines) == 7
    assert result.report().splitlines() == result.lines


def test_bounds_hold(result):
    assert result.exit_code == 0, result.report()


def test_pool_outgrows_its_arena_without_an_ocall_per_put(result):
    assert result.lines[3].startswith(
        "50 puts triggered 1 pool-growth ocalls"
    )


def test_failed_bound_exits_1_and_is_named(monkeypatch):
    monkeypatch.setattr(TcpCostModel, "one_way_ns", lambda self, n: 5_000)
    broken = run_ablations(quick=True)
    assert broken.exit_code == 1
    assert broken.report().endswith(
        "FAILED bound: rdma_vs_tcp: 20 < TCP/RDMA < 35"
    )
