"""The reproduction scorecard and the YCSB 'latest' distribution."""

import dataclasses

import pytest

from repro.bench.scorecard import Claim, run_scorecard
from repro.errors import ConfigurationError
from repro.ycsb import LatestChooser, WorkloadSpec
from repro.ycsb.generator import OperationStream


class TestLatestDistribution:
    def test_newest_records_are_hottest(self):
        chooser = LatestChooser(1000, seed=3)
        counts = {}
        for _ in range(10_000):
            idx = chooser.next_index()
            counts[idx] = counts.get(idx, 0) + 1
        newest_share = sum(
            counts.get(i, 0) for i in range(900, 1000)
        ) / 10_000
        oldest_share = sum(counts.get(i, 0) for i in range(100)) / 10_000
        assert newest_share > 4 * oldest_share

    def test_indices_in_range(self):
        chooser = LatestChooser(50, seed=4)
        for _ in range(2000):
            assert 0 <= chooser.next_index() < 50

    def test_hotspot_follows_newest_pointer(self):
        chooser = LatestChooser(1000, seed=5)
        chooser.newest = 499
        hot = sum(
            1 for _ in range(5000) if 400 <= chooser.next_index() <= 499
        )
        assert hot > 2500  # bulk of accesses near the moving head

    def test_spec_accepts_latest(self):
        spec = WorkloadSpec(
            name="latest", read_fraction=0.9, record_count=100,
            distribution="latest",
        )
        stream = OperationStream(spec, seed=6)
        ops = [stream.next_operation() for _ in range(50)]
        assert len(ops) == 50

    def test_spec_rejects_unknown(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(
                name="bad", read_fraction=0.5, distribution="gaussian"
            )


class TestScorecard:
    @pytest.fixture(scope="class")
    def result(self):
        return run_scorecard(quick=True)

    def test_all_claims_reproduce(self, result):
        failing = [c for c in result.claims if not c.holds]
        assert failing == [], result.report()

    def test_covers_every_artifact(self, result):
        sources = " ".join(claim.source for claim in result.claims)
        for marker in ("Fig.1", "§5.2", "§5.3", "Table 1"):
            assert marker in sources

    def test_report_format(self, result):
        text = result.report()
        assert "Reproduction scorecard" in text
        assert f"{result.passed}/{result.total}" in text
        assert "PASS" in text

    def test_claim_fields(self, result):
        for claim in result.claims:
            assert isinstance(claim, Claim)
            assert claim.statement and claim.measured and claim.source

    def test_at_least_ten_claims(self, result):
        assert result.total >= 10

    def test_exit_code_follows_every_claim(self, result):
        assert result.exit_code == 0
        claims = list(result.claims)
        claims[-1] = dataclasses.replace(claims[-1], holds=False)
        assert dataclasses.replace(result, claims=claims).exit_code == 1
