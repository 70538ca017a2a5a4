"""Extension experiments (beyond-paper sensitivity studies)."""

import dataclasses

import pytest

from repro.bench.extensions import (
    run_ext_epc_sweep,
    run_ext_inline,
    run_ext_zipfian,
)


class TestZipfianSensitivity:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ext_zipfian(quick=True)

    def test_covers_all_systems(self, result):
        assert list(result.systems) == [
            "precursor", "precursor-se", "shieldstore"
        ]

    def test_precursor_skew_insensitive(self, result):
        idx = list(result.systems).index("precursor")
        assert result.zipfian_kops[idx] == pytest.approx(
            result.uniform_kops[idx], rel=0.1
        )

    def test_shieldstore_suffers_under_skew(self, result):
        idx = list(result.systems).index("shieldstore")
        assert result.zipfian_kops[idx] < result.uniform_kops[idx]

    def test_report_renders(self, result):
        assert "zipfian" in result.report()

    def test_bounds_hold(self, result):
        assert result.exit_code == 0, result.report()

    def test_skew_sensitive_precursor_fails_its_bound(self, result):
        idx = list(result.systems).index("precursor")
        zipfian = list(result.zipfian_kops)
        zipfian[idx] = 0.5 * result.uniform_kops[idx]
        broken = dataclasses.replace(result, zipfian_kops=zipfian)
        assert broken.exit_code == 1
        assert broken.report().endswith(
            "FAILED bound: precursor zipfian > 0.9x uniform"
        )


class TestEpcSweep:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ext_epc_sweep(
            quick=True, key_counts=(1_000_000, 3_000_000, 6_000_000)
        )

    def test_no_faults_below_epc(self, result):
        assert result.fault_fraction[0] == 0.0

    def test_faults_grow_with_dataset(self, result):
        assert result.fault_fraction[-1] > result.fault_fraction[1] > 0

    def test_throughput_degrades_gracefully(self, result):
        # Even at 6 M keys (65 % fault rate) throughput loses ~10 %, not 10x:
        # the fault cost (20 K cycles) is small next to the per-op budget.
        assert result.kops[-1] > 0.8 * result.kops[0]

    def test_report_renders(self, result):
        assert "EPC" in result.report()

    def test_bounds_hold(self, result):
        assert result.exit_code == 0, result.report()

    def test_faults_below_the_epc_fail_their_bound(self, result):
        faults = [0.01] + list(result.fault_fraction[1:])
        broken = dataclasses.replace(result, fault_fraction=faults)
        assert broken.exit_code == 1
        assert "FAILED bound: no faults at the smallest dataset" in (
            broken.report()
        )


class TestInlineModel:
    @pytest.fixture(scope="class")
    def result(self):
        return run_ext_inline()

    def test_inline_saves_client_cycles(self, result):
        for ext, inl in zip(
            result.client_cycles_external, result.client_cycles_inline
        ):
            assert inl < ext

    def test_savings_grow_within_the_threshold(self, result):
        savings = [
            ext - inl
            for ext, inl in zip(
                result.client_cycles_external, result.client_cycles_inline
            )
        ]
        # Inline replaces Salsa20+CMAC (~4.8 cycles/B marginal) with GCM
        # over a slightly longer control blob (~2.75 cycles/B), so the
        # advantage *grows* towards the threshold -- absolute and relative.
        assert savings == sorted(savings)
        ratios = [
            inl / ext
            for ext, inl in zip(
                result.client_cycles_external, result.client_cycles_inline
            )
        ]
        assert ratios == sorted(ratios, reverse=True)
        assert all(s > 0 for s in savings)

    def test_trusted_cost_grows_with_value(self, result):
        assert (
            result.trusted_bytes_per_key_inline
            == sorted(result.trusted_bytes_per_key_inline)
        )

    def test_report_renders(self, result):
        assert "5.2" in result.report()

    def test_bounds_hold(self, result):
        assert result.exit_code == 0, result.report()

    def test_trusted_cost_above_threshold_plus_mac_fails(self, result):
        trusted = list(result.trusted_bytes_per_key_inline[:-1]) + [77]
        broken = dataclasses.replace(
            result, trusted_bytes_per_key_inline=trusted
        )
        assert broken.exit_code == 1
        assert broken.report().endswith(
            "FAILED bound: trusted bytes per key <= 60 + 16"
        )
