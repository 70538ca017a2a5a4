"""Experiment runners: every paper artifact regenerates with the right shape."""

import pytest

from repro.bench import experiments as exp


@pytest.fixture(scope="module")
def fig4():
    return exp.run_fig4(quick=True)


@pytest.fixture(scope="module")
def fig5():
    return exp.run_fig5(quick=True, sizes=(16, 1024, 4096, 16384))


@pytest.fixture(scope="module")
def fig6():
    return exp.run_fig6(quick=True, client_counts=(10, 30, 55, 100))


@pytest.fixture(scope="module")
def fig6_all_counts():
    return exp.run_fig6(quick=True)


@pytest.fixture(scope="module")
def fig7():
    return exp.run_fig7(quick=True, sizes=(32, 512, 1024))


class TestFig1:
    def test_crypto_below_line_rate_for_small_buffers(self):
        result = exp.run_fig1()
        idx_1k = list(result.sizes).index(1024)
        assert result.threads12_mbps[idx_1k] < 0.7 * result.line_rate_mbps

    def test_crypto_approaches_line_rate_at_32k(self):
        result = exp.run_fig1()
        assert result.threads12_mbps[-1] > 0.9 * result.line_rate_mbps

    def test_12_threads_beat_6_threads(self):
        result = exp.run_fig1()
        assert all(
            t12 > t6
            for t12, t6 in zip(result.threads12_mbps, result.threads6_mbps)
        )

    def test_report_renders(self):
        text = exp.run_fig1().report()
        assert "Figure 1" in text and "40Gb line" in text


class TestFig4:
    def test_simulated_close_to_paper(self, fig4):
        for i, ratio in enumerate(fig4.read_ratios):
            paper = exp.PAPER_FIG4[ratio]
            for sys_idx, system in enumerate(
                ("precursor", "precursor-se", "shieldstore")
            ):
                simulated = fig4.simulated[system][i]
                assert simulated == pytest.approx(paper[sys_idx], rel=0.20), (
                    f"{system} at {ratio}"
                )

    def test_headline_speedups(self, fig4):
        assert 6 < fig4.speedup_over_shieldstore(1.0) < 11
        assert 6 < fig4.speedup_over_shieldstore(0.50) < 11
        assert 5 < fig4.speedup_over_shieldstore(0.05) < 11

    def test_client_encryption_beats_server_encryption_at_every_mix(
        self, fig4
    ):
        # Paper: up to ~40 %.
        for i in range(len(fig4.read_ratios)):
            precursor = fig4.simulated["precursor"][i]
            server_enc = fig4.simulated["precursor-se"][i]
            assert 1.1 < precursor / server_enc < 1.6

    def test_report_renders(self, fig4):
        text = fig4.report()
        assert "Figure 4" in text and "paper" in text


class TestFig5:
    def test_precursor_dominates_everywhere(self, fig5):
        for mix in (fig5.read_only, fig5.update_mostly):
            for i in range(len(fig5.sizes)):
                assert mix["precursor"][i] > mix["precursor-se"][i]
                assert mix["precursor-se"][i] > mix["shieldstore"][i]

    def test_shieldstore_matches_paper_scale(self, fig5):
        paper_read = dict(zip(exp.FIG5_SIZES, exp.PAPER_FIG5A["shieldstore"]))
        for i, size in enumerate(fig5.sizes):
            assert fig5.read_only["shieldstore"][i] == pytest.approx(
                paper_read[size], rel=0.25
            )

    def test_server_encryption_loses_a_third_at_4k(self, fig5):
        # Paper: SE loses ~34-49 % read-only at large sizes.
        i4k = list(fig5.sizes).index(4096)
        read = fig5.read_only
        assert read["precursor-se"][i4k] < 0.66 * read["precursor"][i4k]

    def test_shieldstore_peaks_low_and_decays(self, fig5):
        # Paper: ShieldStore peaks ~121/99 Kops and decays.
        assert fig5.sizes[0] == 16
        assert fig5.read_only["shieldstore"][0] < 135
        update = fig5.update_mostly["shieldstore"]
        assert update[-1] < update[0]

    def test_report_renders(self, fig5):
        text = fig5.report()
        assert "Figure 5a" in text and "Figure 5b" in text


class TestFig6:
    def test_throughput_rises_then_falls(self, fig6):
        series = fig6.simulated["precursor"]
        assert series[0] < series[1] < series[2]  # 10 < 30 < 55
        assert series[3] < series[2]  # 100 < 55

    def test_peak_near_55_clients(self, fig6):
        assert fig6.peak_clients("precursor") == 55

    def test_rises_from_30_to_50_clients(self, fig6_all_counts):
        counts = list(fig6_all_counts.client_counts)
        series = fig6_all_counts.simulated["precursor"]
        assert series[counts.index(30)] < series[counts.index(50)]

    def test_peak_within_50_to_60_clients(self, fig6_all_counts):
        assert fig6_all_counts.peak_clients("precursor") in (50, 55, 60)

    def test_shieldstore_flat_from_50_to_100_clients(self, fig6_all_counts):
        counts = list(fig6_all_counts.client_counts)
        ss = fig6_all_counts.simulated["shieldstore"]
        at_50, at_100 = ss[counts.index(50)], ss[counts.index(100)]
        assert abs(at_100 - at_50) < 0.2 * at_50

    def test_report_renders(self, fig6):
        assert "Figure 6" in fig6.report()


class TestFig7:
    def test_three_curves_at_32b(self, fig7):
        labels = set(fig7.curves[32])
        assert labels == {"Precursor", "ShieldStore", "Precursor+EPC"}

    def test_precursor_much_faster_than_shieldstore(self, fig7):
        p = fig7.curves[32]["Precursor"].summary
        ss = fig7.curves[32]["ShieldStore"].summary
        assert ss["p50_us"] > 10 * p["p50_us"]

    def test_epc_variant_slower_in_the_tail(self, fig7):
        base = fig7.curves[32]["Precursor"].summary
        paged = fig7.curves[32]["Precursor+EPC"].summary
        assert paged["p95_us"] >= base["p95_us"]
        assert paged["p99_us"] >= base["p99_us"]
        assert paged["p50_us"] < 1.4 * base["p50_us"]

    def test_precursor_tail_steady_to_p95(self, fig7):
        # Paper: p99 ~21 us, steady to p95.
        p = fig7.curves[32]["Precursor"].summary
        assert 8 < p["p99_us"] < 45
        assert p["p95_us"] < 0.8 * p["p99_us"] + 10

    def test_precursor_tail_bounded_at_every_size(self, fig7):
        # Paper: "with bigger values, Precursor tail-latency remains good".
        assert sorted(fig7.curves) == [32, 512, 1024]
        for curves in fig7.curves.values():
            assert curves["Precursor"].summary["p99_us"] < 60

    def test_cdfs_are_monotone(self, fig7):
        for curve in fig7.curves[32].values():
            latencies = [p.latency_ns for p in curve.cdf]
            assert latencies == sorted(latencies)

    def test_report_renders(self, fig7):
        assert "Figure 7" in fig7.report()


class TestFig8:
    def test_ratios_match_paper(self):
        result = exp.run_fig8()
        assert result.server_ratio(16) == pytest.approx(1.34, abs=0.12)
        assert result.server_ratio(8192) > result.server_ratio(16)
        assert result.server_ratio(8192) > 1.6  # paper: ~2.15x
        assert 20 < result.network_ratio(16) < 35

    def test_precursor_server_time_flat(self):
        result = exp.run_fig8()
        assert result.precursor_server_us[-1] == pytest.approx(
            result.precursor_server_us[0], rel=0.02
        )
        server_us = result.precursor_server_us
        assert max(server_us) < 1.02 * min(server_us)

    def test_shieldstore_server_time_grows(self):
        result = exp.run_fig8()
        assert result.shieldstore_server_us[-1] > result.shieldstore_server_us[0]
        assert (
            result.shieldstore_server_us[-1]
            > 1.3 * result.shieldstore_server_us[0]
        )

    def test_report_renders(self):
        assert "Figure 8" in exp.run_fig8().report()


class TestTable1:
    def test_quick_checkpoints_match_paper(self):
        result = exp.run_table1(quick=True)
        assert result.pages["precursor"][0] == 52
        assert result.pages["precursor"][1] == 65
        assert result.pages["shieldstore"][0] == 17392
        assert result.pages["shieldstore"][1] == 17586

    def test_precursor_footprint_grows_with_keys(self):
        result = exp.run_table1(quick=True)
        pages = result.pages["precursor"]
        assert pages[2] > pages[1] > pages[0]

    def test_shieldstore_footprint_nearly_static(self):
        result = exp.run_table1(quick=True)
        pages = result.pages["shieldstore"]
        assert pages[2] - pages[0] < 250

    def test_full_run_matches_paper_at_100k_keys(self):
        result = exp.run_table1()
        paper_pages = exp.PAPER_TABLE1["precursor"][100_000][0]
        measured = result.pages["precursor"][2]
        assert abs(measured - paper_pages) / paper_pages < 0.03
        assert result.pages["shieldstore"][2] == 17594

    def test_report_renders(self):
        assert "Table 1" in exp.run_table1(quick=True).report()
