"""Chaos harness with the elastic controller live."""

import pytest

from repro.errors import ConfigurationError
from repro.faults.harness import run_chaos
from repro.shard import ClusterSpec

_SCHEDULE = "drop:0.05,shard_death:0.04,replica_lag:0.08"


def _run(seed=7, **kwargs):
    kwargs.setdefault("ops", 150)
    kwargs.setdefault(
        "cluster", ClusterSpec(shards=3, replicas=1, ack_mode="semi-sync")
    )
    return run_chaos(seed, _SCHEDULE, autoscale=True, **kwargs)


class TestChaosWithController:
    def test_shadow_model_holds_while_controller_actuates(self):
        report = _run()
        assert report.ok, report.violations
        assert report.autoscale
        assert report.autoscale_applied >= 1
        assert report.autoscale_flapping == 0
        # The final readback verified every surviving key against the
        # shadow model even though the autoscaler moved keys mid-run.
        assert report.state_digest

    def test_autoscale_section_in_report_dict(self):
        report = _run()
        section = report.to_dict()["autoscale"]
        assert section["applied"] == report.autoscale_applied
        assert section["flapping"] == 0
        assert len(section["log"]) == report.autoscale_decisions

    def test_decision_log_deterministic_under_chaos(self):
        first = _run()
        second = _run()
        assert first.autoscale_log == second.autoscale_log
        assert first.fault_fingerprint == second.fault_fingerprint
        assert first.state_digest == second.state_digest

    def test_clean_schedule_with_controller_matches_shadow(self):
        report = run_chaos(
            11,
            "",
            ops=120,
            cluster=ClusterSpec(shards=2, replicas=1),
            autoscale=True,
        )
        assert report.ok, report.violations

    def test_autoscale_requires_a_sharded_run(self):
        with pytest.raises(ConfigurationError):
            run_chaos(7, "", ops=50, autoscale=True)  # unsharded

    def test_chaos_cli_flag_runs_the_controller(self, capsys):
        from repro.cli import main

        code = main([
            "chaos", "--autoscale", "--shards", "3", "--replicas", "1",
            "--ack-mode", "semi-sync", "--ops", "120",
            "--schedule", _SCHEDULE,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "autoscale" in out
        assert "flapping=0" in out

    def test_chaos_cli_flag_rejects_unsharded(self, capsys):
        from repro.cli import main

        code = main(["chaos", "--autoscale", "--ops", "50"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
