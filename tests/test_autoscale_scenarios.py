"""Autoscaler under open-loop traffic: elasticity, determinism, CLI."""

import json

from repro.obs.exporters import lint_prometheus
from repro.shard import ClusterSpec
from repro.traffic.scenarios import run_scenario


def _elastic(seed=3, ops=200, **kwargs):
    kwargs.setdefault("cluster", ClusterSpec(shards=1, replicas=1))
    kwargs.setdefault("autoscale_max_shards", 4)
    return run_scenario(
        "flash-crowd", seed=seed, ops=ops, autoscale=True, **kwargs
    )


class TestElasticScenario:
    def test_flash_crowd_scales_out_without_flapping(self):
        report = _elastic()
        summary = report.autoscale_summary
        assert summary["applied"] >= 1
        assert summary["final_shards"] > 1
        assert summary["flapping"] == 0
        assert summary["actions"].get("scale-out", 0) >= 1
        # Every decision is logged, applied and refused alike.
        outcomes = {d["outcome"] for d in report.autoscale_decisions}
        assert "applied" in outcomes

    def test_decision_logs_byte_identical_per_seed(self):
        first = _elastic()
        second = _elastic()
        assert first.autoscale_log == second.autoscale_log
        assert (
            first.autoscale_summary["log_sha256"]
            == second.autoscale_summary["log_sha256"]
        )
        blob_a = json.dumps(first.to_dict(), sort_keys=True)
        blob_b = json.dumps(second.to_dict(), sort_keys=True)
        assert blob_a == blob_b

    def test_default_runs_carry_no_autoscale_section(self):
        report = run_scenario(
            "flash-crowd",
            seed=3,
            cluster=ClusterSpec(shards=1, replicas=1),
            ops=120,
        )
        assert report.autoscale is False
        assert "autoscale" not in report.to_dict()
        assert "autoscale" not in report.report()

    def test_report_renders_the_autoscale_summary(self):
        report = _elastic()
        text = report.report()
        assert "autoscale:" in text
        assert "flapping=0" in text

    def test_autoscale_metrics_have_help_text(self):
        from repro.obs.exporters import prometheus_text

        report = _elastic()
        assert report.autoscale  # the run exercised the families
        # The scenario's registry is internal; re-derive one through a
        # direct controller run instead.
        from repro.autoscale import AutoScaler, StabilityGuard
        from repro.obs import ManualClock, ObsContext
        from repro.obs.telemetry import ClusterTelemetry, ShardSample
        from repro.shard import ShardedCluster

        obs = ObsContext.create(clock=ManualClock())
        cluster = ShardedCluster(shards=1, seed=5, obs=obs)
        scaler = AutoScaler(
            cluster,
            policy="scale-out:p99>1ms:for=1",
            guard=StabilityGuard(max_shards=2),
        )
        snap = ClusterTelemetry(
            tick=1,
            t_ns=5_000_000,
            window_ticks=2,
            shards={
                "shard-0": ShardSample(
                    shard="shard-0", ops=10, p99_ns=5_000_000
                )
            },
            faults={},
        )
        scaler.on_snapshot(snap)
        text = prometheus_text(obs.registry)
        for family in (
            "autoscale_decisions_total",
            "autoscale_shards",
            "autoscale_backups",
            "autoscale_pressure",
        ):
            assert family in text
        assert lint_prometheus(text, require_help=True) == []


def test_flapping_fails_the_traffic_verdict():
    from repro.traffic.report import TRAFFIC_SLO_SPEC, TrafficReport

    report = TrafficReport(
        scenario="flash-crowd", version=1, seed=3, shards=1, replicas=1,
        rate_ops_s=700.0, ops=1, arrival_kind="poisson", schedule="",
        slo_spec=TRAFFIC_SLO_SPEC, total_sessions=1, autoscale=True,
        autoscale_summary={"flapping": 0},
    )
    assert report.exit_code == 0
    report.autoscale_summary = {"flapping": 1}
    assert report.exit_code == 1
    # The bench's per-run SLO verdict stays the SLO's: flapping is
    # reported in its own autoscale section.
    from repro.bench.autoscale import _run_slice

    assert _run_slice(report)["slo_ok"] is True


class TestCli:
    def test_autoscale_command_runs_clean(self, capsys):
        from repro.cli import main

        code = main(["autoscale", "--seed", "3", "--ops", "150"])
        out = capsys.readouterr().out
        assert code == 0
        assert "autoscale:" in out

    def test_autoscale_command_rejects_bad_policy(self, capsys):
        from repro.cli import main

        code = main(["autoscale", "--policy", "grow:p99>2ms"])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_autoscale_command_rejects_bad_bounds(self, capsys):
        from repro.cli import main

        code = main(
            ["autoscale", "--shards", "4", "--max-shards", "2"]
        )
        assert code == 2

    def test_autoscalebench_is_registered(self):
        from repro.bench.artifacts import ARTIFACTS
        from repro.cli import build_parser

        assert "autoscalebench" in ARTIFACTS
        assert ARTIFACTS["autoscalebench"].description
        parser = build_parser()
        args = parser.parse_args(["autoscale", "--max-shards", "6"])
        assert args.max_shards == 6
