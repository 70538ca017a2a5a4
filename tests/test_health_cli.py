"""The health harness and its CLI front-ends (health / flightrec).

Acceptance criteria from the telemetry ISSUE: a seeded run with an
injected hot-shard latency fault must produce (a) a reconstructed
cross-shard trace with its retry hop, (b) an SLO breach report naming
the offending shard with windowed p99 evidence, and (c) a
flight-recorder dump containing the causing fault-log entries -- all
byte-identical under one seed.
"""

import json

import pytest

from repro.cli import main, run_flightrec_cmd, run_health_cmd
from repro.errors import ConfigurationError
from repro.faults import run_health
from repro.obs import FlightRecorder
from repro.shard import ClusterSpec


HOT = dict(
    seed=11, cluster=ClusterSpec(shards=2, replicas=1), ops=240,
    hot_shard="auto", schedule="drop:0.08",
)


class TestRunHealth:
    def test_clean_run_meets_slo(self):
        report = run_health(
            seed=11, cluster=ClusterSpec(shards=2, replicas=1), ops=240
        )
        assert report.slo_ok and report.exit_code == 0
        assert report.ticks == 6
        assert report.operations == 240 and report.errors == 0
        assert set(report.last_snapshot["shards"]) == {"shard-0", "shard-1"}
        assert report.dump is None
        assert "status: OK" in report.report()

    def test_hot_shard_breaches_with_windowed_evidence(self):
        report = run_health(**HOT)
        assert not report.slo_ok and report.exit_code == 1
        # (b) every breach names the hot shard, with p99 evidence.
        assert report.breaches
        for breach in report.breaches:
            assert breach["shard"] == report.hot_shard == "shard-0"
            assert breach["value"] > breach["limit"]
            assert breach["evidence"]["p99_ns"] > 1_000_000
            assert breach["evidence"]["ops"] > 0
        assert "shard-0" in report.slo_report

    def test_affected_trace_reconstructed_with_retry_hop(self):
        report = run_health(**HOT)
        # (a) at least one context carries the recovery from a dropped
        # frame, reconstructed hop by hop.
        trace = report.affected_trace
        assert trace is not None
        kinds = [hop["kind"] for hop in trace["hops"]]
        assert "route" in kinds
        assert set(kinds) & {"retry", "reconnect", "dup_reply", "revive"}
        assert trace["status"] == "ok"

    def test_dump_contains_causing_faults(self):
        report = run_health(**HOT)
        # (c) the frozen dump carries the injected fault-log entries.
        dump = report.dump
        assert dump is not None
        FlightRecorder.validate(dump)
        assert dump["trigger"]["reason"] == "slo_breach"
        entries = [f["entry"] for f in dump["faults"]]
        assert entries and all(e.startswith("drop") for e in entries)
        assert report.fault_log  # engine log mirrors the ring
        kinds = [e["kind"] for e in dump["events"]]
        assert "hot_shard_injected" in kinds

    def test_deterministic_under_one_seed(self):
        one = run_health(**HOT)
        two = run_health(**HOT)
        assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(
            two.to_dict(), sort_keys=True
        )
        assert json.dumps(one.dump, sort_keys=True) == json.dumps(
            two.dump, sort_keys=True
        )

    def test_custom_slo_spec_applies(self):
        # An absurdly tight objective turns even the clean run red.
        report = run_health(
            seed=11,
            cluster=ClusterSpec(shards=2, replicas=1),
            ops=80,
            slo="latency:p99<1us",
        )
        assert not report.slo_ok

    @pytest.mark.parametrize(
        "bad",
        [
            dict(ops=0),
            dict(tick_every=0),
            dict(shards=0),
            dict(hot_shard="nope"),
            dict(slo="garbage"),
            dict(schedule="bogus:0.5"),
        ],
    )
    def test_bad_config_rejected(self, bad):
        params = dict(seed=11, shards=2, ops=40)
        params.update(bad)
        shards = params.pop("shards")
        with pytest.raises(ConfigurationError):
            cluster = ClusterSpec(shards=shards, replicas=1)
            run_health(cluster=cluster, **params)

    def test_untyped_router_exception_escapes(self, monkeypatch):
        """A programming error in the router is not a typed failure: it
        crashes the run instead of counting as an error sample."""
        from repro.shard.router import ShardedClient

        def broken(self, *args, **kwargs):
            raise TypeError("router bug")

        monkeypatch.setattr(ShardedClient, "get", broken)
        monkeypatch.setattr(ShardedClient, "put", broken)
        with pytest.raises(TypeError, match="router bug"):
            run_health(seed=11, cluster=ClusterSpec(shards=2, replicas=1), ops=40)


class TestHealthCmd:
    def test_clean_text_report(self, tmp_path):
        text, code = run_health_cmd(
            seed=11,
            cluster=ClusterSpec(shards=2, replicas=1),
            ops=240,
            out_dir=tmp_path,
        )
        assert code == 0
        assert "status: OK" in text
        assert (tmp_path / "health.txt").read_text().rstrip("\n") == text

    def test_hot_run_json_exit_one(self, tmp_path):
        text, code = run_health_cmd(
            seed=11,
            cluster=ClusterSpec(shards=2, replicas=1),
            ops=240,
            hot_shard="auto",
            as_json=True,
            out_dir=tmp_path,
        )
        assert code == 1
        payload = json.loads(text)
        assert payload["slo_ok"] is False
        assert payload["breaches"][0]["shard"] == "shard-0"
        json.loads((tmp_path / "health.json").read_text())


class TestFlightrecCmd:
    def test_scenario_writes_parseable_dump(self, tmp_path):
        text, code = run_flightrec_cmd(out_dir=tmp_path)
        assert code == 0
        dump = json.loads((tmp_path / "flightrec.json").read_text())
        FlightRecorder.validate(dump)
        assert dump["trigger"]["reason"] == "slo_breach"

    def test_load_summary_and_trace_replay(self, tmp_path):
        run_flightrec_cmd(out_dir=tmp_path)
        path = tmp_path / "flightrec.json"
        summary, code = run_flightrec_cmd(load=path)
        assert code == 0 and "slo_breach" in summary
        trace_id = json.loads(path.read_text())["contexts"][-1]["trace_id"]
        text, code = run_flightrec_cmd(load=path, trace_id=trace_id)
        assert code == 0 and trace_id in text


class TestCliEntry:
    def test_health_exit_codes(self, capsys):
        assert main(["health", "--ops", "80"]) == 0
        assert "status: OK" in capsys.readouterr().out
        assert main(["health", "--ops", "240", "--hot-shard", "auto"]) == 1
        assert "BREACHED" in capsys.readouterr().out

    def test_health_bad_config_exit_two(self, capsys):
        assert main(["health", "--slo", "garbage"]) == 2
        assert "error:" in capsys.readouterr().err
        assert main(["health", "--hot-shard", "bogus"]) == 2

    def test_flightrec_round_trip(self, tmp_path, capsys):
        assert main(["flightrec", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        path = tmp_path / "flightrec.json"
        assert main(["flightrec", "--load", str(path)]) == 0
        assert "contexts" in capsys.readouterr().out
        assert main(["flightrec", "--load", str(path), "--trace", "nope"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_flightrec_load_missing_file_exit_two(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["flightrec", "--load", str(missing)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_list_mentions_new_commands(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "health" in out and "flightrec" in out
