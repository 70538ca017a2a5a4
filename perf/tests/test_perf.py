"""Tests of the benchmark itself.

Run with ``PYTHONPATH=src python -m pytest perf/tests -q`` from the
repository root (the tier-1 suite collects only ``tests/``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perf import ROOT
from perf import compare, run
from perf.layers import TARGETS
from perf.measure import measure
from perf.workloads import WORKLOADS
from repro.ycsb.generator import make_key


def _benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_traced_run_tiles_and_restores_every_wrapped_function():
    originals = {(t.owner, t.fn): t.owner.__dict__[t.fn] for t in TARGETS}
    raw = measure("ycsb-a-32b", seed=7, seconds=0.25, traced=True, warmup_s=0.3)
    layer = run.per_layer(raw)
    assert raw["failed"] == 0
    assert layer["core.client.get.calls_per_op"]["value"] > 0
    assert layer["trace.tiling_error"]["value"] < 0.01
    for target in TARGETS:
        assert target.owner.__dict__[target.fn] is originals[(target.owner, target.fn)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_op_streams_depend_only_on_the_seed(name):
    workload = WORKLOADS[name]
    assert workload.calls(7, ops=512) == workload.calls(7, ops=512)
    assert workload.calls(7, ops=512) != workload.calls(11, ops=512)


def test_corrupted_stored_value_fails_the_run(monkeypatch, capsys):
    hottest = make_key(0, WORKLOADS["ycsb-b-4k"].spec.key_size)

    def corrupt(system):
        entry = system.server._table.get(hottest)
        system.server.payload_store.corrupt(entry.ptr)

    def spawn_in_process(workload, seed, seconds, traced=False, setup_only=False):
        raw = measure(
            workload, seed, seconds, traced=traced, setup_only=setup_only,
            warmup_s=0.2, tamper=corrupt,
        )
        raw["setup_s"] = raw["setup_inproc_s"]
        return raw

    monkeypatch.setattr(run, "_spawn", spawn_in_process)
    code = run.main(["--workload", "ycsb-b-4k", "--quick", "--trace", "0"])
    final = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert final["correct"] is False and final["failed"] > 0


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_quick_run_emits_exactly_the_benchmark_metrics(trace, section):
    proc = subprocess.run(
        [sys.executable, "-m", "perf.run", "--quick", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    assert final["correct"] is True and final["failed"] == 0
    expected = {m["name"]: m["unit"] for m in _benchmark()[section]}
    for name in WORKLOADS:
        got = {
            key.split("/", 1)[1]: m["unit"]
            for key, m in final["metrics"].items()
            if key.startswith(name + "/")
        }
        assert got == expected


def test_benchmark_lists_every_workload():
    assert [w["name"] for w in _benchmark()["workloads"]] == list(WORKLOADS)


def _result_file(path, ops_per_s, seconds=10):
    metric = {"value": ops_per_s, "unit": "ops/s"}
    path.write_text(json.dumps({
        "manifest": run.manifest(["ycsb-a-32b"], seed=7, seconds=seconds, setups=3),
        "results": {"w": {"end_to_end": {"ops_per_s": metric}}},
    }))
    return str(path)


def test_compare_reports_unresolved_when_spread_exceeds_bound(tmp_path, capsys):
    parent = [_result_file(tmp_path / f"p{i}.json", v)
              for i, v in enumerate([100, 140, 70, 125, 85])]
    change = [_result_file(tmp_path / f"c{i}.json", v)
              for i, v in enumerate([101, 139, 72, 124, 86])]
    assert compare.main(["--parent", *parent, "--change", *change]) == 0
    assert "unresolved" in capsys.readouterr().out


def test_compare_refuses_runs_of_different_length(tmp_path, capsys):
    parent = [_result_file(tmp_path / "p.json", 100, seconds=10)]
    change = [_result_file(tmp_path / "c.json", 100, seconds=3)]
    assert compare.main(["--parent", *parent, "--change", *change]) == 2
    assert "seconds" in capsys.readouterr().err


@pytest.mark.parametrize(
    "parent,change,better,bound,expected",
    [
        ([100, 101, 99, 100], [120, 121, 119, 120], "higher", 0.1, compare.BETTER),
        ([100, 101, 99, 100], [95, 96, 94, 95], "higher", 0.1, compare.WITHIN),
        ([100, 101, 99, 100], [80, 81, 79, 80], "higher", 0.1, compare.WORSE),
        ([100, 101, 99, 100], [80, 81, 79, 80], "lower", 0.1, compare.BETTER),
        ([0, 0, 0], [0, 0, 0], "lower", 0.0, compare.WITHIN),
        ([0, 0, 0], [0, 0.001, 0], "lower", 0.0, compare.WORSE),
        ([0, 0, 0], [0.01, 0.01, 0.02], "lower", 0.0, compare.WORSE),
    ],
)
def test_compare_verdicts(parent, change, better, bound, expected):
    assert compare.verdict(parent, change, better, bound) == expected


def _execution(block, seconds, read_us=(1.0,), write_us=(1.0,)):
    return {"block": block, "seconds": seconds,
            "read_ops": len(read_us), "write_ops": len(write_us),
            "read_us": list(read_us), "write_us": list(write_us)}


def test_timings_come_from_each_blocks_fastest_execution():
    # Two blocks, each run three times; the slow executions are what a
    # busy host adds.
    executions = [
        _execution(0, 0.010, read_us=[4000.0]),
        _execution(1, 0.030, read_us=[9000.0]),
        _execution(0, 0.004, read_us=[1000.0]),
        _execution(1, 0.006, read_us=[3000.0]),
        _execution(0, 0.008, read_us=[2000.0]),
        _execution(1, 0.012, read_us=[5000.0]),
    ]
    fast = run.fastest_executions(executions)
    assert sorted((e["block"], e["seconds"]) for e in fast) == [(0, 0.004), (1, 0.006)]
    raw = {"executions": executions, "attempted": 12, "failed": 0,
           "rss_peak_kib": 1024, "enclave_trusted_bytes": 1024}
    metrics = run.end_to_end(raw, [1.0])
    assert metrics["ops_per_s"]["value"] == pytest.approx(4 / 0.010)
    assert metrics["read_p50_us"]["value"] == pytest.approx(2000.0)


def test_default_run_length_is_the_benchmark_run_seconds(monkeypatch, capsys):
    asked = []

    def fake_spawn(workload, seed, seconds, traced=False, setup_only=False):
        asked.append(seconds)
        execution = _execution(0, 1.0)
        return {"executions": [execution], "attempted": 2, "failed": 0, "raised": 0,
                "mismatches": 0, "integrity_failures": 0, "pool_errors": [],
                "setup_s": 1.0, "rss_peak_kib": 1024, "enclave_trusted_bytes": 1024}

    monkeypatch.setattr(run, "_spawn", fake_spawn)
    assert run.main(["--workload", "ycsb-a-32b", "--trace", "0"]) == 0
    assert asked[0] == _benchmark()["run_seconds"]


def test_benchmark_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    # The benchmark's calling convention, with BENCHMARK.json's run length.
    proc = subprocess.run(
        [sys.executable, "-m", "perf.run", "--workload", "ycsb-a-32b",
         "--seed", "1", "--seconds", str(_benchmark()["run_seconds"]),
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
