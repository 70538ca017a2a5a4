"""The artifact registry and its one writer, driven through the CLI.

Runners are swapped for canned results, so these tests check the wiring
(names, files, exit codes) without paying for any real run.
"""

import dataclasses
import json
import pathlib

import pytest

from repro.bench import batching, export
from repro.bench.artifacts import ARTIFACTS
from repro.cli import build_parser, main


class _Canned:
    """A stand-in result with a fixed report, JSON form and exit code."""

    def __init__(self, exit_code=0):
        self.exit_code = exit_code

    def report(self):
        return "canned report"

    def to_dict(self):
        return {"canned": True}


def _can(monkeypatch, name, result):
    """Make ``name``'s runner return ``result``."""
    entry = ARTIFACTS[name]
    monkeypatch.setitem(
        ARTIFACTS, name, dataclasses.replace(entry, run=lambda quick: result)
    )


@pytest.mark.parametrize("name", list(ARTIFACTS))
def test_entry_is_wired(name, monkeypatch, tmp_path, capsys):
    assert main(["list"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert name in listed
    assert build_parser().parse_args([name]).artifact == name

    stem = ARTIFACTS[name].stem
    _can(monkeypatch, name, _Canned())
    for quick, json_name in ((True, f"{stem}_quick.json"),
                             (False, f"{stem}.json")):
        out = tmp_path / ("quick" if quick else "full")
        argv = [name, "--out", str(out)] + (["--quick"] if quick else [])
        assert main(argv) == 0
        assert "canned report" in (out / f"{name}.txt").read_text()
        written = [path.name for path in out.glob("*.json")]
        if stem is None:
            assert written == []
        else:
            assert written == [json_name]
            assert json.loads((out / json_name).read_text()) == {
                "canned": True
            }

    _can(monkeypatch, name, _Canned(exit_code=1))
    assert main([name, "--out", str(tmp_path / "failing")]) == 1


def test_full_run_writes_to_working_dir_and_quick_to_bench_reports(
    monkeypatch, tmp_path, capsys
):
    monkeypatch.chdir(tmp_path)
    _can(monkeypatch, "loadknee", _Canned())
    assert main(["loadknee"]) == 0
    assert main(["loadknee", "--quick"]) == 0
    assert (tmp_path / "BENCH_traffic.json").exists()
    assert (tmp_path / "bench_reports" / "BENCH_traffic_quick.json").exists()
    out = capsys.readouterr().out
    assert "[measurements saved to BENCH_traffic.json]" in out
    assert not list(tmp_path.glob("*.txt"))


def test_json_flag_prints_the_measurements(monkeypatch, tmp_path, capsys):
    _can(monkeypatch, "cryptobench", _Canned())
    assert main(["cryptobench", "--json", "--out", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out) == {"canned": True}


def test_json_flag_without_measurements_is_refused_unless_all(
    monkeypatch, tmp_path, capsys
):
    def must_not_run(quick):
        raise AssertionError("ran before the --json check")

    monkeypatch.setitem(
        ARTIFACTS,
        "scorecard",
        dataclasses.replace(ARTIFACTS["scorecard"], run=must_not_run),
    )
    assert main(["scorecard", "--json", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "error: 'scorecard' does not take --json\n"
    )
    assert not tmp_path.exists() or not list(tmp_path.iterdir())

    for name in list(ARTIFACTS):
        _can(monkeypatch, name, _Canned())
    assert main(["all", "--quick", "--json", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    gated = [name for name, entry in ARTIFACTS.items() if entry.stem]
    assert out.count('"canned": true') == len(gated)
    assert out.count("canned report") == len(ARTIFACTS) - len(gated)


def test_every_committed_report_is_a_registry_entry():
    reports = pathlib.Path(__file__).resolve().parent.parent / "bench_reports"
    names = [path.stem for path in reports.glob("*.txt")]
    assert "fig4" in names and "ablations" in names
    assert [name for name in names if name not in ARTIFACTS] == []


class TestCsv:
    def test_single_artifact_without_exporter_is_refused(
        self, monkeypatch, tmp_path, capsys
    ):
        def must_not_run(quick):
            raise AssertionError("ran before the --csv check")

        monkeypatch.setitem(
            ARTIFACTS,
            "loadknee",
            dataclasses.replace(ARTIFACTS["loadknee"], run=must_not_run),
        )
        code = main(["loadknee", "--quick", "--out", str(tmp_path), "--csv"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.iterdir())

    def test_all_writes_every_exporter(self, monkeypatch, tmp_path, capsys):
        exported = [name for name, e in ARTIFACTS.items() if e.csv]
        assert "fig4" in exported and "loadknee" not in exported
        monkeypatch.setitem(export._EXPORTERS, _Canned, lambda r: "x,y\n")
        for name in list(ARTIFACTS):
            _can(monkeypatch, name, _Canned())
        code = main(["all", "--quick", "--out", str(tmp_path), "--csv"])
        assert code == 0
        assert sorted(p.stem for p in tmp_path.glob("*.csv")) == sorted(
            exported
        )
        assert len(list(tmp_path.glob("*.txt"))) == len(ARTIFACTS)


@pytest.mark.parametrize("quick,floor", [(True, 1.05), (False, 1.3)])
def test_batchbench_floor_follows_quick(
    quick, floor, monkeypatch, tmp_path, capsys
):
    monkeypatch.setattr(batching, "_identity_checks", lambda **kw: [])
    monkeypatch.setattr(batching, "_kernel_bench", lambda repeats: {})
    monkeypatch.setattr(
        batching, "_ycsb_a_pump", lambda k, ops: 1.0 if k == 1 else 0.5
    )
    argv = ["batchbench", "--out", str(tmp_path)] + (
        ["--quick"] if quick else []
    )
    assert main(argv) == 0
    name = "BENCH_batching_quick.json" if quick else "BENCH_batching.json"
    payload = json.loads((tmp_path / name).read_text())
    assert payload["bounds"][f"K=16 speedup >= {floor}x"]["bound"] == floor
    assert payload["per_k"]["16"]["min_speedup"] == 2.0
