"""The one verdict shape: every gated bench is a ``Bounded`` map.

Each bench runs here on canned phase results (or, for the modelled
replication sweep, its quick run), so the tests pin the statements,
their comparisons and what the exit code, JSON and text read off them,
without paying for a real bench run.
"""

import json
import pathlib
from types import SimpleNamespace

import pytest

import repro.faults.harness
from repro.bench import (
    autoscale,
    batching,
    cryptobench,
    loadknee,
    nearcache,
    replicate,
)
from repro.bench.artifacts import ARTIFACTS
from repro.bench.report import (
    Bound,
    Bounded,
    above,
    at_least,
    at_most,
    below,
    equal,
)


class TestComparators:
    def test_a_value_equal_to_its_bound(self):
        assert at_least(5.0, 5.0).held
        assert at_most(0.8, 0.8).held
        assert equal(0, 0).held
        assert not below(400.0, 400.0).held
        assert not above(1.4, 1.4).held

    def test_either_side_of_the_bound(self):
        assert at_least(5.1, 5.0).held and not at_least(4.9, 5.0).held
        assert at_most(0.7, 0.8).held and not at_most(0.9, 0.8).held
        assert below(1, 2).held and not below(3, 2).held
        assert above(3, 2).held and not above(1, 2).held
        assert not equal([1], []).held

    def test_an_unmeasured_value_never_holds(self):
        for compare in (at_least, at_most, above, below, equal):
            bound = compare(None, 1.0)
            assert bound == Bound(None, 1.0, False)


class _Result(Bounded):
    def __init__(self, checks):
        self.checks = checks


class TestVerdict:
    def test_exit_code_json_and_text_read_one_map(self):
        result = _Result(
            {"x >= 1": at_least(2, 1), "y <= 1": at_most(3, 1)}
        )
        assert result.exit_code == 1 and not result.ok
        assert result.verdict() == {
            "bounds": {
                "x >= 1": {"value": 2, "bound": 1, "held": True},
                "y <= 1": {"value": 3, "bound": 1, "held": False},
            },
            "ok": False,
        }
        assert result.failed_bounds() == "\nFAILED bound: y <= 1"

    def test_all_held(self):
        result = _Result({"x >= 1": at_least(1, 1)})
        assert result.exit_code == 0 and result.ok
        assert result.failed_bounds() == ""


# -- canned phase results ---------------------------------------------------


def _report(**fields):
    """A stand-in scenario or chaos report with every field the benches
    read; ``fields`` override the healthy defaults."""
    values = dict(
        rate_ops_s=1000,
        ops=100,
        executed=100,
        errors=0,
        throughput_ops_s=1000.0,
        p99_ns=1_000_000,
        gap=1.0,
        knee=1000,
        nearcache=None,
        primary_gets=100,
        backup_gets=0,
        shards=1,
        duration_ns=100_000_000,
        correction_ok=True,
        slo_ok=True,
        autoscale=False,
        autoscale_summary=None,
        autoscale_decisions=[],
        exit_code=0,
        ok=True,
        state_digest="digest",
        violations=[],
        offload_served=0,
        offload_fallbacks=0,
        losses_detected=0,
        tamper_detected=0,
        lost_records=0,
        fault_fingerprint="fingerprint",
        autoscale_applied=1,
        autoscale_flapping=0,
        autoscale_log=[],
    )
    values.update(fields)
    report = SimpleNamespace(**values)
    tail = {"p50_ns": report.p99_ns, "p99_ns": report.p99_ns,
            "p999_ns": report.p99_ns}
    report.corrected_tail = lambda: dict(tail)
    report.uncorrected_tail = lambda: {
        k: int(v / report.gap) for k, v in tail.items()
    }
    report.omission_gap = lambda: report.gap
    report.to_dict = lambda: {"rate_ops_s": report.rate_ops_s}
    return report


def _find_knee(probe, lo, hi, **kwargs):
    """A knee search of one probe: the canned report names its knee."""
    return SimpleNamespace(knee_ops_s=probe(lo).knee, probes=[])


def _can_loadknee(monkeypatch, knees):
    """Knees per shard count; gap 3.0 at 2x the knee, 1.0 at half."""

    def run_scenario(name, seed, cluster, ops, rate):
        knee = knees[cluster.shards]
        return _report(knee=knee, gap=3.0 if rate >= 2 * knee else 1.0)

    monkeypatch.setattr(loadknee, "run_scenario", run_scenario)
    monkeypatch.setattr(loadknee, "find_knee", _find_knee)


def _can_nearcache(monkeypatch, multi_tenant_primary=70):
    """Cached knee 2x; cache+offload keeps 0.8x of hot-key-storm's
    primary GETs and ``multi_tenant_primary`` % of the other's."""

    def run_scenario(name, seed, cluster, ops, rate):
        both = cluster.near_cache and cluster.read_offload
        primary = 100
        if both:
            primary = 80 if name == "hot-key-storm" else multi_tenant_primary
        return _report(
            knee=2000 if both else 1000,
            primary_gets=primary,
            nearcache={"offload_served": 5} if cluster.read_offload else None,
        )

    monkeypatch.setattr(nearcache, "run_scenario", run_scenario)
    monkeypatch.setattr(nearcache, "find_knee", _find_knee)
    monkeypatch.setattr(
        repro.faults.harness, "run_chaos", lambda *a, **kw: _report()
    )


def _can_autoscale(monkeypatch, elastic_shard_ms=100.0):
    """Static-4 spends 4 x 100 ms = 400 shard-ms; the elastic run spends
    ``elastic_shard_ms``."""

    def run_scenario(name, seed, ops, cluster=None, rate=None, **kwargs):
        if not kwargs.get("autoscale"):
            return _report(shards=cluster.shards)
        return _report(
            autoscale=True,
            autoscale_summary={
                "final_shards": 2,
                "shard_ms": elastic_shard_ms,
                "decisions": 3,
                "applied": 1,
                "flapping": 0,
                "log_sha256": "abc",
            },
            autoscale_decisions=[{"outcome": "applied", "t_ns": 50_000_000}],
        )

    monkeypatch.setattr(autoscale, "run_scenario", run_scenario)
    monkeypatch.setattr(autoscale, "find_knee", _find_knee)
    monkeypatch.setattr(
        repro.faults.harness, "run_chaos", lambda *a, **kw: _report()
    )


def _can_cryptobench(monkeypatch, fast=8.0):
    """Every fast primitive runs ``fast`` times the reference's MB/s."""
    monkeypatch.setattr(cryptobench, "parity_check", lambda: [])
    monkeypatch.setattr(
        cryptobench,
        "_bench_primitives",
        lambda sizes, repeats, inner: {
            eng: {
                prim: {4096: speed}
                for prim in ("salsa20", "cmac", "gcm_seal", "gcm_open")
            }
            for eng, speed in (("reference", 1.0), ("fast", fast))
        },
    )
    monkeypatch.setattr(
        cryptobench,
        "_bench_e2e",
        lambda eng, ops, value_size, chaos_ops, ycsb_ops: {
            "put_ops_per_s": 1.0, "get_ops_per_s": 1.0,
            "ycsb_a_ops_per_s": 1.0, "chaos_wall_s": 1.0,
            "ycsb_a_wall_s": 1.0, "chaos_ok": 1.0,
        },
    )


def _can_batchbench(monkeypatch, k16_seconds=0.5, chaos_ok=True):
    """K=1 pumps in 1 s, every other K in ``k16_seconds``."""
    monkeypatch.setattr(
        batching,
        "_identity_checks",
        lambda scenario_ops, chaos_ops: {
            "steady report sha256 at K=16 == K=1": equal("a", "a"),
            "chaos run at K=1 verifies clean": equal(chaos_ok, True),
        },
    )
    monkeypatch.setattr(batching, "_kernel_bench", lambda repeats: {})
    monkeypatch.setattr(
        batching, "_ycsb_a_pump", lambda k, ops: 1.0 if k == 1 else k16_seconds
    )


_HEALTHY = {
    "loadknee": lambda mp: _can_loadknee(mp, {1: 1000, 2: 2000}),
    "nearcachebench": _can_nearcache,
    "autoscalebench": _can_autoscale,
    "cryptobench": _can_cryptobench,
    "batchbench": _can_batchbench,
    # The replication sweep is a quick Monte-Carlo model: it runs as is.
    "replicate": lambda mp: None,
}

#: Bounds of each gated artifact's quick run.
_QUICK_BOUNDS = {
    "loadknee": 5,
    "nearcachebench": 9,
    "autoscalebench": 10,
    "cryptobench": 5,
    "batchbench": 3,
    "replicate": 10,
}


def test_every_gated_artifact_returns_one_bounded_map(monkeypatch):
    gated = {name for name, entry in ARTIFACTS.items() if entry.stem}
    assert gated == set(_HEALTHY) == set(_QUICK_BOUNDS)
    for name in sorted(gated):
        _HEALTHY[name](monkeypatch)
        result = ARTIFACTS[name].run(quick=True)
        assert isinstance(result, Bounded), name
        bounds = result.bounds()
        assert len(bounds) == _QUICK_BOUNDS[name], name
        payload = json.loads(json.dumps(result.to_dict()))
        verdict = {
            key for key in payload
            if key in ("bounds", "ok", "gates", "violations", "floor")
            or key.endswith("_failures")
        }
        assert verdict == {"bounds", "ok"}, name
        assert payload["bounds"] == json.loads(
            json.dumps({s: b._asdict() for s, b in bounds.items()})
        )
        held = [b["held"] for b in payload["bounds"].values()]
        assert payload["ok"] is all(held) is True, name
        assert result.exit_code == 0
        assert "FAILED bound" not in result.report()


def _only_failure(result, statement):
    """``statement`` is the run's one failed bound, and the text says so."""
    failed = [s for s, b in result.bounds().items() if not b.held]
    assert failed == [statement]
    assert result.exit_code == 1
    assert result.to_dict()["ok"] is False
    assert result.report().endswith(f"\nFAILED bound: {statement}")


class TestOneFailedBound:
    def test_loadknee_knee_falls_with_scale(self, monkeypatch):
        _can_loadknee(monkeypatch, {1: 1200, 2: 1000})
        result = loadknee.run_loadknee(quick=True)
        _only_failure(result, "2 shard(s): knee >= the 1-shard knee")
        assert result.bounds()["2 shard(s): knee >= the 1-shard knee"] == (
            Bound(1000, 1200, False)
        )

    def test_nearcache_shed_over_the_max(self, monkeypatch):
        _can_nearcache(monkeypatch, multi_tenant_primary=90)
        result = nearcache.run_nearcachebench(quick=True)
        _only_failure(
            result,
            "multi-tenant-contention: cache+offload primary GETs <= 0.8x "
            "baseline",
        )
        # A shed of exactly 0.8x holds.
        shed = result.bounds()[
            "hot-key-storm: cache+offload primary GETs <= 0.8x baseline"
        ]
        assert shed == Bound(0.8, 0.8, True)

    def test_autoscale_shard_ms_tie_with_static_4(self, monkeypatch):
        _can_autoscale(monkeypatch, elastic_shard_ms=400.0)
        result = autoscale.run_autoscalebench(quick=True)
        _only_failure(
            result, "elastic recovery shard-ms < static-4 shard-ms"
        )

    def test_replicate_async_loses_nothing(self, monkeypatch):
        monkeypatch.setattr(replicate, "ASYNC_FLUSH_EVERY", 1)
        monkeypatch.setattr(replicate, "MAX_LAG_RECORDS", 0)
        result = replicate.run_replication(quick=True)
        _only_failure(result, "async: some acked loss to detect")

    def test_cryptobench_below_the_floor(self, monkeypatch):
        _can_cryptobench(monkeypatch, fast=8.0)
        monkeypatch.setattr(cryptobench, "FLOOR", 2.0)
        assert cryptobench.run_cryptobench(quick=True).exit_code == 0
        # 8x on each primitive: the payload path is exactly 8x too.
        monkeypatch.setattr(cryptobench, "FLOOR", 8.5)
        result = cryptobench.run_cryptobench(quick=True)
        failed = [s for s, b in result.bounds().items() if not b.held]
        assert failed == [
            "payload_4096B_salsa20+cmac speedup >= 8.5x",
            "transport_4096B_gcm_seal speedup >= 8.5x",
        ]
        monkeypatch.setattr(cryptobench, "FLOOR", 8.0)
        assert cryptobench.run_cryptobench(quick=True).exit_code == 0

    def test_cryptobench_chaos_smoke_fails(self, monkeypatch):
        _can_cryptobench(monkeypatch)
        e2e = cryptobench._bench_e2e
        monkeypatch.setattr(
            cryptobench,
            "_bench_e2e",
            lambda eng, **kw: {
                **e2e(eng, **kw), "chaos_ok": float(eng == "reference")
            },
        )
        _only_failure(
            cryptobench.run_cryptobench(quick=True),
            "chaos smoke passes under the fast engine",
        )

    def test_batchbench_below_the_quick_floor(self, monkeypatch):
        _can_batchbench(monkeypatch, k16_seconds=1.0)
        result = batching.run_batchbench(quick=True)
        _only_failure(result, "K=16 speedup >= 1.05x")
        assert result.bounds()["K=16 speedup >= 1.05x"] == Bound(
            1.0, 1.05, False
        )


class TestEarlyStop:
    def test_cryptobench_parity_failure_lists_every_bound(
        self, monkeypatch
    ):
        _can_cryptobench(monkeypatch)
        monkeypatch.setattr(cryptobench, "parity_check", lambda: ["cmac"])
        result = cryptobench.run_cryptobench(quick=True)
        assert result.primitives == {} and result.e2e == {}
        bounds = result.bounds()
        assert len(bounds) == 5
        assert bounds["engines byte-identical"] == Bound(["cmac"], [], False)
        assert [b.value for b in bounds.values()][1:] == [None] * 4
        assert not any(b.held for b in bounds.values())

    def test_batchbench_identity_failure_lists_every_bound(
        self, monkeypatch
    ):
        _can_batchbench(monkeypatch, chaos_ok=False)
        result = batching.run_batchbench(quick=True)
        assert result.per_k == {}
        assert [(s, b.held) for s, b in result.bounds().items()] == [
            ("steady report sha256 at K=16 == K=1", True),
            ("chaos run at K=1 verifies clean", False),
            ("K=16 speedup >= 1.05x", False),
        ]
        assert result.bounds()["K=16 speedup >= 1.05x"].value is None


@pytest.mark.parametrize(
    "stem", ["BENCH_traffic", "BENCH_nearcache", "BENCH_autoscale",
             "BENCH_replication"],
)
def test_committed_deterministic_artifacts_hold_every_bound(stem):
    root = pathlib.Path(__file__).resolve().parent.parent
    for path in (root / f"{stem}.json",
                 root / "bench_reports" / f"{stem}_quick.json"):
        payload = json.loads(path.read_text())
        assert payload["bounds"] and payload["ok"] is True
        assert all(b["held"] for b in payload["bounds"].values())
