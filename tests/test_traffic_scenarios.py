"""Scenario registry, end-to-end runs, and the determinism contract.

Satellite acceptance: the same seed must yield a byte-identical
serialized report AND an identical fault-log fingerprint when a
``FaultSchedule`` is armed; the knee search must be seed-deterministic.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.shard import ClusterSpec
from repro.traffic import (
    SCENARIOS,
    find_knee,
    list_scenarios,
    run_scenario,
)

LOOSE_SLO = "latency:p99<500ms:min=8,errors:budget=50%:burn<50"


def _dumps(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestRegistry:
    def test_ships_the_documented_scenarios(self):
        assert list_scenarios() == sorted(
            [
                "steady",
                "bursty",
                "diurnal",
                "flash-crowd",
                "hot-key-storm",
                "multi-tenant-contention",
            ]
        )

    def test_every_scenario_is_versioned(self):
        for scenario in SCENARIOS.values():
            assert scenario.version >= 1
            assert scenario.description
            assert scenario.default_ops >= 1

    def test_unknown_scenario_raises(self):
        with pytest.raises(ConfigurationError):
            run_scenario("rush-hour")

    def test_bad_parameters_raise(self):
        with pytest.raises(ConfigurationError):
            run_scenario("steady", cluster=ClusterSpec(shards=0))
        with pytest.raises(ConfigurationError):
            run_scenario("steady", ops=0)


class TestRuns:
    def test_steady_run_holds_invariants(self):
        report = run_scenario(
            "steady", seed=11, cluster=ClusterSpec(shards=2), ops=120,
            slo=LOOSE_SLO,
        )
        assert report.executed > 0
        assert report.errors == 0
        assert (
            report.corrected_tail()["p99_ns"]
            >= report.uncorrected_tail()["p99_ns"]
        )
        assert report.omission_gap() >= 1.0
        assert report.exit_code == 0
        text = report.report()
        assert "corrected" in text and "uncorrected" in text

    def test_overload_breaches_and_exits_one(self):
        # 2 shards saturate around ~2.5 kops/s; 8 kops/s is far past
        # the knee, so the default SLO must breach at run level.
        report = run_scenario(
            "steady", seed=11, cluster=ClusterSpec(shards=2), ops=150,
            rate=8000.0,
        )
        assert not report.slo_ok
        assert report.exit_code == 1
        assert report.omission_gap() > 2.0

    def test_multi_tenant_throttles_only_the_limited_cohort(self):
        report = run_scenario(
            "multi-tenant-contention",
            seed=11,
            cluster=ClusterSpec(shards=2),
            ops=250,
            slo=LOOSE_SLO,
        )
        stats = report.tenant_stats
        assert stats["bulk"]["throttled"] > 0
        assert stats["interactive"]["throttled"] == 0
        assert stats["analytics"]["throttled"] == 0
        assert report.throttled == stats["bulk"]["throttled"]

    def test_hot_key_storm_runs_clean(self):
        report = run_scenario(
            "hot-key-storm", seed=11, cluster=ClusterSpec(shards=2),
            ops=150, slo=LOOSE_SLO,
        )
        assert report.executed > 0
        assert report.errors == 0


class TestDeterminism:
    def test_same_seed_byte_identical_report(self):
        kwargs = dict(
            seed=5, cluster=ClusterSpec(shards=2), ops=120, slo=LOOSE_SLO
        )
        first = run_scenario("flash-crowd", **kwargs)
        second = run_scenario("flash-crowd", **kwargs)
        assert _dumps(first) == _dumps(second)

    def test_same_seed_identical_fault_fingerprint(self):
        kwargs = dict(
            seed=5,
            cluster=ClusterSpec(shards=2),
            ops=120,
            schedule="drop:0.02,delay:0.03",
            slo=LOOSE_SLO,
        )
        first = run_scenario("flash-crowd", **kwargs)
        second = run_scenario("flash-crowd", **kwargs)
        assert first.fault_fingerprint
        assert first.fault_fingerprint == second.fault_fingerprint
        assert first.fault_log == second.fault_log
        assert _dumps(first) == _dumps(second)

    def test_different_seed_differs(self):
        first = run_scenario(
            "flash-crowd", seed=5, cluster=ClusterSpec(shards=2), ops=120,
            slo=LOOSE_SLO,
        )
        second = run_scenario(
            "flash-crowd", seed=6, cluster=ClusterSpec(shards=2), ops=120,
            slo=LOOSE_SLO,
        )
        assert _dumps(first) != _dumps(second)


class TestBatchingDeterminism:
    """The batched pipeline must not perturb scenario reports.

    The sha256 constants were captured on the pre-pipeline serial
    request path (seed=11, shards=2, ops=120, LOOSE_SLO): K=1 pins the
    one-frame window to that byte-identical behaviour, and K=16 shows
    real batching leaves the (simulated-clock) report untouched too.
    """

    PINNED = {
        "steady": (
            "fd77a2ace0f5e4d27e0a73f0a0f4af8ffa071923557c69351f851901"
            "daba70c2"
        ),
        "hot-key-storm": (
            "0c91c71d39b1e6007640e16dfb7851e50485f2c9fdfe97d9aea64c06"
            "1f326084"
        ),
    }

    @staticmethod
    def _digest(report):
        import hashlib

        return hashlib.sha256(_dumps(report).encode()).hexdigest()

    @pytest.mark.parametrize("name", sorted(PINNED))
    @pytest.mark.parametrize("k", [1, 16])
    def test_report_matches_pre_batching_capture(self, name, k):
        report = run_scenario(
            name,
            seed=11,
            cluster=ClusterSpec(shards=2, ecall_batch=k),
            ops=120,
            slo=LOOSE_SLO,
        )
        assert self._digest(report) == self.PINNED[name]

    def test_batched_run_is_reproducible(self):
        kwargs = dict(
            seed=5,
            cluster=ClusterSpec(shards=2, ecall_batch=16),
            ops=120,
            slo=LOOSE_SLO,
        )
        first = run_scenario("hot-key-storm", **kwargs)
        second = run_scenario("hot-key-storm", **kwargs)
        assert _dumps(first) == _dumps(second)

    def test_batched_chaos_scenario_is_reproducible(self):
        kwargs = dict(
            seed=5,
            cluster=ClusterSpec(shards=2, ecall_batch=16),
            ops=120,
            schedule="drop:0.02,delay:0.03",
            slo=LOOSE_SLO,
        )
        first = run_scenario("flash-crowd", **kwargs)
        second = run_scenario("flash-crowd", **kwargs)
        assert first.fault_fingerprint
        assert first.fault_fingerprint == second.fault_fingerprint
        assert _dumps(first) == _dumps(second)

    def test_negative_batch_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario("steady", cluster=ClusterSpec(ecall_batch=-1))


class TestKneeFinder:
    def _probe(self, rate):
        return run_scenario(
            "steady", seed=13, cluster=ClusterSpec(shards=1), ops=80,
            rate=float(rate),
        )

    def test_knee_is_deterministic(self):
        first = find_knee(self._probe, 200, 4000)
        second = find_knee(self._probe, 200, 4000)
        assert first.to_dict() == second.to_dict()
        assert first.knee_ops_s > 0
        # Every probe at or below the knee passed; the bracket is honest.
        assert any(p.ok for p in first.probes)
        assert any(not p.ok for p in first.probes)

    def test_knee_zero_when_floor_breaches(self):
        result = find_knee(self._probe, 3800, 4000)
        assert result.knee_ops_s == 0
        assert len(result.probes) == 1

    def test_knee_hi_when_ceiling_holds(self):
        result = find_knee(self._probe, 200, 400)
        assert result.knee_ops_s == 400
        assert len(result.probes) == 2

    def test_rejects_bad_bracket(self):
        with pytest.raises(ConfigurationError):
            find_knee(self._probe, 400, 200)
        with pytest.raises(ConfigurationError):
            find_knee(self._probe, 0, 200)


class TestLoudFailures:
    def test_untyped_router_exception_escapes_the_engine(self, monkeypatch):
        """Only typed store failures count as error samples: a
        programming error in the router crashes the run loudly instead
        of being charged to the error budget."""
        from repro.shard.router import ShardedClient
        from repro.traffic.sessions import SessionModel

        def broken(self, *args, **kwargs):
            raise TypeError("router bug")

        preload = SessionModel.preload

        def preload_then_break(model):
            # The preload writes through the router too; break it after.
            loaded = preload(model)
            monkeypatch.setattr(ShardedClient, "get", broken)
            monkeypatch.setattr(ShardedClient, "put", broken)
            return loaded

        monkeypatch.setattr(SessionModel, "preload", preload_then_break)
        with pytest.raises(TypeError, match="router bug"):
            run_scenario("steady", seed=11, cluster=ClusterSpec(shards=2), ops=40)
