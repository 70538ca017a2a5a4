"""Edge cases for the knee search and the telemetry window merge.

The autoscaler leans on both: ``find_knee`` assumes *lo feasible, hi
infeasible* but real feasibility can flap near the boundary (a probe at
rate r fails while r+50 happens to pass), and ``TelemetryPipeline``
must keep publishing sane windows while the controller adds and
retires shards mid-window.
"""

import pytest

from repro.errors import ConfigurationError
from repro.obs import ManualClock
from repro.obs.telemetry import TelemetryPipeline
from repro.traffic.report import find_knee


class _StubRun:
    """Minimal probe result: just enough surface for ``find_knee``."""

    def __init__(self, feasible, rate):
        self._feasible = feasible
        self.throughput_ops_s = float(rate)

    def evaluate_slo(self, spec):
        """Empty breach list when feasible, one breach otherwise."""
        return [] if self._feasible else [("latency", "p99", "breach")]

    def corrected_tail(self):
        """Fixed corrected tail; the search only records it."""
        return {"p99_ns": 2_000_000}

    def uncorrected_tail(self):
        """Fixed uncorrected tail; the search only records it."""
        return {"p99_ns": 1_000_000}


def _probe(feasible_fn, calls=None):
    def probe(rate):
        if calls is not None:
            calls.append(rate)
        return _StubRun(feasible_fn(rate), rate)
    return probe


class TestFindKneeEdges:
    def test_non_monotone_feasibility_still_terminates(self):
        # Feasible below 500 -- except a flapping pocket at [400, 480)
        # that fails, and an island at [700, 720) that passes.  The
        # bracket invariant keeps the search finite regardless.
        def feasible(rate):
            if 400 <= rate < 480:
                return False
            if 700 <= rate < 720:
                return True
            return rate < 500

        calls = []
        result = find_knee(_probe(feasible, calls), lo=100, hi=2000)
        assert result.knee_ops_s > 0
        # Bounded probe count: one per halving plus the bracket checks.
        assert len(calls) <= 14
        # The reported knee was actually probed and found feasible.
        probed_ok = {p.rate_ops_s for p in result.probes if p.ok}
        assert result.knee_ops_s in probed_ok
        # Every probe's outcome is on the record, failures included.
        assert any(not p.ok for p in result.probes)

    def test_lo_infeasible_reports_zero_after_one_probe(self):
        calls = []
        result = find_knee(
            _probe(lambda rate: False, calls), lo=100, hi=2000
        )
        assert result.knee_ops_s == 0
        assert calls == [100]
        assert [p.ok for p in result.probes] == [False]

    def test_hi_feasible_short_circuits(self):
        calls = []
        result = find_knee(
            _probe(lambda rate: True, calls), lo=100, hi=2000
        )
        assert result.knee_ops_s == 2000
        assert calls == [100, 2000]

    def test_probe_metadata_recorded(self):
        result = find_knee(
            _probe(lambda rate: rate < 600), lo=100, hi=2000
        )
        probe = result.probes[0]
        assert probe.corrected_p99_ns == 2_000_000
        assert probe.uncorrected_p99_ns == 1_000_000
        assert probe.throughput_ops_s == 100.0

    def test_bad_bracket_and_tolerance_rejected(self):
        probe = _probe(lambda rate: True)
        with pytest.raises(ConfigurationError):
            find_knee(probe, lo=500, hi=500)
        with pytest.raises(ConfigurationError):
            find_knee(probe, lo=0, hi=500)
        with pytest.raises(ConfigurationError):
            find_knee(probe, lo=100, hi=500, tolerance=0)


class _FakeCluster:
    """Membership list the test mutates; probes always unavailable."""

    def __init__(self, shards):
        self.shards = list(shards)

    def server(self, name):
        """Raise as ``ShardedCluster.server`` does for an unknown shard,
        so the pipeline falls back to zeroed probes."""
        raise ConfigurationError(f"unknown shard {name!r}")


class TestWindowMembershipEdges:
    def _pipeline(self, cluster, window_ticks=3):
        pipeline = TelemetryPipeline(
            clock=ManualClock(), window_ticks=window_ticks
        )
        pipeline.attach_cluster(cluster)
        return pipeline

    def test_shard_appearing_mid_window_joins_the_snapshot(self):
        cluster = _FakeCluster(["a"])
        pipeline = self._pipeline(cluster)
        pipeline.observe("a", "get", 1000)
        snap = pipeline.tick()
        assert set(snap.shards) == {"a"}
        # "b" joins between ticks -- with no samples yet it still
        # appears immediately, at zero ops, so dashboards and the
        # controller see the new member the moment it routes.
        cluster.shards.append("b")
        snap = pipeline.tick()
        assert set(snap.shards) == {"a", "b"}
        assert snap.shards["b"].ops == 0
        pipeline.observe("b", "get", 2000)
        snap = pipeline.tick()
        assert snap.shards["b"].ops == 1

    def test_departed_shard_drains_then_drops(self):
        cluster = _FakeCluster(["a", "b"])
        pipeline = self._pipeline(cluster, window_ticks=3)
        for _ in range(3):
            pipeline.observe("a", "get", 1000)
            pipeline.observe("b", "get", 1000)
            pipeline.tick()
        cluster.shards.remove("b")
        # The departed shard stays visible while its window still holds
        # samples -- late aggregation, no sudden metric cliff...
        for tick in range(2):
            snap = pipeline.tick()
            assert "b" in snap.shards
        # ...then drops from both the snapshot and the internal window
        # state once the last bucket ages out (no zeros forever).
        snap = pipeline.tick()
        assert "b" not in snap.shards
        assert "b" not in pipeline._windows
        assert set(snap.shards) == {"a"}

    def test_departed_shard_late_samples_still_aggregate(self):
        cluster = _FakeCluster(["a", "b"])
        pipeline = self._pipeline(cluster, window_ticks=4)
        pipeline.observe("b", "get", 5000)
        pipeline.tick()
        cluster.shards.remove("b")
        # An in-flight response lands after the membership change.
        pipeline.observe("b", "get", 7000)
        snap = pipeline.tick()
        assert snap.shards["b"].ops == 2

    def test_probe_error_other_than_unknown_shard_is_raised(self):
        class _BrokenCluster(_FakeCluster):
            def server(self, name):
                raise TypeError("a bug in the probe target")

        pipeline = self._pipeline(_BrokenCluster(["a"]))
        pipeline.observe("a", "get", 1000)
        with pytest.raises(TypeError):
            pipeline.tick()

    def test_window_merge_spans_the_membership_change(self):
        cluster = _FakeCluster(["a"])
        pipeline = self._pipeline(cluster, window_ticks=4)
        pipeline.observe("a", "get", 1000)
        pipeline.tick()
        cluster.shards.append("b")
        pipeline.observe("a", "get", 1000)
        pipeline.observe("b", "get", 1000)
        pipeline.tick()
        snap = pipeline.history[-1]
        # "a"'s window kept both ticks; "b" only ever saw one.
        assert snap.shards["a"].ops == 2
        assert snap.shards["b"].ops == 1
