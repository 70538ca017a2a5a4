"""Trace-record hops and the sliding-window telemetry pipeline."""

import pytest

from repro.errors import ObservabilityError
from repro.obs import (
    ManualClock,
    MetricsRegistry,
    ObsContext,
    TelemetryPipeline,
    Tracer,
)
from repro.sim import Simulator, Timeout


class TestContextLog:
    """The causal side of the trace record: hops, ids and retirement."""

    def test_begin_hop_end_lifecycle(self):
        clock = ManualClock()
        log = Tracer(clock=clock)
        ctx = log.start("put", client_id=3)
        assert ctx.trace_id == "c3-1"
        assert log.current is ctx
        clock.advance(500)
        log.hop("route", shard="shard-0", epoch=1)
        clock.advance(500)
        log.hop("server", shard="shard-0")
        finished = ctx.finish()
        assert finished is ctx
        assert log.current is None
        assert ctx.finished and ctx.status == "ok"
        assert ctx.total_ns == 1000
        assert ctx.hop_kinds() == ["route", "server"]
        assert ctx.shards_touched() == ["shard-0"]
        assert ctx.hops[0]["t_ns"] == 500
        assert log.last is ctx

    def test_trace_ids_deterministic_under_client_id(self):
        ids = []
        for _ in range(2):
            log = Tracer(clock=ManualClock())
            for _ in range(3):
                log.start("get", client_id=7).finish()
            ids.append([c.trace_id for c in log.finished])
        assert ids[0] == ids[1] == ["c7-1", "c7-2", "c7-3"]

    def test_nested_begin_rejected(self):
        log = Tracer(clock=ManualClock())
        log.start("get")
        with pytest.raises(ObservabilityError):
            log.start("put")

    def test_hop_and_end_noop_when_idle(self):
        log = Tracer(clock=ManualClock())
        log.hop("route", shard="shard-0")  # must not raise
        assert log.current is None
        assert log.finished_total == 0

    def test_capacity_evicts_and_counts_drops(self):
        registry = MetricsRegistry()
        log = Tracer(clock=ManualClock(), capacity=4)
        log.bind_obs(registry)
        for _ in range(10):
            log.start("get").finish()
        assert len(log.finished) == 4
        assert log.dropped_total == 6
        counter = registry.counter(
            "trace_dropped_total",
            "finished traces evicted because the tracer hit capacity",
        )
        assert counter.value == 6
        # Oldest were evicted, newest survive.
        assert [c.trace_id for c in log.finished][-1] == "c0-10"

    def test_on_retire_callback_sees_every_finish(self):
        seen = []
        log = Tracer(clock=ManualClock(), capacity=2)
        log.on_retire = seen.append
        for _ in range(5):
            log.start("get").finish()
        assert len(seen) == 5

    def test_describe_renders_hops(self):
        clock = ManualClock()
        log = Tracer(clock=clock)
        ctx = log.start("get", client_id=1)
        clock.advance(1_000_000)
        log.hop("route", shard="shard-1", epoch=2)
        text = ctx.finish().describe()
        assert "trace c1-1" in text
        assert "route" in text and "shard=shard-1" in text
        assert "epoch=2" in text


class TestTelemetryPipeline:
    def _pipeline(self, window_ticks=2):
        clock = ManualClock()
        registry = MetricsRegistry()
        return (
            TelemetryPipeline(
                clock=clock, window_ticks=window_ticks, registry=registry
            ),
            clock,
            registry,
        )

    def test_tick_publishes_windowed_percentiles(self):
        pipeline, clock, _ = self._pipeline(window_ticks=2)
        for _ in range(100):
            pipeline.observe("shard-0", "get", 1_000_000)
        snap = pipeline.tick()
        assert snap.tick == 1
        sample = snap.shards["shard-0"]
        assert sample.ops == 100 and sample.errors == 0
        assert sample.p50_ns == pytest.approx(1_000_000, rel=0.02)

    def test_window_slides_over_old_buckets(self):
        pipeline, _, _ = self._pipeline(window_ticks=2)
        for _ in range(50):
            pipeline.observe("s", "get", 10_000_000)  # slow era
        pipeline.tick()
        for _ in range(2):
            for _ in range(50):
                pipeline.observe("s", "get", 100_000)  # fast era
            pipeline.tick()
        # Window is 2 ticks: the slow era has aged out entirely.
        last = pipeline.last.shards["s"]
        assert last.p99_ns < 1_000_000
        assert last.ops == 100

    def test_errors_counted_separately(self):
        pipeline, _, _ = self._pipeline()
        pipeline.observe("s", "get", 1000, ok=True)
        pipeline.observe("s", "get", 1000, ok=False)
        snap = pipeline.tick()
        sample = snap.shards["s"]
        assert sample.ops == 2 and sample.errors == 1
        assert sample.error_rate == pytest.approx(0.5)

    def test_gauges_exported_per_shard(self):
        pipeline, _, registry = self._pipeline()
        for _ in range(10):
            pipeline.observe("shard-0", "get", 2_000_000)
        pipeline.tick()
        text_families = registry._families
        assert "telemetry_window_p99_ns" in text_families
        assert "telemetry_ticks_total" in text_families
        gauge = registry.gauge(
            "telemetry_window_p99_ns",
            "windowed p99 latency per shard",
            {"shard": "shard-0"},
        )
        assert gauge.value >= 1_000_000

    def test_snapshot_to_dict_is_sorted_and_complete(self):
        pipeline, _, _ = self._pipeline()
        pipeline.observe("b", "get", 100)
        pipeline.observe("a", "get", 100)
        snap = pipeline.tick()
        payload = snap.to_dict()
        assert list(payload["shards"]) == ["a", "b"]
        assert payload["tick"] == 1
        assert "window_ticks" in payload

    def test_history_bounded(self):
        pipeline, _, _ = self._pipeline()
        pipeline.history_capacity = None  # attribute read only; deque fixed
        for _ in range(200):
            pipeline.tick()
        assert len(pipeline.history) <= 128
        assert pipeline.ticks == 200

    def test_cluster_probes_feed_samples(self):
        from repro.shard.cluster import ShardedCluster

        obs = ObsContext.create(clock=ManualClock())
        cluster = ShardedCluster(shards=2, seed=3, obs=obs, replicas=1)
        pipeline = TelemetryPipeline(
            clock=obs.tracer.clock, registry=obs.registry
        )
        pipeline.attach_cluster(cluster)
        obs.attach_telemetry(pipeline)
        from repro.shard.router import ShardedClient

        client = ShardedClient(cluster, client_id=1)
        for i in range(16):
            client.put(b"k%d" % i, b"v" * 32)
        snap = pipeline.tick()
        assert set(snap.shards) == set(cluster.shards)
        for sample in snap.shards.values():
            assert sample.epc_bytes > 0
            assert sample.replication_lag == 0  # sync groups drain
        assert sum(s.ops for s in snap.shards.values()) == 16

    def test_crashed_shard_probe_skipped(self):
        from repro.shard.cluster import ShardedCluster

        obs = ObsContext.create(clock=ManualClock())
        cluster = ShardedCluster(shards=2, seed=3, obs=obs, replicas=0)
        pipeline = TelemetryPipeline(
            clock=obs.tracer.clock, registry=obs.registry
        )
        pipeline.attach_cluster(cluster)
        victim = cluster.shards[0]
        cluster.crash_shard(victim)
        snap = pipeline.tick()  # must not raise on the dead shard
        assert snap.shards[victim].epc_bytes == 0


class TestSimulatorTelemetry:
    def test_attach_telemetry_ticks_deterministically(self):
        def run_once():
            sim = Simulator()
            clock = ManualClock()  # pipeline timestamps via manual clock
            pipeline = TelemetryPipeline(clock=clock, window_ticks=2)

            def workload():
                for i in range(20):
                    yield Timeout(1_000)
                    pipeline.observe("s", "get", 100_000 + i)

            sim.spawn(workload())
            sim.attach_telemetry(pipeline, every_ns=5_000)
            sim.run(until=21_000)
            return [snap.to_dict() for snap in pipeline.history]

        assert run_once() == run_once()
        history = run_once()
        assert len(history) == 4  # ticks at 5/10/15/20 us
        assert sum(s["shards"].get("s", {}).get("ops", 0) for s in history) > 0

    def test_attach_telemetry_rejects_bad_interval(self):
        from repro.errors import SimulationError

        sim = Simulator()
        pipeline = TelemetryPipeline(clock=ManualClock())
        with pytest.raises(SimulationError):
            sim.attach_telemetry(pipeline, every_ns=0)
