"""The sliding-window telemetry pipeline.

A :class:`TelemetryPipeline` collects per-shard latency/outcome samples
into per-tick buckets (the existing log-linear
:class:`~repro.obs.metrics.Histogram` does the heavy lifting), and on
every deterministic :meth:`~TelemetryPipeline.tick` publishes a
:class:`ClusterTelemetry` snapshot: windowed p50/p99 per shard, queue
depth, EPC working set, replication lag and fault counts.  Snapshots
feed the SLO engine (:mod:`repro.obs.slo`) and the flight recorder
(:mod:`repro.obs.flightrec`) -- and are precisely the input signal the
elastic autoscaler needs.  A request's causal hops live in its trace
record (:mod:`repro.obs.span`); see ``docs/OBSERVABILITY.md``.

Determinism: the pipeline reads time from the same clock as its obs
context, so a run driven on a :class:`~repro.obs.clock.ManualClock` (the
``health`` harness) produces bit-identical snapshots under one seed.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional

from repro.errors import ConfigurationError, ObservabilityError
from repro.obs.clock import Clock, WallClock
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.span import Tracer

__all__ = [
    "ShardSample",
    "ClusterTelemetry",
    "TelemetryPipeline",
]

#: ``perf/layers.py`` imports this name to time ``hop``; it goes once
#: that table names ``Tracer`` directly.
ContextLog = Tracer


class ShardSample:
    """One shard's windowed aggregate inside a telemetry snapshot."""

    __slots__ = (
        "shard",
        "ops",
        "errors",
        "p50_ns",
        "p99_ns",
        "queue_depth",
        "epc_bytes",
        "replication_lag",
    )

    def __init__(
        self,
        shard: str,
        ops: int = 0,
        errors: int = 0,
        p50_ns: int = 0,
        p99_ns: int = 0,
        queue_depth: int = 0,
        epc_bytes: int = 0,
        replication_lag: int = 0,
    ):
        self.shard = shard
        self.ops = ops
        self.errors = errors
        self.p50_ns = p50_ns
        self.p99_ns = p99_ns
        self.queue_depth = queue_depth
        self.epc_bytes = epc_bytes
        self.replication_lag = replication_lag

    @property
    def error_rate(self) -> float:
        """Windowed error fraction (0.0 when no samples)."""
        return self.errors / self.ops if self.ops else 0.0

    def to_dict(self) -> dict:
        """JSON-shaped view of this sample."""
        return {
            "shard": self.shard,
            "ops": self.ops,
            "errors": self.errors,
            "p50_ns": self.p50_ns,
            "p99_ns": self.p99_ns,
            "queue_depth": self.queue_depth,
            "epc_bytes": self.epc_bytes,
            "replication_lag": self.replication_lag,
        }

    def __repr__(self) -> str:
        return (
            f"ShardSample({self.shard!r}, ops={self.ops}, "
            f"p99={self.p99_ns}ns)"
        )


class ClusterTelemetry:
    """One published snapshot: every shard's windowed aggregates."""

    __slots__ = ("tick", "t_ns", "window_ticks", "shards", "faults")

    def __init__(
        self,
        tick: int,
        t_ns: int,
        window_ticks: int,
        shards: Dict[str, ShardSample],
        faults: Dict[str, int],
    ):
        self.tick = tick
        self.t_ns = t_ns
        self.window_ticks = window_ticks
        self.shards = shards
        #: Faults injected since the previous tick, per kind.
        self.faults = faults

    def to_dict(self) -> dict:
        """JSON-shaped view of the snapshot."""
        return {
            "tick": self.tick,
            "t_ns": self.t_ns,
            "window_ticks": self.window_ticks,
            "shards": {
                name: sample.to_dict()
                for name, sample in sorted(self.shards.items())
            },
            "faults": dict(sorted(self.faults.items())),
        }

    def __repr__(self) -> str:
        return (
            f"ClusterTelemetry(tick={self.tick}, "
            f"shards={sorted(self.shards)})"
        )


class _TickBucket:
    """Per-shard samples of one tick: a histogram plus outcome counts."""

    __slots__ = ("hist", "ops", "errors")

    def __init__(self, resolution: int):
        self.hist = Histogram(resolution=resolution)
        self.ops = 0
        self.errors = 0


class TelemetryPipeline:
    """Per-shard windowed aggregates published on a deterministic tick.

    Call :meth:`observe` from the request edge (the shard router does),
    then :meth:`tick` on a fixed cadence -- per N operations in the
    health harness, per ``every_ns`` of simulated time via
    :meth:`repro.sim.engine.Simulator.attach_telemetry`, or from a timer
    in a real deployment.  Each tick closes the current per-shard
    buckets, aggregates the last ``window_ticks`` of them (histogram
    merge keeps quantile error bounded), samples the attached cluster's
    probes, and appends a :class:`ClusterTelemetry` snapshot to the
    bounded ``history``.
    """

    def __init__(
        self,
        clock: Optional[Clock] = None,
        window_ticks: int = 4,
        resolution: int = 64,
        history_capacity: int = 128,
        registry: Optional[MetricsRegistry] = None,
    ):
        if window_ticks < 1:
            raise ObservabilityError(
                f"window_ticks must be >= 1, got {window_ticks}"
            )
        if history_capacity < 1:
            raise ObservabilityError(
                f"history_capacity must be >= 1, got {history_capacity}"
            )
        self.clock = clock if clock is not None else WallClock()
        self.window_ticks = window_ticks
        self.resolution = resolution
        self.history: deque = deque(maxlen=history_capacity)
        self.ticks = 0
        self.samples_total = 0
        self._current: Dict[str, _TickBucket] = {}
        self._windows: Dict[str, deque] = {}
        self._cluster = None
        self._slo = None
        self._flight = None
        self._controller = None
        self._registry = registry
        self._last_fault_totals: Dict[str, int] = {}
        self._obs_ticks = None
        if registry is not None:
            self._obs_ticks = registry.counter(
                "telemetry_ticks_total",
                "telemetry snapshots published",
            )

    # -- attachment --------------------------------------------------------

    def attach_cluster(self, cluster) -> None:
        """Probe ``cluster`` (queue depth, EPC, lag) on every tick."""
        self._cluster = cluster

    def attach_slo(self, engine) -> None:
        """Evaluate ``engine``'s rules against every published snapshot."""
        self._slo = engine

    def attach_flight(self, recorder) -> None:
        """Trigger a flight-recorder dump when a tick breaches the SLO."""
        self._flight = recorder

    def attach_controller(self, controller) -> None:
        """Hand every published snapshot to an autoscale control loop.

        ``controller.on_snapshot(snapshot)`` runs at the very end of
        :meth:`tick`, after SLO evaluation -- so the controller sees
        exactly what the operator's dashboards see, and any topology
        change it actuates lands *between* windows, never inside one.
        """
        self._controller = controller

    @property
    def slo(self):
        """The attached SLO engine, if any."""
        return self._slo

    # -- sample intake -----------------------------------------------------

    def observe(
        self, shard: str, op: str, latency_ns: int, ok: bool = True
    ) -> None:
        """Record one operation's outcome against ``shard``."""
        bucket = self._current.get(shard)
        if bucket is None:
            bucket = _TickBucket(self.resolution)
            self._current[shard] = bucket
        bucket.hist.record(max(0, int(latency_ns)))
        bucket.ops += 1
        if not ok:
            bucket.errors += 1
        self.samples_total += 1

    # -- probes ------------------------------------------------------------

    def _probe(self, shard: str) -> Dict[str, int]:
        cluster = self._cluster
        out = {"queue_depth": 0, "epc_bytes": 0, "replication_lag": 0}
        if cluster is None:
            return out
        try:
            server = cluster.server(shard)
        except ConfigurationError:  # a departed shard's window drains
            return out
        queue_depth = getattr(server, "queue_depth", None)
        if queue_depth is not None:
            out["queue_depth"] = queue_depth()
        if not getattr(server, "crashed", False):
            out["epc_bytes"] = server.trusted_working_set_bytes()
        group = getattr(cluster, "group", None)
        if group is not None:
            try:
                out["replication_lag"] = group(shard).lag
            except ConfigurationError:
                pass
        return out

    def _fault_deltas(self) -> Dict[str, int]:
        registry = self._registry
        if registry is None:
            return {}
        family = registry._families.get("faults_injected_total")
        if family is None:
            return {}
        deltas: Dict[str, int] = {}
        for key, counter in family.children.items():
            kind = dict(key).get("kind", "")
            last = self._last_fault_totals.get(kind, 0)
            if counter.value > last:
                deltas[kind] = counter.value - last
            self._last_fault_totals[kind] = counter.value
        return deltas

    # -- publication -------------------------------------------------------

    def _shard_names(self) -> List[str]:
        names = set(self._current) | set(self._windows)
        if self._cluster is not None:
            names |= set(self._cluster.shards)
        return sorted(names)

    def tick(self) -> ClusterTelemetry:
        """Close the tick, publish a snapshot, evaluate the SLO rules."""
        self.ticks += 1
        members = (
            set(self._cluster.shards) if self._cluster is not None else None
        )
        shards: Dict[str, ShardSample] = {}
        for shard in self._shard_names():
            window = self._windows.get(shard)
            if window is None:
                window = deque(maxlen=self.window_ticks)
                self._windows[shard] = window
            window.append(self._current.pop(shard, None))
            merged = Histogram(resolution=self.resolution)
            ops = errors = 0
            for bucket in window:
                if bucket is None:
                    continue
                merged.merge(bucket.hist)
                ops += bucket.ops
                errors += bucket.errors
            if (
                members is not None
                and shard not in members
                and all(bucket is None for bucket in window)
            ):
                # A departed shard stays visible while its window drains
                # (late samples still aggregate), then drops out instead
                # of publishing zeros forever -- essential once an
                # autoscaler retires shards mid-run.
                del self._windows[shard]
                continue
            probes = self._probe(shard)
            shards[shard] = ShardSample(
                shard=shard,
                ops=ops,
                errors=errors,
                p50_ns=merged.percentile(50) if merged.count else 0,
                p99_ns=merged.percentile(99) if merged.count else 0,
                **probes,
            )
        snapshot = ClusterTelemetry(
            tick=self.ticks,
            t_ns=self.clock.now_ns(),
            window_ticks=self.window_ticks,
            shards=shards,
            faults=self._fault_deltas(),
        )
        self.history.append(snapshot)
        self._export(shards)
        if self._obs_ticks is not None:
            self._obs_ticks.inc()
        if self._slo is not None:
            breaches = self._slo.evaluate(snapshot)
            if breaches and self._flight is not None:
                self._flight.trigger(
                    "slo_breach",
                    tick=snapshot.tick,
                    breaches=[b.to_dict() for b in breaches],
                )
        if self._controller is not None:
            self._controller.on_snapshot(snapshot)
        return snapshot

    def _export(self, shards: Dict[str, ShardSample]) -> None:
        registry = self._registry
        if registry is None:
            return
        for name, sample in shards.items():
            labels = {"shard": name}
            registry.gauge(
                "telemetry_window_p99_ns",
                "windowed p99 operation latency per shard",
                labels,
            ).set(sample.p99_ns)
            registry.gauge(
                "telemetry_window_p50_ns",
                "windowed p50 operation latency per shard",
                labels,
            ).set(sample.p50_ns)
            registry.gauge(
                "telemetry_queue_depth",
                "requests visible in rings but not yet consumed",
                labels,
            ).set(sample.queue_depth)
            registry.gauge(
                "telemetry_epc_working_set_bytes",
                "enclave-resident working set per shard",
                labels,
            ).set(sample.epc_bytes)
            registry.gauge(
                "telemetry_replication_lag",
                "records the slowest live backup trails per shard",
                labels,
            ).set(sample.replication_lag)

    @property
    def last(self) -> Optional[ClusterTelemetry]:
        """Most recently published snapshot."""
        return self.history[-1] if self.history else None
