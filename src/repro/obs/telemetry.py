"""Causal request tracing and the sliding-window telemetry pipeline.

Two layers live here (see ``docs/OBSERVABILITY.md``):

**Causal tracing.**  A :class:`TraceContext` is the cross-layer story of
one logical request: a ``trace_id`` minted at the edge (the shard
router), an ordered list of :class:`Hop` records appended by every layer
the request crosses -- routing decisions, server dispatch, replication
acks, client retries/reconnects, failover re-routes, promotions -- and a
final status.  Where span traces (:mod:`repro.obs.span`) answer "where
did the nanoseconds go *inside* one exchange", a context answers "which
machines did this request touch, in what order, and why was it retried".
The :class:`ContextLog` owns the per-thread current context and a
bounded buffer of finished ones, exactly like the tracer does for spans.

**Sliding-window telemetry.**  A :class:`TelemetryPipeline` collects
per-shard latency/outcome samples into per-tick buckets (the existing
log-linear :class:`~repro.obs.metrics.Histogram` does the heavy
lifting), and on every deterministic :meth:`~TelemetryPipeline.tick`
publishes a :class:`ClusterTelemetry` snapshot: windowed p50/p99 per
shard, queue depth, EPC working set, replication lag and fault counts.
Snapshots feed the SLO engine (:mod:`repro.obs.slo`) and the flight
recorder (:mod:`repro.obs.flightrec`) -- and are precisely the input
signal the ROADMAP's elastic autoscaler needs.

Determinism: the pipeline reads time from the same clock as its obs
context, so a run driven on a :class:`~repro.obs.clock.ManualClock` (the
``health`` harness) produces bit-identical snapshots under one seed.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError, ObservabilityError
from repro.obs.clock import Clock, WallClock
from repro.obs.metrics import Histogram, MetricsRegistry

__all__ = [
    "Hop",
    "TraceContext",
    "ContextLog",
    "ShardSample",
    "ClusterTelemetry",
    "TelemetryPipeline",
]


class Hop:
    """One causal step of a request: which layer touched it, and why."""

    __slots__ = ("seq", "kind", "shard", "t_ns", "detail")

    def __init__(
        self,
        seq: int,
        kind: str,
        shard: Optional[str],
        t_ns: int,
        detail: Dict[str, Any],
    ):
        self.seq = seq
        self.kind = kind
        self.shard = shard
        self.t_ns = t_ns
        self.detail = detail

    def to_dict(self) -> dict:
        """JSON-shaped view of this hop."""
        out = {"seq": self.seq, "kind": self.kind, "t_ns": self.t_ns}
        if self.shard is not None:
            out["shard"] = self.shard
        if self.detail:
            out["detail"] = dict(self.detail)
        return out

    def __repr__(self) -> str:
        return f"Hop({self.seq}, {self.kind!r}, shard={self.shard!r})"


class TraceContext:
    """The causal record of one logical request across the cluster.

    Minted by the client edge (the shard router), carried implicitly as
    the thread's current context while the operation runs, and appended
    to by every layer via :meth:`ContextLog.hop`.  ``parent`` links a
    context spawned on behalf of another (e.g. repair traffic).
    """

    __slots__ = (
        "trace_id",
        "op",
        "client_id",
        "parent",
        "start_ns",
        "end_ns",
        "status",
        "hops",
    )

    def __init__(
        self,
        trace_id: str,
        op: str,
        client_id: int,
        start_ns: int,
        parent: Optional[str] = None,
    ):
        self.trace_id = trace_id
        self.op = op
        self.client_id = client_id
        self.parent = parent
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.status: Optional[str] = None
        self.hops: List[Hop] = []

    @property
    def finished(self) -> bool:
        """True once :meth:`ContextLog.end` sealed this context."""
        return self.end_ns is not None

    @property
    def total_ns(self) -> int:
        """End-to-end latency; raises while the context is still open."""
        if self.end_ns is None:
            raise ObservabilityError(
                f"context {self.trace_id} is still open"
            )
        return self.end_ns - self.start_ns

    def add_hop(
        self, kind: str, shard: Optional[str], t_ns: int, **detail: Any
    ) -> Hop:
        """Append one causal hop (layers call this via the log)."""
        hop = Hop(len(self.hops), kind, shard, t_ns, detail)
        self.hops.append(hop)
        return hop

    def hop_kinds(self) -> List[str]:
        """Hop kinds in causal order (test/report introspection)."""
        return [hop.kind for hop in self.hops]

    def shards_touched(self) -> List[str]:
        """Distinct shards this request crossed, in first-touch order."""
        seen: List[str] = []
        for hop in self.hops:
            if hop.shard is not None and hop.shard not in seen:
                seen.append(hop.shard)
        return seen

    def to_dict(self) -> dict:
        """JSON-shaped view of the whole causal story."""
        return {
            "trace_id": self.trace_id,
            "op": self.op,
            "client_id": self.client_id,
            "parent": self.parent,
            "status": self.status,
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "hops": [hop.to_dict() for hop in self.hops],
        }

    def describe(self) -> str:
        """Human-readable causal story: one line per hop."""
        head = (
            f"trace {self.trace_id} op={self.op} client={self.client_id} "
            f"status={self.status or 'open'}"
        )
        if self.finished:
            head += f" total={self.total_ns / 1e6:.3f}ms"
        lines = [head]
        for hop in self.hops:
            rel_ms = (hop.t_ns - self.start_ns) / 1e6
            detail = " ".join(
                f"{k}={v}" for k, v in sorted(hop.detail.items())
            )
            shard = f" shard={hop.shard}" if hop.shard is not None else ""
            lines.append(
                f"  {hop.seq:02d} +{rel_ms:8.3f}ms {hop.kind:<18}"
                f"{shard}{' ' + detail if detail else ''}"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        state = self.status if self.finished else "open"
        return (
            f"TraceContext({self.trace_id!r}, op={self.op!r}, "
            f"hops={len(self.hops)}, {state})"
        )


class ContextLog:
    """Mints trace contexts, tracks the current one per thread.

    Mirrors the :class:`~repro.obs.span.Tracer` contract: ``begin`` while
    a context is active raises (the router guards), ``hop`` with no
    active context is a cheap no-op so instrumentation never needs
    guarding at call sites, and the finished buffer is bounded --
    evictions are counted (``dropped_total``) and exported once
    :meth:`bind_obs` runs.  Unlike span traces, *failed* requests are
    retired too: an error status is exactly what the flight recorder
    wants to keep.
    """

    def __init__(self, clock: Optional[Clock] = None, capacity: int = 512):
        if capacity < 1:
            raise ObservabilityError(
                f"capacity must be >= 1, got {capacity}"
            )
        #: Time source; an :class:`~repro.obs.ObsContext` rebinds this to
        #: its tracer's clock so spans and hops share one timeline.
        self.clock = clock if clock is not None else WallClock()
        self.capacity = capacity
        self.finished: List[TraceContext] = []
        self.started_total = 0
        self.finished_total = 0
        self.dropped_total = 0
        self._seq = 0
        self._local = threading.local()
        self._obs_dropped = None
        #: Called with each retired context (the flight recorder's feed).
        self.on_retire = None

    def bind_obs(self, registry: MetricsRegistry) -> None:
        """Export drop accounting into ``registry`` (idempotent)."""
        self._obs_dropped = registry.counter(
            "trace_context_dropped_total",
            "finished trace contexts evicted because the log hit capacity",
        )
        if self.dropped_total:
            self._obs_dropped.inc(self.dropped_total)

    # -- current-context plumbing ------------------------------------------

    @property
    def current(self) -> Optional[TraceContext]:
        """This thread's active context, if any."""
        return getattr(self._local, "context", None)

    def _set_current(self, context: Optional[TraceContext]) -> None:
        self._local.context = context

    # -- lifecycle ---------------------------------------------------------

    def begin(
        self,
        op: str,
        client_id: int = 0,
        parent: Optional[str] = None,
    ) -> TraceContext:
        """Mint a new context and make it this thread's current one."""
        if self.current is not None:
            raise ObservabilityError(
                f"context {self.current.trace_id} still active; end it "
                "before beginning another"
            )
        self._seq += 1
        context = TraceContext(
            trace_id=f"c{client_id}-{self._seq}",
            op=op,
            client_id=client_id,
            start_ns=self.clock.now_ns(),
            parent=parent,
        )
        self.started_total += 1
        self._set_current(context)
        return context

    def end(self, status: str = "ok") -> Optional[TraceContext]:
        """Seal the current context with ``status`` and retire it.

        Returns the sealed context, or None when none was active (safe
        on error paths that may or may not own a context).
        """
        context = self.current
        if context is None:
            return None
        context.end_ns = self.clock.now_ns()
        context.status = status
        self._set_current(None)
        self.finished_total += 1
        self.finished.append(context)
        overflow = len(self.finished) - self.capacity
        if overflow > 0:
            del self.finished[:overflow]
            self.dropped_total += overflow
            if self._obs_dropped is not None:
                self._obs_dropped.inc(overflow)
        if self.on_retire is not None:
            self.on_retire(context)
        return context

    def hop(self, kind: str, shard: Optional[str] = None, **detail: Any) -> None:
        """Append a hop to the current context; no-op when none is active."""
        context = self.current
        if context is None:
            return
        context.add_hop(kind, shard, self.clock.now_ns(), **detail)

    # -- queries -----------------------------------------------------------

    def get(self, trace_id: str) -> Optional[TraceContext]:
        """Finished (or current) context by id, or None."""
        current = self.current
        if current is not None and current.trace_id == trace_id:
            return current
        for context in reversed(self.finished):
            if context.trace_id == trace_id:
                return context
        return None

    def recent(self, n: Optional[int] = None) -> List[TraceContext]:
        """The most recently finished contexts, oldest first."""
        if n is None:
            return list(self.finished)
        return self.finished[-n:]

    @property
    def last(self) -> Optional[TraceContext]:
        """Most recently finished context."""
        return self.finished[-1] if self.finished else None

    def clear(self) -> None:
        """Drop all finished contexts (keeps lifetime counters)."""
        self.finished.clear()


# ---------------------------------------------------------------------------
# Sliding-window telemetry
# ---------------------------------------------------------------------------


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
