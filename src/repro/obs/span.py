"""One record per request: where the time went, and which machines it touched.

A :class:`Trace` is the record of one logical operation (a ``get()``, a
routed ``put()``, an autoscale action, one modelled request).  It holds:

- **stages** -- named, timed intervals opened and closed in strict LIFO
  order.  Top-level stages *tile* the trace: whenever a top-level stage
  opens after a gap (or the trace finishes with trailing untimed work),
  the gap reads as an explicit ``(untracked)`` stage.  A trace logs only
  its named stages, one flat log entry each, and derives the gaps from
  the logged times when the record is read.  The invariant the
  exporters and the Figure-8 runner rely on is therefore exact::

      sum(stage.duration_ns for top-level stages) == trace.total_ns

  Nested stages (depth > 0) attribute time *within* their parent and do
  not participate in the tiling sum;
- **hops** -- zero-duration causal steps appended by every layer the
  request crosses: routing decisions, server dispatch, replication
  acks, client retries and reconnects, failover re-routes, promotions;
- a **status** once it finishes: ``ok``, or ``error:<ExceptionName>``
  for a failed operation.

The :class:`Tracer` owns a clock, the *current* trace of each thread and
a bounded buffer of finished traces.  Cross-layer attribution works
because the server shares the client's tracer: while the client's
operation is the current trace, server-side code calls
``tracer.stage("server.xyz")`` and ``tracer.hop("server", ...)`` and
both land in the same record.  When no trace is current (e.g. a threaded
server handling frames on another thread) both are no-ops, so
instrumentation never needs guarding at call sites.
"""

from __future__ import annotations

import itertools
import threading
from operator import attrgetter
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Optional

from repro.errors import ObservabilityError
from repro.obs.clock import Clock, ManualClock, WallClock

__all__ = [
    "Stage",
    "Trace",
    "Tracer",
    "UNTRACKED_STAGE",
    "render_record",
    "run_stage",
]

#: Name of the synthetic gap-filling stage.
UNTRACKED_STAGE = "(untracked)"

#: The meta of every stage opened without any: one shared, read-only map.
_NO_META: Mapping[str, Any] = MappingProxyType({})


class Stage:
    """One named, timed interval inside a trace."""

    __slots__ = ("name", "start_ns", "end_ns", "depth", "meta")

    def __init__(
        self,
        name: str,
        start_ns: int,
        depth: int,
        meta: Mapping[str, Any],
        end_ns: Optional[int] = None,
    ):
        self.name = name
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.depth = depth
        self.meta = meta

    @property
    def closed(self) -> bool:
        """True once the stage has an end timestamp."""
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        """Stage duration; raises while the stage is still open."""
        if self.end_ns is None:
            raise ObservabilityError(f"stage {self.name!r} is still open")
        return self.end_ns - self.start_ns

    def __repr__(self) -> str:
        end = self.end_ns if self.end_ns is not None else "open"
        return f"Stage({self.name!r}, {self.start_ns}..{end}, depth={self.depth})"


class _StageHandle:
    """A trace's one context manager for its stages.

    ``with`` blocks nest, so the stage a block closes is always the
    innermost one open: one handle serves every stage of its trace.  It
    holds the trace's open-stage stack and clock, never the trace, so a
    retired record holds no reference cycle and is freed as soon as the
    tracer drops it.
    """

    __slots__ = ("_open", "_now")

    def __init__(self, open_stages: List[Stage], now):
        self._open = open_stages
        self._now = now

    def __enter__(self) -> Stage:
        return self._open[-1]

    def __exit__(self, exc_type, exc, tb) -> bool:
        if not self._open:
            raise ObservabilityError("stage closed after its trace finished")
        self._open.pop().end_ns = self._now()
        return False


class Trace:
    """The record of one operation: stages, hops, status and attributes.

    The record logs only the stages opened through :meth:`stage`; the
    ``(untracked)`` gaps between top-level stages are a function of the
    logged times, derived whenever :attr:`stages` is read.
    """

    __slots__ = (
        "trace_id",
        "op",
        "attrs",
        "start_ns",
        "end_ns",
        "status",
        "hops",
        "_now",
        "_on_finish",
        "_log",
        "_open",
        "_handle",
        "__weakref__",
    )

    def __init__(
        self,
        trace_id: str,
        op: str,
        clock: Clock,
        attrs: Dict[str, Any],
        on_finish=None,
    ):
        self.trace_id = trace_id
        self.op = op
        self.attrs = attrs
        self._now = now = clock.now_ns
        self._on_finish = on_finish
        self.start_ns = now()
        self.end_ns: Optional[int] = None
        #: ``ok`` or ``error:<ExceptionName>`` once finished.
        self.status: Optional[str] = None
        #: Causal hops in order, each already in its serialised shape
        #: (``seq``, ``kind``, ``t_ns``, then ``shard``/``detail`` if set).
        self.hops: List[dict] = []
        #: Every stage opened, in opening order (no gaps).
        self._log: List[Stage] = []
        self._open: List[Stage] = []
        self._handle = _StageHandle(self._open, now)

    @classmethod
    def from_dict(cls, record: dict) -> "Trace":
        """Rebuild the finished trace :meth:`to_dict` serialised.

        The record's gap stages are logged like any other: they tile the
        trace already, so reading :attr:`stages` derives no more and the
        record round-trips exactly.
        """
        clock = ManualClock(record["start_ns"])
        trace = cls(record["trace_id"], record["op"], clock, dict(record["attrs"]))
        trace.hops = [dict(hop) for hop in record["hops"]]
        trace._log = [
            Stage(
                stage["name"],
                stage["start_ns"],
                stage["depth"],
                dict(stage.get("meta", ())),
                stage["end_ns"],
            )
            for stage in record["stages"]
        ]
        clock.advance(record["end_ns"] - record["start_ns"])
        return trace.finish(record["status"])

    # -- lifecycle ---------------------------------------------------------

    @property
    def client_id(self) -> int:
        """The client the operation ran for (``attrs["client_id"]``, or 0)."""
        return self.attrs.get("client_id", 0)

    @property
    def finished(self) -> bool:
        """True once :meth:`finish` has run."""
        return self.end_ns is not None

    @property
    def total_ns(self) -> int:
        """End-to-end latency; raises while the trace is still open."""
        if self.end_ns is None:
            raise ObservabilityError(f"trace {self.trace_id} is still open")
        return self.end_ns - self.start_ns

    def stage(self, name: str, **meta: Any) -> _StageHandle:
        """Open stage ``name``; use as a context manager."""
        if self.end_ns is not None:
            raise ObservabilityError(
                f"cannot open stage {name!r} on finished trace {self.trace_id}"
            )
        open_stages = self._open
        stage = Stage(name, self._now(), len(open_stages), meta or _NO_META)
        self._log.append(stage)
        open_stages.append(stage)
        return self._handle

    def close_stage(self, stage: Stage) -> None:
        """Close ``stage``; must be the innermost open stage (LIFO)."""
        if not self._open:
            raise ObservabilityError(
                f"close of stage {stage.name!r} with no stage open"
            )
        if self._open[-1] is not stage:
            raise ObservabilityError(
                f"out-of-order stage close: {stage.name!r} closed while "
                f"{self._open[-1].name!r} is innermost"
            )
        self._open.pop()
        stage.end_ns = self._now()

    def finish(self, status: str = "ok") -> "Trace":
        """Seal the trace with ``status`` and retire it.

        An ``ok`` finish rejects open stages.  A failed operation
        (``error:<ExceptionName>``) has unwound past whatever it had
        open, so those stages are left out of the record.  A finished
        record keeps its log and drops the machinery that opened stages.
        """
        if self.end_ns is not None:
            raise ObservabilityError(f"trace {self.trace_id} already finished")
        if self._open:
            if status == "ok":
                names = ", ".join(s.name for s in self._open)
                raise ObservabilityError(
                    f"finish with open stages: {names} (close them first)"
                )
            self._open.clear()
        self._open = self._handle = None
        self.end_ns = self._now()
        self.status = status
        if self._on_finish is not None:
            self._on_finish(self)
        return self

    # -- queries -----------------------------------------------------------

    @property
    def stages(self) -> List[Stage]:
        """Every stage in time order, ``(untracked)`` gaps included.

        A gap precedes each top-level stage that opens after the last
        one closed (or after the trace started), and follows the last
        one when the trace finished later, so top-level durations always
        tile the trace.  A top-level stage a failure left open splits
        the tiling at its start; the record then leaves it out.
        """
        out: List[Stage] = []
        tiled = self.start_ns
        for stage in self._log:
            if stage.depth == 0:
                if stage.start_ns > tiled:
                    out.append(
                        Stage(UNTRACKED_STAGE, tiled, 0, _NO_META, stage.start_ns)
                    )
                tiled = stage.start_ns if stage.end_ns is None else stage.end_ns
            out.append(stage)
        if self.end_ns is not None and self.end_ns > tiled:
            out.append(Stage(UNTRACKED_STAGE, tiled, 0, _NO_META, self.end_ns))
        return out

    def top_level_stages(self) -> List[Stage]:
        """Closed stages at depth 0, in time order (incl. gap stages)."""
        return [s for s in self.stages if s.depth == 0 and s.closed]

    def stage_names(self, named_only: bool = True) -> List[str]:
        """Names of top-level stages; ``named_only`` drops gap stages."""
        return [
            s.name
            for s in self.top_level_stages()
            if not (named_only and s.name == UNTRACKED_STAGE)
        ]

    def stage_durations(self) -> Dict[str, int]:
        """Total duration per top-level stage name (ns)."""
        out: Dict[str, int] = {}
        for stage in self.top_level_stages():
            out[stage.name] = out.get(stage.name, 0) + stage.duration_ns
        return out

    def hop_kinds(self) -> List[str]:
        """Hop kinds in causal order."""
        return [hop["kind"] for hop in self.hops]

    def shards_touched(self) -> List[str]:
        """Distinct shards this request crossed, in first-touch order."""
        seen: List[str] = []
        for hop in self.hops:
            shard = hop.get("shard")
            if shard is not None and shard not in seen:
                seen.append(shard)
        return seen

    def to_dict(self) -> dict:
        """The serialised record of a finished trace (JSON lines, dumps)."""
        if not self.finished:
            raise ObservabilityError("cannot export an unfinished trace")
        return {
            "trace_id": self.trace_id,
            "op": self.op,
            "client_id": self.client_id,
            "status": self.status,
            "attrs": dict(self.attrs),
            "start_ns": self.start_ns,
            "end_ns": self.end_ns,
            "total_ns": self.total_ns,
            "stages": [
                {
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "depth": s.depth,
                    "meta": dict(s.meta),
                }
                for s in self.stages
                if s.closed
            ],
            "hops": [dict(hop) for hop in self.hops],
        }

    def describe(self) -> str:
        """Human-readable record: see :func:`render_record`."""
        return render_record(self.to_dict())

    def __enter__(self) -> "Trace":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.finish("ok" if exc_type is None else f"error:{exc_type.__name__}")
        return False

    def __repr__(self) -> str:
        state = self.status if self.finished else "open"
        return (
            f"Trace(id={self.trace_id!r}, op={self.op!r}, "
            f"stages={len(self.stages)}, hops={len(self.hops)}, {state})"
        )


def render_record(record: dict) -> str:
    """One record as text: a head line, its hops, then its stages.

    ``record`` is :meth:`Trace.to_dict`'s shape, or a context from a
    version-1 flight-recorder dump, which has hops and no stages.
    """
    start = record.get("start_ns") or 0
    end = record.get("end_ns")
    head = (
        f"trace {record.get('trace_id')} op={record.get('op')} "
        f"client={record.get('client_id')} status={record.get('status')}"
    )
    if end is not None:
        head += f" total={(end - start) / 1e6:.3f}ms"
    lines = [head]
    for hop in record.get("hops", []):
        rel_ms = (hop.get("t_ns", start) - start) / 1e6
        shard = hop.get("shard")
        detail = " ".join(
            f"{k}={v}" for k, v in sorted((hop.get("detail") or {}).items())
        )
        lines.append(
            f"  {hop.get('seq', 0):02d} +{rel_ms:8.3f}ms "
            f"{hop.get('kind', '?'):<18}"
            f"{' shard=' + shard if shard else ''}"
            f"{' ' + detail if detail else ''}"
        )
    for stage in record.get("stages", []):
        rel_ms = (stage["start_ns"] - start) / 1e6
        dur_ms = (stage["end_ns"] - stage["start_ns"]) / 1e6
        lines.append(
            f"  stage +{rel_ms:8.3f}ms {dur_ms:8.3f}ms "
            f"{'  ' * stage['depth']}{stage['name']}"
        )
    return "\n".join(lines)


def run_stage(trace: Optional["Trace"], name: str, step, *args):
    """``step(*args)``, timed as stage ``name`` of ``trace`` when given.

    For hot paths that read :attr:`Tracer.current` once for many steps:
    with no trace a step costs nothing more than its own call, where
    :meth:`Tracer.stage` costs a lookup and a null handle per stage.
    The stage opens through :meth:`Trace.stage` and closes as its
    handle would close it, without entering the handle.
    """
    if trace is None:
        return step(*args)
    trace.stage(name)
    try:
        return step(*args)
    finally:
        trace._open.pop().end_ns = trace._now()


class _NullHandle:
    """Returned by ``Tracer.stage`` when no trace is current."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class _Current(threading.local):
    """Each thread's current trace: None until the thread starts one."""

    trace: Optional[Trace] = None


class Tracer:
    """Starts records, tracks the current one per thread, keeps finished ones.

    ``capacity`` bounds the finished buffer (oldest evicted first, counted
    in ``dropped_total``) so million-operation runs do not accumulate
    unbounded trace state.  Failed operations are kept too, counted in
    ``aborted_total``: an error status is exactly what the flight
    recorder wants.  A record's id is ``c<client_id>-<seq>``, with one
    sequence per tracer, so it is deterministic under a fixed workload.
    """

    def __init__(self, clock: Clock = None, capacity: int = 256):
        if capacity < 1:
            raise ObservabilityError(f"capacity must be >= 1, got {capacity}")
        self.clock = clock if clock is not None else WallClock()
        self.capacity = capacity
        self.finished: List[Trace] = []
        self.started_total = 0
        self.finished_total = 0
        self.aborted_total = 0
        self.dropped_total = 0
        self._ids = itertools.count(1)
        self._local = _Current()
        self._obs_dropped = None
        #: Called with each retired record (the flight recorder's feed).
        self.on_retire = None

    def bind_obs(self, registry) -> None:
        """Export trace-drop accounting into ``registry`` (idempotent).

        Finished traces evicted because the buffer hit ``capacity``
        surface as the ``trace_dropped_total`` counter.
        """
        self._obs_dropped = registry.counter(
            "trace_dropped_total",
            "finished traces evicted because the tracer hit capacity",
        )
        if self.dropped_total:
            self._obs_dropped.inc(self.dropped_total)

    # -- current-trace plumbing -------------------------------------------

    #: This thread's active trace, if any (read without a Python frame).
    current = property(attrgetter("_local.trace"))

    # -- trace lifecycle ---------------------------------------------------

    def start(self, op: str, **attrs: Any) -> Trace:
        """Begin a new trace and make it this thread's current one."""
        local = self._local
        if local.trace is not None:
            raise ObservabilityError(
                f"trace {local.trace.trace_id} still active; finish it "
                "before starting another"
            )
        trace = Trace(
            f"c{attrs.get('client_id', 0)}-{next(self._ids)}",
            op,
            self.clock,
            attrs,
            on_finish=self._retire,
        )
        self.started_total += 1
        local.trace = trace
        return trace

    def _retire(self, trace: Trace) -> None:
        local = self._local
        if local.trace is trace:
            local.trace = None
        self.finished_total += 1
        if trace.status != "ok":
            self.aborted_total += 1
        self.finished.append(trace)
        overflow = len(self.finished) - self.capacity
        if overflow > 0:
            del self.finished[:overflow]
            self.dropped_total += overflow
            if self._obs_dropped is not None:
                self._obs_dropped.value += overflow
        if self.on_retire is not None:
            self.on_retire(trace)

    # -- recording into the current trace ----------------------------------

    def stage(self, name: str, **meta: Any):
        """Open a stage on the current trace; no-op when none is active."""
        trace = self._local.trace
        if trace is None:
            return _NULL_HANDLE
        return trace.stage(name, **meta)

    def hop(self, kind: str, shard: Optional[str] = None, **detail: Any) -> None:
        """Append a causal hop to the current trace; no-op when none is active."""
        trace = self._local.trace
        if trace is None:
            return
        hop = {"seq": len(trace.hops), "kind": kind, "t_ns": self.clock.now_ns()}
        if shard is not None:
            hop["shard"] = shard
        if detail:
            hop["detail"] = detail
        trace.hops.append(hop)

    # -- queries -----------------------------------------------------------

    @property
    def last(self) -> Optional[Trace]:
        """Most recently finished trace."""
        return self.finished[-1] if self.finished else None

    def clear(self) -> None:
        """Drop all finished traces (keeps lifetime counters)."""
        self.finished.clear()
