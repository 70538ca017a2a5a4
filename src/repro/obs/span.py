"""Span-based tracing: follow one operation end to end, stage by stage.

A :class:`Trace` is the record of one logical operation (a ``get()``, a
``put()``, one simulated request).  It is made of **stages** -- named,
timed intervals -- opened and closed in strict LIFO order.  Top-level
stages *tile* the trace: whenever a top-level stage opens after a gap (or
the trace finishes with trailing untimed work), the gap is recorded as an
explicit ``(untracked)`` stage.  The invariant the exporters and the
Figure-8 runner rely on is therefore exact::

    sum(stage.duration_ns for top-level stages) == trace.total_ns

Nested stages (depth > 0) attribute time *within* their parent and do not
participate in the tiling sum.

The :class:`Tracer` owns a clock, a bounded buffer of finished traces, and
the *current* trace of each thread.  Cross-layer attribution works because
the server shares the client's tracer: while the client's operation is the
current trace, server-side code calls ``tracer.stage("server.xyz")`` and
its stages land inside the same trace.  When no trace is current (e.g. a
threaded server handling frames on another thread) ``tracer.stage`` is a
no-op, so instrumentation never needs guarding at call sites.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Dict, List, Optional

from repro.errors import ObservabilityError
from repro.obs.clock import Clock, WallClock

__all__ = ["Stage", "Trace", "Tracer", "UNTRACKED_STAGE", "run_stage"]

#: Name of the synthetic gap-filling stage.
UNTRACKED_STAGE = "(untracked)"


class Stage:
    """One named, timed interval inside a trace."""

    __slots__ = ("name", "start_ns", "end_ns", "depth", "meta")

    def __init__(
        self, name: str, start_ns: int, depth: int, meta: Dict[str, Any]
    ):
        self.name = name
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
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
    """Context manager for one stage; closes it in LIFO order."""

    __slots__ = ("_trace", "_stage")

    def __init__(self, trace: "Trace", stage: Optional[Stage]):
        self._trace = trace
        self._stage = stage

    def __enter__(self) -> Optional[Stage]:
        return self._stage

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._trace is not None and self._stage is not None:
            self._trace.close_stage(self._stage)
        return False


class Trace:
    """The record of one operation: ordered stages plus attributes."""

    def __init__(
        self,
        trace_id: int,
        op: str,
        clock: Clock,
        attrs: Dict[str, Any],
        on_finish=None,
    ):
        self.trace_id = trace_id
        self.op = op
        self.attrs = attrs
        self._clock = clock
        self._on_finish = on_finish
        self.start_ns = clock.now_ns()
        self.end_ns: Optional[int] = None
        self.stages: List[Stage] = []
        self._open: List[Stage] = []
        #: End of the last closed *top-level* stage (for gap filling).
        self._tiled_until = self.start_ns

    # -- lifecycle ---------------------------------------------------------

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
        if self.finished:
            raise ObservabilityError(
                f"cannot open stage {name!r} on finished trace {self.trace_id}"
            )
        now = self._clock.now_ns()
        if not self._open and now > self._tiled_until:
            # Gap between top-level stages: make the untimed interval an
            # explicit stage so top-level durations always tile the trace.
            gap = Stage(UNTRACKED_STAGE, self._tiled_until, 0, {})
            gap.end_ns = now
            self.stages.append(gap)
            self._tiled_until = now
        stage = Stage(name, now, len(self._open), dict(meta))
        self.stages.append(stage)
        self._open.append(stage)
        return _StageHandle(self, stage)

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
        stage.end_ns = self._clock.now_ns()
        if stage.depth == 0:
            self._tiled_until = stage.end_ns

    def finish(self) -> "Trace":
        """Seal the trace; rejects open stages, records any trailing gap."""
        if self.finished:
            raise ObservabilityError(f"trace {self.trace_id} already finished")
        if self._open:
            names = ", ".join(s.name for s in self._open)
            raise ObservabilityError(
                f"finish with open stages: {names} (close them first)"
            )
        now = self._clock.now_ns()
        if now > self._tiled_until:
            gap = Stage(UNTRACKED_STAGE, self._tiled_until, 0, {})
            gap.end_ns = now
            self.stages.append(gap)
            self._tiled_until = now
        self.end_ns = now
        if self._on_finish is not None:
            self._on_finish(self)
        return self

    def abort(self) -> None:
        """Discard the trace (error paths): close nothing, record nothing."""
        self._open.clear()
        self.end_ns = self.start_ns
        if self._on_finish is not None:
            self._on_finish(self, aborted=True)

    # -- queries -----------------------------------------------------------

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

    def __enter__(self) -> "Trace":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is None:
            self.finish()
        else:
            self.abort()
        return False

    def __repr__(self) -> str:
        state = "finished" if self.finished else "open"
        return (
            f"Trace(id={self.trace_id}, op={self.op!r}, "
            f"stages={len(self.stages)}, {state})"
        )


def run_stage(trace: Optional["Trace"], name: str, step, *args):
    """``step(*args)``, timed as stage ``name`` of ``trace`` when given.

    For hot paths that read :attr:`Tracer.current` once for many steps:
    with no trace a step costs nothing more than its own call, where
    :meth:`Tracer.stage` costs a lookup and a null handle per stage.
    """
    if trace is None:
        return step(*args)
    with trace.stage(name):
        return step(*args)


class _NullHandle:
    """Returned by ``Tracer.stage`` when no trace is current."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_HANDLE = _NullHandle()


class Tracer:
    """Creates traces, tracks the current one per thread, keeps finished ones.

    ``capacity`` bounds the finished-trace buffer (oldest evicted first) so
    million-operation runs do not accumulate unbounded trace state.
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
        self._local = threading.local()
        self._obs_dropped = None

    def bind_obs(self, registry) -> None:
        """Export trace-drop accounting into ``registry`` (idempotent).

        Finished traces evicted because the buffer hit ``capacity`` were
        previously invisible truncation; after binding they surface as
        the ``trace_dropped_total`` counter.
        """
        self._obs_dropped = registry.counter(
            "trace_dropped_total",
            "finished traces evicted because the tracer hit capacity",
        )
        if self.dropped_total:
            self._obs_dropped.inc(self.dropped_total)

    # -- current-trace plumbing -------------------------------------------

    @property
    def current(self) -> Optional[Trace]:
        """This thread's active trace, if any."""
        return getattr(self._local, "trace", None)

    def _set_current(self, trace: Optional[Trace]) -> None:
        self._local.trace = trace

    # -- trace lifecycle ---------------------------------------------------

    def start(self, op: str, **attrs: Any) -> Trace:
        """Begin a new trace and make it this thread's current one."""
        if self.current is not None:
            raise ObservabilityError(
                f"trace {self.current.trace_id} still active; finish or "
                "abort it before starting another"
            )
        trace = Trace(
            next(self._ids), op, self.clock, attrs, on_finish=self._retire
        )
        self.started_total += 1
        self._set_current(trace)
        return trace

    def _retire(self, trace: Trace, aborted: bool = False) -> None:
        if self.current is trace:
            self._set_current(None)
        if aborted:
            self.aborted_total += 1
            return
        self.finished_total += 1
        self.finished.append(trace)
        overflow = len(self.finished) - self.capacity
        if overflow > 0:
            del self.finished[:overflow]
            self.dropped_total += overflow
            if self._obs_dropped is not None:
                self._obs_dropped.inc(overflow)

    def abort_current(self) -> None:
        """Abort this thread's active trace, if any (error-path cleanup)."""
        trace = self.current
        if trace is not None:
            trace.abort()

    # -- convenience -------------------------------------------------------

    def stage(self, name: str, **meta: Any):
        """Open a stage on the current trace; no-op when none is active."""
        trace = self.current
        if trace is None:
            return _NULL_HANDLE
        return trace.stage(name, **meta)

    @property
    def last(self) -> Optional[Trace]:
        """Most recently finished trace."""
        return self.finished[-1] if self.finished else None

    def clear(self) -> None:
        """Drop all finished traces (keeps lifetime counters)."""
        self.finished.clear()
