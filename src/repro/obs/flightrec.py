"""Breach-triggered flight recorder: the cluster's black box.

The recorder keeps small bounded ring buffers of the most recent

* finished trace records (fed by :class:`~repro.obs.span.Tracer` via its
  ``on_retire`` hook),
* fault-log entries (fed by :class:`~repro.faults.engine.FaultEngine`),
* topology events (epoch installs, crashes, promotions, migrations --
  fed by the cluster/replica layers through ``ObsContext.record_event``),

and on :meth:`FlightRecorder.trigger` -- SLO breach, shard crash, or a
red ``chaos`` run -- freezes them all into one JSON-able dump together
with the recent telemetry snapshots and accumulated SLO breaches.  The
dump is everything needed to debug the incident offline: which fault
fired, which requests it hurt (with their stages and full causal hop
lists), what the windowed percentiles looked like, and how the topology
reacted.

Dumps are deterministic under a seeded run on a manual clock, so tests
pin their structure and CI archives them as artifacts.  Version 2 dumps
carry each record's ``stages`` beside its ``hops``; version 1 dumps
(hops only) still load and render.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Dict, List, Optional

from repro.errors import ObservabilityError
from repro.obs.clock import Clock, WallClock
from repro.obs.span import render_record

__all__ = ["FlightRecorder"]

_DUMP_VERSION = 2
#: Versions :meth:`FlightRecorder.load` reads.
_LOADABLE_VERSIONS = (1, 2)
_REQUIRED_KEYS = ("version", "trigger", "contexts", "faults", "events")


class FlightRecorder:
    """Bounded rings of recent spans, faults and topology events."""

    def __init__(
        self,
        context_capacity: int = 64,
        fault_capacity: int = 256,
        event_capacity: int = 128,
        dump_capacity: int = 4,
    ):
        if min(context_capacity, fault_capacity, event_capacity, dump_capacity) < 1:
            raise ObservabilityError("flight-recorder capacities must be >= 1")
        #: Time source; ``ObsContext.attach_flight`` rebinds this to the
        #: context's clock so dump timestamps share the run's timeline.
        self.clock: Clock = WallClock()
        self.contexts: deque = deque(maxlen=context_capacity)
        self.faults: deque = deque(maxlen=fault_capacity)
        self.events: deque = deque(maxlen=event_capacity)
        self.dumps: deque = deque(maxlen=dump_capacity)
        self.triggers_total = 0
        #: Optional telemetry pipeline whose snapshot history and SLO
        #: breaches are embedded in every dump.
        self.pipeline = None

    # -- intake ------------------------------------------------------------

    def record_context(self, trace) -> None:
        """Ring-buffer one finished trace record (``on_retire`` hook)."""
        self.contexts.append(trace.to_dict())

    def record_fault(self, entry: str, t_ns: Optional[int] = None) -> None:
        """Ring-buffer one fault-log entry (``kind`` or ``kind:detail``)."""
        self.faults.append(
            {
                "entry": entry,
                "t_ns": t_ns if t_ns is not None else self.clock.now_ns(),
            }
        )

    def record_event(self, kind: str, t_ns: Optional[int] = None, **fields: Any) -> None:
        """Ring-buffer one topology event (crash, promotion, epoch...)."""
        event = {
            "kind": kind,
            "t_ns": t_ns if t_ns is not None else self.clock.now_ns(),
        }
        event.update(fields)
        self.events.append(event)

    # -- dumping -----------------------------------------------------------

    def trigger(self, reason: str, **info: Any) -> dict:
        """Freeze the rings into a dump; returns (and retains) it."""
        self.triggers_total += 1
        trigger: Dict[str, Any] = {
            "reason": reason,
            "t_ns": self.clock.now_ns(),
            "seq": self.triggers_total,
        }
        trigger.update(info)
        dump: Dict[str, Any] = {
            "version": _DUMP_VERSION,
            "trigger": trigger,
            "contexts": list(self.contexts),
            "faults": list(self.faults),
            "events": list(self.events),
        }
        pipeline = self.pipeline
        if pipeline is not None:
            dump["snapshots"] = [snap.to_dict() for snap in pipeline.history]
            slo = getattr(pipeline, "slo", None)
            if slo is not None:
                dump["breaches"] = [b.to_dict() for b in slo.breaches]
        self.dumps.append(dump)
        return dump

    @property
    def last_dump(self) -> Optional[dict]:
        """Most recent dump, or None if nothing has triggered."""
        return self.dumps[-1] if self.dumps else None

    def write(self, path: str, dump: Optional[dict] = None) -> str:
        """Serialise ``dump`` (default: the last one) to ``path`` as JSON."""
        dump = dump if dump is not None else self.last_dump
        if dump is None:
            raise ObservabilityError("no flight-recorder dump to write")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    # -- offline analysis --------------------------------------------------

    @staticmethod
    def load(path: str) -> dict:
        """Parse and validate a dump written by :meth:`write`.

        Raises :class:`~repro.errors.ObservabilityError` when the file
        is not a structurally valid flight-recorder artifact.
        """
        try:
            with open(path, "r", encoding="utf-8") as fh:
                dump = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ObservabilityError(
                f"unreadable flight-recorder dump {path!r}: {exc}"
            )
        FlightRecorder.validate(dump)
        return dump

    @staticmethod
    def validate(dump: Any) -> None:
        """Structural check shared by :meth:`load` and tests."""
        if not isinstance(dump, dict):
            raise ObservabilityError("flight-recorder dump is not an object")
        missing = [key for key in _REQUIRED_KEYS if key not in dump]
        if missing:
            raise ObservabilityError(
                f"flight-recorder dump missing key(s): {missing}"
            )
        if dump["version"] not in _LOADABLE_VERSIONS:
            raise ObservabilityError(
                f"unsupported dump version {dump['version']!r}"
            )
        for key in ("contexts", "faults", "events"):
            if not isinstance(dump[key], list):
                raise ObservabilityError(f"dump field {key!r} is not a list")
        if not isinstance(dump["trigger"], dict) or "reason" not in dump["trigger"]:
            raise ObservabilityError("dump trigger lacks a reason")

    @staticmethod
    def render_trace(dump: dict, trace_id: str) -> str:
        """Re-render one record from a dump (:func:`~repro.obs.span.render_record`)."""
        for record in dump.get("contexts", []):
            if record.get("trace_id") == trace_id:
                return render_record(record)
        raise ObservabilityError(
            f"trace {trace_id!r} not present in flight-recorder dump"
        )

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(contexts={len(self.contexts)}, "
            f"faults={len(self.faults)}, events={len(self.events)}, "
            f"dumps={len(self.dumps)})"
        )
