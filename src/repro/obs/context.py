"""The observability context: tracer and registry -- threaded everywhere.

An :class:`ObsContext` is the single object every layer records into: the
server creates (or receives) one, shares it with the enclave, the RDMA
fabric and its clients, and every layer records into the same sinks.
Experiments that want isolated measurement construct their own context;
components that were never given one fall back to cheap no-op behavior
(``tracer.stage`` / ``tracer.hop`` with nothing active).

The bundle holds up to four sinks:

- ``tracer`` -- one record per request: its timed stages and its causal
  hops across the cluster (:mod:`repro.obs.span`);
- ``registry`` -- counters/gauges/histograms (:mod:`repro.obs.metrics`);
- ``telemetry`` -- the sliding-window pipeline, attached on demand via
  :meth:`ObsContext.attach_telemetry`;
- ``flight`` -- the flight recorder, attached via
  :meth:`ObsContext.attach_flight`.

Layers record hops with :meth:`ObsContext.hop` and topology events with
:meth:`ObsContext.record_event`; both are no-ops when the corresponding
sink is absent or idle, so instrumentation never needs guarding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.obs.clock import Clock
from repro.obs.metrics import MetricsRegistry
from repro.obs.span import Tracer

__all__ = ["ObsContext"]


@dataclass
class ObsContext:
    """Bundle of the tracing, metrics and telemetry sinks shared by layers."""

    tracer: Tracer = field(default_factory=Tracer)
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    telemetry: Optional[Any] = None
    flight: Optional[Any] = None

    def __post_init__(self):
        """Bind the tracer's drop counter into the registry."""
        self.tracer.bind_obs(self.registry)

    @classmethod
    def create(cls, clock: Clock = None, trace_capacity: int = 256) -> "ObsContext":
        """Build a fresh context, optionally on a specific clock."""
        return cls(tracer=Tracer(clock=clock, capacity=trace_capacity))

    # -- causal tracing convenience ---------------------------------------

    def hop(self, kind: str, shard: str = None, **detail: Any) -> None:
        """Append a causal hop to the current trace (no-op when idle)."""
        self.tracer.hop(kind, shard=shard, **detail)

    def record_event(self, kind: str, **fields: Any) -> None:
        """Record a topology event into the flight recorder, if attached."""
        if self.flight is not None:
            self.flight.record_event(
                kind, t_ns=self.tracer.clock.now_ns(), **fields
            )

    # -- optional sinks ----------------------------------------------------

    def attach_flight(self, flight) -> "ObsContext":
        """Wire a flight recorder into this context (and the pipeline)."""
        self.flight = flight
        flight.clock = self.tracer.clock
        self.tracer.on_retire = flight.record_context
        if self.telemetry is not None:
            self.telemetry.attach_flight(flight)
            flight.pipeline = self.telemetry
        return self

    def attach_telemetry(self, pipeline) -> "ObsContext":
        """Wire a telemetry pipeline into this context (and the recorder)."""
        self.telemetry = pipeline
        pipeline.clock = self.tracer.clock
        if self.flight is not None:
            pipeline.attach_flight(self.flight)
            self.flight.pipeline = pipeline
        return self
