"""``repro.obs``: unified tracing and metrics across every layer.

The subsystem has these parts (see ``docs/OBSERVABILITY.md``):

- **trace records** (:mod:`repro.obs.span`): a :class:`Tracer` keeps one
  record per request -- its timed stages (client key-gen/encrypt, RDMA
  write, enclave processing, reply, client MAC verify), whose top-level
  durations tile the end-to-end latency exactly, and its causal hops
  across the cluster: which shards it touched, in what order, and why
  it was retried;
- **metrics** (:mod:`repro.obs.metrics`): a :class:`MetricsRegistry` of
  counters, gauges and bounded log-linear histograms, bound lazily by the
  core/RDMA/SGX/sim layers;
- **exporters** (:mod:`repro.obs.exporters`): JSON-lines traces,
  Prometheus text exposition, and human-readable stage tables, surfaced
  through ``python -m repro.cli trace`` / ``python -m repro.cli metrics``;
- **telemetry** (:mod:`repro.obs.telemetry`): a sliding-window
  :class:`TelemetryPipeline` publishing per-shard
  :class:`ClusterTelemetry` snapshots on a deterministic tick;
- **SLO engine** (:mod:`repro.obs.slo`): declarative latency/error-budget/
  staleness rules evaluated against every snapshot;
- **flight recorder** (:mod:`repro.obs.flightrec`): bounded rings of
  recent trace records, faults and topology events dumped as one JSON
  artifact on SLO breach, shard crash or a red chaos run.
"""

from repro.obs.clock import Clock, ManualClock, SimClock, WallClock
from repro.obs.context import ObsContext
from repro.obs.exporters import (
    lint_prometheus,
    prometheus_text,
    stage_breakdown,
    stage_latency_table,
    trace_from_json,
    trace_to_dict,
    trace_to_json,
    traces_to_json_lines,
)
from repro.obs.flightrec import FlightRecorder
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.slo import (
    DEFAULT_SLO_SPEC,
    SloBreach,
    SloEngine,
    SloRule,
    parse_slo,
)
from repro.obs.span import Stage, Trace, Tracer, UNTRACKED_STAGE
from repro.obs.telemetry import ClusterTelemetry, ShardSample, TelemetryPipeline

__all__ = [
    "Clock",
    "WallClock",
    "SimClock",
    "ManualClock",
    "ObsContext",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Stage",
    "Trace",
    "Tracer",
    "UNTRACKED_STAGE",
    "trace_to_dict",
    "trace_to_json",
    "traces_to_json_lines",
    "trace_from_json",
    "prometheus_text",
    "lint_prometheus",
    "stage_latency_table",
    "stage_breakdown",
    "ShardSample",
    "ClusterTelemetry",
    "TelemetryPipeline",
    "DEFAULT_SLO_SPEC",
    "SloRule",
    "SloBreach",
    "SloEngine",
    "parse_slo",
    "FlightRecorder",
]
