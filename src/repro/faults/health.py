"""The health harness: a deterministic telemetry/SLO/flight-recorder run.

:func:`run_health` drives a seeded sharded (optionally replicated)
workload on a :class:`~repro.obs.ManualClock`, with a *modelled*
per-shard service latency installed through the server's
``service_hook`` seam: each handled frame advances the clock by a base
cost plus seeded jitter, and members of the ``hot_shard`` group pay an
extra multi-millisecond penalty -- the injected hot-shard latency
fault.  Because every timestamp comes from the manual clock and every
random draw from seeded generators, two runs with the same parameters
produce **bit-identical** telemetry snapshots, SLO breach reports and
flight-recorder dumps.

This is the backing for ``python -m repro.cli health`` (clean-run SLO
report, CI's ``health-smoke``) and ``python -m repro.cli flightrec``
(breach scenario producing a parseable dump).  A run wires the full
pipeline: causal contexts per routed operation, windowed per-shard
aggregates on a fixed operation cadence, declarative SLO rules
(:mod:`repro.obs.slo`), and a flight recorder that freezes its rings on
the first breaching tick.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.crypto.keys import KeyGenerator
from repro.errors import ConfigurationError
from repro.faults.engine import FaultEngine
from repro.faults.schedule import FaultSchedule
from repro.obs import (
    DEFAULT_SLO_SPEC,
    FlightRecorder,
    ManualClock,
    ObsContext,
    SloEngine,
    TelemetryPipeline,
)
from repro.shard.spec import ClusterSpec

__all__ = ["HealthReport", "run_health"]

#: Modelled service cost per handled frame (ns): base + jitter below.
_BASE_SERVICE_NS = 150_000
_JITTER_SERVICE_NS = 100_000
#: Extra per-frame penalty on the hot replica group (ns) -- far beyond
#: the default 1 ms p99 objective, so the breach is unambiguous.
_HOT_PENALTY_NS = 2_500_000
#: Modelled client-side think time between operations (ns).
_THINK_NS = 20_000

#: Workload shape: keyspace, value size and the client's retry budget.
_KEYSPACE = 32
_VALUE_SIZE = 48
_MAX_RETRIES = 4

#: Hop kinds that mark a request as "affected" by a fault or failover.
_AFFECTED_KINDS = (
    "retry",
    "reconnect",
    "dup_reply",
    "revive",
    "promotion_follow",
    "failover",
)


@dataclass
class HealthReport:
    """Everything one health run produced."""

    seed: int
    shards: int
    replicas: int
    ack_mode: str
    ops: int
    hot_shard: Optional[str]
    schedule: str
    slo_spec: str
    ticks: int = 0
    operations: int = 0
    errors: int = 0
    #: SLO breaches in tick order (dicts from ``SloBreach.to_dict``).
    breaches: List[dict] = field(default_factory=list)
    #: The SLO engine's text report.
    slo_report: str = ""
    #: Last published snapshot (``ClusterTelemetry.to_dict``).
    last_snapshot: Optional[dict] = None
    #: The first trace context carrying a retry/failover-class hop.
    affected_trace: Optional[dict] = None
    #: Flight-recorder dump frozen at the first breach, if any.
    dump: Optional[dict] = None
    fault_log: List[str] = field(default_factory=list)

    @property
    def slo_ok(self) -> bool:
        """True when no rule breached over the whole run."""
        return not self.breaches

    @property
    def exit_code(self) -> int:
        """Process exit code: 0 clean, 1 SLO breach."""
        return 0 if self.slo_ok else 1

    def to_dict(self) -> dict:
        """JSON-shaped view (the ``--json`` CLI output)."""
        return {
            "seed": self.seed,
            "shards": self.shards,
            "replicas": self.replicas,
            "ack_mode": self.ack_mode,
            "ops": self.ops,
            "hot_shard": self.hot_shard,
            "schedule": self.schedule,
            "slo_spec": self.slo_spec,
            "ticks": self.ticks,
            "operations": self.operations,
            "errors": self.errors,
            "slo_ok": self.slo_ok,
            "breaches": list(self.breaches),
            "last_snapshot": self.last_snapshot,
            "affected_trace": self.affected_trace,
            "dump_recorded": self.dump is not None,
            "fault_log": list(self.fault_log),
        }

    def report(self) -> str:
        """Human-readable run summary."""
        lines = [
            "Cluster health run",
            "==================",
            f"shards={self.shards} replicas={self.replicas} "
            f"ack={self.ack_mode} ops={self.operations} seed={self.seed}",
            f"ticks={self.ticks} errors={self.errors} "
            f"hot_shard={self.hot_shard or '-'} "
            f"schedule={self.schedule or '-'}",
            "",
            self.slo_report,
        ]
        if self.last_snapshot is not None:
            lines.append("")
            lines.append("last snapshot (windowed):")
            for name, sample in sorted(self.last_snapshot["shards"].items()):
                lines.append(
                    f"  {name:<12} ops={sample['ops']:>4} "
                    f"p50={sample['p50_ns'] / 1e6:7.3f}ms "
                    f"p99={sample['p99_ns'] / 1e6:7.3f}ms "
                    f"err={sample['errors']} lag={sample['replication_lag']} "
                    f"epc={sample['epc_bytes']}B"
                )
        if self.dump is not None:
            lines.append("")
            lines.append(
                f"flight recorder: dump frozen "
                f"(trigger={self.dump['trigger']['reason']}, "
                f"{len(self.dump['contexts'])} contexts, "
                f"{len(self.dump['faults'])} faults, "
                f"{len(self.dump['events'])} events)"
            )
        return "\n".join(lines)


def _workload_key(index: int) -> bytes:
    return b"key-%03d" % index


def run_health(
    seed: int = 11,
    cluster: ClusterSpec = ClusterSpec(shards=2, replicas=1),
    ops: int = 240,
    tick_every: int = 40,
    window_ticks: int = 3,
    hot_shard: Optional[str] = None,
    schedule: str = "",
    slo: Optional[str] = None,
) -> HealthReport:
    """Run one deterministic health workload; see the module docstring.

    ``cluster`` is the store under test (it must be sharded).
    ``hot_shard`` names a shard whose group pays the modelled latency
    penalty (``"auto"`` picks the first shard); None runs the cluster
    clean.  ``schedule`` optionally arms a
    :class:`~repro.faults.engine.FaultEngine` (``kind:rate`` syntax) so
    transport faults land in the fault log and the flight recorder.
    ``slo`` overrides :data:`~repro.obs.slo.DEFAULT_SLO_SPEC`.
    Raises :class:`~repro.errors.ConfigurationError` on bad parameters.
    """
    if ops < 1:
        raise ConfigurationError(f"ops must be >= 1, got {ops}")
    if tick_every < 1:
        raise ConfigurationError(f"tick_every must be >= 1, got {tick_every}")
    if window_ticks < 1:
        raise ConfigurationError(
            f"window_ticks must be >= 1, got {window_ticks}"
        )

    clock = ManualClock()
    obs = ObsContext.create(clock=clock)
    # Flight recorder first, so topology events from cluster bring-up
    # (the initial epoch install) land in its ring.
    obs.attach_flight(FlightRecorder())
    live = cluster.build(seed, obs)

    if hot_shard == "auto":
        hot_shard = live.shards[0]
    if hot_shard is not None and hot_shard not in live.shards:
        raise ConfigurationError(
            f"hot shard {hot_shard!r} is not a member "
            f"(have {sorted(live.shards)})"
        )

    slo_spec = slo if slo else DEFAULT_SLO_SPEC
    engine = SloEngine.from_spec(slo_spec)
    pipeline = TelemetryPipeline(
        clock=clock, window_ticks=window_ticks, registry=obs.registry
    )
    pipeline.attach_cluster(live)
    pipeline.attach_slo(engine)
    obs.attach_telemetry(pipeline)

    # The modelled service-latency seam: every group member gets a hook
    # (so a promotion keeps the hot group hot), drawing from one seeded
    # stream in spawn order -- deterministic under the seed.
    model_rng = random.Random(seed ^ 0xC10C)

    def _service_hook(penalty_ns: int):
        def advance() -> None:
            clock.advance(
                _BASE_SERVICE_NS
                + model_rng.randrange(_JITTER_SERVICE_NS)
                + penalty_ns
            )

        return advance

    for name in live.shards:
        penalty = _HOT_PENALTY_NS if name == hot_shard else 0
        for member in live.group(name).members():
            member.service_hook = _service_hook(penalty)
    if hot_shard is not None:
        obs.record_event("hot_shard_injected", shard=hot_shard)

    faults: Optional[FaultEngine] = None
    client = cluster.router(
        live,
        client_id=1,
        keygen=KeyGenerator(seed),
        max_retries=_MAX_RETRIES,
        retry_backoff_s=0.0,
    )
    if schedule:
        faults = FaultEngine(FaultSchedule.parse(schedule), seed, obs=obs)
        faults.install(
            fabrics=[live.server(n).fabric for n in live.shards],
            clients=list(client.sessions.values()),
        )

    report = HealthReport(
        seed=seed,
        shards=cluster.shards,
        replicas=cluster.replicas,
        ack_mode=cluster.ack_mode,
        ops=ops,
        hot_shard=hot_shard,
        schedule=schedule,
        slo_spec=slo_spec,
    )

    oprng = random.Random((seed << 1) ^ 0x0B5)
    written: List[bytes] = []
    for op_index in range(ops):
        key = _workload_key(oprng.randrange(_KEYSPACE))
        do_get = written and oprng.random() < 0.4
        try:
            if do_get:
                key = written[oprng.randrange(len(written))]
                client.get(key)
            else:
                value = (b"v%06d-" % op_index).ljust(_VALUE_SIZE, b"x")
                client.put(key, value)
                if key not in written:
                    written.append(key)
        except Exception:
            # Typed failure after the retry budget: counted, and already
            # fed to the pipeline as an error sample by the router.
            report.errors += 1
        clock.advance(_THINK_NS)
        if (op_index + 1) % tick_every == 0:
            pipeline.tick()
        report.operations += 1
    if ops % tick_every != 0:
        pipeline.tick()

    if faults is not None:
        faults.uninstall()
        report.fault_log = list(faults.log)

    report.ticks = pipeline.ticks
    report.breaches = [b.to_dict() for b in engine.breaches]
    report.slo_report = engine.report()
    if pipeline.last is not None:
        report.last_snapshot = pipeline.last.to_dict()
    for context in obs.ctxlog.recent():
        if any(k in _AFFECTED_KINDS for k in context.hop_kinds()):
            report.affected_trace = context.to_dict()
            break
    if engine.breaches:
        report.dump = obs.flight.last_dump
    return report
