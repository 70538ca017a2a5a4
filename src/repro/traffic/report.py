"""Coordinated-omission-corrected reporting and the knee finder.

A :class:`TrafficReport` carries one scenario run end to end: the
scenario identity (name, version, seed -- enough to reproduce it
byte-for-byte), the offered/admitted/throttled/executed/error counts,
and the **corrected vs. uncorrected** latency distributions side by
side.  ``corrected`` charges each operation from its *intended* start
on the arrival schedule; ``uncorrected`` from the moment its connection
actually sent it -- the closed-loop driver's view.  Above saturation
the two diverge without bound; the report prints them in one table so
the omission gap is never hidden.

SLO evaluation reuses the PR 6 grammar (:mod:`repro.obs.slo`)
twice over:

- *windowed* breaches come from the live
  :class:`~repro.obs.telemetry.TelemetryPipeline` ticks during the run
  (attached by :mod:`repro.traffic.scenarios`);
- *run-level* evaluation (:meth:`TrafficReport.evaluate_slo`) folds the
  whole run's per-shard corrected recorders into one synthetic
  :class:`~repro.obs.telemetry.ClusterTelemetry` snapshot and asks a
  fresh :class:`~repro.obs.slo.SloEngine` -- this is the predicate the
  knee finder binary-searches against.

:func:`find_knee` locates the **knee**: the highest offered rate (ops/s,
integer) whose run still satisfies the SLO.  Each probe is a fresh
seeded scenario run at the candidate rate, so the result is a pure
function of ``(probe function, bounds, slo, seed)`` and therefore
seed-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.obs.slo import SloBreach, SloEngine
from repro.obs.telemetry import ClusterTelemetry, ShardSample
from repro.sim.stats import LatencyRecorder

__all__ = [
    "TRAFFIC_SLO_SPEC",
    "TrafficReport",
    "KneeProbe",
    "KneeResult",
    "find_knee",
]

#: Default objective for open-loop runs: the knee is where the whole-run
#: corrected p99 crosses 5 ms or the error budget burns.  (No staleness
#: rule: run-level snapshots are synthesized from recorders, which carry
#: no replication lag -- the windowed pipeline still checks lag live.)
TRAFFIC_SLO_SPEC = "latency:p99<5ms:min=8,errors:budget=2%:burn<5"

_PCTS = (50.0, 99.0, 99.9)
_PCT_KEYS = ("p50_ns", "p99_ns", "p999_ns")


def _tail(recorder: LatencyRecorder) -> Dict[str, int]:
    """p50/p99/p999 of one recorder (zeros when empty)."""
    if recorder.is_empty:
        return {key: 0 for key in _PCT_KEYS}
    return {
        key: recorder.percentile(pct) for key, pct in zip(_PCT_KEYS, _PCTS)
    }


@dataclass
class TrafficReport:
    """Everything one scenario run produced; see the module docstring."""

    scenario: str
    version: int
    seed: int
    shards: int
    replicas: int
    rate_ops_s: float
    ops: int
    arrival_kind: str
    schedule: str
    slo_spec: str
    total_sessions: int
    tenants_spec: List[dict] = field(default_factory=list)

    offered: int = 0
    admitted: int = 0
    throttled: int = 0
    executed: int = 0
    errors: int = 0
    duration_ns: int = 0
    ticks: int = 0
    throughput_ops_s: float = 0.0

    corrected: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder(bounded=True)
    )
    uncorrected: LatencyRecorder = field(
        default_factory=lambda: LatencyRecorder(bounded=True)
    )
    per_shard: Dict[str, LatencyRecorder] = field(default_factory=dict)
    shard_errors: Dict[str, int] = field(default_factory=dict)
    tenant_stats: Dict[str, dict] = field(default_factory=dict)

    #: Breaches from the live windowed pipeline during the run.
    windowed_breaches: List[dict] = field(default_factory=list)
    #: Fault log + sha256 fingerprint when a schedule was armed.
    fault_log: List[str] = field(default_factory=list)
    fault_fingerprint: Optional[str] = None

    #: Near-cache / backup-offload configuration and aggregates.  The
    #: JSON section only appears when a feature was on, so reports from
    #: default runs keep their exact historical bytes.
    near_cache: bool = False
    read_offload: bool = False
    nearcache: Optional[dict] = None
    #: GET frames the shard primaries / backups actually handled --
    #: always populated (bench baselines need the primary count even
    #: with caching off), only serialized alongside ``nearcache``.
    primary_gets: int = 0
    backup_gets: int = 0

    #: Elastic-controller section, serialized only when the autoscaler
    #: was live so default reports keep their historical bytes.
    autoscale: bool = False
    autoscale_decisions: List[dict] = field(default_factory=list)
    autoscale_log: List[str] = field(default_factory=list)
    autoscale_summary: Optional[dict] = None

    # -- distributions -----------------------------------------------------

    def corrected_tail(self) -> Dict[str, int]:
        """Corrected p50/p99/p999 (ns)."""
        return _tail(self.corrected)

    def uncorrected_tail(self) -> Dict[str, int]:
        """Uncorrected p50/p99/p999 (ns)."""
        return _tail(self.uncorrected)

    def omission_gap(self) -> float:
        """corrected p99 / uncorrected p99 (1.0 when either is empty)."""
        corrected = self.corrected_tail()["p99_ns"]
        uncorrected = self.uncorrected_tail()["p99_ns"]
        if corrected == 0 or uncorrected == 0:
            return 1.0
        return corrected / uncorrected

    # -- run-level SLO -----------------------------------------------------

    def run_snapshot(self) -> ClusterTelemetry:
        """The whole run folded into one synthetic telemetry snapshot.

        Per-shard corrected recorders become
        :class:`~repro.obs.telemetry.ShardSample` aggregates; probe-only
        fields (queue depth, EPC, replication lag) are zero -- run-level
        rules about them always pass, the *windowed* pipeline checks
        them live instead.
        """
        shards: Dict[str, ShardSample] = {}
        for name in sorted(self.per_shard):
            recorder = self.per_shard[name]
            tail = _tail(recorder)
            shards[name] = ShardSample(
                shard=name,
                ops=recorder.count,
                errors=self.shard_errors.get(name, 0),
                p50_ns=tail["p50_ns"],
                p99_ns=tail["p99_ns"],
            )
        return ClusterTelemetry(
            tick=self.ticks,
            t_ns=self.duration_ns,
            window_ticks=max(1, self.ticks),
            shards=shards,
            faults={},
        )

    def evaluate_slo(self, spec: Optional[str] = None) -> List[SloBreach]:
        """Evaluate an SLO spec against the whole run; returns breaches.

        Defaults to the run's own ``slo_spec``.  This is the knee
        finder's feasibility predicate.
        """
        engine = SloEngine.from_spec(spec if spec else self.slo_spec)
        return engine.evaluate(self.run_snapshot())

    @property
    def slo_ok(self) -> bool:
        """True when the run passes its own SLO at run level."""
        return not self.evaluate_slo()

    @property
    def correction_ok(self) -> bool:
        """The correction invariant: corrected latency can never beat
        uncorrected (every intended start precedes or equals its send)."""
        return not self.executed or (
            self.corrected_tail()["p99_ns"]
            >= self.uncorrected_tail()["p99_ns"]
        )

    @property
    def exit_code(self) -> int:
        """CLI convention: 0 clean; 1 on SLO breach, a broken correction
        invariant or a flapping autoscaler."""
        flapping = (self.autoscale_summary or {}).get("flapping", 0)
        return 0 if self.correction_ok and self.slo_ok and not flapping else 1

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-shaped view; stable key order and rounding so one seed
        yields byte-identical serialized reports (the determinism test
        relies on this)."""
        out = {
            "scenario": self.scenario,
            "version": self.version,
            "seed": self.seed,
            "shards": self.shards,
            "replicas": self.replicas,
            "rate_ops_s": round(self.rate_ops_s, 6),
            "ops": self.ops,
            "arrival_kind": self.arrival_kind,
            "schedule": self.schedule,
            "slo_spec": self.slo_spec,
            "total_sessions": self.total_sessions,
            "tenants": list(self.tenants_spec),
            "counts": {
                "offered": self.offered,
                "admitted": self.admitted,
                "throttled": self.throttled,
                "executed": self.executed,
                "errors": self.errors,
            },
            "duration_ns": self.duration_ns,
            "ticks": self.ticks,
            "throughput_ops_s": round(self.throughput_ops_s, 3),
            "corrected": self.corrected_tail(),
            "uncorrected": self.uncorrected_tail(),
            "omission_gap_p99": round(self.omission_gap(), 4),
            "per_shard": {
                name: dict(
                    _tail(recorder),
                    ops=recorder.count,
                    errors=self.shard_errors.get(name, 0),
                )
                for name, recorder in sorted(self.per_shard.items())
            },
            "tenant_stats": {
                name: dict(stats)
                for name, stats in sorted(self.tenant_stats.items())
            },
            "windowed_breaches": list(self.windowed_breaches),
            "run_breaches": [b.to_dict() for b in self.evaluate_slo()],
            "fault_fingerprint": self.fault_fingerprint,
            "fault_log": list(self.fault_log),
        }
        if self.near_cache or self.read_offload:
            out["near_cache"] = self.near_cache
            out["read_offload"] = self.read_offload
            out["nearcache"] = dict(
                dict(self.nearcache or {}),
                primary_gets=self.primary_gets,
                backup_gets=self.backup_gets,
            )
        if self.autoscale:
            out["autoscale"] = {
                "enabled": True,
                "summary": dict(self.autoscale_summary or {}),
                "decisions": list(self.autoscale_decisions),
                "log": list(self.autoscale_log),
            }
        return out

    def report(self) -> str:
        """Human-readable scenario summary, corrected vs uncorrected."""
        corrected = self.corrected_tail()
        uncorrected = self.uncorrected_tail()
        lines = [
            f"Scenario {self.scenario} (v{self.version})",
            "=" * (12 + len(self.scenario) + len(str(self.version))),
            f"arrivals={self.arrival_kind} rate={self.rate_ops_s:g} ops/s "
            f"seed={self.seed} shards={self.shards} "
            f"replicas={self.replicas}",
            f"sessions={self.total_sessions:,} offered={self.offered} "
            f"throttled={self.throttled} executed={self.executed} "
            f"errors={self.errors}",
            f"duration={self.duration_ns / 1e6:.2f}ms sim "
            f"throughput={self.throughput_ops_s:,.0f} ops/s "
            f"ticks={self.ticks}",
            "",
            "latency (ns)        p50          p99         p999",
            "uncorrected  "
            + "".join(
                f"{uncorrected[k]:>13,}" for k in _PCT_KEYS
            ),
            "corrected    "
            + "".join(f"{corrected[k]:>13,}" for k in _PCT_KEYS),
            f"omission gap (p99): {self.omission_gap():.2f}x",
        ]
        if self.near_cache or self.read_offload:
            stats = self.nearcache or {}
            lines.append(
                f"near-cache: hits={stats.get('cache_hits', 0)} "
                f"misses={stats.get('cache_misses', 0)} "
                f"offload={stats.get('offload_served', 0)} "
                f"(fallbacks={stats.get('offload_fallbacks', 0)}) "
                f"primary_gets={self.primary_gets} "
                f"backup_gets={self.backup_gets}"
            )
        if self.autoscale:
            summary = self.autoscale_summary or {}
            actions = summary.get("actions", {})
            acted = (
                " ".join(
                    f"{kind}={actions[kind]}" for kind in sorted(actions)
                )
                or "none"
            )
            lines.append(
                f"autoscale: decisions={summary.get('decisions', 0)} "
                f"applied={summary.get('applied', 0)} "
                f"refused={summary.get('refused', 0)} "
                f"flapping={summary.get('flapping', 0)} "
                f"final_shards={summary.get('final_shards', self.shards)} "
                f"shard_ms={summary.get('shard_ms', 0)}"
            )
            lines.append(f"  actions: {acted}")
        if self.tenant_stats:
            lines.append("")
            lines.append("tenants:")
            for name, stats in sorted(self.tenant_stats.items()):
                lines.append(
                    f"  {name:<12} sessions={stats['sessions']:>9,} "
                    f"offered={stats['offered']:>5} "
                    f"throttled={stats['throttled']:>4} "
                    f"executed={stats['executed']:>5} "
                    f"errors={stats['errors']}"
                )
        breaches = self.evaluate_slo()
        if self.windowed_breaches or breaches:
            lines.append("")
            lines.append(
                f"SLO ({self.slo_spec}): "
                f"{len(self.windowed_breaches)} windowed breach(es), "
                f"{len(breaches)} run-level"
            )
            for breach in breaches:
                lines.append("  " + breach.describe())
        else:
            lines.append("")
            lines.append(f"SLO ({self.slo_spec}): OK")
        if self.fault_fingerprint is not None:
            lines.append(
                f"faults: {len(self.fault_log)} event(s), "
                f"fingerprint={self.fault_fingerprint[:16]}..."
            )
        return "\n".join(lines)


# -- knee finder -----------------------------------------------------------


@dataclass(frozen=True)
class KneeProbe:
    """One feasibility probe of the binary search."""

    rate_ops_s: int
    ok: bool
    corrected_p99_ns: int
    uncorrected_p99_ns: int
    throughput_ops_s: float

    def to_dict(self) -> dict:
        """JSON-shaped view of this probe."""
        return {
            "rate_ops_s": self.rate_ops_s,
            "ok": self.ok,
            "corrected_p99_ns": self.corrected_p99_ns,
            "uncorrected_p99_ns": self.uncorrected_p99_ns,
            "throughput_ops_s": round(self.throughput_ops_s, 3),
        }


@dataclass
class KneeResult:
    """Outcome of one knee search."""

    knee_ops_s: int
    slo_spec: str
    lo: int
    hi: int
    probes: List[KneeProbe] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-shaped view of the search."""
        return {
            "knee_ops_s": self.knee_ops_s,
            "slo_spec": self.slo_spec,
            "lo": self.lo,
            "hi": self.hi,
            "probes": [probe.to_dict() for probe in self.probes],
        }


def find_knee(
    probe: Callable[[int], TrafficReport],
    lo: int,
    hi: int,
    slo_spec: str = TRAFFIC_SLO_SPEC,
    tolerance: Optional[int] = None,
) -> KneeResult:
    """Binary-search the highest offered rate that satisfies ``slo_spec``.

    ``probe(rate)`` must run a fresh scenario at integer rate ``rate``
    (ops/s) and return its :class:`TrafficReport`; feasibility is the
    run-level SLO evaluation.  The search keeps the invariant *lo
    feasible, hi infeasible* and stops when the bracket is within
    ``tolerance`` (default: 5% of ``hi``, at least 1).  Returns the last
    feasible rate -- 0 when even ``lo`` breaches.
    """
    if not 0 < lo < hi:
        raise ConfigurationError(
            f"knee search needs 0 < lo < hi, got [{lo}, {hi}]"
        )
    if tolerance is None:
        tolerance = max(1, hi // 20)
    if tolerance < 1:
        raise ConfigurationError(f"tolerance must be >= 1, got {tolerance}")

    result = KneeResult(knee_ops_s=0, slo_spec=slo_spec, lo=lo, hi=hi)

    def feasible(rate: int) -> bool:
        run = probe(rate)
        ok = not run.evaluate_slo(slo_spec)
        result.probes.append(
            KneeProbe(
                rate_ops_s=rate,
                ok=ok,
                corrected_p99_ns=run.corrected_tail()["p99_ns"],
                uncorrected_p99_ns=run.uncorrected_tail()["p99_ns"],
                throughput_ops_s=run.throughput_ops_s,
            )
        )
        return ok

    if not feasible(lo):
        return result  # overloaded even at the floor: knee below lo
    if feasible(hi):
        result.knee_ops_s = hi
        return result
    while hi - lo > tolerance:
        mid = (lo + hi) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    result.knee_ops_s = lo
    return result
