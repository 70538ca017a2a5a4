"""The autoscaler benchmark: elastic vs. static topologies under load.

Measures what the SLO-driven elastic control plane
(``docs/AUTOSCALING.md``) buys over hand-picked static topologies, and
proves the control loop is stable and reproducible.  Four phases, all
seeded and deterministic:

1. **Knee grid** -- binary-search the SLO-bounded throughput knee of
   the ``flash-crowd`` scenario for static 1/2/4-shard topologies and
   for the elastic controller allowed up to four.  The elastic knee is
   measured *warm*: each probe first lets the controller converge from
   one shard under the target rate, then measures a fresh run that
   starts at the converged topology with the controller still live (a
   wrong scale-in would breach and fail the probe).  Cold-start
   transients are the recovery phase's subject, not the knee grid's.
   The bound is a floor on the ratio: the elastic knee must be at least
   :data:`ELASTIC_KNEE_MIN` times the best static knee -- elasticity
   must not cost meaningful peak capacity.

2. **Flash-crowd recovery** -- run ``flash-crowd`` at a fixed offered
   rate three ways: static-1 (under-provisioned), static-4
   (over-provisioned) and elastic-from-1.  Bounds: the elastic run must
   end inside the SLO that static-1 breaches, must actually scale out,
   must settle (last applied action) before the run ends, must log a
   bounded number of decisions with **zero flapping**, and must spend
   fewer shard-milliseconds than static-4 -- the elasticity dividend.

3. **Determinism** -- the same elastic run twice from one seed must
   produce byte-identical decision logs (compared by SHA-256) and a
   byte-identical report JSON.  Refusals and suppressed refusals are
   part of the log, so "the controller considered and declined" is
   replayable too.

4. **Chaos** -- a seeded fault run (drops, shard deaths, replica lag
   under ``semi-sync``) with the controller live: shadow verification
   must hold, the controller must apply at least one change while
   faults are landing, and must not flap.

Everything derives from fixed seeds, so the committed
``BENCH_autoscale.json`` regenerates identically: re-running
``python -m repro.cli autoscalebench`` must yield the same file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench.report import (
    Bound,
    Bounded,
    Series,
    at_least,
    at_most,
    below,
    equal,
    format_table,
)
from repro.shard.spec import ClusterSpec
from repro.traffic.report import TRAFFIC_SLO_SPEC, find_knee
from repro.traffic.scenarios import run_scenario

__all__ = [
    "DECISIONS_MAX",
    "ELASTIC_KNEE_MIN",
    "AutoscaleBenchResult",
    "run_autoscalebench",
]

#: Minimum elastic-knee / best-static-knee ratio (peak-capacity floor).
ELASTIC_KNEE_MIN = 0.9
#: Maximum decisions the controller may log on the fixed-rate run --
#: a generous bound that still catches a refusal storm or an actuation
#: loop (the dedup already folds repeats, so a healthy run logs ~a
#: dozen lines).
DECISIONS_MAX = 64

_SEED = 3
_SCENARIO = "flash-crowd"
_OPS = 400
_OPS_QUICK = 300
_STATIC_SHARDS = (1, 2, 4)
_STATIC_SHARDS_QUICK = (1,)
_MAX_SHARDS = 4
_RATE_FLOOR = 200
_RATE_CEIL = 6000
#: One fixed absolute tolerance for every knee search, so the elastic
#: and static brackets are directly comparable.
_KNEE_TOLERANCE = 50

_CHAOS_SEED = 7
_CHAOS_SCHEDULE = "drop:0.05,shard_death:0.04,replica_lag:0.08"
_CHAOS_OPS = 200


def _elastic_kwargs() -> dict:
    return {
        "cluster": ClusterSpec(shards=1, replicas=1),
        "autoscale": True,
        "autoscale_max_shards": _MAX_SHARDS,
    }


def _run_slice(report) -> dict:
    """The per-run slice of the JSON artifact."""
    out = {
        "shards": report.shards,
        "rate_ops_s": report.rate_ops_s,
        "executed": report.executed,
        "errors": report.errors,
        "duration_ms": round(report.duration_ns / 1e6, 3),
        "corrected_p99_ns": report.corrected_tail()["p99_ns"],
        "slo_ok": report.correction_ok and report.slo_ok,
    }
    if report.autoscale and report.autoscale_summary:
        out["autoscale"] = dict(report.autoscale_summary)
    return out


@dataclass
class AutoscaleBenchResult(Bounded):
    """Knee grid, recovery run, determinism + chaos verdicts."""

    quick: bool
    seed: int
    ops: int
    slo_spec: str
    knees: dict = field(default_factory=dict)
    recovery: dict = field(default_factory=dict)
    determinism: dict = field(default_factory=dict)
    chaos: dict = field(default_factory=dict)
    checks: Dict[str, Bound] = field(default_factory=dict, init=False)

    def to_dict(self) -> dict:
        """JSON-shaped view (the ``BENCH_autoscale.json`` payload)."""
        return {
            "benchmark": "autoscale",
            "quick": self.quick,
            "seed": self.seed,
            "ops_per_run": self.ops,
            "scenario": _SCENARIO,
            "slo_spec": self.slo_spec,
            "knees": dict(self.knees),
            "recovery": dict(self.recovery),
            "determinism": dict(self.determinism),
            "chaos": dict(self.chaos),
            **self.verdict(),
        }

    def report(self) -> str:
        """Human-readable knee grid + recovery + stability verdicts."""
        lines: List[str] = []
        if self.knees:
            static = self.knees["static"]
            rows = [s["shards"] for s in static]
            head = format_table(
                f"Autoscaler knee grid ({_SCENARIO}, SLO {self.slo_spec})",
                rows,
                [Series("static knee", [s["knee_ops_s"] for s in static])],
                row_header="shards",
            )
            lines.append(head)
            lines.append(
                f"  elastic knee (1->{_MAX_SHARDS} shards): "
                f"{self.knees['elastic']['knee_ops_s']} ops/s = "
                f"{self.knees['ratio']:.2f}x best static "
                f"({self.knees['best_static_knee_ops_s']} ops/s)"
            )
            lines.append("")
        rec = self.recovery
        if rec:
            lines.append(
                f"  flash-crowd @ {rec['rate_ops_s']} ops/s "
                f"(seed {self.seed}):"
            )
            for name in ("static-1", "static-4", "elastic"):
                run = rec[name]
                scale = ""
                if "autoscale" in run:
                    summ = run["autoscale"]
                    scale = (
                        f"  applied={summ['applied']} "
                        f"flapping={summ['flapping']} "
                        f"final_shards={summ['final_shards']}"
                    )
                lines.append(
                    f"    {name:<9s} corrected p99="
                    f"{run['corrected_p99_ns'] / 1e6:8.3f}ms  "
                    f"slo={'OK' if run['slo_ok'] else 'BREACH'}  "
                    f"shard_ms={run['shard_ms']:8.1f}{scale}"
                )
            lines.append(
                f"    settle: last applied action at "
                f"{rec['settle_ms']:.1f}ms of "
                f"{rec['elastic']['duration_ms']:.1f}ms"
            )
            lines.append("")
        det = self.determinism
        if det:
            lines.append(
                f"  determinism: decision logs "
                f"{'EQUAL' if det.get('logs_equal') else 'DIFFER'}, "
                f"report JSON "
                f"{'EQUAL' if det.get('reports_equal') else 'DIFFER'} "
                f"(sha256 {det.get('log_sha256', '')[:16]})"
            )
        cha = self.chaos
        if cha:
            lines.append(
                f"  chaos with controller: "
                f"{'OK' if cha.get('ok') else 'VIOLATED'} "
                f"(seed {cha.get('seed')}, "
                f"applied={cha.get('applied', 0)}, "
                f"flapping={cha.get('flapping', 0)})"
            )
        return "\n".join(lines) + self.failed_bounds()


def _knee_phase(result: AutoscaleBenchResult, seed: int, ops: int) -> None:
    topologies = (
        _STATIC_SHARDS_QUICK if result.quick else _STATIC_SHARDS
    )
    static = []
    for shards in topologies:

        def probe(rate: int, shards=shards):
            return run_scenario(
                _SCENARIO,
                seed=seed,
                cluster=ClusterSpec(shards=shards, replicas=1),
                ops=ops,
                rate=rate,
            )

        knee = find_knee(
            probe,
            _RATE_FLOOR,
            _RATE_CEIL,
            slo_spec=TRAFFIC_SLO_SPEC,
            tolerance=_KNEE_TOLERANCE,
        )
        static.append(
            {
                "shards": shards,
                "knee_ops_s": knee.knee_ops_s,
                "probes": [p.to_dict() for p in knee.probes],
            }
        )

    def probe_elastic(rate: int):
        # Warm measurement: converge cold from one shard first, then
        # measure from the converged topology, controller still live.
        cold = run_scenario(
            _SCENARIO, seed=seed, ops=ops, rate=rate, **_elastic_kwargs()
        )
        start = (cold.autoscale_summary or {}).get("final_shards", 1)
        return run_scenario(
            _SCENARIO,
            seed=seed,
            cluster=ClusterSpec(shards=start, replicas=1),
            ops=ops,
            rate=rate,
            autoscale=True,
            autoscale_max_shards=_MAX_SHARDS,
        )

    elastic = find_knee(
        probe_elastic,
        _RATE_FLOOR,
        _RATE_CEIL,
        slo_spec=TRAFFIC_SLO_SPEC,
        tolerance=_KNEE_TOLERANCE,
    )
    best = max(s["knee_ops_s"] for s in static)
    ratio = elastic.knee_ops_s / max(1, best)
    result.knees = {
        "static": static,
        "elastic": {
            "knee_ops_s": elastic.knee_ops_s,
            "measurement": "warm (converged topology, controller live)",
            "probes": [p.to_dict() for p in elastic.probes],
        },
        "best_static_knee_ops_s": best,
        "ratio": round(ratio, 3),
    }
    result.checks[
        f"elastic knee >= {ELASTIC_KNEE_MIN}x the best static knee"
    ] = at_least(ratio, ELASTIC_KNEE_MIN)


def _recovery_phase(
    result: AutoscaleBenchResult, seed: int, ops: int
) -> None:
    static1 = run_scenario(
        _SCENARIO, seed=seed, cluster=ClusterSpec(shards=1, replicas=1),
        ops=ops,
    )
    static4 = run_scenario(
        _SCENARIO, seed=seed, cluster=ClusterSpec(shards=4, replicas=1),
        ops=ops,
    )
    elastic = run_scenario(_SCENARIO, seed=seed, ops=ops, **_elastic_kwargs())
    summ = elastic.autoscale_summary or {}
    applied = [
        d for d in elastic.autoscale_decisions if d["outcome"] == "applied"
    ]
    settle_ms = (
        max(d["t_ns"] for d in applied) / 1e6 if applied else 0.0
    )
    rec = {
        "rate_ops_s": elastic.rate_ops_s,
        "static-1": _run_slice(static1),
        "static-4": _run_slice(static4),
        "elastic": _run_slice(elastic),
        "settle_ms": round(settle_ms, 3),
    }
    # Static topologies pay shards x wall-clock; the elastic run's
    # integral lives in its controller summary.
    rec["static-1"]["shard_ms"] = round(static1.duration_ns / 1e6, 3)
    rec["static-4"]["shard_ms"] = round(4 * static4.duration_ns / 1e6, 3)
    rec["elastic"]["shard_ms"] = summ.get("shard_ms", 0.0)
    result.recovery = rec

    result.checks["elastic recovery run passes"] = equal(
        elastic.exit_code, 0
    )
    result.checks["elastic recovery run applies >= 1 change"] = at_least(
        len(applied), 1
    )
    result.checks["elastic recovery run settles before it ends"] = at_most(
        settle_ms, elastic.duration_ns / 1e6
    )
    result.checks[
        f"elastic recovery run logs <= {DECISIONS_MAX} decisions"
    ] = at_most(summ.get("decisions", 0), DECISIONS_MAX)
    result.checks["elastic recovery shard-ms < static-4 shard-ms"] = below(
        rec["elastic"]["shard_ms"], rec["static-4"]["shard_ms"]
    )


def _determinism_phase(
    result: AutoscaleBenchResult, seed: int, ops: int
) -> None:
    first = run_scenario(_SCENARIO, seed=seed, ops=ops, **_elastic_kwargs())
    second = run_scenario(_SCENARIO, seed=seed, ops=ops, **_elastic_kwargs())
    blob_a = json.dumps(first.to_dict(), sort_keys=True)
    blob_b = json.dumps(second.to_dict(), sort_keys=True)
    sha_a = (first.autoscale_summary or {}).get("log_sha256", "")
    sha_b = (second.autoscale_summary or {}).get("log_sha256", "")
    result.determinism = {
        "logs_equal": sha_a == sha_b and bool(sha_a),
        "reports_equal": blob_a == blob_b,
        "log_sha256": sha_a,
        "decisions": len(first.autoscale_decisions),
    }
    result.checks["same-seed decision logs equal"] = Bound(
        sha_b, sha_a, bool(sha_a) and sha_b == sha_a
    )
    result.checks["same-seed report JSON equal"] = equal(
        blob_a == blob_b, True
    )


def _chaos_phase(result: AutoscaleBenchResult) -> None:
    from repro.faults.harness import run_chaos

    chaos = run_chaos(
        _CHAOS_SEED,
        _CHAOS_SCHEDULE,
        ops=_CHAOS_OPS,
        cluster=ClusterSpec(shards=3, replicas=1, ack_mode="semi-sync"),
        autoscale=True,
    )
    result.chaos = {
        "seed": _CHAOS_SEED,
        "schedule": _CHAOS_SCHEDULE,
        "ok": chaos.ok,
        "violations": list(chaos.violations),
        "decisions": chaos.autoscale_decisions,
        "applied": chaos.autoscale_applied,
        "flapping": chaos.autoscale_flapping,
        "log": list(chaos.autoscale_log),
    }
    result.checks["chaos run with the controller passes"] = equal(
        chaos.exit_code, 0
    )
    result.checks["chaos run with the controller applies >= 1 change"] = (
        at_least(chaos.autoscale_applied, 1)
    )


def run_autoscalebench(
    quick: bool = False, seed: int = _SEED
) -> AutoscaleBenchResult:
    """Run all four phases and their bounds; see the module docstring."""
    ops = _OPS_QUICK if quick else _OPS
    result = AutoscaleBenchResult(
        quick=quick, seed=seed, ops=ops, slo_spec=TRAFFIC_SLO_SPEC
    )
    _knee_phase(result, seed, ops)
    _recovery_phase(result, seed, ops)
    _determinism_phase(result, seed, ops)
    _chaos_phase(result)
    return result
