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
   The gate is a floor on the ratio: the elastic knee must be at least
   :data:`ELASTIC_KNEE_MIN` times the best static knee -- elasticity
   must not cost meaningful peak capacity.

2. **Flash-crowd recovery** -- run ``flash-crowd`` at a fixed offered
   rate three ways: static-1 (under-provisioned), static-4
   (over-provisioned) and elastic-from-1.  Gates: the elastic run must
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
from typing import List

from repro.bench.report import Series, format_table
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
        "shards": 1,
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
        "slo_ok": report.exit_code == 0,
    }
    if report.autoscale and report.autoscale_summary:
        out["autoscale"] = dict(report.autoscale_summary)
    return out


@dataclass
class AutoscaleBenchResult:
    """Knee grid, recovery run, determinism + chaos verdicts."""

    quick: bool
    seed: int
    ops: int
    slo_spec: str
    knees: dict = field(default_factory=dict)
    recovery: dict = field(default_factory=dict)
    determinism: dict = field(default_factory=dict)
    chaos: dict = field(default_factory=dict)
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when every gate held."""
        return not self.violations

    @property
    def exit_code(self) -> int:
        """0 when all gates held, 1 otherwise."""
        return 0 if self.ok else 1

    def to_dict(self) -> dict:
        """JSON-shaped view (the ``BENCH_autoscale.json`` payload)."""
        return {
            "benchmark": "autoscale",
            "quick": self.quick,
            "seed": self.seed,
            "ops_per_run": self.ops,
            "scenario": _SCENARIO,
            "slo_spec": self.slo_spec,
            "gates": {
                "elastic_knee_min": ELASTIC_KNEE_MIN,
                "decisions_max": DECISIONS_MAX,
                "zero_flapping": True,
                "slo_recovery": True,
                "shard_ms_dividend": True,
                "deterministic_logs": True,
                "chaos_with_controller": True,
            },
            "knees": dict(self.knees),
            "recovery": dict(self.recovery),
            "determinism": dict(self.determinism),
            "chaos": dict(self.chaos),
            "violations": list(self.violations),
            "ok": self.ok,
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
        lines.append("")
        if self.ok:
            lines.append(
                f"gates: OK (elastic knee >= {ELASTIC_KNEE_MIN}x best "
                f"static, SLO recovery, shard-ms dividend vs static-4, "
                f"zero flapping, <= {DECISIONS_MAX} decisions, "
                f"byte-identical logs, chaos with controller live)"
            )
        else:
            lines.append(f"gates: FAILED ({len(self.violations)})")
            for violation in self.violations:
                lines.append(f"  - {violation}")
        return "\n".join(lines)


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
                shards=shards,
                replicas=1,
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
            _SCENARIO,
            seed=seed,
            replicas=1,
            ops=ops,
            rate=rate,
            **_elastic_kwargs(),
        )
        start = (cold.autoscale_summary or {}).get("final_shards", 1)
        return run_scenario(
            _SCENARIO,
            seed=seed,
            shards=start,
            replicas=1,
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
    if ratio < ELASTIC_KNEE_MIN:
        result.violations.append(
            f"elastic knee {elastic.knee_ops_s} ops/s is only "
            f"{ratio:.2f}x the best static knee {best} ops/s "
            f"(min {ELASTIC_KNEE_MIN}x)"
        )


def _recovery_phase(
    result: AutoscaleBenchResult, seed: int, ops: int
) -> None:
    static1 = run_scenario(
        _SCENARIO, seed=seed, shards=1, replicas=1, ops=ops
    )
    static4 = run_scenario(
        _SCENARIO, seed=seed, shards=4, replicas=1, ops=ops
    )
    elastic = run_scenario(
        _SCENARIO, seed=seed, replicas=1, ops=ops, **_elastic_kwargs()
    )
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

    if elastic.exit_code != 0:
        result.violations.append(
            "elastic flash-crowd run breached the SLO it was meant to "
            f"recover (corrected p99 "
            f"{elastic.corrected_tail()['p99_ns'] / 1e6:.3f}ms)"
        )
    if not applied:
        result.violations.append(
            "elastic flash-crowd run never applied a topology change"
        )
    elif settle_ms > elastic.duration_ns / 1e6:
        result.violations.append(
            f"controller still actuating at run end "
            f"({settle_ms:.1f}ms of {elastic.duration_ns / 1e6:.1f}ms)"
        )
    if summ.get("flapping", 0):
        result.violations.append(
            f"elastic flash-crowd run flapped "
            f"{summ['flapping']} time(s)"
        )
    if summ.get("decisions", 0) > DECISIONS_MAX:
        result.violations.append(
            f"decision log ran away: {summ['decisions']} logged "
            f"decisions > {DECISIONS_MAX}"
        )
    if rec["elastic"]["shard_ms"] >= rec["static-4"]["shard_ms"]:
        result.violations.append(
            f"no elasticity dividend: elastic spent "
            f"{rec['elastic']['shard_ms']:.1f} shard-ms vs static-4's "
            f"{rec['static-4']['shard_ms']:.1f}"
        )


def _determinism_phase(
    result: AutoscaleBenchResult, seed: int, ops: int
) -> None:
    first = run_scenario(
        _SCENARIO, seed=seed, replicas=1, ops=ops, **_elastic_kwargs()
    )
    second = run_scenario(
        _SCENARIO, seed=seed, replicas=1, ops=ops, **_elastic_kwargs()
    )
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
    if sha_a != sha_b or not sha_a:
        result.violations.append(
            f"decision logs differ across same-seed runs "
            f"({sha_a[:16]} != {sha_b[:16]})"
        )
    if blob_a != blob_b:
        result.violations.append(
            "report JSON differs across same-seed elastic runs"
        )


def _chaos_phase(result: AutoscaleBenchResult) -> None:
    from repro.faults.harness import run_chaos

    chaos = run_chaos(
        _CHAOS_SEED,
        _CHAOS_SCHEDULE,
        ops=_CHAOS_OPS,
        shards=3,
        replicas=1,
        ack_mode="semi-sync",
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
    if not chaos.ok:
        result.violations.append(
            f"chaos run with controller live violated the shadow "
            f"model: {chaos.violations}"
        )
    if chaos.autoscale_applied < 1:
        result.violations.append(
            "chaos run with controller live never applied a change"
        )
    if chaos.autoscale_flapping:
        result.violations.append(
            f"controller flapped {chaos.autoscale_flapping} time(s) "
            f"under chaos"
        )


def run_autoscalebench(
    quick: bool = False, seed: int = _SEED
) -> AutoscaleBenchResult:
    """Run all four phases and their gates; see the module docstring."""
    ops = _OPS_QUICK if quick else _OPS
    result = AutoscaleBenchResult(
        quick=quick, seed=seed, ops=ops, slo_spec=TRAFFIC_SLO_SPEC
    )
    _knee_phase(result, seed, ops)
    _recovery_phase(result, seed, ops)
    _determinism_phase(result, seed, ops)
    _chaos_phase(result)
    return result
