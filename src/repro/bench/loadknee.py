"""The load-knee benchmark: SLO-bounded capacity per shard topology.

For each topology (1, 2 and 4 shards) this benchmark:

1. binary-searches the **knee** -- the highest offered rate whose
   whole-run corrected p99 still satisfies
   :data:`~repro.traffic.report.TRAFFIC_SLO_SPEC` -- by probing the
   ``steady`` scenario (:func:`~repro.traffic.scenarios.run_scenario`)
   at candidate rates under one fixed seed;
2. re-runs at **50% of the knee** and at **2x the knee** and tabulates
   corrected vs. uncorrected p50/p99/p999 for both.

Three gates make the coordinated-omission story falsifiable (any miss
flips the exit code to 1):

- at 2x the knee the corrected p99 must exceed the uncorrected p99 by
  at least :data:`OVERLOAD_GAP_MIN` (the omission gap is *real* at
  overload);
- at half the knee the two must agree within :data:`HALF_GAP_MAX`
  (the correction does not invent latency below saturation);
- the knee must not decrease as shards are added (capacity scales).

Everything is seeded, so the committed ``BENCH_traffic.json`` is
reproducible bit-for-bit: re-running ``python -m repro.cli loadknee``
must yield the identical file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.bench.report import Series, format_table
from repro.shard.spec import ClusterSpec
from repro.traffic.report import TRAFFIC_SLO_SPEC, find_knee
from repro.traffic.scenarios import run_scenario

__all__ = [
    "OVERLOAD_GAP_MIN",
    "HALF_GAP_MAX",
    "LoadKneeResult",
    "run_loadknee",
]

#: Minimum corrected/uncorrected p99 ratio required at 2x the knee.
OVERLOAD_GAP_MIN = 2.0
#: Maximum corrected/uncorrected p99 ratio tolerated at half the knee.
HALF_GAP_MAX = 1.10

_SEED = 13
_TOPOLOGIES = (1, 2, 4)
_TOPOLOGIES_QUICK = (1, 2)
_PROBE_OPS = 300
_PROBE_OPS_QUICK = 140
_RATE_FLOOR = 200
#: Search ceiling per shard: comfortably above the modelled per-shard
#: capacity (~2000 ops/s at ~0.5 ms mean service), never a binding cap.
_RATE_CEIL_PER_SHARD = 4000


def _run_summary(report) -> dict:
    """The per-run slice of the JSON artifact."""
    return {
        "rate_ops_s": report.rate_ops_s,
        "ops": report.ops,
        "executed": report.executed,
        "errors": report.errors,
        "throughput_ops_s": round(report.throughput_ops_s, 3),
        "corrected": report.corrected_tail(),
        "uncorrected": report.uncorrected_tail(),
        "omission_gap_p99": round(report.omission_gap(), 4),
    }


@dataclass
class LoadKneeResult:
    """Knee rates and corrected-tail tables across topologies."""

    quick: bool
    seed: int
    ops: int
    slo_spec: str
    topologies: List[dict] = field(default_factory=list)
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
        """JSON-shaped view (the ``BENCH_traffic.json`` payload)."""
        return {
            "benchmark": "loadknee",
            "quick": self.quick,
            "seed": self.seed,
            "ops_per_run": self.ops,
            "slo_spec": self.slo_spec,
            "scenario": "steady",
            "gates": {
                "overload_gap_min": OVERLOAD_GAP_MIN,
                "half_gap_max": HALF_GAP_MAX,
                "knee_monotone_in_shards": True,
            },
            "topologies": list(self.topologies),
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def report(self) -> str:
        """Human-readable knee + corrected-tail tables."""
        rows = [t["shards"] for t in self.topologies]
        head = format_table(
            f"Load knee vs shard count (steady Poisson, SLO {self.slo_spec})",
            rows,
            [
                Series(
                    "knee (ops/s)",
                    [t["knee_ops_s"] for t in self.topologies],
                ),
                Series(
                    "half-knee gap",
                    [
                        t["half"]["omission_gap_p99"]
                        for t in self.topologies
                    ],
                ),
                Series(
                    "overload gap",
                    [
                        t["overload"]["omission_gap_p99"]
                        for t in self.topologies
                    ],
                ),
                Series(
                    "probes",
                    [len(t["knee_probes"]) for t in self.topologies],
                ),
            ],
            row_header="shards",
        )
        lines = [head, ""]
        for topo in self.topologies:
            for phase in ("half", "overload"):
                run = topo[phase]
                lines.append(
                    f"  {topo['shards']} shard(s) {phase:<9} "
                    f"rate={run['rate_ops_s']:>7.0f}  "
                    f"corrected p99={run['corrected']['p99_ns'] / 1e6:8.3f}ms "
                    f"p999={run['corrected']['p999_ns'] / 1e6:8.3f}ms  "
                    f"uncorrected p99="
                    f"{run['uncorrected']['p99_ns'] / 1e6:8.3f}ms"
                )
        lines.append("")
        if self.ok:
            lines.append(
                f"gates: OK (overload gap >= {OVERLOAD_GAP_MIN}x, "
                f"half-knee gap <= {HALF_GAP_MAX}x, knee monotone)"
            )
        else:
            lines.append(f"gates: FAILED ({len(self.violations)})")
            for violation in self.violations:
                lines.append(f"  - {violation}")
        return "\n".join(lines)


def run_loadknee(quick: bool = False, seed: int = _SEED) -> LoadKneeResult:
    """Run the knee search and gate checks; see the module docstring."""
    ops = _PROBE_OPS_QUICK if quick else _PROBE_OPS
    topologies = _TOPOLOGIES_QUICK if quick else _TOPOLOGIES
    result = LoadKneeResult(
        quick=quick, seed=seed, ops=ops, slo_spec=TRAFFIC_SLO_SPEC
    )
    knees: Dict[int, int] = {}
    for shards in topologies:

        def probe(rate: int, shards=shards):
            return run_scenario(
                "steady",
                seed=seed,
                cluster=ClusterSpec(shards=shards),
                ops=ops,
                rate=rate,
            )

        knee = find_knee(
            probe,
            _RATE_FLOOR,
            _RATE_CEIL_PER_SHARD * shards,
            slo_spec=TRAFFIC_SLO_SPEC,
        )
        knees[shards] = knee.knee_ops_s
        half = probe(max(1, knee.knee_ops_s // 2))
        overload = probe(2 * knee.knee_ops_s)
        topo = {
            "shards": shards,
            "knee_ops_s": knee.knee_ops_s,
            "knee_probes": [p.to_dict() for p in knee.probes],
            "half": _run_summary(half),
            "overload": _run_summary(overload),
        }
        result.topologies.append(topo)

        if overload.omission_gap() < OVERLOAD_GAP_MIN:
            result.violations.append(
                f"{shards} shard(s): overload omission gap "
                f"{overload.omission_gap():.2f}x < {OVERLOAD_GAP_MIN}x"
            )
        if half.omission_gap() > HALF_GAP_MAX:
            result.violations.append(
                f"{shards} shard(s): half-knee omission gap "
                f"{half.omission_gap():.2f}x > {HALF_GAP_MAX}x"
            )
    ordered = sorted(knees)
    for prev, nxt in zip(ordered, ordered[1:]):
        if knees[nxt] < knees[prev]:
            result.violations.append(
                f"knee decreased with scale: {knees[prev]} ops/s at "
                f"{prev} shard(s) -> {knees[nxt]} ops/s at {nxt}"
            )
    return result
