"""The load-knee benchmark: SLO-bounded capacity per shard topology.

For each topology (1, 2 and 4 shards) this benchmark:

1. binary-searches the **knee** -- the highest offered rate whose
   whole-run corrected p99 still satisfies
   :data:`~repro.traffic.report.TRAFFIC_SLO_SPEC` -- by probing the
   ``steady`` scenario (:func:`~repro.traffic.scenarios.run_scenario`)
   at candidate rates under one fixed seed;
2. re-runs at **50% of the knee** and at **2x the knee** and tabulates
   corrected vs. uncorrected p50/p99/p999 for both.

Three bounds make the coordinated-omission story falsifiable (any miss
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

from repro.bench.report import (
    Bound,
    Bounded,
    Series,
    at_least,
    at_most,
    format_table,
)
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
class LoadKneeResult(Bounded):
    """Knee rates and corrected-tail tables across topologies."""

    quick: bool
    seed: int
    ops: int
    slo_spec: str
    topologies: List[dict] = field(default_factory=list)
    checks: Dict[str, Bound] = field(default_factory=dict, init=False)

    def to_dict(self) -> dict:
        """JSON-shaped view (the ``BENCH_traffic.json`` payload)."""
        return {
            "benchmark": "loadknee",
            "quick": self.quick,
            "seed": self.seed,
            "ops_per_run": self.ops,
            "slo_spec": self.slo_spec,
            "scenario": "steady",
            "topologies": list(self.topologies),
            **self.verdict(),
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
        return "\n".join(lines) + self.failed_bounds()


def run_loadknee(quick: bool = False, seed: int = _SEED) -> LoadKneeResult:
    """Run the knee search and its bounds; see the module docstring."""
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
        result.topologies.append(
            {
                "shards": shards,
                "knee_ops_s": knee.knee_ops_s,
                "knee_probes": [p.to_dict() for p in knee.probes],
                "half": _run_summary(half),
                "overload": _run_summary(overload),
            }
        )
        result.checks[
            f"{shards} shard(s): overload omission gap >= {OVERLOAD_GAP_MIN}x"
        ] = at_least(overload.omission_gap(), OVERLOAD_GAP_MIN)
        result.checks[
            f"{shards} shard(s): half-knee omission gap <= {HALF_GAP_MAX}x"
        ] = at_most(half.omission_gap(), HALF_GAP_MAX)
    ordered = sorted(knees)
    for prev, nxt in zip(ordered, ordered[1:]):
        result.checks[
            f"{nxt} shard(s): knee >= the {prev}-shard knee"
        ] = at_least(knees[nxt], knees[prev])
    return result
