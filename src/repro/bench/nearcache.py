"""The near-cache benchmark: client-side caching + backup-read offload.

Measures what the client-verifiable near-cache and the freshness-token
read offload (``docs/CACHING.md``) actually buy under skewed open-loop
load, and -- just as important -- proves they never change what a read
returns.  Three phases, all seeded and reproducible bit-for-bit:

1. **Knee shift** -- for each topology (1, 2, 4 shards, one backup
   each) binary-search the SLO-bounded knee of the ``hot-key-storm``
   scenario twice: both features off vs. cache+offload on.  The gate is
   a floor on the ratio: the cached knee must be at least
   :data:`KNEE_RATIO_MIN` times the baseline knee on every topology.

2. **Fixed-rate shed** -- run ``hot-key-storm`` and
   ``multi-tenant-contention`` at a fixed offered rate under four
   configurations (off / cache / offload / cache+offload) and tabulate
   corrected p99, primary GET frames and backup GET frames.  Gates:
   cache+offload must cut primary GETs to at most :data:`SHED_MAX` of
   baseline and must not worsen corrected p99; the offload-only config
   must actually serve reads from backups on the read-heavy scenario.
   The offload-only row on ``hot-key-storm`` is deliberately kept even
   though it *loses*: hot keys are written constantly, so per-client
   freshness claims go stale and nearly every backup read falls back --
   an honest cost the table should show.

3. **Equivalence** -- the safety half.  A clean chaos run (no faults)
   with cache+offload on must leave the store in the byte-identical
   state digest as the same run with both off, and a faulted chaos run
   (drops, payload corruption, shard deaths, replica lag, async acks)
   with cache+offload on must still verify against the shadow model
   with zero wrong-value reads.

Everything derives from one seed, so the committed
``BENCH_nearcache.json`` regenerates identically: re-running
``python -m repro.cli nearcachebench`` must yield the same file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.bench.report import Series, format_table
from repro.traffic.report import TRAFFIC_SLO_SPEC, find_knee
from repro.traffic.scenarios import run_scenario

__all__ = [
    "KNEE_RATIO_MIN",
    "SHED_MAX",
    "NearCacheBenchResult",
    "run_nearcachebench",
]

#: Minimum cached-knee / baseline-knee ratio required per topology.
KNEE_RATIO_MIN = 1.5
#: Maximum primary-GET fraction retained by cache+offload at fixed rate.
SHED_MAX = 0.8

_SEED = 17
_TOPOLOGIES = (1, 2, 4)
_TOPOLOGIES_QUICK = (1,)
_PROBE_OPS = 500
_PROBE_OPS_QUICK = 400
_RATE_FLOOR = 200
_RATE_CEIL_PER_SHARD = 8000
#: The knee searches compare two configurations, so both use one fixed
#: absolute tolerance -- the default 5%-of-ceiling rule would give the
#: higher-ceiling cached search a coarser bracket than its baseline.
_KNEE_TOLERANCE = 50
#: Lease sized to the simulated run (a few hundred ms): long enough
#: that hits are bounded by invalidation, not by lease churn.
_LEASE_MS = 250.0

_KNEE_SCENARIO = "hot-key-storm"
_FIXED_RATE = (
    ("hot-key-storm", 900),
    ("multi-tenant-contention", 1500),
)
_FIXED_SHARDS = 2
_CONFIGS = (
    ("off", False, False),
    ("cache", True, False),
    ("offload", False, True),
    ("cache+offload", True, True),
)

_EQUIV_SEED = 11
_CHAOS_SEED = 7
_CHAOS_SCHEDULE = (
    "drop:0.05,corrupt_payload:0.03,delay:0.05,"
    "shard_death:0.02,replica_lag:0.05"
)


def _scenario_kwargs(near_cache: bool, read_offload: bool) -> dict:
    kwargs = {"near_cache": near_cache, "read_offload": read_offload}
    if near_cache:
        kwargs["cache_lease_ms"] = _LEASE_MS
    return kwargs


def _run_summary(report) -> dict:
    """The per-run slice of the JSON artifact."""
    stats = report.nearcache or {}
    return {
        "rate_ops_s": report.rate_ops_s,
        "executed": report.executed,
        "errors": report.errors,
        "corrected_p99_ns": report.corrected_tail()["p99_ns"],
        "uncorrected_p99_ns": report.uncorrected_tail()["p99_ns"],
        "primary_gets": report.primary_gets,
        "backup_gets": report.backup_gets,
        "cache_hits": stats.get("cache_hits", 0),
        "cache_misses": stats.get("cache_misses", 0),
        "offload_served": stats.get("offload_served", 0),
        "offload_fallbacks": stats.get("offload_fallbacks", 0),
    }


@dataclass
class NearCacheBenchResult:
    """Knee ratios, shed tables and equivalence verdicts."""

    quick: bool
    seed: int
    ops: int
    slo_spec: str
    lease_ms: float
    topologies: List[dict] = field(default_factory=list)
    fixed_rate: List[dict] = field(default_factory=list)
    equivalence: dict = field(default_factory=dict)
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
        """JSON-shaped view (the ``BENCH_nearcache.json`` payload)."""
        return {
            "benchmark": "nearcache",
            "quick": self.quick,
            "seed": self.seed,
            "ops_per_run": self.ops,
            "slo_spec": self.slo_spec,
            "cache_lease_ms": self.lease_ms,
            "knee_scenario": _KNEE_SCENARIO,
            "gates": {
                "knee_ratio_min": KNEE_RATIO_MIN,
                "primary_shed_max": SHED_MAX,
                "p99_not_worse": True,
                "offload_serves_reads": True,
                "state_equivalence": True,
                "chaos_verified": True,
            },
            "topologies": list(self.topologies),
            "fixed_rate": list(self.fixed_rate),
            "equivalence": dict(self.equivalence),
            "violations": list(self.violations),
            "ok": self.ok,
        }

    def report(self) -> str:
        """Human-readable knee ratios + shed tables + equivalence."""
        rows = [t["shards"] for t in self.topologies]
        head = format_table(
            f"Near-cache knee shift ({_KNEE_SCENARIO}, 1 backup/shard, "
            f"SLO {self.slo_spec})",
            rows,
            [
                Series(
                    "baseline knee",
                    [t["baseline_knee_ops_s"] for t in self.topologies],
                ),
                Series(
                    "cached knee",
                    [t["cached_knee_ops_s"] for t in self.topologies],
                ),
                Series(
                    "ratio",
                    [t["knee_ratio"] for t in self.topologies],
                ),
            ],
            row_header="shards",
        )
        lines = [head, ""]
        for block in self.fixed_rate:
            lines.append(
                f"  {block['scenario']} @ {block['rate_ops_s']} ops/s "
                f"({_FIXED_SHARDS} shards, 1 backup each):"
            )
            for name, _nc, _ro in _CONFIGS:
                run = block["configs"][name]
                lines.append(
                    f"    {name:<14s} corrected p99="
                    f"{run['corrected_p99_ns'] / 1e6:7.3f}ms  "
                    f"primary gets={run['primary_gets']:>4d}  "
                    f"backup gets={run['backup_gets']:>4d}  "
                    f"cache hits={run['cache_hits']:>4d}  "
                    f"offload {run['offload_served']}/"
                    f"{run['offload_served'] + run['offload_fallbacks']}"
                )
            lines.append("")
        equiv = self.equivalence
        if equiv:
            lines.append(
                f"  clean-state equivalence: digests "
                f"{'EQUAL' if equiv.get('digests_equal') else 'DIFFER'} "
                f"(seed {equiv.get('clean_seed')}), chaos-with-cache "
                f"{'OK' if equiv.get('chaos_ok') else 'VIOLATED'} "
                f"(seed {equiv.get('chaos_seed')}, "
                f"{equiv.get('chaos_offload_served', 0)} offloaded reads)"
            )
            lines.append("")
        if self.ok:
            lines.append(
                f"gates: OK (knee ratio >= {KNEE_RATIO_MIN}x, primary "
                f"shed <= {SHED_MAX}x, p99 not worse, offload serves, "
                f"state equivalence + chaos verification)"
            )
        else:
            lines.append(f"gates: FAILED ({len(self.violations)})")
            for violation in self.violations:
                lines.append(f"  - {violation}")
        return "\n".join(lines)


def _knee_phase(result: NearCacheBenchResult, seed: int, ops: int) -> None:
    topologies = _TOPOLOGIES_QUICK if result.quick else _TOPOLOGIES
    for shards in topologies:

        def probe_off(rate: int, shards=shards):
            return run_scenario(
                _KNEE_SCENARIO,
                seed=seed,
                shards=shards,
                replicas=1,
                ops=ops,
                rate=rate,
            )

        def probe_on(rate: int, shards=shards):
            return run_scenario(
                _KNEE_SCENARIO,
                seed=seed,
                shards=shards,
                replicas=1,
                ops=ops,
                rate=rate,
                **_scenario_kwargs(True, True),
            )

        ceiling = _RATE_CEIL_PER_SHARD * shards
        baseline = find_knee(
            probe_off,
            _RATE_FLOOR,
            ceiling,
            slo_spec=TRAFFIC_SLO_SPEC,
            tolerance=_KNEE_TOLERANCE,
        )
        cached = find_knee(
            probe_on,
            _RATE_FLOOR,
            ceiling,
            slo_spec=TRAFFIC_SLO_SPEC,
            tolerance=_KNEE_TOLERANCE,
        )
        ratio = cached.knee_ops_s / max(1, baseline.knee_ops_s)
        result.topologies.append(
            {
                "shards": shards,
                "baseline_knee_ops_s": baseline.knee_ops_s,
                "cached_knee_ops_s": cached.knee_ops_s,
                "knee_ratio": round(ratio, 3),
                "baseline_probes": [p.to_dict() for p in baseline.probes],
                "cached_probes": [p.to_dict() for p in cached.probes],
            }
        )
        if ratio < KNEE_RATIO_MIN:
            result.violations.append(
                f"{shards} shard(s): knee ratio {ratio:.2f}x < "
                f"{KNEE_RATIO_MIN}x (baseline {baseline.knee_ops_s}, "
                f"cached {cached.knee_ops_s} ops/s)"
            )


def _fixed_rate_phase(
    result: NearCacheBenchResult, seed: int, ops: int
) -> None:
    for scenario, rate in _FIXED_RATE:
        configs = {}
        for name, near_cache, read_offload in _CONFIGS:
            report = run_scenario(
                scenario,
                seed=seed,
                shards=_FIXED_SHARDS,
                replicas=1,
                ops=ops,
                rate=rate,
                **_scenario_kwargs(near_cache, read_offload),
            )
            configs[name] = _run_summary(report)
        result.fixed_rate.append(
            {
                "scenario": scenario,
                "rate_ops_s": rate,
                "shards": _FIXED_SHARDS,
                "configs": configs,
            }
        )
        base = configs["off"]
        both = configs["cache+offload"]
        shed = both["primary_gets"] / max(1, base["primary_gets"])
        if shed > SHED_MAX:
            result.violations.append(
                f"{scenario}: cache+offload kept {shed:.2f}x of baseline "
                f"primary GETs ({both['primary_gets']} vs "
                f"{base['primary_gets']}), max {SHED_MAX}x"
            )
        if both["corrected_p99_ns"] > base["corrected_p99_ns"]:
            result.violations.append(
                f"{scenario}: cache+offload corrected p99 "
                f"{both['corrected_p99_ns'] / 1e6:.3f}ms worse than "
                f"baseline {base['corrected_p99_ns'] / 1e6:.3f}ms"
            )
    # The read-heavy mixed-tenant scenario is where claim-matched backup
    # reads should actually land: require the offload-only config to
    # have served at least one GET from a backup there.
    for block in result.fixed_rate:
        if block["scenario"] != "multi-tenant-contention":
            continue
        served = block["configs"]["offload"]["offload_served"]
        if served < 1:
            result.violations.append(
                "multi-tenant-contention: offload-only config served "
                "no backup reads"
            )


def _equivalence_phase(result: NearCacheBenchResult) -> None:
    from repro.faults.harness import run_chaos

    plain = run_chaos(
        _EQUIV_SEED, "", ops=150, shards=3, replicas=1
    )
    cached = run_chaos(
        _EQUIV_SEED,
        "",
        ops=150,
        shards=3,
        replicas=1,
        near_cache=True,
        read_offload=True,
    )
    chaos = run_chaos(
        _CHAOS_SEED,
        _CHAOS_SCHEDULE,
        ops=200,
        shards=3,
        replicas=2,
        ack_mode="async",
        near_cache=True,
        read_offload=True,
    )
    result.equivalence = {
        "clean_seed": _EQUIV_SEED,
        "digests_equal": plain.state_digest == cached.state_digest,
        "clean_plain_ok": plain.ok,
        "clean_cached_ok": cached.ok,
        "clean_offload_served": cached.offload_served,
        "chaos_seed": _CHAOS_SEED,
        "chaos_schedule": _CHAOS_SCHEDULE,
        "chaos_ok": chaos.ok,
        "chaos_violations": list(chaos.violations),
        "chaos_losses_detected": chaos.losses_detected,
        "chaos_tamper_detected": chaos.tamper_detected,
        "chaos_offload_served": chaos.offload_served,
        "chaos_offload_fallbacks": chaos.offload_fallbacks,
        "chaos_fingerprint": chaos.fault_fingerprint,
    }
    if not (plain.ok and cached.ok):
        result.violations.append(
            "clean chaos run failed shadow verification "
            f"(plain ok={plain.ok}, cached ok={cached.ok})"
        )
    if plain.state_digest != cached.state_digest:
        result.violations.append(
            "cache+offload changed final store state on the clean run: "
            f"{plain.state_digest[:16]} != {cached.state_digest[:16]}"
        )
    if not chaos.ok:
        result.violations.append(
            f"faulted chaos run with cache+offload violated the shadow "
            f"model: {chaos.violations}"
        )


def run_nearcachebench(
    quick: bool = False, seed: int = _SEED
) -> NearCacheBenchResult:
    """Run all three phases and their gates; see the module docstring."""
    ops = _PROBE_OPS_QUICK if quick else _PROBE_OPS
    result = NearCacheBenchResult(
        quick=quick,
        seed=seed,
        ops=ops,
        slo_spec=TRAFFIC_SLO_SPEC,
        lease_ms=_LEASE_MS,
    )
    _knee_phase(result, seed, ops)
    _fixed_rate_phase(result, seed, ops)
    _equivalence_phase(result)
    return result
