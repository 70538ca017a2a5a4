"""Wall-clock crypto benchmark: ``reference`` vs ``fast`` engines.

Unlike the calibrated simulator (which *models* AES-NI-class hardware),
this harness measures the **real** pure-Python primitives with
``time.perf_counter``: per-primitive MB/s across value sizes, the
transport seal/open path, and end-to-end functional put/get ops/s --
each under both engines -- plus fixed-seed chaos and YCSB-A functional
runs to show the whole stack speeds up, not just microbenchmarks.

Methodology: this machine's wall clock is extremely noisy (cross-run
swings of +/- 40 % from frequency drift), so every timing is the
**minimum over several repeats** -- the standard ``timeit`` argument:
the minimum is the least-contaminated estimate of the true cost, while
means and medians fold scheduler noise in.

A cross-engine parity check runs first; a benchmark of two engines
that disagree on bytes would be meaningless, so parity failure stops the
run, and every bound it left unmeasured fails (exit code 1).  The result
also bounds the fast/reference speedup from below (:data:`FLOOR`, 5x on
the 4 KiB payload path) so CI catches a performance regression of the
fast kernels the way it catches a functional one.

Entry points: :func:`run_cryptobench` (library) and
``python -m repro.cli cryptobench`` (shell).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict

from repro.bench.report import Bound, Bounded, at_least, equal
from repro.crypto.engine import get_engine, parity_check, use_engine

__all__ = ["CryptoBenchResult", "run_cryptobench", "DEFAULT_SIZES", "FLOOR"]

#: Minimum accepted fast/reference speedup on the 4 KiB payload
#: (Salsa20+CMAC) and transport (GCM seal) checkpoints.
FLOOR = 5.0

#: Value sizes swept by the full benchmark (bytes).  4096 is the size the
#: acceptance floors are defined on.
DEFAULT_SIZES = (64, 256, 1024, 4096, 16384)

_QUICK_SIZES = (256, 4096)

#: The two speedups bounded by :data:`FLOOR`.
_PAYLOAD = "payload_4096B_salsa20+cmac"
_SEAL = "transport_4096B_gcm_seal"

_ENGINES = ("reference", "fast")

_SALSA_KEY = bytes(range(32))
_CMAC_KEY = bytes(range(32, 64))
_GCM_KEY = bytes(range(16))
_NONCE = b"\x00" * 8
_IV = b"\x00" * 12


def _min_time(fn: Callable[[], object], repeats: int, inner: int) -> float:
    """Seconds for one call of ``fn``: min over ``repeats`` of ``inner`` runs.

    One untimed warmup call first: the fast engine builds its lookup
    tables lazily and the first execution of a kernel also pays
    bytecode/branch-cache warmup, neither of which belongs in a
    steady-state number.
    """
    return _min_times({"_": fn}, repeats, inner)["_"]


def _min_times(
    fns: Dict[str, Callable[[], object]], repeats: int, inner: int,
    rounds: int = 3,
) -> Dict[str, float]:
    """Min-of-repeats for several functions, alternated in short blocks.

    Layout: ``rounds`` passes, each timing every function as a
    contiguous block of one untimed warmup call plus ``repeats`` timed
    measurements of ``inner`` calls.  The *block* alternation makes both
    engines sample the same clock-frequency windows (drift on this
    machine is on a seconds timescale, a block is tens of milliseconds),
    while the *within-block* warmup restores each engine's working set
    first -- the fast engine's lookup tables get evicted whenever the
    other engine runs, and production runs one engine, so the
    steady-state warm number is the honest one.
    """
    best = {name: float("inf") for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            fn()
            for _ in range(repeats):
                t0 = time.perf_counter()
                for _ in range(inner):
                    fn()
                elapsed = (time.perf_counter() - t0) / inner
                if elapsed < best[name]:
                    best[name] = elapsed
    return best


@dataclass
class CryptoBenchResult(Bounded):
    """Everything one benchmark run measured, and its bounds."""

    quick: bool
    #: ``primitives[engine][primitive][size] = MB/s``
    primitives: Dict[str, Dict[str, Dict[int, float]]] = field(
        default_factory=dict
    )
    #: ``e2e[engine][metric] = value`` (ops/s for put/get, s for runs)
    e2e: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: fast/reference wall-clock ratios per checkpoint
    speedups: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, Bound] = field(default_factory=dict, init=False)

    def to_dict(self) -> dict:
        """JSON-ready form (written to ``BENCH_crypto.json``)."""
        return {
            "benchmark": "cryptobench",
            "quick": self.quick,
            "primitives_mb_per_s": {
                eng: {
                    prim: {str(size): round(v, 4) for size, v in by_size.items()}
                    for prim, by_size in prims.items()
                }
                for eng, prims in self.primitives.items()
            },
            "end_to_end": {
                eng: {k: round(v, 4) for k, v in vals.items()}
                for eng, vals in self.e2e.items()
            },
            "speedups_fast_over_reference": {
                k: round(v, 2) for k, v in self.speedups.items()
            },
            **self.verdict(),
        }

    def report(self) -> str:
        """Human-readable table."""
        lines = [
            "Wall-clock crypto benchmark: reference vs fast engine"
            + ("  [quick]" if self.quick else ""),
            "=" * 70,
            f"{'primitive':<18}{'size':>7}  "
            f"{'reference':>12}  {'fast':>12}  {'speedup':>8}",
            "-" * 70,
        ]
        ref = self.primitives.get("reference", {})
        fast = self.primitives.get("fast", {})
        for prim in sorted(ref):
            for size in sorted(ref[prim]):
                r = ref[prim][size]
                f = fast.get(prim, {}).get(size, 0.0)
                ratio = f / r if r else 0.0
                lines.append(
                    f"{prim:<18}{size:>6}B  {r:>9.2f} MB/s  {f:>9.2f} MB/s"
                    f"  {ratio:>6.1f}x"
                )
        lines += ["-" * 70, "end-to-end (functional stack):"]
        for eng in _ENGINES:
            vals = self.e2e.get(eng, {})
            if not vals:
                continue
            parts = ", ".join(
                f"{k}={v:.1f}" for k, v in sorted(vals.items())
            )
            lines.append(f"  {eng:<10} {parts}")
        lines.append("-" * 70)
        for name, ratio in sorted(self.speedups.items()):
            lines.append(f"speedup {name:<28} {ratio:>6.1f}x")
        return "\n".join(lines) + self.failed_bounds()


def _bench_primitives(
    sizes, repeats: int, inner: int
) -> Dict[str, Dict[str, Dict[int, float]]]:
    """MB/s per engine/primitive/size.

    The engines' repeats are **interleaved per (primitive, size)** --
    reference, fast, reference, fast, ... -- rather than one engine
    timed after the other: this machine's clock frequency drifts on a
    seconds timescale, and alternating exposes both engines to the same
    fast and slow windows, so the drift cancels out of the
    fast/reference ratio that CI gates on.
    """
    engines = {name: get_engine(name) for name in _ENGINES}
    gcms = {name: eng.gcm(_GCM_KEY) for name, eng in engines.items()}
    out: Dict[str, Dict[str, Dict[int, float]]] = {
        name: {"salsa20": {}, "cmac": {}, "gcm_seal": {}, "gcm_open": {}}
        for name in _ENGINES
    }
    for size in sizes:
        data = bytes(i & 0xFF for i in range(size))
        sealed = gcms["reference"].seal(_IV, data)
        mb = size / 1e6
        cases = {
            "salsa20": lambda eng, g: (
                lambda: eng.salsa20_encrypt(_SALSA_KEY, _NONCE, data)
            ),
            "cmac": lambda eng, g: (lambda: eng.aes_cmac(_CMAC_KEY, data)),
            "gcm_seal": lambda eng, g: (lambda: g.seal(_IV, data)),
            "gcm_open": lambda eng, g: (lambda: g.open(_IV, sealed)),
        }
        for prim, make in cases.items():
            fns = {
                name: make(engines[name], gcms[name]) for name in _ENGINES
            }
            times = _min_times(fns, repeats, inner)
            for name, t in times.items():
                out[name][prim][size] = mb / t
    return out


def _bench_e2e(
    engine_name: str, ops: int, value_size: int, chaos_ops: int,
    ycsb_ops: int,
) -> Dict[str, float]:
    """End-to-end numbers with the whole stack pinned to one engine."""
    from repro.core import make_pair
    from repro.faults import run_chaos
    from repro.ycsb.driver import WorkloadDriver
    from repro.ycsb.workload import WORKLOAD_A

    out: Dict[str, float] = {}
    with use_engine(engine_name):
        _, client = make_pair(seed=2021)
        value = bytes(value_size)
        keys = [b"cb-key-%05d" % i for i in range(ops)]
        t0 = time.perf_counter()
        for key in keys:
            client.put(key, value)
        out["put_ops_per_s"] = ops / (time.perf_counter() - t0)
        t0 = time.perf_counter()
        for key in keys:
            client.get(key)
        out["get_ops_per_s"] = ops / (time.perf_counter() - t0)

        # Fixed-seed chaos smoke: same fault fingerprint under both
        # engines proves the fast kernels don't perturb recovery.
        t0 = time.perf_counter()
        chaos = run_chaos(
            seed=7,
            schedule="drop:0.05,duplicate:0.05,corrupt_payload:0.05",
            ops=chaos_ops,
        )
        out["chaos_wall_s"] = time.perf_counter() - t0
        out["chaos_ok"] = 1.0 if chaos.ok else 0.0

        # YCSB-A (50/50 read/update) functional run.
        _, yclient = make_pair(seed=2021)
        driver = WorkloadDriver(yclient, WORKLOAD_A, seed=2021)
        driver.load(records=min(128, max(32, ycsb_ops // 4)))
        t0 = time.perf_counter()
        run = driver.run(ycsb_ops)
        out["ycsb_a_wall_s"] = time.perf_counter() - t0
        out["ycsb_a_ops_per_s"] = run.operations / out["ycsb_a_wall_s"]
    return out


def _measure(result: CryptoBenchResult, quick: bool) -> None:
    """Fill ``result``'s primitives, end-to-end runs and speedups."""
    sizes = _QUICK_SIZES if quick else DEFAULT_SIZES
    repeats = 2 if quick else 3
    inner = 1 if quick else 2
    result.primitives = _bench_primitives(sizes, repeats=repeats, inner=inner)

    e2e_ops = 30 if quick else 120
    chaos_ops = 60 if quick else 200
    ycsb_ops = 40 if quick else 200
    for eng in _ENGINES:
        result.e2e[eng] = _bench_e2e(
            eng, ops=e2e_ops, value_size=4096,
            chaos_ops=chaos_ops, ycsb_ops=ycsb_ops,
        )

    ref, fast = result.primitives["reference"], result.primitives["fast"]
    # Payload path = Salsa20 encrypt + CMAC over the same bytes; compare
    # combined wall time (1/MBps is s/MB, so times add as reciprocals).
    ref_payload = 1.0 / ref["salsa20"][4096] + 1.0 / ref["cmac"][4096]
    fast_payload = 1.0 / fast["salsa20"][4096] + 1.0 / fast["cmac"][4096]
    result.speedups[_PAYLOAD] = ref_payload / fast_payload
    result.speedups[_SEAL] = fast["gcm_seal"][4096] / ref["gcm_seal"][4096]
    result.speedups["transport_4096B_gcm_open"] = (
        fast["gcm_open"][4096] / ref["gcm_open"][4096]
    )
    re2e, fe2e = result.e2e["reference"], result.e2e["fast"]
    for metric in ("put_ops_per_s", "get_ops_per_s", "ycsb_a_ops_per_s"):
        result.speedups[f"e2e_{metric}"] = fe2e[metric] / re2e[metric]
    for metric in ("chaos_wall_s", "ycsb_a_wall_s"):
        result.speedups[f"e2e_{metric}"] = re2e[metric] / fe2e[metric]


def run_cryptobench(quick: bool = False) -> CryptoBenchResult:
    """Run the full (or quick) benchmark; never raises on perf failure.

    ``quick`` shrinks sizes/repeats/op-counts for CI smoke runs; both
    runs are bounded by :data:`FLOOR`.
    """
    result = CryptoBenchResult(quick=quick)
    diverged = parity_check()
    if not diverged:  # benchmarking divergent engines is meaningless
        _measure(result, quick)
    result.checks = {
        "engines byte-identical": equal(diverged, []),
        f"{_PAYLOAD} speedup >= {FLOOR}x": at_least(
            result.speedups.get(_PAYLOAD), FLOOR
        ),
        f"{_SEAL} speedup >= {FLOOR}x": at_least(
            result.speedups.get(_SEAL), FLOOR
        ),
    }
    for eng in _ENGINES:
        result.checks[f"chaos smoke passes under the {eng} engine"] = equal(
            result.e2e.get(eng, {}).get("chaos_ok"), 1.0
        )
    return result
