"""Wall-clock benchmark of the real Precursor put/get path.

Usage (from the repository root)::

    python -m perf.run [--workload NAME ...] [--seed N]
                       [--seconds N | --quick] [--trace 0|1] [--out FILE]

The run length is ``run_seconds`` of ``BENCHMARK.json``.  ``--seconds``
exists because the benchmark's calling convention passes it; it
defaults to ``run_seconds``, and results of different lengths are not
compared (:mod:`perf.compare`).

A run repeats a fixed cycle of operations, cut into short blocks
(:mod:`perf.workloads`).  The gated timings come from each block's
fastest execution (:func:`fastest_executions`): the same work every
time, so the repeats differ only in what the host did meanwhile.  The
host's slow spells only ever add time.  They come and go on each vCPU
on its own, and the passes over the cycle take turns on the vCPUs, so
the fastest executions are the program on an undisturbed host.

Each workload runs in its own subprocess (:mod:`perf.measure`):

- ``--trace 0``: the untraced run, giving the end-to-end metrics, plus
  set-up-only runs so ``setup_s`` is a median over three set-ups;
- ``--trace 1``: the traced run (half as long), giving the per-layer
  metrics;
- neither: both, plus ``trace.overhead``.

Every metric is printed by name with its unit.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With one workload the metric names are
those of ``BENCHMARK.json``; with several, each is prefixed by
``<workload>/``.  The exit code is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from perf import ROOT
from perf.layers import span_names
from perf.measure import WARMUP_S
from perf.workloads import BLOCK_OPS, WORKLOADS, specs_sha256

__all__ = [
    "ERROR_RATE",
    "benchmark_spec",
    "end_to_end",
    "fastest_executions",
    "per_layer",
    "percentile",
    "run_workload",
    "main",
]

#: Measured seconds of a ``--quick`` run.
QUICK_SECONDS = 3
#: Set-ups per untraced run (their median is ``setup_s``).
SETUPS = 3

#: The correctness gate as a metric.  It is always 0 on a sound build,
#: so it is not one of BENCHMARK.json's end-to-end metrics (their bound
#: is a share of the parent's median); any rise fails the run instead.
ERROR_RATE = {"name": "error_rate", "unit": "fraction", "better": "lower", "bound": 0.0}


def benchmark_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, directions and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 1] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _metric(value: float, unit: str, **extra) -> dict:
    return {"value": value, "unit": unit, **extra}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _ops(executions: Sequence[dict]) -> int:
    """Operations completed in ``executions``."""
    return sum(e["read_ops"] + e["write_ops"] for e in executions)


def fastest_executions(executions: Sequence[dict]) -> List[dict]:
    """Each block's fastest execution, one per block that ran."""
    best: Dict[int, dict] = {}
    for e in executions:
        if e["block"] not in best or e["seconds"] < best[e["block"]]["seconds"]:
            best[e["block"]] = e
    return list(best.values())


def _fast_rate(executions: Sequence[dict]) -> float:
    """Operations per second over each block's fastest execution."""
    fast = fastest_executions(executions)
    return _ops(fast) / sum(e["seconds"] for e in fast)


def end_to_end(raw: dict, setups_s: Sequence[float]) -> Dict[str, dict]:
    """The end-to-end metrics of one untraced run (plus ``error_rate``).

    ``ops_per_s`` and the p50 latencies come from each block's fastest
    execution; the reported tails pool every call of the run.
    """
    executions = raw["executions"]
    fast = fastest_executions(executions)
    out = {
        "ops_per_s": _metric(
            _fast_rate(executions),
            "ops/s",
            blocks=len(fast),
            repeats=round(len(executions) / len(fast), 1),
        )
    }
    for kind, tail in (("read", 0.95), ("write", 0.90)):
        fast_calls = [x for e in fast for x in e[f"{kind}_us"]]
        every_call = [x for e in executions for x in e[f"{kind}_us"]]
        out[f"{kind}_p50_us"] = _metric(
            statistics.median(fast_calls) if fast_calls else 0.0,
            "us",
            samples=len(fast_calls),
        )
        out[f"{kind}_p{round(tail * 100)}_us"] = _metric(
            percentile(every_call, tail), "us", samples=len(every_call)
        )
    out["error_rate"] = _metric(
        _ratio(raw["failed"], raw["attempted"]), "fraction", samples=raw["attempted"]
    )
    out["setup_s"] = _metric(statistics.median(setups_s), "s", samples=len(setups_s))
    out["rss_peak_mib"] = _metric(raw["rss_peak_kib"] / 1024, "MiB")
    out["enclave_trusted_kib"] = _metric(raw["enclave_trusted_bytes"] / 1024, "KiB")
    return out


def per_layer(raw: dict, untraced_ops_per_s: Optional[float] = None) -> Dict[str, dict]:
    """The per-layer metrics of one traced run.

    Per wrapped function: calls and self time per completed operation.
    Then the ratios read from the layers' own counters, and the two
    checks on the trace itself.
    """
    executions = raw["executions"]
    writes = sum(e["write_ops"] for e in executions)
    ops = _ops(executions)
    wall_ns = sum(e["seconds"] for e in executions) * 1e9
    profile = raw["profile"]
    spans = profile["spans"]
    counters = raw["counters"]
    out: Dict[str, dict] = {}
    for name in span_names():
        rec = spans.get(name, {"calls": 0, "self_ns": 0, "useful": 0})
        out[f"{name}.calls_per_op"] = _metric(_ratio(rec["calls"], ops), "calls/op")
        out[f"{name}.self_us_per_op"] = _metric(
            _ratio(rec["self_ns"] / 1e3, ops), "us/op"
        )
    poll = spans.get("core.ring_buffer.poll_one", {"calls": 0, "useful": 0})
    derived = (
        ("ring.polls_per_frame", _ratio(poll["calls"], poll["useful"]), "polls/frame"),
        (
            "batch.frames_per_cycle",
            _ratio(counters.get("batch_messages", 0), counters.get("batch_cycles", 0)),
            "frames/cycle",
        ),
        (
            "threading.idle_sleeps_per_op",
            _ratio(counters.get("idle_sleeps", 0), ops),
            "sleeps/op",
        ),
        (
            "threading.server_busy_share",
            _ratio(profile["trusted_top_ns"], wall_ns),
            "fraction",
        ),
        (
            "replica.records_per_write",
            _ratio(counters.get("records_logged", 0), writes),
            "records/write",
        ),
        (
            "replica.log_bytes_per_write",
            _ratio(counters.get("log_bytes", 0), writes),
            "B/write",
        ),
        (
            "cache.hit_ratio",
            _ratio(counters.get("cache_hits", 0), counters.get("cache_lookups", 0)),
            "fraction",
        ),
        (
            "cache.revalidations_per_read",
            _ratio(
                counters.get("cache_revalidations", 0), counters.get("cache_lookups", 0)
            ),
            "reval/read",
        ),
        (
            "server.requests_per_op",
            _ratio(counters["server_requests"], ops),
            "req/op",
        ),
        (
            "trace.tiling_error",
            _ratio(
                abs(profile["load_self_ns"] - raw["call_latency_s"] * 1e9),
                raw["call_latency_s"] * 1e9,
            ),
            "fraction",
        ),
    )
    for name, value, unit in derived:
        out[name] = _metric(value, unit)
    if untraced_ops_per_s:
        out["trace.overhead"] = _metric(
            1 - _fast_rate(executions) / untraced_ops_per_s, "fraction"
        )
    return out


def _spawn(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    setup_only: bool = False,
) -> dict:
    """Run :mod:`perf.measure` in a fresh interpreter; returns its result.

    ``setup_s`` is measured from just before the interpreter starts to
    the end of the preload, minus the benchmark's own input generation.
    """
    cmd = [
        sys.executable,
        "-m",
        "perf.measure",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
    ]
    if traced:
        cmd.append("--traced")
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.time()
    proc = subprocess.run(
        cmd,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60 + 3 * seconds,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload}: measurement process failed "
            f"({proc.returncode}):\n{proc.stderr[-4000:]}"
        )
    raw = json.loads(proc.stdout.strip().splitlines()[-1])
    raw["setup_s"] = raw["ready_unix"] - spawned - raw["gen_s"]
    return raw


#: Correctness counts summed over a workload's measuring subprocesses.
_COUNTS = ("attempted", "failed", "raised", "mismatches", "integrity_failures")


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: Optional[int] = None,
    setups: int = SETUPS,
) -> dict:
    """Measure one workload; ``trace`` as in the module docstring."""
    result = {"workload": workload, "pool_errors": [], **dict.fromkeys(_COUNTS, 0)}
    untraced_rate = None
    runs = []
    if trace != 1:
        untraced = _spawn(workload, seed, seconds)
        runs.append(untraced)
        setups_s = [untraced["setup_s"]] + [
            _spawn(workload, seed, 0, setup_only=True)["setup_s"]
            for _ in range(setups - 1)
        ]
        result["end_to_end"] = end_to_end(untraced, setups_s)
        untraced_rate = result["end_to_end"]["ops_per_s"]["value"]
    if trace != 0:
        traced = _spawn(workload, seed, seconds / 2, traced=True)
        runs.append(traced)
        result["per_layer"] = per_layer(traced, untraced_rate)
    for run in runs:
        for key in _COUNTS:
            result[key] += run[key]
        result["pool_errors"] += run["pool_errors"]
    # The CPUs the measuring process took turns on (empty: unpinned).
    result["cpus"] = runs[0].get("cpus", [])
    return result


def manifest(names: Sequence[str], seed: int, seconds: float, setups: int) -> dict:
    """What a stored result needs to be compared with another one later."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))

    def git(*args: str) -> Optional[str]:
        try:
            proc = subprocess.run(
                ["git", "-C", str(ROOT), *args],
                capture_output=True,
                text=True,
                env=env,
                timeout=30,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    cpu_model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "workloads": list(names),
        "workload_specs_sha256": specs_sha256(names),
        "clock": "wall",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "seconds": seconds,
        "block_ops": BLOCK_OPS,
        "warmup_s": WARMUP_S,
        "setups": setups,
        "created_unix": time.time(),
    }


def _print_table(title: str, rows: List[tuple]) -> None:
    print(title)
    for row in rows:
        print("  " + "  ".join(row))


def report(result: dict, spec: dict) -> None:
    """Print every metric of one workload result with its unit."""
    name = result["workload"]
    print(
        f"[{name}] ops attempted {result['attempted']}, failed {result['failed']}"
        f" (raised {result['raised']}, wrong value {result['mismatches']},"
        f" MAC failures {result['integrity_failures']},"
        f" server-thread errors {len(result['pool_errors'])}),"
        f" pinned in turn to CPUs {result['cpus']}"
    )
    if "end_to_end" in result:
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        bounds[ERROR_RATE["name"]] = ERROR_RATE["bound"]
        rows = []
        for metric, m in result["end_to_end"].items():
            detail = ", ".join(
                f"{k}={m[k]}" for k in ("samples", "blocks", "repeats") if k in m
            )
            bound = bounds.get(metric)
            rows.append(
                (
                    f"{metric:<20}",
                    f"{m['value']:>14.4f}",
                    f"{m['unit']:<9}",
                    "reported " if bound is None else f"bound {bound:<3.0%}",
                    detail,
                )
            )
        _print_table(f"[{name}] end-to-end (untraced)", rows)
    if "per_layer" in result:
        layer = result["per_layer"]
        total_self = sum(
            layer[f"{s}.self_us_per_op"]["value"] for s in span_names()
        )
        rows = []
        for span in span_names():
            calls = layer[f"{span}.calls_per_op"]["value"]
            if not calls:
                continue
            self_us = layer[f"{span}.self_us_per_op"]["value"]
            rows.append(
                (
                    f"{span:<45}",
                    f"{calls:>8.3f} calls/op",
                    f"{self_us:>10.2f} us/op",
                    f"{_ratio(self_us, total_self):>6.1%}",
                )
            )
        _print_table(f"[{name}] per-layer self time (traced, share of total)", rows)
        rows = [
            (f"{metric:<45}", f"{m['value']:>12.4f}", m["unit"])
            for metric, m in layer.items()
            if not metric.endswith(("calls_per_op", "self_us_per_op"))
        ]
        _print_table(f"[{name}] per-layer ratios", rows)


def _selected(result: dict, trace: Optional[int], spec: dict) -> Dict[str, dict]:
    """The metrics the final JSON line carries for one workload."""
    if trace == 0:
        names = [m["name"] for m in spec["end_to_end"]]
        source = result["end_to_end"]
    elif trace == 1:
        names = [m["name"] for m in spec["per_layer"]]
        source = result["per_layer"]
    else:
        source = {**result["end_to_end"], **result["per_layer"]}
        names = list(source)
    return {n: {"value": source[n]["value"], "unit": source[n]["unit"]} for n in names}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark of the Precursor put/get path."
    )
    parser.add_argument(
        "--workload",
        action="append",
        choices=sorted(WORKLOADS),
        help="workload to run (repeatable; default: all)",
    )
    spec = benchmark_spec()
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds",
        type=int,
        default=spec["run_seconds"],
        help="measured seconds per untraced run "
        "(default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--quick", action="store_true", help=f"{QUICK_SECONDS} s, one set-up"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end only; 1: per-layer only; default both",
    )
    parser.add_argument("--out", type=Path, help="write the full results as JSON")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    names = args.workload or list(WORKLOADS)
    seconds = QUICK_SECONDS if args.quick else args.seconds
    setups = 1 if args.quick else SETUPS

    results = [
        run_workload(name, args.seed, seconds, args.trace, setups) for name in names
    ]
    for result in results:
        report(result, spec)

    metrics: Dict[str, dict] = {}
    for result in results:
        selected = _selected(result, args.trace, spec)
        if len(results) == 1:
            metrics = selected
        else:
            metrics.update({f"{result['workload']}/{k}": v for k, v in selected.items()})
    failed = sum(r["failed"] for r in results)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps(
                {
                    "manifest": manifest(names, args.seed, seconds, setups),
                    "results": {r["workload"]: r for r in results},
                },
                indent=2,
            )
            + "\n"
        )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
