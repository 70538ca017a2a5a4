"""One workload, one process: set up, warm up, time block after block.

``python -m perf.measure --workload NAME --seed N --seconds S [--traced]
[--setup-only]`` prints the raw result as one JSON line; ``perf.run``
starts it once per measurement so that set-up time and peak memory
belong to that workload alone.  :func:`measure` is the same run inside
the calling process.

The subprocess pins all its threads to one CPU at a time (:func:`pin`).
Python runs one thread at a time under the GIL, so a second CPU adds no
throughput.  What it adds is GIL hand-offs between CPUs, whose cost
depends on how the host schedules them.  Unpinned, the threaded workload
ran at ~1.67k instead of ~2.16k ops/s, and its run-to-run spread
tripled.  Each pass over the cycle moves to the next CPU it may use, so
every block is timed on every CPU: a CPU that stays slow for a whole run
(a busy sibling hyperthread, say) cannot slow every execution of a block.

Correctness gate: a shadow dict holds the last acknowledged value of
every key; every value read is checked against it.  A call that raises
counts each of its keys as failed, and so does a read whose value
differs from the shadow.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence

from perf.layers import LayerProfiler
from perf.workloads import WORKLOADS, System

__all__ = ["WARMUP_S", "measure", "pin", "usable_cpus"]

#: Untimed warm-up before the first timed block (s).
WARMUP_S = 1.0


def usable_cpus() -> List[int]:
    """The CPUs this process may run on; empty where it cannot pin."""
    try:
        return sorted(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return []


def pin(cpu: int) -> None:
    """Pin every thread of this process to ``cpu``."""
    for thread in threading.enumerate():
        try:
            os.sched_setaffinity(thread.native_id, {cpu})
        except OSError:  # the thread has just ended
            pass


def measure(
    workload: str,
    seed: int,
    seconds: float,
    traced: bool = False,
    setup_only: bool = False,
    warmup_s: float = WARMUP_S,
    tamper: Optional[Callable[[System], None]] = None,
    cpus: Sequence[int] = (),
) -> dict:
    """Run ``workload`` in this process and return its raw result.

    ``traced`` wraps the layer functions (:mod:`perf.layers`) before the
    system is built, so every bound method the system keeps is wrapped
    too.  ``tamper`` is called with the preloaded system before the
    warm-up; tests use it to corrupt stored state.  Each pass over the
    cycle runs pinned to the next of ``cpus``; with none, nothing is
    pinned.
    """
    spec = WORKLOADS[workload]
    gen_t0 = time.perf_counter()
    items = spec.preload_items()
    gen_s = time.perf_counter() - gen_t0
    profiler = LayerProfiler() if traced else None
    system = None
    try:
        if profiler is not None:
            profiler.install()
        setup_t0 = time.perf_counter()
        system = spec.build()
        system.preload(items)
        setup_inproc_s = time.perf_counter() - setup_t0
        result = {
            "workload": workload,
            "seed": seed,
            "traced": traced,
            "gen_s": gen_s,
            "setup_inproc_s": setup_inproc_s,
            "ready_unix": time.time(),
        }
        if setup_only:
            return result
        blocks = spec.blocks(seed)
        if tamper is not None:
            tamper(system)
        result.update(
            _drive(system, blocks, dict(items), seconds, warmup_s, profiler, cpus)
        )
        result["enclave_trusted_bytes"] = sum(
            s.enclave.trusted_bytes for s in system.servers()
        )
        result["rss_peak_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return result
    finally:
        if system is not None:
            system.close()
        if profiler is not None:
            profiler.uninstall()


def _drive(
    system: System,
    blocks: list,
    shadow: Dict[bytes, bytes],
    seconds: float,
    warmup_s: float,
    profiler: Optional[LayerProfiler],
    cpus: Sequence[int],
) -> dict:
    """The closed loop: warm-up, then block after block for ``seconds``.

    The blocks run in cycle order, over and over, each pass pinned to
    the next of ``cpus``.  Each timed block is one *execution* in the
    result; the last one is the first to end after ``seconds``.
    """
    clock = time.perf_counter
    unknown = set()  # keys whose last write raised: value not known
    counts = {"attempted": 0, "failed": 0, "mismatches": 0, "raised": 0}

    def execute(call):
        """Run one call; returns (latency_s, ok_ops) and checks reads."""
        is_read, keys, values = call
        counts["attempted"] += len(keys)
        t0 = clock()
        try:
            if is_read:
                got = system.read(keys)
            else:
                system.write(keys, values)
        except Exception:
            counts["raised"] += len(keys)
            counts["failed"] += len(keys)
            if not is_read:
                unknown.update(keys)
            return clock() - t0, 0
        elapsed = clock() - t0
        if is_read:
            bad = sum(
                1
                for key, value in zip(keys, got)
                if key not in unknown and shadow.get(key) != value
            )
            counts["mismatches"] += bad
            counts["failed"] += bad
            return elapsed, len(keys) - bad
        for key, value in zip(keys, values):
            shadow[key] = value
            unknown.discard(key)
        return elapsed, len(keys)

    index = 0
    latency_sum_s = 0.0

    def run_block() -> dict:
        """Run the next block of the cycle and time it."""
        nonlocal index, latency_sum_s
        cycle, block = divmod(index, len(blocks))
        index += 1
        if block == 0 and cpus:
            pin(cpus[cycle % len(cpus)])
        done_ops = {True: 0, False: 0}
        latencies: Dict[bool, List[float]] = {True: [], False: []}
        start = clock()
        for call in blocks[block]:
            elapsed, done = execute(call)
            latency_sum_s += elapsed
            done_ops[call[0]] += done
            if done == len(call[1]):
                latencies[call[0]].append(elapsed * 1e6)
        return {
            "block": block,
            "seconds": clock() - start,
            "read_ops": done_ops[True],
            "write_ops": done_ops[False],
            "read_us": latencies[True],
            "write_us": latencies[False],
        }

    deadline = clock() + warmup_s
    while clock() < deadline:
        run_block()
    counters_before = system.counters()
    if profiler is not None:
        profiler.mark()

    latency_sum_s = 0.0
    executions: List[dict] = []
    deadline = clock() + seconds
    while not executions or clock() < deadline:
        executions.append(run_block())

    counters_after = system.counters()
    pool_errors = system.pool_errors()
    result = {
        "executions": executions,
        "attempted": counts["attempted"],
        "failed": counts["failed"] + len(pool_errors),
        "raised": counts["raised"],
        "mismatches": counts["mismatches"],
        "integrity_failures": system.integrity_failures(),
        "pool_errors": [repr(e) for e in pool_errors],
        "counters": {
            k: counters_after[k] - counters_before.get(k, 0) for k in counters_after
        },
        "call_latency_s": latency_sum_s,
    }
    if profiler is not None:
        result["profile"] = profiler.since_mark()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    cpus = usable_cpus()
    if cpus:
        # Set up on one CPU too; the threads the set-up starts inherit it.
        pin(cpus[-1])
    result = measure(
        args.workload,
        args.seed,
        args.seconds,
        traced=args.traced,
        setup_only=args.setup_only,
        cpus=cpus,
    )
    result["cpus"] = cpus
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
