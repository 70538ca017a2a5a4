"""Wall-clock batching benchmark: the request pipeline's drain window K.

Measures the **real** server-side cost of the request pipeline
(``repro.core.batch``, ``docs/BATCHING.md``) at drain windows K > 1
against K=1 on a YCSB-A-style workload: four clients stage waves of
50/50 get/put operations into their rings, and only the server's
drain-and-reply pump (``process_pending``) is timed -- the region where
K changes anything.  Client-side seal/verify work is identical at every
K and would only dilute the ratio, so it stays outside the timed region.

Methodology: this machine's wall clock is extremely noisy (cross-run
swings of +/- 30 % from frequency drift on a seconds timescale), so the
rounds are **interleaved across K** -- K=1, K=4, K=16, K=64, then again
-- so every K samples the same fast and slow clock windows.  Two
estimators are reported per K and must agree: the classic
min-over-rounds ratio (least-contaminated absolute cost) and the
**median of paired per-round ratios** (each round's K=1 time divided by
the same round's K time; pairing cancels drift that min-of-N can still
be unlucky about).

A behavioural-identity check runs first: the steady traffic scenario
must produce **byte-identical** report JSON at K=1 and K=16, and a
seeded chaos run at K=1 must verify clean.  A benchmark of two windows
that disagree on bytes would be meaningless, so identity failure stops
the run and fails its unmeasured speedup bound too (exit code 1),
exactly like cryptobench's parity check.

The result also bounds the K=16 speedup from below (:data:`FLOOR`,
1.3x on the full run) so CI catches a batching performance regression
the way it catches a functional one.  Quick runs shrink op counts below
the noise floor of a reliable ratio, so their bound is
:data:`QUICK_FLOOR` (1.05x).

Entry points: :func:`run_batchbench` (library) and
``python -m repro.cli batchbench`` (shell); the full run refreshes the
committed ``BENCH_batching.json``.
"""

from __future__ import annotations

import json
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.bench.report import Bound, Bounded, at_least, equal

__all__ = [
    "BatchBenchResult",
    "run_batchbench",
    "DEFAULT_KS",
    "FLOOR",
    "QUICK_FLOOR",
]

#: Batch windows swept by the full benchmark.  16 is the window the
#: acceptance floor is defined on; 1 is the one-frame baseline.
DEFAULT_KS = (1, 4, 16, 64)

_QUICK_KS = (1, 16)

#: Minimum accepted K=16-over-K=1 speedup of a full run.
FLOOR = 1.3
#: The same for a quick run, whose op counts sit near the timing noise
#: floor of a reliable ratio.
QUICK_FLOOR = 1.05

#: Interleaved measurement rounds and pumped ops per round.
_ROUNDS, _ROUNDS_QUICK = 5, 3
_OPS, _OPS_QUICK = 2500, 600

#: Loose run-level SLO for the identity scenarios: the point is byte
#: identity, not SLO verdicts, so nothing should trip.
_LOOSE_SLO = "latency:p99<500ms:min=8,errors:budget=50%:burn<50"

_CHAOS_SCHEDULE = "drop:0.05,duplicate:0.04,delay:0.05,corrupt_payload:0.02"


def _ycsb_a_pump(
    k: int,
    ops: int,
    clients: int = 4,
    wave: int = 32,
    records: int = 256,
    value_size: int = 16,
    seed: int = 7,
) -> float:
    """Seconds spent in the server pump for ``ops`` YCSB-A operations.

    Clients are built with ``auto_pump=False`` so request staging and
    reply verification happen outside the timed region; each wave
    stages up to ``wave`` operations per client (within the 64-slot
    ring's credit budget), then a single timed ``process_pending``
    drains every ring -- the pipeline sees full drain windows instead
    of the one-op-per-pump a pumping client would give it.

    The mix is the YCSB-A contract (50/50 read/update, seeded) over a
    skewed key popularity (cubed-uniform, so a few records absorb most
    of the traffic, like the zipfian YCSB default).
    """
    import random

    from repro.core.client import PrecursorClient
    from repro.core.protocol import OpCode
    from repro.core.server import PrecursorServer, ServerConfig
    from repro.crypto.keys import KeyGenerator

    server = PrecursorServer(config=ServerConfig(ecall_batch=k))
    sessions = [
        PrecursorClient(
            server,
            keygen=KeyGenerator(100 + i),
            auto_pump=False,
            response_timeout_s=0.0,
        )
        for i in range(clients)
    ]
    value = bytes(value_size)

    def stage(client, wave_ops):
        # Submit one window without pumping the server (the submit half
        # of the client's request path): the public put()/get() would
        # drain the ring after every op, which is exactly the K=1
        # behaviour we are comparing *against*.
        entries = []
        for opcode, key in wave_ops:
            if opcode is OpCode.PUT:
                entries += client._put_requests([(key, value)])
            else:
                entries.append((client._next_control(OpCode.GET, key), None))
        client._send(entries)
        return entries

    for i in range(records):
        client = sessions[i % clients]
        entries = stage(client, [(OpCode.PUT, b"key-%05d" % i)])
        server.process_pending()
        client._collect(entries, [])

    rng = random.Random(seed)
    keys = [
        b"key-%05d" % int(records * (rng.random() ** 3)) for _ in range(ops)
    ]
    writes = [rng.random() < 0.5 for _ in range(ops)]

    pump_s = 0.0
    i = 0
    while i < ops:
        waves: List[List[Tuple[object, bytes]]] = [[] for _ in sessions]
        for _ in range(wave * clients):
            if i >= ops:
                break
            opcode = OpCode.PUT if writes[i] else OpCode.GET
            waves[i % clients].append((opcode, keys[i]))
            i += 1
        staged = [
            (client, stage(client, wave_ops))
            for client, wave_ops in zip(sessions, waves)
            if wave_ops
        ]
        t0 = time.perf_counter()
        server.process_pending()
        pump_s += time.perf_counter() - t0
        for client, entries in staged:
            # The collect half: await and open the window's replies.
            client._collect(entries, [])
    return pump_s


def _identity_checks(scenario_ops: int, chaos_ops: int) -> Dict[str, Bound]:
    """Byte-identity bounds: K must not change observable behaviour."""
    import hashlib

    from repro.faults.harness import run_chaos
    from repro.shard.spec import ClusterSpec
    from repro.traffic.scenarios import run_scenario

    digests = {}
    for k in (1, 16):
        report = run_scenario(
            "steady",
            seed=11,
            cluster=ClusterSpec(shards=2, ecall_batch=k),
            ops=scenario_ops,
            slo=_LOOSE_SLO,
        )
        blob = json.dumps(report.to_dict(), sort_keys=True).encode()
        digests[k] = hashlib.sha256(blob).hexdigest()
    return {
        "steady report sha256 at K=16 == K=1": equal(digests[16], digests[1]),
        "chaos run at K=1 verifies clean": equal(
            run_chaos(7, _CHAOS_SCHEDULE, ops=chaos_ops).ok, True
        ),
    }


def _kernel_bench(
    batch: int = 32, size: int = 64, repeats: int = 5
) -> Dict[str, float]:
    """Per-message cost of scalar GCM open vs the fused ``open_many``.

    Distinct random IVs per message keep the AES state stream varied --
    a constant IV would make every table lookup cache-hot and overstate
    both kernels (the mistake this harness exists to avoid).
    """
    import random

    from repro.crypto.engine import get_engine

    rng = random.Random(99)
    gcm = get_engine("fast").gcm(bytes(range(16)))
    items = []
    for i in range(batch):
        iv = rng.getrandbits(96).to_bytes(12, "big")
        aad = b"aad%d" % i
        plaintext = bytes((i + j) & 0xFF for j in range(size))
        items.append((iv, gcm.seal(iv, plaintext, aad), aad))

    def scalar():
        for iv, sealed, aad in items:
            gcm.open(iv, sealed, aad)

    def batched():
        gcm.open_many(items)

    best = {"scalar": float("inf"), "batched": float("inf")}
    for _ in range(repeats):
        for name, fn in (("scalar", scalar), ("batched", batched)):
            fn()  # warm the tables / branch caches
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    scalar_us = best["scalar"] / batch * 1e6
    batched_us = best["batched"] / batch * 1e6
    return {
        "batch": float(batch),
        "message_bytes": float(size),
        "scalar_us_per_msg": scalar_us,
        "batched_us_per_msg": batched_us,
        "speedup": scalar_us / batched_us if batched_us else 0.0,
    }


@dataclass
class BatchBenchResult(Bounded):
    """Everything one benchmark run measured, and its bounds."""

    quick: bool
    ks: Tuple[int, ...]
    #: Workload shape (ops, clients, wave, records, value_size, rounds).
    workload: Dict[str, int] = field(default_factory=dict)
    #: ``per_k[K] = {"best_ops_per_s", "min_speedup", "median_paired"}``
    per_k: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: Scalar-vs-fused transport-open kernel numbers.
    kernel: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, Bound] = field(default_factory=dict, init=False)

    def to_dict(self) -> dict:
        """JSON-ready form (written to ``BENCH_batching.json``)."""
        return {
            "benchmark": "batchbench",
            "quick": self.quick,
            "ks": list(self.ks),
            "workload": dict(self.workload),
            "per_k": {
                str(k): {name: round(v, 4) for name, v in vals.items()}
                for k, vals in self.per_k.items()
            },
            "kernel_transport_open": {
                name: round(v, 4) for name, v in self.kernel.items()
            },
            **self.verdict(),
        }

    def report(self) -> str:
        """Human-readable table."""
        lines = [
            "Request pipeline benchmark: K-frame drain vs K=1"
            + ("  [quick]" if self.quick else ""),
            "=" * 70,
            "workload: YCSB-A staged waves, "
            + ", ".join(
                f"{k}={v}" for k, v in sorted(self.workload.items())
            ),
            "",
            f"{'K':>4}  {'pump ops/s':>12}  {'min-speedup':>12}  "
            f"{'median-paired':>14}",
            "-" * 70,
        ]
        for k in self.ks:
            vals = self.per_k.get(k, {})
            lines.append(
                f"{k:>4}  {vals.get('best_ops_per_s', 0.0):>12.0f}  "
                f"{vals.get('min_speedup', 0.0):>11.3f}x  "
                f"{vals.get('median_paired', 0.0):>13.3f}x"
            )
        if self.kernel:
            lines += [
                "-" * 70,
                "transport-open kernel "
                f"({self.kernel['batch']:.0f} x "
                f"{self.kernel['message_bytes']:.0f}B msgs, varied IVs): "
                f"scalar {self.kernel['scalar_us_per_msg']:.2f} us/msg, "
                f"fused {self.kernel['batched_us_per_msg']:.2f} us/msg "
                f"({self.kernel['speedup']:.2f}x)",
            ]
        return "\n".join(lines) + self.failed_bounds()


def run_batchbench(quick: bool = False) -> BatchBenchResult:
    """Run the full (or quick) benchmark; never raises on perf failure.

    ``quick`` shrinks op counts and the K sweep for CI smoke runs and
    is bounded by :data:`QUICK_FLOOR` instead of :data:`FLOOR`.  The floor
    applies to the *better* of the two estimators (min-of-rounds and
    paired median) -- on a drifting clock either one alone can be
    unlucky, but a real regression drags both down.
    """
    ks = _QUICK_KS if quick else DEFAULT_KS
    rounds = _ROUNDS_QUICK if quick else _ROUNDS
    ops = _OPS_QUICK if quick else _OPS
    floor = QUICK_FLOOR if quick else FLOOR
    result = BatchBenchResult(quick=quick, ks=ks)
    result.workload = {
        "ops": ops,
        "clients": 4,
        "wave": 32,
        "records": 256,
        "value_size": 16,
        "rounds": rounds,
    }

    result.checks.update(
        _identity_checks(
            scenario_ops=60 if quick else 120,
            chaos_ops=60 if quick else 120,
        )
    )
    speedup = f"K=16 speedup >= {floor}x"
    if not result.ok:  # benchmarking divergent paths is meaningless
        result.checks[speedup] = at_least(None, floor)
        return result

    times: Dict[int, List[float]] = {k: [] for k in ks}
    for _ in range(rounds):
        for k in ks:  # interleaved: every K samples every clock window
            times[k].append(_ycsb_a_pump(k, ops=ops))

    base_best = min(times[1])
    for k in ks:
        best = min(times[k])
        paired = [t1 / tk for t1, tk in zip(times[1], times[k])]
        result.per_k[k] = {
            "best_ops_per_s": ops / best,
            "min_speedup": base_best / best,
            "median_paired": statistics.median(paired),
        }

    result.kernel = _kernel_bench(repeats=2 if quick else 5)
    k16 = result.per_k[16]
    result.checks[speedup] = at_least(
        max(k16["min_speedup"], k16["median_paired"]), floor
    )
    return result
