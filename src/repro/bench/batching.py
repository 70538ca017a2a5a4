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

A behavioural-identity self-check runs first: the steady traffic
scenario must produce **byte-identical** report JSON at K=1 and K=16,
and a seeded chaos run at K=1 must verify clean.  A benchmark of two
windows that disagree on bytes would be meaningless, so identity failure
fails the whole run (exit code 1), exactly like cryptobench's parity
gate.

The report also enforces a floor on the K=16 speedup (:data:`FLOOR`,
1.3x on the full run) so CI catches a batching performance regression
the way it catches a functional one.  Quick runs shrink op counts below
the noise floor of a reliable ratio, so they gate at
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
    from repro.core.protocol import OpCode, Request
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

    def stage(client, opcode, key):
        # Stage one sealed request without pumping the server: the
        # public put()/get() would synchronously drain the ring after
        # every op, which is exactly the K=1 behaviour we are comparing
        # *against*.
        if opcode is OpCode.PUT:
            op_key = client.keygen.operation_key()
            payload = client.provider.payload_encrypt(op_key, value)
            control = client._next_control(OpCode.PUT, key, op_key)
            req = client._seal_control(control)
            req = Request(
                client_id=req.client_id,
                sealed_control=req.sealed_control,
                payload=payload,
                reply_credit=req.reply_credit,
            )
        else:
            control = client._next_control(OpCode.GET, key)
            req = client._seal_control(control)
        client._submit(req)
        return control.oid

    for i in range(records):
        client = sessions[i % clients]
        oid = stage(client, OpCode.PUT, b"key-%05d" % i)
        server.process_pending()
        client._open_response(client._await_response(), oid)

    rng = random.Random(seed)
    keys = [
        b"key-%05d" % int(records * (rng.random() ** 3)) for _ in range(ops)
    ]
    writes = [rng.random() < 0.5 for _ in range(ops)]

    pump_s = 0.0
    i = 0
    while i < ops:
        staged: List[Tuple[object, List[int]]] = [(c, []) for c in sessions]
        for _ in range(wave * clients):
            if i >= ops:
                break
            idx = i % clients
            client = sessions[idx]
            opcode = OpCode.PUT if writes[i] else OpCode.GET
            staged[idx][1].append(stage(client, opcode, keys[i]))
            i += 1
        t0 = time.perf_counter()
        server.process_pending()
        pump_s += time.perf_counter() - t0
        for client, oids in staged:
            for oid in oids:
                client._open_response(client._await_response(), oid)
    return pump_s


def _identity_checks(scenario_ops: int, chaos_ops: int) -> List[str]:
    """Byte-identity gate: K must not change observable behaviour.

    Returns a list of human-readable failures (empty = all held).
    """
    import hashlib

    from repro.faults.harness import run_chaos
    from repro.traffic.scenarios import run_scenario

    failures: List[str] = []

    digests = {}
    for k in (1, 16):
        report = run_scenario(
            "steady",
            seed=11,
            shards=2,
            ops=scenario_ops,
            slo=_LOOSE_SLO,
            ecall_batch=k,
        )
        blob = json.dumps(report.to_dict(), sort_keys=True).encode()
        digests[k] = hashlib.sha256(blob).hexdigest()
    if digests[16] != digests[1]:
        failures.append(
            "steady scenario report diverged at K=16: "
            f"{digests[16][:16]} != K=1 {digests[1][:16]}"
        )

    if not run_chaos(7, _CHAOS_SCHEDULE, ops=chaos_ops, ecall_batch=1).ok:
        failures.append("chaos verification failed during identity check")
    return failures


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
class BatchBenchResult:
    """Everything one benchmark run measured, plus the pass/fail verdict."""

    quick: bool
    floor: float
    ks: Tuple[int, ...]
    #: Workload shape (ops, clients, wave, records, value_size, rounds).
    workload: Dict[str, int] = field(default_factory=dict)
    #: ``per_k[K] = {"best_ops_per_s", "min_speedup", "median_paired"}``
    per_k: Dict[int, Dict[str, float]] = field(default_factory=dict)
    #: Scalar-vs-fused transport-open kernel numbers.
    kernel: Dict[str, float] = field(default_factory=dict)
    identity_failures: List[str] = field(default_factory=list)
    floor_failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when identity held and the K=16 floor was met."""
        return not self.identity_failures and not self.floor_failures

    @property
    def exit_code(self) -> int:
        """0 on success, 1 on identity or floor failure."""
        return 0 if self.ok else 1

    def to_dict(self) -> dict:
        """JSON-ready form (written to ``BENCH_batching.json``)."""
        return {
            "benchmark": "batchbench",
            "quick": self.quick,
            "floor": self.floor,
            "ks": list(self.ks),
            "workload": dict(self.workload),
            "per_k": {
                str(k): {name: round(v, 4) for name, v in vals.items()}
                for k, vals in self.per_k.items()
            },
            "kernel_transport_open": {
                name: round(v, 4) for name, v in self.kernel.items()
            },
            "identity_failures": self.identity_failures,
            "floor_failures": self.floor_failures,
            "ok": self.ok,
        }

    def report(self) -> str:
        """Human-readable table."""
        lines = [
            "Request pipeline benchmark: K-frame drain vs K=1"
            + ("  [quick]" if self.quick else ""),
            "=" * 70,
            "identity self-check (K=1 vs K=16 reports + chaos): "
            + ("OK (byte-identical)" if not self.identity_failures
               else f"FAILED: {self.identity_failures}"),
            "",
            f"workload: YCSB-A staged waves, "
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
        lines.append(
            "verdict: "
            + ("OK" if self.ok
               else f"FAIL (floor {self.floor}x at K=16): "
                    f"{self.identity_failures + self.floor_failures}")
        )
        return "\n".join(lines)


def run_batchbench(quick: bool = False) -> BatchBenchResult:
    """Run the full (or quick) benchmark; never raises on perf failure.

    ``quick`` shrinks op counts and the K sweep for CI smoke runs and
    gates on :data:`QUICK_FLOOR` instead of :data:`FLOOR`.  The floor
    applies to the *better* of the two estimators (min-of-rounds and
    paired median) -- on a drifting clock either one alone can be
    unlucky, but a real regression drags both down.
    """
    ks = _QUICK_KS if quick else DEFAULT_KS
    rounds = _ROUNDS_QUICK if quick else _ROUNDS
    ops = _OPS_QUICK if quick else _OPS
    floor = QUICK_FLOOR if quick else FLOOR
    result = BatchBenchResult(quick=quick, floor=floor, ks=ks)
    result.workload = {
        "ops": ops,
        "clients": 4,
        "wave": 32,
        "records": 256,
        "value_size": 16,
        "rounds": rounds,
    }

    result.identity_failures = _identity_checks(
        scenario_ops=60 if quick else 120,
        chaos_ops=60 if quick else 120,
    )
    if result.identity_failures:
        return result  # benchmarking divergent paths is meaningless

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

    if 16 in result.per_k:
        gate = result.per_k[16]
        achieved = max(gate["min_speedup"], gate["median_paired"])
        if achieved < floor:
            result.floor_failures.append(
                f"K=16 speedup {achieved:.2f}x < floor {floor}x "
                f"(min {gate['min_speedup']:.2f}x, "
                f"paired {gate['median_paired']:.2f}x)"
            )
    return result
