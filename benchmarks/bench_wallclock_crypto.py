"""Wall-clock crypto engine benchmark: reference vs fast kernels.

Unlike the figure benchmarks (which replay the paper's *modelled*
AES-NI-class numbers), this suite measures the repo's real pure-Python
primitives under both crypto engines and asserts the optimised kernels
actually deliver: cross-engine parity must hold, and the fast engine
must beat the floors the CI smoke job enforces.

Set ``REPRO_BENCH_QUICK=1`` for the shortened CI variant.
"""

from conftest import quick_mode

from repro.bench.artifacts import write_artifact
from repro.bench.cryptobench import run_cryptobench
from repro.crypto.engine import get_engine


def bench_cryptobench_engines(benchmark, report_sink):
    quick = quick_mode()
    result = benchmark.pedantic(
        run_cryptobench, kwargs={"quick": quick}, rounds=1, iterations=1,
    )
    report_sink("cryptobench", result.report())
    write_artifact("cryptobench", result, quick=quick)
    assert not result.parity_failures, result.parity_failures
    assert not result.floor_failures, result.floor_failures


def _payload_once(engine, data):
    ct = engine.salsa20_encrypt(b"k" * 32, b"n" * 8, data)
    engine.aes_cmac(b"m" * 32, ct)


def bench_fast_payload_4kib(benchmark):
    data = b"x" * (512 if quick_mode() else 4096)
    eng = get_engine("fast")
    _payload_once(eng, data)  # build tables outside the timed region
    benchmark(_payload_once, eng, data)


def bench_reference_payload_4kib(benchmark):
    data = b"x" * (512 if quick_mode() else 4096)
    benchmark(_payload_once, get_engine("reference"), data)


def bench_fast_gcm_seal_4kib(benchmark):
    data = b"x" * (512 if quick_mode() else 4096)
    gcm = get_engine("fast").gcm(b"k" * 16)
    gcm.seal(b"\x00" * 12, data)
    benchmark(gcm.seal, b"\x00" * 12, data)
