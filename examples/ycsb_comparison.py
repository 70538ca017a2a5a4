#!/usr/bin/env python3
"""Run a small YCSB workload on all three systems, functionally and simulated.

Part 1 drives *real* requests (real Salsa20/AES-GCM/CMAC, real ring
buffers, real Merkle tree) through Precursor, its server-encryption
variant and ShieldStore, then compares server-side work counters -- the
structural reason Precursor wins.

Part 2 runs the calibrated discrete-event simulation of the paper's
testbed (50 clients, 12 server threads) and prints the Figure-4-style
throughput rows.

Run:  python examples/ycsb_comparison.py
"""

from repro import make_pair
from repro.baselines.shieldstore import (
    ShieldStoreClient,
    ShieldStoreConfig,
    ShieldStoreServer,
)
from repro.bench.simulation import SimulationConfig, simulate
from repro.ycsb import WORKLOAD_A, WorkloadDriver, WorkloadSpec


def functional_comparison() -> None:
    spec = WorkloadSpec(
        name="demo", read_fraction=0.5, record_count=80, value_size=64
    )
    print("=== functional run: 80 records, 300 mixed ops, 64 B values ===")

    precursor_server, precursor_client = make_pair(seed=1)
    se_server, se_client = make_pair(seed=1, server_encryption=True)
    ss_server = ShieldStoreServer(config=ShieldStoreConfig(num_buckets=64))
    ss_client = ShieldStoreClient(ss_server)

    for name, client in (
        ("precursor", precursor_client),
        ("precursor-se", se_client),
        ("shieldstore", ss_client),
    ):
        driver = WorkloadDriver(client, spec, seed=1)
        driver.load()
        result = driver.run(300)
        print(f"  {name:13s} {result.operations} ops, "
              f"{result.reads} reads / {result.updates} updates, "
              f"{result.ops_per_second:,.0f} ops/s wall-clock (pure Python)")

    print("\n  server-side cryptographic work for the same workload:")
    print("  precursor     payload bytes en/decrypted in enclave: 0")
    print(f"  precursor-se  payload bytes en/decrypted in enclave: "
          f"{se_server.enclave_crypto_bytes:,}")
    print(f"  shieldstore   bucket-scan bytes decrypted: "
          f"{ss_server.stats.scan_decrypted_bytes:,}; "
          f"Merkle hashes: {ss_server.hash_invocations:,}")


def simulated_comparison() -> None:
    print("\n=== simulated testbed (50 clients, 12 threads, 32 B, YCSB A) ===")
    for system in ("precursor", "precursor-se", "shieldstore"):
        result = simulate(
            SimulationConfig(
                system=system,
                workload=WORKLOAD_A,
                duration_ms=25,
                warmup_ms=5,
            )
        )
        summary = result.latency.summary()
        print(f"  {system:13s} {result.kops:7,.0f} Kops/s   "
              f"p50 {summary['p50_us']:6.1f} us   "
              f"p99 {summary['p99_us']:6.1f} us")
    print("\n  (paper Figure 4, 50% read: Precursor 849, "
          "server-encryption 631, ShieldStore 103 Kops/s)")


def main() -> None:
    functional_comparison()
    simulated_comparison()


if __name__ == "__main__":
    main()
