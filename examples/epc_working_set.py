#!/usr/bin/env python3
"""Table-1-style EPC working-set census as the store grows.

Uses the sgx-perf-style tracer to watch both systems' trusted memory while
keys are inserted.  Precursor's enclave grows only with metadata (92
nominal bytes per table slot); ShieldStore commits its full structure
(~68 MiB) before the first insert.

Run:  python examples/epc_working_set.py
"""

from repro.baselines.shieldstore import ShieldStoreConfig, ShieldStoreServer
from repro.core import PrecursorClient, PrecursorServer
from repro.sgx import EpcModel, measure_working_set
from repro.ycsb import make_value
from repro.ycsb.generator import make_key


def main() -> None:
    checkpoints = (0, 1, 1_000, 10_000, 50_000)

    print("=== Precursor ===")
    server = PrecursorServer()
    server.start()
    report = measure_working_set(server.enclave, "precursor", 0)
    print(f"  {report}")
    PrecursorClient(server, client_id=1)  # admits client 1 for warm_load
    inserted = 0
    value = make_value(0, 32)
    for checkpoint in checkpoints[1:]:
        server.warm_load(
            ((make_key(i), value) for i in range(inserted, checkpoint)),
            client_id=1,
        )
        inserted = checkpoint
        report = measure_working_set(server.enclave, "precursor", checkpoint)
        print(f"  {report}")

    print("\n=== ShieldStore ===")
    shieldstore = ShieldStoreServer(
        config=ShieldStoreConfig(num_buckets=16_384, real_crypto=False)
    )
    inserted = 0
    for checkpoint in checkpoints:
        for i in range(inserted, checkpoint):
            shieldstore.put(make_key(i), value)
        inserted = checkpoint
        report = measure_working_set(
            shieldstore.enclave, "shieldstore", checkpoint
        )
        print(f"  {report}")

    epc = EpcModel()
    print(f"\nusable EPC: {epc.usable_pages} pages "
          f"({epc.usable_bytes / 2**20:.0f} MiB)")
    print("Precursor grows with keys but needs ~350x fewer trusted pages at "
          "50 k keys;\nShieldStore starts at ~73% of the whole EPC before "
          "storing anything.")


if __name__ == "__main__":
    main()
