"""Enclave model: allocator accounting, ecall/ocall gates, transitions."""

import pytest

from repro.errors import EnclaveError
from repro.obs.metrics import MetricsRegistry
from repro.sgx import Enclave, TransitionCosts, TrustedAllocator
from repro.sgx.epc import PAGE_SIZE
from repro.sgx.transitions import TransitionAccounting


class TestTrustedAllocator:
    def test_bytes_and_pages(self):
        alloc = TrustedAllocator()
        alloc.allocate(100, "a")
        assert alloc.total_bytes == 100
        assert alloc.pages == 1  # rounds up per tag

    def test_per_tag_page_rounding(self):
        alloc = TrustedAllocator()
        alloc.allocate(1, "a")
        alloc.allocate(1, "b")
        assert alloc.pages == 2  # distinct sections occupy distinct pages

    def test_large_allocation_pages(self):
        alloc = TrustedAllocator()
        alloc.allocate(10 * PAGE_SIZE, "heap")
        assert alloc.pages == 10

    def test_free(self):
        alloc = TrustedAllocator()
        alloc.allocate(8192, "heap")
        alloc.free(4096, "heap")
        assert alloc.bytes_for("heap") == 4096
        assert alloc.pages == 1

    def test_overfree_rejected(self):
        alloc = TrustedAllocator()
        alloc.allocate(10, "x")
        with pytest.raises(EnclaveError):
            alloc.free(11, "x")
        with pytest.raises(EnclaveError):
            alloc.free(1, "unknown-tag")

    def test_negative_allocation_rejected(self):
        with pytest.raises(EnclaveError):
            TrustedAllocator().allocate(-1, "x")

    def test_tags_snapshot(self):
        alloc = TrustedAllocator()
        alloc.allocate(1, "a")
        alloc.allocate(2, "b")
        assert alloc.tags() == {"a": 1, "b": 2}


class TestEnclaveGates:
    def _enclave(self):
        enclave = Enclave("test", code_size_bytes=8192)
        enclave.register_ecall("double", lambda x: 2 * x)
        enclave.register_ocall("alloc", lambda n: f"allocated {n}")
        return enclave

    def test_ecall_runs_and_counts(self):
        enclave = self._enclave()
        assert enclave.ecall("double", 21) == 42
        assert enclave.transitions.ecalls == 1

    def test_unknown_ecall(self):
        with pytest.raises(EnclaveError):
            self._enclave().ecall("missing")

    def test_duplicate_registration_rejected(self):
        enclave = self._enclave()
        with pytest.raises(EnclaveError):
            enclave.register_ecall("double", lambda: None)
        with pytest.raises(EnclaveError):
            enclave.register_ocall("alloc", lambda: None)

    def test_ocall_only_from_inside(self):
        enclave = self._enclave()
        with pytest.raises(EnclaveError):
            enclave.ocall("alloc", 4096)

    def test_ocall_from_inside_counts(self):
        enclave = self._enclave()
        enclave.register_ecall(
            "needs_memory", lambda: enclave.ocall("alloc", 4096)
        )
        assert enclave.ecall("needs_memory") == "allocated 4096"
        assert enclave.transitions.ecalls == 1
        assert enclave.transitions.ocalls == 1

    def test_nested_ecall_rejected(self):
        enclave = self._enclave()
        enclave.register_ecall("nest", lambda: enclave.ecall("double", 1))
        with pytest.raises(EnclaveError):
            enclave.ecall("nest")

    def test_inside_flag(self):
        enclave = self._enclave()
        seen = []
        enclave.register_ecall("probe", lambda: seen.append(enclave.inside))
        assert not enclave.inside
        enclave.ecall("probe")
        assert seen == [True]
        assert not enclave.inside

    def test_inside_restored_after_exception(self):
        enclave = self._enclave()

        def boom():
            raise ValueError("inside failure")

        enclave.register_ecall("boom", boom)
        with pytest.raises(ValueError):
            enclave.ecall("boom")
        assert not enclave.inside

    def test_measurement_is_stable_and_identity_bound(self):
        a = Enclave("kv", code_size_bytes=4096)
        b = Enclave("kv", code_size_bytes=4096)
        c = Enclave("kv", code_size_bytes=8192)
        assert a.measurement == b.measurement
        assert a.measurement != c.measurement


class TestTransitionAccounting:
    def test_cycle_totals(self):
        enclave = Enclave("t", code_size_bytes=4096)
        enclave.transitions.record_ecall()
        enclave.transitions.record_ocall()
        enclave.transitions.record_epc_fault(3)
        costs = TransitionCosts()
        expected = (
            costs.ecall_cycles + costs.ocall_cycles + 3 * costs.epc_fault_cycles
        )
        assert enclave.transitions.total_cycles() == expected

    def test_reset(self):
        enclave = Enclave("t", code_size_bytes=4096)
        enclave.transitions.record_ecall()
        enclave.transitions.reset()
        assert enclave.transitions.total_cycles() == 0

    def test_obs_counters_mirror_crossings(self):
        registry = MetricsRegistry()
        acct = TransitionAccounting()
        acct.bind_obs(registry)
        acct.record_ecall()
        acct.record_ecall()
        acct.record_ocall()
        assert registry.get("sgx_ecalls_total").value == 2
        assert registry.get("sgx_ocalls_total").value == 1
        # Monotonic exporter series survive an accounting reset.
        acct.reset()
        assert acct.ecalls == 0
        assert registry.get("sgx_ecalls_total").value == 2

    def test_paper_constants(self):
        """The paper's headline costs: ~13 K cycles per transition and
        ~20 K per EPC fault (§2.1)."""
        costs = TransitionCosts()
        assert costs.ecall_cycles == 13_000
        assert costs.ocall_cycles == 13_000
        assert costs.epc_fault_cycles == 20_000
