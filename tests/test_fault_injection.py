"""Transport fault injection: failures surface loudly, never corrupt."""

import pytest

from repro.core import PrecursorClient, PrecursorServer
from repro.errors import AccessError, ConfigurationError, PrecursorError
from repro.rdma.qp import QpState
from repro.ycsb import WorkloadDriver, WorkloadSpec


class TestFabricFaultInjection:
    def test_injected_fault_fails_the_op_and_errors_the_qp(
        self, fail_next_post
    ):
        server = PrecursorServer()
        client = PrecursorClient(server, client_id=1)
        client.put(b"before", b"ok")
        fail_next_post(server.fabric)
        with pytest.raises((AccessError, PrecursorError)):
            client.put(b"during", b"lost")
        assert client._qp.state is QpState.ERR

    def test_fault_produces_error_completion(self, fail_next_post):
        server = PrecursorServer()
        client = PrecursorClient(server, client_id=1)
        fail_next_post(server.fabric)
        with pytest.raises(AccessError, match="injected transport fault"):
            client.put(b"k", b"v")
        registry = server.obs.registry
        assert registry.get("rdma_verb_errors_total").value == 1

    def test_failed_write_never_half_applies(self, fail_next_post):
        """A request lost on the wire must leave the store untouched."""
        server = PrecursorServer()
        client = PrecursorClient(server, client_id=1)
        client.put(b"k", b"v1")
        fail_next_post(server.fabric)
        try:
            client.put(b"k", b"v2")
        except (AccessError, PrecursorError):
            pass
        observer = PrecursorClient(server, client_id=2)
        assert observer.get(b"k") == b"v1"

    def test_other_clients_unaffected(self, fail_next_post):
        server = PrecursorServer()
        victim = PrecursorClient(server, client_id=1)
        healthy = PrecursorClient(server, client_id=2)
        fail_next_post(server.fabric)
        try:
            victim.put(b"k", b"v")
        except (AccessError, PrecursorError):
            pass
        healthy.put(b"k2", b"fine")
        assert healthy.get(b"k2") == b"fine"

    def test_unknown_fault_action_rejected(self):
        server = PrecursorServer()
        client = PrecursorClient(server, client_id=1)
        server.fabric.install_fault_hook(lambda qp, wr: "melt")
        with pytest.raises(ConfigurationError, match="melt"):
            client.put(b"k", b"v")


class TestStrandedQpRecovery:
    """A QP left in ERR must not strand the session forever."""

    def test_qp_stays_stranded_without_reconnect(self, fail_next_post):
        # The failure mode this class pins: after a fault the QP is ERR
        # and *every* subsequent op fails until somebody recovers it.
        server = PrecursorServer()
        client = PrecursorClient(server, client_id=1)
        fail_next_post(server.fabric)
        with pytest.raises((AccessError, PrecursorError)):
            client.put(b"k", b"v")
        assert client._qp.state is QpState.ERR
        with pytest.raises((AccessError, PrecursorError)):
            client.put(b"k2", b"v2")  # still dead: no self-healing

    def test_reconnect_restores_service(self, fail_next_post):
        server = PrecursorServer()
        client = PrecursorClient(server, client_id=1)
        client.put(b"before", b"ok")
        fail_next_post(server.fabric)
        with pytest.raises((AccessError, PrecursorError)):
            client.put(b"during", b"lost")
        assert client._qp.state is QpState.ERR
        client.reconnect()
        assert client._qp.state is QpState.RTS
        client.put(b"after", b"recovered")
        assert client.get(b"after") == b"recovered"
        assert client.get(b"before") == b"ok"
        assert client.reconnects == 1

    def test_retry_budget_recovers_transparently(self, fail_next_post):
        # With a retry budget the stranded-QP window is invisible to the
        # caller: the op that hit the fault reconnects and completes.
        server = PrecursorServer()
        client = PrecursorClient(server, client_id=1, max_retries=2)
        client.put(b"before", b"ok")
        fail_next_post(server.fabric)
        client.put(b"during", b"kept")  # must NOT raise
        assert client._qp.state is QpState.RTS
        assert client.retries >= 1
        assert client.get(b"during") == b"kept"


class TestDriverLatencyRecording:
    def test_driver_records_per_op_latency(self):
        from repro.core import make_pair

        _, client = make_pair(seed=21)
        spec = WorkloadSpec(
            name="lat", read_fraction=0.5, record_count=10, value_size=16
        )
        driver = WorkloadDriver(client, spec, seed=21)
        driver.load()
        result = driver.run(40)
        assert len(result.latency) == 40
        assert result.latency.percentile(99) >= result.latency.percentile(50)
        summary = result.latency.summary()
        assert summary["p50_us"] > 0
