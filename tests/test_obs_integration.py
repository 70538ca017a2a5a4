"""End-to-end observability: live client/server traces, wired metrics, CLI."""

import pytest

from repro.core.client import PrecursorClient
from repro.core.server import PrecursorServer
from repro.obs import ObsContext, lint_prometheus, prometheus_text
from repro.rdma.fabric import Fabric


@pytest.fixture()
def pair():
    server = PrecursorServer(fabric=Fabric())
    return server, PrecursorClient(server)


class TestLiveTraces:
    def test_get_trace_stage_sequence(self, pair):
        server, client = pair
        client.put(b"k", b"v" * 32)
        client.get(b"k")
        trace = client.obs.tracer.last
        assert trace.op == "get"
        assert trace.stage_names() == [
            "client.seal_request",
            "client.rdma_write",
            "server.unseal_control",
            "server.table_lookup",
            "server.seal_reply",
            "server.reply_write",
            "client.open_response",
            "client.verify_decrypt",
        ]

    def test_stages_tile_end_to_end_latency(self, pair):
        server, client = pair
        client.put(b"k", b"v" * 32)
        for op in ("put", "get", "delete"):
            getattr(client, op)(*((b"k",) if op != "put" else (b"k", b"x")))
            trace = client.obs.tracer.last
            assert trace.op == op
            tops = trace.top_level_stages()
            assert sum(s.duration_ns for s in tops) == trace.total_ns
            assert len(trace.stage_names()) >= 5

    def test_put_and_delete_stage_sequences(self, pair):
        server, client = pair
        client.put(b"k", b"v")
        put_trace = client.obs.tracer.last
        assert put_trace.stage_names() == [
            "client.encrypt_payload",
            "client.seal_request",
            "client.rdma_write",
            "server.unseal_control",
            "server.payload_store",
            "server.table_update",
            "server.seal_reply",
            "server.reply_write",
            "client.open_response",
        ]
        client.delete(b"k")
        assert "server.table_update" in client.obs.tracer.last.stage_names()

    def test_trace_disabled(self):
        server = PrecursorServer(fabric=Fabric())
        client = PrecursorClient(server, trace_ops=False)
        client.put(b"k", b"v")
        assert client.obs.tracer.finished == []

    def test_failed_get_aborts_trace(self, pair):
        server, client = pair
        from repro.errors import PrecursorError

        with pytest.raises(PrecursorError):
            client.get(b"missing")
        tracer = client.obs.tracer
        assert tracer.aborted_total >= 1
        assert tracer.current is None  # error path left no dangling trace
        client.put(b"k", b"v")  # and tracing still works afterwards
        assert client.get(b"k") == b"v"

    def test_explicit_obs_context_shared(self):
        obs = ObsContext.create()
        server = PrecursorServer(fabric=Fabric(), obs=obs)
        client = PrecursorClient(server, obs=obs)
        client.put(b"k", b"v")
        assert obs.tracer.last.op == "put"


class TestWiredMetrics:
    def test_server_counters(self, pair):
        server, client = pair
        client.put(b"a", b"1")
        client.put(b"b", b"2")
        client.get(b"a")
        reg = server.obs.registry
        assert reg.get("server_requests_total", {"op": "put"}).value == 2
        assert reg.get("server_requests_total", {"op": "get"}).value == 1
        assert reg.get("rdma_bytes_total").value > 0
        assert reg.get("sgx_ecalls_total", {"enclave": "precursor"}).value > 0
        assert reg.get("enclave_trusted_bytes", {"enclave": "precursor"}).value > 0
        hist = reg.get("server_handle_ns")
        assert hist.count == 3

    def test_prometheus_dump_lints(self, pair):
        server, client = pair
        client.put(b"k", b"v" * 100)
        client.get(b"k")
        text = prometheus_text(server.obs.registry)
        assert lint_prometheus(text) == []

    def test_fabric_exposition_is_pinned(self, fail_next_post):
        # Three puts, three gets and one injected fault, exported before
        # the fabric bound its metric handles once per verb: the lines
        # must not move.
        fabric = Fabric()
        server = PrecursorServer(fabric=fabric)
        client = PrecursorClient(server)
        _fixed_rdma_sequence(client, fabric, fail_next_post)
        assert _rdma_lines(server.obs.registry) == [
            "# HELP rdma_bytes_total payload bytes moved by the fabric",
            "# TYPE rdma_bytes_total counter",
            "rdma_bytes_total 1206",
            "# HELP rdma_verb_errors_total work requests completed in error",
            "# TYPE rdma_verb_errors_total counter",
            "rdma_verb_errors_total 1",
            "# HELP rdma_verbs_total work requests posted",
            "# TYPE rdma_verbs_total counter",
            'rdma_verbs_total{verb="rdma_write"} 19',
        ]

    def test_fabric_rebind_counts_only_in_the_new_registry(self):
        from repro.obs import MetricsRegistry

        fabric = Fabric()
        server = PrecursorServer(fabric=fabric)
        client = PrecursorClient(server)
        client.put(b"k", b"v")
        first = server.obs.registry
        before = _rdma_lines(first)
        second = MetricsRegistry()
        fabric.bind_obs(second)
        client.put(b"k", b"w")
        client.get(b"k")
        assert _rdma_lines(first) == before
        assert second.get("rdma_verbs_total", {"verb": "rdma_write"}).value == 6
        assert second.get("rdma_bytes_total").value > 0
        assert second.get("rdma_verb_errors_total") is None

    def test_epc_cache_binding(self):
        from repro.obs import MetricsRegistry
        from repro.sgx import EpcCache

        reg = MetricsRegistry()
        cache = EpcCache(capacity_pages=2)
        cache.bind_obs(reg)
        cache.touch(1)
        cache.touch(2)
        cache.touch(3)  # fault + eviction
        cache.touch(3)  # hit
        assert reg.get("epc_faults_total").value == 3
        assert reg.get("epc_hits_total").value == 1
        assert reg.get("epc_evictions_total").value == 1
        assert reg.get("epc_resident_pages").value == 2

    def test_simulator_binding(self):
        from repro.obs import MetricsRegistry
        from repro.sim import Simulator

        reg = MetricsRegistry()
        sim = Simulator()
        sim.bind_obs(reg)
        sim.schedule(10, lambda: None)
        sim.schedule(20, lambda: None)
        sim.run()
        assert reg.get("sim_clock_ns").value == 20
        assert reg.get("sim_events_total").value == 2

    def test_simulation_run_exports_metrics(self):
        from repro.bench.simulation import SimulationConfig, simulate
        from repro.ycsb.workload import WorkloadSpec

        obs = ObsContext.create()
        result = simulate(
            SimulationConfig(
                system="precursor",
                workload=WorkloadSpec(
                    name="obs-smoke", read_fraction=1.0, value_size=32
                ),
                clients=4,
                duration_ms=2.0,
                warmup_ms=0.5,
                bounded_latency=True,
            ),
            obs=obs,
        )
        assert result.latency.bounded
        reg = obs.registry
        assert reg.get("sim_operations_total", {"system": "precursor"}).value == result.operations
        assert reg.get("nic_transfers_total", {"nic": "client"}).value > 0
        assert reg.get("nic_bytes_total", {"nic": "server"}).value > 0
        assert reg.get("sim_events_total").value > 0
        assert lint_prometheus(prometheus_text(reg)) == []


def _fixed_rdma_sequence(client, fabric, fail_next_post):
    from repro.errors import PrecursorError

    for i in range(3):
        client.put(b"key-%d" % i, b"v" * (16 * i + 5))
    for i in (0, 2, 1):
        client.get(b"key-%d" % i)
    fail_next_post(fabric)
    with pytest.raises(PrecursorError):
        client.put(b"key-9", b"lost")


def _rdma_lines(registry):
    return [
        line
        for line in prometheus_text(registry).splitlines()
        if "rdma_" in line
    ]


class TestCli:
    def test_trace_command(self, capsys):
        from repro.cli import main

        assert main(["trace", "--value-size", "64"]) == 0
        out = capsys.readouterr().out
        assert "client.seal_request" in out
        assert "end-to-end" in out

    def test_trace_json_command(self, capsys):
        import json

        from repro.cli import main

        assert main(["trace", "--op", "put", "--json"]) == 0
        line = capsys.readouterr().out.strip()
        record = json.loads(line)
        assert record["op"] == "put"
        assert any(s["name"] == "server.table_update" for s in record["stages"])

    def test_metrics_command(self, capsys):
        from repro.cli import main

        assert main(["metrics", "--ops", "4"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE server_requests_total counter" in out
        assert lint_prometheus(out) == []

    def test_trace_out_dir(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace", "--json", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "trace.jsonl").exists()
        assert main(["metrics", "--ops", "2", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "metrics.prom").exists()


class TestFig8ThroughObs:
    def test_breakdown_comes_from_spans(self):
        from repro.bench.experiments import FIG8_SIZES, run_fig8
        from repro.obs import ManualClock, Tracer

        result = run_fig8()
        # Re-record the traces directly and check the figure matches them.
        from repro.bench.calibration import Calibration
        from repro.bench.experiments import fig8_traces
        from repro.obs import stage_breakdown

        tracer = Tracer(clock=ManualClock())
        fig8_traces(Calibration(), tracer)
        assert len(tracer.finished) == 2 * len(FIG8_SIZES)
        groups = stage_breakdown(tracer.finished, group_by=("system", "value_size"))
        for i, size in enumerate(FIG8_SIZES):
            assert result.precursor_server_us[i] == pytest.approx(
                groups[("precursor", size)]["server"] / 1000.0
            )
            assert result.shieldstore_network_us[i] == pytest.approx(
                groups[("shieldstore", size)]["network"] / 1000.0
            )
        # Every analytic trace tiles exactly: server + network == total.
        for trace in tracer.finished:
            assert sum(
                s.duration_ns for s in trace.top_level_stages()
            ) == trace.total_ns
