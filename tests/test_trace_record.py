"""One request, one record: its stages and its hops live in one trace.

A request's record answers both "where did the time go" (top-level
stages that tile its latency) and "which machines, and why" (hops).  A
routed op that recovers from a dropped frame retires exactly one record
holding both; a direct client's failed op is kept with its error status
and left out of the stage tables.
"""

import pytest

from repro.core.client import PrecursorClient
from repro.core.server import PrecursorServer
from repro.crypto.keys import KeyGenerator
from repro.errors import KeyNotFoundError
from repro.faults import run_health
from repro.faults.engine import FaultEngine
from repro.faults.schedule import FaultSchedule
from repro.obs import ObsContext, stage_breakdown, stage_latency_table
from repro.rdma.fabric import Fabric
from repro.shard import ClusterSpec

#: The hot-shard breach shape of ``tests/test_health_cli.py``.
HOT = dict(
    seed=11, cluster=ClusterSpec(shards=2, replicas=1), ops=240,
    hot_shard="auto", schedule="drop:0.08",
)


def _tiles(record: dict) -> bool:
    tops = [s for s in record["stages"] if s["depth"] == 0]
    return bool(tops) and sum(
        s["end_ns"] - s["start_ns"] for s in tops
    ) == record["total_ns"]


class TestRoutedRecord:
    def test_recovered_get_retires_one_record_with_stages_and_hops(self):
        seed, spec = HOT["seed"], HOT["cluster"]
        obs = ObsContext.create()  # the wall clock: stages take real time
        cluster = spec.build(seed, obs)
        client = spec.router(
            cluster, client_id=1, keygen=KeyGenerator(seed), max_retries=4
        )
        FaultEngine(FaultSchedule.parse(HOT["schedule"]), seed, obs=obs).install(
            fabrics=[cluster.server(n).fabric for n in cluster.shards],
            clients=list(client.sessions.values()),
        )
        tracer = obs.tracer
        keys = [b"key-%03d" % i for i in range(16)]
        for key in keys:
            client.put(key, b"v" * 48)
        recovered = None
        for key in keys * 4:
            before = tracer.finished_total
            assert client.get(key) == b"v" * 48
            assert tracer.finished_total == before + 1  # one record per op
            record = tracer.last
            if {"retry", "reconnect"} & set(record.hop_kinds()):
                recovered = record
                break
        assert recovered is not None, "the seeded drops never hit a get"
        assert recovered.op == "get" and recovered.status == "ok"
        kinds = recovered.hop_kinds()
        assert "route" in kinds and "server" in kinds
        assert kinds.index("route") < kinds.index("server")
        tops = recovered.top_level_stages()
        assert sum(s.duration_ns for s in tops) == recovered.total_ns > 0
        assert "client.verify_decrypt" in recovered.stage_names()

    # 600 ops retire more records than the tracer keeps: the pick is
    # still the run's first affected record.
    @pytest.mark.parametrize("ops", [240, 600])
    def test_health_affected_trace_carries_stages(self, ops):
        trace = run_health(**dict(HOT, ops=ops)).affected_trace
        assert (trace["trace_id"], trace["op"], trace["status"]) == (
            "c1-6", "get", "ok"
        )
        assert [hop["kind"] for hop in trace["hops"]] == [
            "route", "retry", "reconnect", "server"
        ]
        assert _tiles(trace)


class TestFailedRecord:
    def test_failed_get_is_kept_and_left_out_of_stage_tables(self):
        server = PrecursorServer(fabric=Fabric())
        client = PrecursorClient(server)
        tracer = client.obs.tracer
        client.put(b"k", b"v")
        ok = tracer.last
        with pytest.raises(KeyNotFoundError):
            client.get(b"missing")
        assert tracer.current is None
        failed = tracer.last
        assert failed.op == "get"
        assert failed.status == "error:KeyNotFoundError"
        assert failed.hop_kinds() == ["server"]  # a direct client's hop
        assert tracer.aborted_total == 1
        assert stage_breakdown(tracer.finished) == stage_breakdown([ok])
        assert stage_breakdown([failed]) == {}
        table = stage_latency_table([failed], title="failed only")
        assert table == "failed only\n(no traces recorded)"
