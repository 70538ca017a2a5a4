"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli fig4
    python -m repro.cli fig5 --quick
    python -m repro.cli all --quick --out bench_reports/

Each command prints the paper-style report (and optionally writes it to a
file); ``all`` runs every artifact in sequence.

Observability commands (see docs/OBSERVABILITY.md)::

    python -m repro.cli trace                # per-stage table for one get()
    python -m repro.cli trace --op put --json
    python -m repro.cli metrics              # Prometheus text exposition

Sharded-cluster command (see docs/SHARDING.md)::

    python -m repro.cli shard --shards 2 --workload b --ops 2000
    python -m repro.cli shard --shards 4 --workload a --json
    python -m repro.cli scaleout --quick     # simulated 1-8 shard curves

Crypto-benchmark command (see docs/PERFORMANCE.md)::

    python -m repro.cli cryptobench          # full run -> BENCH_crypto.json
    python -m repro.cli cryptobench --quick --floor 5   # CI smoke
    python -m repro.cli cryptobench --json

Batching benchmark (see docs/BATCHING.md)::

    python -m repro.cli batchbench           # full run -> BENCH_batching.json
    python -m repro.cli batchbench --quick --floor 1.05   # CI smoke
    python -m repro.cli batchbench --json

Fault-injection commands (see docs/FAULTS.md)::

    python -m repro.cli chaos --seed 7       # seeded chaos + verification
    python -m repro.cli chaos --seed 7 --schedule drop:0.1,enclave_crash:0.01
    python -m repro.cli chaos --shards 3 --schedule shard_death:0.02 --json
    python -m repro.cli faulttail --quick    # modelled retry-cost curves

Replication commands (see docs/REPLICATION.md)::

    python -m repro.cli replica --replicas 2             # failover chaos
    python -m repro.cli replica --ack-mode async --json  # detected losses
    python -m repro.cli replicate --quick                # modelled costs

Telemetry commands (see docs/OBSERVABILITY.md)::

    python -m repro.cli health                  # clean windowed SLO report
    python -m repro.cli health --slo 'latency:p99<500us'
    python -m repro.cli flightrec --out bench_reports  # breach -> JSON dump
    python -m repro.cli flightrec --load bench_reports/flightrec.json \\
        --trace c1-42                           # offline trace replay

Open-loop traffic commands (see docs/TRAFFIC.md)::

    python -m repro.cli traffic                          # steady scenario
    python -m repro.cli traffic --scenario flash-crowd --shards 2
    python -m repro.cli traffic --scenario multi-tenant-contention --json
    python -m repro.cli traffic --rate 3000 --slo 'latency:p99<10ms'
    python -m repro.cli loadknee --quick                 # knee smoke
    python -m repro.cli loadknee      # full run -> BENCH_traffic.json

Near-cache commands (see docs/CACHING.md)::

    python -m repro.cli nearcache --cache --offload      # cached scenario
    python -m repro.cli nearcache --cache --scenario hot-key-storm --json
    python -m repro.cli nearcachebench --quick           # cache smoke
    python -m repro.cli nearcachebench  # full run -> BENCH_nearcache.json

Autoscaler commands (see docs/AUTOSCALING.md)::

    python -m repro.cli autoscale                        # elastic flash crowd
    python -m repro.cli autoscale --max-shards 6 --json
    python -m repro.cli autoscale --policy 'scale-out:p99>1ms:for=2'
    python -m repro.cli chaos --shards 3 --replicas 1 --autoscale
    python -m repro.cli autoscalebench --quick           # elasticity smoke
    python -m repro.cli autoscalebench  # full run -> BENCH_autoscale.json
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import Callable, Dict

from repro.bench import experiments

__all__ = ["main"]

def _run_scaleout_runner(quick: bool = False):
    from repro.bench.scaleout import run_scaleout

    return run_scaleout(quick=quick)


def _run_faulttail_runner(quick: bool = False):
    from repro.bench.faulttail import run_faulttail

    return run_faulttail(quick=quick)


def _run_replicate_runner(quick: bool = False):
    from repro.bench.replicate import run_replication

    return run_replication(quick=quick)


def _run_loadknee_runner(quick: bool = False):
    from repro.bench.loadknee import run_loadknee

    return run_loadknee(quick=quick)


def _run_nearcachebench_runner(quick: bool = False):
    from repro.bench.nearcache import run_nearcachebench

    return run_nearcachebench(quick=quick)


def _run_autoscalebench_runner(quick: bool = False):
    from repro.bench.autoscale import run_autoscalebench

    return run_autoscalebench(quick=quick)


_RUNNERS: Dict[str, Callable] = {
    "fig1": experiments.run_fig1,
    "fig4": experiments.run_fig4,
    "fig5": experiments.run_fig5,
    "fig6": experiments.run_fig6,
    "fig7": experiments.run_fig7,
    "fig8": experiments.run_fig8,
    "table1": experiments.run_table1,
    "scaleout": _run_scaleout_runner,
    "faulttail": _run_faulttail_runner,
    "replicate": _run_replicate_runner,
    "loadknee": _run_loadknee_runner,
    "nearcachebench": _run_nearcachebench_runner,
    "autoscalebench": _run_autoscalebench_runner,
}

_DESCRIPTIONS = {
    "fig1": "crypto decrypt+encrypt throughput vs 40 Gbit RDMA line rate",
    "fig4": "throughput vs read ratio (YCSB mixes, 32 B, 50 clients)",
    "fig5": "throughput vs value size, read-only + update-mostly",
    "fig6": "read-only throughput vs client count (10-100)",
    "fig7": "get() latency CDFs incl. the EPC-paging run",
    "fig8": "get() latency breakdown: networking vs server processing",
    "table1": "EPC working set at 0/1/100k inserted keys",
    "scaleout": "throughput/latency + EPC working set vs shard count (1-8)",
    "faulttail": "get() tail latency vs transport fault rate (retry cost)",
    "replicate": "failover latency + acked-write loss vs replication "
    "ack mode",
    "loadknee": "SLO-bounded throughput knee + corrected-vs-uncorrected "
    "tails per shard topology",
    "nearcachebench": "near-cache + backup-read-offload knee shift, "
    "primary-GET shed and state-equivalence gates",
    "autoscalebench": "elastic-vs-static knee grid, flash-crowd SLO "
    "recovery, shard-ms dividend + zero-flapping gates",
}


def _run_one(
    name: str,
    quick: bool,
    out_dir: pathlib.Path = None,
    csv: bool = False,
) -> "tuple":
    """Run one registered artifact; returns ``(text, exit_code)``.

    Artifacts whose results carry gates (``loadknee``,
    ``nearcachebench``, ``autoscalebench``) surface them through
    ``exit_code``; everything else exits 0.
    """
    runner = _RUNNERS[name]
    if name in ("fig1", "fig8"):
        result = runner()  # analytic, no quick knob
    else:
        result = runner(quick=quick)
    text = result.report()
    if name == "replicate":
        # Like cryptobench: the full run refreshes the committed
        # measurement file, the quick run stays out of its way.
        from repro.bench.replicate import write_json

        json_name = (
            "BENCH_replication_quick.json" if quick
            else "BENCH_replication.json"
        )
        if out_dir is not None:
            json_path = out_dir / json_name
        elif quick:
            json_path = pathlib.Path("bench_reports") / json_name
        else:
            json_path = pathlib.Path(json_name)
        write_json(result, json_path)
        text += f"\n[measurements saved to {json_path}]"
    if name == "loadknee":
        from repro.bench.loadknee import write_json

        json_name = (
            "BENCH_traffic_quick.json" if quick else "BENCH_traffic.json"
        )
        if out_dir is not None:
            json_path = out_dir / json_name
        elif quick:
            json_path = pathlib.Path("bench_reports") / json_name
        else:
            json_path = pathlib.Path(json_name)
        write_json(result, json_path)
        text += f"\n[measurements saved to {json_path}]"
    if name == "nearcachebench":
        from repro.bench.nearcache import write_json

        json_name = (
            "BENCH_nearcache_quick.json" if quick
            else "BENCH_nearcache.json"
        )
        if out_dir is not None:
            json_path = out_dir / json_name
        elif quick:
            json_path = pathlib.Path("bench_reports") / json_name
        else:
            json_path = pathlib.Path(json_name)
        write_json(result, json_path)
        text += f"\n[measurements saved to {json_path}]"
    if name == "autoscalebench":
        from repro.bench.autoscale import write_json

        json_name = (
            "BENCH_autoscale_quick.json" if quick
            else "BENCH_autoscale.json"
        )
        if out_dir is not None:
            json_path = out_dir / json_name
        elif quick:
            json_path = pathlib.Path("bench_reports") / json_name
        else:
            json_path = pathlib.Path(json_name)
        write_json(result, json_path)
        text += f"\n[measurements saved to {json_path}]"
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")
        if csv:
            from repro.bench.export import to_csv

            (out_dir / f"{name}.csv").write_text(to_csv(result))
    return text, getattr(result, "exit_code", 0)


def _obs_workload(op: str, value_size: int, ops: int):
    """Run a small in-process workload; return (client, traced ops)."""
    from repro.core.client import PrecursorClient
    from repro.core.server import PrecursorServer
    from repro.rdma.fabric import Fabric

    server = PrecursorServer(fabric=Fabric())
    client = PrecursorClient(server)
    value = bytes(value_size)
    for i in range(ops):
        key = b"key-%04d" % i
        client.put(key, value)
        if op == "get":
            client.get(key)
        elif op == "delete":
            client.delete(key)
    return client


def run_trace(
    op: str = "get",
    value_size: int = 128,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> str:
    """One traced operation against an in-process server; render it."""
    from repro.obs.exporters import stage_latency_table, traces_to_json_lines

    client = _obs_workload(op, value_size, ops=1)
    traces = [t for t in client.obs.tracer.finished if t.op == op]
    if as_json:
        text = traces_to_json_lines(traces)
    else:
        text = stage_latency_table(
            traces, title=f"Per-stage latency: {op}({value_size} B value)"
        )
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "jsonl" if as_json else "txt"
        (out_dir / f"trace.{suffix}").write_text(text + "\n")
    return text


def run_metrics(
    op: str = "get",
    value_size: int = 128,
    ops: int = 32,
    out_dir: pathlib.Path = None,
) -> str:
    """Short in-process workload; dump the metrics registry."""
    from repro.obs.exporters import prometheus_text

    client = _obs_workload(op, value_size, ops=ops)
    text = prometheus_text(client.obs.registry)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.prom").write_text(text)
    return text.rstrip("\n")


def run_shard(
    shards: int = 2,
    workload: str = "b",
    ops: int = 1000,
    seed: int = 11,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> str:
    """Functional sharded run: real crypto, routing and live migration.

    Stands up ``shards`` servers behind a consistent-hash map, drives a
    YCSB mix through a :class:`~repro.shard.router.ShardedClient`, then
    joins one more shard live and re-reads a sample of keys through the
    (now stale) router to exercise the epoch-retry protocol.
    """
    import json
    from dataclasses import replace as dc_replace

    from repro.errors import ConfigurationError
    from repro.shard import ShardedCluster, ShardedClient
    from repro.ycsb.driver import WorkloadDriver
    from repro.ycsb.generator import make_key
    from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_B, WORKLOAD_C

    specs = {"a": WORKLOAD_A, "b": WORKLOAD_B, "c": WORKLOAD_C}
    if workload not in specs:
        raise ConfigurationError(
            f"unknown workload {workload!r} (expected one of: a, b, c)"
        )
    if not 1 <= shards <= 64:
        raise ConfigurationError(
            f"--shards must be in [1, 64], got {shards}"
        )
    if ops < 1:
        raise ConfigurationError(f"--ops must be positive, got {ops}")

    # Pure-Python crypto runs at a few hundred ops/s; keep the resident
    # set proportional to the request count so the command stays snappy.
    records = max(64, min(512, ops // 4))
    spec = dc_replace(specs[workload], record_count=records)

    cluster = ShardedCluster(shards=shards, seed=seed)
    client = ShardedClient(cluster, trace_ops=False)
    driver = WorkloadDriver(client, spec, seed=seed)
    driver.load()
    run = driver.run(ops)

    before_epoch = cluster.epoch
    report = cluster.add_shard()
    sample = [make_key(i, spec.key_size) for i in range(min(32, records))]
    for key in sample:
        client.get(key)

    payload = {
        "shards": shards,
        "workload": workload,
        "operations": run.operations,
        "reads": run.reads,
        "updates": run.updates,
        "misses": run.misses,
        "ops_per_second": round(run.ops_per_second, 1),
        "p50_us": round(run.latency.percentile(50) / 1000.0, 1),
        "p99_us": round(run.latency.percentile(99) / 1000.0, 1),
        "key_counts": cluster.key_counts(),
        "epoch_before_join": before_epoch,
        "epoch_after_join": cluster.epoch,
        "migrated_entries": report.total_moved,
        "migrated_payload_bytes": report.payload_bytes,
        "stale_retries": client.stale_retries,
        "integrity_failures": client.integrity_failures,
    }
    if as_json:
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        counts = ", ".join(
            f"{name}={count}" for name, count in payload["key_counts"].items()
        )
        lines = [
            f"Sharded functional run: YCSB {workload.upper()}, "
            f"{shards} shard(s), {ops} ops, {records} records",
            "-" * 64,
            f"throughput      {payload['ops_per_second']:>10} ops/s "
            "(pure-Python crypto; see 'scaleout' for modelled numbers)",
            f"latency p50     {payload['p50_us']:>10} us",
            f"latency p99     {payload['p99_us']:>10} us",
            f"reads/updates   {run.reads}/{run.updates} "
            f"({run.misses} misses)",
            "-" * 64,
            f"live join       shard-{shards} joined: "
            f"{report.total_moved} entries migrated sealed "
            f"({report.payload_bytes} payload bytes), "
            f"epoch {before_epoch} -> {cluster.epoch}",
            f"stale retries   {payload['stale_retries']} "
            f"(router re-routed after the epoch bump)",
            f"integrity       {payload['integrity_failures']} MAC failures",
            f"key placement   {counts}",
        ]
        text = "\n".join(lines)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "json" if as_json else "txt"
        (out_dir / f"shard.{suffix}").write_text(text + "\n")
    return text


def run_chaos_cmd(
    seed: int = 11,
    schedule: str = "drop:0.05,duplicate:0.05,delay:0.05,qp_error:0.02",
    ops: int = 200,
    shards: int = None,
    replicas: int = 0,
    ack_mode: str = "sync",
    as_json: bool = False,
    out_dir: pathlib.Path = None,
    out_name: str = "chaos",
    autoscale: bool = False,
    autoscale_policy: str = None,
) -> "tuple":
    """Seeded chaos run; returns ``(text, exit_code)``.

    Exit code 0 means every fault was recovered and the final store state
    matched the shadow model; 1 means an integrity violation survived
    (lost acked write, silent corruption, resurrection).  Under a
    ``sync``/``semi-sync`` replicated cluster any acked loss at a
    promotion is itself a contract violation, so client-detected losses
    and group-reported lost records also flip the exit code.  With
    ``autoscale`` the elastic controller runs live during the schedule
    (``docs/AUTOSCALING.md``) and any flapping also forces exit 1.
    """
    import json

    from repro.faults import run_chaos

    report = run_chaos(
        seed=seed,
        schedule=schedule,
        ops=ops,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        autoscale=autoscale,
        autoscale_policy=autoscale_policy,
    )
    contract_broken = (
        replicas > 0
        and ack_mode in ("sync", "semi-sync")
        and (report.losses_detected > 0 or report.lost_records > 0)
    )
    if as_json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        counts = ", ".join(
            f"{kind}={count}"
            for kind, count in sorted(report.fault_counts.items())
        ) or "none"
        outcome_line = ", ".join(
            f"{name}={count}"
            for name, count in sorted(report.outcomes.items())
        )
        if report.shards and replicas:
            mode = (
                f"{report.shards} shards x {replicas + 1} replicas, "
                f"{ack_mode}"
            )
        elif report.shards:
            mode = f"{report.shards} shards"
        else:
            mode = "single server"
        if contract_broken:
            verdict = (
                f"VIOLATIONS: {ack_mode} group lost acked writes "
                f"(lost_records={report.lost_records}, "
                f"detected={report.losses_detected})"
            )
        elif report.ok:
            verdict = "OK: store matches shadow model"
        else:
            verdict = f"VIOLATIONS: {report.violations}"
        lines = [
            f"Chaos run: seed={report.seed} schedule='{report.schedule}' "
            f"({report.ops} ops, {mode})",
            "-" * 68,
            f"faults injected   {sum(report.fault_counts.values())} "
            f"({counts})",
            f"outcomes          {outcome_line}",
            f"recoveries        retries={report.retries} "
            f"reconnects={report.reconnects} "
            f"failovers={report.failovers} "
            f"crash_restarts={report.crash_restarts} "
            f"promotions={report.promotions}",
            f"tamper detected   {report.tamper_detected}",
            f"losses            acked records lost={report.lost_records}, "
            f"client-detected={report.losses_detected}",
            f"fault fingerprint {report.fault_fingerprint[:16]}...",
            f"state digest      {report.state_digest[:16]}...",
        ]
        if report.autoscale:
            lines.append(
                f"autoscale         decisions={report.autoscale_decisions} "
                f"applied={report.autoscale_applied} "
                f"flapping={report.autoscale_flapping}"
            )
        lines.append(f"verdict           {verdict}")
        text = "\n".join(lines)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "json" if as_json else "txt"
        (out_dir / f"{out_name}.{suffix}").write_text(text + "\n")
        if report.flight_dump is not None:
            (out_dir / f"{out_name}_flight.json").write_text(
                json.dumps(report.flight_dump, indent=2, sort_keys=True)
                + "\n"
            )
    code = report.exit_code
    if contract_broken and code == 0:
        code = 1
    if report.autoscale and report.autoscale_flapping and code == 0:
        code = 1
    return text, code


def run_replica_cmd(
    seed: int = 11,
    schedule: str = "shard_death:0.05,replica_lag:0.08",
    ops: int = 200,
    shards: int = 3,
    replicas: int = 1,
    ack_mode: str = "sync",
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> "tuple":
    """Replicated failover chaos run; returns ``(text, exit_code)``.

    A thin front-end over the chaos harness with replication-shaped
    defaults: a 3-shard cluster where every shard is a primary-backup
    group, under a schedule that kills primaries and widens replication
    lag.  Exit code 0 means the selected ack mode's contract held
    (sync/semi-sync: zero acked loss; async: every loss detected by the
    client, none silent); 1 means it did not; 2 means the configuration
    was invalid.
    """
    from repro.errors import ConfigurationError
    from repro.replica import ACK_MODES

    if replicas < 1:
        raise ConfigurationError(
            f"'replica' needs --replicas >= 1, got {replicas}"
        )
    if ack_mode not in ACK_MODES:
        raise ConfigurationError(
            f"unknown ack mode {ack_mode!r}; known: {', '.join(ACK_MODES)}"
        )
    return run_chaos_cmd(
        seed=seed,
        schedule=schedule,
        ops=ops,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        as_json=as_json,
        out_dir=out_dir,
        out_name="replica",
    )


def run_health_cmd(
    seed: int = 11,
    shards: int = 2,
    replicas: int = 1,
    ack_mode: str = "sync",
    ops: int = 240,
    tick_every: int = 40,
    window: int = 3,
    hot_shard: str = None,
    schedule: str = "",
    slo: str = None,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> "tuple":
    """Deterministic cluster health run; returns ``(text, exit_code)``.

    Drives a seeded sharded workload with modelled service latency,
    publishes windowed per-shard telemetry on a fixed cadence, and
    evaluates the declarative SLO rules against every snapshot.  Exit
    code 0 means every objective held over the whole run; 1 means at
    least one rule breached (the report names the offending shard with
    its windowed percentile evidence).
    """
    import json

    from repro.faults import run_health

    report = run_health(
        seed=seed,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        ops=ops,
        tick_every=tick_every,
        window_ticks=window,
        hot_shard=hot_shard,
        schedule=schedule,
        slo=slo,
    )
    if as_json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.report()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "json" if as_json else "txt"
        (out_dir / f"health.{suffix}").write_text(text + "\n")
    return text, report.exit_code


def run_flightrec_cmd(
    seed: int = 11,
    shards: int = 2,
    replicas: int = 1,
    ops: int = 240,
    tick_every: int = 40,
    window: int = 3,
    hot_shard: str = "auto",
    schedule: str = "drop:0.08",
    slo: str = None,
    load: pathlib.Path = None,
    trace_id: str = None,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> "tuple":
    """Flight-recorder demo / offline reader; returns ``(text, exit_code)``.

    Without ``--load``, runs the breach scenario (hot shard plus a wire
    fault schedule), freezes the flight recorder on the first SLO
    breach, and prints -- and with ``--out`` writes -- the JSON dump.
    Exit code 0 means a valid dump was produced; 1 means the scenario
    unexpectedly stayed clean.

    With ``--load PATH``, reads a previously written dump instead:
    validates it, prints its summary, and with ``--trace ID``
    reconstructs that request's causal hop timeline from the frozen
    contexts.  Exit code 0 on a valid dump, 2 on unreadable/invalid
    input or an unknown trace id.
    """
    import json

    from repro.faults import run_health
    from repro.obs import FlightRecorder

    if load is not None:
        dump = FlightRecorder.load(str(load))
        FlightRecorder.validate(dump)
        if trace_id is not None:
            return FlightRecorder.render_trace(dump, trace_id), 0
        trigger = dump["trigger"]
        traces = [c.get("trace_id") for c in dump["contexts"]]
        lines = [
            f"flight dump {load}",
            f"  trigger   {trigger['reason']} (t={trigger.get('t_ns')}ns)",
            f"  contexts  {len(dump['contexts'])} "
            f"(--trace ID to replay one)",
            f"  faults    {len(dump['faults'])}",
            f"  events    {len(dump['events'])}",
            f"  trace ids {', '.join(t for t in traces[-8:] if t)}",
        ]
        return "\n".join(lines), 0

    report = run_health(
        seed=seed,
        shards=shards,
        replicas=replicas,
        ops=ops,
        tick_every=tick_every,
        window_ticks=window,
        hot_shard=hot_shard,
        schedule=schedule,
        slo=slo,
    )
    if report.dump is None:
        return (
            "flightrec: scenario stayed within SLO; no dump produced "
            "(lower the objective with --slo or raise --ops)",
            1,
        )
    FlightRecorder.validate(report.dump)
    text = json.dumps(report.dump, indent=2, sort_keys=True)
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "flightrec.json").write_text(text + "\n")
        text += f"\n[flight dump saved to {out_dir / 'flightrec.json'}]"
    return text, 0


def run_cryptobench_cmd(
    quick: bool = False,
    floor: float = 5.0,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> "tuple":
    """Wall-clock crypto benchmark; returns ``(text, exit_code)``.

    Measurements land in ``BENCH_crypto.json`` (full run, repo root) or
    ``bench_reports/BENCH_crypto_quick.json`` (quick run) -- the quick
    path is separate so CI smoke runs never clobber the committed full
    trajectory.  ``--out DIR`` redirects either file into ``DIR``.
    Exit code 0 when cross-engine parity held and every speedup floor
    was met; 1 otherwise.
    """
    import json

    from repro.bench.cryptobench import run_cryptobench, write_json
    from repro.errors import ConfigurationError

    if floor < 0:
        raise ConfigurationError(
            f"--floor must be non-negative, got {floor}"
        )
    result = run_cryptobench(quick=quick, floor=floor)
    name = "BENCH_crypto_quick.json" if quick else "BENCH_crypto.json"
    if out_dir is not None:
        path = out_dir / name
    elif quick:
        path = pathlib.Path("bench_reports") / name
    else:
        path = pathlib.Path(name)
    write_json(result, path)
    if as_json:
        text = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    else:
        text = result.report() + f"\n[measurements saved to {path}]"
    return text, result.exit_code


def run_batchbench_cmd(
    quick: bool = False,
    floor: float = 1.3,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> "tuple":
    """Batched-pipeline benchmark; returns ``(text, exit_code)``.

    Measurements land in ``BENCH_batching.json`` (full run, repo root)
    or ``bench_reports/BENCH_batching_quick.json`` (quick run) -- same
    split as cryptobench, so CI smoke runs never clobber the committed
    full trajectory.  Exit code 0 when the K=1/K=16
    behavioural-identity gate held and the K=16 speedup floor was met;
    1 otherwise.
    """
    import json

    from repro.bench.batching import run_batchbench, write_json
    from repro.errors import ConfigurationError

    if floor < 0:
        raise ConfigurationError(
            f"--floor must be non-negative, got {floor}"
        )
    result = run_batchbench(quick=quick, floor=floor)
    name = "BENCH_batching_quick.json" if quick else "BENCH_batching.json"
    if out_dir is not None:
        path = out_dir / name
    elif quick:
        path = pathlib.Path("bench_reports") / name
    else:
        path = pathlib.Path(name)
    write_json(result, path)
    if as_json:
        text = json.dumps(result.to_dict(), indent=2, sort_keys=True)
    else:
        text = result.report() + f"\n[measurements saved to {path}]"
    return text, result.exit_code


def run_traffic_cmd(
    scenario: str = "steady",
    seed: int = 11,
    shards: int = 2,
    replicas: int = 0,
    ack_mode: str = "sync",
    rate: float = None,
    ops: int = None,
    schedule: str = "",
    slo: str = None,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> "tuple":
    """Open-loop scenario run; returns ``(text, exit_code)``.

    Runs one named scenario from the registry
    (:mod:`repro.traffic.scenarios`) and prints corrected vs.
    uncorrected latency side by side.  Exit code 0 means the run-level
    SLO held and the correction invariant (corrected p99 >= uncorrected
    p99) was intact; 1 means a breach or a broken invariant; 2 means
    the configuration was invalid (unknown scenario, bad SLO spec, bad
    fault schedule).
    """
    import json

    from repro.traffic import run_scenario

    report = run_scenario(
        scenario,
        seed=seed,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        rate=rate,
        ops=ops,
        schedule=schedule,
        slo=slo,
    )
    if as_json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.report()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "json" if as_json else "txt"
        (out_dir / f"traffic.{suffix}").write_text(text + "\n")
    return text, report.exit_code


def run_nearcache_cmd(
    scenario: str = "hot-key-storm",
    seed: int = 11,
    shards: int = 2,
    replicas: int = 1,
    ack_mode: str = "sync",
    rate: float = None,
    ops: int = None,
    cache: bool = False,
    offload: bool = False,
    cache_entries: int = 256,
    cache_lease_ms: float = 25.0,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> "tuple":
    """Open-loop scenario with the near-cache; returns ``(text, exit_code)``.

    A front-end over :func:`~repro.traffic.scenarios.run_scenario` that
    turns on the client-verified near-cache (``--cache``) and/or the
    freshness-token backup-read offload (``--offload``) on every pooled
    connection; the report grows a near-cache section (hits, misses,
    revalidations, offloaded reads, primary/backup GET split).  Exit
    code 0 means the run-level SLO held with the correction invariant
    intact; 1 means a breach; 2 means the configuration was invalid --
    including asking for neither feature (use 'traffic' for that) or
    for ``--offload`` without any backups to offload onto.
    """
    import json

    from repro.errors import ConfigurationError
    from repro.traffic import run_scenario

    if not cache and not offload:
        raise ConfigurationError(
            "'nearcache' needs --cache and/or --offload "
            "(plain runs: use the 'traffic' command)"
        )
    if offload and replicas < 1:
        raise ConfigurationError(
            f"--offload needs --replicas >= 1 to have backups to read "
            f"from, got {replicas}"
        )
    report = run_scenario(
        scenario,
        seed=seed,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        rate=rate,
        ops=ops,
        near_cache=cache,
        read_offload=offload,
        cache_entries=cache_entries,
        cache_lease_ms=cache_lease_ms,
    )
    if as_json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.report()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "json" if as_json else "txt"
        (out_dir / f"nearcache.{suffix}").write_text(text + "\n")
    return text, report.exit_code


def run_autoscale_cmd(
    scenario: str = "flash-crowd",
    seed: int = 11,
    shards: int = 1,
    replicas: int = 1,
    ack_mode: str = "sync",
    rate: float = None,
    ops: int = None,
    policy: str = None,
    max_shards: int = 4,
    slo: str = None,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> "tuple":
    """Open-loop scenario with the autoscaler; returns ``(text, exit_code)``.

    A front-end over :func:`~repro.traffic.scenarios.run_scenario` that
    attaches the SLO-driven elastic control plane
    (:mod:`repro.autoscale`, ``docs/AUTOSCALING.md``) to the telemetry
    pipeline: the cluster starts at ``--shards`` and the controller
    splits/joins shards and grows/shrinks replica groups up to
    ``--max-shards`` under the declarative ``--policy``.  The report
    grows an autoscale section (every decision -- applied *and*
    refused -- plus the canonical decision log and its fingerprint).
    Exit code 0 means the run-level SLO held *and* the controller never
    flapped; 1 means an SLO breach, a broken correction invariant or
    observed flapping; 2 means the configuration was invalid (unknown
    scenario, malformed policy spec, bad bounds).
    """
    import json

    from repro.errors import ConfigurationError
    from repro.traffic import run_scenario

    if max_shards < shards:
        raise ConfigurationError(
            f"--max-shards ({max_shards}) must be >= --shards ({shards})"
        )
    report = run_scenario(
        scenario,
        seed=seed,
        shards=shards,
        replicas=replicas,
        ack_mode=ack_mode,
        rate=rate,
        ops=ops,
        slo=slo,
        autoscale=True,
        autoscale_policy=policy,
        autoscale_max_shards=max_shards,
    )
    if as_json:
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True)
    else:
        text = report.report()
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        suffix = "json" if as_json else "txt"
        (out_dir / f"autoscale.{suffix}").write_text(text + "\n")
    code = report.exit_code
    summary = report.autoscale_summary or {}
    if summary.get("flapping", 0) and code == 0:
        code = 1
    return text, code


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing/docs)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description=(
            "Regenerate the evaluation artifacts of 'Precursor' "
            "(Middleware '21)."
        ),
    )
    parser.add_argument(
        "artifact",
        choices=sorted(_RUNNERS)
        + ["all", "list", "scorecard", "trace", "metrics", "shard",
           "chaos", "cryptobench", "batchbench", "replica", "health",
           "flightrec", "traffic", "nearcache", "autoscale"],
        help="which figure/table to regenerate ('all' for everything, "
        "'list' to enumerate, 'scorecard' for pass/fail vs the paper, "
        "'trace'/'metrics' to exercise the observability subsystem, "
        "'shard' for a functional sharded-cluster run, 'chaos' for a "
        "seeded fault-injection run with shadow verification, "
        "'cryptobench' for the wall-clock reference-vs-fast crypto "
        "benchmark, 'batchbench' for the K-frame-vs-K=1 request "
        "pipeline benchmark, 'replica' for a replicated failover chaos "
        "run, "
        "'health' for a windowed SLO report over a deterministic "
        "cluster run, 'flightrec' to produce or replay a "
        "flight-recorder dump, 'traffic' for an open-loop scenario "
        "with coordinated-omission-corrected tails, 'nearcache' for the "
        "same with the client-verified near-cache and/or backup-read "
        "offload enabled, 'autoscale' for the same with the SLO-driven "
        "elastic control plane live)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shortened simulations (smoke-test quality)",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        default=None,
        metavar="DIR",
        help="also write each report to DIR/<artifact>.txt",
    )
    parser.add_argument(
        "--csv",
        action="store_true",
        help="with --out: additionally write DIR/<artifact>.csv "
        "(plot-ready data)",
    )
    obs = parser.add_argument_group("observability (trace/metrics only)")
    obs.add_argument(
        "--op",
        choices=["get", "put", "delete"],
        default="get",
        help="operation to trace (default: get)",
    )
    obs.add_argument(
        "--value-size",
        type=int,
        default=128,
        metavar="BYTES",
        help="payload size for the traced operation (default: 128)",
    )
    obs.add_argument(
        "--ops",
        type=int,
        default=None,
        metavar="N",
        help="workload size for the 'metrics' (default: 32) and 'shard' "
        "(default: 1000) commands",
    )
    obs.add_argument(
        "--json",
        action="store_true",
        help="with 'trace'/'shard': emit JSON instead of the text report",
    )
    shard = parser.add_argument_group("sharding ('shard'/'chaos')")
    shard.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="shard count for the functional cluster ('shard' default: 2; "
        "'chaos' default: single unsharded server)",
    )
    shard.add_argument(
        "--workload",
        choices=["a", "b", "c"],
        default="b",
        help="YCSB mix to drive through the router (default: b)",
    )
    shard.add_argument(
        "--seed",
        type=int,
        default=11,
        metavar="S",
        help="deterministic seed for ring placement + workload "
        "(default: 11)",
    )
    bench = parser.add_argument_group(
        "benchmarks ('cryptobench'/'batchbench')"
    )
    bench.add_argument(
        "--floor",
        type=float,
        default=None,
        metavar="X",
        help="minimum accepted speedup: fast/reference on the 4 KiB "
        "crypto checkpoints for 'cryptobench' (default: 5.0), K=16 over "
        "K=1 for 'batchbench' (default: 1.3); exit code 1 below it",
    )
    chaos = parser.add_argument_group("fault injection ('chaos'/'replica')")
    chaos.add_argument(
        "--schedule",
        default=None,
        metavar="SPEC",
        help="comma-separated 'kind:rate' fault schedule (kinds: drop, "
        "duplicate, delay, corrupt_payload, corrupt_control, qp_error, "
        "enclave_crash, shard_death, replica_lag, "
        "promote_during_migration); defaults: transport mix for 'chaos', "
        "'shard_death:0.05,replica_lag:0.08' for 'replica'",
    )
    chaos.add_argument(
        "--replicas",
        type=int,
        default=None,
        metavar="R",
        help="backups per shard ('replica' default: 1; 'chaos' default: "
        "0, unreplicated)",
    )
    chaos.add_argument(
        "--ack-mode",
        choices=["sync", "semi-sync", "async"],
        default="sync",
        help="replication acknowledgement contract (default: sync)",
    )
    health = parser.add_argument_group("telemetry ('health'/'flightrec')")
    health.add_argument(
        "--slo",
        default=None,
        metavar="SPEC",
        help="comma-separated SLO rules, e.g. "
        "'latency:p99<1ms:min=8,errors:budget=2%%:burn<5,"
        "staleness:lag<32' (default: the built-in spec)",
    )
    health.add_argument(
        "--hot-shard",
        default=None,
        metavar="NAME",
        help="inject a modelled latency fault into NAME's replica group "
        "('auto' picks the first shard; 'health' default: none, "
        "'flightrec' default: auto)",
    )
    health.add_argument(
        "--tick-every",
        type=int,
        default=40,
        metavar="N",
        help="publish a telemetry snapshot every N operations "
        "(default: 40)",
    )
    health.add_argument(
        "--window",
        type=int,
        default=3,
        metavar="T",
        help="sliding-window width in ticks for the per-shard "
        "aggregates (default: 3)",
    )
    health.add_argument(
        "--load",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="with 'flightrec': read an existing dump instead of "
        "running the breach scenario",
    )
    health.add_argument(
        "--trace",
        default=None,
        metavar="ID",
        help="with 'flightrec --load': reconstruct this trace's causal "
        "hop timeline from the dump",
    )
    traffic = parser.add_argument_group(
        "open-loop traffic ('traffic'/'nearcache')"
    )
    traffic.add_argument(
        "--scenario",
        default=None,
        metavar="NAME",
        help="registered scenario name (steady, bursty, diurnal, "
        "flash-crowd, hot-key-storm, multi-tenant-contention; "
        "'traffic' default: steady, 'nearcache' default: hot-key-storm)",
    )
    traffic.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="OPS_S",
        help="offered arrival rate override in ops/s of simulated time "
        "(default: the scenario's own rate)",
    )
    cache = parser.add_argument_group("near-cache ('nearcache' only)")
    cache.add_argument(
        "--cache",
        action="store_true",
        help="enable the client-verified near-cache on every pooled "
        "connection",
    )
    cache.add_argument(
        "--offload",
        action="store_true",
        help="enable freshness-token GET offload to replica backups "
        "(needs --replicas >= 1)",
    )
    cache.add_argument(
        "--cache-entries",
        type=int,
        default=256,
        metavar="N",
        help="per-connection near-cache capacity (default: 256)",
    )
    cache.add_argument(
        "--lease-ms",
        type=float,
        default=25.0,
        metavar="MS",
        help="near-cache lease length in simulated milliseconds "
        "(default: 25)",
    )
    scaler = parser.add_argument_group("autoscaler ('autoscale'/'chaos')")
    scaler.add_argument(
        "--autoscale",
        action="store_true",
        help="'chaos' only: run the elastic controller live during the "
        "fault schedule (requires --shards; exit 1 on any flapping)",
    )
    scaler.add_argument(
        "--policy",
        default=None,
        metavar="SPEC",
        help="comma-separated policy rules, e.g. "
        "'scale-out:p99>2ms:for=2,scale-in:util<25%%:for=8' "
        "(default: the built-in policy)",
    )
    scaler.add_argument(
        "--max-shards",
        type=int,
        default=4,
        metavar="N",
        help="upper bound the stability guard enforces on shard count "
        "(default: 4)",
    )
    return parser


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.artifact == "list":
        for name in sorted(_RUNNERS):
            print(f"{name:8s} {_DESCRIPTIONS[name]}")
        print("scorecard  pass/fail verdict on every paper claim")
        print("trace      per-stage span breakdown of one live operation")
        print("metrics    Prometheus-style dump of the metrics registry")
        print("shard      functional sharded run: routing, live join, "
              "epoch retry")
        print("chaos      seeded fault-injection run with shadow-model "
              "verification")
        print("cryptobench  wall-clock reference-vs-fast crypto engine "
              "benchmark")
        print("batchbench  request pipeline benchmark "
              "(K-frame drain vs K=1)")
        print("replica    replicated failover chaos run (promotion + "
              "client loss detection)")
        print("health     windowed SLO report over a deterministic "
              "cluster run")
        print("flightrec  breach-triggered flight-recorder dump "
              "(or --load to replay one)")
        print("traffic    open-loop scenario run with "
              "coordinated-omission-corrected tails")
        print("nearcache  open-loop scenario with the client-verified "
              "near-cache / backup-read offload")
        print("autoscale  open-loop scenario with the SLO-driven "
              "elastic control plane live")
        return 0
    if args.artifact in ("trace", "metrics") and args.value_size < 0:
        print(
            f"error: --value-size must be non-negative, got {args.value_size}",
            file=sys.stderr,
        )
        return 2
    if args.artifact == "trace":
        print(
            run_trace(
                op=args.op,
                value_size=args.value_size,
                as_json=args.json,
                out_dir=args.out,
            )
        )
        return 0
    if args.artifact == "metrics":
        print(
            run_metrics(
                op=args.op,
                value_size=args.value_size,
                ops=args.ops if args.ops is not None else 32,
                out_dir=args.out,
            )
        )
        return 0
    if args.artifact == "shard":
        from repro.errors import ConfigurationError

        try:
            text = run_shard(
                shards=args.shards if args.shards is not None else 2,
                workload=args.workload,
                ops=args.ops if args.ops is not None else 1000,
                seed=args.seed,
                as_json=args.json,
                out_dir=args.out,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return 0
    if args.artifact == "chaos":
        from repro.errors import ConfigurationError

        try:
            text, code = run_chaos_cmd(
                seed=args.seed,
                schedule=args.schedule
                if args.schedule is not None
                else "drop:0.05,duplicate:0.05,delay:0.05,qp_error:0.02",
                ops=args.ops if args.ops is not None else 200,
                shards=args.shards,
                replicas=args.replicas if args.replicas is not None else 0,
                ack_mode=args.ack_mode,
                as_json=args.json,
                out_dir=args.out,
                autoscale=args.autoscale,
                autoscale_policy=args.policy,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return code
    if args.artifact == "replica":
        from repro.errors import ConfigurationError

        try:
            text, code = run_replica_cmd(
                seed=args.seed,
                schedule=args.schedule
                if args.schedule is not None
                else "shard_death:0.05,replica_lag:0.08",
                ops=args.ops if args.ops is not None else 200,
                shards=args.shards if args.shards is not None else 3,
                replicas=args.replicas if args.replicas is not None else 1,
                ack_mode=args.ack_mode,
                as_json=args.json,
                out_dir=args.out,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return code
    if args.artifact == "health":
        from repro.errors import ConfigurationError

        try:
            text, code = run_health_cmd(
                seed=args.seed,
                shards=args.shards if args.shards is not None else 2,
                replicas=args.replicas if args.replicas is not None else 1,
                ack_mode=args.ack_mode,
                ops=args.ops if args.ops is not None else 240,
                tick_every=args.tick_every,
                window=args.window,
                hot_shard=args.hot_shard,
                schedule=args.schedule if args.schedule is not None else "",
                slo=args.slo,
                as_json=args.json,
                out_dir=args.out,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return code
    if args.artifact == "flightrec":
        from repro.errors import ConfigurationError, ObservabilityError

        try:
            text, code = run_flightrec_cmd(
                seed=args.seed,
                shards=args.shards if args.shards is not None else 2,
                replicas=args.replicas if args.replicas is not None else 1,
                ops=args.ops if args.ops is not None else 240,
                tick_every=args.tick_every,
                window=args.window,
                hot_shard=args.hot_shard
                if args.hot_shard is not None
                else "auto",
                schedule=args.schedule
                if args.schedule is not None
                else "drop:0.08",
                slo=args.slo,
                load=args.load,
                trace_id=args.trace,
                as_json=args.json,
                out_dir=args.out,
            )
        except (ConfigurationError, ObservabilityError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return code
    if args.artifact == "traffic":
        from repro.errors import ConfigurationError

        try:
            text, code = run_traffic_cmd(
                scenario=args.scenario
                if args.scenario is not None
                else "steady",
                seed=args.seed,
                shards=args.shards if args.shards is not None else 2,
                replicas=args.replicas if args.replicas is not None else 0,
                ack_mode=args.ack_mode,
                rate=args.rate,
                ops=args.ops,
                schedule=args.schedule if args.schedule is not None else "",
                slo=args.slo,
                as_json=args.json,
                out_dir=args.out,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return code
    if args.artifact == "nearcache":
        from repro.errors import ConfigurationError

        try:
            text, code = run_nearcache_cmd(
                scenario=args.scenario
                if args.scenario is not None
                else "hot-key-storm",
                seed=args.seed,
                shards=args.shards if args.shards is not None else 2,
                replicas=args.replicas if args.replicas is not None else 1,
                ack_mode=args.ack_mode,
                rate=args.rate,
                ops=args.ops,
                cache=args.cache,
                offload=args.offload,
                cache_entries=args.cache_entries,
                cache_lease_ms=args.lease_ms,
                as_json=args.json,
                out_dir=args.out,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return code
    if args.artifact == "autoscale":
        from repro.errors import ConfigurationError

        try:
            text, code = run_autoscale_cmd(
                scenario=args.scenario
                if args.scenario is not None
                else "flash-crowd",
                seed=args.seed,
                shards=args.shards if args.shards is not None else 1,
                replicas=args.replicas if args.replicas is not None else 1,
                ack_mode=args.ack_mode,
                rate=args.rate,
                ops=args.ops,
                policy=args.policy,
                max_shards=args.max_shards,
                slo=args.slo,
                as_json=args.json,
                out_dir=args.out,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return code
    if args.artifact == "cryptobench":
        from repro.errors import ConfigurationError

        try:
            text, code = run_cryptobench_cmd(
                quick=args.quick,
                floor=args.floor if args.floor is not None else 5.0,
                as_json=args.json,
                out_dir=args.out,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return code
    if args.artifact == "batchbench":
        from repro.errors import ConfigurationError

        try:
            text, code = run_batchbench_cmd(
                quick=args.quick,
                floor=args.floor if args.floor is not None else 1.3,
                as_json=args.json,
                out_dir=args.out,
            )
        except ConfigurationError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(text)
        return code
    if args.artifact == "scorecard":
        from repro.bench.scorecard import run_scorecard

        result = run_scorecard(quick=args.quick)
        print(result.report())
        if args.out is not None:
            args.out.mkdir(parents=True, exist_ok=True)
            (args.out / "scorecard.txt").write_text(result.report() + "\n")
        return 0 if result.passed == result.total else 1
    names = sorted(_RUNNERS) if args.artifact == "all" else [args.artifact]
    worst = 0
    for name in names:
        text, code = _run_one(
            name, quick=args.quick, out_dir=args.out, csv=args.csv
        )
        print(text)
        print()
        worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
