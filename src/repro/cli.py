"""Command-line interface: regenerate any paper artifact from a shell.

Usage::

    python -m repro.cli list
    python -m repro.cli fig4
    python -m repro.cli fig5 --quick
    python -m repro.cli all --quick --out bench_reports/

Each artifact of the registry (:mod:`repro.bench.artifacts`) prints its
paper-style report; gated benches also write their ``BENCH_*.json`` by
the registry's path rule.  ``all`` runs every artifact in sequence and
``list`` describes every command.

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
    python -m repro.cli cryptobench --quick  # CI smoke, same 5x floor
    python -m repro.cli cryptobench --json

Batching benchmark (see docs/BATCHING.md)::

    python -m repro.cli batchbench           # full run -> BENCH_batching.json
    python -m repro.cli batchbench --quick   # CI smoke, floor 1.05
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
    python -m repro.cli chaos --shards 3 --replicas 1 --cache --offload
    python -m repro.cli nearcachebench --quick           # cache smoke
    python -m repro.cli nearcachebench  # full run -> BENCH_nearcache.json

Autoscaler commands (see docs/AUTOSCALING.md)::

    python -m repro.cli autoscale                        # elastic flash crowd
    python -m repro.cli autoscale --max-shards 6 --json
    python -m repro.cli autoscale --policy 'scale-out:p99>1ms:for=2'
    python -m repro.cli chaos --shards 3 --replicas 1 --autoscale
    python -m repro.cli autoscalebench --quick           # elasticity smoke
    python -m repro.cli autoscalebench  # full run -> BENCH_autoscale.json

The eight cluster commands (shard, chaos, replica, health, flightrec,
traffic, nearcache, autoscale) fill one
:class:`~repro.shard.spec.ClusterSpec` from the cluster-shape options
they take (``--shards``, ``--replicas``, ``--ack-mode``; 'chaos' and
'nearcache' also ``--cache``, ``--offload``, ``--cache-entries``,
``--lease-ms``) on top of the command's default shape.  A command
refuses any option it does not use.

Exit codes: 0 success, 1 a failed gate or verdict, 2 bad configuration
(one ``error: ...`` line on stderr).
"""

from __future__ import annotations

import argparse
import inspect
import json
import pathlib
import sys
from dataclasses import replace
from functools import partial

from repro.bench.artifacts import ARTIFACTS, write_artifact
from repro.errors import ConfigurationError
from repro.shard.spec import ClusterSpec

__all__ = ["main"]


def _save(out_dir: pathlib.Path, filename: str, text: str) -> None:
    """Write ``text`` to ``out_dir/filename`` when ``--out`` was given."""
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text + "\n")


def _render(report, as_json: bool) -> str:
    """A report's JSON form under ``--json``, its text table otherwise."""
    if as_json:
        return json.dumps(report.to_dict(), indent=2, sort_keys=True)
    return report.report()


def run_artifacts(
    names,
    quick: bool = False,
    out_dir: pathlib.Path = None,
    csv: bool = False,
    as_json: bool = False,
) -> "tuple":
    """Run registry artifacts in order, printing each report as it lands.

    Returns ``(None, worst exit code)``: results that carry gates
    surface them through ``exit_code``, everything else exits 0.
    ``--csv`` on a single artifact without an exporter is refused before
    anything runs; ``all --csv`` writes every CSV there is.
    """
    if csv and len(names) == 1 and not ARTIFACTS[names[0]].csv:
        raise ConfigurationError(f"'{names[0]}' has no CSV exporter")
    worst = 0
    for name in names:
        result = ARTIFACTS[name].run(quick=quick)
        text = write_artifact(
            name, result, quick=quick, out_dir=out_dir, csv=csv
        )
        if as_json and ARTIFACTS[name].stem is not None:
            text = _render(result, as_json=True)
        print(text)
        print()
        worst = max(worst, getattr(result, "exit_code", 0))
    return None, worst


def run_scorecard_cmd(
    quick: bool = False, out_dir: pathlib.Path = None
) -> "tuple":
    """Pass/fail verdict on every paper claim; exit code 1 if any fails."""
    from repro.bench.scorecard import run_scorecard

    result = run_scorecard(quick=quick)
    text = result.report()
    _save(out_dir, "scorecard.txt", text)
    return text, 0 if result.passed == result.total else 1


def _obs_workload(op: str, value_size: int, ops: int):
    """Run a small in-process workload; return (client, traced ops)."""
    from repro.core.client import PrecursorClient
    from repro.core.server import PrecursorServer
    from repro.rdma.fabric import Fabric

    if value_size < 0:
        raise ConfigurationError(
            f"--value-size must be non-negative, got {value_size}"
        )
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
) -> "tuple":
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
    _save(out_dir, "trace.jsonl" if as_json else "trace.txt", text)
    return text, 0


def run_metrics(
    op: str = "get",
    value_size: int = 128,
    ops: int = 32,
    out_dir: pathlib.Path = None,
) -> "tuple":
    """Short in-process workload; dump the metrics registry."""
    from repro.obs.exporters import prometheus_text

    client = _obs_workload(op, value_size, ops=ops)
    text = prometheus_text(client.obs.registry).rstrip("\n")
    _save(out_dir, "metrics.prom", text)
    return text, 0


def run_shard(
    cluster: ClusterSpec = ClusterSpec(shards=2),
    workload: str = "b",
    ops: int = 1000,
    seed: int = 11,
    as_json: bool = False,
    out_dir: pathlib.Path = None,
) -> "tuple":
    """Functional sharded run: real crypto, routing and live migration.

    Stands up ``cluster`` behind a consistent-hash map, drives a YCSB
    mix through its routing client, then joins one more shard live and
    re-reads a sample of keys through the (now stale) router to exercise
    the epoch-retry protocol.
    """
    from repro.ycsb.driver import WorkloadDriver
    from repro.ycsb.generator import make_key
    from repro.ycsb.workload import WORKLOAD_A, WORKLOAD_B, WORKLOAD_C

    specs = {"a": WORKLOAD_A, "b": WORKLOAD_B, "c": WORKLOAD_C}
    if workload not in specs:
        raise ConfigurationError(
            f"unknown workload {workload!r} (expected one of: a, b, c)"
        )
    if ops < 1:
        raise ConfigurationError(f"--ops must be positive, got {ops}")

    # Pure-Python crypto runs at a few hundred ops/s; keep the resident
    # set proportional to the request count so the command stays snappy.
    records = max(64, min(512, ops // 4))
    spec = replace(specs[workload], record_count=records)

    live = cluster.build(seed)
    client = cluster.router(live, trace_ops=False)
    driver = WorkloadDriver(client, spec, seed=seed)
    driver.load()
    run = driver.run(ops)

    before_epoch = live.epoch
    report = live.add_shard()
    sample = [make_key(i, spec.key_size) for i in range(min(32, records))]
    for key in sample:
        client.get(key)

    payload = {
        "shards": cluster.shards,
        "workload": workload,
        "operations": run.operations,
        "reads": run.reads,
        "updates": run.updates,
        "misses": run.misses,
        "ops_per_second": round(run.ops_per_second, 1),
        "p50_us": round(run.latency.percentile(50) / 1000.0, 1),
        "p99_us": round(run.latency.percentile(99) / 1000.0, 1),
        "key_counts": live.key_counts(),
        "epoch_before_join": before_epoch,
        "epoch_after_join": live.epoch,
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
            f"{cluster.shards} shard(s), {ops} ops, {records} records",
            "-" * 64,
            f"throughput      {payload['ops_per_second']:>10} ops/s "
            "(pure-Python crypto; see 'scaleout' for modelled numbers)",
            f"latency p50     {payload['p50_us']:>10} us",
            f"latency p99     {payload['p99_us']:>10} us",
            f"reads/updates   {run.reads}/{run.updates} "
            f"({run.misses} misses)",
            "-" * 64,
            f"live join       shard-{cluster.shards} joined: "
            f"{report.total_moved} entries migrated sealed "
            f"({report.payload_bytes} payload bytes), "
            f"epoch {before_epoch} -> {live.epoch}",
            f"stale retries   {payload['stale_retries']} "
            f"(router re-routed after the epoch bump)",
            f"integrity       {payload['integrity_failures']} MAC failures",
            f"key placement   {counts}",
        ]
        text = "\n".join(lines)
    _save(out_dir, "shard.json" if as_json else "shard.txt", text)
    return text, 0


def run_chaos_cmd(
    seed: int = 11,
    schedule: str = "drop:0.05,duplicate:0.05,delay:0.05,qp_error:0.02",
    ops: int = 200,
    cluster: ClusterSpec = ClusterSpec(shards=None),
    as_json: bool = False,
    out_dir: pathlib.Path = None,
    out_name: str = "chaos",
    autoscale: bool = False,
    policy: str = None,
) -> "tuple":
    """Seeded chaos run; returns ``(text, exit_code)``.

    Exit code 0 means every fault was recovered and the final store state
    matched the shadow model; 1 means the report's verdict failed
    (:attr:`~repro.faults.ChaosReport.exit_code`: an integrity violation,
    acked loss under a ``sync``/``semi-sync`` contract, or -- with
    ``autoscale``, the elastic controller live under ``policy``
    (``docs/AUTOSCALING.md``) -- any flapping).
    """
    from repro.faults import run_chaos

    report = run_chaos(
        seed=seed,
        schedule=schedule,
        ops=ops,
        cluster=cluster,
        autoscale=autoscale,
        autoscale_policy=policy,
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
        if report.shards and report.replicas:
            mode = (
                f"{report.shards} shards x {report.replicas + 1} replicas, "
                f"{report.ack_mode}"
            )
        elif report.shards:
            mode = f"{report.shards} shards"
        else:
            mode = "single server"
        if report.contract_broken:
            verdict = (
                f"VIOLATIONS: {report.ack_mode} group lost acked writes "
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
    _save(out_dir, f"{out_name}.{'json' if as_json else 'txt'}", text)
    if report.flight_dump is not None:
        _save(
            out_dir,
            f"{out_name}_flight.json",
            json.dumps(report.flight_dump, indent=2, sort_keys=True),
        )
    return text, report.exit_code


def run_replica_cmd(
    seed: int = 11,
    schedule: str = "shard_death:0.05,replica_lag:0.08",
    ops: int = 200,
    cluster: ClusterSpec = ClusterSpec(shards=3, replicas=1),
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
    if cluster.replicas < 1:
        raise ConfigurationError(
            f"'replica' needs --replicas >= 1, got {cluster.replicas}"
        )
    return run_chaos_cmd(
        seed=seed,
        schedule=schedule,
        ops=ops,
        cluster=cluster,
        as_json=as_json,
        out_dir=out_dir,
        out_name="replica",
    )


def run_health_cmd(
    seed: int = 11,
    cluster: ClusterSpec = ClusterSpec(shards=2, replicas=1),
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
    from repro.faults import run_health

    report = run_health(
        seed=seed,
        cluster=cluster,
        ops=ops,
        tick_every=tick_every,
        window_ticks=window,
        hot_shard=hot_shard,
        schedule=schedule,
        slo=slo,
    )
    text = _render(report, as_json)
    _save(out_dir, "health.json" if as_json else "health.txt", text)
    return text, report.exit_code


def run_flightrec_cmd(
    seed: int = 11,
    cluster: ClusterSpec = ClusterSpec(shards=2, replicas=1),
    ops: int = 240,
    tick_every: int = 40,
    window: int = 3,
    hot_shard: str = "auto",
    schedule: str = "drop:0.08",
    slo: str = None,
    load: pathlib.Path = None,
    trace_id: str = None,
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
    contexts.  An unreadable or invalid dump and an unknown trace id
    are configuration errors (exit code 2).
    """
    from repro.errors import ObservabilityError
    from repro.faults import run_health
    from repro.obs import FlightRecorder

    if load is not None:
        try:
            dump = FlightRecorder.load(str(load))
            if trace_id is not None:
                return FlightRecorder.render_trace(dump, trace_id), 0
        except ObservabilityError as exc:
            raise ConfigurationError(str(exc)) from exc
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
        cluster=cluster,
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
        _save(out_dir, "flightrec.json", text)
        text += f"\n[flight dump saved to {out_dir / 'flightrec.json'}]"
    return text, 0


def run_traffic_cmd(
    scenario: str = "steady",
    seed: int = 11,
    cluster: ClusterSpec = ClusterSpec(shards=2),
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
    from repro.traffic import run_scenario

    report = run_scenario(
        scenario,
        seed=seed,
        cluster=cluster,
        rate=rate,
        ops=ops,
        schedule=schedule,
        slo=slo,
    )
    text = _render(report, as_json)
    _save(out_dir, "traffic.json" if as_json else "traffic.txt", text)
    return text, report.exit_code


def run_nearcache_cmd(
    scenario: str = "hot-key-storm",
    seed: int = 11,
    cluster: ClusterSpec = ClusterSpec(shards=2, replicas=1),
    rate: float = None,
    ops: int = None,
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
    from repro.traffic import run_scenario

    if not (cluster.near_cache or cluster.read_offload):
        raise ConfigurationError(
            "'nearcache' needs --cache and/or --offload "
            "(plain runs: use the 'traffic' command)"
        )
    report = run_scenario(
        scenario, seed=seed, cluster=cluster, rate=rate, ops=ops
    )
    text = _render(report, as_json)
    _save(out_dir, "nearcache.json" if as_json else "nearcache.txt", text)
    return text, report.exit_code


def run_autoscale_cmd(
    scenario: str = "flash-crowd",
    seed: int = 11,
    cluster: ClusterSpec = ClusterSpec(shards=1, replicas=1),
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
    from repro.traffic import run_scenario

    if max_shards < cluster.shards:
        raise ConfigurationError(
            f"--max-shards ({max_shards}) must be >= --shards "
            f"({cluster.shards})"
        )
    report = run_scenario(
        scenario,
        seed=seed,
        cluster=cluster,
        rate=rate,
        ops=ops,
        slo=slo,
        autoscale=True,
        autoscale_policy=policy,
        autoscale_max_shards=max_shards,
    )
    text = _render(report, as_json)
    _save(out_dir, "autoscale.json" if as_json else "autoscale.txt", text)
    return text, report.exit_code


def run_list() -> "tuple":
    """One line per command: its name and what it does."""
    width = max(map(len, _COMMANDS))
    return "\n".join(
        f"{name:<{width}}  {desc}" for name, (_, desc) in _COMMANDS.items()
    ), 0


#: Every command: name -> (handler, one-line description).  The artifact
#: registry supplies the first entries.  Every handler returns
#: ``(text, exit_code)``; artifact runs print as they go and return no
#: text.
_COMMANDS = {
    **{
        name: (partial(run_artifacts, (name,)), entry.description)
        for name, entry in ARTIFACTS.items()
    },
    "all": (
        partial(run_artifacts, tuple(ARTIFACTS)),
        "every artifact above, in sequence",
    ),
    "scorecard": (run_scorecard_cmd, "pass/fail verdict on every paper claim"),
    "trace": (run_trace, "per-stage span breakdown of one live operation"),
    "metrics": (run_metrics, "Prometheus-style dump of the metrics registry"),
    "shard": (
        run_shard,
        "functional sharded run: routing, live join, epoch retry",
    ),
    "chaos": (
        run_chaos_cmd,
        "seeded fault-injection run with shadow-model verification",
    ),
    "replica": (
        run_replica_cmd,
        "replicated failover chaos run (promotion + client loss detection)",
    ),
    "health": (
        run_health_cmd,
        "windowed SLO report over a deterministic cluster run",
    ),
    "flightrec": (
        run_flightrec_cmd,
        "breach-triggered flight-recorder dump (or --load to replay one)",
    ),
    "traffic": (
        run_traffic_cmd,
        "open-loop scenario run with coordinated-omission-corrected tails",
    ),
    "nearcache": (
        run_nearcache_cmd,
        "open-loop scenario with the client-verified near-cache / "
        "backup-read offload",
    ),
    "autoscale": (
        run_autoscale_cmd,
        "open-loop scenario with the SLO-driven elastic control plane live",
    ),
    "list": (run_list, "describe every command"),
}


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing/docs).

    Options the user does not give stay out of the parsed namespace, so
    each default lives only in the signature of the command's handler.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli",
        description=(
            "Regenerate the evaluation artifacts of 'Precursor' "
            "(Middleware '21)."
        ),
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument(
        "artifact",
        choices=list(_COMMANDS),
        help="artifact or command to run ('list' describes each)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shortened runs (smoke-test quality); gated benches write "
        "bench_reports/<stem>_quick.json",
    )
    parser.add_argument(
        "--out",
        type=pathlib.Path,
        metavar="DIR",
        help="also write each report (and measurement JSON) into DIR",
    )
    parser.add_argument(
        "--csv",
        action="store_true",
        help="with --out: additionally write DIR/<artifact>.csv "
        "(plot-ready data)",
    )
    run = parser.add_argument_group("workload")
    run.add_argument(
        "--ops",
        type=int,
        metavar="N",
        help="workload size (each command has its own default)",
    )
    run.add_argument(
        "--seed",
        type=int,
        metavar="S",
        help="deterministic seed for placement, workload and faults "
        "(default: 11)",
    )
    run.add_argument(
        "--json",
        action="store_true",
        dest="as_json",
        help="emit JSON instead of the text report",
    )
    run.add_argument(
        "--workload",
        choices=["a", "b", "c"],
        help="YCSB mix 'shard' drives through the router (default: b)",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--op",
        choices=["get", "put", "delete"],
        help="operation to trace (default: get)",
    )
    obs.add_argument(
        "--value-size",
        type=int,
        metavar="BYTES",
        help="payload size for the traced operation (default: 128)",
    )
    cluster = parser.add_argument_group(
        "cluster shape (defaults per command in README)"
    )
    cluster.add_argument(
        "--shards",
        type=int,
        metavar="N",
        help="shard count, 1-64 ('chaos' without it: one unsharded server)",
    )
    cluster.add_argument(
        "--replicas",
        type=int,
        metavar="R",
        help="backups per shard (not 'shard')",
    )
    cluster.add_argument(
        "--ack-mode",
        choices=["sync", "semi-sync", "async"],
        help="replication acknowledgement contract, with --replicas >= 1 "
        "(default: sync; not 'shard'/'flightrec')",
    )
    cluster.add_argument(
        "--cache",
        action="store_true",
        dest="near_cache",
        help="'chaos'/'nearcache': enable the client-verified near-cache "
        "on every routing client",
    )
    cluster.add_argument(
        "--offload",
        action="store_true",
        dest="read_offload",
        help="'chaos'/'nearcache': enable freshness-token GET offload to "
        "replica backups (needs --replicas >= 1)",
    )
    cluster.add_argument(
        "--cache-entries",
        type=int,
        metavar="N",
        help="with --cache: near-cache capacity per routing client "
        "(default: 256)",
    )
    cluster.add_argument(
        "--lease-ms",
        type=float,
        dest="cache_lease_ms",
        metavar="MS",
        help="with --cache: near-cache lease length in milliseconds "
        "(default: 25)",
    )
    chaos = parser.add_argument_group("fault injection")
    chaos.add_argument(
        "--schedule",
        metavar="SPEC",
        help="comma-separated 'kind:rate' fault schedule (kinds: drop, "
        "duplicate, delay, corrupt_payload, corrupt_control, qp_error, "
        "enclave_crash, shard_death, replica_lag, "
        "promote_during_migration); defaults: transport mix for 'chaos', "
        "'shard_death:0.05,replica_lag:0.08' for 'replica'",
    )
    health = parser.add_argument_group("telemetry")
    health.add_argument(
        "--slo",
        metavar="SPEC",
        help="comma-separated SLO rules, e.g. "
        "'latency:p99<1ms:min=8,errors:budget=2%%:burn<5,"
        "staleness:lag<32' (default: the built-in spec)",
    )
    health.add_argument(
        "--hot-shard",
        metavar="NAME",
        help="inject a modelled latency fault into NAME's replica group "
        "('auto' picks the first shard; 'health' default: none, "
        "'flightrec' default: auto)",
    )
    health.add_argument(
        "--tick-every",
        type=int,
        metavar="N",
        help="publish a telemetry snapshot every N operations "
        "(default: 40)",
    )
    health.add_argument(
        "--window",
        type=int,
        metavar="T",
        help="sliding-window width in ticks for the per-shard "
        "aggregates (default: 3)",
    )
    health.add_argument(
        "--load",
        type=pathlib.Path,
        metavar="PATH",
        help="with 'flightrec': read an existing dump instead of "
        "running the breach scenario",
    )
    health.add_argument(
        "--trace",
        dest="trace_id",
        metavar="ID",
        help="with 'flightrec --load': reconstruct this trace's causal "
        "hop timeline from the dump",
    )
    traffic = parser.add_argument_group("open-loop traffic")
    traffic.add_argument(
        "--scenario",
        metavar="NAME",
        help="registered scenario name (steady, bursty, diurnal, "
        "flash-crowd, hot-key-storm, multi-tenant-contention; "
        "'traffic' default: steady, 'nearcache' default: hot-key-storm, "
        "'autoscale' default: flash-crowd)",
    )
    traffic.add_argument(
        "--rate",
        type=float,
        metavar="OPS_S",
        help="offered arrival rate override in ops/s of simulated time "
        "(default: the scenario's own rate)",
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
        metavar="SPEC",
        help="comma-separated policy rules, e.g. "
        "'scale-out:p99>2ms:for=2,scale-in:util<25%%:for=8' "
        "(default: the built-in policy)",
    )
    scaler.add_argument(
        "--max-shards",
        type=int,
        metavar="N",
        help="upper bound the stability guard enforces on shard count "
        "(default: 4)",
    )
    return parser


_REPLICATED = frozenset({"shards", "replicas", "ack_mode"})
_READ_PATH = frozenset(
    {"near_cache", "read_offload", "cache_entries", "cache_lease_ms"}
)

#: The cluster-shape options each cluster command takes (parsed names
#: are :class:`ClusterSpec` fields; ``ecall_batch`` has no option): the
#: shape its report describes.  Only 'chaos' and 'nearcache' run the
#: routing client's read path.
_SHAPE_OPTIONS = {
    "shard": frozenset({"shards"}),
    "chaos": _REPLICATED | _READ_PATH,
    "replica": _REPLICATED,
    "health": _REPLICATED,
    "flightrec": frozenset({"shards", "replicas"}),
    "traffic": _REPLICATED,
    "nearcache": _REPLICATED | _READ_PATH,
    "autoscale": _REPLICATED,
}


def _flag(dest: str) -> str:
    """The option string that parses to ``dest``."""
    if dest == "out_dir":
        dest = "out"
    return next(
        a.option_strings[0]
        for a in build_parser()._actions
        if a.dest == dest and a.option_strings
    )


def _call(handler, args: argparse.Namespace) -> "tuple":
    """Call ``handler`` with the given command-line options.

    ``--out`` parses to ``args.out``; every handler names it ``out_dir``.
    Cluster-shape options replace fields of the spec the handler's
    ``cluster`` parameter defaults to, so each command keeps its own
    default shape.  An option the command does not take, or a shape
    option whose feature the resulting spec leaves off, is refused.
    """
    given = dict(vars(args))
    command = given.pop("artifact")
    if "out" in given:
        given["out_dir"] = given.pop("out")
    takes = _SHAPE_OPTIONS.get(command, frozenset())
    shape = {k: given.pop(k) for k in list(given) if k in takes}
    accepted = inspect.signature(handler).parameters
    unused = [k for k in given if k not in accepted]
    if unused:
        raise ConfigurationError(
            f"'{command}' does not take " + ", ".join(map(_flag, unused))
        )
    if shape:
        spec = replace(accepted["cluster"].default, **shape)
        # Options that do nothing with their feature off.
        if "ack_mode" in shape and not spec.replicas:
            raise ConfigurationError("--ack-mode needs --replicas >= 1")
        idle = [k for k in ("cache_entries", "cache_lease_ms") if k in shape]
        if idle and not spec.near_cache:
            raise ConfigurationError(f"{_flag(idle[0])} needs --cache")
        given["cluster"] = spec
    return handler(**given)


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    handler, _ = _COMMANDS[args.artifact]
    try:
        text, code = _call(handler, args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if text is not None:
        print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
