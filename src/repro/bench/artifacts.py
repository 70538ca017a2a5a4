"""The artifact registry: every figure, table and bench the CLI regenerates.

One :class:`Artifact` per name holds the runner, a one-line description,
the stem of the ``BENCH_*.json`` measurement file (gated benches only)
and whether :func:`repro.bench.export.to_csv` exports its plot data.
``python -m repro.cli NAME`` runs one entry, ``all`` runs every entry and
``list`` describes them.

:func:`write_artifact` is the one place an artifact's files are written:

- a full run writes ``<stem>.json`` to the working directory -- the repo
  root, next to the committed measurements;
- ``--quick`` writes ``bench_reports/<stem>_quick.json`` instead, so smoke
  runs never clobber a committed file;
- ``--out DIR`` sends the JSON and ``<name>.txt`` (plus ``<name>.csv``
  with ``--csv``) to ``DIR``.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

from repro.bench import experiments, extensions
from repro.bench.ablations import run_ablations
from repro.bench.autoscale import run_autoscalebench
from repro.bench.batching import run_batchbench
from repro.bench.cryptobench import run_cryptobench
from repro.bench.export import to_csv
from repro.bench.faulttail import run_faulttail
from repro.bench.loadknee import run_loadknee
from repro.bench.nearcache import run_nearcachebench
from repro.bench.replicate import run_replication
from repro.bench.scaleout import run_scaleout
from repro.bench.scorecard import run_scorecard

__all__ = ["ARTIFACTS", "Artifact", "write_artifact"]


@dataclass(frozen=True)
class Artifact:
    """One regenerable artifact.

    ``run(quick=...)`` returns a result with ``report()``; results that
    check bounds expose ``exit_code``, and those of gated benches also
    ``to_dict()``.
    """

    run: Callable[..., Any]
    description: str
    stem: Optional[str] = None
    csv: bool = False


ARTIFACTS: Dict[str, Artifact] = {
    "fig1": Artifact(
        experiments.run_fig1,
        "crypto decrypt+encrypt throughput vs 40 Gbit RDMA line rate",
        csv=True,
    ),
    "fig4": Artifact(
        experiments.run_fig4,
        "throughput vs read ratio (YCSB mixes, 32 B, 50 clients)",
        csv=True,
    ),
    "fig5": Artifact(
        experiments.run_fig5,
        "throughput vs value size, read-only + update-mostly",
        csv=True,
    ),
    "fig6": Artifact(
        experiments.run_fig6,
        "read-only throughput vs client count (10-100)",
        csv=True,
    ),
    "fig7": Artifact(
        experiments.run_fig7,
        "get() latency CDFs incl. the EPC-paging run",
        csv=True,
    ),
    "fig8": Artifact(
        experiments.run_fig8,
        "get() latency breakdown: networking vs server processing",
        csv=True,
    ),
    "table1": Artifact(
        experiments.run_table1,
        "EPC working set at 0/1/100k inserted keys",
        csv=True,
    ),
    "ablations": Artifact(
        run_ablations,
        "what each design choice contributes, one bounded line each",
    ),
    "ext-zipf": Artifact(
        extensions.run_ext_zipfian,
        "extension: throughput under uniform vs zipfian key popularity",
    ),
    "ext-epc": Artifact(
        extensions.run_ext_epc_sweep,
        "extension: EPC paging onset and tail latency vs dataset size",
    ),
    "ext-inline": Artifact(
        extensions.run_ext_inline,
        "extension: the §5.2 inline-small-values trade-off, modelled",
    ),
    "scorecard": Artifact(
        run_scorecard, "pass/fail verdict on every paper claim"
    ),
    "scaleout": Artifact(
        run_scaleout,
        "throughput/latency + EPC working set vs shard count (1-8)",
        csv=True,
    ),
    "faulttail": Artifact(
        run_faulttail,
        "get() tail latency vs transport fault rate (retry cost)",
        csv=True,
    ),
    "replicate": Artifact(
        run_replication,
        "failover latency + acked-write loss vs replication ack mode",
        stem="BENCH_replication",
        csv=True,
    ),
    "loadknee": Artifact(
        run_loadknee,
        "SLO-bounded throughput knee + corrected-vs-uncorrected tails "
        "per shard topology",
        stem="BENCH_traffic",
    ),
    "nearcachebench": Artifact(
        run_nearcachebench,
        "near-cache + backup-read-offload knee shift, primary-GET shed "
        "and state-equivalence gates",
        stem="BENCH_nearcache",
    ),
    "autoscalebench": Artifact(
        run_autoscalebench,
        "elastic-vs-static knee grid, flash-crowd SLO recovery, "
        "shard-ms dividend + zero-flapping gates",
        stem="BENCH_autoscale",
    ),
    "cryptobench": Artifact(
        run_cryptobench,
        "wall-clock reference-vs-fast crypto engine benchmark",
        stem="BENCH_crypto",
    ),
    "batchbench": Artifact(
        run_batchbench,
        "wall-clock request pipeline benchmark (K-frame drain vs K=1)",
        stem="BENCH_batching",
    ),
}


def write_artifact(
    name: str,
    result: Any,
    quick: bool = False,
    out_dir: Optional[pathlib.Path] = None,
    csv: bool = False,
) -> str:
    """Write ``result``'s files by the path rule above; return its report."""
    entry = ARTIFACTS[name]
    text = result.report()
    if entry.stem is not None:
        if out_dir is not None:
            directory = out_dir
        else:
            directory = pathlib.Path("bench_reports" if quick else ".")
        path = directory / f"{entry.stem}{'_quick' if quick else ''}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(
            json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"
        )
        text += f"\n[measurements saved to {path}]"
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / f"{name}.txt").write_text(text + "\n")
        if csv and entry.csv:
            (out_dir / f"{name}.csv").write_text(to_csv(result))
    return text
