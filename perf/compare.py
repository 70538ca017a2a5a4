"""Compare benchmark results of a parent commit and a change.

Usage::

    python -m perf.compare --parent p1.json p2.json ... --change c1.json c2.json ...

Each file is one ``python -m perf.run --out FILE`` result.  For every
workload x end-to-end metric it prints both sides' medians and
quartiles and one verdict:

- *better*: the change wins at least 9 of 10 pairs (files paired in the
  order given, ties counting for neither side) and the medians differ
  by more than the parent's inter-quartile range;
- *unresolved*: either side's run-to-run spread (IQR / median) is wider
  than the metric's bound, and not every change run beats every parent
  run;
- *worse*: the change's median is worse than the parent's by more than
  the bound (``error_rate``: any change run worse than every parent
  run);
- *within bound* otherwise.

Runs are comparable only if they measured the same way on the same
host shape: every file's manifest must agree on :data:`MATCHING`.
Exits 2 when they do not (or a file has no manifest), 1 when any
verdict is *worse*, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from perf.run import ERROR_RATE, benchmark_spec

__all__ = ["MATCHING", "quartiles", "verdict", "compare", "main"]

#: Manifest fields every compared file must share.
MATCHING = (
    "seconds",
    "block_ops",
    "warmup_s",
    "setups",
    "workload_specs_sha256",
    "nproc",
)

BETTER = "better"
WITHIN = "within bound"
WORSE = "worse"
UNRESOLVED = "unresolved"


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _spread(values: Sequence[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(
    parent: Sequence[float], change: Sequence[float], better: str, bound: float
) -> str:
    """One verdict for one metric; see the module docstring."""
    sign = 1 if better == "higher" else -1
    p_q1, p_med, p_q3 = quartiles(parent)
    _, c_med, _ = quartiles(change)
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and sign * (c_med - p_med) > p_q3 - p_q1
    ):
        return BETTER
    if bound == 0:
        # An exact metric (error_rate): one run worse than every parent
        # run is a regression, whatever the medians say.
        worse = min(sign * c for c in change) < min(sign * p for p in parent)
        return WORSE if worse else WITHIN
    all_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if not all_better and max(_spread(parent), _spread(change)) > bound:
        return UNRESOLVED
    worse = sign * (c_med - p_med) < -bound * abs(p_med)
    return WORSE if worse else WITHIN


def _load(paths: Sequence[Path]) -> Tuple[Dict[str, Dict[str, List[float]]], List[dict]]:
    """(workload -> metric -> values, one value per file; the manifests)."""
    values: Dict[str, Dict[str, List[float]]] = {}
    manifests = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if "manifest" not in doc:
            raise ValueError(f"{path}: no manifest")
        manifests.append(doc["manifest"])
        for workload, result in doc["results"].items():
            for metric, m in result.get("end_to_end", {}).items():
                values.setdefault(workload, {}).setdefault(metric, []).append(
                    m["value"]
                )
    return values, manifests


def _check_manifests(manifests: Sequence[dict]) -> None:
    """Raise ValueError unless every manifest agrees on :data:`MATCHING`."""
    for field in MATCHING:
        seen = {json.dumps(m.get(field)) for m in manifests}
        if len(seen) > 1:
            raise ValueError(f"runs differ in {field}: {', '.join(sorted(seen))}")


def compare(parent_paths: Sequence[Path], change_paths: Sequence[Path]) -> List[dict]:
    """One row per workload x end-to-end metric present on both sides.

    Raises ValueError when the files' manifests do not match.
    """
    metrics = benchmark_spec()["end_to_end"] + [ERROR_RATE]
    parent, parent_manifests = _load(parent_paths)
    change, change_manifests = _load(change_paths)
    _check_manifests(parent_manifests + change_manifests)
    rows = []
    for workload in sorted(set(parent) & set(change)):
        for m in metrics:
            p = parent[workload].get(m["name"])
            c = change[workload].get(m["name"])
            if not p or not c:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": m["name"],
                    "unit": m["unit"],
                    "bound": m["bound"],
                    "parent": quartiles(p),
                    "change": quartiles(c),
                    "verdict": verdict(p, c, m["better"], m["bound"]),
                }
            )
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", nargs="+", type=Path, required=True)
    parser.add_argument("--change", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    try:
        rows = compare(args.parent, args.change)
    except ValueError as exc:
        print(f"perf.compare: {exc}", file=sys.stderr)
        return 2
    print(
        f"{'workload':<24} {'metric':<20} {'unit':<9} "
        f"{'parent Q1/med/Q3':>32} {'change Q1/med/Q3':>32}  bound  verdict"
    )
    for row in rows:
        p = "/".join(f"{v:.4g}" for v in row["parent"])
        c = "/".join(f"{v:.4g}" for v in row["change"])
        print(
            f"{row['workload']:<24} {row['metric']:<20} {row['unit']:<9} "
            f"{p:>32} {c:>32}  {row['bound']:>5.0%}  {row['verdict']}"
        )
    return 1 if any(row["verdict"] == WORSE for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
