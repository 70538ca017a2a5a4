"""Exporters: JSON-lines traces, Prometheus text exposition, stage tables.

Three consumers, three formats:

- **JSON lines** for machine post-processing: one trace per line,
  round-trippable through :func:`trace_from_json` (timestamps, stages,
  hops, status and attributes all preserved);
- **Prometheus text exposition** (version 0.0.4) for scraping a registry:
  ``# HELP`` / ``# TYPE`` headers, labelled samples, histograms as
  cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``;
- **human-readable tables**: the per-stage latency breakdown a person (or
  the Figure-8 runner) reads.
"""

from __future__ import annotations

import json
import re
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ObservabilityError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.span import Trace, UNTRACKED_STAGE

__all__ = [
    "trace_to_dict",
    "trace_to_json",
    "traces_to_json_lines",
    "trace_from_json",
    "prometheus_text",
    "lint_prometheus",
    "stage_latency_table",
    "stage_breakdown",
]


# ---------------------------------------------------------------------------
# JSON lines
# ---------------------------------------------------------------------------


#: The serialised record of a finished trace (raises on an open one).
trace_to_dict = Trace.to_dict


def trace_to_json(trace: Trace) -> str:
    """One-line JSON encoding of a finished trace."""
    return json.dumps(trace_to_dict(trace), sort_keys=True, separators=(",", ":"))


def traces_to_json_lines(traces: Iterable[Trace]) -> str:
    """Newline-delimited JSON for a batch of traces (trailing newline)."""
    lines = [trace_to_json(t) for t in traces]
    return "\n".join(lines) + ("\n" if lines else "")


def trace_from_json(line: str) -> Trace:
    """Rehydrate one JSON-lines record into a finished :class:`Trace`."""
    try:
        return Trace.from_dict(json.loads(line))
    except (KeyError, TypeError) as exc:
        raise ObservabilityError(f"malformed trace record: {exc}") from exc


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """Escape HELP text per the exposition format (backslash, newline)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _render_labels(labels: Dict[str, str], extra: Dict[str, str] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label_value(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _fmt_value(value) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render a registry in the Prometheus text exposition format."""
    lines: List[str] = []
    for name, kind, help_text, children in registry.collect():
        if help_text:
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
        lines.append(f"# TYPE {name} {kind}")
        for labels, metric in children:
            if isinstance(metric, (Counter, Gauge)):
                lines.append(f"{name}{_render_labels(labels)} {_fmt_value(metric.value)}")
            elif isinstance(metric, Histogram):
                for upper, cumulative in metric.bucket_counts():
                    label_str = _render_labels(labels, {"le": str(upper)})
                    lines.append(f"{name}_bucket{label_str} {cumulative}")
                inf_labels = _render_labels(labels, {"le": "+Inf"})
                lines.append(f"{name}_bucket{inf_labels} {metric.count}")
                lines.append(f"{name}_sum{_render_labels(labels)} {metric.sum}")
                lines.append(f"{name}_count{_render_labels(labels)} {metric.count}")
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{[^}]*\})?"
    r" (?P<value>[^ ]+)( [0-9]+)?$"
)

# One label pair; the *name* part is deliberately loose so invalid names
# are reported as such rather than as an opaque parse failure.
_LABEL_PAIR_RE = re.compile(r'(?P<name>[^=,{}]*)="(?P<value>(?:[^"\\]|\\.)*)"')

#: The escape sequences the exposition format defines for quoted label
#: values; anything else after a backslash is a lint problem.
_VALID_VALUE_ESCAPES = ("\\", '"', "n")


def _lint_escapes(
    text: str, where: str, lineno: int, problems: List[str],
    valid: Tuple[str, ...] = _VALID_VALUE_ESCAPES,
) -> None:
    """Flag backslash escapes outside the format's defined set."""
    i = 0
    while i < len(text):
        if text[i] == "\\":
            nxt = text[i + 1] if i + 1 < len(text) else ""
            if nxt not in valid:
                problems.append(
                    f"line {lineno}: invalid escape '\\{nxt}' in {where}"
                )
            i += 2
        else:
            i += 1


def _lint_label_block(
    block: str, lineno: int, problems: List[str]
) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Validate one ``{k="v",...}`` block; returns the canonical pairs.

    Appends problems (and returns ``None`` on a parse failure) for the
    things a scraper would reject or silently misread: unparseable
    syntax, invalid or reserved (``__``-prefixed) label names, and the
    same label name appearing twice in one sample.
    """
    inner = block[1:-1]
    pairs: List[Tuple[str, str]] = []
    seen: set = set()
    pos = 0
    while pos < len(inner):
        match = _LABEL_PAIR_RE.match(inner, pos)
        if not match:
            problems.append(
                f"line {lineno}: malformed label block {block!r}"
            )
            return None
        name = match.group("name")
        if not _LABEL_RE.match(name):
            problems.append(f"line {lineno}: invalid label name {name!r}")
        elif name.startswith("__"):
            problems.append(f"line {lineno}: reserved label name {name!r}")
        if name in seen:
            problems.append(f"line {lineno}: duplicate label name {name!r}")
        seen.add(name)
        _lint_escapes(
            match.group("value"), f"label {name!r}", lineno, problems
        )
        pairs.append((name, match.group("value")))
        pos = match.end()
        if pos < len(inner):
            if inner[pos] != ",":
                problems.append(
                    f"line {lineno}: malformed label block {block!r}"
                )
                return None
            pos += 1
    return tuple(sorted(pairs))


def lint_prometheus(text: str, require_help: bool = False) -> List[str]:
    """Validate Prometheus text exposition; returns a list of problems.

    Checks the properties scrapers actually depend on: name syntax, TYPE
    before samples, parseable values, per-series monotone cumulative
    histogram buckets ending in ``+Inf``, valid escape sequences in HELP
    text and quoted label values, and -- for labelled series -- valid,
    non-reserved, non-repeated label names plus at most one sample per
    distinct ``(name, labels)`` series.  With ``require_help=True``,
    every family that has samples must also carry a ``# HELP`` line
    (the registry-backed exporters always emit one; hand-written
    fixtures may not, hence the default stays lenient).
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    helped: set = set()  # names with a HELP line
    sampled: Dict[str, int] = {}  # base family name -> first sample line
    bucket_state: Dict[str, Tuple[float, float]] = {}  # series -> (last le, last count)
    seen_series: set = set()  # (name, canonical labels) already sampled
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line:
            problems.append(f"line {lineno}: blank line")
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                problems.append(f"line {lineno}: malformed comment {line!r}")
            elif parts[1] == "TYPE":
                if len(parts) < 4 or parts[3] not in (
                    "counter", "gauge", "histogram", "summary", "untyped"
                ):
                    problems.append(f"line {lineno}: bad TYPE {line!r}")
                else:
                    typed[parts[2]] = parts[3]
            else:  # HELP
                helped.add(parts[2])
                if len(parts) == 4:
                    _lint_escapes(
                        parts[3], "HELP text", lineno, problems,
                        valid=("\\", "n"),
                    )
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if not match:
            problems.append(f"line {lineno}: unparseable sample {line!r}")
            continue
        name = match.group("name")
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if base not in typed and name not in typed:
            problems.append(f"line {lineno}: sample {name!r} before its TYPE")
        family = base if base in typed else name
        sampled.setdefault(family, lineno)
        try:
            value = float(match.group("value"))
        except ValueError:
            problems.append(f"line {lineno}: bad value {match.group('value')!r}")
            continue
        labels = match.group("labels") or ""
        canonical: Tuple[Tuple[str, str], ...] = ()
        if labels:
            parsed = _lint_label_block(labels, lineno, problems)
            if parsed is None:
                continue
            canonical = parsed
        if (name, canonical) in seen_series:
            problems.append(
                f"line {lineno}: duplicate sample for {name}{labels}"
            )
        seen_series.add((name, canonical))
        if name.endswith("_bucket"):
            le_match = re.search(r'le="([^"]*)"', labels)
            if not le_match:
                problems.append(f"line {lineno}: bucket without le label")
                continue
            le_raw = le_match.group(1)
            le = float("inf") if le_raw == "+Inf" else float(le_raw)
            series = base + re.sub(r'le="[^"]*",?', "", labels)
            last_le, last_count = bucket_state.get(series, (float("-inf"), 0.0))
            if le <= last_le:
                problems.append(f"line {lineno}: le not increasing for {series}")
            if value < last_count:
                problems.append(
                    f"line {lineno}: cumulative count decreased for {series}"
                )
            bucket_state[series] = (le, value)
    for series, (last_le, _count) in bucket_state.items():
        if last_le != float("inf"):
            problems.append(f"series {series}: missing +Inf bucket")
    if require_help:
        for family, lineno in sorted(sampled.items(), key=lambda kv: kv[1]):
            if family not in helped:
                problems.append(
                    f"line {lineno}: family {family!r} sampled without HELP"
                )
    return problems


# ---------------------------------------------------------------------------
# Human-readable stage tables
# ---------------------------------------------------------------------------


def stage_breakdown(
    traces: Sequence[Trace],
    group_by: Sequence[str] = (),
) -> Dict[tuple, Dict[str, float]]:
    """Mean per-stage duration (ns) grouped by trace attributes.

    ``group_by`` names trace attributes; ``ok`` traces sharing those
    attribute values are averaged together (a failed operation's stages
    stop where it failed).  Returns ``{group key: {stage: mean ns}}``
    (the group key is the tuple of attribute values, ``()`` when ungrouped).
    """
    sums: Dict[tuple, Dict[str, float]] = {}
    counts: Dict[tuple, int] = {}
    for trace in traces:
        if trace.status != "ok":
            continue
        key = tuple(trace.attrs.get(attr) for attr in group_by)
        bucket = sums.setdefault(key, {})
        for name, duration in trace.stage_durations().items():
            bucket[name] = bucket.get(name, 0.0) + duration
        counts[key] = counts.get(key, 0) + 1
    return {
        key: {name: total / counts[key] for name, total in bucket.items()}
        for key, bucket in sums.items()
    }


def stage_latency_table(
    traces: Sequence[Trace], title: str = "Per-stage latency breakdown"
) -> str:
    """Render mean/min/max per-stage durations and end-to-end shares.

    Reads the ``ok`` traces only, as :func:`stage_breakdown` does.
    """
    finished = [t for t in traces if t.status == "ok"]
    if not finished:
        return f"{title}\n(no traces recorded)"
    stage_sums: Dict[str, int] = {}
    stage_mins: Dict[str, int] = {}
    stage_maxs: Dict[str, int] = {}
    stage_counts: Dict[str, int] = {}
    order: List[str] = []
    total_e2e = 0
    for trace in finished:
        total_e2e += trace.total_ns
        for name, duration in trace.stage_durations().items():
            if name not in stage_sums:
                order.append(name)
                stage_sums[name] = 0
                stage_mins[name] = duration
                stage_maxs[name] = duration
                stage_counts[name] = 0
            stage_sums[name] += duration
            stage_counts[name] += 1
            stage_mins[name] = min(stage_mins[name], duration)
            stage_maxs[name] = max(stage_maxs[name], duration)
    header = f"{'stage':<28}{'mean us':>12}{'min us':>12}{'max us':>12}{'share':>9}"
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for name in order:
        mean_ns = stage_sums[name] / stage_counts[name]
        share = stage_sums[name] / total_e2e if total_e2e else 0.0
        lines.append(
            f"{name:<28}"
            f"{mean_ns / 1000:>12.3f}"
            f"{stage_mins[name] / 1000:>12.3f}"
            f"{stage_maxs[name] / 1000:>12.3f}"
            f"{share:>8.1%}"
        )
    lines.append("-" * len(header))
    mean_total = total_e2e / len(finished)
    lines.append(
        f"{'end-to-end':<28}{mean_total / 1000:>12.3f}"
        f"{'':>12}{'':>12}{1:>8.0%}"
    )
    lines.append(
        f"({len(finished)} trace(s); durations tile end-to-end exactly, "
        f"'{UNTRACKED_STAGE}' covers instrumentation gaps)"
    )
    return "\n".join(lines)
