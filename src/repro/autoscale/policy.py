"""The declarative autoscaling policy grammar and its evaluation engine.

Policies are written in the same compact comma-separated style as the
SLO grammar (:mod:`repro.obs.slo`) so they can ride a CLI flag::

    scale-out:p99>2ms:for=2,scale-in:util<25%:for=8

Four rule kinds, one per actuator verb:

``scale-out:METRIC>LIMIT[:for=N][:shard=GLOB]``
    Add a shard when a matching shard's windowed ``METRIC`` exceeds
    ``LIMIT`` for ``N`` consecutive ticks.  Metrics: ``p99`` (duration
    with ns/us/ms/s units), ``queue`` (ring entries), ``epc`` (bytes,
    ``KiB``/``MiB`` accepted), ``lag`` (replication-log records).

``scale-in:util<P%[:for=N]``
    Remove the least-pressured shard when **every** shard's smoothed
    pressure score (see :mod:`repro.autoscale.signals`) has stayed
    below ``P%`` of the scale-out threshold for ``N`` consecutive
    ticks.  The gap between the scale-out limits and the scale-in
    fraction is the hysteresis band; the stability guard adds cooldowns
    on top.

``replica-out:lag>N[:for=K][:shard=GLOB]``
    Grow a shard's replica group when its replication lag exceeds
    ``N`` records for ``K`` consecutive ticks.

``replica-in:lag<N[:for=K][:shard=GLOB]``
    Shrink a shard's replica group back toward the configured floor
    once its lag has stayed under ``N`` for ``K`` ticks.

``for`` defaults to 1; ``shard`` is an :func:`fnmatch.fnmatch` glob
defaulting to ``*``.  Directions are fixed per kind (out-rules use
``>``, in-rules use ``<``) so a spec cannot accidentally invert its
hysteresis.  :func:`parse_policy` raises
:class:`~repro.errors.ConfigurationError` on any malformed rule, so a
bad ``--policy`` flag fails fast with exit code 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatch
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.obs.telemetry import ClusterTelemetry

__all__ = [
    "DEFAULT_POLICY_SPEC",
    "PolicyRule",
    "Proposal",
    "PolicyEngine",
    "parse_policy",
]

#: Default elastic policy: scale out well before the 5 ms traffic SLO
#: burns, scale back in only after a long quiet spell far below the
#: out-threshold (the hysteresis band), and keep replica groups sized
#: to their replication lag.
DEFAULT_POLICY_SPEC = (
    "scale-out:p99>2ms:for=2,scale-in:util<25%:for=8,"
    "replica-out:lag>24:for=3,replica-in:lag<2:for=8"
)

#: Rule kinds in actuation-priority order (pressure relief first).
RULE_KINDS = ("scale-out", "replica-out", "scale-in", "replica-in")

_UNITS_NS = {"ns": 1, "us": 1_000, "ms": 1_000_000, "s": 1_000_000_000}
_UNITS_BYTES = {"B": 1, "KiB": 1024, "MiB": 1024 * 1024}

#: Which metrics each rule kind accepts, and the comparison it implies.
_KIND_METRICS = {
    "scale-out": ("p99", "queue", "epc", "lag"),
    "scale-in": ("util",),
    "replica-out": ("lag",),
    "replica-in": ("lag",),
}
_KIND_OPS = {
    "scale-out": ">",
    "scale-in": "<",
    "replica-out": ">",
    "replica-in": "<",
}


def _parse_duration_ns(text: str, rule_text: str) -> float:
    for unit, scale in sorted(_UNITS_NS.items(), key=lambda kv: -len(kv[0])):
        if text.endswith(unit):
            try:
                return float(text[: -len(unit)]) * scale
            except ValueError:
                break
    raise ConfigurationError(
        f"bad duration {text!r} in rule {rule_text!r} "
        "(expected e.g. 800us, 2ms)"
    )


def _parse_bytes(text: str, rule_text: str) -> float:
    for unit, scale in sorted(
        _UNITS_BYTES.items(), key=lambda kv: -len(kv[0])
    ):
        if text.endswith(unit):
            try:
                return float(text[: -len(unit)]) * scale
            except ValueError:
                break
    try:
        return float(text)
    except ValueError:
        raise ConfigurationError(
            f"bad byte size {text!r} in rule {rule_text!r} "
            "(expected e.g. 4096, 64KiB, 1MiB)"
        )


@dataclass(frozen=True)
class PolicyRule:
    """One parsed autoscaling objective."""

    kind: str  # one of RULE_KINDS
    metric: str  # p99 | queue | epc | lag | util
    limit: float  # canonical unit: ns / count / bytes / fraction
    for_ticks: int = 1
    shard: str = "*"
    raw: str = ""  # the spec's own METRIC>LIMIT text, for display

    @property
    def name(self) -> str:
        """Stable short name used in decision records."""
        op = _KIND_OPS[self.kind]
        clause = self.raw or f"{self.metric}{op}{self.limit:g}"
        core = f"{self.kind}:{clause}"
        if self.for_ticks != 1:
            core += f":for={self.for_ticks}"
        if self.shard != "*":
            core += f":shard={self.shard}"
        return core

    def matches(self, shard: str) -> bool:
        """Whether this rule applies to ``shard``."""
        return fnmatch(shard, self.shard)


def parse_policy(spec: str) -> List[PolicyRule]:
    """Parse a comma-separated policy spec into rules (see module doc)."""
    rules: List[PolicyRule] = []
    for rule_text in (piece.strip() for piece in spec.split(",")):
        if not rule_text:
            continue
        parts = rule_text.split(":")
        kind = parts[0]
        if kind not in RULE_KINDS:
            raise ConfigurationError(
                f"unknown policy rule kind {kind!r} in {rule_text!r} "
                f"(known: {', '.join(RULE_KINDS)})"
            )
        op = _KIND_OPS[kind]
        metric = limit_text = None
        for_ticks = 1
        shard = "*"
        if len(parts) < 2:
            raise ConfigurationError(
                f"rule {rule_text!r} needs a METRIC{op}LIMIT clause"
            )
        for part in parts[1:]:
            if "=" in part:
                key, _, value = part.partition("=")
                if key == "for":
                    try:
                        for_ticks = int(value)
                    except ValueError:
                        raise ConfigurationError(
                            f"bad for={value!r} in rule {rule_text!r}"
                        )
                    if for_ticks < 1:
                        raise ConfigurationError(
                            f"for= must be >= 1 in rule {rule_text!r}"
                        )
                elif key == "shard":
                    if not value:
                        raise ConfigurationError(
                            f"empty shard= glob in rule {rule_text!r}"
                        )
                    shard = value
                else:
                    raise ConfigurationError(
                        f"unknown clause {key!r} in rule {rule_text!r}"
                    )
            elif op in part:
                key, _, value = part.partition(op)
                if metric is not None:
                    raise ConfigurationError(
                        f"rule {rule_text!r} names two metrics"
                    )
                metric, limit_text = key, value
            else:
                wrong = "<" if op == ">" else ">"
                if wrong in part:
                    raise ConfigurationError(
                        f"rule {rule_text!r}: {kind} thresholds use "
                        f"{op!r}, not {wrong!r}"
                    )
                raise ConfigurationError(
                    f"bad clause {part!r} in rule {rule_text!r}"
                )
        if metric is None or not limit_text:
            raise ConfigurationError(
                f"rule {rule_text!r} needs a METRIC{op}LIMIT clause"
            )
        if metric not in _KIND_METRICS[kind]:
            raise ConfigurationError(
                f"rule {rule_text!r}: {kind} accepts "
                f"{', '.join(_KIND_METRICS[kind])}, not {metric!r}"
            )
        if metric == "p99":
            limit = _parse_duration_ns(limit_text, rule_text)
        elif metric == "epc":
            limit = _parse_bytes(limit_text, rule_text)
        elif metric == "util":
            if not limit_text.endswith("%"):
                raise ConfigurationError(
                    f"util threshold needs a percent (e.g. util<30%) "
                    f"in rule {rule_text!r}"
                )
            try:
                limit = float(limit_text[:-1]) / 100.0
            except ValueError:
                raise ConfigurationError(
                    f"bad percent {limit_text!r} in rule {rule_text!r}"
                )
        else:  # queue / lag: plain counts
            try:
                limit = float(limit_text)
            except ValueError:
                raise ConfigurationError(
                    f"bad threshold {limit_text!r} in rule {rule_text!r}"
                )
        if limit <= 0:
            raise ConfigurationError(
                f"threshold must be positive in rule {rule_text!r}"
            )
        rules.append(
            PolicyRule(
                kind=kind,
                metric=metric,
                limit=limit,
                for_ticks=for_ticks,
                shard=shard,
                raw=f"{metric}{op}{limit_text}",
            )
        )
    if not rules:
        raise ConfigurationError(f"policy spec {spec!r} contains no rules")
    return rules


@dataclass(frozen=True)
class Proposal:
    """One action a rule wants taken this tick (pre-guard)."""

    action: str  # rule kind
    shard: Optional[str]  # target (None for scale-out: the joiner is new)
    rule: str  # rule name that fired
    value: float  # observed metric value
    limit: float  # the rule's threshold
    streak: int  # consecutive ticks the condition has held


def _metric_value(sample, metric: str) -> float:
    if metric == "p99":
        return float(sample.p99_ns)
    if metric == "queue":
        return float(sample.queue_depth)
    if metric == "epc":
        return float(sample.epc_bytes)
    return float(sample.replication_lag)  # lag


class PolicyEngine:
    """Tracks per-rule condition streaks and emits proposals.

    Streaks require *consecutive* ticks: one tick below threshold
    resets the counter, which is what makes ``for=N`` a debounce
    rather than a leaky bucket.  Scale-in is deliberately
    cluster-scoped -- the condition must hold on **every** shard at
    once, and the proposal targets the least-pressured shard -- so a
    single hot shard vetoes shrinking even when its siblings are idle.
    """

    def __init__(self, rules: List[PolicyRule]):
        if not rules:
            raise ConfigurationError("PolicyEngine needs at least one rule")
        self.rules = list(rules)
        #: (rule name, shard) -> consecutive ticks the condition held.
        self._streaks: Dict[Tuple[str, str], int] = {}

    @classmethod
    def from_spec(cls, spec: Optional[str] = None) -> "PolicyEngine":
        """Build an engine from a spec string (defaults when None)."""
        return cls(parse_policy(spec if spec else DEFAULT_POLICY_SPEC))

    def out_references(self) -> Dict[str, float]:
        """Scale-out thresholds per metric (the pressure normalizers)."""
        refs: Dict[str, float] = {}
        for rule in self.rules:
            if rule.kind == "scale-out":
                refs.setdefault(rule.metric, rule.limit)
        return refs

    def _bump(self, key: Tuple[str, str], held: bool) -> int:
        if not held:
            self._streaks.pop(key, None)
            return 0
        streak = self._streaks.get(key, 0) + 1
        self._streaks[key] = streak
        return streak

    def evaluate(
        self,
        snapshot: ClusterTelemetry,
        pressures: Dict[str, float],
    ) -> List[Proposal]:
        """Advance streaks against ``snapshot``; return ripe proposals.

        ``pressures`` are the signal plane's smoothed per-shard scores
        (the ``util`` metric).  Proposals come back in
        :data:`RULE_KINDS` priority order -- pressure relief before
        shrinking -- and at most one per rule per tick.
        """
        shard_names = sorted(snapshot.shards)
        proposals: List[Proposal] = []
        for rule in self.rules:
            if rule.kind == "scale-in":
                matching = shard_names
                if not matching:
                    self._bump((rule.name, "*"), False)
                    continue
                values = [pressures.get(name, 0.0) for name in matching]
                held = all(value < rule.limit for value in values)
                streak = self._bump((rule.name, "*"), held)
                if held and streak >= rule.for_ticks:
                    quietest = min(
                        matching, key=lambda n: (pressures.get(n, 0.0), n)
                    )
                    proposals.append(
                        Proposal(
                            action="scale-in",
                            shard=quietest,
                            rule=rule.name,
                            value=max(values),
                            limit=rule.limit,
                            streak=streak,
                        )
                    )
                continue
            # Per-shard rules: scale-out / replica-out / replica-in.
            ripe: List[Proposal] = []
            for name in shard_names:
                if not rule.matches(name):
                    continue
                sample = snapshot.shards[name]
                value = _metric_value(sample, rule.metric)
                if _KIND_OPS[rule.kind] == ">":
                    held = value > rule.limit
                else:
                    held = value < rule.limit
                streak = self._bump((rule.name, name), held)
                if held and streak >= rule.for_ticks:
                    ripe.append(
                        Proposal(
                            action=rule.kind,
                            shard=None if rule.kind == "scale-out" else name,
                            rule=rule.name,
                            value=value,
                            limit=rule.limit,
                            streak=streak,
                        )
                    )
            if not ripe:
                continue
            # One proposal per rule per tick: the worst offender wins
            # (highest value for out-rules, lowest for in-rules), with
            # the shard name as a deterministic tie-break.
            if _KIND_OPS[rule.kind] == ">":
                best = max(ripe, key=lambda p: (p.value, p.shard or ""))
            else:
                best = min(ripe, key=lambda p: (p.value, p.shard or ""))
            proposals.append(best)
        proposals.sort(key=lambda p: RULE_KINDS.index(p.action))
        return proposals
