"""Plain-text reporting and the one verdict shape of every bench.

Every experiment renders to an ASCII table with a ``paper`` column next to
the simulated/measured one, so EXPERIMENTS.md (and CI logs) show the
comparison at a glance.

Every result that checks itself -- the ablations, the extensions and the
gated ``BENCH_*.json`` benches -- is a :class:`Bounded`: one map from
statement to :class:`Bound`, read by the exit code, the JSON verdict and
the ``FAILED bound:`` lines alike.
"""

from __future__ import annotations

from typing import Any, Dict, NamedTuple, Optional, Sequence

__all__ = [
    "Bound",
    "Bounded",
    "above",
    "at_least",
    "at_most",
    "below",
    "equal",
    "format_table",
    "format_ratio",
    "Series",
]


class Bound(NamedTuple):
    """One checked statement: the measured value, its threshold, the verdict.

    The comparators below build one; a value of None -- unmeasured,
    because the run stopped first -- never holds.
    """

    value: Any
    bound: Any
    held: bool


def at_least(value: Any, bound: Any) -> Bound:
    """``value >= bound``."""
    return Bound(value, bound, value is not None and value >= bound)


def at_most(value: Any, bound: Any) -> Bound:
    """``value <= bound``."""
    return Bound(value, bound, value is not None and value <= bound)


def above(value: Any, bound: Any) -> Bound:
    """``value > bound``."""
    return Bound(value, bound, value is not None and value > bound)


def below(value: Any, bound: Any) -> Bound:
    """``value < bound``."""
    return Bound(value, bound, value is not None and value < bound)


def equal(value: Any, bound: Any) -> Bound:
    """``value == bound``."""
    return Bound(value, bound, value is not None and value == bound)


class Bounded:
    """A result checked against fixed bounds.

    :meth:`bounds` maps each statement -- a check and its threshold,
    never a measured value, so the keys are the same on every run -- to
    its :class:`Bound`.  By default that is the ``checks`` map the runner
    fills in as it measures; a result that derives its bounds from its
    own data overrides :meth:`bounds` instead.
    """

    checks: Dict[str, Bound]

    def bounds(self) -> Dict[str, Bound]:
        """Each bound's statement, mapped to its value, bound and verdict."""
        return self.checks

    @property
    def ok(self) -> bool:
        """True when every bound holds."""
        return all(b.held for b in self.bounds().values())

    @property
    def exit_code(self) -> int:
        """0 when every bound holds, 1 otherwise."""
        return 0 if self.ok else 1

    def verdict(self) -> Dict[str, Any]:
        """The JSON verdict: every bound, and whether all of them held."""
        return {
            "bounds": {s: b._asdict() for s, b in self.bounds().items()},
            "ok": self.ok,
        }

    def failed_bounds(self) -> str:
        """One ``FAILED bound:`` line per bound this run breaks."""
        return "".join(
            f"\nFAILED bound: {statement}"
            for statement, bound in self.bounds().items()
            if not bound.held
        )


class Series:
    """One labelled column of numbers."""

    def __init__(self, label: str, values: Sequence[float]):
        self.label = label
        self.values = list(values)

    def __len__(self) -> int:
        return len(self.values)


def _fmt(value, width: int) -> str:
    if value is None:
        return " " * (width - 1) + "-"
    if isinstance(value, float):
        if value >= 100:
            text = f"{value:,.0f}"
        elif value >= 1:
            text = f"{value:,.1f}"
        else:
            text = f"{value:.3f}"
    else:
        text = str(value)
    return text.rjust(width)


def format_table(
    title: str,
    row_labels: Sequence,
    columns: Sequence[Series],
    row_header: str = "",
) -> str:
    """Render labelled rows x labelled columns as a fixed-width table."""
    width = max(
        12, max((len(c.label) for c in columns), default=12) + 2
    )
    label_width = max(
        len(row_header), max((len(str(r)) for r in row_labels), default=8)
    ) + 2
    lines = [title, "=" * len(title)]
    header = row_header.ljust(label_width) + "".join(
        c.label.rjust(width) for c in columns
    )
    lines.append(header)
    lines.append("-" * len(header))
    for i, label in enumerate(row_labels):
        cells = []
        for column in columns:
            value = column.values[i] if i < len(column.values) else None
            cells.append(_fmt(value, width))
        lines.append(str(label).ljust(label_width) + "".join(cells))
    return "\n".join(lines)


def format_ratio(numerator: float, denominator: float) -> str:
    """Human-readable speedup like '8.3x'."""
    if denominator <= 0:
        return "inf"
    return f"{numerator / denominator:.1f}x"


def paper_column(values: Sequence[Optional[float]]) -> Series:
    """A column of the paper's reported numbers (None = unreadable)."""
    return Series("paper", list(values))
