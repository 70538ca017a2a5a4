"""Plain-text reporting: the rows/series the paper's figures show.

Every experiment renders to an ASCII table with a ``paper`` column next to
the simulated/measured one, so EXPERIMENTS.md (and CI logs) show the
comparison at a glance.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

__all__ = ["Bounded", "format_table", "format_ratio", "Series"]


class Bounded:
    """A result checked against fixed bounds.

    Subclasses implement :meth:`bounds`; the verdict rule lives here.
    """

    def bounds(self) -> Dict[str, bool]:
        """Each bound's statement, mapped to whether this run holds it."""
        raise NotImplementedError

    @property
    def exit_code(self) -> int:
        """0 when every bound holds, 1 otherwise."""
        return 0 if all(self.bounds().values()) else 1

    def failed_bounds(self) -> str:
        """One ``FAILED bound:`` line per bound this run breaks."""
        return "".join(
            f"\nFAILED bound: {statement}"
            for statement, held in self.bounds().items()
            if not held
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
