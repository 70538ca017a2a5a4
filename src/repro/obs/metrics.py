"""Metrics: counters, gauges, and bounded log-linear histograms.

The :class:`MetricsRegistry` is the single place a process's metrics live.
Call sites obtain metric instances by name (plus optional labels) and the
registry guarantees one instance per (name, labels) pair, rejecting
type conflicts -- so the RDMA fabric, the enclave, the EPC cache and the
simulator can all bind lazily without coordinating.

The histogram is log-linear (HdrHistogram-style): each power-of-two range
is split into ``resolution`` linear sub-buckets, giving a *relative*
quantile error of at most ``1 / (2 * resolution)`` with memory bounded by
``resolution * 64`` buckets regardless of how many samples are recorded.
This is what lets :class:`~repro.sim.stats.LatencyRecorder` offer a
bounded-memory mode for million-operation simulated runs.
"""

from __future__ import annotations

import math
from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import ObservabilityError

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be non-negative)."""
        if amount < 0:
            raise ObservabilityError(
                f"counters only go up; got increment {amount}"
            )
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, clock, bytes held)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def set(self, value: float) -> None:
        """Set the gauge to ``value``."""
        self.value = value

    def inc(self, amount: float = 1) -> None:
        """Add ``amount`` (may be negative)."""
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        """Subtract ``amount``."""
        self.value -= amount


class Histogram:
    """Bounded log-linear histogram of non-negative integer samples.

    ``resolution`` (a power of two) sub-buckets per power-of-two range;
    values below ``resolution`` are recorded exactly.  Quantiles come back
    as bucket midpoints, so the relative error is at most
    ``1 / (2 * resolution)`` for any sample distribution.
    """

    __slots__ = ("resolution", "_r_bits", "_buckets", "count", "sum", "min", "max")

    def __init__(self, resolution: int = 64):
        if resolution < 2 or resolution & (resolution - 1):
            raise ObservabilityError(
                f"resolution must be a power of two >= 2, got {resolution}"
            )
        self.resolution = resolution
        self._r_bits = resolution.bit_length() - 1
        self._buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    # -- bucket arithmetic -------------------------------------------------

    def _bounds(self, index: int) -> Tuple[int, int]:
        """Half-open value range [lo, hi) covered by bucket ``index``."""
        if index < 2 * self.resolution:
            return index, index + 1
        shift = index // self.resolution - 1
        sub = self.resolution + index % self.resolution
        return sub << shift, (sub + 1) << shift

    def _midpoint(self, index: int) -> int:
        lo, hi = self._bounds(index)
        return (lo + hi - 1) // 2

    # -- recording ---------------------------------------------------------

    def record(self, value: int, count: int = 1) -> None:
        """Record ``count`` occurrences of ``value``."""
        value = int(value)
        if value < 0:
            raise ObservabilityError(f"negative sample: {value}")
        if count < 1:
            raise ObservabilityError(f"count must be >= 1, got {count}")
        resolution = self.resolution
        if value < resolution:
            index = value
        else:
            shift = value.bit_length() - 1 - self._r_bits
            sub = value >> shift  # in [resolution, 2 * resolution)
            index = (shift + 1) * resolution + (sub - resolution)
        self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def merge(self, other: "Histogram") -> None:
        """Fold ``other``'s samples into this histogram (same resolution)."""
        if other.resolution != self.resolution:
            raise ObservabilityError(
                f"resolution mismatch: {self.resolution} vs {other.resolution}"
            )
        for index, count in other._buckets.items():
            self._buckets[index] = self._buckets.get(index, 0) + count
        self.count += other.count
        self.sum += other.sum
        for attr in ("min", "max"):
            theirs = getattr(other, attr)
            if theirs is None:
                continue
            ours = getattr(self, attr)
            if ours is None:
                setattr(self, attr, theirs)
            elif attr == "min":
                self.min = min(ours, theirs)
            else:
                self.max = max(ours, theirs)

    # -- queries -----------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when nothing has been recorded."""
        return self.count == 0

    def mean(self) -> float:
        """Arithmetic mean; 0.0 when empty."""
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> int:
        """Approximate ``q``-quantile, ``q`` in (0, 1]; exact at the edges."""
        if not 0 < q <= 1:
            raise ObservabilityError(f"quantile out of range: {q}")
        if self.count == 0:
            raise ObservabilityError("no samples recorded")
        if q == 1:
            return self.max
        rank = max(1, min(self.count, math.ceil(q * self.count)))
        seen = 0
        for index in sorted(self._buckets):
            seen += self._buckets[index]
            if seen >= rank:
                mid = self._midpoint(index)
                # Never report outside the observed sample range.
                return max(self.min, min(self.max, mid))
        return self.max  # unreachable; defensive

    def percentile(self, pct: float) -> int:
        """Approximate nearest-rank percentile, ``pct`` in (0, 100]."""
        if not 0 < pct <= 100:
            raise ObservabilityError(f"percentile out of range: {pct}")
        return self.quantile(pct / 100.0)

    def bucket_counts(self) -> List[Tuple[int, int]]:
        """Sorted (inclusive upper bound, cumulative count) pairs."""
        out: List[Tuple[int, int]] = []
        cumulative = 0
        for index in sorted(self._buckets):
            cumulative += self._buckets[index]
            _lo, hi = self._bounds(index)
            out.append((hi - 1, cumulative))
        return out

    def relative_error_bound(self) -> float:
        """Worst-case relative quantile error of this configuration."""
        return 1.0 / (2 * self.resolution)


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """All metrics sharing one name: a kind, help text, per-label children."""

    __slots__ = ("name", "kind", "help", "children")

    def __init__(self, name: str, kind: str, help_text: str):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.children: Dict[Tuple[Tuple[str, str], ...], object] = {}


def _label_key(labels: Optional[Dict[str, str]]) -> Tuple[Tuple[str, str], ...]:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Name -> metric-family map with get-or-create semantics."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}

    def _get_or_create(
        self,
        name: str,
        kind: str,
        help_text: str,
        labels: Optional[Dict[str, str]],
        **kwargs,
    ):
        if not name or not name.replace("_", "").replace(":", "").isalnum():
            raise ObservabilityError(f"invalid metric name: {name!r}")
        family = self._families.get(name)
        if family is None:
            family = _Family(name, kind, help_text)
            self._families[name] = family
        elif family.kind != kind:
            raise ObservabilityError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested as {kind}"
            )
        if help_text and not family.help:
            family.help = help_text
        key = _label_key(labels)
        metric = family.children.get(key)
        if metric is None:
            metric = _KINDS[kind](**kwargs)
            family.children[key] = metric
        return metric

    def counter(
        self, name: str, help: str = "", labels: Dict[str, str] = None
    ) -> Counter:
        """Get or create the counter ``name`` for ``labels``."""
        return self._get_or_create(name, "counter", help, labels)

    def gauge(
        self, name: str, help: str = "", labels: Dict[str, str] = None
    ) -> Gauge:
        """Get or create the gauge ``name`` for ``labels``."""
        return self._get_or_create(name, "gauge", help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Dict[str, str] = None,
        resolution: int = 64,
    ) -> Histogram:
        """Get or create the histogram ``name`` for ``labels``."""
        return self._get_or_create(
            name, "histogram", help, labels, resolution=resolution
        )

    # -- introspection -----------------------------------------------------

    def collect(self) -> Iterator[Tuple[str, str, str, List[Tuple[Dict[str, str], object]]]]:
        """Yield ``(name, kind, help, [(labels, metric), ...])`` sorted by name."""
        for name in sorted(self._families):
            family = self._families[name]
            children = [
                (dict(key), metric)
                for key, metric in sorted(family.children.items())
            ]
            yield name, family.kind, family.help, children

    def get(self, name: str, labels: Dict[str, str] = None):
        """Existing metric for (name, labels), or None."""
        family = self._families.get(name)
        if family is None:
            return None
        return family.children.get(_label_key(labels))

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)
