"""A small labeled-metrics registry with JSON export.

Counters and histograms, each optionally labeled::

    registry = MetricsRegistry()
    frames = registry.counter(
        "repro_frames_sent_total", "Frames sent, by type", labels=("type",)
    )
    frames.inc(type="push")
    latency = registry.histogram("repro_exchange_seconds", "Exchange latency")
    latency.observe(0.012)

    blob = registry.snapshot()   # JSON-safe dict (STATUS replies)

Design points, all driven by how the gossip runtimes use this:

* **Fixed label names per family.**  A family declares its label names
  once; every sample must supply exactly those labels.  Mismatches are
  programming errors and raise :class:`MetricError` immediately.
* **Bounded cardinality.**  Each family holds at most ``max_series``
  labeled series (default 256).  The live node labels by frame type —
  single digits of series — but a bug interpolating, say, peer
  addresses into label values would otherwise grow memory without
  bound on a long-lived node.  Exceeding the cap raises.
* **Snapshots are plain data.**  ``snapshot()`` output is JSON-safe and
  round-trips over the STATUS wire message; it is the exact payload
  ``python -m repro status`` prints.
"""

from __future__ import annotations

import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets: latencies from 1 ms to ~30 s, roughly
#: exponential — wide enough for both LAN gossip and CI-noise tails.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0,
    2.5, 5.0, 10.0, 30.0,
)


def linear_buckets(start: float, width: float, count: int) -> Tuple[float, ...]:
    """``count`` evenly spaced histogram bounds starting at ``start``.

    The latency-oriented :data:`DEFAULT_BUCKETS` are useless for count
    distributions (dirty buckets per exchange, entries per bucket);
    this mirrors the Prometheus client helper of the same name.
    """
    if count < 1:
        raise MetricError("linear_buckets: count must be >= 1")
    if width <= 0:
        raise MetricError("linear_buckets: width must be positive")
    return tuple(start + width * i for i in range(count))


class MetricError(Exception):
    """A metric was declared or used inconsistently."""


class _MetricFamily:
    """Shared machinery: label validation and the series table."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        max_series: int = 256,
    ):
        if not _NAME_RE.match(name):
            raise MetricError(f"invalid metric name {name!r}")
        for label in labels:
            if not _LABEL_RE.match(label):
                raise MetricError(f"invalid label name {label!r} on {name}")
        if len(set(labels)) != len(labels):
            raise MetricError(f"duplicate label names on {name}")
        if max_series < 1:
            raise MetricError("max_series must be >= 1")
        self.name = name
        self.help = help
        self.label_names: Tuple[str, ...] = tuple(labels)
        self.max_series = max_series
        self._series: Dict[Tuple[str, ...], Any] = {}

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise MetricError(
                f"{self.name} takes labels {list(self.label_names)}, "
                f"got {sorted(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _slot(self, labels: Dict[str, Any], default) -> Any:
        key = self._key(labels)
        slot = self._series.get(key)
        if slot is None:
            if len(self._series) >= self.max_series:
                raise MetricError(
                    f"{self.name}: series cardinality limit "
                    f"({self.max_series}) exceeded at labels {dict(zip(self.label_names, key))}"
                )
            slot = default()
            self._series[key] = slot
        return slot

    def labeled_series(self) -> Iterable[Tuple[Dict[str, str], Any]]:
        for key, slot in sorted(self._series.items()):
            yield dict(zip(self.label_names, key)), slot

    def __len__(self) -> int:
        return len(self._series)


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0


class Counter(_MetricFamily):
    """A monotonically increasing count."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise MetricError(f"{self.name}: counters only go up (inc {amount})")
        self._slot(labels, _Cell).value += amount

    def value(self, **labels: Any) -> float:
        slot = self._series.get(self._key(labels))
        return 0.0 if slot is None else slot.value

    def total(self) -> float:
        return sum(slot.value for slot in self._series.values())

    def snapshot(self) -> Dict[str, Any]:
        return {
            "type": self.kind,
            "help": self.help,
            "series": [
                {"labels": labels, "value": slot.value}
                for labels, slot in self.labeled_series()
            ],
        }


class _HistogramCell:
    __slots__ = ("counts", "sum", "count")

    def __init__(self, bucket_count: int) -> None:
        self.counts = [0] * bucket_count
        self.sum = 0.0
        self.count = 0


class Histogram(_MetricFamily):
    """Observations bucketed by upper bound; a value above the last
    bound is counted in ``count`` and ``sum`` only."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_series: int = 256,
    ):
        super().__init__(name, help, labels, max_series)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise MetricError(f"{name}: buckets must be sorted and distinct")
        self.buckets = bounds

    def observe(self, value: float, **labels: Any) -> None:
        cell: _HistogramCell = self._slot(
            labels, lambda: _HistogramCell(len(self.buckets))
        )
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                cell.counts[index] += 1
                break
        cell.sum += value
        cell.count += 1

    def cell(self, **labels: Any) -> Optional[_HistogramCell]:
        return self._series.get(self._key(labels))

    def snapshot(self) -> Dict[str, Any]:
        series = []
        for labels, cell in self.labeled_series():
            series.append(
                {
                    "labels": labels,
                    "buckets": list(self.buckets),
                    "counts": list(cell.counts),
                    "sum": cell.sum,
                    "count": cell.count,
                }
            )
        return {"type": self.kind, "help": self.help, "series": series}


class MetricsRegistry:
    """Owns a namespace of metric families.

    Declaration is idempotent: asking for an existing name returns the
    existing family, provided the type and label names agree — so a
    node restart (same process, new ``NodeStats``) can share a registry.
    """

    def __init__(self) -> None:
        self._families: Dict[str, _MetricFamily] = {}

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = (),
        max_series: int = 256,
    ) -> Counter:
        return self._declare(Counter, name, help, labels, max_series=max_series)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_series: int = 256,
    ) -> Histogram:
        return self._declare(
            Histogram, name, help, labels, buckets=buckets, max_series=max_series
        )

    def _declare(self, cls, name: str, help: str, labels: Sequence[str], **kwargs):
        existing = self._families.get(name)
        if existing is not None:
            if type(existing) is not cls or existing.label_names != tuple(labels):
                raise MetricError(
                    f"{name} already declared as {existing.kind}"
                    f"{list(existing.label_names)}"
                )
            return existing
        family = cls(name, help, labels, **kwargs)
        self._families[name] = family
        return family

    def get(self, name: str) -> Optional[_MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[_MetricFamily]:
        return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Any]:
        """JSON-safe dump of every family (the STATUS payload)."""
        return {family.name: family.snapshot() for family in self.families()}
