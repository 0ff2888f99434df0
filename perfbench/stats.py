"""Percentiles and the bound comparer — the benchmark's own yardstick."""

from __future__ import annotations

from typing import Optional, Sequence

#: Candidate tail percentiles, highest first, each with the share of
#: the sample beyond it per thousand (integers: 10000 samples have
#: exactly ten beyond p99.9, which floating point would round to 9.99).
TAILS = ((99.9, 1), (99.0, 10), (95.0, 50), (90.0, 100), (75.0, 250))
#: A percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """The ``pct`` percentile by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_percentile(count: int) -> Optional[float]:
    """The highest percentile with at least ``MIN_BEYOND`` samples
    beyond it, or None when even p75 has too few."""
    for pct, beyond_per_thousand in TAILS:
        if count * beyond_per_thousand >= MIN_BEYOND * 1000:
            return pct
    return None


def summarize(values: Sequence[float]) -> str:
    """``p50 / highest supported tail / n`` for the human report."""
    tail = tail_percentile(len(values))
    text = f"p50={median(values):.4g}"
    if tail is not None:
        text += f" p{tail:g}={percentile(values, tail):.4g}"
    return f"{text} n={len(values)}"


def worsened_by(before: float, after: float, better: str) -> float:
    """How far ``after`` is worse than ``before``, as a share of
    ``before``; negative when it improved."""
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    if before == 0:
        return 0.0 if after == before else float("inf")
    change = (after - before) / abs(before)
    return change if better == "lower" else -change
