"""Expected link traffic for spatial distributions on a line (Section 3).

With sites on a line and connection probability proportional to
``d^-a``, the paper derives the expected traffic per link per cycle:

    T(n) = O(n)          a < 1
           O(n / log n)  a = 1
           O(n^{2-a})    1 < a < 2
           O(log n)      a = 2
           O(1)          a > 2

while convergence time flips the other way (polynomial in ``log n``
for ``a < 2``, polynomial in ``n`` for ``a > 2``) — hence the paper's
recommendation of ``d^-2`` on a line.  :func:`line_traffic_per_link`
computes the exact expectation so the asymptotic classes can be
verified numerically.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List


def line_traffic_per_link(n: int, a: float) -> List[float]:
    """Exact expected traffic on each of the ``n-1`` links of a line.

    Sites ``0..n-1``; each site makes one conversation per cycle,
    choosing partner ``t`` with probability proportional to
    ``|s-t|^-a``; the conversation crosses every link between them.
    Returns expected crossings per cycle for links ``(i, i+1)``.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    # probability[s][t] via per-site normalization
    loads = [0.0] * (n - 1)
    for s in range(n):
        total = 0.0
        weights = []
        for t in range(n):
            if t == s:
                weights.append(0.0)
            else:
                w = float(abs(s - t)) ** (-a)
                weights.append(w)
                total += w
        for t in range(n):
            if t == s or weights[t] == 0.0:
                continue
            p = weights[t] / total
            lo, hi = (s, t) if s < t else (t, s)
            for link in range(lo, hi):
                loads[link] += p
    return loads


def expected_mean_link_traffic(n: int, a: float) -> float:
    """Mean of :func:`line_traffic_per_link` over all links."""
    loads = line_traffic_per_link(n, a)
    return sum(loads) / len(loads)


def line_traffic_class(a: float) -> str:
    """The asymptotic class of ``T(n)`` for parameter ``a``."""
    if a < 1:
        return "O(n)"
    if a == 1:
        return "O(n/log n)"
    if a < 2:
        return f"O(n^{2 - a:g})"
    if a == 2:
        return "O(log n)"
    return "O(1)"


def theoretical_growth(n: int, a: float) -> float:
    """A representative of the predicted growth class at size ``n``.

    Used to check measured traffic ratios against predicted ratios:
    ``measured(n2)/measured(n1)`` should approximate
    ``theoretical_growth(n2, a)/theoretical_growth(n1, a)`` for large n.
    """
    if n < 2:
        raise ValueError("need at least two sites")
    if a < 1:
        return float(n)
    if a == 1:
        return n / math.log(n)
    if a < 2:
        return float(n) ** (2.0 - a)
    if a == 2:
        return math.log(n)
    return 1.0


def link_rows(counts, wan_links, datacenters) -> List[Dict[str, Any]]:
    """Per-link rows in the one order both runtimes report: the named
    ``wan:*`` links sorted, then an ``intra:<dc>`` rollup for each of
    ``datacenters``.  ``counts`` maps a link name to its conversation,
    update and useful-update crossings (absent: none)."""
    rows = []
    for link in [*sorted(wan_links), *(f"intra:{dc}" for dc in datacenters)]:
        conversations, updates, useful = counts.get(link, (0.0, 0.0, 0.0))
        rows.append(
            {
                "link": link,
                "conversations": round(conversations, 3),
                "updates": round(updates, 3),
                "useful_updates": round(useful, 3),
            }
        )
    return rows


def traffic_summary(links: List[Dict[str, Any]]) -> Dict[str, Any]:
    """A WAN deployment's traffic block from its :func:`link_rows`: the
    rows plus ``wan_share``, the fraction of all conversation
    link-crossings that happen on long-haul links — the number the
    paper's Section 3 spatial distributions exist to push down.  Each
    conversation crosses its site→gateway(→gateway)→site route, the
    simulator's routed edges and the live tap's charges alike."""
    wan_rows = [row for row in links if str(row["link"]).startswith("wan:")]
    wan_conversations = sum(row["conversations"] for row in wan_rows)
    total_conversations = sum(row["conversations"] for row in links)
    busiest = max(wan_rows, key=lambda row: row["conversations"], default=None)
    return {
        "links": links,
        "wan_conversations": round(wan_conversations, 3),
        "wan_share": round(
            wan_conversations / total_conversations if total_conversations else 0.0,
            4,
        ),
        "busiest_wan_link": None if busiest is None else busiest["link"],
    }
