"""Infection-tree reconstruction from the delivery-span stream.

A trace (live or simulated) contains one ``delivery-span`` event per
delivery attempt.  :class:`LineageIndex` groups spans by trace id and
rebuilds, for each traced update, the **infection tree**: who first
delivered the update to whom, at what depth, and how long each hop
took.  On top of the tree it computes the per-update analytics the
aggregate observables can't express:

* per-hop delivery latency (child's first delivery minus parent's);
* hop count / tree depth versus the O(log n) epidemic expectation;
* redundant-delivery counts per link (the traffic the feedback/counter
  variations of Section 1.4 exist to suppress);
* per-link traffic attribution (every delivery, useful or not).

``python -m repro trace analyze <trace.jsonl>`` drives this module;
:func:`render_analysis` produces its human-readable report.
"""

from __future__ import annotations

import math
import statistics
from collections import Counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.events import Event, EventKind
from repro.obs.spans import DeliverySpan, span_of_event


class InfectionTree:
    """The reconstructed propagation tree of one traced update."""

    def __init__(self, trace: str):
        self.trace = trace
        self.key: Optional[str] = None
        self.spans: List[DeliverySpan] = []
        #: node -> the span that first delivered the update there.
        self.first_delivery: Dict[int, DeliverySpan] = {}
        #: Extra ``first=True`` spans for an already-infected node
        #: (reinfection after churn, or duplicated instrumentation).
        self.duplicate_first: List[DeliverySpan] = []
        #: (src, dst) -> redundant (non-first) delivery count.
        self.redundant: Counter = Counter()
        #: (src, dst) -> every delivery crossing that link.
        self.link_traffic: Counter = Counter()

    # -- construction -------------------------------------------------

    def add(self, span: DeliverySpan) -> None:
        self.spans.append(span)
        if self.key is None:
            self.key = span.key
        if span.src is not None:
            self.link_traffic[(span.src, span.node)] += 1
        if span.first:
            if span.node in self.first_delivery:
                self.duplicate_first.append(span)
            else:
                self.first_delivery[span.node] = span
        elif span.src is not None:
            self.redundant[(span.src, span.node)] += 1

    # -- structure ----------------------------------------------------

    @property
    def root(self) -> Optional[int]:
        """The injecting node (its first delivery has no source)."""
        for node, span in self.first_delivery.items():
            if span.src is None:
                return node
        return None

    def children(self) -> Dict[Optional[int], List[int]]:
        """parent node -> nodes it first-delivered to, by first delivery."""
        tree: Dict[Optional[int], List[int]] = {}
        for node, span in sorted(self.first_delivery.items()):
            if span.src is None:
                continue
            tree.setdefault(span.src, []).append(node)
        return tree

    def depth_of(self, node: int) -> Optional[int]:
        """Hops from the origin to ``node``'s first delivery, walking
        first-delivery ``src`` links up to the root.  ``None`` for a node
        never delivered to, an orphan (a link to a node that never
        appears as a first delivery) and a cycle in the links."""
        seen = set()
        span = self.first_delivery.get(node)
        while span is not None and span.src is not None:
            if span.node in seen:  # broken lineage: cycle in src links
                return None
            seen.add(span.node)
            span = self.first_delivery.get(span.src)
        return None if span is None else len(seen)

    @property
    def max_depth(self) -> int:
        depths = [self.depth_of(node) for node in self.first_delivery]
        return max((d for d in depths if d is not None), default=0)

    # -- latency ------------------------------------------------------

    def hop_latency(self, node: int) -> Optional[float]:
        """Delivery latency of the hop *into* ``node``.

        The child's first-delivery time minus the parent's — time units
        are whatever clock the trace used (seconds live, cycles
        simulated).  The root, and orphans whose parent never appears
        as a first delivery, have no hop latency.
        """
        span = self.first_delivery.get(node)
        if span is None or span.src is None:
            return None
        parent = self.first_delivery.get(span.src)
        if parent is None:
            return None
        return span.time - parent.time

    def hop_latencies(self) -> List[Tuple[int, float]]:
        """(node, latency) for every node with a measurable inbound hop."""
        out: List[Tuple[int, float]] = []
        for node in sorted(self.first_delivery):
            latency = self.hop_latency(node)
            if latency is not None:
                out.append((node, latency))
        return out

    def network_latency(self, node: int) -> Optional[float]:
        """Receive time minus the sender's ``sent_at`` clock, if carried."""
        span = self.first_delivery.get(node)
        if span is None or span.sent_at is None:
            return None
        return span.time - span.sent_at

    # -- judgements ---------------------------------------------------

    def infected(self) -> List[int]:
        return sorted(self.first_delivery)

    def complete(self, n: int) -> bool:
        """True when every one of ``n`` nodes was first-delivered once."""
        return len(self.first_delivery) >= n and not self.duplicate_first

    def anomalies(
        self, n: Optional[int] = None, stall_factor: float = 4.0
    ) -> List[str]:
        """Human-readable flags for propagation pathologies."""
        flags: List[str] = []
        for span in self.duplicate_first:
            flags.append(
                f"node {span.node} first-delivered more than once "
                f"(again from {span.src} at t={span.time:g}) — reinfection or churn"
            )
        for node, span in sorted(self.first_delivery.items()):
            if span.src is not None and span.src not in self.first_delivery:
                flags.append(
                    f"orphan edge: node {node} learned from {span.src}, "
                    f"which never appears as a first delivery"
                )
        if n is not None and n > 0:
            missing = n - len(self.first_delivery)
            if missing > 0:
                flags.append(
                    f"incomplete tree: {len(self.first_delivery)}/{n} nodes "
                    f"infected ({missing} never reached)"
                )
            # Epidemic push-pull converges in O(log n) rounds; a chain
            # much deeper than that means propagation degenerated.
            budget = 2 * math.ceil(math.log2(n)) + 2 if n > 1 else 1
            depth = self.max_depth
            if depth > budget:
                flags.append(
                    f"hop count {depth} exceeds the O(log n) budget "
                    f"({budget} for n={n})"
                )
        latencies = [latency for _, latency in self.hop_latencies()]
        if len(latencies) >= 3:
            median = statistics.median(latencies)
            if median > 0:
                for node, latency in self.hop_latencies():
                    if latency > stall_factor * median:
                        flags.append(
                            f"stalled subtree: hop into node {node} took "
                            f"{latency:g} ({latency / median:.1f}x the median hop)"
                        )
        return flags

    # -- export -------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "trace": self.trace,
            "key": self.key,
            "root": self.root,
            "infected": self.infected(),
            "spans": len(self.spans),
            "max_depth": self.max_depth,
            "edges": [
                {
                    "node": node,
                    "src": span.src,
                    "t": span.time,
                    "hop": self.depth_of(node),
                    "latency": self.hop_latency(node),
                    "network_latency": self.network_latency(node),
                }
                for node, span in sorted(self.first_delivery.items())
            ],
            "redundant": [
                {"src": src, "dst": dst, "count": count}
                for (src, dst), count in sorted(self.redundant.items())
            ],
            "link_traffic": [
                {"src": src, "dst": dst, "count": count}
                for (src, dst), count in sorted(self.link_traffic.items())
            ],
            "duplicate_first": len(self.duplicate_first),
        }


class LineageIndex:
    """All infection trees of one trace, keyed by trace id.

    Usable online as a bus sink (``bus.add_sink(index.observe)``) or
    offline over a replayed trace file (:meth:`from_events`); both
    paths see the identical span schema, so analyze-after equals
    observe-during.
    """

    def __init__(self):
        self.trees: Dict[str, InfectionTree] = {}
        self.n: Optional[int] = None
        self.key: Optional[str] = None
        self.events_seen = 0

    def observe(self, event: Event) -> None:
        self.events_seen += 1
        if event.kind is EventKind.RUN_STARTED:
            n = event.payload.get("n")
            if isinstance(n, int) and not isinstance(n, bool):
                self.n = n
            key = event.payload.get("key")
            if isinstance(key, str):
                self.key = key
            return
        span = span_of_event(event)
        if span is None:
            return
        tree = self.trees.get(span.trace)
        if tree is None:
            tree = self.trees[span.trace] = InfectionTree(span.trace)
        tree.add(span)

    @classmethod
    def from_events(cls, events: Iterable[Event]) -> "LineageIndex":
        index = cls()
        for event in events:
            index.observe(event)
        return index

    def tree_for_key(self, key: str) -> Optional[InfectionTree]:
        """The (single) tree tracing ``key``; None when absent, the
        largest when several versions of the key were traced."""
        candidates = [t for t in self.trees.values() if t.key == key]
        if not candidates:
            return None
        return max(candidates, key=lambda t: len(t.spans))

    def anomalies(self) -> List[Tuple[str, str]]:
        out: List[Tuple[str, str]] = []
        for trace in sorted(self.trees):
            for flag in self.trees[trace].anomalies(n=self.n):
                out.append((trace, flag))
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n": self.n,
            "key": self.key,
            "traces": [self.trees[trace].to_dict() for trace in sorted(self.trees)],
            "anomalies": [
                {"trace": trace, "flag": flag} for trace, flag in self.anomalies()
            ],
        }


def _histogram_lines(values: List[float], bins: int = 8, width: int = 32) -> List[str]:
    """A small ASCII histogram (one line per bin, ``#`` bars)."""
    if not values:
        return ["  (no samples)"]
    lo, hi = min(values), max(values)
    if hi <= lo:
        return [f"  [{lo:g}] {'#' * min(len(values), width)} ({len(values)})"]
    span = (hi - lo) / bins
    counts = [0] * bins
    for value in values:
        slot = min(int((value - lo) / span), bins - 1)
        counts[slot] += 1
    peak = max(counts)
    lines = []
    for i, count in enumerate(counts):
        left = lo + i * span
        right = left + span
        bar = "#" * max(1 if count else 0, round(count / peak * width))
        lines.append(f"  [{left:8.4g} .. {right:8.4g}) {bar:<{width}} {count}")
    return lines


def render_analysis(index: LineageIndex) -> List[str]:
    """The ``repro trace analyze`` report, one string per output line."""
    lines: List[str] = []
    header = "trace analysis"
    if index.n is not None:
        header += f" — n={index.n}"
    if index.key is not None:
        header += f", key={index.key!r}"
    lines.append(header)
    if not index.trees:
        lines.append("no delivery spans in trace (was span emission enabled?)")
        return lines
    for trace in sorted(index.trees):
        tree = index.trees[trace]
        lines.append("")
        lines.append(f"trace {trace}")
        infected = tree.infected()
        complete = ""
        if index.n is not None:
            complete = (
                "  [complete]" if tree.complete(index.n) else "  [INCOMPLETE]"
            )
        lines.append(
            f"  infected {len(infected)} node(s), root={tree.root}, "
            f"max depth {tree.max_depth}, {len(tree.spans)} span(s){complete}"
        )
        children = tree.children()
        for node in infected:
            span = tree.first_delivery[node]
            latency = tree.hop_latency(node)
            latency_str = f" (+{latency:g})" if latency is not None else ""
            kids = children.get(node)
            kids_str = f" -> {kids}" if kids else ""
            src = "inject" if span.src is None else f"from {span.src}"
            lines.append(
                f"    node {node}: {src} at t={span.time:g}"
                f"{latency_str}, hop {tree.depth_of(node)}{kids_str}"
            )
        redundant_total = sum(tree.redundant.values())
        if redundant_total:
            busiest = tree.redundant.most_common(3)
            busy = ", ".join(f"{src}->{dst} x{c}" for (src, dst), c in busiest)
            lines.append(f"  redundant deliveries: {redundant_total} ({busy})")
        latencies = [latency for _, latency in tree.hop_latencies()]
        if latencies:
            lines.append(
                f"  hop latency: min {min(latencies):g} / "
                f"median {statistics.median(latencies):g} / max {max(latencies):g}"
            )
            lines.append("  hop-latency histogram:")
            lines.extend(_histogram_lines(latencies))
    anomalies = index.anomalies()
    lines.append("")
    if anomalies:
        lines.append(f"anomalies ({len(anomalies)}):")
        for trace, flag in anomalies:
            lines.append(f"  {trace}: {flag}")
    else:
        lines.append("anomalies: none")
    return lines
