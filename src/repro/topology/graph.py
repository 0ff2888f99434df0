"""Undirected network graphs with sites, routing and labeled links.

Nodes are integers.  Some nodes host database *sites* (Clearinghouse
servers); others are pure network elements (gateways, internetwork
routers) — the paper's Figure 1 explicitly relies on not having a site
at every network node.  All links have unit length; distances are hop
counts, and conversations are charged to every link on a deterministic
shortest path.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sim.metrics import Edge, canonical_edge


class Topology:
    """An undirected graph of network nodes, some of which are sites."""

    def __init__(self) -> None:
        self._adjacency: Dict[int, List[int]] = {}
        self._edges: set[Edge] = set()
        self._sites: List[int] = []
        self._site_set: set[int] = set()
        self._labels: Dict[str, Edge] = {}
        # Caches invalidated on mutation.
        self._dist_cache: Dict[int, Dict[int, int]] = {}
        self._next_hop_cache: Dict[int, Dict[int, int]] = {}
        self._path_edges_cache: Dict[Tuple[int, int], Tuple[Edge, ...]] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_node(self, node: int, site: bool = False) -> int:
        """Add a network node; ``site=True`` marks it as a database site."""
        if node not in self._adjacency:
            self._adjacency[node] = []
        if site and node not in self._site_set:
            self._site_set.add(node)
            self._sites.append(node)
        self._invalidate()
        return node

    def new_node(self, site: bool = False) -> int:
        """Add a node with the next free integer id."""
        node = max(self._adjacency, default=-1) + 1
        return self.add_node(node, site=site)

    def add_edge(self, u: int, v: int, label: Optional[str] = None) -> Edge:
        """Add an undirected unit-length link, optionally naming it."""
        if u == v:
            raise ValueError("self-loops are not allowed")
        self.add_node(u)
        self.add_node(v)
        edge = canonical_edge(u, v)
        if edge not in self._edges:
            self._edges.add(edge)
            self._adjacency[u].append(v)
            self._adjacency[v].append(u)
            # Keep neighbor lists sorted for deterministic routing.
            self._adjacency[u].sort()
            self._adjacency[v].sort()
        if label is not None:
            self._labels[label] = edge
        self._invalidate()
        return edge

    def _invalidate(self) -> None:
        self._dist_cache.clear()
        self._next_hop_cache.clear()
        self._path_edges_cache.clear()

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    @property
    def nodes(self) -> List[int]:
        return list(self._adjacency.keys())

    @property
    def sites(self) -> List[int]:
        """Database sites, in insertion order."""
        return list(self._sites)

    @property
    def node_count(self) -> int:
        return len(self._adjacency)

    @property
    def site_count(self) -> int:
        return len(self._sites)

    @property
    def edges(self) -> List[Edge]:
        return sorted(self._edges)

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def is_site(self, node: int) -> bool:
        return node in self._site_set

    def neighbors(self, node: int) -> Sequence[int]:
        return tuple(self._adjacency[node])

    def labeled_edge(self, label: str) -> Edge:
        """Look up a named link, e.g. the transatlantic ``"bushey"`` link."""
        try:
            return self._labels[label]
        except KeyError:
            raise KeyError(f"no link labeled {label!r}") from None

    @property
    def labels(self) -> Dict[str, Edge]:
        return dict(self._labels)

    # ------------------------------------------------------------------
    # Distances and routing
    # ------------------------------------------------------------------

    def distances_from(self, source: int) -> Dict[int, int]:
        """Hop distances from ``source`` to every reachable node (BFS)."""
        cached = self._dist_cache.get(source)
        if cached is not None:
            return cached
        dist = {source: 0}
        queue = deque([source])
        while queue:
            node = queue.popleft()
            d = dist[node]
            for neighbor in self._adjacency[node]:
                if neighbor not in dist:
                    dist[neighbor] = d + 1
                    queue.append(neighbor)
        self._dist_cache[source] = dist
        return dist

    def distance(self, u: int, v: int) -> int:
        dist = self.distances_from(u).get(v)
        if dist is None:
            raise ValueError(f"nodes {u} and {v} are not connected")
        return dist

    def _next_hops(self, destination: int) -> Dict[int, int]:
        """next_hop[node] = neighbor on the deterministic shortest path
        toward ``destination``.

        Computed by a reverse BFS from the destination; ties are broken
        toward the smallest neighbor id so routing is reproducible.
        """
        cached = self._next_hop_cache.get(destination)
        if cached is not None:
            return cached
        dist = self.distances_from(destination)
        next_hop: Dict[int, int] = {}
        for node in self._adjacency:
            if node == destination or node not in dist:
                continue
            best = min(
                (n for n in self._adjacency[node] if dist.get(n) == dist[node] - 1),
                default=None,
            )
            if best is not None:
                next_hop[node] = best
        self._next_hop_cache[destination] = next_hop
        return next_hop

    def path(self, source: int, destination: int) -> List[int]:
        """The deterministic shortest node path from source to destination."""
        if source == destination:
            return [source]
        next_hop = self._next_hops(destination)
        path = [source]
        node = source
        while node != destination:
            node = next_hop.get(node)
            if node is None:
                raise ValueError(f"nodes {source} and {destination} are not connected")
            path.append(node)
        return path

    def path_edges(self, source: int, destination: int) -> Tuple[Edge, ...]:
        """The canonical edges along :meth:`path`, cached per ordered pair.

        Traffic accounting charges the same source/destination pairs
        over and over (every conversation of a run); caching the edge
        tuple makes that O(path length) exactly once per pair instead
        of a next-hop walk plus canonicalization per message.
        """
        pair = (source, destination)
        cached = self._path_edges_cache.get(pair)
        if cached is None:
            path = self.path(source, destination)
            cached = tuple(
                canonical_edge(u, v) for u, v in zip(path, path[1:])
            )
            self._path_edges_cache[pair] = cached
        return cached

    def is_connected(self) -> bool:
        if not self._adjacency:
            return True
        first = next(iter(self._adjacency))
        return len(self.distances_from(first)) == len(self._adjacency)

    def validate(self) -> None:
        """Raise ValueError if the topology is unusable for simulation.

        A topology with no links at all is allowed: it models the
        paper's *uniform network* abstraction (Tables 1-3), where
        traffic is counted in messages without routing.  A topology
        that has links must be connected.
        """
        if self.site_count < 1:
            raise ValueError("topology has no database sites")
        if self.edge_count > 0 and not self.is_connected():
            raise ValueError("topology is not connected")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(nodes={self.node_count}, edges={self.edge_count}, "
            f"sites={self.site_count})"
        )


def complete_topology(n: int) -> Topology:
    """A clique of ``n`` sites (every pair one hop apart)."""
    topo = Topology()
    for i in range(n):
        topo.add_node(i, site=True)
    for i in range(n):
        for j in range(i + 1, n):
            topo.add_edge(i, j)
    return topo


def sites_only(n: int) -> Topology:
    """``n`` sites and no links.

    For experiments where the network is regarded as uniform (Tables
    1–3) no topology is needed; spatial selectors are not usable on
    this graph but the uniform selector is.
    """
    topo = Topology()
    for i in range(n):
        topo.add_node(i, site=True)
    return topo
