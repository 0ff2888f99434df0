"""The geo-distributed WAN model: datacenters and capped links.

The Clearinghouse ran over "an internetwork connecting several hundred
sites" — machine rooms joined by slow, expensive long-haul links (the
paper's transatlantic *Bushey* link being the famous bottleneck).  This
module models that shape explicitly:

* sites are grouped into named **datacenters**; every datacenter gets a
  gateway node (a pure network element, not a database site) and WAN
  links join the gateways, so every cross-datacenter conversation is
  charged to exactly one labeled WAN link by the existing per-link
  traffic accounting;
* each WAN link has an optional **capacity** (messages per cycle): a
  saturated link refuses further anti-entropy exchanges that cycle,
  pushing gossip local — the Section 3 motivation for spatial
  distributions;
* :meth:`WanNetwork.link_report` attributes measured traffic back to
  the named links, the WAN companion of
  :mod:`repro.analysis.traffic`'s line-topology expectations.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.traffic import link_rows
from repro.sim.metrics import Edge, LinkTraffic, canonical_edge
from repro.sim.transport import LinkCapacityLedger
from repro.topology.graph import Topology


@dataclasses.dataclass(frozen=True, slots=True)
class DatacenterSpec:
    """One named datacenter and how many database sites it hosts."""

    name: str
    sites: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("datacenter name must be non-empty")
        if self.sites < 1:
            raise ValueError("a datacenter needs at least one site")


@dataclasses.dataclass(frozen=True, slots=True)
class WanLinkSpec:
    """A long-haul link between two datacenters; ``capacity`` caps
    messages per cycle (None = uncapped)."""

    a: str
    b: str
    capacity: Optional[float] = None

    def __post_init__(self) -> None:
        if self.a == self.b:
            raise ValueError("a WAN link must join two distinct datacenters")
        if self.capacity is not None and self.capacity <= 0:
            raise ValueError("capacity must be positive when set")

    @property
    def name(self) -> str:
        return link_name(self.a, self.b)


def link_name(a: str, b: str) -> str:
    """The canonical display name of a WAN link (order-independent)."""
    lo, hi = sorted((a, b))
    return f"wan:{lo}<->{hi}"


@dataclasses.dataclass(frozen=True)
class WanConfig:
    """A multi-datacenter deployment: datacenters plus the WAN mesh."""

    datacenters: Tuple[DatacenterSpec, ...]
    links: Tuple[WanLinkSpec, ...]

    def __post_init__(self) -> None:
        names = [dc.name for dc in self.datacenters]
        if len(names) != len(set(names)):
            raise ValueError("datacenter names must be unique")
        if len(names) < 2:
            raise ValueError("a WAN needs at least two datacenters")
        known = set(names)
        seen: set = set()
        for link in self.links:
            if link.a not in known or link.b not in known:
                raise ValueError(f"link {link.name} names an unknown datacenter")
            if link.name in seen:
                raise ValueError(f"duplicate link {link.name}")
            seen.add(link.name)

    @property
    def site_count(self) -> int:
        return sum(dc.sites for dc in self.datacenters)


def three_datacenters(
    sites_per_dc: Sequence[int] = (10, 10, 10),
    capacity: Optional[float] = 64.0,
) -> WanConfig:
    """The stock 3-datacenter deployment used by the CLI:
    a US/EU/AP triangle of capped links."""
    if len(sites_per_dc) != 3:
        raise ValueError("three_datacenters needs exactly three site counts")
    us, eu, ap = sites_per_dc
    return WanConfig(
        datacenters=(
            DatacenterSpec("us-east", us),
            DatacenterSpec("eu-west", eu),
            DatacenterSpec("ap-south", ap),
        ),
        links=(
            WanLinkSpec("us-east", "eu-west", capacity=capacity),
            WanLinkSpec("eu-west", "ap-south", capacity=capacity),
            WanLinkSpec("us-east", "ap-south", capacity=capacity),
        ),
    )


class WanNetwork:
    """A :class:`WanConfig` realized as a routed topology.

    Site ids run ``0..N-1`` in datacenter order; each datacenter ``d``
    gets one gateway node (id ``N + index(d)``, not a site).  Every
    site connects to its gateway, gateways connect per the link specs,
    and each WAN edge is labeled with :func:`link_name` so traffic
    reports read like an ops dashboard.
    """

    def __init__(self, config: WanConfig):
        self.config = config
        self.topology = Topology()
        self._dc_of_site: Dict[int, str] = {}
        self._sites_of_dc: Dict[str, List[int]] = {}
        self._gateway_of_dc: Dict[str, int] = {}
        next_site = 0
        for dc in config.datacenters:
            ids = list(range(next_site, next_site + dc.sites))
            next_site += dc.sites
            self._sites_of_dc[dc.name] = ids
            for site_id in ids:
                self.topology.add_node(site_id, site=True)
                self._dc_of_site[site_id] = dc.name
        for index, dc in enumerate(config.datacenters):
            gateway = next_site + index
            self._gateway_of_dc[dc.name] = gateway
            self.topology.add_node(gateway, site=False)
            for site_id in self._sites_of_dc[dc.name]:
                self.topology.add_edge(site_id, gateway)
        self._wan_edges: Dict[str, Edge] = {}
        self._capacity: Dict[Edge, float] = {}
        for link in config.links:
            edge = self.topology.add_edge(
                self._gateway_of_dc[link.a],
                self._gateway_of_dc[link.b],
                label=link.name,
            )
            self._wan_edges[link.name] = edge
            if link.capacity is not None:
                self._capacity[edge] = link.capacity
        self.topology.validate()
        self.ledger = LinkCapacityLedger(self._capacity)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def site_count(self) -> int:
        return self.config.site_count

    @property
    def site_ids(self) -> List[int]:
        return list(range(self.site_count))

    @property
    def datacenter_names(self) -> List[str]:
        return [dc.name for dc in self.config.datacenters]

    @property
    def wan_edges(self) -> Dict[str, Edge]:
        return dict(self._wan_edges)

    def dc_of(self, site_id: int) -> str:
        return self._dc_of_site[site_id]

    def sites_of(self, dc: str) -> List[int]:
        return list(self._sites_of_dc[dc])

    def gateway_of(self, dc: str) -> int:
        return self._gateway_of_dc[dc]

    # ------------------------------------------------------------------
    # Per-cycle conversation admission (transport integration)
    # ------------------------------------------------------------------

    def reset_cycle(self) -> None:
        """Open a fresh per-cycle budget on every capped link."""
        self.ledger.reset()

    def conversation_allowed(self, a: int, b: int) -> bool:
        """Whether a conversation between two sites fits this cycle's
        WAN budgets (always true intra-DC and on uncapped links)."""
        if not self._capacity:
            return True
        return self.ledger.would_admit(self.topology.path_edges(a, b))

    def note_conversation(self, a: int, b: int) -> None:
        self.ledger.charge(self.topology.path_edges(a, b))

    def note_updates(self, source: int, destination: int, count: float) -> None:
        if count > 0:
            self.ledger.charge(
                self.topology.path_edges(source, destination), count
            )

    # ------------------------------------------------------------------
    # Traffic attribution
    # ------------------------------------------------------------------

    def link_report(self, traffic: LinkTraffic) -> List[Dict[str, object]]:
        """Measured traffic per named WAN link, plus intra-DC rollups.

        The WAN rows read counts straight off the labeled gateway
        edges; the ``intra:<dc>`` rows sum the site<->gateway edges of
        each datacenter.
        """
        counters = (traffic.compare, traffic.update, traffic.useful_update)
        counts = {
            name: [counter.on_link(*edge) for counter in counters]
            for name, edge in self._wan_edges.items()
        }
        for dc in self.datacenter_names:
            gateway = self._gateway_of_dc[dc]
            edges = [canonical_edge(site_id, gateway) for site_id in self._sites_of_dc[dc]]
            counts[f"intra:{dc}"] = [
                sum(counter.on_link(*edge) for edge in edges) for counter in counters
            ]
        return link_rows(counts, self._wan_edges, self.datacenter_names)
