"""Tables 4-5 and the Section 3 spatial-distribution studies.

Each trial injects a single update at a randomly chosen site of the
synthetic CIN topology and runs push-pull anti-entropy until every site
has the update, recording:

* ``t_last`` / ``t_ave`` — convergence delays in cycles;
* **compare traffic** — anti-entropy conversations per cycle, averaged
  over all network links (and separately on the transatlantic
  ``bushey`` link): every conversation is charged to every link on the
  shortest path between the partners;
* **update traffic** — the total number of exchanges in which the
  update actually had to be shipped, again per link and on Bushey.

Table 4 uses no connection limit; Table 5 the most pessimistic
connection limit 1 with hunt limit 0.  Rows sweep the spatial
distribution: uniform, then equation (3.1.1) with a = 1.2 .. 2.0.

Also here: the rumor-mongering variants of the same experiment
(Section 3.2) and the line-network scaling study (Section 3 intro).
"""

from __future__ import annotations

import dataclasses
import random
from typing import List, Optional, Sequence, Tuple

from repro.experiments.runner import TrialRunner, resolve_runner, single_update
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol
from repro.sim.metrics import Edge, mean
from repro.sim.rng import derive_seed
from repro.sim.transport import ConnectionPolicy, UNLIMITED
from repro.topology import builders
from repro.topology.cin import CinNetwork, build_cin_like_topology
from repro.topology.distance import SiteDistances
from repro.topology.graph import Topology
from repro.topology.spatial import (
    DistancePowerSelector,
    PartnerSelector,
    SortedListSelector,
    UniformSelector,
)


@dataclasses.dataclass(slots=True)
class SpatialRow:
    """One averaged row of a Table 4/5-style result."""

    label: str
    t_last: float
    t_ave: float
    compare_avg: float
    compare_special: float
    update_avg: float
    update_special: float
    runs: int
    incomplete_runs: int = 0

    def as_tuple(self):
        return (
            self.label,
            self.t_last,
            self.t_ave,
            self.compare_avg,
            self.compare_special,
            self.update_avg,
            self.update_special,
        )


@dataclasses.dataclass(slots=True)
class TrialResult:
    t_last: float
    t_ave: float
    cycles: int
    compare_total: float
    compare_special: float
    update_total: float
    update_special: float
    complete: bool


def run_anti_entropy_trial(
    topology: Topology,
    selector: PartnerSelector,
    seed: int,
    policy: ConnectionPolicy = UNLIMITED,
    special_link: Optional[Edge] = None,
    mode: ExchangeMode = ExchangeMode.PUSH_PULL,
    max_cycles: int = 500,
) -> TrialResult:
    """One update propagated by anti-entropy until full coverage."""
    protocol = AntiEntropyProtocol(
        selector=selector, config=AntiEntropyConfig(mode=mode, policy=policy)
    )
    return _trial(protocol, topology, seed, special_link, max_cycles, rumor=False)


def run_rumor_spatial_trial(
    topology: Topology,
    selector: PartnerSelector,
    config: RumorConfig,
    seed: int,
    special_link: Optional[Edge] = None,
    max_cycles: int = 1000,
) -> TrialResult:
    """One update spread by rumor mongering on a routed topology."""
    protocol = RumorMongeringProtocol(config, selector=selector)
    return _trial(protocol, topology, seed, special_link, max_cycles, rumor=True)


def _trial(
    protocol, topology: Topology, seed: int, special: Optional[Edge],
    max_cycles: int, rumor: bool,
) -> TrialResult:
    """One update from a seeded random site, run until the rumors go
    quiet (``rumor``) or every site holds it; an anti-entropy run cut
    short by ``max_cycles`` is reported incomplete."""
    start = random.Random(derive_seed(seed, "start")).choice(topology.sites)
    cluster, __ = single_update(protocol, seed, start=start, topology=topology)
    metrics = cluster.metrics
    if rumor:
        cluster.run_until(lambda: not protocol.active, max_cycles=max_cycles)
    else:
        try:
            cluster.run_until(lambda: metrics.complete, max_cycles=max_cycles)
        except RuntimeError:
            pass
    traffic = cluster.traffic
    # A rumor reports *useful* update traffic (the receiver needed it):
    # that is the Table 4 notion, making the Section 3.2
    # rumor-vs-anti-entropy comparison apples to apples.  Redundant
    # rumor shipments are still visible in metrics.update_sends.
    updates = traffic.useful_update if rumor else traffic.update
    return TrialResult(
        t_last=metrics.t_last,
        t_ave=metrics.t_ave,
        cycles=cluster.cycle,
        compare_total=traffic.compare.total,
        compare_special=traffic.compare.on_link(*special) if special else 0.0,
        update_total=updates.total,
        update_special=updates.on_link(*special) if special else 0.0,
        complete=metrics.complete,
    )


def standard_selectors(
    distances: SiteDistances, a_values: Sequence[float] = (1.2, 1.4, 1.6, 1.8, 2.0)
) -> List[Tuple[str, PartnerSelector]]:
    """The selector sweep of Tables 4 and 5: uniform plus (3.1.1)."""
    selectors: List[Tuple[str, PartnerSelector]] = [
        ("uniform", UniformSelector(distances.sites))
    ]
    for a in a_values:
        selectors.append((f"a={a:g}", SortedListSelector(distances, a)))
    return selectors


def spatial_table(
    cin: Optional[CinNetwork] = None,
    runs: int = 20,
    policy: ConnectionPolicy = UNLIMITED,
    seed: int = 4,
    a_values: Sequence[float] = (1.2, 1.4, 1.6, 1.8, 2.0),
    selectors: Optional[List[Tuple[str, PartnerSelector]]] = None,
    runner: Optional[TrialRunner] = None,
) -> List[SpatialRow]:
    """Tables 4 (policy=UNLIMITED) and 5 (connection limit 1, hunt 0).

    Each (selector, run) pair is an independent seeded trial; the whole
    sweep goes to the :class:`TrialRunner` as one batch and results are
    regrouped per selector, so the rows are identical for any ``jobs``.
    """
    runner = resolve_runner(runner)
    if cin is None:
        cin = build_cin_like_topology()
    distances = SiteDistances(cin.topology)
    if selectors is None:
        selectors = standard_selectors(distances, a_values)
    link_count = cin.topology.edge_count
    params = [
        dict(
            topology=cin.topology,
            selector=selector,
            seed=derive_seed(seed, label, run),
            policy=policy,
            special_link=cin.bushey,
        )
        for label, selector in selectors
        for run in range(runs)
    ]
    results = runner.map(run_anti_entropy_trial, params)
    rows: List[SpatialRow] = []
    for index, (label, __) in enumerate(selectors):
        trials = results[index * runs:(index + 1) * runs]
        rows.append(_summarize(label, trials, link_count, runs))
    return rows


def rumor_spatial_table(
    cin: Optional[CinNetwork] = None,
    runs: int = 20,
    seed: int = 5,
    a: float = 1.4,
    ks: Sequence[int] = (2, 3, 4, 5, 6),
    mode: ExchangeMode = ExchangeMode.PUSH_PULL,
    runner: Optional[TrialRunner] = None,
) -> List[SpatialRow]:
    """Section 3.2: push-pull rumor mongering with spatial selection.

    Sweeps ``k`` at a fixed spatial distribution; the paper's finding is
    that a modest finite ``k`` recovers Table 4's convergence and
    traffic while cutting critical-link load.
    """
    runner = resolve_runner(runner)
    if cin is None:
        cin = build_cin_like_topology()
    distances = SiteDistances(cin.topology)
    selector = SortedListSelector(distances, a)
    link_count = cin.topology.edge_count
    ks = list(ks)
    params = [
        dict(
            topology=cin.topology,
            selector=selector,
            config=RumorConfig(mode=mode, feedback=True, counter=True, k=k),
            seed=derive_seed(seed, k, run),
            special_link=cin.bushey,
        )
        for k in ks
        for run in range(runs)
    ]
    results = runner.map(run_rumor_spatial_trial, params)
    rows: List[SpatialRow] = []
    for index, k in enumerate(ks):
        trials = results[index * runs:(index + 1) * runs]
        rows.append(_summarize(f"k={k}", trials, link_count, runs))
    return rows


def _summarize(
    label: str, trials: List[TrialResult], link_count: int, runs: int
) -> SpatialRow:
    return SpatialRow(
        label=label,
        t_last=mean([t.t_last for t in trials]),
        t_ave=mean([t.t_ave for t in trials]),
        compare_avg=mean(
            [t.compare_total / (link_count * t.cycles) for t in trials if t.cycles]
        ),
        compare_special=mean([t.compare_special / t.cycles for t in trials if t.cycles]),
        update_avg=mean([t.update_total / link_count for t in trials]),
        update_special=mean([t.update_special for t in trials]),
        runs=runs,
        incomplete_runs=sum(1 for t in trials if not t.complete),
    )


@dataclasses.dataclass(slots=True)
class LineScalingRow:
    n: int
    a: float
    mean_link_traffic: float   # conversations per link per cycle
    t_last: float
    runs: int


def line_scaling(
    ns: Sequence[int] = (16, 32, 64, 128),
    a_values: Sequence[float] = (0.0, 1.0, 1.5, 2.0, 3.0),
    runs: int = 5,
    seed: int = 6,
    runner: Optional[TrialRunner] = None,
) -> List[LineScalingRow]:
    """Section 3's line-network tradeoff: traffic vs convergence.

    ``a = 0`` is the uniform distribution (``d^0``).  Expected shape:
    per-link traffic grows roughly like n (a<1), n^{2-a} (1<a<2),
    log n (a=2), O(1) (a>2), while convergence time stays polylog for
    a <= 2 and degrades toward polynomial for larger a.
    """
    runner = resolve_runner(runner)
    cells: List[Tuple[int, float, int]] = []   # (n, a, link_count)
    params = []
    for n in ns:
        topology = builders.line(n)
        distances = SiteDistances(topology)
        for a in a_values:
            if a == 0.0:
                selector: PartnerSelector = UniformSelector(topology.sites)
            else:
                selector = DistancePowerSelector(distances, a)
            cells.append((n, a, topology.edge_count))
            params.extend(
                dict(
                    topology=topology,
                    selector=selector,
                    seed=derive_seed(seed, n, a, run),
                    max_cycles=50 * n,
                )
                for run in range(runs)
            )
    results = runner.map(run_anti_entropy_trial, params)
    rows: List[LineScalingRow] = []
    for index, (n, a, link_count) in enumerate(cells):
        trials = results[index * runs:(index + 1) * runs]
        rows.append(
            LineScalingRow(
                n=n,
                a=a,
                mean_link_traffic=mean(
                    [
                        t.compare_total / (link_count * t.cycles)
                        for t in trials
                        if t.cycles
                    ]
                ),
                t_last=mean([t.t_last for t in trials]),
                runs=runs,
            )
        )
    return rows


# Paper values (Tables 4 and 5) for shape comparison.
PAPER_TABLE4 = [
    ("uniform", 7.8, 5.3, 5.9, 75.7, 5.8, 74.4),
    ("a=1.2", 10.0, 6.3, 2.0, 11.2, 2.6, 17.5),
    ("a=1.4", 10.3, 6.4, 1.9, 8.8, 2.5, 14.1),
    ("a=1.6", 10.9, 6.7, 1.7, 5.7, 2.3, 10.9),
    ("a=1.8", 12.0, 7.2, 1.5, 3.7, 2.1, 7.7),
    ("a=2.0", 13.3, 7.8, 1.4, 2.4, 1.9, 5.9),
]

PAPER_TABLE5 = [
    ("uniform", 11.0, 7.0, 3.7, 47.5, 5.8, 75.2),
    ("a=1.2", 16.9, 9.9, 1.1, 6.4, 2.7, 18.0),
    ("a=1.4", 17.3, 10.1, 1.1, 4.7, 2.5, 13.7),
    ("a=1.6", 19.1, 11.1, 0.9, 2.9, 2.3, 10.2),
    ("a=1.8", 21.5, 12.4, 0.8, 1.7, 2.1, 7.0),
    ("a=2.0", 24.6, 14.1, 0.7, 0.9, 1.9, 4.8),
]
