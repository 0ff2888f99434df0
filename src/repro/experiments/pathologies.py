"""Figures 1 and 2 (Section 3.2): topologies that defeat spatial rumors.

Both pathologies rely on isolated sites fairly distant from the rest of
the network:

* **Figure 1** — two nearby sites ``s`` and ``t`` slightly closer to
  each other than to a group of ``m`` equidistant sites.  With a
  ``Q^-2``-style distribution and ``m > k``, push rumor mongering
  started at ``s`` or ``t`` often dies inside ``{s, t}``; pull can
  leave ``s`` and ``t`` permanently ignorant of an update from the
  main group.
* **Figure 2** — a lone site ``s`` whose distance to the root of a
  complete binary tree exceeds the tree's height.  Under push, an
  update born in the tree may stop being hot before anyone contacts
  ``s``.

The drivers measure failure rates and the ``k`` needed for full
coverage, and demonstrate the paper's remedy: back rumor mongering
with anti-entropy.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.experiments.runner import TrialRunner, resolve_runner, single_update
from repro.protocols.backup import AntiEntropyBackup, RecoveryStrategy
from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol
from repro.sim.metrics import EpidemicMetrics
from repro.sim.rng import derive_seed
from repro.topology import builders
from repro.topology.distance import SiteDistances
from repro.topology.graph import Topology
from repro.topology.spatial import PartnerSelector, QPowerSelector


@dataclasses.dataclass(slots=True)
class PathologyResult:
    trials: int
    failures: int                 # runs that left some site susceptible
    died_in_pair: int             # Figure 1: rumor never left {s, t}
    missed_lonely: int            # Figure 2: site s never learned it

    @property
    def failure_rate(self) -> float:
        return self.failures / self.trials if self.trials else 0.0


def run_pathology_trial(
    topology: Topology,
    selector: PartnerSelector,
    config: RumorConfig,
    start_site: int,
    seed: int,
    max_cycles: int = 2000,
) -> EpidemicMetrics:
    """One rumor from ``start_site`` until it goes quiet; its metrics."""
    protocol = RumorMongeringProtocol(config, selector=selector)
    cluster, __ = single_update(protocol, seed, start=start_site, topology=topology)
    cluster.run_until(lambda: not protocol.active, max_cycles=max_cycles)
    return cluster.metrics


def _failed_runs(
    runner: Optional[TrialRunner],
    topology: Topology,
    config: RumorConfig,
    starts: List[int],
    seed: int,
) -> List[EpidemicMetrics]:
    """One trial per start site under the ``Q^-2`` distribution; the
    metrics of those that left some site susceptible."""
    selector = QPowerSelector(SiteDistances(topology), a=2.0)
    results = resolve_runner(runner).map(
        run_pathology_trial,
        [
            dict(
                topology=topology, selector=selector, config=config,
                start_site=start, seed=derive_seed(seed, trial),
            )
            for trial, start in enumerate(starts)
        ],
    )
    return [metrics for metrics in results if not metrics.complete]


def figure1_experiment(
    m: int = 20,
    k: int = 2,
    trials: int = 50,
    mode: ExchangeMode = ExchangeMode.PUSH,
    seed: int = 7,
    runner: Optional[TrialRunner] = None,
) -> PathologyResult:
    """Inject at ``s`` and watch push (or pull) rumors die near home."""
    topology, s, t, group = builders.figure1_topology(m)
    config = RumorConfig(mode=mode, feedback=True, counter=True, k=k)
    failed = _failed_runs(runner, topology, config, [s] * trials, seed)
    return PathologyResult(
        trials=trials,
        failures=len(failed),
        died_in_pair=sum(set(f.receipt_times) <= {s, t} for f in failed),
        missed_lonely=0,
    )


def figure1_pull_experiment(
    m: int = 20,
    k: int = 2,
    trials: int = 50,
    seed: int = 8,
    runner: Optional[TrialRunner] = None,
) -> PathologyResult:
    """Figure 1 under pull: update starts in the main group; do the
    isolated pair ``{s, t}`` ever learn it?"""
    topology, s, t, group = builders.figure1_topology(m)
    config = RumorConfig(mode=ExchangeMode.PULL, feedback=True, counter=True, k=k)
    starts = [group[trial % len(group)] for trial in range(trials)]
    failed = _failed_runs(runner, topology, config, starts, seed)
    return PathologyResult(
        trials=trials,
        failures=len(failed),
        died_in_pair=sum(not {s, t} <= set(f.receipt_times) for f in failed),
        missed_lonely=0,
    )


def figure2_experiment(
    depth: int = 5,
    spur_length: int = 8,
    k: int = 2,
    trials: int = 50,
    seed: int = 9,
    runner: Optional[TrialRunner] = None,
) -> PathologyResult:
    """Inject inside the tree; does lonely site ``s`` ever hear of it?"""
    topology, s, root = builders.figure2_topology(depth, spur_length)
    config = RumorConfig(mode=ExchangeMode.PUSH, feedback=True, counter=True, k=k)
    tree_sites = [site for site in topology.sites if site != s]
    starts = [tree_sites[trial % len(tree_sites)] for trial in range(trials)]
    failed = _failed_runs(runner, topology, config, starts, seed)
    return PathologyResult(
        trials=trials,
        failures=len(failed),
        died_in_pair=0,
        missed_lonely=sum(s not in f.receipt_times for f in failed),
    )


def minimal_k_for_coverage(
    topology: Topology,
    selector: PartnerSelector,
    mode: ExchangeMode,
    trials: int = 20,
    k_max: int = 40,
    seed: int = 10,
    start_site: Optional[int] = None,
    runner: Optional[TrialRunner] = None,
) -> Optional[int]:
    """The smallest ``k`` achieving full coverage in every trial.

    This reproduces the paper's tuning procedure ("once k was adjusted
    to give 100% distribution in each of 200 trials ...").  Returns
    ``None`` if no ``k <= k_max`` suffices.  The sweep over ``k`` stays
    sequential (each k's verdict gates the next); the trials within one
    ``k`` fan out.
    """
    runner = resolve_runner(runner)
    sites = topology.sites
    for k in range(1, k_max + 1):
        config = RumorConfig(mode=mode, feedback=True, counter=True, k=k)
        results = runner.map(
            run_pathology_trial,
            [
                dict(
                    topology=topology, selector=selector, config=config,
                    start_site=(
                        start_site if start_site is not None
                        else sites[trial % len(sites)]
                    ),
                    seed=derive_seed(seed, k, trial),
                )
                for trial in range(trials)
            ],
        )
        if all(metrics.complete for metrics in results):
            return k
    return None


def run_backup_trial(
    topology: Topology,
    selector: PartnerSelector,
    k: int,
    start_site: int,
    anti_entropy_period: int,
    seed: int,
    max_cycles: int = 3000,
) -> bool:
    """One rumor + anti-entropy-backup trial; True when coverage was total."""
    protocol = AntiEntropyBackup(
        rumor_config=RumorConfig(
            mode=ExchangeMode.PUSH, feedback=True, counter=True, k=k
        ),
        anti_entropy_period=anti_entropy_period,
        recovery=RecoveryStrategy.HOT_RUMOR,
        selector=selector,
    )
    cluster, __ = single_update(protocol, seed, start=start_site, topology=topology)
    cluster.run_until(lambda: cluster.metrics.complete, max_cycles=max_cycles)
    return cluster.metrics.complete


def backup_fixes_pathology(
    m: int = 20,
    k: int = 1,
    trials: int = 20,
    seed: int = 11,
    anti_entropy_period: int = 4,
    max_cycles: int = 3000,
    runner: Optional[TrialRunner] = None,
) -> PathologyResult:
    """Figure 1 again, but with anti-entropy backing up the rumor:
    coverage must now be total in every trial."""
    topology, s, t, group = builders.figure1_topology(m)
    selector = QPowerSelector(SiteDistances(topology), a=2.0)
    complete = resolve_runner(runner).map(
        run_backup_trial,
        [
            dict(
                topology=topology, selector=selector, k=k, start_site=s,
                anti_entropy_period=anti_entropy_period,
                seed=derive_seed(seed, trial), max_cycles=max_cycles,
            )
            for trial in range(trials)
        ],
    )
    return PathologyResult(
        trials=trials, failures=complete.count(False), died_in_pair=0, missed_lonely=0
    )
