"""Baseline behaviors: direct mail (Section 1.2), the anti-entropy
endgame (Section 1.3), and Pittel's push bound.

These drivers quantify the claims the paper's design rests on:

* direct mail costs ``n`` messages per update and misses sites in
  proportion to mail loss and to gaps in the sender's site list;
* with few susceptibles left, pull anti-entropy converges quadratically
  while push shrinks the susceptible fraction only by a factor ``e``
  per cycle — the simulated trajectories are compared against the
  recurrences of :mod:`repro.analysis.recurrences`;
* a push simple epidemic from one site takes about
  ``log2(n) + ln(n)`` cycles.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.experiments.runner import (
    TrialRunner,
    planted_sites,
    resolve_runner,
    single_update,
)
from repro.experiments.tables import run_anti_entropy_trial
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.direct_mail import DirectMailProtocol
from repro.sim.metrics import mean
from repro.sim.rng import derive_seed


@dataclasses.dataclass(slots=True)
class DirectMailResult:
    n: int
    messages_per_update: float
    delivery_ratio: float
    residue: float       # fraction of sites missing the update afterwards
    runs: int


def run_direct_mail_trial(
    n: int, loss_probability: float, known_fraction: float, seed: int
) -> Tuple[float, float, float]:
    """One mailing of one update; returns (residue, messages, delivery)."""
    protocol = DirectMailProtocol(
        loss_probability=loss_probability, known_fraction=known_fraction
    )
    cluster, __ = single_update(protocol, seed, n=n)
    metrics = cluster.metrics
    cluster.run_until(lambda: not protocol.active, max_cycles=50)
    return metrics.residue, metrics.update_sends, protocol.stats.delivery_ratio


def direct_mail_experiment(
    n: int = 200,
    loss_probability: float = 0.05,
    known_fraction: float = 1.0,
    runs: int = 10,
    seed: int = 20,
    runner: Optional[TrialRunner] = None,
) -> DirectMailResult:
    """Mail one update to all sites; measure cost and incompleteness."""
    trials = resolve_runner(runner).map(
        run_direct_mail_trial,
        [
            dict(
                n=n,
                loss_probability=loss_probability,
                known_fraction=known_fraction,
                seed=derive_seed(seed, run),
            )
            for run in range(runs)
        ],
    )
    return DirectMailResult(
        n=n,
        messages_per_update=mean([t[1] for t in trials]),
        delivery_ratio=mean([t[2] for t in trials]),
        residue=mean([t[0] for t in trials]),
        runs=runs,
    )


@dataclasses.dataclass(slots=True)
class TailTrajectory:
    """Simulated susceptible fractions per anti-entropy cycle."""

    mode: str
    fractions: List[float]    # starting fraction first

    def cycles_to_zero(self) -> int:
        for i, p in enumerate(self.fractions):
            if p == 0.0:
                return i
        return len(self.fractions)


def anti_entropy_tail(
    n: int = 1000,
    initial_susceptible: float = 0.1,
    mode: ExchangeMode = ExchangeMode.PULL,
    max_cycles: int = 60,
    seed: int = 21,
) -> TailTrajectory:
    """Start with most sites already infected; watch the endgame.

    The update is planted directly at a ``1 - initial_susceptible``
    fraction of sites (as if direct mail had delivered there), then
    anti-entropy runs alone.
    """
    protocol = AntiEntropyProtocol(config=AntiEntropyConfig(mode=mode))
    cluster, update = single_update(protocol, seed, n=n)
    metrics = cluster.metrics
    for site_id in planted_sites(cluster, seed, 1.0 - initial_susceptible):
        cluster.sites[site_id].deliver(update)
    fractions = [metrics.residue]
    cycles = 0
    while metrics.residue > 0 and cycles < max_cycles:
        cluster.run_cycle()
        cycles += 1
        fractions.append(metrics.residue)
    return TailTrajectory(mode=mode.value, fractions=fractions)


@dataclasses.dataclass(slots=True)
class PushConvergenceResult:
    n: int
    mean_cycles: float
    pittel_prediction: float
    runs: int


def push_epidemic_cycles(
    n: int = 512,
    runs: int = 10,
    seed: int = 22,
    max_cycles: int = 200,
    runner: Optional[TrialRunner] = None,
) -> PushConvergenceResult:
    """Cycles for push anti-entropy to infect everyone from one site
    (uniform selection, so the trials run on the batched engine)."""
    from repro.analysis.epidemic_theory import pittel_push_cycles

    trials = resolve_runner(runner).map(
        run_anti_entropy_trial,
        [
            dict(
                n=n, mode=ExchangeMode.PUSH, seed=derive_seed(seed, run),
                max_cycles=max_cycles,
            )
            for run in range(runs)
        ],
    )
    return PushConvergenceResult(
        n=n,
        mean_cycles=mean([metrics.t_last for metrics in trials]),
        pittel_prediction=pittel_push_cycles(n),
        runs=runs,
    )


@dataclasses.dataclass(slots=True)
class RemailBlowupResult:
    """The Clearinghouse's abandoned remail-on-anti-entropy step."""

    n: int
    messages_with_remail: int
    messages_without_remail: int


def remail_blowup_experiment(
    n: int = 60, initial_coverage: float = 0.5, seed: int = 23, cycles: int = 3
) -> RemailBlowupResult:
    """Show why remailing had to be disabled: with half the sites
    disagreeing, each anti-entropy round triggers O(n) remails of n
    messages each."""

    def run(remail: bool) -> int:
        cluster = Cluster(n=n, seed=seed)
        mail = DirectMailProtocol(remail_on_news=remail)
        anti = AntiEntropyProtocol(
            config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL)
        )
        cluster.add_protocol(mail)
        cluster.add_protocol(anti)
        # Plant the update silently at roughly half the sites (as if an
        # earlier partial distribution had happened), bypassing the
        # protocols so the initial mailing itself is not counted.
        update = cluster.sites[0].store.update("the-key", "the-value")
        for site_id in planted_sites(cluster, seed, initial_coverage):
            cluster.sites[site_id].store.apply_entry(update.key, update.entry)
        cluster.run_cycles(cycles)
        return mail.stats.posted

    return RemailBlowupResult(
        n=n,
        messages_with_remail=run(remail=True),
        messages_without_remail=run(remail=False),
    )
