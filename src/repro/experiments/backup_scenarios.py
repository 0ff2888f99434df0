"""Section 1.5: the cost of recovering from a failed initial
distribution.

The worst case for redistribution-by-mail is an initial distribution
that reached about half the sites: on the next anti-entropy round each
of O(n) sites discovers the update missing somewhere and mails it to
all n sites — O(n^2) messages.  Re-introducing the update as a hot
rumor instead costs a small multiple of n update sends, and a rumor
already known nearly everywhere dies out almost immediately.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional

from repro.experiments.runner import (
    TrialRunner,
    planted_sites,
    resolve_runner,
    single_update,
)
from repro.protocols.backup import AntiEntropyBackup, RecoveryStrategy
from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig


@dataclasses.dataclass(slots=True)
class RecoveryCost:
    strategy: str
    n: int
    initial_coverage: float
    update_sends: int          # all update transmissions, any mechanism
    mail_messages: int
    cycles_to_converge: int
    converged: bool


def recovery_cost_experiment(
    n: int = 100,
    initial_coverage: float = 0.5,
    strategy: RecoveryStrategy = RecoveryStrategy.HOT_RUMOR,
    anti_entropy_period: int = 2,
    seed: int = 40,
    max_cycles: int = 400,
) -> RecoveryCost:
    """Plant an update at a fraction of sites, then let rumor mongering
    with anti-entropy backup finish the job under the given recovery
    strategy; measure what it cost."""
    protocol = AntiEntropyBackup(
        rumor_config=RumorConfig(
            mode=ExchangeMode.PUSH, feedback=True, counter=True, k=2
        ),
        anti_entropy_period=anti_entropy_period,
        recovery=strategy,
    )
    cluster, update = single_update(protocol, seed, n=n)
    metrics = cluster.metrics
    # Plant silently at the initial coverage (a failed initial
    # distribution), without making the planted copies hot.
    for site_id in planted_sites(cluster, seed, initial_coverage):
        cluster.sites[site_id].store.apply_entry(update.key, update.entry)
        metrics.record_receipt(site_id, 0.0)
    # Kill the seed's own hot rumor so recovery, not the original
    # epidemic, does the work.
    protocol.rumor.hot_list(0).clear()
    converged = True
    try:
        cluster.run_until(lambda: metrics.infected == n, max_cycles=max_cycles)
    except RuntimeError:
        converged = False
    mail_messages = protocol.mail.stats.posted if protocol.mail is not None else 0
    return RecoveryCost(
        strategy=strategy.value,
        n=n,
        initial_coverage=initial_coverage,
        update_sends=metrics.update_sends,
        mail_messages=mail_messages,
        cycles_to_converge=cluster.cycle,
        converged=converged,
    )


def compare_recovery_strategies(
    n: int = 100,
    initial_coverage: float = 0.5,
    seed: int = 41,
    runner: Optional[TrialRunner] = None,
) -> List[RecoveryCost]:
    """All three strategies on the same planted half-coverage state.

    The three runs share no state (each builds its own cluster from the
    same seed), so they fan out over the runner as three trials.
    """
    return resolve_runner(runner).map(
        recovery_cost_experiment,
        [
            dict(
                n=n, initial_coverage=initial_coverage, strategy=strategy, seed=seed
            )
            for strategy in (
                RecoveryStrategy.CONSERVATIVE,
                RecoveryStrategy.HOT_RUMOR,
                RecoveryStrategy.REDISTRIBUTE_MAIL,
            )
        ],
    )
