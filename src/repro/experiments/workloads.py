"""The steady-state checksum study: choosing tau under sustained load.

The paper's tables track one update at a time; a deployed
Clearinghouse sees a continuous stream.  Sustained load is what makes
the **choice of tau** for the checksum + recent-update-list exchange
matter (Section 1.3): tau must exceed the expected update distribution
time or "checksum comparisons will usually fail and network traffic
will rise to a level slightly higher than what would be produced by
anti-entropy without checksums".

Workload generation itself lives in :mod:`repro.workload` — true
Poisson arrivals, Zipf popularity, read/delete mixes, open- and
closed-loop modes; the tau study below drives a cluster with it.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.cluster.cluster import Cluster
from repro.experiments.runner import TrialRunner, resolve_runner
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import ChecksumWithRecent
from repro.sim.rng import derive_seed
from repro.workload.driver import WorkloadDriver
from repro.workload.generators import WorkloadConfig

__all__ = [
    "SteadyStateResult",
    "run_tau_point",
    "checksum_tau_experiment",
]


@dataclasses.dataclass(slots=True)
class SteadyStateResult:
    tau: float
    update_rate: float
    checksum_success_rate: float
    entries_examined_per_exchange: float
    full_compare_rate: float
    converged_after_quiesce: bool


def run_tau_point(
    n: int,
    tau: float,
    update_rate: float,
    cycles: int,
    seed: int,
) -> SteadyStateResult:
    """One point of the tau sweep: a full sustained-load run at one tau."""
    cluster = Cluster(n=n, seed=derive_seed(seed, tau))
    protocol = AntiEntropyProtocol(
        config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, synchronous=False),
        strategy=ChecksumWithRecent(tau=tau),
    )
    cluster.add_protocol(protocol)
    driver = WorkloadDriver(
        cluster, WorkloadConfig(updates_per_cycle=update_rate), seed=seed
    )
    driver.run(cycles)
    exchanges = max(protocol.stats.exchanges, 1)
    checksum_successes = protocol.stats.checksum_successes
    full_compares = protocol.stats.full_compares
    # Quiesce: stop injecting, confirm convergence still happens.
    converged = True
    try:
        cluster.run_until(cluster.converged, max_cycles=100)
    except RuntimeError:
        converged = False
    return SteadyStateResult(
        tau=tau,
        update_rate=update_rate,
        checksum_success_rate=checksum_successes / exchanges,
        entries_examined_per_exchange=(
            protocol.stats.entries_examined / exchanges
        ),
        full_compare_rate=full_compares / exchanges,
        converged_after_quiesce=converged,
    )


def checksum_tau_experiment(
    n: int = 30,
    tau_values: Sequence[float] = (2.0, 5.0, 10.0, 20.0, 50.0),
    update_rate: float = 2.0,
    cycles: int = 60,
    seed: int = 0,
    runner: Optional[TrialRunner] = None,
) -> List[SteadyStateResult]:
    """Sweep tau for the checksum + recent-list exchange under load.

    Expected shape: success rate near zero when tau is below the
    distribution time (~log n cycles), climbing toward one as tau
    passes it, with entries-examined falling correspondingly.  Each tau
    point is an independent seeded run, fanned out by the runner.
    """
    return resolve_runner(runner).map(
        run_tau_point,
        [
            dict(n=n, tau=tau, update_rate=update_rate, cycles=cycles, seed=seed)
            for tau in tau_values
        ],
    )
