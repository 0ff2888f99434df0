"""Tables 1-3: rumor-mongering variants on 1000 uniformly-mixed sites.

Each trial injects a single update at site 0 and runs the configured
rumor-mongering variant to quiescence (no hot rumors anywhere),
recording the paper's four metrics: residue ``s``, traffic ``m``
(update messages per site), and the convergence delays ``t_ave`` and
``t_last``.

* **Table 1** — push, feedback + counter, k = 1..5;
* **Table 2** — push, blind + coin, k = 1..5;
* **Table 3** — pull, feedback + counter (footnote semantics), k = 1..3.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.experiments.runner import TrialRunner, resolve_runner, single_update
from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol
from repro.sim.metrics import EpidemicMetrics, mean
from repro.sim.transport import ConnectionPolicy, UNLIMITED
from repro.topology.spatial import PartnerSelector


@dataclasses.dataclass(slots=True)
class RumorRow:
    """One averaged row of a Table 1/2/3-style result."""

    k: int
    residue: float
    traffic: float
    t_ave: float
    t_last: float
    runs: int

    def as_tuple(self):
        return (self.k, self.residue, self.traffic, self.t_ave, self.t_last)


def run_rumor_trial(
    n: int,
    config: RumorConfig,
    seed: int,
    max_cycles: int = 1000,
    selector: Optional[PartnerSelector] = None,
    injection_site: int = 0,
    engine: str = "auto",
) -> EpidemicMetrics:
    """One epidemic to quiescence; returns its metrics.

    ``engine`` picks the implementation: ``"batched"`` runs the flat
    array core (:mod:`repro.sim.batch`), ``"reference"`` the scalar
    :class:`Cluster` path, and ``"auto"`` (default) the batched core
    whenever the trial shape allows it — uniform partner selection over
    the whole population (``selector=None``).  Both engines are
    bit-for-bit identical; the golden tests hold them equal.
    """
    if engine not in ("auto", "batched", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    use_batched = engine == "batched" or (engine == "auto" and selector is None)
    if use_batched:
        if selector is not None:
            raise ValueError("the batched engine requires uniform partner selection")
        from repro.sim.batch import rumor_trial

        return rumor_trial(
            n, config, seed, max_cycles=max_cycles, injection_site=injection_site
        )
    protocol = RumorMongeringProtocol(config, selector=selector)
    cluster, __ = single_update(protocol, seed, start=injection_site, n=n)
    cluster.run_until(lambda: not protocol.active, max_cycles=max_cycles)
    return cluster.metrics


def run_anti_entropy_trial(
    n: int,
    mode: ExchangeMode = ExchangeMode.PUSH_PULL,
    seed: int = 0,
    max_cycles: int = 200,
    injection_site: int = 0,
    engine: str = "auto",
) -> EpidemicMetrics:
    """One synchronous anti-entropy epidemic run until every site is
    infected; returns its metrics.  ``engine`` as in
    :func:`run_rumor_trial` (the batched core covers the unlimited
    uniform-selection shape both engines are benchmarked on)."""
    if engine not in ("auto", "batched", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    if engine != "reference":
        from repro.sim.batch import anti_entropy_trial

        return anti_entropy_trial(
            n, mode, seed, max_cycles=max_cycles, injection_site=injection_site
        )
    from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol

    protocol = AntiEntropyProtocol(config=AntiEntropyConfig(mode=mode))
    cluster, __ = single_update(protocol, seed, start=injection_site, n=n)
    cluster.run_until(lambda: cluster.metrics.complete, max_cycles=max_cycles)
    return cluster.metrics


def rumor_table(
    n: int,
    ks: Sequence[int],
    mode: ExchangeMode,
    feedback: bool,
    counter: bool,
    runs: int = 5,
    seed: int = 0,
    policy: ConnectionPolicy = UNLIMITED,
    minimization: bool = False,
    runner: Optional[TrialRunner] = None,
    engine: str = "auto",
) -> List[RumorRow]:
    """Run one table: sweep ``k``, average ``runs`` independent trials.

    The whole sweep — every ``(k, run)`` pair — is one flat batch
    handed to the :class:`TrialRunner`, so a parallel runner load-balances
    across the entire table rather than one row at a time.  Per-trial
    seeds are explicit, so the rows are identical whatever ``jobs`` is.
    """
    runner = resolve_runner(runner)
    ks = list(ks)
    configs = {
        k: RumorConfig(
            mode=mode,
            feedback=feedback,
            counter=counter,
            k=k,
            policy=policy,
            minimization=minimization,
        )
        for k in ks
    }
    params = [
        dict(n=n, config=configs[k], seed=seed * 10_000 + k * 100 + run, engine=engine)
        for k in ks
        for run in range(runs)
    ]
    results = runner.map(run_rumor_trial, params)
    rows: List[RumorRow] = []
    for index, k in enumerate(ks):
        metrics_list = results[index * runs:(index + 1) * runs]
        rows.append(
            RumorRow(
                k=k,
                residue=mean([m.residue for m in metrics_list]),
                traffic=mean([m.traffic_per_site for m in metrics_list]),
                t_ave=mean([m.t_ave for m in metrics_list]),
                t_last=mean([m.t_last for m in metrics_list]),
                runs=runs,
            )
        )
    return rows


def table1(
    n: int = 1000, runs: int = 5, seed: int = 1,
    runner: Optional[TrialRunner] = None, engine: str = "auto",
) -> List[RumorRow]:
    """Push rumor mongering with feedback and counters, k = 1..5."""
    return rumor_table(
        n, ks=range(1, 6), mode=ExchangeMode.PUSH, feedback=True, counter=True,
        runs=runs, seed=seed, runner=runner, engine=engine,
    )


def table2(
    n: int = 1000, runs: int = 5, seed: int = 2,
    runner: Optional[TrialRunner] = None, engine: str = "auto",
) -> List[RumorRow]:
    """Push rumor mongering, blind and coin, k = 1..5."""
    return rumor_table(
        n, ks=range(1, 6), mode=ExchangeMode.PUSH, feedback=False, counter=False,
        runs=runs, seed=seed, runner=runner, engine=engine,
    )


def table3(
    n: int = 1000, runs: int = 5, seed: int = 3,
    runner: Optional[TrialRunner] = None, engine: str = "auto",
) -> List[RumorRow]:
    """Pull rumor mongering with feedback and counters (footnote
    semantics: any needy recipient resets the counter), k = 1..3."""
    return rumor_table(
        n, ks=range(1, 4), mode=ExchangeMode.PULL, feedback=True, counter=True,
        runs=runs, seed=seed, runner=runner, engine=engine,
    )


# Paper values for shape comparison (EXPERIMENTS.md records the deltas).
PAPER_TABLE1 = [
    (1, 0.18, 1.7, 11.0, 16.8),
    (2, 0.037, 3.3, 12.1, 16.9),
    (3, 0.011, 4.5, 12.5, 17.4),
    (4, 0.0036, 5.6, 12.7, 17.5),
    (5, 0.0012, 6.7, 12.8, 17.7),
]

PAPER_TABLE2 = [
    (1, 0.96, 0.04, 19.0, 38.0),
    (2, 0.20, 1.6, 17.0, 33.0),
    (3, 0.060, 2.8, 15.0, 32.0),
    (4, 0.021, 3.9, 14.1, 32.0),
    (5, 0.008, 4.9, 13.8, 32.0),
]

PAPER_TABLE3 = [
    (1, 3.1e-2, 2.7, 9.97, 17.6),
    (2, 5.8e-4, 4.5, 10.07, 15.4),
    (3, 4.0e-6, 6.1, 10.08, 14.0),
]
