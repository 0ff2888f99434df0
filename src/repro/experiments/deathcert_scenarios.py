"""Section 2 scenarios: deletion, death certificates, dormancy,
activation timestamps.

Four stories, each the driver for a test and a benchmark:

1. **Resurrection** — naive removal of an item is undone by the
   propagation mechanism; a death certificate fixes it.
2. **Fixed threshold** — discarding certificates after ``tau1``
   reopens the resurrection window for copies older than the
   threshold (e.g. held by a long-partitioned site).
3. **Dormant certificates** — retention sites keep dormant copies for
   ``tau2`` more; an obsolete item returning after ``tau1`` is
   cancelled by an awakened certificate (the "immune reaction").
4. **Reinstatement** — a legitimate update newer than the deletion
   must survive a later certificate reactivation, which is exactly
   what the activation timestamp guarantees.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.cluster.cluster import Cluster
from repro.experiments.runner import TrialRunner, resolve_runner
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.deathcerts import CertificatePolicy, DeathCertificateManager


@dataclasses.dataclass(slots=True)
class ScenarioResult:
    description: str
    resurrected: bool
    value_visible_everywhere: Optional[bool] = None
    reactivations: int = 0
    cycles: int = 0


def _converged_cluster(n: int, seed: int, policy: Optional[CertificatePolicy] = None):
    """A cluster running push-pull anti-entropy, with key 'x' = 'v1'
    already everywhere."""
    cluster = Cluster(n=n, seed=seed)
    anti = AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL))
    cluster.add_protocol(anti)
    manager = None
    if policy is not None:
        manager = DeathCertificateManager(policy)
        cluster.add_protocol(manager)
    cluster.inject_update(0, "x", "v1")
    cluster.run_until(lambda: cluster.converged(), max_cycles=200)
    return cluster, manager


def _straggler_returns(
    n: int, seed: int, tau1: float, tau2: float, retention_count: int = 0
):
    """Site ``n - 1`` goes down holding 'x' = 'v1', site 0 deletes 'x'
    and the up sites converge; ``tau1`` + 2 cycles later no active
    certificate is left and the straggler rejoins with its old copy."""
    cluster, manager = _converged_cluster(n, seed, CertificatePolicy(tau1=tau1, tau2=tau2))
    straggler = cluster.sites[n - 1]
    straggler.up = False                         # long partition begins
    cluster.inject_delete(0, "x", retention_count=retention_count)
    cluster.run_until(
        lambda: cluster.converged(cluster.up_site_ids()), max_cycles=200
    )
    cluster.run_cycles(int(tau1) + 2)
    straggler.up = True                          # rejoins with old data
    return cluster, manager


def resurrection_scenario(n: int = 30, seed: int = 30, use_certificate: bool = False) -> ScenarioResult:
    """Scenario 1: delete at one site; does the item come back?"""
    cluster, __ = _converged_cluster(n, seed)
    if use_certificate:
        cluster.inject_delete(0, "x")
    else:
        # Naive removal: what a deletion would be without certificates.
        cluster.sites[0].store.purge("x")
    cluster.run_until(lambda: cluster.converged(), max_cycles=200)
    resurrected = cluster.sites[0].store.get("x") is not None
    return ScenarioResult(
        description="certificate" if use_certificate else "naive-delete",
        resurrected=resurrected,
        cycles=cluster.cycle,
    )


def fixed_threshold_scenario(
    n: int = 30, tau1: float = 10.0, seed: int = 31
) -> ScenarioResult:
    """Scenario 2: certificate discarded after tau1; an old copy held by
    a long-partitioned site then resurrects the item everywhere."""
    cluster, __ = _straggler_returns(n, seed, tau1, tau2=0.0)
    cluster.run_until(lambda: cluster.converged(), max_cycles=400)
    resurrected = cluster.sites[0].store.get("x") is not None
    return ScenarioResult(
        description=f"fixed-threshold tau1={tau1:g}",
        resurrected=resurrected,
        cycles=cluster.cycle,
    )


def dormant_certificate_scenario(
    n: int = 30,
    tau1: float = 10.0,
    tau2: float = 500.0,
    retention_count: int = 4,
    seed: int = 32,
) -> ScenarioResult:
    """Scenario 3: same story, but dormant copies at ``r`` retention
    sites awaken and kill the resurrection."""
    cluster, manager = _straggler_returns(n, seed, tau1, tau2, retention_count)
    cluster.run_until(lambda: cluster.converged(), max_cycles=600)
    resurrected = any(
        cluster.sites[s].store.get("x") is not None for s in cluster.site_ids
    )
    return ScenarioResult(
        description=f"dormant r={retention_count}",
        resurrected=resurrected,
        reactivations=manager.stats.reactivations,
        cycles=cluster.cycle,
    )


def reinstatement_scenario(
    n: int = 30,
    tau1: float = 10.0,
    tau2: float = 500.0,
    retention_count: int = 4,
    seed: int = 33,
) -> ScenarioResult:
    """Scenario 4: delete, then legitimately reinstate the item; a later
    certificate reactivation must NOT cancel the reinstatement.

    The reactivated certificate keeps its original ordinary timestamp
    (only the activation timestamp moves), so the reinstating update —
    which is newer than the deletion — wins everywhere.
    """
    # The certificate expires into dormancy at the retention sites; the
    # straggler rejoins with the obsolete value and spreads it until a
    # dormant certificate wakes up.
    cluster, manager = _straggler_returns(n, seed, tau1, tau2, retention_count)
    cluster.run_until(lambda: manager.stats.reactivations > 0, max_cycles=400)
    # Now the dangerous interleaving: a legitimate reinstating update,
    # newer than the deletion but issued while a reactivated certificate
    # is circulating.  Because reactivation preserved the ordinary
    # timestamp, 'v2' must win everywhere.
    cluster.inject_update(1, "x", "v2")
    cluster.run_until(lambda: cluster.converged(), max_cycles=600)
    values = cluster.values_of("x")
    visible_everywhere = all(v == "v2" for v in values.values())
    return ScenarioResult(
        description="reinstatement survives reactivation",
        resurrected=not visible_everywhere,
        value_visible_everywhere=visible_everywhere,
        reactivations=manager.stats.reactivations,
        cycles=cluster.cycle,
    )


def _dispatch(fn, kwargs):
    """Trampoline so heterogeneous scenario calls fit one runner batch."""
    return fn(**kwargs)


def deletion_suite(
    runner: Optional[TrialRunner] = None,
) -> List[Tuple[str, ScenarioResult]]:
    """The whole Section 2 scenario battery as ``(label, result)`` rows.

    The five scenarios are independent seeded simulations, so they fan
    out over the trial runner; labels keep the CLI's presentation order.
    """
    tasks: List[Tuple[str, object, dict]] = [
        ("naive delete", resurrection_scenario, dict(use_certificate=False)),
        ("death certificate", resurrection_scenario, dict(use_certificate=True)),
        ("fixed threshold tau1", fixed_threshold_scenario, {}),
        ("dormant certificates", dormant_certificate_scenario, {}),
        ("reinstatement", reinstatement_scenario, {}),
    ]
    results = resolve_runner(runner).map(
        _dispatch, [dict(fn=fn, kwargs=kwargs) for __, fn, kwargs in tasks]
    )
    return [(label, result) for (label, __, ___), result in zip(tasks, results)]


def space_comparison(n: int = 300, tau: float = 30.0, tau1: float = 10.0, r: int = 4) -> float:
    """The paper's O(n) history-extension claim: equal space lets
    dormant certificates cover ``tau2 = (tau - tau1) n / r``."""
    return CertificatePolicy.space_budget_equivalent(tau, tau1, n, r)
