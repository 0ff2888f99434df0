"""Section 1.4's residue laws.

* The rumor ODE's fixed point s = e^{-(k+1)(1-s)}: ~20% miss at k=1,
  ~6% at k=2 — checked against stochastic simulation.
* The s = e^{-m} traffic law shared by the push variants.
* Connection limit 1 *improves* push (s = e^{-lambda m} with
  lambda = 1/(1 - e^{-1})), and hunting improves it further.
"""

import pytest

from conftest import run_once
from repro.analysis.epidemic_theory import (
    connection_limited_push_residue,
    residue_from_traffic,
    rumor_residue,
)
from repro.experiments.report import format_table
from repro.experiments.tables import run_rumor_trial
from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig
from repro.sim.metrics import mean
from repro.sim.transport import ConnectionPolicy


def _average_run(n, config, runs, seed0):
    residues, traffics = [], []
    for run in range(runs):
        metrics = run_rumor_trial(n, config, seed=seed0 + run)
        residues.append(metrics.residue)
        traffics.append(metrics.traffic_per_site)
    return mean(residues), mean(traffics)


def test_ode_fixed_point_matches_simulation(benchmark, bench_n, bench_runs):
    """Feedback+coin simulation lands on the ODE's residue."""
    def run():
        rows = []
        for k in (1, 2):
            config = RumorConfig(
                mode=ExchangeMode.PUSH, feedback=True, counter=False, k=k
            )
            residue, traffic = _average_run(bench_n, config, bench_runs, 900 + k)
            rows.append((k, residue, rumor_residue(k)))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["k", "simulated residue", "ODE fixed point"],
            rows,
            title="Rumor ODE vs simulation (feedback+coin push)",
        )
    )
    for k, simulated, predicted in rows:
        assert simulated == pytest.approx(predicted, abs=0.12)


def test_push_traffic_law(benchmark, bench_n, bench_runs):
    """s = e^-m across the push design space."""
    variants = [
        ("feedback+counter", RumorConfig(mode=ExchangeMode.PUSH, k=2)),
        ("feedback+coin", RumorConfig(mode=ExchangeMode.PUSH, counter=False, k=3)),
        ("blind+coin", RumorConfig(mode=ExchangeMode.PUSH, feedback=False,
                                   counter=False, k=4)),
        ("blind+counter", RumorConfig(mode=ExchangeMode.PUSH, feedback=False,
                                      counter=True, k=5)),
    ]

    def run():
        rows = []
        for label, config in variants:
            residue, traffic = _average_run(
                bench_n, config, bench_runs, hash(label) % 1000
            )
            rows.append((label, residue, traffic, residue_from_traffic(traffic)))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["variant", "residue", "m", "e^-m"],
            rows,
            title="The s = e^-m law across push variants",
        )
    )
    for label, residue, traffic, law in rows:
        if residue > 1e-3:
            assert 0.25 < residue / law < 4.0, label


def test_connection_limit_improves_push(benchmark, bench_n, bench_runs):
    """Paradox of Section 1.4: limit 1 makes push *better* per unit
    traffic, approaching s = e^{-lambda m}."""
    config_free = RumorConfig(mode=ExchangeMode.PUSH, k=2)
    config_limited = RumorConfig(
        mode=ExchangeMode.PUSH, k=2,
        policy=ConnectionPolicy(connection_limit=1, hunt_limit=0),
    )

    def run():
        free = _average_run(bench_n, config_free, bench_runs, 300)
        limited = _average_run(bench_n, config_limited, bench_runs, 400)
        return free, limited

    (free_s, free_m), (lim_s, lim_m) = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["variant", "residue", "m", "e^-m", "e^-lambda*m"],
            [
                (label, s, m, residue_from_traffic(m), connection_limited_push_residue(m))
                for label, s, m in [("no limit", free_s, free_m), ("limit 1", lim_s, lim_m)]
            ],
            title="Connection limit 1 helps push",
        )
    )
    # The limited variant's residue beats the unlimited law e^-m at its
    # own traffic level — the connection limit converted rejected
    # (useless) contacts into saved transmissions.
    assert lim_s < residue_from_traffic(lim_m)
    # And it tracks the predicted e^{-lambda m} within a broad factor.
    predicted = connection_limited_push_residue(lim_m)
    if lim_s > 0 and predicted > 1e-6:
        assert 0.05 < lim_s / predicted < 20.0


def test_hunting_improves_connection_limited_push(benchmark, bench_n, bench_runs):
    def residue_with_hunt(hunt):
        config = RumorConfig(
            mode=ExchangeMode.PUSH, k=2,
            policy=ConnectionPolicy(connection_limit=1, hunt_limit=hunt),
        )
        residue, __ = _average_run(bench_n, config, bench_runs, 500 + hunt)
        return residue

    no_hunt, hunting = run_once(
        benchmark, lambda: (residue_with_hunt(0), residue_with_hunt(8))
    )
    print(f"\nresidue: hunt=0 {no_hunt:.4f}  hunt=8 {hunting:.4f}")
    assert hunting <= no_hunt + 0.01


def test_minimization_has_smallest_residue(benchmark, bench_n, bench_runs):
    """'It results in the smallest residue we have seen so far.'

    Counter minimization spends its counters where they matter, so at
    *matched or lower traffic* it beats the plain push-pull variant:
    minimization at k=2 uses less traffic than plain k=1 yet leaves
    orders of magnitude fewer susceptibles.
    """
    plain = RumorConfig(mode=ExchangeMode.PUSH_PULL, k=1)
    minimized = RumorConfig(mode=ExchangeMode.PUSH_PULL, k=2, minimization=True)
    runs = max(bench_runs, 8)

    def run():
        return (
            _average_run(bench_n, plain, runs, 600),
            _average_run(bench_n, minimized, runs, 700),
        )

    (plain_s, plain_m), (min_s, min_m) = run_once(benchmark, run)
    print(f"\npush-pull: plain k=1 s={plain_s:.2e} (m={plain_m:.1f})  "
          f"minimization k=2 s={min_s:.2e} (m={min_m:.1f})")
    assert min_m < plain_m            # cheaper...
    assert min_s < plain_s            # ...and more complete


def test_connection_limit_hurts_pull(benchmark, bench_n, bench_runs):
    """Pull's power needs every site served every cycle; with a limit,
    'pull gets significantly worse' (Section 1.4)."""
    free = RumorConfig(mode=ExchangeMode.PULL, k=2)
    limited = RumorConfig(
        mode=ExchangeMode.PULL, k=2,
        policy=ConnectionPolicy(connection_limit=1, hunt_limit=0),
    )

    def run():
        return (
            _average_run(bench_n, free, bench_runs, 810),
            _average_run(bench_n, limited, bench_runs, 820),
        )

    (free_s, free_m), (lim_s, lim_m) = run_once(benchmark, run)
    print(f"\npull k=2: no limit s={free_s:.2e} (m={free_m:.1f})  "
          f"limit 1 s={lim_s:.2e} (m={lim_m:.1f})")
    # The residue degrades by a large factor under the limit.
    assert lim_s > max(free_s * 3, 1e-4)


def test_permutation_limit_makes_push_and_pull_equivalent(
    benchmark, bench_n, bench_runs
):
    """Connection limit 1 with a generous hunt limit yields a complete
    permutation of conversations, making push and pull equivalent with
    very small residue (Section 1.4, 'Hunting')."""
    policy = ConnectionPolicy(connection_limit=1, hunt_limit=200)
    push = RumorConfig(mode=ExchangeMode.PUSH, k=3, policy=policy)
    pull = RumorConfig(mode=ExchangeMode.PULL, k=3, policy=policy)

    def run():
        return (
            _average_run(bench_n, push, bench_runs, 830),
            _average_run(bench_n, pull, bench_runs, 840),
        )

    (push_s, push_m), (pull_s, pull_m) = run_once(benchmark, run)
    print(f"\npermutation regime k=3: push s={push_s:.2e}  pull s={pull_s:.2e}")
    # Both residues are very small and of the same order.
    assert push_s < 0.02
    assert pull_s < 0.02
