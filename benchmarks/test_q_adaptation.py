"""Section 3 / 3.1: Q_s(d)-based distributions adapt to the network's
local dimension.

On a D-dimensional mesh ``Q_s(d) = Theta(d^D)``, so ``1/Q_s(d)^2`` is
``Theta(d^-2D)`` *regardless of D* — one distribution, correct scaling
everywhere.  A fixed ``d^-2`` is right on a line but far too loose on
a 2-D mesh (where the good range is ``d^-3`` .. ``d^-4``).  The
paper's preliminary finding, reproduced here: Q-parameterized
distributions travel across topologies, and ``1/Q^2`` outperforms
``1/(d Q)``.
"""

from conftest import run_once
from repro.experiments.report import format_table
from repro.experiments.spatial import run_anti_entropy_trial
from repro.sim.metrics import mean
from repro.sim.rng import derive_seed
from repro.topology import builders
from repro.topology.distance import SiteDistances
from repro.topology.spatial import (
    DistancePowerSelector,
    QDistanceSelector,
    QPowerSelector,
)


def _measure(topology, selector, runs, seed):
    link_count = topology.edge_count
    t_lasts, traffics = [], []
    for run in range(runs):
        trial = run_anti_entropy_trial(
            topology, selector, seed=derive_seed(seed, run), max_cycles=2000
        )
        t_lasts.append(trial.t_last)
        traffics.append(trial.compare_total / (link_count * trial.cycles))
    return mean(t_lasts), mean(traffics)


def test_q_distribution_adapts_to_dimension(benchmark, bench_runs):
    """The same 1/Q^2 rule gives near-d^-2 behavior on a line and
    near-d^-4 behavior on a mesh; fixed d^-2 does not adapt."""
    runs = max(3, bench_runs // 3)
    line = builders.line(64)
    mesh = builders.grid(10, 10)

    def run():
        rows = []
        for name, topo in (("line-64", line), ("mesh-10x10", mesh)):
            distances = SiteDistances(topo)
            for label, selector in (
                ("d^-2", DistancePowerSelector(distances, a=2.0)),
                ("1/Q^2", QPowerSelector(distances, a=2.0)),
            ):
                t_last, traffic = _measure(topo, selector, runs, seed=hash((name, label)) % 10_000)
                rows.append((name, label, t_last, traffic))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["topology", "distribution", "t_last", "link traffic/cycle"],
            rows,
            title="Q-based selection adapts to local dimension",
        )
    )
    values = {(topo, dist): (t, tr) for topo, dist, t, tr in rows}
    # On the line the two behave comparably (Q(d) ~ 2d there) ...
    line_ratio = values[("line-64", "1/Q^2")][1] / values[("line-64", "d^-2")][1]
    assert 0.4 < line_ratio < 2.5
    # ... but on the mesh, d^-2 is too loose: it pays noticeably more
    # traffic per link than the dimension-adapted 1/Q^2.
    assert (
        values[("mesh-10x10", "d^-2")][1]
        > 1.3 * values[("mesh-10x10", "1/Q^2")][1]
    )


def test_q_squared_outperforms_d_times_q(benchmark, bench_runs, cin_network):
    """'In particular, 1/Q_s(d)^2 outperforms 1/(d Q_s(d))' — at
    matched convergence, Q^-2 puts less load on the critical link."""
    runs = max(3, bench_runs // 3)
    distances = SiteDistances(cin_network.topology)
    link_count = cin_network.topology.edge_count

    def run():
        results = {}
        for label, selector in (
            ("1/(d*Q)", QDistanceSelector(distances)),
            ("1/Q^2", QPowerSelector(distances, a=2.0)),
        ):
            t_lasts, bushey = [], []
            for trial_index in range(runs):
                trial = run_anti_entropy_trial(
                    cin_network.topology,
                    selector,
                    seed=derive_seed(17, label, trial_index),
                    special_link=cin_network.bushey,
                )
                t_lasts.append(trial.t_last)
                bushey.append(trial.compare_special / trial.cycles)
            results[label] = (mean(t_lasts), mean(bushey))
        return results

    results = run_once(benchmark, run)
    print()
    print(
        format_table(
            ["distribution", "t_last", "cmp Bushey/cycle"],
            [(k, v[0], v[1]) for k, v in results.items()],
            title="1/Q^2 vs 1/(d*Q) on the synthetic CIN",
        )
    )
    # Q^-2 is the more local distribution: far less critical-link load
    # for a bounded convergence cost.
    assert results["1/Q^2"][1] < 0.7 * results["1/(d*Q)"][1]
    assert results["1/Q^2"][0] < 3.0 * results["1/(d*Q)"][0]
