"""Section 1.3 analysis: the anti-entropy endgame and Pittel's bound.

With few susceptibles left, pull obeys p_{i+1} = p_i^2 while push only
achieves p_{i+1} ~ p_i / e.  And a push simple epidemic from a single
seed takes ~ log2(n) + ln(n) cycles.
"""

import pytest

from conftest import run_once
from repro.analysis.recurrences import pull_tail, push_tail
from repro.experiments.baselines import anti_entropy_tail, push_epidemic_cycles
from repro.experiments.report import format_table
from repro.protocols.base import ExchangeMode


def test_endgame_simulation_matches_recurrences(benchmark, bench_n):
    start = 0.1

    def run():
        pull = anti_entropy_tail(
            n=bench_n * 2, initial_susceptible=start,
            mode=ExchangeMode.PULL, seed=50,
        )
        push = anti_entropy_tail(
            n=bench_n * 2, initial_susceptible=start,
            mode=ExchangeMode.PUSH, seed=50,
        )
        return pull, push

    pull, push = run_once(benchmark, run)
    pull_predicted = pull_tail(start, 6)
    push_predicted = push_tail(start, n=bench_n * 2, cycles=6)
    rows = []
    for i in range(min(5, len(pull.fractions), len(push.fractions))):
        rows.append(
            (i, pull.fractions[i], pull_predicted[i],
             push.fractions[i], push_predicted[i])
        )
    print()
    print(
        format_table(
            ["cycle", "pull sim", "pull p^2", "push sim", "push rec"],
            rows,
            title="Anti-entropy endgame: simulated vs recurrence",
        )
    )
    # Pull: one cycle squares the susceptible fraction.
    assert pull.fractions[1] == pytest.approx(pull_predicted[1], abs=0.02)
    # Push: one cycle shrinks by roughly e.
    assert push.fractions[1] == pytest.approx(push_predicted[1], abs=0.03)
    # Pull wipes out the residue in a couple of cycles; push lingers.
    assert pull.cycles_to_zero() < 6
    assert push.fractions[3] > 0


def test_push_pull_ordering_across_seeds(benchmark, bench_n):
    """Pull's endgame dominance is not a one-seed artifact."""
    wins = run_once(benchmark, _count_pull_wins, bench_n)
    assert wins >= 4


def _count_pull_wins(bench_n):
    wins = 0
    for seed in range(5):
        pull = anti_entropy_tail(
            n=bench_n, initial_susceptible=0.1, mode=ExchangeMode.PULL,
            seed=seed, max_cycles=4,
        )
        push = anti_entropy_tail(
            n=bench_n, initial_susceptible=0.1, mode=ExchangeMode.PUSH,
            seed=seed, max_cycles=4,
        )
        if pull.fractions[-1] <= push.fractions[-1]:
            wins += 1
    return wins


def test_pittel_bound(benchmark, bench_runs):
    result = run_once(benchmark, push_epidemic_cycles, n=1024, runs=bench_runs)
    print()
    print(
        format_table(
            ["n", "measured cycles", "log2 n + ln n"],
            [(result.n, result.mean_cycles, result.pittel_prediction)],
            title="Push simple epidemic vs Pittel",
        )
    )
    assert result.mean_cycles == pytest.approx(result.pittel_prediction, rel=0.3)


def test_pittel_scaling_with_n(benchmark, bench_runs):
    def run():
        rows = []
        for n in (128, 512, 2048):
            result = push_epidemic_cycles(n=n, runs=max(3, bench_runs // 2), seed=60)
            rows.append((n, result.mean_cycles, result.pittel_prediction))
        return rows

    rows = run_once(benchmark, run)
    print()
    print(format_table(["n", "measured", "predicted"], rows))
    # Measured growth per 4x population is logarithmic: ~ 2 + ln 4.
    growth = rows[2][1] - rows[0][1]
    predicted_growth = rows[2][2] - rows[0][2]
    assert growth == pytest.approx(predicted_growth, abs=3.0)
