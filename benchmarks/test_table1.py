"""Table 1: push rumor mongering, feedback + counter, n = 1000.

Paper (residue, traffic, t_ave, t_last by k):
    k=1: 0.18    1.7  11.0  16.8
    k=2: 0.037   3.3  12.1  16.9
    k=3: 0.011   4.5  12.5  17.4
    k=4: 0.0036  5.6  12.7  17.5
    k=5: 0.0012  6.7  12.8  17.7
"""

from conftest import run_once
from repro.analysis.epidemic_theory import residue_from_traffic
from repro.experiments.report import format_table
from repro.experiments.tables import PAPER_TABLE1, table1


def test_table1_feedback_counter_push(benchmark, bench_runs, bench_n):
    rows = run_once(benchmark, table1, n=bench_n, runs=bench_runs)
    print()
    print(
        format_table(
            ["k", "residue", "m", "t_ave", "t_last"],
            [r.as_tuple() for r in rows],
            title=f"Table 1 (measured, n={bench_n}, {bench_runs} runs)",
        )
    )
    print(
        format_table(
            ["k", "residue", "m", "t_ave", "t_last"],
            PAPER_TABLE1,
            title="Table 1 (paper)",
        )
    )
    # Shape assertions: residue decreasing, traffic increasing, s ~ e^-m.
    residues = [r.residue for r in rows]
    traffics = [r.traffic for r in rows]
    assert residues == sorted(residues, reverse=True)
    assert traffics == sorted(traffics)
    assert abs(rows[0].residue - 0.18) < 0.08
    for row in rows:
        if row.residue > 0:
            assert 0.3 < row.residue / residue_from_traffic(row.traffic) < 3.0
    # Convergence delays in the paper's regime (~10-20 cycles).
    assert all(8 < r.t_ave < 16 for r in rows)
    assert all(12 < r.t_last < 26 for r in rows)
