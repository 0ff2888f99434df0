"""Smoke tests: every example script runs to completion and prints its
headline result.  Guards the repository's runnable-examples promise."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"

EXPECTED_MARKERS = {
    "quickstart.py": "converged after",
    "rumor_variants.py": "residue",
    "death_certificates.py": "resurrected=False",
    "spatial_tuning.py": "asymptotic T(n)",
    "clearinghouse.py": "transatlantic (Bushey)",
    "epidemic_curves.py": "final residue",
    "operations.py": "all consistent",
    "live_cluster.py": "live cluster converged",
}


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{name} exited {result.returncode}:\n{result.stderr[-2000:]}"
    )
    return result.stdout


def test_every_example_has_a_marker():
    """The marker table stays in sync with the examples directory."""
    on_disk = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    assert on_disk == set(EXPECTED_MARKERS)


@pytest.mark.parametrize("name", sorted(EXPECTED_MARKERS))
def test_example_runs(name):
    output = run_example(name)
    assert EXPECTED_MARKERS[name] in output, (
        f"{name} output missing {EXPECTED_MARKERS[name]!r}:\n{output[-1500:]}"
    )
