"""Pull and push-pull rumor mongering on real sockets (Section 1.4).

A smoke of what ``benchmarks/test_live_rumor_tables.py`` measures at
paper-fidelity scale: eight TCP nodes, five single-rumor trials per
design point, driven in gathered rounds with anti-entropy off.  A node
configured to pull must converge on its own, over the wire, and finish
every trial with no hot rumor left and nothing failed.
"""

import asyncio

import pytest

from live_rumor_trials import live_trials
from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig

POINTS = {
    "pull": RumorConfig(mode=ExchangeMode.PULL, k=2),
    "push-pull-minimization": RumorConfig(mode=ExchangeMode.PUSH_PULL, k=2, minimization=True),
}


@pytest.mark.parametrize("point", POINTS)
def test_a_pulling_cluster_converges(point):
    trials, failures = asyncio.run(live_trials(POINTS[point], n=8, trials=5))
    residues = [residue for residue, __ in trials]
    assert failures == {"peer_failures": 0, "inbound_errors": 0, "step_errors": 0}
    assert residues.count(0.0) >= 4      # the rumor reached every node
    assert all(traffic > 0 for __, traffic in trials)
