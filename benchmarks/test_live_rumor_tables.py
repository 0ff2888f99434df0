"""Tables 1–3 on real sockets: one design point of each, live vs simulated.

A ``LiveCluster`` of n = 32 TCP nodes runs 30 sequential single-rumor
trials per point, in gathered rounds and with no anti-entropy (see
``tests/live_rumor_trials.py``); the simulator runs 30 seeded trials of
the same point at the same n.  The live node drives the very endpoints
the simulator does (``protocols/rumor.py``), so its mean residue ``s``
and traffic ``m`` must fall within the simulator's mean ± 3 combined
standard errors:

* Table 1 — push, feedback, counter, k = 2;
* Table 2 — push, blind, coin, k = 2;
* Table 3 — pull, feedback, counter, k = 2.
"""

import asyncio
import math
import pathlib
import sys

import pytest

from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig

sys.path.append(str(pathlib.Path(__file__).resolve().parents[1] / "tests"))
from live_rumor_trials import live_trials, mean_and_error, simulated_trials  # noqa: E402

N = 32
TRIALS = 30

POINTS = {
    "table1-push-feedback-counter": RumorConfig(mode=ExchangeMode.PUSH, k=2),
    "table2-push-blind-coin": RumorConfig(
        mode=ExchangeMode.PUSH, feedback=False, counter=False, k=2
    ),
    "table3-pull-feedback-counter": RumorConfig(mode=ExchangeMode.PULL, k=2),
}


@pytest.mark.parametrize("point", POINTS)
def test_live_point_matches_the_simulator(point):
    config = POINTS[point]
    live, failures = asyncio.run(live_trials(config, N, TRIALS))
    simulated = simulated_trials(config, N, TRIALS)
    print(f"\n{point} ({config.describe()}), n={N}, {TRIALS} trials each")
    for index, name in enumerate(("residue s", "traffic m")):
        live_mean, live_error = mean_and_error([trial[index] for trial in live])
        sim_mean, sim_error = mean_and_error([trial[index] for trial in simulated])
        bound = 3 * math.hypot(live_error, sim_error)
        print(
            f"  {name}: live {live_mean:.4f} ± {live_error:.4f}, "
            f"simulated {sim_mean:.4f} ± {sim_error:.4f}"
        )
        assert abs(live_mean - sim_mean) <= bound, (name, live_mean, sim_mean, bound)
    assert failures == {"peer_failures": 0, "inbound_errors": 0, "step_errors": 0}
