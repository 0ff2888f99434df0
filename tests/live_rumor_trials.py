"""Single-rumor trials on a live TCP cluster, scored as Tables 1–3 score
the simulator.

Both gossip timers are parked, so a trial is driven in synchronous
rounds — every node's ``run_rumor_once`` gathered, as
``perfbench/workloads/live_rumor.py`` drives them — from one client write
at node 0 until no node holds a hot rumor.  There is no anti-entropy.
Each trial spreads a fresh key through the same cluster.

* residue ``s``: the share of nodes without the key once nothing is hot;
* traffic ``m``: updates shipped per node (``updates_shipped`` deltas),
  what the simulator counts as update sends per site.
"""

from __future__ import annotations

import asyncio
import math
from typing import List, Sequence, Tuple

from repro.experiments.tables import run_rumor_trial
from repro.net.node import NodeConfig
from repro.net.runner import LiveCluster
from repro.protocols.rumor import RumorConfig

PARKED = dict(anti_entropy_interval=3600.0, rumor_interval=3600.0)


async def live_trials(
    config: RumorConfig, n: int, trials: int, max_rounds: int = 200
) -> Tuple[List[Tuple[float, float]], dict]:
    """``trials`` sequential trials; returns their ``(s, m)`` and the
    nodes' summed failure counters."""
    cluster = await LiveCluster.launch(n, NodeConfig(rumor=config, **PARKED))
    try:
        nodes = list(cluster.nodes.values())
        points = []
        for trial in range(trials):
            key = f"trial-{trial}"
            shipped = sum(node.stats.updates_shipped for node in nodes)
            await cluster.inject(0, key, trial)
            for __ in range(max_rounds):
                if not any(node.hot_rumor_count for node in nodes):
                    break
                await asyncio.gather(*(node.run_rumor_once() for node in nodes))
            else:
                raise AssertionError(f"trial {trial}: a rumor still hot after {max_rounds} rounds")
            missing = sum(node.store.get(key) is None for node in nodes)
            shipped = sum(node.stats.updates_shipped for node in nodes) - shipped
            points.append((missing / n, shipped / n))
        failures = {
            name: sum(getattr(node.stats, name) for node in nodes)
            for name in ("peer_failures", "inbound_errors", "step_errors")
        }
        return points, failures
    finally:
        await cluster.stop()


def simulated_trials(config: RumorConfig, n: int, trials: int) -> List[Tuple[float, float]]:
    """The simulator's ``(s, m)`` for the same point, one seed per trial."""
    return [
        (metrics.residue, metrics.traffic_per_site)
        for metrics in (run_rumor_trial(n, config, seed) for seed in range(trials))
    ]


def mean_and_error(values: Sequence[float]) -> Tuple[float, float]:
    """Sample mean and its standard error."""
    mean = sum(values) / len(values)
    variance = sum((value - mean) ** 2 for value in values) / (len(values) - 1)
    return mean, math.sqrt(variance / len(values))
