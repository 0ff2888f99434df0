"""What the live workloads, the peer probe and the environment block
share: clusters whose gossip timers never fire, and version warm-up."""

from __future__ import annotations

import asyncio

#: Both gossip intervals are parked here, so no timer fires in a run
#: and every round is one the benchmark drove.
PARKED_S = 3600.0


def parked_config(**overrides):
    """Default ``NodeConfig`` but for the parked timers."""
    from repro.net.node import NodeConfig

    return NodeConfig(
        anti_entropy_interval=PARKED_S, rumor_interval=PARKED_S, **overrides
    )


async def negotiate(nodes, max_rounds: int = 400) -> int:
    """Gossip on whatever the stores hold until every pair of nodes has
    learned the other's wire version; returns that version."""
    from repro.net.wire import PROTOCOL_VERSION

    for _ in range(max_rounds):
        if all(
            node.wire_version(peer) == PROTOCOL_VERSION
            for node in nodes
            for peer in node.peers
        ):
            break
        await asyncio.gather(*(node.run_anti_entropy_once() for node in nodes))
    return min(node.wire_version(peer) for node in nodes for peer in node.peers)


def count_node_failures(result, nodes) -> None:
    """Every conversation a node gave up on or was refused is one
    failed operation of the workload."""
    for name in ("peer_failures", "rejections_out"):
        for _ in range(sum(getattr(node.stats, name) for node in nodes)):
            result.check(False, f"a node counted {name}")
