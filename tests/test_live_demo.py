"""End-to-end: a real localhost TCP cluster converges on one update.

Three nodes on ephemeral ports, one injected update, and a wall-clock
bound on convergence — the live-runtime acceptance test.  The bound is
deliberately generous (anti-entropy alone covers 3 nodes in a couple
of 50 ms rounds; 15 s absorbs any CI scheduling noise).
"""

import asyncio

from repro.net.node import NodeConfig
from repro.net.peer import RetryPolicy
from repro.net.runner import LiveCluster, live_demo

FAST = NodeConfig(
    anti_entropy_interval=0.05,
    rumor_interval=0.02,
    retry=RetryPolicy(connect_timeout=1.0, io_timeout=2.0, attempts=2),
)

BOUND_SECONDS = 15.0


class TestThreeNodeConvergence:
    def test_one_update_reaches_every_store(self):
        async def scenario():
            cluster = await LiveCluster.launch(3, FAST)
            try:
                await cluster.inject(0, "printer:bldg-35", "10.0.7.12")
                converged = await cluster.wait_converged(
                    "printer:bldg-35", timeout=BOUND_SECONDS
                )
                statuses = await cluster.status_all()
            finally:
                await cluster.stop()
            return converged, statuses

        converged, statuses = asyncio.run(scenario())
        assert converged, "3-node cluster failed to converge within the bound"
        assert sorted(statuses) == [0, 1, 2]
        checksums = {s["checksum"] for s in statuses.values()}
        assert len(checksums) == 1
        for payload in statuses.values():
            assert payload["entries"] == 1
            assert "printer:bldg-35" in payload["received"]

    def test_live_demo_report(self):
        report = asyncio.run(live_demo(nodes=3, config=FAST, timeout=BOUND_SECONDS))
        assert report.converged
        assert report.n == 3
        assert report.residue == 0.0          # nobody missed the update
        assert 0.0 <= report.t_ave <= report.t_last <= BOUND_SECONDS
        assert len(report.nodes) == 3
        # The injecting node's delay is ~0; everyone has a receipt time.
        assert all(row.receipt_delay is not None for row in report.nodes)
        assert any("converged=True" in line for line in report.lines())

    def test_killing_a_node_does_not_block_survivors(self):
        report = asyncio.run(
            live_demo(nodes=3, config=FAST, churn=True, timeout=BOUND_SECONDS)
        )
        assert report.converged
        assert report.churned_node == 2
        # The restarted-empty node was caught up by anti-entropy.
        assert all(row.entries == 1 for row in report.nodes)
