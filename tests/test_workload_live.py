"""The live load generator: wire reads/deletes, curves, schema parity."""

import asyncio

from repro.analysis.traffic import traffic_summary
from repro.net.node import NodeConfig
from repro.net.peer import RetryPolicy
from repro.net.runner import LiveCluster
from repro.workload.generators import WorkloadConfig
from repro.obs.events import EventKind
from repro.sim.metrics import LinkTraffic
from repro.workload.geo import WanNetwork, three_datacenters
from repro.workload.live import (
    DEFAULT_DATACENTERS,
    LiveTrafficTap,
    LiveWorkloadConfig,
    assign_datacenters,
    run_live_workload,
)
from repro.workload.steady import SCHEMA, SteadyStateConfig, run_steady_state

FAST = NodeConfig(
    anti_entropy_interval=0.05,
    rumor_interval=0.02,
    retry=RetryPolicy(connect_timeout=1.0, io_timeout=2.0, attempts=2),
)

BOUND_SECONDS = 15.0


def _key_paths(value, prefix=""):
    """Every nested dict-key path in a report (list contents ignored)."""
    if not isinstance(value, dict):
        return set()
    paths = set()
    for key, child in value.items():
        path = f"{prefix}.{key}" if prefix else key
        paths.add(path)
        paths |= _key_paths(child, path)
    return paths


class TestAssignment:
    def test_contiguous_blocks(self):
        assignment = assign_datacenters(
            [0, 1, 2, 3, 4, 5], ("east", "west", "south")
        )
        assert assignment == {
            0: "east", 1: "east", 2: "west", 3: "west", 4: "south", 5: "south",
        }

    def test_fewer_nodes_than_datacenters(self):
        assignment = assign_datacenters([0, 1], DEFAULT_DATACENTERS)
        assert len(set(assignment.values())) == 2

    def test_three_nodes_span_three_datacenters(self):
        assignment = assign_datacenters([0, 1, 2], DEFAULT_DATACENTERS)
        assert sorted(assignment.values()) == sorted(DEFAULT_DATACENTERS)


class FakeEvent:
    def __init__(self, kind, node, payload):
        self.kind = EventKind(kind)
        self.node = node
        self.payload = payload


class TestTrafficTap:
    def test_client_events_are_ignored(self):
        tap = LiveTrafficTap({0: "east", 1: "west"})
        tap(FakeEvent("exchange-settled", 0,
                      {"partner": -1, "shipped": 3, "received": 1}))
        assert tap.conversations == {}
        # A cross-datacenter conversation crosses both endpoints' intra
        # links and the WAN link between them, like the simulator's route.
        route = {"intra:east": 1.0, "wan:east<->west": 1.0, "intra:west": 1.0}
        tap(FakeEvent("exchange-settled", 0,
                      {"partner": 1, "shipped": 3, "received": 1}))
        assert tap.conversations == route
        assert tap.updates == {link: 4.0 for link in route}
        assert tap.useful == {link: 4.0 for link in route}
        tap(FakeEvent("rumor-sent", 0, {"partner": 1, "shipped": 2}))
        assert tap.conversations["wan:east<->west"] == 2.0
        assert tap.updates["wan:east<->west"] == 6.0
        assert tap.useful["wan:east<->west"] == 4.0  # rumors may be redundant

    def test_summary_shape_matches_sim(self):
        tap = LiveTrafficTap({0: "a", 1: "b"})
        summary = tap.summary(("a", "b"))
        assert set(summary) == {
            "links", "wan_conversations", "wan_share", "busiest_wan_link",
        }
        assert {row["link"] for row in summary["links"]} == {
            "wan:a<->b", "intra:a", "intra:b",
        }

    def test_the_same_conversations_read_the_same_in_both_reports(self):
        """The simulator charges each conversation to its routed edges;
        the live tap must charge the same links, so the two traffic
        blocks agree row for row and on ``wan_share``."""
        net = WanNetwork(three_datacenters(sites_per_dc=(2, 2, 2)))
        traffic = LinkTraffic()
        tap = LiveTrafficTap(assign_datacenters(net.site_ids, DEFAULT_DATACENTERS))
        # (initiator, partner, shipped, received): intra us-east, us-east to
        # eu-west, eu-west to ap-south, and an exchange that moved nothing.
        for a, b, shipped, received in ((0, 1, 3, 1), (1, 2, 2, 0), (3, 5, 1, 4), (4, 0, 0, 0)):
            traffic.compare.add_edges(net.topology.path_edges(a, b))
            for counter in (traffic.update, traffic.useful_update):
                counter.add_edges(net.topology.path_edges(a, b), shipped)
                counter.add_edges(net.topology.path_edges(b, a), received)
            tap(FakeEvent("exchange-settled", a,
                          {"partner": b, "shipped": shipped, "received": received}))
        sim = traffic_summary(net.link_report(traffic))
        live = tap.summary(DEFAULT_DATACENTERS)
        assert live == sim
        assert [row["link"] for row in live["links"]] == [
            "wan:ap-south<->eu-west", "wan:ap-south<->us-east", "wan:eu-west<->us-east",
            "intra:us-east", "intra:eu-west", "intra:ap-south",
        ]
        assert live["wan_share"] == round(3 / 11, 4)  # 3 WAN of 11 crossings


class TestWireOperations:
    def test_read_and_delete_over_the_wire(self):
        async def scenario():
            cluster = await LiveCluster.launch(3, FAST)
            try:
                write = await cluster.inject(0, "user:alice", "here")
                read = await cluster.read(0, "user:alice")
                missing = await cluster.read(1, "user:nobody")
                await cluster.wait_converged("user:alice", timeout=BOUND_SECONDS)
                delete = await cluster.delete_key(1, "user:alice")
                converged = await cluster.wait_converged(timeout=BOUND_SECONDS)
                tombstone = await cluster.read(2, "user:alice")
            finally:
                await cluster.stop()
            return write, read, missing, delete, converged, tombstone

        write, read, missing, delete, converged, tombstone = asyncio.run(
            scenario()
        )
        assert write.payload["applied"] and write.payload["timestamp"]
        assert read["found"] and not read["deleted"]
        assert read["value"] == "here"
        assert read["timestamp"] == write.payload["timestamp"]
        assert not missing["found"]
        assert delete.payload["applied"]
        assert converged, "cluster failed to settle the deletion"
        # The death certificate propagated: node 2 sees a tombstone.
        assert tombstone["found"] and tombstone["deleted"]
        assert tombstone["value"] is None


class TestLiveRun:
    def test_three_node_run_produces_a_converged_report(self):
        config = LiveWorkloadConfig(
            workload=WorkloadConfig(
                updates_per_cycle=30.0,
                key_space=8,
                read_fraction=0.3,
                delete_fraction=0.1,
            ),
            nodes=3,
            duration=1.5,
            tick=0.05,
            window=0.5,
            seed=5,
            node_config=FAST,
            quiesce_timeout=BOUND_SECONDS,
        )
        report = asyncio.run(run_live_workload(config))
        assert report["schema"] == SCHEMA
        assert report["runtime"] == "live"
        assert report["unit"] == "seconds"
        assert report["n"] == 3
        assert report["converged_after_quiesce"], "live quiesce did not settle"
        ops = report["ops"]
        assert ops["total"] == ops["writes"] + ops["reads"] + ops["deletes"]
        assert ops["writes"] > 0
        assert report["throughput"]["unit"] == "ops/second"
        assert report["throughput"]["mean"] > 0
        assert report["staleness"]["count"] >= 0
        assert len(report["curves"]["points"]) >= 1
        # Gossip between the three single-node datacenters is WAN traffic.
        assert report["traffic"]["wan_conversations"] > 0

    def test_sim_and_live_reports_share_one_schema(self):
        live_config = LiveWorkloadConfig(
            workload=WorkloadConfig(
                updates_per_cycle=20.0, key_space=8, read_fraction=0.3
            ),
            nodes=3,
            duration=1.0,
            tick=0.05,
            window=0.5,
            seed=6,
            node_config=FAST,
            quiesce_timeout=BOUND_SECONDS,
        )
        live = asyncio.run(run_live_workload(live_config))
        sim = run_steady_state(
            SteadyStateConfig(
                workload=WorkloadConfig(
                    updates_per_cycle=6.0, key_space=8, read_fraction=0.3
                ),
                wan=three_datacenters((1, 1, 1)),
                cycles=10,
                window=5,
                seed=6,
            )
        )
        assert _key_paths(sim) == _key_paths(live)
        # Curve points and traffic rows carry the same columns too.
        assert set(sim["curves"]["points"][0]) == set(
            live["curves"]["points"][0]
        )
        assert set(sim["traffic"]["links"][0]) == set(
            live["traffic"]["links"][0]
        )
