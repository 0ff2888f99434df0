"""The combined peel-back + rumor scheme (Section 1.5)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.protocols.hotlist import HotListProtocol
from repro.sim.transport import ConnectionPolicy
from repro.topology import builders


def hotlist_cluster(n, seed=0, **kwargs):
    cluster = Cluster(n=n, seed=seed)
    protocol = HotListProtocol(**kwargs)
    cluster.add_protocol(protocol)
    return cluster, protocol


class TestConvergence:
    def test_single_update_reaches_everyone(self):
        cluster, protocol = hotlist_cluster(40)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(lambda: cluster.metrics.infected == 40, max_cycles=100)
        assert cluster.converged()

    def test_no_failure_probability(self):
        """Unlike rumor mongering, coverage is total on every seed."""
        for seed in range(5):
            cluster, protocol = hotlist_cluster(60, seed=seed)
            cluster.inject_update(0, "k", "v", track=True)
            cluster.run_until(
                lambda: cluster.metrics.infected == 60, max_cycles=150
            )
            assert cluster.metrics.complete

    def test_many_keys_converge(self):
        cluster, protocol = hotlist_cluster(20)
        for i in range(10):
            cluster.inject_update(i % 20, f"k{i}", i)
        cluster.run_until(cluster.converged, max_cycles=150)
        assert cluster.converged()

    def test_partition_heal(self):
        """The paper's selling point: behaves well when a network
        partitions and rejoins."""
        cluster, protocol = hotlist_cluster(20, seed=3)
        cluster.inject_update(0, "before", "x")
        cluster.run_until(cluster.converged, max_cycles=60)
        # Partition: sites 15..19 go down; updates continue meanwhile.
        for site in range(15, 20):
            cluster.sites[site].up = False
        for i in range(6):
            cluster.inject_update(i, f"during-{i}", i)
        cluster.run_until(
            lambda: cluster.converged(cluster.up_site_ids()), max_cycles=80
        )
        # Heal. The rejoined sites must catch up on everything.
        for site in range(15, 20):
            cluster.sites[site].up = True
        cluster.run_until(cluster.converged, max_cycles=120)
        for i in range(6):
            assert cluster.sites[17].store.get(f"during-{i}") == i


class TestEfficiency:
    def test_agreeing_pair_costs_one_checksum(self):
        cluster, protocol = hotlist_cluster(10)
        cluster.run_cycle()  # all stores empty and equal
        assert protocol.stats.exchanges == 10
        assert protocol.stats.updates_shipped == 0

    def test_recent_divergence_ships_few_updates(self):
        """With a large synced history and one fresh update, exchanges
        ship the fresh update (hot, at the front), not the history."""
        cluster, protocol = hotlist_cluster(10, batch_size=2)
        for i in range(30):
            cluster.inject_update(0, f"base-{i}", i)
        cluster.run_until(cluster.converged, max_cycles=200)
        shipped_before = protocol.stats.updates_shipped
        cluster.inject_update(3, "fresh", "news")
        cluster.run_until(cluster.converged, max_cycles=50)
        shipped = protocol.stats.updates_shipped - shipped_before
        # 9 sites need the update; batching may pull a few cold keys
        # along, but nothing near the 31-key database per exchange.
        assert shipped < 9 * 2 * 4

    def test_useful_updates_moved_to_front(self):
        cluster, protocol = hotlist_cluster(4, seed=2)
        for i in range(8):
            cluster.inject_update(0, f"base-{i}", i)
        cluster.run_until(cluster.converged, max_cycles=60)
        cluster.inject_update(1, "hot", "x")
        assert protocol.order_of(1).front() == "hot"
        cluster.run_cycle()
        # Every site that learned "hot" has it at its list front.
        for site in cluster.site_ids:
            if cluster.sites[site].store.get("hot") == "x":
                assert protocol.order_of(site).position("hot") == 0

    def test_deliveries_count_as_useful_link_traffic(self):
        """Table 4's "had to be sent" traffic, as for anti-entropy and
        rumor mongering: every delivery that was news to its receiver."""
        cluster = Cluster(topology=builders.line(6), seed=0)
        protocol = HotListProtocol()
        cluster.add_protocol(protocol)
        cluster.inject_update(0, "k", "v")
        cluster.run_until(cluster.converged, max_cycles=60)
        assert cluster.converged()
        assert protocol.stats.useful_updates == 5
        assert cluster.traffic.useful_update.total > 0

    def test_incremental_mode_converges_over_cycles(self):
        cluster, protocol = hotlist_cluster(
            12, batch_size=1, max_batches_per_exchange=2, seed=4
        )
        for i in range(6):
            cluster.inject_update(i, f"k{i}", i)
        cluster.run_until(cluster.converged, max_cycles=300)
        assert cluster.converged()


class TestConfiguration:
    def test_batch_size_validated(self):
        with pytest.raises(ValueError):
            HotListProtocol(batch_size=0)

    def test_connection_policy_respected(self):
        cluster, protocol = hotlist_cluster(
            40, policy=ConnectionPolicy(connection_limit=1, hunt_limit=0), seed=5
        )
        cluster.run_cycles(3)
        assert protocol.stats.rejected > 0

    def test_orders_seeded_from_existing_stores(self):
        cluster = Cluster(n=3, seed=0)
        cluster.sites[0].store.update("pre-existing", 1)
        protocol = HotListProtocol()
        cluster.add_protocol(protocol)
        assert "pre-existing" in protocol.order_of(0)

    def test_deletes_propagate_as_hot_certificates(self):
        cluster, protocol = hotlist_cluster(15, seed=6)
        cluster.inject_update(0, "x", "v")
        cluster.run_until(cluster.converged, max_cycles=60)
        cluster.inject_delete(2, "x")
        assert protocol.order_of(2).front() == "x"
        cluster.run_until(cluster.converged, max_cycles=60)
        assert all(v is None for v in cluster.values_of("x").values())
