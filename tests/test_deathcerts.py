"""Death certificates end to end (Section 2)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.items import VersionedValue
from repro.core.store import StoreUpdate
from repro.core.timestamps import Timestamp
from repro.obs.events import EventKind, RingBufferSink
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.deathcerts import CertificatePolicy, DeathCertificateManager
from repro.protocols.exchange import FullCompare, HierarchicalChecksum
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol


def certificate_cluster(n=20, tau1=8.0, tau2=500.0, seed=0):
    cluster = Cluster(n=n, seed=seed)
    cluster.add_protocol(
        AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL))
    )
    manager = DeathCertificateManager(CertificatePolicy(tau1=tau1, tau2=tau2))
    cluster.add_protocol(manager)
    return cluster, manager


class TestPolicyValidation:
    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            CertificatePolicy(tau1=0.0)
        with pytest.raises(ValueError):
            CertificatePolicy(tau1=1.0, tau2=-1.0)

    def test_space_budget_formula(self):
        # tau2 = (tau - tau1) * n / r
        assert CertificatePolicy.space_budget_equivalent(30, 10, 300, 4) == 1500.0
        with pytest.raises(ValueError):
            CertificatePolicy.space_budget_equivalent(5, 10, 300, 4)
        with pytest.raises(ValueError):
            CertificatePolicy.space_budget_equivalent(30, 10, 300, 0)


class TestDeletionSpreads:
    def test_delete_propagates_to_all_sites(self):
        cluster, manager = certificate_cluster()
        cluster.inject_update(0, "x", "v")
        cluster.run_until(cluster.converged, max_cycles=60)
        cluster.inject_delete(3, "x")
        cluster.run_until(cluster.converged, max_cycles=60)
        assert all(v is None for v in cluster.values_of("x").values())

    def test_deleted_item_not_resurrected_by_straggler_copy(self):
        cluster, manager = certificate_cluster()
        cluster.inject_update(0, "x", "v")
        cluster.run_until(cluster.converged, max_cycles=60)
        cluster.inject_delete(0, "x")
        # While certificates are alive everywhere, an old copy coming
        # from a store replica cannot win.
        cluster.run_until(cluster.converged, max_cycles=60)
        assert all(v is None for v in cluster.values_of("x").values())

    def test_certificates_expire_after_tau1(self):
        cluster, manager = certificate_cluster(tau1=5.0)
        cluster.inject_delete(0, "x")
        cluster.run_until(cluster.converged, max_cycles=40)
        cluster.run_cycles(10)
        census = manager.certificate_census()
        assert census["active"] == 0
        assert manager.stats.expired > 0


class TestDormantLifecycle:
    def test_retention_sites_keep_dormant_copies(self):
        cluster, manager = certificate_cluster(tau1=5.0)
        update = cluster.inject_delete(0, "x", retention_count=3)
        retention = set(update.entry.retention_sites)
        cluster.run_until(cluster.converged, max_cycles=40)
        cluster.run_cycles(8)
        census = manager.certificate_census()
        assert census["active"] == 0
        assert census["dormant"] == len(retention)
        for site_id in retention:
            assert cluster.sites[site_id].store.dormant_certificate("x") is not None

    def test_reactivation_spreads_to_all_sites(self):
        cluster, manager = certificate_cluster(tau1=5.0, seed=3)
        update = cluster.inject_delete(0, "x", retention_count=3)
        cluster.run_until(cluster.converged, max_cycles=40)
        cluster.run_cycles(8)   # certificates now dormant/gone
        # A zombie copy of the deleted item appears at one site.
        zombie = cluster.sites[7].store
        from repro.core.items import VersionedValue
        from repro.core.timestamps import Timestamp

        zombie.apply_entry("x", VersionedValue("zombie", Timestamp(-1.0, 7, 0)))
        cluster.run_until(
            lambda: manager.stats.reactivations > 0, max_cycles=100
        )
        cluster.run_until(
            lambda: all(v is None for v in cluster.values_of("x").values()),
            max_cycles=100,
        )

    def test_manager_reinjects_reactivated_certificate_as_rumor(self):
        cluster = Cluster(n=20, seed=5)
        rumor = RumorMongeringProtocol(
            RumorConfig(mode=ExchangeMode.PUSH_PULL, k=3)
        )
        manager = DeathCertificateManager(CertificatePolicy(tau1=5.0, tau2=500.0))
        cluster.add_protocol(rumor)
        cluster.add_protocol(manager)
        update = cluster.inject_delete(0, "x", retention_count=2)
        cluster.run_until(lambda: not rumor.active, max_cycles=60)
        cluster.run_cycles(8)  # certificates dormant at retention sites
        retention_site = update.entry.retention_sites[0]
        from repro.core.items import VersionedValue
        from repro.core.timestamps import Timestamp

        # Obsolete data hits the retention site directly.
        result = cluster.sites[retention_site].deliver(
            type(update)(key="x", entry=VersionedValue("zombie", Timestamp(-1.0, 9, 0)))
        )
        assert manager.stats.reactivations == 1
        # The awakened certificate is hot again and spreads.
        assert rumor.is_infective(retention_site, "x")
        cluster.run_until(lambda: not rumor.active, max_cycles=100)
        assert all(v is None for v in cluster.values_of("x").values())


class TestLiveExchangeHandsOnTheRealResult:
    """A live exchange (``synchronous=False``) that wakes a dormant
    certificate must say so: the site announces an awakening, and the
    manager counts it, only when told ``RESURRECTION_BLOCKED``, as the
    synchronous path and the TCP node already tell it."""

    @pytest.mark.parametrize("strategy", [FullCompare(), HierarchicalChecksum()], ids=type)
    def test_an_awakened_certificate_is_counted_announced_and_emitted(self, strategy):
        cluster = Cluster(n=2, seed=0)
        events = RingBufferSink()
        cluster.bus.add_sink(events)
        rumor = RumorMongeringProtocol(RumorConfig(mode=ExchangeMode.PUSH_PULL, k=3))
        manager = DeathCertificateManager(CertificatePolicy(tau1=5.0, tau2=500.0))
        cluster.add_protocol(rumor)
        cluster.add_protocol(manager)
        holder = cluster.sites[1].store
        holder.delete("k", retention_sites=(1,))
        cluster.run_cycles(7)  # swept past tau1: dormant at its retention site
        assert holder.entry("k") is None and holder.dormant_certificate("k") is not None
        cluster.sites[0].store.apply_entry("k", VersionedValue("zombie", Timestamp(-1.0, 0, 0)))
        cluster.add_protocol(
            AntiEntropyProtocol(
                config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, synchronous=False),
                strategy=strategy,
            )
        )
        cluster.run_cycle()
        assert holder.entry("k").is_deletion  # the reactivated certificate
        assert manager.stats.reactivations == 1
        assert rumor.is_infective(1, "k")
        (event,) = events.of_kind(EventKind.DEATH_CERT_ACTIVATED)
        assert (event.node, event.payload["key"]) == (1, "k")
        cluster.run_until(cluster.converged, max_cycles=20)
        assert all(value is None for value in cluster.values_of("k").values())


class TestTheAntibodyOverSockets:
    """Three TCP nodes with only rumors running: node 1 holds a dormant
    certificate and node 0 rumors an older value.  The certificate node
    1 wakes must reach every node (a node used to wake it and spread the
    obsolete value instead)."""

    def test_every_node_ends_holding_the_certificate(self):
        import asyncio
        import time

        from repro.net.node import NodeConfig
        from repro.net.runner import LiveCluster

        config = NodeConfig(anti_entropy_interval=60.0, rumor=RumorConfig(k=8))

        def settled(nodes):
            return all(
                (entry := node.store.entry("k")) is not None and entry.is_deletion
                for node in nodes
            )

        async def scenario():
            live = await LiveCluster.launch(3, config)
            try:
                nodes = [live.nodes[i] for i in range(3)]
                holder = nodes[1].store
                holder.delete("k", retention_sites=(1,))
                assert holder.sweep_certificates(tau1=-1.0).made_dormant == 1
                obsolete = StoreUpdate("k", VersionedValue("old", Timestamp(1.0, 0, 0)))
                nodes[0].store.apply_entry(obsolete.key, obsolete.entry)
                nodes[0].on_local_update(0, obsolete)
                deadline = time.monotonic() + 10.0
                while not settled(nodes) and time.monotonic() < deadline:
                    await asyncio.sleep(0.05)
                return [node.store.entry("k") for node in nodes], [
                    node.store.get("k") for node in nodes
                ]
            finally:
                await live.stop()

        entries, values = asyncio.run(scenario())
        assert all(entry is not None and entry.is_deletion for entry in entries)
        assert values == [None, None, None]


class TestScenarioDrivers:
    def test_naive_delete_resurrects(self):
        from repro.experiments.deathcert_scenarios import resurrection_scenario

        assert resurrection_scenario(use_certificate=False).resurrected

    def test_certificate_prevents_resurrection(self):
        from repro.experiments.deathcert_scenarios import resurrection_scenario

        assert not resurrection_scenario(use_certificate=True).resurrected

    def test_fixed_threshold_eventually_fails(self):
        from repro.experiments.deathcert_scenarios import fixed_threshold_scenario

        assert fixed_threshold_scenario().resurrected

    def test_dormant_certificates_prevent_late_resurrection(self):
        from repro.experiments.deathcert_scenarios import dormant_certificate_scenario

        result = dormant_certificate_scenario()
        assert not result.resurrected
        assert result.reactivations > 0

    def test_reinstatement_survives_reactivation(self):
        from repro.experiments.deathcert_scenarios import reinstatement_scenario

        result = reinstatement_scenario()
        assert result.value_visible_everywhere
        assert result.reactivations > 0


class TestClockSkew:
    def test_small_skew_does_not_break_certificates(self):
        """Section 2 assumes clock error epsilon << tau1; with skew a
        tenth of tau1 the dormant scheme still blocks resurrection."""
        from repro.cluster.cluster import Cluster

        n = 20
        cluster = Cluster(
            n=n, seed=40, clock_skew=lambda site: 0.5 * (site % 3 - 1)
        )
        cluster.add_protocol(
            AntiEntropyProtocol(
                config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL)
            )
        )
        manager = DeathCertificateManager(CertificatePolicy(tau1=10.0, tau2=500.0))
        cluster.add_protocol(manager)
        cluster.inject_update(0, "x", "v")
        cluster.run_until(cluster.converged, max_cycles=60)
        straggler = n - 1
        cluster.sites[straggler].up = False
        cluster.inject_delete(0, "x", retention_count=4)
        cluster.run_until(
            lambda: cluster.converged(cluster.up_site_ids()), max_cycles=60
        )
        cluster.run_cycles(13)
        cluster.sites[straggler].up = True
        cluster.run_until(cluster.converged, max_cycles=400)
        assert all(v is None for v in cluster.values_of("x").values())

    def test_skewed_clocks_still_converge_on_lww(self):
        from repro.cluster.cluster import Cluster

        cluster = Cluster(n=10, seed=41, clock_skew=lambda site: 0.3 * site)
        cluster.add_protocol(
            AntiEntropyProtocol(
                config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL)
            )
        )
        cluster.inject_update(9, "k", "from-fast-clock")
        cluster.run_cycle()
        cluster.inject_update(0, "k", "from-slow-clock")
        cluster.run_until(cluster.converged, max_cycles=60)
        # Everyone agrees — on *some* value; with skewed clocks the
        # "formally but not practically correct" caveat of Section 1.1
        # means the later real-time write can lose.
        assert len(set(cluster.values_of("k").values())) == 1
