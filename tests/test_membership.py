"""Dynamic membership: sites joining and leaving a live cluster."""

import pytest

from repro.cluster.cluster import Cluster
from repro.protocols.ackgc import AckBasedCertificateGC
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.backup import AntiEntropyBackup
from repro.protocols.base import ExchangeMode
from repro.protocols.deathcerts import CertificatePolicy, DeathCertificateManager
from repro.protocols.direct_mail import DirectMailProtocol
from repro.protocols.hotlist import HotListProtocol
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol
from repro.topology import builders


def anti_entropy_cluster(n=10, seed=0):
    cluster = Cluster(n=n, seed=seed)
    cluster.add_protocol(
        AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL))
    )
    return cluster


class TestAddSite:
    def test_new_site_catches_up_via_anti_entropy(self):
        cluster = anti_entropy_cluster()
        cluster.inject_update(0, "k", "v")
        cluster.run_until(cluster.converged, max_cycles=50)
        newcomer = cluster.add_site()
        assert cluster.sites[newcomer].store.get("k") is None
        cluster.run_until(cluster.converged, max_cycles=50)
        assert cluster.sites[newcomer].store.get("k") == "v"

    def test_new_site_participates_in_spreading(self):
        cluster = anti_entropy_cluster(n=5, seed=1)
        newcomer = cluster.add_site()
        cluster.inject_update(newcomer, "from-newcomer", "x")
        cluster.run_until(cluster.converged, max_cycles=50)
        assert cluster.sites[0].store.get("from-newcomer") == "x"

    def test_explicit_id_on_edgeless_topology(self):
        cluster = anti_entropy_cluster(n=3)
        assert cluster.add_site(77) == 77
        assert 77 in cluster.site_ids

    def test_duplicate_participant_rejected(self):
        cluster = anti_entropy_cluster(n=3)
        with pytest.raises(ValueError):
            cluster.add_site(0)

    def test_routed_topology_requires_existing_topology_site(self):
        """On a routed topology only a removed site can rejoin, and it
        comes back with an empty store that anti-entropy refills."""
        cluster = Cluster(topology=builders.line(6), seed=0)
        cluster.add_protocol(
            AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL))
        )
        cluster.inject_update(0, "k", "v")
        cluster.run_until(cluster.converged, max_cycles=50)
        cluster.remove_site(4)
        assert 4 not in cluster.site_ids
        with pytest.raises(ValueError):
            cluster.add_site()          # must name a site
        with pytest.raises(ValueError):
            cluster.add_site(99)        # not in the topology
        assert cluster.add_site(4) == 4
        assert 4 in cluster.site_ids
        assert cluster.sites[4].store.get("k") is None
        cluster.run_until(cluster.converged, max_cycles=50)
        assert cluster.sites[4].store.get("k") == "v"

    def test_rumor_state_initialized_for_newcomer(self):
        cluster = Cluster(n=5, seed=2)
        rumor = RumorMongeringProtocol(RumorConfig(k=2))
        cluster.add_protocol(rumor)
        newcomer = cluster.add_site()
        cluster.inject_update(newcomer, "k", "v")
        assert rumor.is_infective(newcomer, "k")

    def test_hotlist_order_initialized_for_newcomer(self):
        cluster = Cluster(n=5, seed=3)
        hotlist = HotListProtocol()
        cluster.add_protocol(hotlist)
        newcomer = cluster.add_site()
        cluster.inject_update(newcomer, "k", "v")
        assert "k" in hotlist.order_of(newcomer)
        cluster.run_until(cluster.converged, max_cycles=60)
        assert cluster.sites[0].store.get("k") == "v"

    def test_direct_mail_reaches_newcomer(self):
        cluster = Cluster(n=5, seed=4)
        cluster.add_protocol(DirectMailProtocol())
        cluster.inject_update(0, "before", "b")   # caches membership
        cluster.run_cycle()
        newcomer = cluster.add_site()
        cluster.inject_update(0, "after", "a")
        cluster.run_cycle()
        assert cluster.sites[newcomer].store.get("after") == "a"
        assert cluster.sites[newcomer].store.get("before") is None

    def test_certificate_ttl_propagates_to_newcomer(self):
        cluster = Cluster(n=4, seed=5)
        cluster.add_protocol(
            DeathCertificateManager(CertificatePolicy(tau1=7.0))
        )
        newcomer = cluster.add_site()
        assert cluster.sites[newcomer].store.certificate_ttl == 7.0

    def test_backup_composite_handles_join(self):
        cluster = Cluster(n=10, seed=6)
        protocol = AntiEntropyBackup(anti_entropy_period=2)
        cluster.add_protocol(protocol)
        cluster.inject_update(0, "k", "v")
        cluster.run_cycles(3)
        newcomer = cluster.add_site()
        cluster.run_until(cluster.converged, max_cycles=60)
        assert cluster.sites[newcomer].store.get("k") == "v"


class TestRemoveSite:
    def test_removed_site_is_gone(self):
        cluster = anti_entropy_cluster()
        cluster.remove_site(3)
        assert 3 not in cluster.site_ids
        assert 3 not in cluster.sites
        assert cluster.n == 9

    def test_cluster_keeps_converging_after_removal(self):
        cluster = anti_entropy_cluster(seed=7)
        cluster.inject_update(0, "k", "v")
        cluster.run_cycles(2)
        cluster.remove_site(5)
        cluster.run_until(cluster.converged, max_cycles=50)
        assert all(
            cluster.sites[s].store.get("k") == "v" for s in cluster.site_ids
        )

    def test_unknown_site_rejected(self):
        cluster = anti_entropy_cluster()
        with pytest.raises(ValueError):
            cluster.remove_site(999)

    def test_cannot_remove_last_site(self):
        cluster = Cluster(n=1, seed=0)
        with pytest.raises(ValueError):
            cluster.remove_site(0)

    def test_rumor_state_dropped(self):
        cluster = Cluster(n=6, seed=8)
        rumor = RumorMongeringProtocol(RumorConfig(k=2))
        cluster.add_protocol(rumor)
        cluster.inject_update(4, "k", "v")
        cluster.remove_site(4)
        assert not rumor.is_infective(4)
        cluster.run_cycles(5)  # must not crash on the departed site

    def test_partition_entry_cleaned_up(self):
        cluster = anti_entropy_cluster()
        cluster.set_partition([[0, 1, 2], [3, 4, 5]])
        cluster.remove_site(3)
        assert cluster.can_communicate(4, 5)

    def test_membership_churn_end_to_end(self):
        """Sites joining and leaving while updates flow: the survivors
        still converge on everything."""
        cluster = anti_entropy_cluster(n=8, seed=9)
        cluster.inject_update(0, "k0", 0)
        for round_number in range(4):
            cluster.run_cycles(3)
            newcomer = cluster.add_site()
            cluster.inject_update(newcomer, f"k{round_number + 1}", round_number + 1)
            departing = cluster.site_ids[round_number]
            cluster.remove_site(departing)
        cluster.run_until(cluster.converged, max_cycles=80)
        reference = cluster.sites[cluster.site_ids[0]].store
        assert reference.get("k4") == 4


class TestClockSkewOnJoin:
    """add_site must apply the cluster's clock_skew function (it used
    to build the late joiner's clock with skew 0 regardless)."""

    def test_late_joiner_gets_skewed_clock(self):
        cluster = Cluster(n=4, seed=0, clock_skew=lambda site_id: site_id * 0.5)
        newcomer = cluster.add_site()
        assert cluster.sites[newcomer].store.clock.skew == newcomer * 0.5

    def test_initial_and_late_sites_agree_on_skew_rule(self):
        cluster = Cluster(n=3, seed=0, clock_skew=lambda site_id: 2.0)
        newcomer = cluster.add_site()
        skews = {
            site_id: cluster.sites[site_id].store.clock.skew
            for site_id in cluster.site_ids
        }
        assert skews == {site_id: 2.0 for site_id in [0, 1, 2, newcomer]}

    def test_no_skew_function_means_zero_skew(self):
        cluster = Cluster(n=3, seed=0)
        newcomer = cluster.add_site()
        assert cluster.sites[newcomer].store.clock.skew == 0.0

    def test_skewed_timestamps_visible_in_updates(self):
        cluster = Cluster(n=2, seed=0, clock_skew=lambda site_id: 100.0)
        cluster.run_cycles(1)
        newcomer = cluster.add_site()
        update = cluster.sites[newcomer].store.update("k", "v")
        assert update.entry.timestamp.time >= 100.0


class TestExplicitSelectorRebuild:
    """An explicitly-passed UniformSelector must follow membership
    changes instead of serving a stale site list forever."""

    def _cluster_with_explicit_selector(self, protocol_factory, n=6, seed=3):
        from repro.topology.spatial import UniformSelector

        cluster = Cluster(n=n, seed=seed)
        selector = UniformSelector(cluster.site_ids)
        cluster.add_protocol(protocol_factory(selector))
        return cluster, selector

    def test_anti_entropy_selector_learns_of_newcomer(self):
        cluster, selector = self._cluster_with_explicit_selector(
            lambda s: AntiEntropyProtocol(
                config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL), selector=s
            )
        )
        newcomer = cluster.add_site()
        assert selector.probability(0, newcomer) > 0.0

    def test_anti_entropy_selector_forgets_departed(self):
        cluster, selector = self._cluster_with_explicit_selector(
            lambda s: AntiEntropyProtocol(
                config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL), selector=s
            )
        )
        cluster.remove_site(5)
        assert selector.probability(0, 5) == 0.0
        cluster.run_cycles(10)  # choices never name the departed site

    def test_rumor_selector_follows_membership(self):
        cluster, selector = self._cluster_with_explicit_selector(
            lambda s: RumorMongeringProtocol(RumorConfig(k=2), selector=s)
        )
        newcomer = cluster.add_site()
        cluster.remove_site(1)
        assert selector.probability(0, newcomer) > 0.0
        assert selector.probability(0, 1) == 0.0

    @pytest.mark.parametrize(
        "protocol", [HotListProtocol, AckBasedCertificateGC], ids=["hot-list", "ack-gc"]
    )
    def test_selector_follows_membership(self, protocol):
        cluster, selector = self._cluster_with_explicit_selector(
            lambda s: protocol(selector=s)
        )
        newcomer = cluster.add_site()
        cluster.remove_site(1)
        assert selector.probability(0, newcomer) > 0.0
        assert selector.probability(0, 1) == 0.0

    def test_epidemic_reaches_newcomer_through_explicit_selector(self):
        cluster, __ = self._cluster_with_explicit_selector(
            lambda s: AntiEntropyProtocol(
                config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL), selector=s
            )
        )
        cluster.inject_update(0, "k", "v")
        cluster.run_cycles(2)
        newcomer = cluster.add_site()
        cluster.run_until(cluster.converged, max_cycles=60)
        assert cluster.sites[newcomer].store.get("k") == "v"

    def test_add_and_remove_mid_epidemic(self):
        cluster, selector = self._cluster_with_explicit_selector(
            lambda s: AntiEntropyProtocol(
                config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL), selector=s
            ),
            n=8,
            seed=4,
        )
        cluster.inject_update(0, "k", "v")
        cluster.run_cycles(1)
        newcomer = cluster.add_site()
        cluster.remove_site(3)
        cluster.run_until(cluster.converged, max_cycles=80)
        assert cluster.sites[newcomer].store.get("k") == "v"
        assert selector.probability(0, 3) == 0.0
