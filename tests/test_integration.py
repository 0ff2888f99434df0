"""End-to-end integration: full protocol stacks under realistic
conditions — the configurations the paper actually recommends.

Each test assembles several mechanisms (mail + rumors + anti-entropy +
death-certificate management + faults) on a routed topology and checks
the global guarantees: eventual agreement, no lost deletions, no
resurrection, bounded traffic.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.backup import AntiEntropyBackup, RecoveryStrategy
from repro.protocols.base import ExchangeMode
from repro.protocols.deathcerts import CertificatePolicy, DeathCertificateManager
from repro.protocols.direct_mail import DirectMailProtocol
from repro.protocols.hotlist import HotListProtocol
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol
from repro.sim.faults import FaultSchedule, RandomChurn
from repro.topology import builders
from repro.topology.cin import CinParameters, build_cin_like_topology
from repro.topology.distance import SiteDistances
from repro.topology.spatial import SortedListSelector
from repro.workload import WorkloadConfig, WorkloadDriver


@pytest.fixture(scope="module")
def small_cin():
    return build_cin_like_topology(
        CinParameters(
            backbone_hubs=4,
            metro_ethernets=(2, 2),
            sites_per_ethernet=(3, 4),
            linear_chains=1,
            linear_chain_length=5,
            europe_ethernets=2,
            europe_sites_per_ethernet=(3, 4),
        )
    )


class TestPaperRecommendedStack:
    """The deployed configuration: mail for timeliness, spatial
    push-pull anti-entropy for certainty, certificates for deletes."""

    def _build(self, cin, seed=0, mail_loss=0.1):
        distances = SiteDistances(cin.topology)
        selector = SortedListSelector(distances, a=2.0)
        cluster = Cluster(topology=cin.topology, seed=seed)
        cluster.add_protocol(DirectMailProtocol(loss_probability=mail_loss))
        cluster.add_protocol(
            AntiEntropyProtocol(
                selector=selector,
                config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL),
            )
        )
        cluster.add_protocol(
            DeathCertificateManager(CertificatePolicy(tau1=30.0, tau2=500.0))
        )
        return cluster

    def test_workload_converges_despite_mail_loss(self, small_cin):
        cluster = self._build(small_cin, seed=1)
        driver = WorkloadDriver(
            cluster,
            WorkloadConfig(updates_per_cycle=2.0, key_space=30, delete_fraction=0.2),
            seed=1,
        )
        driver.run(cycles=25)
        cluster.run_until(cluster.converged, max_cycles=120)
        assert cluster.converged()
        assert driver.deletes > 0

    def test_deletions_never_resurrect_under_load(self, small_cin):
        cluster = self._build(small_cin, seed=2, mail_loss=0.2)
        sites = cluster.site_ids
        cluster.inject_update(sites[0], "victim", "v1")
        cluster.run_until(cluster.converged, max_cycles=80)
        cluster.inject_delete(sites[3], "victim", retention_count=3)
        # Keep the network busy with unrelated updates while the
        # certificate spreads.
        driver = WorkloadDriver(
            cluster, WorkloadConfig(updates_per_cycle=1.0, key_space=10), seed=2
        )
        driver.run(cycles=20)
        cluster.run_until(cluster.converged, max_cycles=120)
        assert all(
            cluster.sites[s].store.get("victim") is None for s in sites
        )


class TestRumorWithBackupOnCin:
    def test_spatial_rumors_plus_backup_reach_everyone(self, small_cin):
        distances = SiteDistances(small_cin.topology)
        selector = SortedListSelector(distances, a=1.6)
        cluster = Cluster(topology=small_cin.topology, seed=3)
        protocol = AntiEntropyBackup(
            rumor_config=RumorConfig(mode=ExchangeMode.PUSH_PULL, k=2),
            anti_entropy_period=4,
            recovery=RecoveryStrategy.HOT_RUMOR,
            selector=selector,
        )
        cluster.add_protocol(protocol)
        start = small_cin.sites[0]
        cluster.inject_update(start, "k", "v", track=True)
        cluster.run_until(
            lambda: cluster.metrics.infected == cluster.n, max_cycles=200
        )
        assert cluster.metrics.complete


class TestFaultsAgainstFullStack:
    def test_partition_with_deletes_heals_cleanly(self):
        topo = builders.grid(4, 5)
        cluster = Cluster(topology=topo, seed=4)
        schedule = FaultSchedule()
        half = topo.sites[:10]
        other = topo.sites[10:]
        schedule.partition(at_cycle=5, groups=[half, other]).heal(at_cycle=25)
        cluster.add_protocol(schedule)
        cluster.add_protocol(
            AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL))
        )
        cluster.add_protocol(
            DeathCertificateManager(CertificatePolicy(tau1=40.0, tau2=500.0))
        )
        cluster.inject_update(half[0], "doomed", "v")
        cluster.run_until(cluster.converged, max_cycles=30)
        cluster.run_cycles(5)  # partition is now up
        # Delete on one side, update on the other, during the partition.
        cluster.inject_delete(half[0], "doomed", retention_count=2)
        cluster.inject_update(other[0], "fresh", "f")
        cluster.run_cycles(10)
        assert cluster.sites[other[0]].store.get("doomed") == "v"  # uncut yet
        cluster.run_until(cluster.converged, max_cycles=100)
        values = cluster.values_of("doomed")
        assert all(v is None for v in values.values())
        assert all(v == "f" for v in cluster.values_of("fresh").values())

    def test_hotlist_stack_survives_churn(self):
        cluster = Cluster(n=40, seed=5)
        churn = RandomChurn(crash_rate=0.04, recovery_rate=0.3)
        cluster.add_protocol(churn)
        cluster.add_protocol(HotListProtocol(batch_size=4))
        driver = WorkloadDriver(
            cluster, WorkloadConfig(updates_per_cycle=1.5, key_space=20), seed=5
        )
        driver.run(cycles=40)
        churn.restore_all()
        churn.crash_rate = 0.0
        cluster.run_until(cluster.converged, max_cycles=200)
        assert cluster.converged()

    def test_determinism_of_a_composite_stack(self):
        def run(seed):
            cluster = Cluster(n=30, seed=seed)
            cluster.add_protocol(RandomChurn(crash_rate=0.05, recovery_rate=0.4))
            cluster.add_protocol(DirectMailProtocol(loss_probability=0.1))
            cluster.add_protocol(
                RumorMongeringProtocol(RumorConfig(mode=ExchangeMode.PUSH, k=3))
            )
            cluster.add_protocol(
                AntiEntropyProtocol(
                    config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, period=3)
                )
            )
            driver = WorkloadDriver(
                cluster, WorkloadConfig(updates_per_cycle=1.0, key_space=8), seed=seed
            )
            driver.run(cycles=25)
            return {
                s: sorted(
                    (k, str(v)) for k, v in cluster.sites[s].store.visible_items()
                )
                for s in cluster.site_ids
            }

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestMixedProtocolInterplay:
    def test_mail_news_becomes_hot_rumor(self):
        """Protocol composition through on_news: a mail delivery turns
        into a hot rumor at the recipient."""
        cluster = Cluster(n=30, seed=6)
        mail = DirectMailProtocol(loss_probability=0.8)  # most mail lost
        rumor = RumorMongeringProtocol(RumorConfig(mode=ExchangeMode.PUSH, k=3))
        cluster.add_protocol(mail)
        cluster.add_protocol(rumor)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycle()
        # Whoever got mail is now infective too.
        recipients = [s for s in cluster.metrics.receipt_times if s != 0]
        assert all(rumor.is_infective(s, "k") for s in recipients)
        cluster.run_until(lambda: not rumor.active, max_cycles=100)
        # Mail at 80% loss alone reaches ~20%; rumors amplify well past it.
        assert cluster.metrics.infected > 0.8 * cluster.n

    def test_two_independent_anti_entropy_instances(self):
        """Two anti-entropy protocols at different periods coexist
        (e.g. frequent local + nightly global)."""
        cluster = Cluster(n=20, seed=7)
        cluster.add_protocol(
            AntiEntropyProtocol(
                config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, period=1)
            )
        )
        cluster.add_protocol(
            AntiEntropyProtocol(
                config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, period=5)
            )
        )
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(lambda: cluster.metrics.infected == 20, max_cycles=40)
        assert cluster.metrics.complete
