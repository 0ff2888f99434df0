"""Anti-entropy backing up rumor mongering (Section 1.5)."""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.items import VersionedValue
from repro.core.timestamps import Timestamp
from repro.protocols.backup import AntiEntropyBackup, RecoveryStrategy
from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig


def backup_cluster(n, recovery=RecoveryStrategy.HOT_RUMOR, k=1, period=3, seed=0):
    cluster = Cluster(n=n, seed=seed)
    protocol = AntiEntropyBackup(
        rumor_config=RumorConfig(
            mode=ExchangeMode.PUSH, feedback=True, counter=True, k=k
        ),
        anti_entropy_period=period,
        recovery=recovery,
    )
    cluster.add_protocol(protocol)
    return cluster, protocol


class TestGuaranteedDelivery:
    @pytest.mark.parametrize(
        "recovery",
        [
            RecoveryStrategy.CONSERVATIVE,
            RecoveryStrategy.HOT_RUMOR,
            RecoveryStrategy.REDISTRIBUTE_MAIL,
        ],
    )
    def test_every_strategy_reaches_all_sites(self, recovery):
        """With k=1 the rumor alone would leave ~18% susceptible; the
        anti-entropy backup must close the gap for every strategy."""
        n = 150
        cluster, protocol = backup_cluster(n, recovery=recovery, k=1)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(lambda: cluster.metrics.infected == n, max_cycles=200)
        assert cluster.metrics.complete

    def test_composite_goes_quiescent_after_convergence(self):
        cluster, protocol = backup_cluster(60)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(lambda: not protocol.active, max_cycles=300)
        assert cluster.converged()
        assert not protocol.rumor.active


class TestRecoveryBehavior:
    def test_hot_rumor_recovery_reignites_rumor(self):
        cluster, protocol = backup_cluster(100, recovery=RecoveryStrategy.HOT_RUMOR, k=1, seed=5)
        cluster.inject_update(0, "k", "v", track=True)
        # Let the k=1 rumor die out with some residue.
        cluster.run_until(lambda: not protocol.rumor.active, max_cycles=60)
        residue_after_rumor = cluster.metrics.residue
        if residue_after_rumor == 0:
            pytest.skip("rumor happened to cover everyone at this seed")
        # Next anti-entropy round rediscovers it and makes it hot again.
        cluster.run_until(
            lambda: protocol.rumor.active or cluster.metrics.complete,
            max_cycles=20,
        )
        assert protocol.redistributions > 0

    def test_conservative_recovery_never_heats_the_source(self):
        """After the k=1 rumor dies with a residue, anti-entropy carries
        the update from an old holder to each site it missed.  The news
        is hot at the target under both strategies; the source turns hot
        again only under ``HOT_RUMOR``."""
        for recovery, source_hot in (
            (RecoveryStrategy.CONSERVATIVE, False),
            (RecoveryStrategy.HOT_RUMOR, True),
        ):
            cluster, protocol = backup_cluster(100, recovery=recovery, k=1, seed=5)
            cluster.inject_update(0, "k", "v", track=True)
            cluster.run_until(lambda: not protocol.rumor.active, max_cycles=60)
            assert cluster.metrics.residue > 0
            holders = {s for s in cluster.site_ids if cluster.sites[s].store.get("k")}
            transfers = []

            def heat(source, target, update, result, protocol=protocol):
                if result.was_news and source in holders:
                    transfers.append(
                        (
                            protocol.rumor.is_infective(target, "k"),
                            protocol.rumor.is_infective(source, "k"),
                        )
                    )

            protocol.anti_entropy.on_transfer(heat)
            cluster.run_until(lambda: cluster.metrics.complete, max_cycles=60)
            assert transfers
            assert set(transfers) == {(True, source_hot)}

    def test_mail_recovery_uses_mail(self):
        cluster, protocol = backup_cluster(
            80, recovery=RecoveryStrategy.REDISTRIBUTE_MAIL, k=1, seed=4
        )
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(lambda: cluster.metrics.complete, max_cycles=100)
        assert protocol.mail.stats.posted > 0

    def test_mail_recovery_costs_far_more_than_hot_rumor(self):
        from repro.experiments.backup_scenarios import recovery_cost_experiment

        mail = recovery_cost_experiment(
            n=80, strategy=RecoveryStrategy.REDISTRIBUTE_MAIL, seed=9
        )
        rumor = recovery_cost_experiment(
            n=80, strategy=RecoveryStrategy.HOT_RUMOR, seed=9
        )
        assert mail.converged and rumor.converged
        assert mail.mail_messages > 5 * rumor.update_sends


def _one_exchange(cluster, protocol, site_id, partner_id):
    """One synchronous push-pull anti-entropy exchange between two sites."""
    snapshots = {s: cluster.sites[s].store.snapshot() for s in cluster.site_ids}
    protocol.anti_entropy._exchange_synchronous(site_id, partner_id, snapshots)


def _hot_sites(protocol, key):
    return {s for s in protocol.cluster.site_ids if protocol.rumor.is_infective(s, key)}


STRATEGIES = list(RecoveryStrategy)


class TestWhatEachStrategyAddsToAnExchange:
    """Anti-entropy news is hot at its target under every strategy (the
    rumor hears it as news); ``HOT_RUMOR`` adds the source and
    ``REDISTRIBUTE_MAIL`` the mail, ``CONSERVATIVE`` nothing."""

    @pytest.mark.parametrize("recovery", STRATEGIES, ids=lambda r: r.value)
    def test_a_missing_update(self, recovery):
        cluster, protocol = backup_cluster(3, recovery=recovery)
        cluster.sites[0].store.update("k", "v")
        _one_exchange(cluster, protocol, 0, 1)
        assert cluster.sites[1].store.get("k") == "v"
        assert protocol.redistributions == 1
        expected = {0, 1} if recovery is RecoveryStrategy.HOT_RUMOR else {1}
        assert _hot_sites(protocol, "k") == expected
        posted = protocol.mail.stats.posted if protocol.mail is not None else 0
        assert posted == (2 if recovery is RecoveryStrategy.REDISTRIBUTE_MAIL else 0)

    @pytest.mark.parametrize("recovery", STRATEGIES, ids=lambda r: r.value)
    def test_obsolete_data_against_a_dormant_certificate(self, recovery):
        """Not a missing update: the target spreads its woken certificate,
        and no strategy redistributes the obsolete value."""
        cluster, protocol = backup_cluster(3, recovery=recovery)
        holder = cluster.sites[1].store
        holder.delete("k", retention_sites=(1,))
        assert holder.sweep_certificates(tau1=-1.0).made_dormant == 1
        cluster.sites[0].store.apply_entry("k", VersionedValue("old", Timestamp(-1.0, 0, 0)))
        _one_exchange(cluster, protocol, 0, 1)
        awakened = holder.entry("k")
        assert awakened.is_deletion
        assert protocol.redistributions == 0
        assert _hot_sites(protocol, "k") == {1}
        assert protocol.rumor.hot_rumors(1)["k"].entry is awakened
        assert protocol.mail is None or protocol.mail.stats.posted == 0


class TestScheduling:
    def test_anti_entropy_runs_on_its_period_only(self):
        cluster, protocol = backup_cluster(30, period=4)
        cluster.inject_update(0, "k", "v")
        cluster.run_cycles(2)
        assert protocol.anti_entropy.stats.exchanges == 0
        cluster.run_cycles(2)  # cycle 3 == offset (period-1) fires
        assert protocol.anti_entropy.stats.exchanges > 0

    def test_rumor_runs_every_cycle(self):
        cluster, protocol = backup_cluster(30, period=4)
        cluster.inject_update(0, "k", "v")
        cluster.run_cycle()
        assert protocol.rumor.stats.conversations == 1
