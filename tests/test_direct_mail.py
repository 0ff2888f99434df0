"""Direct mail (Section 1.2): timely, O(n) messages, fallible."""

import pytest

from repro.cluster.cluster import Cluster
from repro.protocols.direct_mail import DirectMailProtocol


def mail_cluster(n=10, seed=0, **kwargs):
    cluster = Cluster(n=n, seed=seed)
    protocol = DirectMailProtocol(**kwargs)
    cluster.add_protocol(protocol)
    return cluster, protocol


class TestHappyPath:
    def test_update_reaches_everyone_next_cycle(self):
        cluster, protocol = mail_cluster(n=10)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycle()
        assert cluster.metrics.complete
        assert all(v == "v" for v in cluster.values_of("k").values())

    def test_costs_n_minus_one_messages(self):
        cluster, protocol = mail_cluster(n=10)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycle()
        assert cluster.metrics.update_sends == 9
        assert protocol.stats.posted == 9

    def test_newer_update_supersedes_in_flight(self):
        cluster, protocol = mail_cluster(n=5)
        cluster.inject_update(0, "k", "v1")
        cluster.inject_update(0, "k", "v2")
        cluster.run_cycle()
        assert all(v == "v2" for v in cluster.values_of("k").values())

    def test_concurrent_updates_resolve_by_timestamp(self):
        cluster, protocol = mail_cluster(n=5)
        cluster.inject_update(0, "k", "from-0")
        cluster.inject_update(1, "k", "from-1")
        cluster.run_cycle()
        values = set(cluster.values_of("k").values())
        assert len(values) == 1  # everyone agrees on the LWW winner

    def test_not_active_after_delivery(self):
        cluster, protocol = mail_cluster(n=4)
        cluster.inject_update(0, "k", "v")
        assert protocol.active
        cluster.run_cycle()
        assert not protocol.active


class TestFailureModes:
    def test_mail_loss_leaves_sites_susceptible(self):
        cluster, protocol = mail_cluster(n=100, loss_probability=0.3, seed=5)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycles(2)
        assert 0 < cluster.metrics.residue < 1
        assert protocol.stats.dropped_loss > 0

    def test_incomplete_site_knowledge(self):
        cluster, protocol = mail_cluster(n=50, known_fraction=0.5, seed=5)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycles(2)
        # Only about half the sites were even addressed.
        assert cluster.metrics.update_sends < 35
        assert cluster.metrics.residue > 0.2

    def test_known_fraction_validated(self):
        with pytest.raises(ValueError):
            DirectMailProtocol(known_fraction=0.0)

    def test_mailbox_overflow(self):
        cluster, protocol = mail_cluster(n=5, mailbox_capacity=2)
        # Three updates -> three letters per destination; one overflows.
        for i in range(3):
            cluster.inject_update(0, f"k{i}", i)
        cluster.run_cycle()
        assert protocol.stats.dropped_overflow > 0

    def test_mailbox_capacity_bounds_letters_in_flight(self):
        """A delivered letter frees its slot, so a capacity of two letters
        per site carries one update per cycle for as long as it runs."""
        cluster, protocol = mail_cluster(n=5, mailbox_capacity=2)
        for i in range(4):
            cluster.inject_update(0, f"k{i}", i)
            cluster.run_cycle()
        stats = protocol.stats
        assert (stats.posted, stats.delivered, stats.dropped_overflow) == (16, 16, 0)
        for i in range(4):
            assert set(cluster.values_of(f"k{i}").values()) == {i}

    def test_down_site_misses_mail(self):
        cluster, protocol = mail_cluster(n=5)
        cluster.sites[3].up = False
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycle()
        assert cluster.sites[3].store.get("k") is None
        assert 3 not in cluster.metrics.receipt_times

    def test_mail_to_a_removed_site_is_lost(self):
        """A letter in flight to a site that has left is delivered into
        nothing, like one to a down site; the cycle carries on."""
        cluster, protocol = mail_cluster(n=4)
        cluster.inject_update(0, "k", "v")
        cluster.remove_site(3)
        cluster.run_cycle()
        assert cluster.sites[1].store.get("k") == "v"
        assert cluster.sites[2].store.get("k") == "v"
        assert protocol.stats.delivered == 3
        assert not protocol.active


class TestRemailOption:
    def test_remail_disabled_by_default(self):
        cluster, protocol = mail_cluster(n=5)
        assert not protocol.remail_on_news

    def test_remail_triggers_on_news(self):
        cluster, protocol = mail_cluster(n=5, remail_on_news=True)
        update = cluster.sites[0].store.update("k", "v")
        posted_before = protocol.stats.posted
        cluster.sites[2].deliver(update)  # news from another protocol
        assert protocol.stats.posted == posted_before + 4

    def test_remail_spreads_a_woken_certificate_not_the_obsolete_value(self):
        """Obsolete data that wakes a dormant certificate is no news to
        remail: the site mails its certificate, as its own write."""
        from repro.core.items import VersionedValue
        from repro.core.store import StoreUpdate
        from repro.core.timestamps import Timestamp

        cluster, protocol = mail_cluster(n=5, remail_on_news=True)
        holder = cluster.sites[2].store
        holder.delete("k", retention_sites=(2,))
        assert holder.sweep_certificates(tau1=-1.0).made_dormant == 1
        obsolete = StoreUpdate("k", VersionedValue("old", Timestamp(-1.0, 0, 0)))
        posted_before = protocol.stats.posted
        cluster.sites[2].deliver(obsolete)
        assert protocol.stats.posted == posted_before + 4
        cluster.run_until(lambda: not protocol.active, max_cycles=10)
        for site_id in cluster.site_ids:
            assert cluster.sites[site_id].store.entry("k").is_deletion
