"""Many concurrent epidemics: the multi-update regime.

The paper's tables track one update, but its motivation is a live
database with "a reasonable update rate": many rumors in flight at
once, sharing conversations. These tests verify that concurrency does
not break per-update behavior — each update still spreads, rumor lists
carry multiple entries per conversation, and the pull variant's
stated advantage (a pull request usually finds a non-empty rumor
list under load) shows up as measured efficiency.
"""

from repro.cluster.cluster import Cluster
from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol


def rumor_cluster(n, config, seed=0):
    cluster = Cluster(n=n, seed=seed)
    rumor = RumorMongeringProtocol(config)
    cluster.add_protocol(rumor)
    return cluster, rumor


class TestConcurrentSpread:
    def test_ten_concurrent_updates_each_spread_widely(self):
        n, updates = 400, 10
        cluster, rumor = rumor_cluster(
            n, RumorConfig(mode=ExchangeMode.PUSH_PULL, k=3), seed=1
        )
        injected = [
            cluster.inject_update(i * 7 % n, f"key-{i}", i) for i in range(updates)
        ]
        cluster.run_until(lambda: not rumor.active, max_cycles=200)
        for i, update in enumerate(injected):
            coverage = len(cluster.infected_sites(update)) / n
            assert coverage > 0.95, f"key-{i} reached only {coverage:.0%}"

    def test_staggered_injection_under_continuous_load(self):
        """Updates injected over time, two per cycle, all delivered."""
        n = 300
        cluster, rumor = rumor_cluster(
            n, RumorConfig(mode=ExchangeMode.PULL, k=3), seed=2
        )
        injected = []
        for i in range(20):
            injected.append(cluster.inject_update((13 * i) % n, f"key-{i}", i))
            if i % 2 == 1:
                cluster.run_cycle()
        cluster.run_until(lambda: not rumor.active, max_cycles=200)
        missing = [
            i
            for i, update in enumerate(injected)
            if len(cluster.infected_sites(update)) / n < 0.95
        ]
        assert not missing, f"under-covered keys: {missing}"

    def test_conversations_batch_multiple_rumors(self):
        """With many hot rumors, one conversation ships several updates:
        updates_sent greatly exceeds conversations."""
        cluster, rumor = rumor_cluster(
            200, RumorConfig(mode=ExchangeMode.PUSH, k=3), seed=3
        )
        for i in range(8):
            cluster.inject_update(0, f"key-{i}", i)  # all hot at one site
        cluster.run_cycles(4)
        assert rumor.stats.updates_sent > 2 * rumor.stats.conversations

    def test_pull_is_fruitful_under_load(self):
        """The paper's rationale for pull on the CIN: with numerous
        independent updates, a pull request usually finds a non-empty
        rumor list.  Measure the fraction of pull conversations that
        shipped at least one update early in a busy epidemic."""
        n = 300
        cluster, rumor = rumor_cluster(
            n, RumorConfig(mode=ExchangeMode.PULL, k=2), seed=4
        )
        for i in range(30):
            cluster.inject_update((11 * i) % n, f"key-{i}", i)
        cluster.run_cycles(6)
        busy_sends = rumor.stats.updates_sent
        busy_conversations = rumor.stats.conversations
        # Under load a meaningful share of requests found rumors.
        assert busy_sends > 0.2 * busy_conversations

    def test_quiescent_pull_is_pure_overhead(self):
        """The flip side: with no updates, pull's requests ship nothing
        cycle after cycle (push would go silent)."""
        cluster, rumor = rumor_cluster(
            100, RumorConfig(mode=ExchangeMode.PULL, k=2), seed=5
        )
        cluster.run_cycles(5)
        assert rumor.stats.conversations == 500
        assert rumor.stats.updates_sent == 0

    def test_each_update_keeps_independent_counters(self):
        """Two rumors at one site deactivate independently: the older
        one can die while the newer stays hot."""
        cluster, rumor = rumor_cluster(
            2, RumorConfig(mode=ExchangeMode.PUSH, k=1), seed=6
        )
        cluster.inject_update(0, "old", 1)
        cluster.run_cycles(2)  # "old" delivered, then useless -> dying
        cluster.inject_update(0, "new", 2)
        hot = rumor.hot_rumors(0)
        if "old" in hot:
            # Not yet deactivated: at least its counter exceeds new's.
            assert hot["old"].counter >= hot["new"].counter
        assert "new" in hot
        cluster.run_until(lambda: not rumor.active, max_cycles=50)
        assert cluster.converged()
