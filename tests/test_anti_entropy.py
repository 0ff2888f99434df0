"""Anti-entropy (Section 1.3): simple-epidemic convergence, push vs
pull endgames, periods, connection limits, live strategies."""

import pytest

from repro.cluster.cluster import Cluster
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import (
    ChecksumWithRecent,
    FullCompare,
    HierarchicalChecksum,
    PeelBack,
)
from repro.sim.transport import ConnectionPolicy


def anti_entropy_cluster(n, mode=ExchangeMode.PUSH_PULL, seed=0, **config_kwargs):
    cluster = Cluster(n=n, seed=seed)
    protocol = AntiEntropyProtocol(
        config=AntiEntropyConfig(mode=mode, **config_kwargs)
    )
    cluster.add_protocol(protocol)
    return cluster, protocol


class TestConvergence:
    @pytest.mark.parametrize(
        "mode", [ExchangeMode.PUSH, ExchangeMode.PULL, ExchangeMode.PUSH_PULL]
    )
    def test_single_update_reaches_everyone(self, mode):
        cluster, protocol = anti_entropy_cluster(30, mode=mode)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(lambda: cluster.metrics.infected == 30, max_cycles=100)
        assert all(v == "v" for v in cluster.values_of("k").values())

    def test_convergence_is_logarithmic(self):
        """Doubling n should add only a few cycles."""
        def cycles_for(n):
            cluster, __ = anti_entropy_cluster(n, mode=ExchangeMode.PUSH_PULL, seed=3)
            cluster.inject_update(0, "k", "v", track=True)
            cluster.run_until(lambda: cluster.metrics.infected == n, max_cycles=200)
            return cluster.metrics.t_last

        small = cycles_for(64)
        large = cycles_for(512)
        assert large <= small + 6

    def test_multiple_keys_converge(self):
        cluster, __ = anti_entropy_cluster(15)
        for i in range(5):
            cluster.inject_update(i, f"k{i}", i)
        cluster.run_until(cluster.converged, max_cycles=100)
        for i in range(5):
            assert set(cluster.values_of(f"k{i}").values()) == {i}

    def test_conflicting_updates_settle_on_lww_winner(self):
        cluster, __ = anti_entropy_cluster(10)
        cluster.inject_update(0, "k", "first")
        cluster.run_cycles(2)
        winner = cluster.inject_update(5, "k", "second")
        cluster.run_until(cluster.converged, max_cycles=100)
        values = set(cluster.values_of("k").values())
        assert values == {"second"}


class TestEndgameAsymmetry:
    """Section 1.3: pull converges quadratically, push only linearly,
    when few susceptibles remain."""

    def _residue_after(self, mode, cycles, seed=5):
        n = 600
        cluster, __ = anti_entropy_cluster(n, mode=mode, seed=seed)
        update = cluster.inject_update(0, "k", "v", track=True)
        import random as _random

        rng = _random.Random(99)
        others = [s for s in cluster.site_ids if s != 0]
        # Plant at 90% of sites: the endgame regime.
        for site in rng.sample(others, int(n * 0.9) - 1):
            cluster.sites[site].deliver(update)
        cluster.run_cycles(cycles)
        return cluster.metrics.residue

    def test_pull_beats_push_in_endgame(self):
        pull = self._residue_after(ExchangeMode.PULL, cycles=3)
        push = self._residue_after(ExchangeMode.PUSH, cycles=3)
        assert pull < push

    def test_pull_eliminates_quickly(self):
        assert self._residue_after(ExchangeMode.PULL, cycles=5) == 0.0

    def test_push_tail_shrinks_roughly_e_per_cycle(self):
        before = self._residue_after(ExchangeMode.PUSH, cycles=2)
        after = self._residue_after(ExchangeMode.PUSH, cycles=3)
        assert after < before


class TestPeriodAndOffset:
    def test_period_skips_cycles(self):
        cluster, protocol = anti_entropy_cluster(10, period=3, offset=0)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycles(2)
        assert protocol.stats.exchanges == 0  # cycles 1, 2 skipped
        cluster.run_cycle()                   # cycle 3 runs
        assert protocol.stats.exchanges == 10

    def test_offset_shifts_schedule(self):
        cluster, protocol = anti_entropy_cluster(10, period=3, offset=1)
        cluster.run_cycle()  # cycle 1 matches offset
        assert protocol.stats.exchanges == 10

    def test_invalid_period_rejected(self):
        with pytest.raises(ValueError):
            AntiEntropyConfig(period=0)
        with pytest.raises(ValueError):
            AntiEntropyConfig(period=2, offset=2)


class TestConnectionLimit:
    def test_rejections_recorded(self):
        cluster, protocol = anti_entropy_cluster(
            50, policy=ConnectionPolicy(connection_limit=1, hunt_limit=0), seed=2
        )
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycles(3)
        assert protocol.stats.rejected > 0
        assert cluster.metrics.rejected_connections == protocol.stats.rejected

    def test_limit_slows_but_does_not_stop_convergence(self):
        n = 100
        cluster, __ = anti_entropy_cluster(
            n, policy=ConnectionPolicy(connection_limit=1, hunt_limit=0), seed=2
        )
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(lambda: cluster.metrics.infected == n, max_cycles=300)
        assert cluster.metrics.complete

    def test_hunting_reduces_rejections(self):
        def rejections(hunt_limit):
            cluster, protocol = anti_entropy_cluster(
                60,
                policy=ConnectionPolicy(connection_limit=1, hunt_limit=hunt_limit),
                seed=4,
            )
            cluster.run_cycles(5)
            return protocol.stats.rejected

        assert rejections(5) < rejections(0)


class TestDownSites:
    def test_down_sites_do_not_participate(self):
        cluster, protocol = anti_entropy_cluster(10)
        cluster.sites[3].up = False
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(
            lambda: cluster.metrics.infected == 9, max_cycles=100
        )
        assert cluster.sites[3].store.get("k") is None

    def test_rejoining_site_catches_up(self):
        cluster, protocol = anti_entropy_cluster(10)
        cluster.sites[3].up = False
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycles(10)
        cluster.sites[3].up = True
        cluster.run_until(lambda: cluster.metrics.infected == 10, max_cycles=100)
        assert cluster.sites[3].store.get("k") == "v"


class TestLiveStrategies:
    @pytest.mark.parametrize(
        "strategy", [ChecksumWithRecent(tau=50.0), PeelBack(), HierarchicalChecksum()]
    )
    def test_asynchronous_mode_converges(self, strategy):
        cluster = Cluster(n=20, seed=1)
        protocol = AntiEntropyProtocol(
            config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, synchronous=False),
            strategy=strategy,
        )
        cluster.add_protocol(protocol)
        for i in range(4):
            cluster.inject_update(i, f"k{i}", i)
        cluster.run_until(cluster.converged, max_cycles=100)
        assert cluster.converged()

    def test_a_strategy_is_refused_by_the_synchronous_engine(self):
        """The synchronous engine runs its own snapshot full compare; a
        strategy handed to it would be silently ignored."""
        with pytest.raises(ValueError, match="synchronous=False"):
            AntiEntropyProtocol(strategy=ChecksumWithRecent(5.0))

    def test_checksum_successes_tracked(self):
        cluster = Cluster(n=10, seed=1)
        protocol = AntiEntropyProtocol(
            config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, synchronous=False),
            strategy=ChecksumWithRecent(tau=50.0),
        )
        cluster.add_protocol(protocol)
        cluster.inject_update(0, "k", "v")
        cluster.run_cycles(10)
        assert protocol.stats.checksum_successes > 0

    def test_hierarchical_bucket_stats_tracked(self):
        cluster = Cluster(n=10, seed=1)
        protocol = AntiEntropyProtocol(
            config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, synchronous=False),
            strategy=HierarchicalChecksum(),
        )
        cluster.add_protocol(protocol)
        for i in range(3):
            cluster.inject_update(i, f"k{i}", i)
        cluster.run_until(cluster.converged, max_cycles=100)
        assert cluster.converged()
        # Differences were settled bucket-by-bucket, exchanges that found
        # equal roots were counted as checksum successes, and the scoped
        # offers skipped entries a full comparison would have examined.
        assert protocol.stats.bucket_rounds > 0
        assert protocol.stats.checksum_successes > 0
        assert protocol.stats.full_compares == 0

    @pytest.mark.parametrize(
        "strategy",
        [FullCompare(), ChecksumWithRecent(tau=50.0), PeelBack(), HierarchicalChecksum()],
        ids=lambda strategy: strategy.describe(),
    )
    @pytest.mark.parametrize("empty_initiator", [True, False])
    def test_every_exchange_is_booked_once(self, strategy, empty_initiator):
        """``full_compares`` and ``checksum_successes`` partition the
        exchanges, including an empty initiator's, which walks no tree."""
        cluster = Cluster(n=2, seed=1)
        protocol = AntiEntropyProtocol(
            config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL, synchronous=False),
            strategy=strategy,
        )
        cluster.add_protocol(protocol)
        cluster.sites[1].store.update("a", 1)
        cluster.sites[1].store.update("b", 2)
        if not empty_initiator:
            cluster.sites[0].store.update("c", 3)
        cluster.run_cycles(1)
        stats = protocol.stats
        assert stats.exchanges == 2
        assert stats.full_compares + stats.checksum_successes == stats.exchanges

    def test_transfer_hook_fires(self):
        transfers = []
        cluster, protocol = anti_entropy_cluster(10)
        protocol.on_transfer(
            lambda src, dst, update, result: transfers.append((src, dst, update.key))
        )
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(lambda: cluster.metrics.infected == 10, max_cycles=50)
        assert transfers
        assert all(key == "k" for __, __unused, key in transfers)


class TestSynchronousSemantics:
    def test_decisions_use_start_of_cycle_state(self):
        """With push from a single seed, at most 2^c sites can know the
        update after c cycles — the synchronous doubling bound."""
        cluster, __ = anti_entropy_cluster(64, mode=ExchangeMode.PUSH, seed=7)
        cluster.inject_update(0, "k", "v", track=True)
        for cycle in range(1, 5):
            cluster.run_cycle()
            assert cluster.metrics.infected <= 2 ** cycle
