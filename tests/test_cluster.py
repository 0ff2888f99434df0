"""The cluster runtime: cycles, injection, tracking, accounting."""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.store import ApplyResult
from repro.obs.events import EventKind, RingBufferSink
from repro.obs.spans import span_of_event
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode, Protocol
from repro.topology import builders


class TestConstruction:
    def test_n_sites_without_topology(self):
        cluster = Cluster(n=5, seed=0)
        assert cluster.n == 5
        assert cluster.site_ids == [0, 1, 2, 3, 4]

    def test_topology_sites(self):
        cluster = Cluster(topology=builders.line(4), seed=0)
        assert cluster.n == 4

    def test_requires_topology_or_n(self):
        with pytest.raises(ValueError):
            Cluster()

    def test_n_must_match_topology(self):
        with pytest.raises(ValueError):
            Cluster(topology=builders.line(4), n=5)

    def test_each_site_has_own_rng_and_clock(self):
        cluster = Cluster(n=3, seed=0)
        rngs = {id(cluster.sites[i].rng) for i in range(3)}
        assert len(rngs) == 3
        stamps = {cluster.sites[i].clock.next_timestamp() for i in range(3)}
        assert len(stamps) == 3

    def test_clock_skew_applied(self):
        cluster = Cluster(n=2, seed=0, clock_skew=lambda site: 0.1 * site)
        assert cluster.sites[0].clock.now() == 0.0
        assert cluster.sites[1].clock.now() == pytest.approx(0.1)


class TestInjection:
    def test_update_lands_locally(self):
        cluster = Cluster(n=3, seed=0)
        cluster.inject_update(1, "k", "v")
        assert cluster.sites[1].store.get("k") == "v"
        assert cluster.sites[0].store.get("k") is None

    def test_update_notifies_protocols(self):
        seen = []

        class Recorder(Protocol):
            def on_local_update(self, site_id, update):
                seen.append((site_id, update.key))

        cluster = Cluster(n=3, seed=0)
        cluster.add_protocol(Recorder())
        cluster.inject_update(2, "k", "v")
        assert seen == [(2, "k")]

    def test_delete_samples_retention_sites(self):
        cluster = Cluster(n=10, seed=0)
        update = cluster.inject_delete(0, "k", retention_count=3)
        assert len(update.entry.retention_sites) == 3
        assert set(update.entry.retention_sites) <= set(cluster.site_ids)

    def test_retention_count_capped_at_n(self):
        cluster = Cluster(n=3, seed=0)
        update = cluster.inject_delete(0, "k", retention_count=50)
        assert len(update.entry.retention_sites) == 3

    def test_tracked_injection_creates_metrics(self):
        cluster = Cluster(n=4, seed=0)
        cluster.inject_update(1, "k", "v", track=True)
        assert cluster.metrics is not None
        assert cluster.metrics.infected == 1
        assert 1 in cluster.metrics.receipt_times


class TestTimeAdvance:
    def test_run_cycle_advances_time(self):
        cluster = Cluster(n=2, seed=0)
        cluster.run_cycles(3)
        assert cluster.cycle == 3

    def test_site_clocks_follow_cycles(self):
        cluster = Cluster(n=2, seed=0)
        cluster.run_cycles(5)
        assert cluster.sites[0].clock.now() == 5.0

    def test_run_until_raises_on_bound(self):
        cluster = Cluster(n=2, seed=0)
        with pytest.raises(RuntimeError):
            cluster.run_until(lambda: False, max_cycles=5)

    def test_run_until_counts_cycles(self):
        cluster = Cluster(n=2, seed=0)
        ran = cluster.run_until(lambda: cluster.cycle >= 4, max_cycles=10)
        assert ran == 4

    def test_protocols_run_each_cycle(self):
        calls = []

        class Recorder(Protocol):
            def run_cycle(self, cycle):
                calls.append(cycle)

        cluster = Cluster(n=2, seed=0)
        cluster.add_protocol(Recorder())
        cluster.run_cycles(3)
        assert calls == [1, 2, 3]


class TestAtNextCycle:
    """What is posted for the next cycle runs at its top, before any
    protocol's step, in posting order; nothing finer than a cycle."""

    class Steps(Protocol):
        def __init__(self, log):
            super().__init__()
            self.log = log

        def run_cycle(self, cycle):
            self.log.append(("step", cycle))

    def cluster(self):
        log = []
        cluster = Cluster(n=2, seed=0)
        cluster.add_protocol(self.Steps(log))
        return cluster, log

    def test_runs_at_the_top_of_the_next_cycle(self):
        cluster, log = self.cluster()
        cluster.at_next_cycle(lambda: log.append(("due", cluster.cycle)))
        assert log == []
        cluster.run_cycles(2)
        assert log == [("due", 1), ("step", 1), ("step", 2)]

    def test_callbacks_run_in_posting_order(self):
        cluster, log = self.cluster()
        for name in "cab":
            cluster.at_next_cycle(lambda name=name: log.append(name))
        cluster.run_cycle()
        assert log == ["c", "a", "b", ("step", 1)]

    def test_a_callback_posted_while_running_waits_a_cycle(self):
        cluster, log = self.cluster()

        def first():
            log.append(("first", cluster.cycle))
            cluster.at_next_cycle(lambda: log.append(("second", cluster.cycle)))

        cluster.at_next_cycle(first)
        cluster.run_cycles(2)
        assert log == [("first", 1), ("step", 1), ("second", 2), ("step", 2)]


class TestNewsFanout:
    def test_deliver_notifies_other_protocols_not_source(self):
        log = []

        class Recorder(Protocol):
            def __init__(self, name):
                super().__init__()
                self.name = name

            def on_news(self, site_id, update, result):
                log.append(self.name)

        a = Recorder("a")
        b = Recorder("b")
        cluster = Cluster(n=2, seed=0)
        cluster.add_protocol(a)
        cluster.add_protocol(b)
        update = cluster.sites[0].store.update("k", "v")
        cluster.sites[1].deliver(update, via=a)
        assert log == ["b"]

    def test_deliver_suppresses_notification_for_stale(self):
        log = []

        class Recorder(Protocol):
            def on_news(self, site_id, update, result):
                log.append((site_id, result))

        cluster = Cluster(n=2, seed=0)
        cluster.add_protocol(Recorder())
        older = cluster.sites[0].store.update("k", "v1")
        newer = cluster.sites[0].store.update("k", "v2")
        assert cluster.sites[1].deliver(newer) is ApplyResult.APPLIED
        assert log == [(1, ApplyResult.APPLIED)]
        assert cluster.sites[1].deliver(older) is ApplyResult.STALE
        assert cluster.sites[1].deliver(newer) is ApplyResult.EQUAL
        assert log == [(1, ApplyResult.APPLIED)]  # neither reached on_news

    def test_observers_see_news(self):
        """A bus sink hears each site's news once, as a first-delivery
        span; a repeat is a redundant span, not news."""
        cluster = Cluster(n=2, seed=0)
        sink = cluster.bus.add_sink(RingBufferSink())
        update = cluster.sites[0].store.update("k", "v")
        cluster.sites[1].deliver(update, src=0)
        cluster.sites[1].deliver(update, src=0)
        spans = [span_of_event(event) for event in sink.of_kind(EventKind.DELIVERY_SPAN)]
        assert [(s.node, s.src, s.first, s.result) for s in spans] == [
            (1, 0, True, "applied"),
            (1, 0, False, "equal"),
        ]

    def test_protocol_cannot_attach_twice(self):
        cluster = Cluster(n=2, seed=0)
        protocol = Protocol()
        cluster.add_protocol(protocol)
        with pytest.raises(RuntimeError):
            cluster.add_protocol(protocol)


class TestAccounting:
    def test_comparison_routed_over_topology(self):
        cluster = Cluster(topology=builders.line(4), seed=0)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.count_comparison(0, 3)
        assert cluster.traffic.compare.total == 3  # three links en route
        assert cluster.metrics.comparisons == 1

    def test_update_sends_routed_and_counted(self):
        cluster = Cluster(topology=builders.line(3), seed=0)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.count_update_sends(0, 2, count=2)
        assert cluster.traffic.update.total == 4  # 2 sends x 2 links
        assert cluster.metrics.update_sends == 2

    def test_zero_sends_ignored(self):
        cluster = Cluster(topology=builders.line(3), seed=0)
        cluster.count_update_sends(0, 2, count=0)
        assert cluster.traffic.update.total == 0

    def test_no_routing_without_edges(self):
        cluster = Cluster(n=3, seed=0)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.count_update_sends(0, 2)
        assert cluster.metrics.update_sends == 1
        assert cluster.traffic.update.total == 0


class TestConsistencyChecks:
    def test_converged_on_identical_stores(self):
        cluster = Cluster(n=3, seed=0)
        assert cluster.converged()  # all empty
        update = cluster.inject_update(0, "k", "v")
        assert not cluster.converged()
        for site in (1, 2):
            cluster.sites[site].store.apply_entry(update.key, update.entry)
        assert cluster.converged()

    def test_converged_subset(self):
        cluster = Cluster(n=3, seed=0)
        update = cluster.inject_update(0, "k", "v")
        cluster.sites[1].store.apply_entry(update.key, update.entry)
        assert cluster.converged([0, 1])
        assert not cluster.converged([0, 2])

    def test_infected_sites(self):
        cluster = Cluster(n=3, seed=0)
        update = cluster.inject_update(0, "k", "v")
        cluster.sites[2].store.apply_entry(update.key, update.entry)
        assert cluster.infected_sites(update) == [0, 2]

    def test_values_of(self):
        cluster = Cluster(n=2, seed=0)
        cluster.inject_update(0, "k", "v")
        assert cluster.values_of("k") == {0: "v", 1: None}

    def test_up_site_ids_excludes_down(self):
        cluster = Cluster(n=3, seed=0)
        cluster.sites[1].up = False
        assert cluster.up_site_ids() == [0, 2]


class TestDeterminism:
    def test_same_seed_same_run(self):
        def run(seed):
            cluster = Cluster(n=40, seed=seed)
            cluster.add_protocol(
                AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH))
            )
            cluster.inject_update(0, "k", "v", track=True)
            cluster.run_until(lambda: cluster.metrics.infected == 40, max_cycles=100)
            return (cluster.cycle, dict(cluster.metrics.receipt_times))

        assert run(11) == run(11)

    def test_different_seed_different_run(self):
        def run(seed):
            cluster = Cluster(n=40, seed=seed)
            cluster.add_protocol(
                AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH))
            )
            cluster.inject_update(0, "k", "v", track=True)
            cluster.run_until(lambda: cluster.metrics.infected == 40, max_cycles=100)
            return dict(cluster.metrics.receipt_times)

        assert run(11) != run(12)


class TestUsefulUpdateAccounting:
    def test_useful_counter_routed(self):
        from repro.topology import builders

        cluster = Cluster(topology=builders.line(3), seed=0)
        cluster.count_useful_update_send(0, 2)
        assert cluster.traffic.useful_update.total == 2  # two links en route
        cluster.count_useful_update_send(0, 2, count=0)
        assert cluster.traffic.useful_update.total == 2

    def test_rumor_protocol_separates_useful_from_gross(self):
        from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol
        from repro.topology import builders

        cluster = Cluster(topology=builders.line(2), seed=1)
        protocol = RumorMongeringProtocol(RumorConfig(mode=ExchangeMode.PUSH, k=9))
        cluster.add_protocol(protocol)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_cycle()   # useful delivery 0 -> 1
        assert cluster.traffic.useful_update.total == 1
        cluster.run_cycle()   # both push uselessly
        assert cluster.traffic.useful_update.total == 1
        assert cluster.traffic.update.total == 3
