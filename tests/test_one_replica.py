"""One account of what a replica learns, whichever runtime drives it.

``repro.cluster.site.Site`` emits every ``update-injected``,
``news-received``, ``delivery-span`` and ``death-cert-activated`` for
the simulator's sites and for a live node alike.  These tests hold the
two runtimes to the same event sequence for the same four steps and to
the same hot rumor when a dormant certificate wakes, and a simulator
trace to the numbers the simulator itself reports.
"""

import pytest

from repro.cluster.cluster import Cluster
from repro.core.items import VersionedValue
from repro.core.serialize import encode_batch
from repro.core.store import ReplicaStore, StoreUpdate
from repro.core.timestamps import Timestamp
from repro.net.membership import Membership
from repro.net.node import GossipNode, NodeConfig
from repro.net.wire import Message, MessageType
from repro.obs.convergence import ConvergenceTracker
from repro.obs.events import EventKind, RingBufferSink
from repro.protocols.base import ExchangeMode
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol

SRC = 1

#: The events a site emits; a live node adds its own (``rumor-hot``).
ACCOUNT = {
    EventKind.UPDATE_INJECTED,
    EventKind.DELIVERY_SPAN,
    EventKind.DEATH_CERT_ACTIVATED,
    EventKind.NEWS_RECEIVED,
}


def _plant_dormant_certificate(store: ReplicaStore) -> None:
    store.delete("zombie", retention_sites=(store.site_id,))
    assert store.sweep_certificates(tau1=-1.0).made_dormant == 1


def _steps():
    """The news delivery from ``SRC`` and the obsolete write that meets
    the dormant certificate."""
    news = ReplicaStore(site_id=SRC).update("k", "v")
    obsolete = StoreUpdate("zombie", VersionedValue("old", Timestamp(-1.0, SRC, 0)))
    return news, obsolete


def _simulated():
    cluster = Cluster(n=2, seed=0)
    site = cluster.sites[0]
    _plant_dormant_certificate(site.store)
    sink = cluster.bus.add_sink(RingBufferSink())
    news, obsolete = _steps()
    cluster.inject_update(0, "w", 1)
    results = [site.deliver(news, src=SRC), site.deliver(news, src=SRC)]
    results.append(site.deliver(obsolete, src=SRC))
    return [event for event in sink.events if event.kind in ACCOUNT], results


def _live():
    node = GossipNode(0, Membership.localhost([1, 2]), NodeConfig())
    _plant_dormant_certificate(node.store)
    sink = node.bus.add_sink(RingBufferSink())
    news, obsolete = _steps()
    node.inject("w", 1)
    results = []
    for update in (news, news, obsolete):
        ((__, result),) = node._absorb({"updates": encode_batch([update], sent_at=1.0)}, SRC)
        results.append(result)
    return [event for event in sink.events if event.kind in ACCOUNT], results


class TestBothRuntimesTellTheSameStory:
    @pytest.fixture(scope="class")
    def runs(self):
        return _simulated(), _live()

    def test_same_results(self, runs):
        (__, simulated), (__, live) = runs
        assert [result.value for result in simulated] == [result.value for result in live] == [
            "applied", "equal", "resurrection-blocked",
        ]

    def test_same_kinds_in_the_same_order_with_the_same_payload_keys(self, runs):
        (simulated, __), (live, __) = runs
        shape = [(event.kind.value, sorted(event.payload)) for event in simulated]
        assert shape == [(event.kind.value, sorted(event.payload)) for event in live]
        assert [kind for kind, __ in shape] == [
            # the client write
            "update-injected", "delivery-span", "news-received",
            # the news delivery
            "delivery-span", "news-received",
            # the same delivery again: a redundant span, no news
            "delivery-span",
            # obsolete data against a dormant certificate
            "delivery-span", "death-cert-activated", "news-received",
        ]
        assert all(
            payload == ["key"] for kind, payload in shape if kind == "news-received"
        )

    def test_same_spans(self, runs):
        (simulated, __), (live, __) = runs

        def spans(events):
            return [
                (event.payload["key"], event.payload["src"], event.payload["first"],
                 event.payload["result"])
                for event in events if event.kind is EventKind.DELIVERY_SPAN
            ]

        assert spans(simulated) == spans(live) == [
            ("w", None, True, "applied"),
            ("k", SRC, True, "applied"),
            ("k", SRC, False, "equal"),
            ("zombie", SRC, True, "resurrection-blocked"),
        ]

    def test_one_timestamp_per_step(self, runs):
        (simulated, __), (live, __) = runs
        for events in (simulated, live):
            steps = [events[0:3], events[3:5], events[5:6], events[6:9]]
            assert all(len({event.time for event in step}) == 1 for step in steps)


class TestBothRuntimesSpreadTheWokenCertificate:
    """Obsolete data rumored at a dormant certificate wakes it, and the
    certificate, not the obsolete value, becomes the replica's hot
    rumor: in a simulator with no certificate manager, and on a node."""

    def test_a_rumor_only_cluster(self):
        cluster = Cluster(n=2, seed=0)
        rumor = RumorMongeringProtocol(RumorConfig(mode=ExchangeMode.PUSH, k=1))
        cluster.add_protocol(rumor)
        store = cluster.sites[0].store
        _plant_dormant_certificate(store)
        __, obsolete = _steps()
        cluster.sites[SRC].store.apply_entry(obsolete.key, obsolete.entry)
        rumor.make_hot(SRC, obsolete)
        cluster.run_cycle()  # SRC pushes the obsolete value to site 0
        awakened = store.entry("zombie")
        assert awakened.is_deletion
        assert rumor.hot_rumors(0)["zombie"].entry is awakened

    def test_a_node(self):
        node = GossipNode(0, Membership.localhost([1, 2]), NodeConfig())
        _plant_dormant_certificate(node.store)
        __, obsolete = _steps()
        node._answer_rumor(Message(MessageType.RUMOR, SRC, {"updates": encode_batch([obsolete])}))
        awakened = node.store.entry("zombie")
        assert awakened.is_deletion
        assert node._hot["zombie"].entry is awakened


class TestASimulatorTraceReplaysToItsOwnNumbers:
    @pytest.mark.parametrize("seed", [3, 11])
    def test_receipts_and_delays(self, seed):
        n = 64
        cluster = Cluster(n=n, seed=seed)
        sink = cluster.bus.add_sink(RingBufferSink())
        protocol = RumorMongeringProtocol(RumorConfig(mode=ExchangeMode.PUSH, k=1))
        cluster.add_protocol(protocol)
        cluster.inject_update(0, "k", "v", track=True)
        cluster.run_until(lambda: not protocol.active, max_cycles=200)
        metrics = cluster.metrics
        assert 0 < metrics.residue < 1  # k = 1 push leaves a residue
        replay = ConvergenceTracker.from_events(sink.events, n=n, key="k")
        assert replay.receipt_times == metrics.receipt_times
        assert replay.injection_time == metrics.injection_time
        assert (replay.t_ave, replay.t_last, replay.residue) == (
            metrics.t_ave, metrics.t_last, metrics.residue,
        )
