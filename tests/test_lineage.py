"""Infection-tree reconstruction and anomaly analytics."""

from repro.cluster.cluster import Cluster
from repro.obs.events import Event, EventKind, HARNESS_NODE, RingBufferSink
from repro.obs.lineage import InfectionTree, LineageIndex, render_analysis
from repro.obs.spans import DeliverySpan
from repro.protocols.anti_entropy import AntiEntropyConfig, AntiEntropyProtocol
from repro.protocols.base import ExchangeMode


def span(node, t, src=None, first=True, sent_at=None, trace="k@1#0.0"):
    return DeliverySpan(
        node=node,
        time=float(t),
        key="k",
        trace=trace,
        src=src,
        first=first,
        sent_at=sent_at,
        result="applied" if first else "equal",
    )


def chain_tree(*spans):
    tree = InfectionTree("k@1#0.0")
    for s in spans:
        tree.add(s)
    return tree


class TestTreeStructure:
    def test_root_and_children(self):
        tree = chain_tree(
            span(0, 0.0),
            span(1, 1.0, src=0),
            span(2, 1.5, src=0),
            span(3, 2.0, src=1),
        )
        assert tree.root == 0
        assert tree.children() == {0: [1, 2], 1: [3]}
        assert tree.infected() == [0, 1, 2, 3]
        assert tree.max_depth == 2
        assert tree.complete(4)
        assert not tree.complete(5)

    def test_depth_falls_back_to_tree_walk_without_hops(self):
        """Spans carry no hop count; depth is read off the tree by
        walking first-delivery src links up to the root."""
        tree = chain_tree(
            span(0, 0.0),
            span(1, 1.0, src=0),
            span(2, 2.0, src=1),
        )
        assert tree.depth_of(0) == 0
        assert tree.depth_of(1) == 1
        assert tree.depth_of(2) == 2
        assert tree.depth_of(7) is None  # never delivered to

    def test_an_orphan_has_no_depth(self):
        """A node whose lineage leads to a node that never appears as a
        first delivery cannot be placed in the tree."""
        tree = chain_tree(span(0, 0.0), span(2, 1.0, src=9), span(3, 2.0, src=2))
        assert tree.depth_of(0) == 0
        assert tree.depth_of(2) is None
        assert tree.depth_of(3) is None
        assert tree.max_depth == 0

    def test_a_cycle_has_no_depth(self):
        tree = chain_tree(
            span(0, 0.0),
            span(1, 1.0, src=2),
            span(2, 1.0, src=1),
            span(3, 2.0, src=1),
            span(4, 2.0, src=4),  # its own parent
        )
        assert [tree.depth_of(node) for node in range(5)] == [0, None, None, None, None]

    def test_hop_latency_is_child_minus_parent(self):
        tree = chain_tree(span(0, 0.0), span(1, 2.5, src=0), span(2, 4.0, src=1))
        assert tree.hop_latency(0) is None  # the root has no inbound hop
        assert tree.hop_latency(1) == 2.5
        assert tree.hop_latency(2) == 1.5
        assert tree.hop_latencies() == [(1, 2.5), (2, 1.5)]

    def test_network_latency_uses_sent_at(self):
        tree = chain_tree(span(0, 0.0), span(1, 5.0, src=0, sent_at=4.75))
        assert tree.network_latency(1) == 0.25
        assert tree.network_latency(0) is None

    def test_redundant_and_link_traffic_attribution(self):
        tree = chain_tree(
            span(0, 0.0),
            span(1, 1.0, src=0),
            span(1, 2.0, src=0, first=False),
            span(0, 2.0, src=1, first=False),
            span(0, 3.0, src=1, first=False),
        )
        assert tree.redundant[(0, 1)] == 1
        assert tree.redundant[(1, 0)] == 2
        assert tree.link_traffic[(0, 1)] == 2  # first + redundant
        assert tree.link_traffic[(1, 0)] == 2


class TestAnomalies:
    def test_clean_tree_has_none(self):
        tree = chain_tree(span(0, 0.0), span(1, 1.0, src=0), span(2, 1.0, src=0))
        assert tree.anomalies(n=3) == []

    def test_incomplete_tree(self):
        tree = chain_tree(span(0, 0.0), span(1, 1.0, src=0))
        flags = tree.anomalies(n=4)
        assert any("incomplete" in f and "2/4" in f for f in flags)

    def test_duplicate_first_delivery(self):
        tree = chain_tree(span(0, 0.0), span(1, 1.0, src=0), span(1, 3.0, src=0))
        flags = tree.anomalies(n=2)
        assert any("more than once" in f for f in flags)
        assert not tree.complete(2)

    def test_orphan_edge(self):
        tree = chain_tree(span(0, 0.0), span(2, 1.0, src=9))
        assert any("orphan" in f for f in tree.anomalies(n=3))

    def test_hop_budget_exceeded(self):
        # A 12-deep chain in an n=8 tree: way past 2*ceil(log2 8)+2 = 8.
        spans = [span(0, 0.0)]
        for i in range(1, 13):
            spans.append(span(i, float(i), src=i - 1))
        flags = chain_tree(*spans).anomalies(n=8)
        assert any("O(log n) budget" in f for f in flags)

    def test_stalled_subtree(self):
        tree = chain_tree(
            span(0, 0.0),
            span(1, 1.0, src=0),
            span(2, 2.0, src=1),
            span(3, 3.0, src=2),
            span(4, 103.0, src=3),  # 100x the median hop
        )
        flags = tree.anomalies(n=5)
        assert any("stalled" in f and "node 4" in f for f in flags)


def run_started(n, key="k"):
    return Event(EventKind.RUN_STARTED, 0.0, HARNESS_NODE, payload={"n": n, "key": key})


class TestLineageIndex:
    def test_takes_defaults_from_run_started(self):
        index = LineageIndex.from_events([run_started(7, "k")])
        assert index.n == 7 and index.key == "k"

    def test_groups_spans_by_trace(self):
        cluster = Cluster(n=4, seed=0)
        sink = cluster.bus.add_sink(RingBufferSink())
        cluster.inject_update(0, "a", 1)
        cluster.inject_update(1, "b", 2)
        index = LineageIndex.from_events(sink.events)
        assert len(index.trees) == 2
        assert index.tree_for_key("a").root == 0
        assert index.tree_for_key("b").root == 1
        assert index.tree_for_key("missing") is None

    def test_sim_end_to_end_complete_tree(self):
        """Acceptance shape: an anti-entropy epidemic's tree contains
        every site exactly once as a first-delivery edge."""
        n = 16
        cluster = Cluster(n=n, seed=11)
        cluster.add_protocol(
            AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH_PULL))
        )
        sink = cluster.bus.add_sink(RingBufferSink())
        cluster.bus.emit(EventKind.RUN_STARTED, node=HARNESS_NODE, n=n, key="k")
        cluster.inject_update(0, "k", "v", track=True)
        metrics = cluster.metrics
        cluster.run_until(lambda: metrics.infected == n, max_cycles=60)

        index = LineageIndex.from_events(sink.events)
        tree = index.tree_for_key("k")
        assert tree.complete(n)
        assert tree.infected() == list(range(n))
        assert tree.root == 0
        assert not tree.duplicate_first
        # Every non-root edge has a measurable hop latency (in cycles).
        for node in range(1, n):
            assert tree.hop_latency(node) is not None
            assert tree.hop_latency(node) >= 0
        assert [trace for trace, _ in index.anomalies()] == []

    def test_analysis_is_deterministic(self):
        cluster = Cluster(n=8, seed=3)
        sink = cluster.bus.add_sink(RingBufferSink())
        cluster.bus.emit(EventKind.RUN_STARTED, node=HARNESS_NODE, n=8, key="k")
        cluster.add_protocol(
            AntiEntropyProtocol(config=AntiEntropyConfig(mode=ExchangeMode.PUSH))
        )
        cluster.inject_update(0, "k", "v")
        cluster.run_cycles(10)
        events = sink.events
        first = LineageIndex.from_events(events)
        second = LineageIndex.from_events(events)
        assert first.to_dict() == second.to_dict()
        assert render_analysis(first) == render_analysis(second)


class TestRender:
    def test_report_mentions_every_node_and_flags(self):
        index = LineageIndex.from_events([run_started(3)])
        tree = InfectionTree("k@1#0.0")
        for s in (span(0, 0.0), span(1, 1.0, src=0)):
            tree.add(s)
        index.trees["k@1#0.0"] = tree
        lines = render_analysis(index)
        text = "\n".join(lines)
        assert "trace k@1#0.0" in text
        assert "[INCOMPLETE]" in text
        assert "node 0: inject" in text
        assert "node 1: from 0" in text
        assert "incomplete tree: 2/3" in text

    def test_empty_trace_renders_a_hint(self):
        lines = render_analysis(LineageIndex())
        assert any("no delivery spans" in line for line in lines)
