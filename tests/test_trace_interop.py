"""The version header and the trace context, codec to live trace.

The header codec (``v``/``max`` stamping, lenient ``max`` decoding),
the lenient reading of a batch's trace context at the wire reader, and
the end-to-end acceptance criterion — a live 3-node trace reconstructs
a complete infection tree, send times present from the first frame and
every depth read off the tree, whose numbers match the convergence
report.
"""

import asyncio
import dataclasses
import json

import pytest

from repro.core.serialize import encode_batch
from repro.core.store import ReplicaStore
from repro.net.node import NodeConfig
from repro.net.peer import RetryPolicy
from repro.net.runner import live_demo
from repro.net.wire import (
    HEADER_BYTES,
    PROTOCOL_VERSION,
    Message,
    MessageType,
    decode_body,
    encode_message,
    payload_update_list,
)
from repro.obs.convergence import ConvergenceTracker
from repro.obs.events import EventKind, RingBufferSink, read_trace
from repro.obs.lineage import LineageIndex, render_analysis
from repro.obs.spans import SPAN_FIELDS

FAST = NodeConfig(
    anti_entropy_interval=0.05,
    rumor_interval=0.02,
    retry=RetryPolicy(connect_timeout=1.0, io_timeout=2.0, attempts=2),
)

BOUND_SECONDS = 15.0
KEY = "printer:bldg-35"


class TestVersionCodec:
    def test_defaults_advertise_the_ceiling(self):
        message = Message(MessageType.PUSH, sender=0)
        assert message.version == message.max_version == PROTOCOL_VERSION == 3

    def test_encode_writes_both_version_fields(self):
        body = json.loads(encode_message(Message(MessageType.ACK, 0))[HEADER_BYTES:])
        assert body["v"] == body["max"] == PROTOCOL_VERSION

    def test_max_is_read_and_defaults_to_the_stamped_version(self):
        frame = {"v": 3, "type": "ack", "sender": 0, "payload": {}}
        assert decode_body(json.dumps(frame).encode()).max_version == 3
        assert decode_body(json.dumps({**frame, "max": 4}).encode()).max_version == 4

    @pytest.mark.parametrize("bad_max", ["two", True, 1.5])
    def test_garbage_max_degrades_to_the_stamped_version(self, bad_max):
        body = json.dumps(
            {"v": 3, "max": bad_max, "type": "ack", "sender": 0, "payload": {}}
        ).encode()
        assert decode_body(body).max_version == 3

    def test_max_is_clamped_to_at_least_the_stamped_version(self):
        body = json.dumps(
            {"v": 3, "max": 1, "type": "ack", "sender": 0, "payload": {}}
        ).encode()
        assert decode_body(body).max_version == 3


class TestPayloadSpanContexts:
    """Trace context is observability, not data.  An older sender's
    ``hops`` column is ignored at the wire reader, whatever it holds:
    the updates beside it decode and the send time is read."""

    @staticmethod
    def read(hops):
        store = ReplicaStore(site_id=0)
        updates = [store.update("a", 1), store.update("b", 2)]
        batch = json.loads(json.dumps(encode_batch(updates, sent_at=2.0)))
        assert payload_update_list({"updates": {**batch, "hops": hops}}) == (updates, 2.0)

    def test_wrong_length_is_discarded_wholesale(self):
        self.read([1])

    def test_non_list_is_discarded(self):
        self.read("zip")

    def test_mixed_good_and_bad_items(self):
        self.read([1, "junk"])
        self.read([0, 1])


class TestLiveRoundTrip:
    def test_trace_reconstructs_the_complete_infection_tree(self, tmp_path):
        """The PR's acceptance criterion, end to end: a live 3-node
        trace yields a complete tree (every node exactly once as a
        first-delivery edge) with per-hop latency, the analysis is
        deterministic, and its times equal the live report's."""
        trace = tmp_path / "run.jsonl"
        report = asyncio.run(
            live_demo(nodes=3, config=FAST, timeout=BOUND_SECONDS, trace_file=str(trace))
        )
        assert report.converged

        events = list(read_trace(trace))
        index = LineageIndex.from_events(events)
        assert index.n == 3 and index.key == KEY
        tree = index.tree_for_key(KEY)
        assert tree is not None
        assert tree.complete(3)
        assert tree.infected() == [0, 1, 2]
        assert not tree.duplicate_first
        assert tree.root == 0
        for node in (1, 2):
            latency = tree.hop_latency(node)
            assert latency is not None and latency >= 0.0
            assert tree.depth_of(node) in (1, 2)
        # Nothing is negotiated first: every delivery a peer made, the
        # first frame's included, carries the sender's clock.
        deliveries = [
            e.payload for e in events
            if e.kind is EventKind.DELIVERY_SPAN and e.payload["src"] is not None
        ]
        assert deliveries
        assert all(d["sent_at"] is not None for d in deliveries)

        # Span first-delivery times are the same timestamps the
        # convergence report was computed from — replay equals live.
        replayed = ConvergenceTracker.from_events(iter(events))
        injected_at = tree.first_delivery[0].time
        for node in (1, 2):
            assert tree.first_delivery[node].time - injected_at == replayed.delay_of(
                node
            )

        # Pure function of the trace: analyzing twice is identical.
        again = LineageIndex.from_events(read_trace(trace))
        assert again.to_dict() == index.to_dict()
        assert render_analysis(again) == render_analysis(index)

    @pytest.mark.parametrize("churn", [False, True], ids=["steady", "churn"])
    @pytest.mark.parametrize("strategy", ["full", "hierarchical"])
    def test_every_infected_node_has_a_depth(self, tmp_path, strategy, churn):
        """No span carries a hop: over real sockets the tree walk must
        place every node of the one traced update, a node restarted
        empty under churn included."""
        trace = tmp_path / "run.jsonl"
        report = asyncio.run(
            live_demo(
                nodes=8,
                config=dataclasses.replace(FAST, strategy=strategy),
                churn=churn,
                timeout=BOUND_SECONDS,
                trace_file=str(trace),
            )
        )
        assert report.converged
        (tree,) = LineageIndex.from_events(read_trace(trace)).trees.values()
        assert tree.infected() == list(range(8))
        depths = [tree.depth_of(node) for node in range(8)]
        assert depths[0] == 0
        assert all(type(depth) is int and depth > 0 for depth in depths[1:]), depths

    def test_sim_and_live_emit_the_same_span_schema(self, tmp_path):
        from repro.cluster.cluster import Cluster
        from repro.protocols.direct_mail import DirectMailProtocol

        trace = tmp_path / "run.jsonl"
        asyncio.run(
            live_demo(nodes=3, config=FAST, timeout=BOUND_SECONDS, trace_file=str(trace))
        )
        live_spans = [
            e for e in read_trace(trace) if e.kind is EventKind.DELIVERY_SPAN
        ]
        assert live_spans

        cluster = Cluster(n=3, seed=0)
        cluster.add_protocol(DirectMailProtocol())
        sink = cluster.bus.add_sink(RingBufferSink())
        cluster.inject_update(0, "k", "v")
        cluster.run_cycle()
        sim_spans = sink.of_kind(EventKind.DELIVERY_SPAN)
        assert sim_spans

        for event in live_spans + sim_spans:
            assert tuple(event.payload) == SPAN_FIELDS
