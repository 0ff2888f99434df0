"""Wire version negotiation and trace-context interop.

Covers the three layers of the v2 trace-context field: the codec
(``version``/``max_version`` stamping and lenient span decoding), a
hand-rolled v1 peer talking to a live node over a real socket (old
peers must see pure v1 frames, never ``spans``), and the end-to-end
acceptance criterion — a live 3-node trace reconstructs a complete
infection tree whose numbers match the convergence report.
"""

import asyncio
import json
import struct

import pytest

from repro.net.node import NodeConfig
from repro.net.peer import RetryPolicy
from repro.net.runner import LiveCluster, live_demo
from repro.net.wire import (
    BASE_VERSION,
    HEADER_BYTES,
    PROTOCOL_VERSION,
    TRACE_WIRE_VERSION,
    Message,
    MessageType,
    decode_body,
    encode_message,
    negotiated_version,
    payload_span_contexts,
)
from repro.obs.convergence import ConvergenceTracker
from repro.obs.events import EventKind, RingBufferSink, read_trace
from repro.obs.lineage import LineageIndex, render_analysis
from repro.obs.spans import SPAN_FIELDS, SpanContext

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
        assert message.version == BASE_VERSION == 1
        assert message.max_version == PROTOCOL_VERSION == 4
        assert TRACE_WIRE_VERSION == 2

    def test_encode_writes_both_version_fields(self):
        body = json.loads(encode_message(Message(MessageType.ACK, 0))[HEADER_BYTES:])
        assert body["v"] == 1
        assert body["max"] == PROTOCOL_VERSION

    def test_v1_frame_without_max_decodes_as_a_v1_peer(self):
        body = json.dumps(
            {"v": 1, "type": "ack", "sender": 0, "payload": {}}
        ).encode()
        message = decode_body(body)
        assert message.version == 1
        assert message.max_version == 1
        assert negotiated_version(message) == 1

    def test_max_advert_negotiates_up(self):
        body = json.dumps(
            {"v": 1, "max": 2, "type": "ack", "sender": 0, "payload": {}}
        ).encode()
        message = decode_body(body)
        assert message.max_version == 2
        assert negotiated_version(message) == 2
        # ... but never above our own ceiling.
        assert negotiated_version(message, ours=1) == 1

    @pytest.mark.parametrize("bad_max", ["two", True, 1.5])
    def test_garbage_max_degrades_to_the_stamped_version(self, bad_max):
        body = json.dumps(
            {"v": 1, "max": bad_max, "type": "ack", "sender": 0, "payload": {}}
        ).encode()
        assert decode_body(body).max_version == 1

    def test_max_is_clamped_to_at_least_the_stamped_version(self):
        body = json.dumps(
            {"v": 2, "max": 1, "type": "ack", "sender": 0, "payload": {}}
        ).encode()
        assert decode_body(body).max_version == 2


class TestPayloadSpanContexts:
    def test_absent_field_means_a_v1_peer(self):
        assert payload_span_contexts({}, 3) == [None, None, None]

    def test_wrong_length_is_discarded_wholesale(self):
        payload = {"spans": [{"trace": "t"}]}
        assert payload_span_contexts(payload, 2) == [None, None]

    def test_non_list_is_discarded(self):
        assert payload_span_contexts({"spans": "zip"}, 1) == [None]

    def test_mixed_good_and_bad_items(self):
        payload = {"spans": [{"trace": "t", "hop": 1, "sent_at": 2.0}, "junk"]}
        assert payload_span_contexts(payload, 2) == [
            SpanContext(trace="t", hop=1, sent_at=2.0),
            None,
        ]


async def raw_call(host, port, body: dict) -> dict:
    """Speak the wire by hand — what a from-source v1 build would send."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        blob = json.dumps(body).encode()
        writer.write(struct.pack(">I", len(blob)) + blob)
        await writer.drain()
        (length,) = struct.unpack(">I", await reader.readexactly(HEADER_BYTES))
        return json.loads(await reader.readexactly(length))
    finally:
        writer.close()


class TestOldPeerInterop:
    def test_v1_peer_gets_v1_frames_and_no_spans(self):
        """A strict v1 peer (no ``max`` key) pulls real data and sees a
        pure v1 reply with no trace contexts attached."""

        async def scenario():
            cluster = await LiveCluster.launch(2, FAST)
            try:
                await cluster.inject(0, KEY, "10.0.7.12")
                info = cluster.membership.get(0)
                v1 = await raw_call(
                    info.host,
                    info.port,
                    {
                        "v": 1,
                        "type": "pull-request",
                        "sender": 99,
                        "payload": {"mode": "pull"},
                    },
                )
                v2 = await raw_call(
                    info.host,
                    info.port,
                    {
                        "v": 1,
                        "max": 2,
                        "type": "pull-request",
                        "sender": 98,
                        "payload": {"mode": "pull"},
                    },
                )
            finally:
                await cluster.stop()
            return v1, v2

        v1, v2 = asyncio.run(scenario())
        assert v1["type"] == "pull-reply"
        assert v1["v"] == 1
        assert len(v1["payload"]["updates"]) == 1
        assert "spans" not in v1["payload"]

        # The same exchange with a v2 advert upgrades the reply.
        assert v2["type"] == "pull-reply"
        assert v2["v"] == 2
        assert len(v2["payload"]["updates"]) == 1
        spans = v2["payload"]["spans"]
        assert len(spans) == 1
        assert spans[0]["trace"].startswith(f"{KEY}@")
        assert spans[0]["hop"] == 0  # node 0 is the injection origin

    def test_peers_upgrade_each_other_to_the_ceiling(self):
        async def scenario():
            sink = RingBufferSink()
            cluster = await LiveCluster.launch(3, FAST)
            cluster.bus.add_sink(sink)
            try:
                await cluster.inject(0, KEY, "x")
                await cluster.wait_converged(KEY, timeout=BOUND_SECONDS)
                versions = {
                    node_id: dict(node._peer_versions)
                    for node_id, node in cluster.nodes.items()
                }
            finally:
                await cluster.stop()
            return sink, versions

        sink, versions = asyncio.run(scenario())
        for node_id, peers in versions.items():
            assert peers, f"node {node_id} never heard from a peer"
            assert all(v == PROTOCOL_VERSION for v in peers.values())
        spans = sink.of_kind(EventKind.DELIVERY_SPAN)
        deliveries = [e for e in spans if e.payload["src"] is not None]
        assert deliveries
        # Once negotiated, trace contexts ride the wire: at least some
        # deliveries carry the sender's clock.
        assert any(e.payload["sent_at"] is not None for e in deliveries)


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
            assert tree.depth_of(node) is not None

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
