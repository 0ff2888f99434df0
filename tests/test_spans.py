"""Delivery spans: trace ids, wire contexts, and the sim's span stream."""

import json

import pytest

from repro.cluster.cluster import Cluster
from repro.core.items import VersionedValue
from repro.core.serialize import batch_sent_at, decode_batch, encode_batch
from repro.core.store import ReplicaStore, StoreUpdate
from repro.core.timestamps import Timestamp
from repro.obs import spans
from repro.obs.events import (
    Event,
    EventKind,
    JsonlTraceWriter,
    RingBufferSink,
    read_trace,
)
from repro.obs.lineage import LineageIndex
from repro.obs.spans import SPAN_FIELDS, SpanContext, span_of_event, trace_id_of
from repro.protocols.direct_mail import DirectMailProtocol
from repro.protocols.rumor import RumorConfig, RumorMongeringProtocol


def update_of(key="k", time=3.5, site=2, sequence=7) -> StoreUpdate:
    return StoreUpdate(key, VersionedValue("v", Timestamp(time, site, sequence)))


class TestTraceId:
    def test_derived_from_origin_timestamp(self):
        assert trace_id_of(update_of()) == "k@3.5#2.7"

    def test_same_update_same_id_everywhere(self):
        """Two replicas holding the same update derive the same trace id
        with no coordination — the id is the origin identity."""
        origin = ReplicaStore(site_id=4)
        update = origin.update("printer", "x")
        replica = ReplicaStore(site_id=9)
        replica.apply_update(update)
        (key, entry), = replica.entries()
        assert trace_id_of(StoreUpdate(key, entry)) == trace_id_of(update)

    def test_superseding_write_is_a_new_trace(self):
        store = ReplicaStore(site_id=0)
        first = store.update("k", "v1")
        second = store.update("k", "v2")
        assert trace_id_of(first) != trace_id_of(second)


def batch_on_the_wire(**context) -> dict:
    """A one-update batch as a receiver sees it, through real JSON."""
    return json.loads(json.dumps(encode_batch([update_of()], **context)))


class TestSpanContext:
    """The trace context an update carries across the live wire: the
    batch's ``sent_at``, read leniently — a bad annotation is an absent
    one, never an error.  A hop count never crosses the wire; an older
    sender's ``hops`` column, whatever it holds, is ignored."""

    def test_wire_round_trip(self):
        assert batch_sent_at(batch_on_the_wire(sent_at=12.5)) == 12.5
        # The per-update record names the sender's clock too.
        assert SpanContext("k@1#0.0", hop=3, sent_at=12.5).to_wire() == {
            "trace": "k@1#0.0", "hop": 3, "sent_at": 12.5,
        }

    def test_optional_fields_round_trip_as_none(self):
        batch = batch_on_the_wire()
        assert "sent_at" not in batch and "hops" not in batch
        assert batch_sent_at(batch) is None
        assert SpanContext(trace="k@1#0.0").to_wire() == {
            "trace": "k@1#0.0", "hop": None, "sent_at": None,
        }

    @pytest.mark.parametrize(
        "blob",
        [None, 17, "ctx", [], {}, {"trace": ""}, {"trace": 5}, {"hop": 1}],
    )
    def test_malformed_blob_decodes_to_none(self, blob):
        """Whatever shape an older sender's ``hops`` column has, the
        batch decodes as if it were absent."""
        batch = {**batch_on_the_wire(sent_at=1.0), "hops": blob}
        assert list(decode_batch(batch)) == [update_of()]
        assert batch_sent_at(batch) == 1.0

    @pytest.mark.parametrize("hop", ["2", -1, True, 1.5, None])
    def test_bad_hop_degrades_to_none(self, hop):
        batch = {**batch_on_the_wire(sent_at=1.0), "hops": [hop]}
        assert list(decode_batch(batch)) == [update_of()]
        assert batch_sent_at(batch) == 1.0

    @pytest.mark.parametrize("sent_at", ["soon", True, None])
    def test_bad_sent_at_degrades_to_none(self, sent_at):
        batch = {**batch_on_the_wire(), "sent_at": sent_at}
        assert batch_sent_at(batch) is None


def spans_of(sink):
    return [span_of_event(e) for e in sink.of_kind(EventKind.DELIVERY_SPAN)]


class TestSimulatorSpans:
    def test_injection_emits_the_root_span(self):
        cluster = Cluster(n=4, seed=0)
        sink = cluster.bus.add_sink(RingBufferSink())
        update = cluster.inject_update(0, "k", "v")
        (span,) = spans_of(sink)
        assert span.trace == trace_id_of(update)
        assert span.node == 0
        assert span.src is None
        assert span.first is True
        assert span.sent_at is None  # sim spans never carry a send clock

    def test_first_deliveries_carry_source_and_hop(self):
        cluster = Cluster(n=6, seed=1)
        cluster.add_protocol(DirectMailProtocol())
        sink = cluster.bus.add_sink(RingBufferSink())
        cluster.inject_update(0, "k", "v")
        cluster.run_cycle()
        deliveries = [s for s in spans_of(sink) if s.src is not None]
        assert {s.node for s in deliveries} == {1, 2, 3, 4, 5}
        assert all(s.src == 0 and s.first for s in deliveries)
        # The hop count is the node's depth in the infection tree.
        tree = LineageIndex.from_events(sink.events).tree_for_key("k")
        assert [tree.depth_of(node) for node in range(6)] == [0, 1, 1, 1, 1, 1]

    def test_redundant_targeted_delivery_is_a_non_first_span(self):
        """A rumor pushed at a site that already knows it shows up as a
        first=False span attributed to the delivering link."""
        cluster = Cluster(n=2, seed=2)
        rumor = RumorMongeringProtocol(RumorConfig(k=8))
        cluster.add_protocol(rumor)
        sink = cluster.bus.add_sink(RingBufferSink())
        cluster.inject_update(0, "k", "v")
        # With 2 sites the only partner already knows after cycle 1.
        cluster.run_cycles(3)
        redundant = [s for s in spans_of(sink) if not s.first]
        assert redundant, "no redundant deliveries in 3 cycles of n=2 rumor"
        assert all(s.src is not None for s in redundant)
        assert all(s.result in ("equal", "stale") for s in redundant)

    def test_span_payload_schema_is_canonical(self):
        cluster = Cluster(n=3, seed=3)
        cluster.add_protocol(DirectMailProtocol())
        sink = cluster.bus.add_sink(RingBufferSink())
        cluster.inject_update(0, "k", "v")
        cluster.run_cycle()
        events = sink.of_kind(EventKind.DELIVERY_SPAN)
        assert events
        for event in events:
            assert tuple(event.payload) == SPAN_FIELDS

    def test_silent_bus_skips_hop_bookkeeping(self, monkeypatch):
        """With no sink attached the cluster formats no trace id at all."""
        formatted = []
        monkeypatch.setattr(spans, "trace_id_of", formatted.append)
        cluster = Cluster(n=4, seed=4)
        cluster.add_protocol(DirectMailProtocol())
        cluster.inject_update(0, "k", "v")
        cluster.run_cycle()
        assert cluster.sites[3].store.entry("k") is not None
        assert formatted == []


class TestJsonlWriterFlushing:
    def events(self, cluster, count):
        for i in range(count):
            cluster.inject_update(0, f"k{i}", i)

    def test_flush_every_bounds_tail_loss(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path, flush_every=2)
        cluster = Cluster(n=2, seed=0)
        cluster.bus.add_sink(writer)
        self.events(cluster, 5)  # 10 events: injected + span each
        # Without closing, every complete flush block is on disk.
        lines = [l for l in path.read_text().splitlines() if l]
        assert len(lines) >= 10 - 1
        writer.close()
        assert len(list(read_trace(path))) == 10

    def test_flush_every_zero_defers_to_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        writer = JsonlTraceWriter(path, flush_every=0)
        cluster = Cluster(n=2, seed=0)
        cluster.bus.add_sink(writer)
        self.events(cluster, 3)
        writer.close()
        assert len(list(read_trace(path))) == 6

    def test_context_manager_closes(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with JsonlTraceWriter(path, flush_every=0) as writer:
            cluster = Cluster(n=2, seed=0)
            cluster.bus.add_sink(writer)
            self.events(cluster, 2)
        assert writer._handle.closed
        assert len(list(read_trace(path))) == 4

    def test_negative_flush_every_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            JsonlTraceWriter(tmp_path / "t.jsonl", flush_every=-1)


class TestSpanParsing:
    def test_other_kinds_parse_to_none(self):
        assert span_of_event(Event(EventKind.NEWS_RECEIVED, 0.0, 0)) is None

    def test_malformed_span_payload_parses_to_none(self):
        event = Event(EventKind.DELIVERY_SPAN, 0.0, 0, payload={"key": "k"})
        assert span_of_event(event) is None

    def test_an_old_span_with_a_hop_still_parses(self):
        """Traces written while spans carried a wire hop count still
        read; the hop is ignored (depth comes from the tree)."""
        blob = {
            "seq": 4, "t": 2.5, "kind": "delivery-span", "node": 3,
            "payload": {"key": "k", "trace": "k@1#0.0", "src": 1, "hop": 2,
                        "first": True, "sent_at": 2.25, "result": "applied"},
        }
        span = span_of_event(Event.from_dict(json.loads(json.dumps(blob))))
        assert (span.node, span.time, span.trace, span.src, span.first) == (
            3, 2.5, "k@1#0.0", 1, True,
        )
        assert (span.sent_at, span.result, span.seq) == (2.25, "applied", 4)
        assert not hasattr(span, "hop")
