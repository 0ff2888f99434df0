"""Event bus: ordering, sinks, ring buffer, and JSONL round-trips."""

import pytest

from repro.obs.events import (
    HARNESS_NODE,
    Event,
    EventBus,
    EventKind,
    JsonlTraceWriter,
    RingBufferSink,
    TraceError,
    read_trace,
)


def make_bus(start: float = 0.0) -> EventBus:
    """A bus with a deterministic clock: 0, 1, 2, ..."""
    counter = iter(range(10_000))
    return EventBus(clock=lambda: float(next(counter)) + start)


class TestEventBus:
    def test_emit_without_sinks_is_a_no_op(self):
        bus = make_bus()
        assert not bus.has_sinks
        assert bus.emit(EventKind.UPDATE_INJECTED, node=1, key="k") is None

    def test_emit_delivers_to_every_sink(self):
        bus = make_bus()
        seen_a, seen_b = [], []
        bus.add_sink(seen_a.append)
        bus.add_sink(seen_b.append)
        event = bus.emit(EventKind.NEWS_RECEIVED, node=3, key="k")
        assert seen_a == [event] and seen_b == [event]
        assert event.node == 3
        assert event.payload == {"key": "k"}

    def test_seq_is_monotonic_and_totally_orders_events(self):
        bus = make_bus()
        sink = RingBufferSink()
        bus.add_sink(sink)
        for i in range(5):
            bus.emit(EventKind.CYCLE_COMPLETED, cycle=i)
        seqs = [event.seq for event in sink.events]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == 5

    def test_clock_stamps_events_unless_time_given(self):
        bus = make_bus(start=100.0)
        sink = RingBufferSink()
        bus.add_sink(sink)
        bus.emit(EventKind.RUMOR_HOT, node=0, key="k")
        bus.emit(EventKind.RUMOR_DEAD, node=0, time=42.5, key="k")
        stamped, explicit = sink.events
        assert stamped.time == 100.0
        assert explicit.time == 42.5

    def test_remove_sink_stops_delivery(self):
        bus = make_bus()
        seen = []
        bus.add_sink(seen.append)
        bus.remove_sink(seen.append)
        bus.emit(EventKind.CENSUS, cycle=1)
        assert seen == [] and not bus.has_sinks

    def test_failing_sink_does_not_starve_the_others(self):
        bus = make_bus()
        seen = []

        def bad(event):
            raise RuntimeError("boom")

        bus.add_sink(bad)
        bus.add_sink(seen.append)
        with pytest.raises(RuntimeError):
            bus.emit(EventKind.CHECKSUM_HIT, node=1, partner=2)
        assert len(seen) == 1  # the healthy sink still got the event

    def test_default_node_is_the_harness(self):
        bus = make_bus()
        sink = RingBufferSink()
        bus.add_sink(sink)
        bus.emit(EventKind.RUN_STARTED, n=8)
        assert sink.events[0].node == HARNESS_NODE


class TestRingBufferSink:
    def test_capacity_drops_oldest_and_counts_them(self):
        bus = make_bus()
        sink = RingBufferSink(capacity=3)
        bus.add_sink(sink)
        for i in range(5):
            bus.emit(EventKind.CYCLE_COMPLETED, cycle=i)
        assert sink.seen == 5
        assert sink.dropped == 2
        assert [e.payload["cycle"] for e in sink.events] == [2, 3, 4]

    def test_of_kind_filters(self):
        bus = make_bus()
        sink = RingBufferSink()
        bus.add_sink(sink)
        bus.emit(EventKind.RUMOR_HOT, node=0, key="a")
        bus.emit(EventKind.CENSUS, cycle=1)
        bus.emit(EventKind.RUMOR_HOT, node=1, key="b")
        hot = sink.of_kind(EventKind.RUMOR_HOT)
        assert [e.node for e in hot] == [0, 1]


class TestEventSerialization:
    def test_round_trip_preserves_everything(self):
        event = Event(
            kind=EventKind.EXCHANGE_SETTLED,
            time=12.5,
            node=3,
            seq=7,
            payload={"partner": 4, "shipped": 2, "received": 1},
        )
        assert Event.from_dict(event.to_dict()) == event

    def test_from_dict_rejects_unknown_kind(self):
        with pytest.raises(TraceError):
            Event.from_dict({"seq": 0, "t": 0.0, "kind": "nope", "node": 1})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(TraceError):
            Event.from_dict([1, 2, 3])


class TestJsonlTrace:
    def test_write_then_read_round_trips(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        bus = make_bus()
        with JsonlTraceWriter(path) as writer:
            bus.add_sink(writer)
            bus.emit(EventKind.RUN_STARTED, n=4, key="k")
            bus.emit(EventKind.UPDATE_INJECTED, node=0, key="k", deletion=False)
            bus.emit(EventKind.NEWS_RECEIVED, node=1, key="k")
            assert writer.written == 3
        replayed = list(read_trace(path))
        assert [e.kind for e in replayed] == [
            EventKind.RUN_STARTED,
            EventKind.UPDATE_INJECTED,
            EventKind.NEWS_RECEIVED,
        ]
        assert replayed[1].payload == {"key": "k", "deletion": False}
        assert [e.seq for e in replayed] == sorted(e.seq for e in replayed)

    def test_blank_lines_skipped_garbage_rejected(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = '{"seq": 0, "t": 1.0, "kind": "census", "node": -1, "payload": {}}'
        path.write_text(good + "\n\nnot json\n")
        with pytest.raises(TraceError) as error:
            list(read_trace(path))
        assert ":3:" in str(error.value)

    def test_a_bad_record_names_its_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        good = '{"seq": 0, "t": 1.0, "kind": "census", "node": -1, "payload": {}}'
        bogus = '{"seq":1,"t":0,"kind":"bogus","node":0,"payload":{}}'
        path.write_text(good + "\n" + bogus + "\n")
        with pytest.raises(TraceError) as error:
            list(read_trace(path))
        assert str(error.value) == f"{path}:2: unknown event kind 'bogus'"
