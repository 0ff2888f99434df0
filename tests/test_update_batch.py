"""The columnar update batch: codec properties, then real sockets.

An update list crosses the wire as one object of columns
(``repro.core.serialize.encode_batch``), never as an array of nested
rows.  The codec half of this file holds the batch to the row form's
standard — lossless, type-preserving, strict; the socket half holds
that every update-carrying frame type is a batch from the first
conversation on, and that the trace context (the send time) survives
inside it, while a hop count is read off the infection tree.
"""

import asyncio
import copy
import dataclasses
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.items import DeathCertificate, VersionedValue
from repro.core.serialize import (
    SerializeError,
    batch_sent_at,
    decode_batch,
    decode_updates,
    encode_batch,
    encode_updates,
)
from repro.core.store import ReplicaStore, StoreUpdate
from repro.core.timestamps import Timestamp
from repro.net.binwire import pack_value, unpack_value
from repro.net.node import NodeConfig
from repro.net.peer import RetryPolicy
from repro.net.runner import LiveCluster
from repro.net.wire import (
    HEADER_BYTES,
    Message,
    MessageType,
    WireError,
    decode_body,
    encode_message,
    payload_update_list,
)
from repro.obs.events import EventKind, RingBufferSink
from repro.obs.lineage import LineageIndex
from repro.obs.spans import trace_id_of
from repro.protocols.base import ExchangeMode

from conftest import cluster, raw_round_trip

_keys = st.one_of(
    st.text(max_size=8),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.booleans(),
)
_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-(2**40), 2**40),
              st.floats(allow_nan=False), st.text(max_size=6)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
).filter(lambda value: value is not None)  # a null value is a deletion: a certificate
_times = st.one_of(st.integers(0, 10**6), st.floats(0, 1e9, allow_nan=False))
_stamps = st.builds(Timestamp, _times, st.integers(0, 50), st.integers(0, 10**6))


@st.composite
def _entries(draw):
    stamp = draw(_stamps)
    if draw(st.booleans()):
        return VersionedValue(draw(_values), stamp)
    later = draw(st.one_of(st.none(), _times))
    activation = stamp if later is None else stamp.advanced_to(max(stamp.time, later))
    return DeathCertificate(
        stamp, activation, tuple(draw(st.lists(st.integers(0, 40), max_size=4)))
    )


_updates = st.lists(st.builds(StoreUpdate, _keys, _entries()), max_size=20)


def _same_types(a: StoreUpdate, b: StoreUpdate) -> bool:
    stamps = [(a.entry.timestamp, b.entry.timestamp)]
    if a.entry.is_deletion:
        stamps.append((a.entry.activation_timestamp, b.entry.activation_timestamp))
    return type(a.key) is type(b.key) and all(
        type(x.time) is type(y.time) for x, y in stamps
    )


class TestBatchCodec:
    @settings(max_examples=150, deadline=None)
    @given(updates=_updates)
    def test_round_trip_through_both_frame_codecs(self, updates):
        batch = encode_batch(updates)
        for wire in (json.loads(json.dumps(batch)), unpack_value(pack_value(batch))):
            decoded = decode_batch(wire)
            assert decoded == updates
            # 1 == 1.0 == True in Python: equality alone would let an
            # int time come back a float and change repr() — and with it
            # the entry's checksum encoding.
            assert all(map(_same_types, decoded, updates))
            assert [u.entry.encode() for u in decoded] == [
                u.entry.encode() for u in updates
            ]

    @settings(max_examples=60, deadline=None)
    @given(updates=_updates)
    def test_row_form_and_batch_decode_to_the_same_updates(self, updates):
        rows = json.loads(json.dumps(encode_updates(updates)))
        batch = json.loads(json.dumps(encode_batch(updates)))
        assert decode_batch(batch) == decode_updates(rows)

    @settings(max_examples=40, deadline=None)
    @given(updates=_updates, seed=st.integers(0, 99))
    def test_checksums_agree_after_a_batch_transfer(self, updates, seed):
        """Entries that crossed the wire as a batch fold into the same
        checksum as the originals, whatever order they arrive in."""
        sender, receiver = ReplicaStore(site_id=0), ReplicaStore(site_id=1)
        for update in updates:
            sender.apply_entry(update.key, update.entry)
        shipped = list(decode_batch(unpack_value(pack_value(encode_batch(list(sender.updates()))))))
        random.Random(seed).shuffle(shipped)
        for update in shipped:
            receiver.apply_entry(update.key, update.entry)
        assert receiver.checksum == sender.checksum
        assert receiver.agrees_with(sender)

    def test_shape(self):
        cert = DeathCertificate(Timestamp(2, 1, 0), Timestamp(9.5, 1, 0), (3, 4))
        batch = encode_batch(
            [StoreUpdate("a", VersionedValue("v", Timestamp(1.5, 0, 7))),
             StoreUpdate(5, cert)],
            sent_at=12.25,
        )
        assert batch == {
            "n": 2,
            "keys": ["a", 5],
            "values": ["v", None],
            "times": [1.5, 2],
            "sites": [0, 1],
            "seqs": [7, 0],
            "certs": [[1, 9.5, 1, 0, [3, 4]]],
            "sent_at": 12.25,
        }
        assert "hops" not in encode_batch([]) and "sent_at" not in encode_batch([])
        assert decode_batch(encode_batch([])) == []


def _good_batch():
    return encode_batch(
        [StoreUpdate("a", VersionedValue(1, Timestamp(1.0, 0, 0))),
         StoreUpdate("b", DeathCertificate(Timestamp(2.0, 1, 1), Timestamp(3.0, 1, 1), (2,))),
         StoreUpdate("c", VersionedValue(3, Timestamp(4, 2, 2)))],
        sent_at=5.0,
    )


def _mutated(mutate):
    batch = copy.deepcopy(_good_batch())
    mutate(batch)
    return batch


MALFORMED = {
    "missing n": lambda b: b.pop("n"),
    "n is a bool": lambda b: b.update(n=True),
    "n is negative": lambda b: b.update(n=-3),
    "n disagrees with the columns": lambda b: b.update(n=2),
    "missing column": lambda b: b.pop("sites"),
    "column is not an array": lambda b: b.update(keys="abc"),
    "ragged column": lambda b: b["seqs"].pop(),
    "null key": lambda b: b["keys"].__setitem__(1, None),
    "string time": lambda b: b["times"].__setitem__(0, "soon"),
    "bool time": lambda b: b["times"].__setitem__(0, True),
    "float site": lambda b: b["sites"].__setitem__(2, 1.5),
    "bool seq": lambda b: b["seqs"].__setitem__(2, False),
    "missing certs": lambda b: b.pop("certs"),
    "certs is not an array": lambda b: b.update(certs={"1": []}),
    "certificate row too short": lambda b: b["certs"][0].pop(),
    "certificate row is not an array": lambda b: b["certs"].__setitem__(0, "row"),
    "certificate index out of range": lambda b: b["certs"][0].__setitem__(0, 3),
    "certificate index negative": lambda b: b["certs"][0].__setitem__(0, -1),
    "certificate index is a bool": lambda b: b["certs"][0].__setitem__(0, True),
    "activation time ill-typed": lambda b: b["certs"][0].__setitem__(1, None),
    "activation site ill-typed": lambda b: b["certs"][0].__setitem__(2, "one"),
    "activation before timestamp": lambda b: b["certs"][0].__setitem__(1, 1.0),
    "retention is not a list": lambda b: b["certs"][0].__setitem__(4, 7),
    "retention holds a non-site": lambda b: b["certs"][0].__setitem__(4, ["site-3"]),
    "null value and no certificate": lambda b: b["values"].__setitem__(2, None),
}


class TestStrictDecoding:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_batch_raises(self, case):
        batch = _mutated(MALFORMED[case])
        with pytest.raises(SerializeError):
            decode_batch(batch)
        # ... which the transport sees as its one "peer sent garbage" type.
        with pytest.raises(WireError, match="updates"):
            payload_update_list({"updates": batch})

    def test_only_an_object_is_a_batch(self):
        assert [u.key for u in decode_batch(_good_batch())] == ["a", "b", "c"]
        for blob in ([_good_batch()], "batch", None, 7):
            with pytest.raises(SerializeError):
                decode_batch(blob)

    @pytest.mark.parametrize(
        "hops",
        [[1, 2, 3], [1, None, 3], [1, -2, True], ["x", 2.0, 0], [1, 2], "zip", None],
        ids=["hops", "unknown", "bad", "junk", "ragged", "string", "null"],
    )
    def test_an_older_senders_hops_column_is_ignored(self, hops):
        """Senders once shipped a ``hops`` column; well formed or not,
        it is neither data nor context: the batch decodes as if it were
        absent and never poisons the data."""
        batch = _mutated(lambda b: b.update(hops=hops))
        assert batch_sent_at(batch) == 5.0
        assert payload_update_list({"updates": batch}) == (decode_batch(_good_batch()), 5.0)

    @pytest.mark.parametrize("sent_at", ["soon", True, None, [1.0]])
    def test_malformed_sent_at_degrades_to_none(self, sent_at):
        batch = _mutated(lambda b: b.update(sent_at=sent_at))
        assert batch_sent_at(batch) is None
        assert len(decode_batch(batch)) == 3


def _captured_frames(node):
    """Record every message ``node`` sends from here on, as
    ``(direction, message)``."""
    frames = []
    original_call, original_dispatch = node._call, node._dispatch

    async def call(peer, message):
        frames.append(("request", message))
        return await original_call(peer, message)

    def dispatch(message):
        reply = original_dispatch(message)
        if reply is not None:
            frames.append(("reply", reply))
        return reply

    node._call, node._dispatch = call, dispatch
    return frames


class TestNegotiatedShape:
    """Nothing is negotiated: the shape is the batch, for everyone."""

    def test_untraced_means_no_context_in_the_batch(self):
        """A pull-only offer is a digest the partner never applies: no
        ``sent_at`` goes along, and the caller's fields are not touched
        either way."""

        async def scenario():
            async with cluster(2) as (a, b):
                update = a.inject("k", "v")
                fields = {"mode": "pull", "updates": [update]}
                traced = a._update_payload(fields, now=5.0)
                untraced = a._update_payload(fields, now=5.0, traced=False)
                assert fields == {"mode": "pull", "updates": [update]}
                return traced, untraced, encode_batch([update])

        traced, untraced, bare = asyncio.run(scenario())
        assert traced == {"mode": "pull", "updates": {**bare, "sent_at": 5.0}}
        assert untraced == {"mode": "pull", "updates": bare}

    def test_every_update_frame_is_a_batch_from_the_first(self):
        async def scenario():
            async with cluster(2, strategy="checksum") as (a, b):
                frames_a = _captured_frames(a)
                frames_b = _captured_frames(b)
                a.inject("from-a", 1)
                b.inject("from-b", 2)
                b.delete("gone")
                assert await a.run_anti_entropy_once()   # CHECKSUM both ways
                assert await b.run_rumor_once()          # RUMOR
                a.config = dataclasses.replace(a.config, strategy="full")
                a.inject("last", 4)
                assert await a.run_anti_entropy_once()   # PUSH / PULL_REPLY
                return frames_a + frames_b, a.store.agrees_with(b.store), len(a.store)

        frames, agrees, entries = asyncio.run(scenario())
        assert agrees and entries == 4
        carrying = set()
        for __, message in frames:
            assert message.version == 3
            if "updates" in message.payload:
                assert isinstance(message.payload["updates"], dict)
                carrying.add(message.type)
        assert carrying == {
            MessageType.PUSH, MessageType.PULL_REPLY,
            MessageType.CHECKSUM, MessageType.RUMOR,
        }

    def test_restarted_empty_node_catches_up_in_one_conversation(self):
        async def scenario():
            cluster_ = await LiveCluster.launch(2, _quiet_config())
            try:
                survivor = cluster_.nodes[0]
                source = ReplicaStore(site_id=7)
                for index in range(2000):
                    update = source.update(f"key-{index:05d}", f"value-{index}")
                    survivor.store.apply_entry(update.key, update.entry)
                for index in range(0, 2000, 97):
                    update = source.delete(f"key-{index:05d}", retention_sites=(0, 1))
                    survivor.store.apply_entry(update.key, update.entry)
                await cluster_.kill(1)
                node = await cluster_.restart(1)
                frames = _captured_frames(survivor)
                assert len(node.store) == 0
                ran = await node.run_anti_entropy_once()
                replies = [m for kind, m in frames if kind == "reply"]
                return (
                    ran, len(node.store), node.store.checksum == survivor.store.checksum,
                    node.store.agrees_with(survivor.store), node.stats.exchanges, replies,
                )
            finally:
                await cluster_.stop()

        ran, entries, same_checksum, agrees, exchanges, replies = asyncio.run(scenario())
        assert ran and exchanges == 1
        assert entries == 2000 and same_checksum and agrees
        (reply,) = replies
        assert reply.type is MessageType.PULL_REPLY and reply.version == 3
        assert reply.payload["updates"]["n"] == 2000
        assert len(reply.payload["updates"]["certs"]) == len(range(0, 2000, 97))
        # The whole point: five scalars per update on the wire, not a
        # nested object (the row form of this list is ~100 B/update).
        body = encode_message(reply)[HEADER_BYTES:]
        assert decode_body(body).payload == reply.payload
        assert len(body) < 50 * 2000


class TestTraceContextInBatches:
    def test_hops_and_send_time_survive(self):
        """Three hops down a chain of freshly started nodes: each
        delivery span carries its sender and the sender's clock, and the
        infection tree gives each node its hop count."""

        async def scenario():
            async with cluster(3) as (a, b, c):
                sink = a.bus.add_sink(RingBufferSink())
                b.bus.add_sink(sink)
                c.bus.add_sink(sink)
                update = a.inject("k", "v")
                trace = trace_id_of(update)
                for sender, receiver in ((a, b), (b, c)):
                    payload = sender._update_payload({"updates": [update]})
                    reply = await sender._call(
                        sender.peers[receiver.node_id],
                        Message(MessageType.RUMOR, sender.node_id, payload),
                    )
                    assert reply.payload == {"news": [True]}
                spans = [
                    e for e in sink.of_kind(EventKind.DELIVERY_SPAN)
                    if e.payload["trace"] == trace
                ]
                return spans, trace

        spans, trace = asyncio.run(scenario())
        assert [(e.node, e.payload["src"], e.payload["first"]) for e in spans] == [
            (0, None, True), (1, 0, True), (2, 1, True),
        ]
        tree = LineageIndex.from_events(spans).trees[trace]
        assert [tree.depth_of(node) for node in (0, 1, 2)] == [0, 1, 2]
        for event in spans[1:]:
            assert event.payload["sent_at"] is not None
            assert 0.0 <= event.time - event.payload["sent_at"] < 5.0

    def test_duplicate_key_batch_attributes_hops_per_version(self):
        """The duplicate-key PUSH regression over a real socket: two
        versions of one key in one frame each get a span in their own
        trace, so each tree gives its own hop.  The frame is one an
        older sender wrote, ``hops`` column included: it is ignored."""

        async def scenario():
            async with cluster(2) as (a, b):
                u1 = a.store.update("k", 1)
                u2 = a.store.update("k", 2)
                sink = b.bus.add_sink(RingBufferSink())
                payload = {
                    "mode": ExchangeMode.PUSH.value,
                    "updates": {**encode_batch([u1, u2], sent_at=1.0), "hops": [5, 0]},
                }
                __, reply = await raw_round_trip(
                    b.membership.get(b.node_id).port,
                    Message(MessageType.PUSH, sender=0, payload=payload),
                )
                assert reply.payload == {"applied": 2}
                return trace_id_of(u1), trace_id_of(u2), sink.events

        t1, t2, events = asyncio.run(scenario())
        trees = LineageIndex.from_events(events).trees
        assert sorted(trees) == sorted([t1, t2])
        for trace in (t1, t2):
            (span,) = trees[trace].spans
            assert (span.node, span.src, span.sent_at) == (1, 0, 1.0)
            # The sender's injection was never traced: an orphan edge.
            assert trees[trace].depth_of(1) is None

    def test_cold_bulk_transfer_formats_no_trace_ids(self, monkeypatch):
        """No sink listening: neither side builds a trace id or a span
        context per update."""
        calls = []

        async def scenario():
            async with cluster(2) as (a, b):
                for index in range(100):
                    a.store.update(f"key-{index}", index)
                import repro.obs.spans as spans_module

                real = spans_module.trace_id_of
                monkeypatch.setattr(
                    spans_module, "trace_id_of",
                    lambda update: calls.append(update) or real(update),
                )
                assert await b.run_anti_entropy_once()
                return len(b.store)

        assert asyncio.run(scenario()) == 100
        assert calls == []


def _quiet_config(**overrides):
    return NodeConfig(
        anti_entropy_interval=3600.0,
        rumor_interval=3600.0,
        retry=RetryPolicy(connect_timeout=0.5, io_timeout=5.0, attempts=2),
        **overrides,
    )

