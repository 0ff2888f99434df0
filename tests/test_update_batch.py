"""The columnar update batch: codec properties, then real sockets.

v4 peers exchange an update list as one object of columns
(``repro.core.serialize.encode_batch``) instead of an array of nested
rows.  The codec half of this file holds the batch to the row form's
standard — lossless, type-preserving, strict; the socket half holds the
negotiation: batches only between peers that both advertised v4, the
row form byte for byte for everyone else, and the trace context (hops,
send time) surviving inside the batch.
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
    batch_trace_context,
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
from repro.net.runner import CLIENT_ID, LiveCluster
from repro.net.wire import (
    HEADER_BYTES,
    Message,
    MessageType,
    WireError,
    decode_body,
    encode_message,
    payload_update_list,
    payload_updates,
)
from repro.obs.events import EventKind, RingBufferSink
from repro.obs.spans import SpanContext, trace_id_of
from repro.protocols.base import ExchangeMode

from test_binwire_interop import cluster, pin_to_v3, raw_round_trip

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
)
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
        assert payload_updates({"updates": batch}) == payload_updates({"updates": rows})

    @settings(max_examples=40, deadline=None)
    @given(updates=_updates, seed=st.integers(0, 99))
    def test_checksums_agree_after_a_batch_transfer(self, updates, seed):
        """Entries that crossed the wire as a batch fold into the same
        checksum as the originals, whatever order they arrive in."""
        sender, receiver = ReplicaStore(site_id=0), ReplicaStore(site_id=1)
        for update in updates:
            sender.apply_entry(update.key, update.entry)
        shipped = decode_batch(unpack_value(pack_value(encode_batch(list(sender.updates())))))
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
            hops=[0, None],
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
            "hops": [0, None],
            "sent_at": 12.25,
        }
        assert "hops" not in encode_batch([]) and "sent_at" not in encode_batch([])
        assert decode_batch(encode_batch([])) == []


def _good_batch():
    return encode_batch(
        [StoreUpdate("a", VersionedValue(1, Timestamp(1.0, 0, 0))),
         StoreUpdate("b", DeathCertificate(Timestamp(2.0, 1, 1), Timestamp(3.0, 1, 1), (2,))),
         StoreUpdate("c", VersionedValue(3, Timestamp(4, 2, 2)))],
        hops=[1, 2, 3],
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
}


class TestStrictDecoding:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_malformed_batch_raises(self, case):
        batch = _mutated(MALFORMED[case])
        with pytest.raises(SerializeError):
            decode_batch(batch)
        # ... which the transport sees as its one "peer sent garbage" type.
        with pytest.raises(WireError, match="updates"):
            payload_updates({"updates": batch})

    def test_only_an_object_is_a_batch(self):
        assert [u.key for u in decode_batch(_good_batch())] == ["a", "b", "c"]
        for blob in ([_good_batch()], "batch", None, 7):
            with pytest.raises(SerializeError):
                decode_batch(blob)

    @pytest.mark.parametrize(
        "hops, expected",
        [
            ([1, 2, 3], [1, 2, 3]),
            ([1, None, 3], [1, None, 3]),
            ([1, -2, True], [1, None, None]),
            (["x", 2.0, 0], [None, None, 0]),
            ([1, 2], None),            # ragged: discarded wholesale
            ("zip", None),
            (None, None),
        ],
    )
    def test_malformed_hops_degrade_to_no_hop(self, hops, expected):
        batch = _mutated(lambda b: b.update(hops=hops))
        assert batch_trace_context(batch, 3) == (expected, 5.0)
        assert len(decode_batch(batch)) == 3  # never poisons the data

    @pytest.mark.parametrize("sent_at", ["soon", True, None, [1.0]])
    def test_malformed_sent_at_degrades_to_none(self, sent_at):
        batch = _mutated(lambda b: b.update(sent_at=sent_at))
        assert batch_trace_context(batch, 3) == ([1, 2, 3], None)

    def test_update_list_reader_reads_both_shapes_alike(self):
        updates = decode_batch(_good_batch())
        rows = {
            "updates": encode_updates(updates),
            "spans": [
                SpanContext(trace_id_of(u), hop=hop, sent_at=5.0).to_wire()
                for u, hop in zip(updates, (1, 2, 3))
            ],
        }
        assert payload_update_list(rows) == (updates, [1, 2, 3], 5.0)
        assert payload_update_list({"updates": _good_batch()}) == (updates, [1, 2, 3], 5.0)
        # No context at all — a v1 peer, or a batch of cold entries —
        # reads as "no hop known", not as a list of Nones.
        assert payload_update_list({"updates": rows["updates"]}) == (updates, None, None)
        assert payload_update_list({"updates": encode_batch(updates)}) == (updates, None, None)


def _captured_frames(node):
    """Record every frame ``node`` writes from here on, as
    ``(direction, wire version, message)``."""
    frames = []
    original_call, original_handle = node._call, node._handle

    async def call(peer, message):
        # Re-derive what _call puts on the wire: the version it stamps.
        version = max(node.wire_version(peer.node_id), message.version)
        frames.append(("request", version, message))
        return await original_call(peer, message)

    def handle(message):
        reply = original_handle(message)
        if reply is not None:
            frames.append(("reply", reply.version, reply))
        return reply

    node._call, node._handle = call, handle
    return frames


class TestNegotiatedShape:
    def test_rows_for_a_v3_peer_are_byte_identical_to_the_old_frames(self):
        """Below v4 nothing may change: same fields, same order, same
        bytes as ``encode_updates`` + ``SpanContext.to_wire`` inlined at
        the call site used to produce."""

        async def scenario():
            async with cluster(2) as (a, b):
                u1 = a.inject("k1", "v")
                u2 = a.delete("k2")
                cold = a.store.apply_entry  # an entry with no known hop
                cold("k3", VersionedValue(3, Timestamp(1.0, 9, 0)))
                u3 = StoreUpdate("k3", a.store.entry("k3"))
                built = a._update_payload(
                    {"mode": "push-pull", "updates": [u1, u2, u3],
                     "buckets": [4], "bits": 6},
                    3, now=77.5,
                )
                expected = {
                    "mode": "push-pull",
                    "updates": encode_updates([u1, u2, u3]),
                    "buckets": [4],
                    "bits": 6,
                    "spans": [
                        SpanContext(trace_id_of(u1), hop=0, sent_at=77.5).to_wire(),
                        SpanContext(trace_id_of(u2), hop=0, sent_at=77.5).to_wire(),
                        SpanContext(trace_id_of(u3), hop=None, sent_at=77.5).to_wire(),
                    ],
                }
                frames = [
                    encode_message(Message(MessageType.PUSH, 0, payload, version=3))
                    for payload in (built, expected)
                ]
                fields = {"updates": [u1]}
                plain = a._update_payload(fields, 1)
                untraced = a._update_payload(fields, 1, traced=False)
                assert fields == {"updates": [u1]}  # the argument is not touched
                return frames, plain, untraced, encode_updates([u1])

        frames, plain, untraced, rows = asyncio.run(scenario())
        assert frames[0] == frames[1]
        assert plain == untraced == {"updates": rows}

    def test_untraced_means_no_context_in_either_shape(self):
        """A pull-only offer is a digest the partner never applies: no
        ``spans`` below v4, and no ``hops``/``sent_at`` in a v4 batch —
        the flag means the same whichever shape the peer negotiated."""

        async def scenario():
            async with cluster(2) as (a, b):
                update = a.inject("k", "v")  # a known hop (0) to leave out
                payloads = {}
                for version in (3, 4):
                    for traced in (True, False):
                        payloads[version, traced] = a._update_payload(
                            {"updates": [update]}, version, now=5.0, traced=traced
                        )
                return payloads, encode_batch([update])

        payloads, bare = asyncio.run(scenario())
        assert "spans" in payloads[3, True] and "spans" not in payloads[3, False]
        assert payloads[4, True]["updates"] == {**bare, "hops": [0], "sent_at": 5.0}
        assert payloads[4, False] == {"updates": bare}

    def test_a_client_off_the_roster_is_answered_at_its_own_advert(self):
        """A reply is shaped by the advert in the frame it answers, so a
        client gets its negotiated shape without the node remembering
        it — and claiming ``max: 1`` from outside leaves nothing behind
        that would change what the node sends anyone."""

        async def scenario():
            async with cluster(2) as (node, other):
                node.inject("k", "v")
                port = node.membership.get(node.node_id).port
                replies = {}
                for advert in (4, 3, 1):
                    request = Message(
                        MessageType.PULL_REQUEST, CLIENT_ID,
                        {"mode": "pull", "updates": []},
                        version=1, max_version=advert,
                    )
                    __, replies[advert] = await raw_round_trip(port, request)
                return replies, dict(node._peer_versions)

        replies, remembered = asyncio.run(scenario())
        assert {advert: reply.version for advert, reply in replies.items()} == {
            4: 4, 3: 3, 1: 1,
        }
        assert isinstance(replies[4].payload["updates"], dict)
        assert isinstance(replies[3].payload["updates"], list)
        assert len(replies[3].payload["spans"]) == 1
        assert isinstance(replies[1].payload["updates"], list)
        assert "spans" not in replies[1].payload
        assert remembered == {}

    def test_v3_pinned_peer_only_ever_sees_rows(self):
        async def scenario():
            async with cluster(2) as (legacy, modern):
                pin_to_v3(legacy)
                frames = _captured_frames(modern)
                legacy.inject("from-legacy", 1)
                modern.inject("from-modern", 2)
                for __ in range(2):
                    assert await legacy.run_anti_entropy_once()
                    assert await modern.run_anti_entropy_once()
                    assert await modern.run_rumor_once()
                return frames, legacy.store.agrees_with(modern.store)

        frames, agrees = asyncio.run(scenario())
        assert agrees
        carrying = [m for __, __, m in frames if "updates" in m.payload]
        assert carrying
        for __, version, message in frames:
            assert version <= 3
            if "updates" in message.payload:
                assert isinstance(message.payload["updates"], list)

    def test_v4_nodes_converge_on_batches(self):
        async def scenario():
            async with cluster(2, strategy="checksum") as (a, b):
                frames_a = _captured_frames(a)
                frames_b = _captured_frames(b)
                a.inject("from-a", 1)
                b.inject("from-b", 2)
                b.delete("gone")
                assert await a.run_anti_entropy_once()   # negotiates on rows
                a.inject("later", 3)
                assert await a.run_anti_entropy_once()   # CHECKSUM both ways
                assert await b.run_rumor_once()          # RUMOR
                a.config = dataclasses.replace(a.config, strategy="full")
                a.inject("last", 4)
                assert await a.run_anti_entropy_once()   # PUSH / PULL_REPLY
                return frames_a + frames_b, a.store.agrees_with(b.store), len(a.store)

        frames, agrees, entries = asyncio.run(scenario())
        assert agrees and entries == 5
        shapes = {}
        for __, version, message in frames:
            blob = message.payload.get("updates")
            if blob is None:
                continue
            assert isinstance(blob, dict) == (version >= 4)
            shapes.setdefault(message.type, set()).add(type(blob))
        # Every update-carrying frame type went out as a batch at least once.
        for kind in (MessageType.PUSH, MessageType.PULL_REPLY,
                     MessageType.CHECKSUM, MessageType.RUMOR):
            assert dict in shapes[kind], kind

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
                replies = [m for kind, __, m in frames if kind == "reply"]
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
        assert reply.type is MessageType.PULL_REPLY and reply.version == 4
        assert reply.payload["updates"]["n"] == 2000
        assert len(reply.payload["updates"]["certs"]) == len(range(0, 2000, 97))
        # The whole point: five scalars per update on the wire, not a
        # nested object (the row form of this list is ~100 B/update).
        body = encode_message(reply)[HEADER_BYTES:]
        assert decode_body(body).payload == reply.payload
        assert len(body) < 50 * 2000


class TestTraceContextInBatches:
    def test_hops_and_send_time_survive(self):
        """Three hops down a chain of v4 nodes: each delivery span
        carries the right hop and the sender's clock."""

        async def scenario():
            async with cluster(3) as (a, b, c):
                sink = a.bus.add_sink(RingBufferSink())
                b.bus.add_sink(sink)
                c.bus.add_sink(sink)
                # Negotiate first so the data moves in batches.
                for node, peer in ((a, b), (b, c)):
                    node._peer_versions[peer.node_id] = 4
                update = a.inject("k", "v")
                trace = trace_id_of(update)
                for sender, receiver in ((a, b), (b, c)):
                    payload = sender._update_payload(
                        {"updates": [update]}, sender.wire_version(receiver.node_id)
                    )
                    assert isinstance(payload["updates"], dict)
                    reply = await sender._call(
                        sender.peers[receiver.node_id],
                        Message(MessageType.RUMOR, sender.node_id, payload),
                    )
                    assert reply.payload == {"news": [True]}
                spans = [
                    e for e in sink.of_kind(EventKind.DELIVERY_SPAN)
                    if e.payload["trace"] == trace
                ]
                return spans, c._span_hops.get(trace)

        spans, hop_at_c = asyncio.run(scenario())
        assert [(e.node, e.payload["src"], e.payload["hop"]) for e in spans] == [
            (0, None, 0), (1, 0, 1), (2, 1, 2),
        ]
        assert hop_at_c == 2
        for event in spans[1:]:
            assert event.payload["sent_at"] is not None
            assert 0.0 <= event.time - event.payload["sent_at"] < 5.0

    def test_duplicate_key_batch_attributes_hops_per_version(self):
        """The batch twin of the duplicate-key PUSH regression: two
        versions of one key in one frame each keep their own hop."""

        async def scenario():
            async with cluster(2) as (a, b):
                u1 = a.store.update("k", 1)
                u2 = a.store.update("k", 2)
                sink = b.bus.add_sink(RingBufferSink())
                payload = {
                    "mode": ExchangeMode.PUSH.value,
                    "updates": encode_batch([u1, u2], hops=[5, 0], sent_at=1.0),
                }
                b._handle(Message(MessageType.PUSH, sender=0, payload=payload, version=4))
                hops = {
                    event.payload["trace"]: event.payload["hop"]
                    for event in sink.of_kind(EventKind.DELIVERY_SPAN)
                }
                return trace_id_of(u1), trace_id_of(u2), hops

        t1, t2, hops = asyncio.run(scenario())
        assert hops[t1] == 6 and hops[t2] == 1

    def test_cold_bulk_transfer_formats_no_trace_ids(self, monkeypatch):
        """Entries nobody knows a hop for, no sink listening: neither
        side builds a trace id or a span context per update."""
        calls = []

        async def scenario():
            async with cluster(2) as (a, b):
                for index in range(50):
                    a.store.update(f"key-{index}", index)
                assert await b.run_anti_entropy_once()  # rows, negotiates
                for index in range(50, 100):
                    a.store.update(f"key-{index}", index)
                import repro.net.node as node_module

                real = node_module.trace_id_of
                monkeypatch.setattr(
                    node_module, "trace_id_of",
                    lambda update: calls.append(update) or real(update),
                )
                assert await b.run_anti_entropy_once()
                return len(b.store), b.wire_version(a.node_id)

        entries, version = asyncio.run(scenario())
        assert entries == 100 and version == 4
        assert calls == []


def _quiet_config(**overrides):
    return NodeConfig(
        anti_entropy_interval=3600.0,
        rumor_interval=3600.0,
        retry=RetryPolicy(connect_timeout=0.5, io_timeout=5.0, attempts=2),
        **overrides,
    )

