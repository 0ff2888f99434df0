"""Wire framing: length-prefixed JSON frames with a versioned header."""

import asyncio
import json
import struct

import pytest

from repro.core.items import DeathCertificate, VersionedValue
from repro.core.store import StoreUpdate
from repro.core.serialize import encode_batch, encode_updates
from repro.net.wire import (
    HEADER_BYTES,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    Message,
    MessageType,
    WireError,
    decode_body,
    encode_message,
    payload_bucket_list,
    payload_tree_nodes,
    payload_update_list,
    read_message,
)

from conftest import ts


def reader_of(data: bytes) -> asyncio.StreamReader:
    reader = asyncio.StreamReader()
    reader.feed_data(data)
    reader.feed_eof()
    return reader


def read_all(data: bytes):
    async def drain():
        reader = reader_of(data)
        messages = []
        while True:
            message = await read_message(reader)
            if message is None:
                return messages
            messages.append(message)

    return asyncio.run(drain())


class TestFraming:
    def test_round_trip(self):
        message = Message(MessageType.PUSH, sender=3, payload={"x": [1, 2]})
        assert read_all(encode_message(message)) == [message]

    def test_multiple_frames_on_one_stream(self):
        a = Message(MessageType.RUMOR, 0, {"i": 1})
        b = Message(MessageType.ACK, 1, {"news": [True]})
        assert read_all(encode_message(a) + encode_message(b)) == [a, b]

    def test_clean_eof_returns_none(self):
        assert read_all(b"") == []

    def test_eof_mid_header(self):
        with pytest.raises(WireError, match="mid-header"):
            read_all(encode_message(Message(MessageType.ACK, 0))[: HEADER_BYTES - 1])

    def test_eof_mid_frame(self):
        frame = encode_message(Message(MessageType.ACK, 0, {"pad": "x" * 100}))
        with pytest.raises(WireError, match="mid-frame"):
            read_all(frame[:-5])

    def test_oversized_frame_rejected_before_read(self):
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        with pytest.raises(WireError, match="exceeds"):
            read_all(header)

    def test_zero_length_frame_rejected(self):
        with pytest.raises(WireError, match="zero-length"):
            read_all(struct.pack(">I", 0))

    def test_oversized_message_rejected_on_encode(self):
        message = Message(MessageType.PUSH, 0, {"blob": "x" * 100})
        with pytest.raises(WireError, match="exceeds"):
            encode_message(message, max_frame=32)

    def test_chunked_delivery(self):
        """Frames reassemble no matter how the bytes are split."""
        message = Message(MessageType.CHECKSUM, 2, {"checksum": 12345})
        data = encode_message(message)

        async def drip():
            reader = asyncio.StreamReader()

            async def feed():
                for i in range(len(data)):
                    reader.feed_data(data[i : i + 1])
                    await asyncio.sleep(0)
                reader.feed_eof()

            feeder = asyncio.ensure_future(feed())
            result = await read_message(reader)
            await feeder
            return result

        assert asyncio.run(drip()) == message


class TestBodyValidation:
    def body(self, **overrides):
        blob = {"v": PROTOCOL_VERSION, "type": "ack", "sender": 0, "payload": {}}
        blob.update(overrides)
        return json.dumps(blob).encode()

    def test_bad_json(self):
        with pytest.raises(WireError, match="JSON"):
            decode_body(b"{nope")

    def test_non_object_body(self):
        with pytest.raises(WireError, match="object"):
            decode_body(b"[1,2,3]")

    def test_version_mismatch(self):
        """Only what this build reads: the retired v1/v2 forms are
        refused like a version from the future."""
        for version in (1, 2, 99, "3", True, None):
            with pytest.raises(WireError, match="unsupported wire version"):
                decode_body(self.body(v=version))
        assert decode_body(self.body(v=3)).version == 3

    def test_missing_version(self):
        with pytest.raises(WireError, match="version"):
            decode_body(json.dumps({"type": "ack", "sender": 0}).encode())

    def test_unknown_type(self):
        with pytest.raises(WireError, match="unknown message type"):
            decode_body(self.body(type="gossip-harder"))

    def test_bad_sender(self):
        with pytest.raises(WireError, match="sender"):
            decode_body(self.body(sender="three"))
        with pytest.raises(WireError, match="sender"):
            decode_body(self.body(sender=True))

    def test_bad_payload(self):
        with pytest.raises(WireError, match="payload"):
            decode_body(self.body(payload=[1]))

    def test_every_message_type_round_trips(self):
        for message_type in MessageType:
            message = Message(message_type, sender=1, payload={"t": message_type.value})
            assert decode_body(encode_message(message)[HEADER_BYTES:]) == message


class TestPayloadUpdates:
    def test_round_trip_with_certificates(self):
        updates = [
            StoreUpdate("a", VersionedValue("v", ts(1.0))),
            StoreUpdate(
                "b",
                DeathCertificate(ts(2.0), ts(2.0), retention_sites=(1, 4)).reactivated(9.0),
            ),
        ]
        payload = {"updates": encode_batch(updates, hops=[2, None], sent_at=9.5)}
        # Through real JSON, as the wire would carry it.
        assert payload_update_list(json.loads(json.dumps(payload))) == (
            updates, [2, None], 9.5,
        )
        # No context at all — a batch of cold entries — reads as "no
        # hop known", not as a list of Nones.
        assert payload_update_list({"updates": encode_batch(updates)}) == (
            updates, None, None,
        )

    def test_missing_field_defaults_empty(self):
        assert payload_update_list({}) == ([], None, None)

    def test_garbage_becomes_wire_error(self):
        with pytest.raises(WireError, match="updates"):
            payload_update_list({"updates": {"n": 1, "keys": ["k"]}})
        with pytest.raises(WireError, match="updates"):
            payload_update_list({"updates": "not-a-batch"})

    def test_row_form_is_refused_not_half_understood(self):
        """The retired array-of-rows shape, even a well-formed one."""
        rows = encode_updates([StoreUpdate("a", VersionedValue("v", ts(1.0)))])
        with pytest.raises(WireError, match="expected an object, got list"):
            payload_update_list({"updates": rows})
        with pytest.raises(WireError, match="expected an object, got list"):
            payload_update_list({"updates": []})


class TestPayloadTreeNodes:
    def test_round_trips_arbitrary_precision_checksums(self):
        nodes = [[1, 2 ** 127 + 5], [63, 0]]
        payload = json.loads(json.dumps({"nodes": nodes}))
        assert payload_tree_nodes(payload) == [(1, 2 ** 127 + 5), (63, 0)]

    def test_missing_field_defaults_empty(self):
        assert payload_tree_nodes({}) == []
        assert payload_tree_nodes({"frontier": [[2, 7]]}, "frontier") == [(2, 7)]

    @pytest.mark.parametrize(
        "nodes",
        [
            "zip",                  # not a list at all
            [[1]],                  # wrong arity
            [[0, 5]],               # node ids start at 1
            [[1, -1]],              # negative checksum
            [["1", 5]],             # stringly-typed id
            [[True, 5]],            # bool is not a node id
            [[1, True]],            # ... nor a checksum
            [{"node": 1}],          # wrong shape
        ],
    )
    def test_garbage_becomes_wire_error(self, nodes):
        with pytest.raises(WireError, match="nodes"):
            payload_tree_nodes({"nodes": nodes})


class TestPayloadBucketList:
    def test_round_trips(self):
        payload = json.loads(json.dumps({"dirty": [0, 5, 63]}))
        assert payload_bucket_list(payload) == [0, 5, 63]
        assert payload_bucket_list({}) == []
        assert payload_bucket_list({"buckets": [3]}, "buckets") == [3]

    @pytest.mark.parametrize("buckets", ["zip", [-1], [1.5], [True], [[0]]])
    def test_garbage_becomes_wire_error(self, buckets):
        with pytest.raises(WireError, match="dirty"):
            payload_bucket_list({"dirty": buckets})
