"""The binary v4 body over real sockets: read, never written.

A node decodes an inbound ``0xC1`` frame (``repro.net.binwire``) like
any other and answers it in the one form it writes, JSON stamped v3.
``tests/test_wire_form.py`` holds that form itself; this file keeps the
binary reader honest and counts what a ``Peer`` sends.
"""

import asyncio

from repro.net.membership import PeerInfo
from repro.net.peer import Peer, RetryPolicy
from repro.net.wire import Message, MessageType, decode_body, encode_message

from conftest import cluster

BINARY_MAGIC_BYTE = b"\xc1"
JSON_FIRST_BYTE = b"{"


async def raw_status_reply(version: int) -> bytes:
    """The body bytes a fresh node answers a STATUS request written in
    wire ``version`` with."""
    async with cluster(1) as (node,):
        port = node.membership.get(0).port
        request = Message(
            version=version, max_version=version,
            type=MessageType.STATUS, sender=77,
        )
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(encode_message(request))
            await writer.drain()
            length = int.from_bytes(await reader.readexactly(4), "big")
            return await reader.readexactly(length)
        finally:
            writer.close()


class TestRawClients:
    def test_v3_json_client_gets_json_back(self):
        body = asyncio.run(raw_status_reply(3))
        assert body[:1] == JSON_FIRST_BYTE
        reply = decode_body(body)
        assert reply.type is MessageType.STATUS
        assert reply.version == reply.max_version == 3

    def test_v4_binary_client_is_answered_in_json(self):
        """The binary body is understood, but the answer is the one
        form a node writes — the same bytes a JSON client gets."""
        assert encode_message(Message(MessageType.ACK, 0, version=4))[4:5] == BINARY_MAGIC_BYTE
        body = asyncio.run(raw_status_reply(4))
        assert body[:1] == JSON_FIRST_BYTE
        reply = decode_body(body)
        assert reply.type is MessageType.STATUS
        assert reply.version == reply.max_version == 3
        assert reply.payload["wire"] == {"version": 3}


class TestPeerAccounting:
    def test_peer_counts_frames_and_bytes(self):
        async def scenario():
            async with cluster(1) as (node,):
                info = node.membership.get(0)
                peer = Peer(
                    PeerInfo(node_id=0, host=info.host, port=info.port),
                    policy=RetryPolicy(
                        connect_timeout=0.5, io_timeout=1.0, attempts=1
                    ),
                )
                try:
                    await peer.call(
                        Message(type=MessageType.STATUS, sender=42)
                    )
                finally:
                    await peer.close()
                return peer.frames_sent, peer.bytes_sent

        frames, sent = asyncio.run(scenario())
        assert frames == 1
        assert sent > 4  # at least the length prefix plus a body

    def test_binary_status_frame_is_smaller_than_json(self):
        """What the binary codec does buy: fewer bytes for a payload of
        numbers and short strings (it loses on time, so nodes do not
        write it — docs/performance.md)."""
        payload = {
            "checksum": 2**127 - 1,
            "counts": {str(i): i for i in range(16)},
        }
        v3 = Message(
            version=3, max_version=4,
            type=MessageType.STATUS, sender=1, payload=payload,
        )
        v4 = Message(
            version=4, max_version=4,
            type=MessageType.STATUS, sender=1, payload=payload,
        )
        json_frame = encode_message(v3)
        binary_frame = encode_message(v4)
        assert len(binary_frame) < len(json_frame)
        assert decode_body(binary_frame[4:]).payload == payload
