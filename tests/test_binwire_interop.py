"""Wire-codec interop over real sockets: v3 JSON peers ↔ v4 binary nodes.

The version ladder's promise is that a v4 node never sends a binary
frame to a peer that has not advertised v4, and always understands
JSON from older peers.  These tests hold that promise with real TCP
connections: a raw legacy client speaking hand-encoded v3 JSON, a raw
v4 client speaking binary, and a two-node cluster where one node is
pinned to the v3 ceiling.
"""

import asyncio
import contextlib
import dataclasses
import socket
from typing import List

from repro.net.membership import Membership, PeerInfo
from repro.net.node import GossipNode, NodeConfig
from repro.net.peer import Peer, RetryPolicy
from repro.net.wire import (
    Message,
    MessageType,
    decode_body,
    encode_message,
    read_message,
)

QUIET = dict(
    anti_entropy_interval=3600.0,
    rumor_interval=3600.0,
    retry=RetryPolicy(connect_timeout=0.5, io_timeout=1.0, attempts=1),
)

BINARY_MAGIC_BYTE = b"\xc1"
JSON_FIRST_BYTE = b"{"


@contextlib.asynccontextmanager
async def cluster(n: int = 2, **overrides):
    config = NodeConfig(**{**QUIET, **overrides})
    socks = []
    for __ in range(n):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        socks.append(sock)
    membership = Membership.localhost([s.getsockname()[1] for s in socks])
    nodes: List[GossipNode] = []
    try:
        for node_id, sock in enumerate(socks):
            node = GossipNode(node_id, membership, config)
            await node.start(sock=sock)
            nodes.append(node)
        yield nodes
    finally:
        for node in nodes:
            await node.stop()


def pin_to_v3(node: GossipNode) -> None:
    """Make ``node`` behave exactly like a pre-binary v3 build: every
    frame it emits is JSON and advertises ``max_version=3``, and it
    never records a peer above v3."""
    original_handle = node._handle
    original_call = node._call
    original_wire_version = node.wire_version

    def handle(message):
        # A v3 build negotiates min(3, advert): it shapes a reply's
        # payload for v3 whatever the sender says it could speak.
        reply = original_handle(
            dataclasses.replace(message, max_version=min(message.max_version, 3))
        )
        if reply is None:
            return None
        return dataclasses.replace(
            reply, version=min(reply.version, 3), max_version=3
        )

    async def call(peer, message):
        return await original_call(
            peer, dataclasses.replace(message, max_version=3)
        )

    node._handle = handle
    node._call = call
    node.wire_version = lambda peer_id: min(original_wire_version(peer_id), 3)


async def raw_round_trip(port: int, request: Message) -> tuple[bytes, Message]:
    """One conversation on a fresh TCP connection; returns the reply's
    raw body bytes and its decoded form."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(encode_message(request))
        await writer.drain()
        reply = await asyncio.wait_for(read_message(reader), 2.0)
        assert reply is not None
    finally:
        writer.close()
    # Re-encode to recover the body bytes the server actually chose.
    return encode_message(reply)[4:], reply


class TestRawClients:
    def test_v3_json_client_gets_json_back(self):
        """A legacy client advertising max=3 must receive a JSON reply."""
        async def scenario():
            async with cluster(1) as (node,):
                port = node.membership.get(0).port
                request = Message(
                    version=3, max_version=3,
                    type=MessageType.STATUS, sender=77,
                )
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    writer.write(encode_message(request))
                    await writer.drain()
                    length = int.from_bytes(
                        await reader.readexactly(4), "big"
                    )
                    body = await reader.readexactly(length)
                finally:
                    writer.close()
                return body

        body = asyncio.run(scenario())
        assert body[:1] == JSON_FIRST_BYTE
        reply = decode_body(body)
        assert reply.type is MessageType.STATUS
        assert reply.version == 3

    def test_v4_binary_client_gets_binary_back(self):
        """A client advertising max=4 negotiates the binary codec."""
        async def scenario():
            async with cluster(1) as (node,):
                port = node.membership.get(0).port
                request = Message(
                    version=4, max_version=4,
                    type=MessageType.STATUS, sender=77,
                )
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    writer.write(encode_message(request))
                    await writer.drain()
                    length = int.from_bytes(
                        await reader.readexactly(4), "big"
                    )
                    body = await reader.readexactly(length)
                finally:
                    writer.close()
                return body

        body = asyncio.run(scenario())
        assert body[:1] == BINARY_MAGIC_BYTE
        reply = decode_body(body)
        assert reply.type is MessageType.STATUS
        assert reply.version == 4

    def test_v1_client_still_speaks_plain_json(self):
        async def scenario():
            async with cluster(1) as (node,):
                port = node.membership.get(0).port
                request = Message(
                    version=1, max_version=1,
                    type=MessageType.STATUS, sender=77,
                )
                return await raw_round_trip(port, request)

        __, reply = asyncio.run(scenario())
        assert reply.type is MessageType.STATUS
        assert reply.version == 1


class TestMixedCluster:
    def test_v3_node_and_v4_node_converge(self):
        """Anti-entropy between a pinned-v3 node and a v4 node reaches
        agreement in both directions, and the v4 node never records the
        legacy peer above v3."""
        async def scenario():
            async with cluster(2) as (legacy, modern):
                pin_to_v3(legacy)
                legacy.inject("from-legacy", 1)
                modern.inject("from-modern", 2)
                assert await legacy.run_anti_entropy_once()
                assert await modern.run_anti_entropy_once()
                return (
                    legacy.store.agrees_with(modern.store),
                    legacy.store.get("from-modern"),
                    modern.store.get("from-legacy"),
                    modern.wire_version(legacy.node_id),
                )

        agrees, at_legacy, at_modern, recorded = asyncio.run(scenario())
        assert agrees
        assert at_legacy == 2
        assert at_modern == 1
        assert recorded <= 3

    def test_v4_nodes_upgrade_to_binary_requests(self):
        """After the first reply advertises v4, subsequent requests go
        binary — and the cluster still converges."""
        async def scenario():
            async with cluster(2) as (a, b):
                a.inject("round-one", 1)
                assert await a.run_anti_entropy_once()
                first_version = a.wire_version(b.node_id)
                a.inject("round-two", 2)
                assert await a.run_anti_entropy_once()
                return (
                    first_version,
                    b.store.get("round-one"),
                    b.store.get("round-two"),
                    a.store.agrees_with(b.store),
                )

        first_version, one, two, agrees = asyncio.run(scenario())
        assert first_version == 4
        assert one == 1 and two == 2
        assert agrees


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
        """The reason v4 exists: the same conversation costs fewer
        bytes on the binary codec."""
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
