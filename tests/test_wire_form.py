"""The one wire form, over real sockets.

Every frame a node writes is a JSON body stamped ``v=3`` whose update
lists are columnar batches — from the first byte of the first
conversation, requests and replies alike.  What this build does not
read is refused cleanly: another ``v`` drops the connection (counted,
and named in the ``inbound-error`` event), the retired row-form update
list gets an error ``ACK``.  Also the regressions the form's one key
decode fixes: tuple keys survive the wire, and no client key can crash
the server.
"""

import asyncio
import json
import socket
import struct

import pytest

from repro.core.items import DeathCertificate, VersionedValue
from repro.core.serialize import (
    SerializeError,
    dump_store,
    encode_batch,
    encode_updates,
    load_store,
)
from repro.core.store import ReplicaStore, StoreUpdate
from repro.core.timestamps import Timestamp
from repro.net.membership import Membership
from repro.net.node import NODE_BUCKET_BITS, GossipNode, NodeConfig
from repro.net.runner import CLIENT_ID
from repro.net.wire import (
    HEADER_BYTES,
    Message,
    MessageType,
    encode_message,
    read_message,
)
from repro.obs.events import EventKind, RingBufferSink

from conftest import QUIET, cluster

TUPLE_KEY = ("svc", ("printer", 2), 1.5, True)
BUCKETS = 1 << NODE_BUCKET_BITS  # a node's bucket count: the first index out of range


async def raw_exchange(node, *bodies: dict) -> list:
    """Write hand-made JSON frames on one connection; the decoded reply
    bodies, with ``None`` once the node has hung up."""
    reader, writer = await asyncio.open_connection(
        "127.0.0.1", node.membership.get(node.node_id).port
    )
    replies = []
    try:
        for body in bodies:
            blob = json.dumps(body).encode()
            writer.write(struct.pack(">I", len(blob)) + blob)
            await writer.drain()
            header = await asyncio.wait_for(reader.read(HEADER_BYTES), 5.0)
            if not header:
                replies.append(None)
                break
            (length,) = struct.unpack(">I", header)
            replies.append(json.loads(await reader.readexactly(length)))
    finally:
        writer.close()
    return replies


def frame(kind: str, payload: dict, v=3) -> dict:
    return {"v": v, "max": v, "type": kind, "sender": CLIENT_ID, "payload": payload}


class TestRefusedFrames:
    def test_unreadable_versions_are_dropped_counted_and_named(self):
        async def scenario():
            async with cluster(1) as (node,):
                sink = node.bus.add_sink(RingBufferSink())
                answers = [
                    await raw_exchange(node, frame("status", {}, v=version))
                    for version in (1, 2, 99)
                ]
                (alive,) = await raw_exchange(node, frame("status", {}))
                return answers, node.stats.inbound_errors, sink, alive

        answers, counted, sink, alive = asyncio.run(scenario())
        assert answers == [[None], [None], [None]]
        assert counted == 3
        details = [e.payload["detail"] for e in sink.of_kind(EventKind.INBOUND_ERROR)]
        assert [d.split("(")[0].strip() for d in details] == [
            "unsupported wire version 1",
            "unsupported wire version 2",
            "unsupported wire version 99",
        ]
        assert alive["type"] == "status" and alive["v"] == 3

    def test_row_form_updates_get_an_error_ack(self):
        """Refused, not half-understood: nothing is applied, and the
        connection stays usable."""
        rows = encode_updates(
            [StoreUpdate("k", VersionedValue("v", Timestamp(1.0, 9, 0)))]
        )

        async def scenario():
            async with cluster(1) as (node,):
                replies = await raw_exchange(
                    node,
                    frame("push", {"mode": "push-pull", "updates": rows}),
                    frame("pull-request", {"mode": "pull", "updates": []}),
                    frame("checksum", {"mode": "push-pull", "checksum": 0, "updates": rows}),
                    frame("rumor", {"updates": rows}),
                    frame("mail", {"updates": rows}),
                    frame("status", {}),
                )
                return replies, len(node.store), node.stats.inbound_errors

        replies, entries, counted = asyncio.run(scenario())
        for reply in replies[:5]:
            assert reply["type"] == "ack"
            assert "expected an object, got list" in reply["payload"]["error"]
        assert replies[5]["type"] == "status"
        assert entries == 0 and counted == 0

    @pytest.mark.parametrize(
        "kind,payload,error",
        [
            ("checksum", {"mode": "push-pull", "checksum": 0, "tau": -1}, "bad tau -1"),
            ("checksum", {"mode": "sideways", "checksum": 0}, "bad exchange mode 'sideways'"),
            ("push", {"mode": "push-pull", "buckets": [BUCKETS], "bits": NODE_BUCKET_BITS},
             "bucket index out of range"),
            ("push", {"mode": "push-pull", "buckets": [-1], "bits": NODE_BUCKET_BITS},
             "expected bucket indexes"),
            ("pull-request", {}, "bad exchange mode None"),
            ("tree", {"bits": NODE_BUCKET_BITS, "nodes": [[2 * BUCKETS, 0]]},
             f"tree node {2 * BUCKETS} out of range"),
            ("tree", {"bits": NODE_BUCKET_BITS, "nodes": [[1, 0], [1]]},
             "expected [node_id, checksum] pairs"),
        ],
    )
    def test_refused_request_applies_nothing(self, kind, payload, error):
        """Validate, then mutate: a frame refused for one field has
        had none of its updates merged (``tau`` used to be checked after
        the frame's list was absorbed)."""
        batch = encode_batch([StoreUpdate("k", VersionedValue("v", Timestamp(1.0, 9, 0)))])

        async def scenario():
            async with cluster(1) as (node,):
                (reply,) = await raw_exchange(node, frame(kind, {**payload, "updates": batch}))
                stats = node.stats
                return reply, len(node.store), len(stats.received), stats.updates_absorbed

        reply, entries, received, absorbed = asyncio.run(scenario())
        assert reply["type"] == "ack" and error in reply["payload"]["error"]
        assert (entries, received, absorbed) == (0, 0, 0)


class RecordingProxy:
    """A TCP relay that keeps the bytes it carried in each direction."""

    def __init__(self, target_port: int):
        self.target_port = target_port
        self.sent = bytearray()      # client -> target
        self.answered = bytearray()  # target -> client
        self._relays = []

    async def start(self) -> int:
        self._server = await asyncio.start_server(self._relay, "127.0.0.1", 0)
        return self._server.sockets[0].getsockname()[1]

    async def _relay(self, reader, writer):
        self._relays.append(asyncio.current_task())
        up_reader, up_writer = await asyncio.open_connection("127.0.0.1", self.target_port)

        async def pump(source, sink, record):
            while chunk := await source.read(65536):
                record.extend(chunk)
                sink.write(chunk)
                await sink.drain()
            sink.close()

        await asyncio.gather(
            pump(reader, up_writer, self.sent), pump(up_reader, writer, self.answered)
        )

    async def stop(self) -> None:
        """Call once both ends have hung up: waits for the relays to drain."""
        self._server.close()
        await self._server.wait_closed()
        await asyncio.wait_for(asyncio.gather(*self._relays), 5.0)

    @staticmethod
    def bodies(stream: bytes) -> list:
        out = []
        while stream:
            (length,) = struct.unpack(">I", stream[:HEADER_BYTES])
            out.append(bytes(stream[HEADER_BYTES:HEADER_BYTES + length]))
            stream = stream[HEADER_BYTES + length:]
        return out


class TestFirstFrames:
    def test_first_frames_each_way_are_json_batches(self):
        """Two freshly started nodes, every byte node 0 sends node 1 and
        every byte it gets back, from the first conversation on."""

        async def scenario():
            socks = []
            for __ in range(2):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.bind(("127.0.0.1", 0))
                socks.append(sock)
            ports = [sock.getsockname()[1] for sock in socks]
            proxy = RecordingProxy(ports[1])
            proxy_port = await proxy.start()
            config = NodeConfig(**QUIET)
            # Node 0 reaches node 1 through the proxy; node 1 is never
            # an initiator here.
            a = GossipNode(0, Membership.localhost([ports[0], proxy_port]), config)
            b = GossipNode(1, Membership.localhost(ports), config)
            await a.start(sock=socks[0])
            await b.start(sock=socks[1])
            try:
                a.inject("from-a", 1)
                b.inject("from-b", 2)
                assert await a.run_rumor_once()          # RUMOR / ACK
                assert await a.run_anti_entropy_once()   # PUSH / PULL_REPLY
                agrees = a.store.agrees_with(b.store)
            finally:
                await a.stop()
                await b.stop()
                await proxy.stop()
            return proxy.bodies(proxy.sent), proxy.bodies(proxy.answered), agrees

        sent, answered, agrees = asyncio.run(scenario())
        assert agrees
        assert [json.loads(body)["type"] for body in sent] == ["rumor", "push"]
        assert [json.loads(body)["type"] for body in answered] == ["ack", "pull-reply"]
        for body in sent + answered:
            assert body.startswith(b'{"v":3,"max":3,"type":')
        for body in (sent[0], sent[1], answered[1]):
            batch = json.loads(body)["payload"]["updates"]
            assert batch["n"] == len(batch["keys"]) == 1
            assert "hops" not in batch           # a hop count never crosses the wire
            assert isinstance(batch["sent_at"], float)

    def test_golden_push_frame(self):
        """One PUSH frame, pinned byte for byte: the header, the field
        order of a bucket-scoped offer, a batch holding a value, a death
        certificate and a tuple key, the send time inside it."""
        node = GossipNode(0, Membership.localhost([1, 2]), NodeConfig(**QUIET))
        updates = [
            StoreUpdate("printer:bldg-35", VersionedValue("10.0.7.12", Timestamp(1.5, 0, 7))),
            StoreUpdate(
                "gone",
                DeathCertificate(Timestamp(2, 1, 0), Timestamp(9.5, 1, 0), (3, 4)),
            ),
            StoreUpdate(("svc", 7), VersionedValue({"up": True}, Timestamp(3.25, 2, 1))),
        ]
        payload = node._update_payload(
            {"mode": "push-pull", "updates": updates, "buckets": [4], "bits": 6},
            now=77.5,
        )
        body = (
            b'{"v":3,"max":3,"type":"push","sender":0,"payload":{"mode":"push-pull",'
            b'"updates":{"n":3,"keys":["printer:bldg-35","gone",["svc",7]],'
            b'"values":["10.0.7.12",null,{"up":true}],"times":[1.5,2,3.25],'
            b'"sites":[0,1,2],"seqs":[7,0,1],"certs":[[1,9.5,1,0,[3,4]]],'
            b'"sent_at":77.5},"buckets":[4],"bits":6}}'
        )
        assert encode_message(Message(MessageType.PUSH, 0, payload)) == (
            struct.pack(">I", len(body)) + body
        )


class TestTupleKeys:
    """``validate_key`` promises tuples are shippable; they travel as
    JSON arrays and must come back tuples, not unhashable lists."""

    def test_tuple_key_replicates_by_rumor(self):
        async def scenario():
            async with cluster(2) as (a, b):
                a.inject(TUPLE_KEY, "up")
                assert await a.run_rumor_once()
                return b.store.get(TUPLE_KEY), a.stats.peer_failures, b.stats.inbound_errors

        assert asyncio.run(scenario()) == ("up", 0, 0)

    @pytest.mark.parametrize("strategy", ["full", "checksum", "hierarchical"])
    def test_tuple_key_replicates_by_anti_entropy(self, strategy):
        async def scenario():
            async with cluster(2, strategy=strategy) as (a, b):
                a.store.update(TUPLE_KEY, "up")
                b.store.update(("only", "at-b"), 1)
                assert await a.run_anti_entropy_once()
                return (
                    b.store.get(TUPLE_KEY), a.store.get(("only", "at-b")),
                    a.store.agrees_with(b.store), a.stats.peer_failures,
                )

        assert asyncio.run(scenario()) == ("up", 1, True, 0)

    def test_tuple_key_survives_a_json_checkpoint(self):
        source = ReplicaStore(site_id=0)
        source.update(TUPLE_KEY, "up")
        source.delete(("gone", 1))
        restored = ReplicaStore(site_id=1)
        assert load_store(json.loads(json.dumps(dump_store(source))), restored) == 2
        assert restored.get(TUPLE_KEY) == "up"
        assert restored.checksum == source.checksum

    def test_client_writes_and_reads_a_tuple_key(self):
        async def scenario():
            async with cluster(1) as (node,):
                wrote, read = await raw_exchange(
                    node,
                    frame("mail", {"key": ["svc", ["printer", 2]], "value": "up"}),
                    frame("mail", {"read": ["svc", ["printer", 2]]}),
                )
                return wrote, read, node.store.get(("svc", ("printer", 2)))

        wrote, read, stored = asyncio.run(scenario())
        assert wrote["payload"]["applied"] is True
        assert read["payload"]["found"] is True and read["payload"]["value"] == "up"
        assert stored == "up"

    @pytest.mark.parametrize("key", [None, {"a": 1}, [1, None], [[{"a": 1}]]])
    def test_checkpoint_with_a_bad_key_is_refused(self, key):
        dump = dump_store(ReplicaStore(site_id=0))
        dump["entries"] = [
            {"key": key, "entry": {"kind": "value", "value": 1,
                                   "timestamp": {"time": 1.0, "site": 0, "seq": 0}}}
        ]
        with pytest.raises(SerializeError, match="bad key"):
            load_store(dump, ReplicaStore(site_id=1))


class TestNothingEscapesServe:
    @pytest.mark.parametrize(
        "payload",
        [
            {"read": {"a": 1}},
            {"read": [1, None]},
            {"read": None},
            {"key": {"a": 1}, "value": 1},
            {"key": None, "value": 1},
            {"key": [1, [None]], "delete": True},
        ],
        ids=["read-object", "read-null-in-array", "read-null",
             "key-object", "key-null", "delete-null-in-array"],
    )
    def test_bad_client_key_gets_an_error_ack(self, payload):
        async def scenario():
            async with cluster(1) as (node,):
                refused, alive = await raw_exchange(
                    node, frame("mail", payload), frame("mail", {"read": [1, 2]})
                )
                return refused, alive, len(node.store), node.stats.inbound_errors

        refused, alive, entries, counted = asyncio.run(scenario())
        assert refused["type"] == "ack" and "bad key" in refused["payload"]["error"]
        # Same connection, next frame: an array of scalars is a valid
        # (tuple) key that just is not there.
        assert alive["payload"] == {"found": False, "timestamp": None}
        assert entries == 0 and counted == 0

    @pytest.mark.parametrize(
        "payload", [{"key": "k"}, {"key": "k", "value": None}], ids=["value-missing", "value-null"]
    )
    def test_write_without_a_value_gets_an_error_ack(self, payload):
        """A write with nothing to write used to reach ``store.update``,
        whose ``ValueError`` dropped the connection as a handler bug."""

        async def scenario():
            async with cluster(1) as (node,):
                refused, alive = await raw_exchange(
                    node, frame("mail", payload), frame("mail", {"read": "k"})
                )
                return refused, alive, len(node.store), node.stats.inbound_errors

        refused, alive, entries, counted = asyncio.run(scenario())
        assert refused["type"] == "ack" and "needs a value" in refused["payload"]["error"]
        assert alive["payload"] == {"found": False, "timestamp": None}
        assert entries == 0 and counted == 0

    def test_a_null_value_row_gets_an_error_ack(self):
        """A batch row holding ``null`` and no certificate would decode
        to an entry ``k in store`` counts but ``store.get`` cannot read."""
        batch = encode_batch([StoreUpdate("k", VersionedValue("v", Timestamp(1.0, 9, 0)))])
        batch["values"] = [None]

        async def scenario():
            async with cluster(1) as (node,):
                refused, alive = await raw_exchange(
                    node,
                    frame("push", {"mode": "push-pull", "updates": batch}),
                    frame("mail", {"read": "k"}),
                )
                return refused, alive, len(node.store), node.stats.inbound_errors

        refused, alive, entries, counted = asyncio.run(scenario())
        assert refused["type"] == "ack" and "null" in refused["payload"]["error"]
        assert alive["payload"] == {"found": False, "timestamp": None}
        assert entries == 0 and counted == 0

    def test_handler_bug_costs_one_connection_and_is_counted(self):
        async def scenario():
            async with cluster(1) as (node,):
                sink = node.bus.add_sink(RingBufferSink())

                def broken(message):
                    raise RuntimeError("handler bug")

                node._answer_exchange = broken
                request = Message(MessageType.TREE, CLIENT_ID, {"bits": 6, "nodes": []})
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", node.membership.get(0).port
                )
                try:
                    writer.write(encode_message(request))
                    await writer.drain()
                    hung_up = await asyncio.wait_for(read_message(reader), 5.0)
                finally:
                    writer.close()
                (alive,) = await raw_exchange(node, frame("status", {}))
                return (
                    hung_up, alive, node.stats.inbound_errors,
                    node._inbound_active, sink.of_kind(EventKind.INBOUND_ERROR),
                )

        hung_up, alive, counted, active, events = asyncio.run(scenario())
        assert hung_up is None
        assert alive["type"] == "status"
        assert counted == 1 and active == 0
        (event,) = events
        assert event.payload["error"] == "RuntimeError"
        assert "handler bug" in event.payload["detail"]
        assert "Traceback" in event.payload["detail"]
