"""The rumor-mongering endpoints of ``protocols/rumor.py``, two drivers.

Each §1.4 conversation is one initiator generator (``converse``) and one
responder (``respond``) exchanging ``Frame`` objects, settled by one
``settle``; the simulator hands the frames over in process and
``GossipNode`` carries them over TCP.  These tests hold that the two are
one protocol: every mode × rule point of the design space leaves the same
stores, hot lists, counters and feedback whichever driver ran it, the
push frames are byte for byte what they were, a malformed frame moves
nothing, and a refused initiator hunts.
"""

import asyncio
import contextlib
import random
import socket
import time
import types

import pytest
from hypothesis import given, settings, strategies as st

import repro.net.node as node_module
from repro.core.items import VersionedValue
from repro.core.serialize import encode_batch
from repro.core.store import ReplicaStore, StoreUpdate
from repro.core.timestamps import SequenceClock, Timestamp
from repro.net.membership import Membership
from repro.net.node import GossipNode, NodeConfig
from repro.net.wire import Message, MessageType, WireError, encode_message, read_message
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import ExchangeError, Frame
from repro.protocols.rumor import HotList, RumorConfig, converse, respond
from repro.sim.transport import ConnectionPolicy

from test_exchange_endpoints import KEYS, NODE_A, NODE_B, entries, over_the_wire
from conftest import QUIET, cluster

RULES = {
    "feedback-counter": dict(feedback=True, counter=True),
    "blind-counter": dict(feedback=False, counter=True),
    "feedback-coin": dict(feedback=True, counter=False),
}
MATRIX = {
    f"{mode.value}-{rule}": RumorConfig(mode=mode, k=2, **fields)
    for mode in ExchangeMode
    for rule, fields in RULES.items()
}
MATRIX["push-pull-minimization"] = RumorConfig(
    mode=ExchangeMode.PUSH_PULL, k=2, minimization=True
)


def value(content, time, site):
    return VersionedValue(content, Timestamp(time, site, 0))


SHARED, KNOWN = value("shared", 3, 0), value("known", 2, 0)
#: Every branch of one conversation: news each way, a rumor both sides
#: hold (minimization's joint case), a newer version pushed over an
#: older hot one, a rumor the partner knows but no longer spreads.
A_ROWS = {
    "a-only": value("a", 5, 0), "shared": SHARED, "a-newer": value("new", 6, 0),
    "known": KNOWN, ("svc", 1): value("tuple", 7, 0),
}
B_ROWS = {"b-only": value("b", 4, 1), "shared": SHARED, "a-newer": value("old", 1, 1), "known": KNOWN}
A_HOT = {"a-only": 0, "shared": 1, "a-newer": 0, "known": 1, ("svc", 1): 0}
B_HOT = {"b-only": 1, "shared": 0, "a-newer": 1}


def load(store, hot: HotList, rows, counters):
    for key, entry in rows.items():
        store.apply_entry(key, entry)
    for key, counter in counters.items():
        hot.make_hot(key, store.entry(key))
        hot[key].counter = counter
    hot.begin()


def side(store, hot):
    """What one conversation may change at one site."""
    rumors = {key: (rumor.entry, rumor.counter) for key, rumor in hot.items()}
    return store.snapshot(), store.checksum, rumors


def in_process(config, a_rows, b_rows, a_hot, b_hot, wire=False):
    """One conversation and one settle per side, frames handed over as
    objects — or, with ``wire``, through the node's codec both ways."""
    stores = [ReplicaStore(site_id=site, clock=SequenceClock(site=site)) for site in (0, 1)]
    hots = [HotList(), HotList()]
    load(stores[0], hots[0], a_rows, a_hot)
    load(stores[1], hots[1], b_rows, b_hot)
    frames = []
    conversation = converse(config, hots[0], stores[0].apply_updates)
    try:
        request = next(conversation)
        while True:
            request = over_the_wire(request, NODE_A) if wire else request
            reply = respond(hots[1], request, stores[1].apply_updates)
            reply = over_the_wire(reply, NODE_B) if wire else reply
            frames += [request, reply]
            request = conversation.send(reply)
    except StopIteration:
        pass
    hots[0].settle(config, random.Random(1))
    hots[1].settle(config, random.Random(2))
    return side(stores[0], hots[0]), side(stores[1], hots[1]), frames


def news_of(frames):
    return [(frame.kind, frame.fields.get("news")) for frame in frames]


class TestOneConversationTwoDrivers:
    @pytest.mark.parametrize("point", MATRIX)
    def test_tcp_equals_in_process(self, point, monkeypatch):
        config = MATRIX[point]
        a_direct, b_direct, frames = in_process(config, A_ROWS, B_ROWS, A_HOT, B_HOT)

        async def scenario():
            async with cluster(2, rumor=config) as (a, b):
                load(a.store, a._hot, A_ROWS, A_HOT)
                a._hot.served = []  # a's tick begins in run_rumor_once
                load(b.store, b._hot, B_ROWS, B_HOT)  # as if b's own tick had begun
                a._rng = random.Random(1)
                a._selector = types.SimpleNamespace(choose=lambda site, rng: 1)
                wire = []
                decode = node_module._frame_of

                def spy(message):
                    wire.append((message.type.value, sorted(message.payload)))
                    return decode(message)

                monkeypatch.setattr(node_module, "_frame_of", spy)
                assert await a.run_rumor_once()
                if config.mode.pulls:
                    a._settle_rumors()  # a pulling tick settles when the next begins
                b._hot.settle(config, random.Random(2))
                return side(a.store, a._hot), side(b.store, b._hot), wire

        a_live, b_live, wire = asyncio.run(scenario())
        assert a_live == a_direct
        assert b_live == b_direct
        # The frames that crossed, in order: request, reply, request, ...
        assert wire == [(frame.kind, sorted(frame.fields)) for frame in frames]

    @pytest.mark.parametrize("point", MATRIX)
    def test_the_point_does_what_the_paper_says(self, point):
        """A sanity anchor for the matrix: the initiator's fresh rumor
        reaches b exactly when the mode pushes, b's exactly when it pulls."""
        config = MATRIX[point]
        a, b, __ = in_process(config, A_ROWS, B_ROWS, A_HOT, B_HOT)
        assert ("a-only" in b[0]) == config.mode.pushes
        assert ("b-only" in a[0]) == config.mode.pulls


class TestWireLoopbackEqualsInProcess:
    @settings(max_examples=150, deadline=None)
    @given(
        point=st.sampled_from(sorted(MATRIX)),
        a_rows=st.dictionaries(st.sampled_from(KEYS), entries(), max_size=6),
        b_rows=st.dictionaries(st.sampled_from(KEYS), entries(), max_size=6),
        data=st.data(),
    )
    def test_same_outcome_through_the_codec(self, point, a_rows, b_rows, data):
        """Tuple keys, equal timestamps and death certificates included:
        ``_message`` → ``encode_message`` → ``decode_body`` →
        ``_frame_of`` is transparent to the conversation."""
        hot = st.dictionaries(st.sampled_from(KEYS), st.integers(0, 3))
        a_hot = {key: c for key, c in data.draw(hot).items() if key in a_rows}
        b_hot = {key: c for key, c in data.draw(hot).items() if key in b_rows}
        config = MATRIX[point]
        *direct, frames = in_process(config, a_rows, b_rows, a_hot, b_hot)
        *looped, wired = in_process(config, a_rows, b_rows, a_hot, b_hot, wire=True)
        assert looped == direct
        assert news_of(wired) == news_of(frames)


class TestPushFramesAreUnchanged:
    def test_golden_rumor_and_ack(self):
        """Push frames are byte for byte what the node wrote before the
        endpoints existed: ``rumor{updates}`` → ``ack{news}``."""
        hot, store = HotList(), ReplicaStore(site_id=1)
        hot.make_hot("svc", VersionedValue("printer", Timestamp(12.5, 0, 3)))
        hot.make_hot(("k", 2), VersionedValue(7, Timestamp(13, 0, 0)))
        store.apply_entry(("k", 2), hot[("k", 2)].entry)  # b knows one of the two
        hot.begin()
        request = next(converse(RumorConfig(k=2), hot, None))
        reply = respond(HotList(), request, store.apply_updates)
        assert encode_message(NODE_A._message(request, now=20.25)) == (
            b'\x00\x00\x00\xbd{"v":3,"max":3,"type":"rumor","sender":0,"payload":'
            b'{"updates":{"n":2,"keys":["svc",["k",2]],"values":["printer",7],'
            b'"times":[12.5,13],"sites":[0,0],"seqs":[3,0],"certs":[],"sent_at":20.25}}}'
        )
        assert encode_message(NODE_B._message(reply)) == (
            b'\x00\x00\x00G{"v":3,"max":3,"type":"ack","sender":1,'
            b'"payload":{"news":[true,false]}}'
        )


class TestResponderValidatesThenMutates:
    NEWS = ReplicaStore(site_id=3).update("news", 1)

    @pytest.mark.parametrize(
        "fields,message",
        [
            ({"mode": "sideways"}, "bad rumor mode"),
            ({"mode": "pull", "updates": [NEWS]}, "carries no updates"),
            ({"updates": [NEWS], "counters": [0]}, "only in push-pull"),
            ({"mode": "push-pull", "updates": [NEWS], "counters": []}, "bad counters"),
            ({"mode": "push-pull", "updates": [NEWS], "counters": [True]}, "bad counters"),
            ({"news": [True], "keys": "k"}, "bad news"),
            ({"news": [1], "keys": ["k"]}, "bad news"),
        ],
    )
    def test_refused_request_changes_nothing(self, fields, message):
        store, hot = ReplicaStore(site_id=1), HotList()
        hot.served = [("k", SHARED, 0)]
        with pytest.raises(ExchangeError, match=message):
            respond(hot, Frame("rumor", fields), store.apply_updates)
        assert len(store) == 0 and not hot and not hot.contacts

    @pytest.mark.parametrize(
        "reply",
        [
            Frame("ack", {}),
            Frame("ack", {"news": [True]}),
            Frame("ack", {"news": [True, 1, False]}),
            Frame("ack", {"error": "boom", "news": [True, True, True]}),
            Frame("rumor", {"news": [True, True, True]}),
        ],
    )
    def test_initiator_refuses_a_malformed_ack(self, reply):
        hot = HotList()
        for index in range(3):
            hot.make_hot(f"k{index}", value(index, 1, 0))
        hot.begin()
        conversation = converse(RumorConfig(k=2), hot, None)
        next(conversation)
        with pytest.raises(ExchangeError):
            conversation.send(reply)
        assert hot.contacts == {}


def always(payload):
    async def answer(message):
        return payload

    return answer


@contextlib.asynccontextmanager
async def with_stub(real: int, answer, **overrides):
    """``real`` started nodes plus one stub member (the last id) that
    answers every frame with the ACK payload ``await answer(message)``;
    yields the nodes and the frames the stub read."""
    received, handlers = [], []

    async def stub(reader, writer):
        handlers.append(asyncio.current_task())
        try:
            while (message := await read_message(reader)) is not None:
                received.append(message)
                payload = await answer(message)
                writer.write(encode_message(Message(MessageType.ACK, real, payload)))
                await writer.drain()
        except (ConnectionError, WireError):
            pass
        finally:
            writer.close()

    server = await asyncio.start_server(stub, "127.0.0.1", 0)
    socks = []
    for __ in range(real):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        socks.append(sock)
    ports = [sock.getsockname()[1] for sock in socks] + [server.sockets[0].getsockname()[1]]
    membership = Membership.localhost(ports)
    nodes = []
    try:
        for node_id, sock in enumerate(socks):
            nodes.append(GossipNode(node_id, membership, NodeConfig(**{**QUIET, **overrides})))
            await nodes[-1].start(sock=sock)
        yield nodes, received
    finally:
        for node in nodes:
            await node.stop()
        if handlers:
            await asyncio.wait(handlers, timeout=5.0)
        server.close()
        await server.wait_closed()


class TestTheNodeDrivesTheEndpoints:
    @pytest.mark.parametrize("policy", [ConnectionPolicy(1, 0), ConnectionPolicy(None, 2)])
    def test_the_connection_policy_is_the_nodes(self, policy):
        with pytest.raises(ValueError, match="UNLIMITED"):
            NodeConfig(rumor=RumorConfig(policy=policy))

    def test_a_short_ack_moves_no_counter(self):
        """A reply whose ``news`` is short used to count every uncovered
        rumor as an unnecessary contact; now it is a peer failure."""

        async def scenario():
            async with with_stub(1, always({"news": [True]}), hunt_limit=0, rumor=RumorConfig(k=1)) as (
                (node,), received,
            ):
                for index in range(3):
                    node.inject(f"k{index}", index)
                ran = await node.run_rumor_once()
                counters = [rumor.counter for rumor in node._hot.values()]
                return ran, counters, node.stats.peer_failures, received

        ran, counters, failures, received = asyncio.run(scenario())
        assert ran is False
        assert counters == [0, 0, 0]      # nothing moved, nothing went cold
        assert failures == 1
        assert received[0].payload["updates"]["n"] == 3

    def test_a_refused_rumor_tick_hunts(self):
        """Node 2 refuses every conversation; node 0's rumor ticks hunt
        past it to node 1, and each refusal is counted once."""

        async def scenario():
            async with with_stub(2, always({"rejected": True}), rumor=RumorConfig(k=10)) as (
                (origin, peer), received,
            ):
                origin.inject("hot", 1)
                for __ in range(8):
                    await origin.run_rumor_once()
                stats = origin.stats
                return stats.hunts, stats.rejections_out, len(received), peer.store.get("hot")

        hunts, refusals, stub_frames, value_at_peer = asyncio.run(scenario())
        assert hunts >= 1
        assert refusals == stub_frames >= 1
        assert value_at_peer == 1

    def test_a_rumor_superseded_mid_tick_stays_hot(self):
        """A newer version of a key arrives while the node pushes the
        older one, and the push proves useless: the old rumor loses
        interest, the new one must not (the node used to drop the key)."""
        newer = StoreUpdate("k", VersionedValue("v2", Timestamp(time.time() + 60, 1, 0)))

        async def supersede(message):
            reader, writer = await asyncio.open_connection("127.0.0.1", node.port)
            rumor_frame = Message(MessageType.RUMOR, 1, {"updates": encode_batch([newer])})
            writer.write(encode_message(rumor_frame))
            await writer.drain()
            await read_message(reader)
            writer.close()
            return {"news": [False]}

        async def scenario():
            nonlocal node
            async with with_stub(1, supersede, hunt_limit=0, rumor=RumorConfig(k=1)) as (
                (node,), __,
            ):
                node.inject("k", "v1")
                assert await node.run_rumor_once()
                return {key: (r.entry.value, r.counter) for key, r in node._hot.items()}

        node = None
        assert asyncio.run(scenario()) == {"k": ("v2", 0)}

    def test_a_pulling_node_answers_from_its_tick_snapshot(self):
        """A pull is answered from the hot list as the responder's last
        tick began, not as it stands: a site infected mid-cycle spreads
        from the next one, as in the simulator."""

        async def scenario():
            config = RumorConfig(mode=ExchangeMode.PULL, k=2)
            async with cluster(2, rumor=config) as (a, b):
                b.inject("late", 1)           # after b's (absent) last tick
                assert await a.run_rumor_once()
                missed = a.store.get("late")
                assert await b.run_rumor_once()  # b's tick: now it serves "late"
                assert await a.run_rumor_once()
                return missed, a.store.get("late"), b.stats.updates_shipped

        missed, pulled, shipped = asyncio.run(scenario())
        assert missed is None and pulled == 1
        assert shipped == 1
