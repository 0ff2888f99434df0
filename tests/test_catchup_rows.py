"""A catch-up builds no rows, and is one frame under both nodes' limits.

A node restarted empty pulls the whole database back in one
conversation: the paper's recovery path (§1.3, §1.5), and the heaviest
conversation a live node holds.  Its update list travels as key/entry
columns from the responder's buckets into the receiver's table, so the
guards here count, in the style of ``tests/test_store_pins.py``, and
never read a clock: with nobody reading rows, neither node constructs a
``StoreUpdate`` or runs an ``entry_beats`` judgement; with a trace sink
attached, every delivery span and news event is still emitted.

The catch-up reply is also the largest frame the system writes, so it
is where ``NodeConfig.max_frame`` must hold both ways: a responder does
not write a reply over its own limit, an initiator does not read one
over its own.
"""

import asyncio
import socket

import pytest

import repro.protocols.exchange as exchange_module
import repro.protocols.rumor as rumor_module
from repro.core.store import ReplicaStore, StoreUpdate
from repro.net.membership import Membership
from repro.net.node import GossipNode, NodeConfig
from repro.net.peer import RetryPolicy
from repro.net.runner import LiveCluster
from repro.net.wire import Message, MessageType, encode_message, read_message
from repro.obs.events import EventKind, JsonlTraceWriter, RingBufferSink, read_trace

from conftest import QUIET

N = 2_000


def config(**overrides) -> NodeConfig:
    retry = RetryPolicy(connect_timeout=0.5, io_timeout=5.0, attempts=2, backoff_base=0.01)
    return NodeConfig(**{**QUIET, "strategy": "hierarchical", "retry": retry, **overrides})


def preload(store: ReplicaStore, n: int = N) -> None:
    source = ReplicaStore(site_id=7)
    for index in range(n):
        update = source.update(f"key-{index:05d}", f"value-{index}")
        store.apply_entry(update.key, update.entry)
    store.checksum  # the cold fold is set-up, not part of the conversation


class Tally:
    """Counts ``StoreUpdate`` constructions and ``entry_beats`` calls,
    anywhere in the process, while armed."""

    def __init__(self, monkeypatch):
        self.monkeypatch = monkeypatch
        self.rows = self.judgements = 0

    def __enter__(self):
        real_init = StoreUpdate.__init__

        def init(update, *args, **kwargs):
            self.rows += 1
            real_init(update, *args, **kwargs)

        self.monkeypatch.setattr(StoreUpdate, "__init__", init)
        for module in (exchange_module, rumor_module):
            self.monkeypatch.setattr(module, "entry_beats", self._judge(module.entry_beats))
        return self

    def _judge(self, entry_beats):
        def judge(*args):
            self.judgements += 1
            return entry_beats(*args)

        return judge

    def __exit__(self, *exc_info):
        self.monkeypatch.undo()


async def restarted_catch_up(tally: Tally, trace_path=None):
    """Node 1 killed, restarted empty, and caught up by one conversation
    with node 0, which holds ``N`` keys; the counters armed for exactly
    that conversation."""
    live = await LiveCluster.launch(2, config())
    sink = None
    try:
        survivor = live.nodes[0]
        preload(survivor.store)
        await live.kill(1)
        await survivor.peers[1].close()  # reach the restarted node, not the dead one
        node = await live.restart(1)
        if trace_path is not None:
            sink = live.bus.add_sink(JsonlTraceWriter(trace_path))
        with tally:
            ran = await node.run_anti_entropy_once()
        return (
            ran, node.stats.exchanges, node.stats.updates_absorbed, len(node.stats.received),
            len(node.store), node.store.checksum == survivor.store.checksum,
            survivor.stats.updates_shipped,
        )
    finally:
        await live.stop()
        if sink is not None:
            sink.close()


class TestACatchUpBuildsNoRows:
    def test_no_row_and_no_judgement_on_either_node(self, monkeypatch):
        tally = Tally(monkeypatch)
        ran, exchanges, absorbed, receipts, entries, same, shipped = asyncio.run(
            restarted_catch_up(tally)
        )
        assert ran and exchanges == 1
        assert tally.rows == 0 and tally.judgements == 0
        assert absorbed == receipts == entries == shipped == N and same

    def test_a_sink_still_hears_every_delivery(self, monkeypatch, tmp_path):
        """Rows are skipped only when nobody reads them: with a trace
        sink, the receiver builds exactly one row per delivery span."""
        tally = Tally(monkeypatch)
        path = tmp_path / "catch-up.jsonl"
        ran, exchanges, absorbed, receipts, entries, same, __ = asyncio.run(
            restarted_catch_up(tally, path)
        )
        assert ran and absorbed == receipts == entries == N and same
        events = [event for event in read_trace(path) if event.node == 1]
        spans = [event for event in events if event.kind is EventKind.DELIVERY_SPAN]
        news = [event for event in events if event.kind is EventKind.NEWS_RECEIVED]
        assert len(spans) == len(news) == N
        assert all(span.payload["first"] and span.payload["src"] == 0 for span in spans)
        assert tally.rows == N and tally.judgements == 0


async def pair(survivor_limit: int, catcher_limit: int):
    """Two started nodes with their own frame limits: node 0 holding
    ``N`` keys, node 1 empty."""
    socks = []
    for __ in range(2):
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.bind(("127.0.0.1", 0))
        socks.append(sock)
    membership = Membership.localhost([sock.getsockname()[1] for sock in socks])
    nodes = [
        GossipNode(node_id, membership, config(max_frame=limit, hunt_limit=0))
        for node_id, limit in enumerate((survivor_limit, catcher_limit))
    ]
    for node, sock in zip(nodes, socks):
        await node.start(sock=sock)
    preload(nodes[0].store)
    return nodes


class TestTheFrameLimitHoldsBothWays:
    """A 2 000-key catch-up reply is ≈ 106 KB; tree frames stay < 4 KB."""

    @pytest.mark.parametrize(
        "survivor_limit, catcher_limit, caught_up",
        [
            (1 << 20, 1 << 20, True),     # the limit fits: one conversation
            (16 << 10, 1 << 20, False),   # the responder will not write it
            (1 << 20, 16 << 10, False),   # the initiator will not read it
        ],
        ids=["fits", "responder-refuses", "initiator-refuses"],
    )
    def test_catch_up_under_each_limit(self, survivor_limit, catcher_limit, caught_up):
        async def scenario():
            survivor, catcher = await pair(survivor_limit, catcher_limit)
            events = survivor.bus.add_sink(RingBufferSink())
            try:
                ran = await catcher.run_anti_entropy_once()
                return ran, catcher, survivor, events
            finally:
                await catcher.stop()
                await survivor.stop()

        ran, catcher, survivor, events = asyncio.run(scenario())
        assert ran is caught_up
        if caught_up:
            assert len(catcher.store) == N and catcher.store.checksum == survivor.store.checksum
            assert catcher.stats.peer_failures == 0 and survivor.stats.inbound_errors == 0
            return
        assert len(catcher.store) == 0 and catcher.stats.peer_failures == 1
        if survivor_limit < catcher_limit:
            # One refusal per attempt, each counted and reported.
            assert survivor.stats.inbound_errors == 2
            details = [event.payload["detail"] for event in events.of_kind(EventKind.INBOUND_ERROR)]
            assert len(details) == 2 and all("frame limit" in detail for detail in details)

    def test_a_node_refuses_a_reply_over_its_own_limit(self):
        """Raw client, small request, large answer: the node writes
        nothing, counts the refusal and keeps serving."""

        async def scenario():
            survivor, other = await pair(1024, 1 << 20)
            try:
                port = survivor.membership.get(0).port
                request = Message(MessageType.PULL_REQUEST, sender=1, payload={"mode": "pull"})
                assert len(encode_message(request)) < 1024
                reader, writer = await asyncio.open_connection("127.0.0.1", port)
                try:
                    writer.write(encode_message(request))
                    await writer.drain()
                    reply = await asyncio.wait_for(read_message(reader), 5.0)
                finally:
                    writer.close()
                read = Message(MessageType.MAIL, sender=1, payload={"read": "key-00007"})
                answer = await other.peers[0].call(read)
                return reply, survivor.stats.inbound_errors, survivor.stats.frames_sent, answer
            finally:
                await other.stop()
                await survivor.stop()

        reply, inbound_errors, frames_sent, answer = asyncio.run(scenario())
        assert reply is None  # closed without an answer
        assert inbound_errors == 1
        assert "pull-reply" not in frames_sent  # refused, so never counted as sent
        assert answer.payload["value"] == "value-7"  # a small reply still goes out
