"""GossipNode behavior over real localhost TCP.

The periodic loops are parked (huge intervals) so every exchange here
is driven explicitly with ``run_anti_entropy_once`` /
``run_rumor_once`` — the network is real, the timing deterministic.
"""

import asyncio
import contextlib
import socket
import time
from typing import List

import pytest

from repro.core.items import VersionedValue
from repro.core.serialize import encode_batch
from repro.core.store import ReplicaStore, StoreUpdate
from repro.core.timestamps import SimClock, Timestamp
from repro.net.membership import Membership
from repro.net.node import GossipNode, NodeConfig
from repro.net.peer import Peer, RetryPolicy
from repro.net.wire import (
    Message,
    MessageType,
    decode_body,
    encode_message,
    read_message,
)
from repro.obs.events import EventKind, RingBufferSink
from repro.obs.spans import trace_id_of
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import ChecksumWithRecent
from repro.protocols.rumor import RumorConfig

#: Loops effectively disabled; fast failure detection.
QUIET = dict(
    anti_entropy_interval=3600.0,
    rumor_interval=3600.0,
    retry=RetryPolicy(connect_timeout=0.5, io_timeout=1.0, attempts=1),
)


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


class TestAntiEntropy:
    def test_push_pull_converges_both_ways(self):
        async def scenario():
            async with cluster(2) as (a, b):
                a.inject("from-a", 1)
                b.inject("from-b", 2)
                assert await a.run_anti_entropy_once()
                return (
                    a.store.agrees_with(b.store),
                    a.store.get("from-b"),
                    b.store.get("from-a"),
                    a.stats.exchanges,
                    b.stats.updates_absorbed,
                    a.stats.updates_absorbed,
                )

        agrees, at_a, at_b, exchanges, b_absorbed, a_absorbed = asyncio.run(scenario())
        assert agrees
        assert at_a == 2 and at_b == 1
        assert exchanges == 1
        assert b_absorbed == 1 and a_absorbed == 1

    def test_push_only_sends_but_never_fetches(self):
        async def scenario():
            async with cluster(2, mode=ExchangeMode.PUSH) as (a, b):
                a.inject("mine", 1)
                b.inject("theirs", 2)
                assert await a.run_anti_entropy_once()
                return b.store.get("mine"), a.store.get("theirs")

        pushed, pulled = asyncio.run(scenario())
        assert pushed == 1
        assert pulled is None   # push mode must not pull

    def test_pull_only_fetches_but_never_sends(self):
        async def scenario():
            async with cluster(2, mode=ExchangeMode.PULL) as (a, b):
                a.inject("mine", 1)
                b.inject("theirs", 2)
                assert await a.run_anti_entropy_once()
                return a.store.get("theirs"), b.store.get("mine")

        pulled, pushed = asyncio.run(scenario())
        assert pulled == 2
        assert pushed is None   # the digest offer must not be applied

    def test_death_certificate_propagates(self):
        async def scenario():
            async with cluster(2) as (a, b):
                a.inject("doomed", 1)
                await a.run_anti_entropy_once()
                a.delete("doomed")
                await a.run_anti_entropy_once()
                return a.store.agrees_with(b.store), b.store.get("doomed")

        agrees, value = asyncio.run(scenario())
        assert agrees
        assert value is None

    def test_checksum_strategy_settles_without_full_compare(self):
        async def scenario():
            async with cluster(2, strategy="checksum", tau=60.0) as (a, b):
                a.inject("k", "v")
                assert await a.run_anti_entropy_once()
                return (
                    a.store.agrees_with(b.store),
                    a.stats.checksum_successes,
                    b.store.get("k"),
                )

        agrees, successes, value = asyncio.run(scenario())
        assert agrees
        # The recent-update list alone reconciled the stores: no full
        # table was shipped (Section 1.3's whole point).
        assert successes == 1
        assert value == "v"

    def test_checksum_reply_does_not_echo_what_the_request_delivered(self):
        """Only the initiator had news: five entries go one way and none
        come back — the live responder used to merge the request's list
        and then answer with it.  The simulator's conversation over the
        same two stores reports the same two numbers."""

        async def scenario():
            async with cluster(2, strategy="checksum", tau=60.0) as (a, b):
                sink = a.bus.add_sink(RingBufferSink())
                for i in range(5):
                    a.store.update(f"k{i}", i)
                sim_a, sim_b = (
                    ReplicaStore(site_id=site, clock=SimClock(site, time.time))
                    for site in (0, 1)
                )
                for update in a.store.updates():
                    sim_a.apply_update(update)
                assert await a.run_anti_entropy_once()
                (settled,) = sink.of_kind(EventKind.EXCHANGE_SETTLED)
                return (
                    settled.payload, b.stats.updates_shipped, a.stats.updates_absorbed,
                    a.store.agrees_with(b.store), sim_a, sim_b,
                )

        settled, echoed, absorbed, agrees, sim_a, sim_b = asyncio.run(scenario())
        assert agrees
        assert (settled["via"], settled["shipped"], settled["received"]) == ("checksum", 5, 0)
        assert echoed == 0 and absorbed == 0
        report = ChecksumWithRecent(60.0).exchange(sim_a, sim_b, ExchangeMode.PUSH_PULL)
        assert (report.via, report.wire_ab, report.wire_ba) == ("checksum", 5, 0)
        assert (len(report.sent_ab), len(report.sent_ba)) == (5, 0)

    def test_dead_partner_is_a_counted_failure_not_a_crash(self):
        async def scenario():
            async with cluster(2, hunt_limit=0) as (a, b):
                await b.stop()
                a.inject("k", 1)
                ran = await a.run_anti_entropy_once()
                return ran, a.stats.peer_failures

        ran, failures = asyncio.run(scenario())
        assert ran is False
        assert failures == 1

    def test_busy_partner_is_refused_and_counted(self):
        async def scenario():
            async with cluster(2, hunt_limit=0, connection_limit=1) as (a, b):
                b._inbound_active = 1   # simulate a saturated server
                a.inject("k", 1)
                ran = await a.run_anti_entropy_once()
                return ran, a.stats.rejections_out, b.stats.rejections_in

        ran, out, inn = asyncio.run(scenario())
        assert ran is False
        assert out == 1 and inn == 1


class TestRumors:
    def test_rumor_spreads_and_infects_the_receiver(self):
        async def scenario():
            async with cluster(2) as (a, b):
                a.inject("hot", 1)
                assert a.hot_rumor_count == 1
                assert await a.run_rumor_once()
                return b.store.get("hot"), b.hot_rumor_count, a.hot_rumor_count

        value, b_hot, a_hot = asyncio.run(scenario())
        assert value == 1
        assert b_hot == 1    # receiving news makes the receiver infectious
        assert a_hot == 1    # a useful push keeps the rumor hot

    def test_feedback_counter_deactivates_rumor(self):
        async def scenario():
            async with cluster(2, rumor=RumorConfig(k=1)) as (a, b):
                a.inject("hot", 1)
                await a.run_rumor_once()   # news: stays hot
                await a.run_rumor_once()   # not news: counter hits k
                return a.hot_rumor_count

        assert asyncio.run(scenario()) == 0

    def test_no_hot_rumors_means_no_traffic(self):
        async def scenario():
            async with cluster(2) as (a, b):
                ran = await a.run_rumor_once()
                return ran, a.stats.frames_sent_total

        ran, frames = asyncio.run(scenario())
        assert ran is False
        assert frames == 0


class TestWireClients:
    def test_mail_injection_over_tcp(self):
        async def scenario():
            async with cluster(2) as (a, b):
                client = Peer(a.info, RetryPolicy(attempts=1))
                reply = await client.call(
                    Message(MessageType.MAIL, sender=-1, payload={"key": "k", "value": 7})
                )
                await client.close()
                return reply, a.store.get("k"), a.hot_rumor_count

        reply, value, hot = asyncio.run(scenario())
        assert reply.payload["applied"] is True
        assert "timestamp" in reply.payload
        assert value == 7
        assert hot == 1   # a client write starts spreading as a rumor

    def test_status_reports_the_store(self):
        async def scenario():
            async with cluster(2) as (a, b):
                a.inject("k", 1)
                client = Peer(a.info, RetryPolicy(attempts=1))
                reply = await client.call(Message(MessageType.STATUS, sender=-1))
                await client.close()
                return reply.payload, a.store.checksum

        payload, checksum = asyncio.run(scenario())
        assert payload["node"] == 0
        assert payload["entries"] == 1
        assert payload["checksum"] == checksum
        assert "k" in payload["received"]

    def test_malformed_payload_gets_error_ack_not_a_crash(self):
        async def scenario():
            async with cluster(2) as (a, b):
                client = Peer(a.info, RetryPolicy(attempts=1))
                reply = await client.call(
                    Message(
                        MessageType.PUSH,
                        sender=-1,
                        payload={"mode": "sideways", "updates": []},
                    )
                )
                await client.close()
                return reply

        reply = asyncio.run(scenario())
        assert reply.type is MessageType.ACK
        assert "error" in reply.payload


class TestNodeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            NodeConfig(anti_entropy_interval=0)
        with pytest.raises(ValueError):
            NodeConfig(strategy="telepathy")
        with pytest.raises(ValueError):
            NodeConfig(tau=0)
        with pytest.raises(ValueError):
            NodeConfig(rumor=RumorConfig(k=0))
        with pytest.raises(ValueError):
            NodeConfig(connection_limit=0)
        with pytest.raises(ValueError):
            NodeConfig(hunt_limit=-1)

    def test_double_start_rejected(self):
        async def scenario():
            async with cluster(2) as (a, b):
                with pytest.raises(RuntimeError, match="already running"):
                    await a.start()

        asyncio.run(scenario())


class TestShutdown:
    def test_stop_survives_a_swallowed_cancellation(self):
        """On 3.11 a wait_for that completes in the same event-loop step
        as a cancel request eats the CancelledError (bpo-42130), leaving
        the gossip loop running with the cancel consumed.  ``stop()``
        must keep cancelling until the task actually dies, never hang."""

        async def scenario():
            async with cluster(2) as (a, b):
                swallowed = asyncio.Event()

                async def stubborn():
                    try:
                        await asyncio.Event().wait()
                    except asyncio.CancelledError:
                        swallowed.set()  # simulate the lost cancellation
                    await asyncio.Event().wait()

                a._tasks.append(asyncio.create_task(stubborn()))
                await asyncio.wait_for(a.stop(), timeout=5.0)
                assert swallowed.is_set()
                assert all(task.done() for task in a._tasks) or a._tasks == []

        asyncio.run(scenario())

    def test_periodic_honors_a_consumed_cancel_request(self):
        """The loop re-checks ``task.cancelling()`` each iteration, so a
        cancellation swallowed inside one step ends the loop at the next."""

        async def scenario():
            async with cluster(2) as (a, b):
                entered = asyncio.Event()

                async def step():
                    entered.set()
                    try:
                        await asyncio.Event().wait()  # cancel lands here
                    except asyncio.CancelledError:
                        pass  # the bpo-42130 stand-in: the error is eaten

                task = asyncio.create_task(a._periodic(0.001, step))
                await asyncio.wait_for(entered.wait(), timeout=5.0)
                task.cancel()
                # The step swallowed the error, yet the loop must still
                # exit — the guard sees cancelling() > 0 next iteration.
                with contextlib.suppress(asyncio.CancelledError):
                    await asyncio.wait_for(task, timeout=5.0)
                assert task.done()

        asyncio.run(scenario())

    def test_periodic_survives_a_bug_and_reports_it(self):
        """A step that raises something other than a peer failure is a
        bug: the loop keeps stepping, and the exception is counted in
        the registry and emitted with its traceback — not swallowed."""

        async def scenario():
            async with cluster(2) as (a, b):
                sink = a.bus.add_sink(RingBufferSink())
                steps = 0
                twice = asyncio.Event()

                async def run_buggy_once():
                    nonlocal steps
                    steps += 1
                    if steps == 2:
                        twice.set()
                    raise KeyError("step bug")

                task = asyncio.create_task(a._periodic(0.001, run_buggy_once))
                await asyncio.wait_for(twice.wait(), timeout=5.0)
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await asyncio.wait_for(task, timeout=5.0)
                status = a.status_payload()["metrics"]["repro_step_errors_total"]
                return a.stats.step_errors, status, sink.of_kind(EventKind.STEP_ERROR)

        counted, family, events = asyncio.run(scenario())
        assert counted >= 2 and len(events) == counted
        assert sum(cell["value"] for cell in family["series"]) == counted
        payload = events[0].payload
        assert payload["step"] == "run_buggy_once" and payload["error"] == "KeyError"
        assert "Traceback" in payload["detail"] and "step bug" in payload["detail"]

    def test_periodic_runs_on_py310_task_api(self, monkeypatch):
        """``Task.cancelling()`` is 3.11+ only.  On 3.10 the loops must
        still gossip — the old unguarded call raised AttributeError on
        the first iteration, and ``stop()`` retrieved (and thereby hid)
        the exception, so nodes silently never ran a round."""

        class Py310TaskProxy:
            """The 3.10 Task surface: everything but ``cancelling()``."""

            def __init__(self, task):
                self._task = task

            def __getattr__(self, name):
                if name == "cancelling":
                    raise AttributeError(name)
                return getattr(self._task, name)

        async def scenario():
            async with cluster(2) as (a, b):
                real_current_task = asyncio.current_task

                def py310_current_task():
                    task = real_current_task()
                    return None if task is None else Py310TaskProxy(task)

                monkeypatch.setattr(
                    "repro.net.node.asyncio.current_task", py310_current_task
                )
                steps = 0
                stepped = asyncio.Event()

                async def step():
                    nonlocal steps
                    steps += 1
                    stepped.set()

                task = asyncio.create_task(a._periodic(0.001, step))
                await asyncio.wait_for(stepped.wait(), timeout=5.0)
                task.cancel()
                with contextlib.suppress(asyncio.CancelledError):
                    await asyncio.wait_for(task, timeout=5.0)
                return steps, task.cancelled()

        steps, cancelled = asyncio.run(scenario())
        assert steps >= 1
        assert cancelled  # ended by the cancel, not a swallowed error


class TestSpanContextMapping:
    def test_duplicate_key_frame_maps_contexts_by_trace(self):
        """One PUSH frame may carry two versions of the same key; each
        applied version gets its own span in its own trace, not whichever
        trace last claimed the bare key.  The frame is one an older
        sender wrote, ``hops`` column included: it is ignored."""

        async def scenario():
            async with cluster(2) as (a, b):
                u1 = a.store.update("k", 1)
                u2 = a.store.update("k", 2)
                sink = b.bus.add_sink(RingBufferSink())
                payload = {
                    "mode": ExchangeMode.PUSH.value,
                    "updates": {**encode_batch([u1, u2], sent_at=1.0), "hops": [5, 0]},
                }
                b._dispatch(Message(MessageType.PUSH, sender=0, payload=payload))
                spans = {
                    event.payload["trace"]: (
                        event.payload["key"], event.payload["src"], event.payload["sent_at"]
                    )
                    for event in sink.of_kind(EventKind.DELIVERY_SPAN)
                }
                return trace_id_of(u1), trace_id_of(u2), spans, b.store.get("k")

        t1, t2, spans, value = asyncio.run(scenario())
        assert t1 != t2
        assert spans == {t1: ("k", 0, 1.0), t2: ("k", 0, 1.0)}
        assert value == 2


class TestAccounting:
    """``_account``/``_note_news`` with and without an audience."""

    @staticmethod
    def _frame(node_id=1):
        source = ReplicaStore(site_id=node_id)
        first = source.update("k", 1)
        updates = [first, source.update(("svc", "p"), 2), source.update("k", 3), first]
        return updates, {"updates": encode_batch(updates, sent_at=1.0)}

    def test_events_with_a_sink_attached_keep_kind_order_and_payload(self):
        membership = Membership.localhost([1, 2])
        node = GossipNode(0, membership, NodeConfig(**QUIET))
        sink = node.bus.add_sink(RingBufferSink())
        updates, payload = self._frame()
        applied = node._absorb(payload, src=1)
        assert [result.value for __, result in applied] == [
            "applied", "applied", "applied", "stale"
        ]
        events = list(sink.events)
        # One delivery span per row, in row order, then one news-received
        # per key the node had not heard of, in first-arrival order.
        assert [event.kind for event in events] == (
            [EventKind.DELIVERY_SPAN] * 4 + [EventKind.NEWS_RECEIVED] * 2
        )
        spans = events[:4]
        assert [span.payload["key"] for span in spans] == ["k", "('svc', 'p')", "k", "k"]
        assert [span.payload["first"] for span in spans] == [True, True, True, False]
        assert [span.payload["result"] for span in spans] == [
            "applied", "applied", "applied", "stale"
        ]
        assert [span.payload["trace"] for span in spans] == [
            trace_id_of(update) for update in updates
        ]
        assert all(span.payload["src"] == 1 and span.payload["sent_at"] == 1.0 for span in spans)
        news = events[4:]
        assert [event.payload for event in news] == [{"key": "k"}, {"key": "('svc', 'p')"}]
        stamped = {event.time for event in events}
        assert stamped == {node.stats.received["k"]}  # one receipt time for the batch

    def test_bookkeeping_without_a_sink_is_the_same_bookkeeping(self):
        membership = Membership.localhost([1, 2])
        watched = GossipNode(0, membership, NodeConfig(**QUIET))
        watched.bus.add_sink(RingBufferSink())
        unwatched = GossipNode(0, membership, NodeConfig(**QUIET))
        for node in (watched, unwatched):
            node._absorb(self._frame()[1], src=1)
        assert unwatched.bus.emitted == 0
        assert list(unwatched.stats.received) == list(watched.stats.received) == ["k", ("svc", "p")]
        assert unwatched.stats.updates_absorbed == watched.stats.updates_absorbed == 3
        assert unwatched.store.checksum == watched.store.checksum

    def test_an_awakened_certificate_is_announced_before_the_news(self):
        membership = Membership.localhost([1, 2])
        node = GossipNode(0, membership, NodeConfig(**QUIET))
        node.store.delete("zombie", retention_sites=(0,))
        assert node.store.sweep_certificates(tau1=-1.0).made_dormant == 1
        sink = node.bus.add_sink(RingBufferSink())
        obsolete = StoreUpdate("zombie", VersionedValue("old", Timestamp(1.0, 1, 0)))
        fresh = ReplicaStore(site_id=1).update("other", 1)
        applied = node._absorb({"updates": encode_batch([obsolete, fresh])}, src=1)
        assert [result.value for __, result in applied] == ["resurrection-blocked", "applied"]
        assert [(event.kind, event.payload.get("key")) for event in sink.events] == [
            (EventKind.DELIVERY_SPAN, "zombie"),
            (EventKind.DELIVERY_SPAN, "other"),
            (EventKind.DEATH_CERT_ACTIVATED, "zombie"),
            (EventKind.NEWS_RECEIVED, "zombie"),
            (EventKind.NEWS_RECEIVED, "other"),
        ]


class TestStopClosesInboundConnections:
    def test_cached_peer_reaches_the_restarted_node_not_the_dead_one(self):
        """``stop()`` used to close only the listening socket: a
        survivor's cached connection stayed open and was still answered
        by the dead node's handler out of its old store."""
        from repro.net.runner import LiveCluster

        async def scenario():
            config = NodeConfig(**{**QUIET, "retry": RetryPolicy(
                connect_timeout=0.5, io_timeout=1.0, attempts=2, backoff_base=0.01)})
            live = await LiveCluster.launch(2, config)
            try:
                survivor, doomed = live.nodes[0], live.nodes[1]
                doomed.store.update("only-on-the-dead-node", 1)
                cached = survivor.peers[1]
                status = Message(MessageType.STATUS, sender=0)
                before = (await cached.call(status)).payload["entries"]
                assert cached.connected
                await live.kill(1)
                restarted = await live.restart(1)
                after = (await cached.call(status)).payload["entries"]
                # ... and a whole conversation lands in the new store.
                survivor.store.update("fresh", 2)
                assert await survivor.run_anti_entropy_once()
                return before, after, restarted.store.get("fresh"), len(doomed.store)
            finally:
                await live.stop()

        before, after, fresh, dead_entries = asyncio.run(scenario())
        assert before == 1
        assert after == 0          # the restarted node's empty store answered
        assert fresh == 2
        assert dead_entries == 1   # nothing reached the old store

    def test_stop_with_an_open_inbound_connection_does_not_hang(self):
        async def scenario():
            async with cluster(1) as (node,):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", node.membership.get(0).port
                )
                try:
                    writer.write(encode_message(Message(MessageType.STATUS, sender=-1)))
                    await writer.drain()
                    assert (await read_message(reader)).type is MessageType.STATUS
                    assert len(node._inbound_writers) == 1
                    await asyncio.wait_for(node.stop(), timeout=5.0)
                    # The server side hung up: EOF, not a live handler.
                    return await asyncio.wait_for(reader.read(), timeout=5.0)
                finally:
                    writer.close()

        assert asyncio.run(scenario()) == b""

    def test_connection_accepted_as_the_node_stops_is_hung_up_on(self):
        """A connection accepted in the loop iteration that runs
        ``stop()`` has its ``_serve`` task created but not started, so
        ``stop()`` finds no writer to close; the task must hang up when
        it does run instead of serving the stopped node's store."""

        class Writer:
            closed = False

            def close(self):
                self.closed = True

        async def scenario():
            async with cluster(1) as (node,):
                await node.stop()
                late = Writer()
                # reader=None: touching it at all would raise
                await node._serve(None, late)
                return late.closed, len(node._inbound_writers), node.stats.inbound_errors

        assert asyncio.run(scenario()) == (True, 0, 0)


class TestInboundErrors:
    """``_serve`` used to swallow broken conversations silently."""

    @staticmethod
    async def _send_raw(node, blob: bytes) -> bytes:
        reader, writer = await asyncio.open_connection(
            "127.0.0.1", node.membership.get(0).port
        )
        try:
            writer.write(blob)
            await writer.drain()
            writer.write_eof()
            return await asyncio.wait_for(reader.read(), timeout=5.0)
        finally:
            writer.close()

    @pytest.mark.parametrize(
        "blob, error",
        [
            (b"\x00\x00\x00\x05hello", "not valid JSON"),
            (b"\x00\x00\x00\x00", "zero-length"),
            (b"\x00\x00\x01\x00{\"v\":1", "mid-frame"),
            (b"\x00\x00", "mid-header"),
        ],
        ids=["garbage-frame", "zero-length", "mid-frame-disconnect", "mid-header-disconnect"],
    )
    def test_broken_conversation_is_counted_and_announced(self, blob, error):
        async def scenario():
            async with cluster(1) as (node,):
                sink = node.bus.add_sink(RingBufferSink())
                answer = await self._send_raw(node, blob)
                # The node keeps serving, and says what it dropped.
                status = await self._send_raw(
                    node, encode_message(Message(MessageType.STATUS, sender=-1))
                )
                return (
                    answer, node.stats.inbound_errors,
                    sink.of_kind(EventKind.INBOUND_ERROR), decode_body(status[4:]),
                )

        answer, counted, events, status = asyncio.run(scenario())
        assert answer == b""
        assert counted == 1
        (event,) = events
        assert event.payload["error"] == "WireError"
        assert error in event.payload["detail"]
        family = status.payload["metrics"]["repro_inbound_errors_total"]
        assert family["type"] == "counter"
        assert [series["value"] for series in family["series"]] == [1]

    def test_clean_disconnect_is_not_an_error(self):
        async def scenario():
            async with cluster(1) as (node,):
                frame = encode_message(Message(MessageType.STATUS, sender=-1))
                assert await self._send_raw(node, frame)
                assert await self._send_raw(node, b"") == b""
                return node.stats.inbound_errors

        assert asyncio.run(scenario()) == 0
