"""Live introspection: STATUS frames over real sockets, the
``repro status`` client, and event-driven report assembly."""

import asyncio
import dataclasses
import json

from repro.core.serialize import encode_batch
from repro.core.store import ReplicaStore
from repro.net.membership import Membership
from repro.net.node import GossipNode, NodeConfig, NodeStats
from repro.net.peer import RetryPolicy
from repro.net.runner import LiveCluster, live_demo, query_status
from repro.net.wire import (
    PROTOCOL_VERSION,
    Message,
    MessageType,
    encode_message,
    read_message,
)
from repro.obs.convergence import ConvergenceTracker
from repro.obs.events import EventKind, RingBufferSink, read_trace

FAST = NodeConfig(
    anti_entropy_interval=0.05,
    rumor_interval=0.02,
    retry=RetryPolicy(connect_timeout=1.0, io_timeout=2.0, attempts=2),
)

BOUND_SECONDS = 15.0
KEY = "printer:bldg-35"


class TestStatusOverTheWire:
    def test_status_reply_carries_census_and_metrics(self):
        async def scenario():
            cluster = await LiveCluster.launch(3, FAST)
            try:
                await cluster.inject(0, KEY, "10.0.7.12")
                await cluster.wait_converged(KEY, timeout=BOUND_SECONDS)
                return await cluster.status_all()
            finally:
                await cluster.stop()

        statuses = asyncio.run(scenario())
        assert sorted(statuses) == [0, 1, 2]
        for node_id, payload in statuses.items():
            assert payload["node"] == node_id
            assert payload["roster_size"] == 3
            assert payload["uptime_seconds"] >= 0.0
            assert payload["entries"] == 1
            assert KEY in payload["received"]
            census = payload["census"]
            assert census["infective"] + census["removed"] == payload["entries"]
            metrics = payload["metrics"]
            assert metrics["repro_exchanges_total"]["type"] == "counter"
            # STATUS payloads must survive JSON (they cross the wire).
            json.dumps(payload)

    def test_query_status_from_a_roster_file(self, tmp_path):
        roster = tmp_path / "roster.json"

        async def scenario():
            cluster = await LiveCluster.launch(2, FAST)
            try:
                cluster.membership.dump(roster)
                await cluster.inject(1, KEY, "x")
                return await query_status(str(roster), 1)
            finally:
                await cluster.stop()

        payload = asyncio.run(scenario())
        assert payload["node"] == 1
        assert KEY in payload["received"]
        assert payload["config"]["mode"] == FAST.mode.value


    def test_converged_reads_a_node_that_is_refusing_gossip(self):
        """A node at its connection limit refuses conversations, not
        introspection, so the harness can still tell it has converged."""

        async def scenario():
            parked = NodeConfig(anti_entropy_interval=3600.0, rumor_interval=3600.0)
            cluster = await LiveCluster.launch(2, parked)
            try:
                await cluster.inject(0, KEY, "x")
                assert await cluster.nodes[0].run_anti_entropy_once()
                busy = cluster.nodes[1]
                busy._inbound_active = busy.config.connection_limit
                try:
                    return await cluster.converged(KEY)
                finally:
                    busy._inbound_active = 0
            finally:
                await cluster.stop()

        assert asyncio.run(scenario()) is True

    def test_bogus_senders_leave_no_state(self):
        """``sender`` is whatever the connecting socket wrote: a
        thousand distinct made-up ids grow no attribute of the node,
        and STATUS has no per-peer wire state to report at all."""

        def sizes(node):
            return {
                name: len(value)
                for name, value in vars(node).items()
                if hasattr(value, "__len__")
            }

        async def scenario():
            # Timers parked: nothing but the bogus frames touches node 0.
            parked = NodeConfig(anti_entropy_interval=3600.0, rumor_interval=3600.0)
            cluster = await LiveCluster.launch(3, parked)
            try:
                await cluster.inject(0, KEY, "x")
                node = cluster.nodes[0]
                wire = (await cluster.status(0))["wire"]
                before = sizes(node)
                info = cluster.membership.get(0)
                reader, writer = await asyncio.open_connection(info.host, info.port)
                try:
                    for bogus in range(1000, 2000):
                        kind, payload = (
                            (MessageType.MAIL, {"read": KEY})
                            if bogus % 2
                            else (MessageType.STATUS, {})
                        )
                        writer.write(
                            encode_message(
                                Message(type=kind, sender=bogus, payload=payload)
                            )
                        )
                        await writer.drain()
                        reply = await asyncio.wait_for(read_message(reader), 5.0)
                        assert reply is not None and reply.sender == 0
                    during = sizes(node)
                finally:
                    writer.close()
                return wire, before, during
            finally:
                await cluster.stop()

        wire, before, during = asyncio.run(scenario())
        assert wire == {"version": PROTOCOL_VERSION}
        assert before["peers"] == 2 and before["_hot"] == 1
        # The one difference: the connection the frames arrived on.
        assert during == {**before, "_inbound_writers": before["_inbound_writers"] + 1}


class TestStatusStaysSmall:
    def test_a_node_that_learned_50000_keys_still_answers_in_one_small_frame(self):
        """``received`` grows with the store; the replies must not, or
        the node stops being observable near 540 k keys."""
        node = GossipNode(0, Membership.localhost([1, 2]), NodeConfig())
        source = ReplicaStore(site_id=1)
        updates = [source.update(f"key-{index:07d}", index) for index in range(50_000)]
        node._absorb({"updates": encode_batch(updates)}, src=1)
        assert len(node.stats.received) == 50_000
        reply = node._dispatch(Message(MessageType.STATUS, sender=-1))
        assert len(encode_message(reply)) < 256 * 1024
        assert reply.payload["received_total"] == 50_000
        receipts = reply.payload["received"]
        # The newest receipts, oldest of them first.
        assert list(receipts) == [f"key-{index:07d}" for index in range(48_976, 50_000)]
        assert receipts["key-0049999"] == node.stats.received["key-0049999"]

    def test_a_small_node_reports_every_receipt(self):
        node = GossipNode(0, Membership.localhost([1, 2]), NodeConfig())
        node.inject("a", 1)
        node.inject(("svc", "p"), 2)
        payload = node.status_payload()
        assert list(payload["received"]) == ["a", "('svc', 'p')"]
        assert payload["received_total"] == 2

    def test_converged_on_a_key_past_the_newest_receipts(self):
        """A node's STATUS carries only its newest receipts; convergence
        on a key is judged by the stores, which hold it however many
        keys arrived after it."""

        async def scenario():
            quiet = dataclasses.replace(FAST, anti_entropy_interval=3600.0, rumor_interval=3600.0)
            cluster = await LiveCluster.launch(2, quiet)
            try:
                await cluster.inject(0, KEY, "10.0.7.12")
                origin = cluster.nodes[0]
                for index in range(NodeStats.RECEIPTS_IN_STATUS + 76):
                    origin.inject(f"key-{index}", index)
                await origin.run_anti_entropy_once()
                receipts = (await cluster.status(1))["received"]
                return KEY in receipts, await cluster.converged(KEY)
            finally:
                await cluster.stop()

        in_status, converged = asyncio.run(scenario())
        assert not in_status
        assert converged


class TestEventDrivenReport:
    def test_trace_replay_reproduces_the_printed_report(self, tmp_path):
        """Acceptance criterion: residue / t_ave / t_last recomputed
        from the JSONL trace equal the report's values exactly."""
        trace = tmp_path / "run.jsonl"
        metrics = tmp_path / "metrics.json"
        report = asyncio.run(
            live_demo(
                nodes=3,
                config=FAST,
                timeout=BOUND_SECONDS,
                trace_file=str(trace),
                metrics_file=str(metrics),
            )
        )
        assert report.converged

        replayed = ConvergenceTracker.from_events(read_trace(trace))
        assert replayed.n == 3 and replayed.key == KEY
        assert replayed.residue == report.residue
        assert replayed.t_ave == report.t_ave
        assert replayed.t_last == report.t_last
        assert replayed.traffic_per_site == report.updates_per_site
        for row in report.nodes:
            assert replayed.delay_of(row.node_id) == row.receipt_delay

        blob = json.loads(metrics.read_text())
        assert sorted(blob) == ["0", "1", "2"]
        assert blob["0"]["metrics"]["repro_updates_shipped_total"]["type"] == "counter"

    def test_report_to_dict_is_json_safe(self):
        report = asyncio.run(live_demo(nodes=3, config=FAST, timeout=BOUND_SECONDS))
        blob = json.loads(json.dumps(report.to_dict()))
        assert blob["n"] == 3
        assert blob["converged"] is True
        assert isinstance(blob["nodes"], list) and len(blob["nodes"]) == 3
        assert {"node_id", "entries", "receipt_delay"} <= set(blob["nodes"][0])

    def test_cluster_bus_streams_exchange_events(self):
        async def scenario():
            sink = RingBufferSink()
            cluster = await LiveCluster.launch(3, FAST)
            cluster.bus.add_sink(sink)
            try:
                await cluster.inject(0, KEY, "x")
                await cluster.wait_converged(KEY, timeout=BOUND_SECONDS)
            finally:
                await cluster.stop()
            return sink

        sink = asyncio.run(scenario())
        injected = sink.of_kind(EventKind.UPDATE_INJECTED)
        assert [e.node for e in injected] == [0]
        assert injected[0].payload["key"] == KEY
        news = sink.of_kind(EventKind.NEWS_RECEIVED)
        assert {e.node for e in news} == {0, 1, 2}
        assert sink.of_kind(EventKind.EXCHANGE_SETTLED), "no settled exchanges seen"
