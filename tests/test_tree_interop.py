"""Hierarchical checksums over real sockets.

Two nodes drill down the checksum tree from their very first
conversation and ship only dirty buckets, hand-written TREE frames get
the documented answers, a partner whose frontier never descends is a
failed peer, a repair between two large nodes ships what differs and an
empty node catches up without a walk, and the live runtime's merge
result is byte-for-byte the same database the simulator's
``HierarchicalChecksum`` produces from identical starting states (at
the node's bucket count).
"""

import asyncio
import dataclasses
import json
import struct
import time

import pytest

from repro.core.items import make_entry
from repro.core.store import ReplicaStore
from repro.core.timestamps import SequenceClock, SimClock, Timestamp
from repro.net.node import NODE_BUCKET_BITS, NodeConfig
from repro.net.peer import RetryPolicy
from repro.net.runner import LiveCluster
from repro.net.wire import HEADER_BYTES
from repro.obs.events import EventKind, RingBufferSink
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import Frame, HierarchicalChecksum, strategy_for

# Loops effectively disabled: every exchange below is driven by hand,
# so the assertions see exactly one conversation at a time.
MANUAL = NodeConfig(
    anti_entropy_interval=60.0,
    rumor_interval=60.0,
    strategy="hierarchical",
    retry=RetryPolicy(connect_timeout=1.0, io_timeout=2.0, attempts=2),
)


def ts(t: float, site: int = 0, seq: int = 0) -> Timestamp:
    return Timestamp(t, site, seq)


async def raw_call(host, port, body: dict) -> dict:
    """Speak the wire by hand — what a from-source peer build sends."""
    reader, writer = await asyncio.open_connection(host, port)
    try:
        blob = json.dumps(body).encode()
        writer.write(struct.pack(">I", len(blob)) + blob)
        await writer.drain()
        (length,) = struct.unpack(">I", await reader.readexactly(HEADER_BYTES))
        return json.loads(await reader.readexactly(length))
    finally:
        writer.close()


def seed(node, items) -> None:
    for key, value, stamp in items:
        node.store.apply_entry(key, make_entry(value, stamp))


class TestFirstContact:
    def test_first_conversation_walks_the_tree(self):
        """No version to learn first: the first exchange a hierarchical
        node ever initiates drills down, and ships the one dirty bucket
        rather than its table."""

        async def scenario():
            cluster = await LiveCluster.launch(2, MANUAL)
            n0, n1 = cluster.nodes[0], cluster.nodes[1]
            try:
                shared = [(f"key-{i}", i, ts(float(i), site=2)) for i in range(200)]
                seed(n0, shared)
                seed(n1, shared)
                seed(n0, [("only-at-0", "x", ts(500.0))])
                assert await n0.run_anti_entropy_once()
                return (
                    n0.stats.tree_rounds,
                    n1.stats.tree_rounds,
                    n0.stats.updates_shipped,
                    n0.stats.frames_sent,
                    n0.store.agrees_with(n1.store),
                )
            finally:
                await cluster.stop()

        rounds0, rounds1, shipped, frames, agrees = asyncio.run(scenario())
        assert rounds0 >= 1 and rounds1 >= 1  # both sides counted the walk
        assert frames["tree"] == rounds0 and frames["push"] == 1
        assert 1 <= shipped <= 20             # one bucket of ~200/1024, not 201 entries
        assert agrees


class TestTreeFrames:
    def test_raw_tree_request_expands_the_differing_root(self):
        async def scenario():
            cluster = await LiveCluster.launch(2, MANUAL)
            n0 = cluster.nodes[0]
            try:
                seed(n0, [("k", "v", ts(1.0))])
                info = cluster.membership.get(0)
                tree = n0.store.checksum_tree
                wrong_root = tree.root ^ 1
                reply = await raw_call(
                    info.host,
                    info.port,
                    {
                        "v": 3,
                        "max": 3,
                        "type": "tree",
                        "sender": 77,
                        "payload": {
                            "mode": "push-pull",
                            "bits": n0.store.bucket_bits,
                            "nodes": [[1, wrong_root]],
                        },
                    },
                )
                left, right = tree.children(1)
                expected = [[left, tree.node(left)], [right, tree.node(right)]]
            finally:
                await cluster.stop()
            return reply, expected

        reply, expected = asyncio.run(scenario())
        assert reply["type"] == "tree"
        assert reply["payload"]["frontier"] == expected
        assert reply["payload"]["dirty"] == []

    def test_bucket_count_mismatch_is_refused_not_guessed(self):
        async def scenario():
            cluster = await LiveCluster.launch(2, MANUAL)
            try:
                info = cluster.membership.get(0)
                bits = cluster.nodes[0].store.bucket_bits
                reply = await raw_call(
                    info.host,
                    info.port,
                    {
                        "v": 3,
                        "max": 3,
                        "type": "tree",
                        "sender": 77,
                        "payload": {
                            "mode": "push-pull",
                            "bits": bits + 1,
                            "nodes": [[1, 0]],
                        },
                    },
                )
            finally:
                await cluster.stop()
            return reply, bits

        reply, bits = asyncio.run(scenario())
        assert reply["payload"]["mismatch"] is True
        assert reply["payload"]["bits"] == bits

    def test_a_frontier_that_never_descends_is_a_failed_peer(self):
        """A partner answering every TREE request with the root again
        used to hold the walk, and an in-flight slot, forever.  Now each
        conversation ends after one round as a peer failure, and the
        initiator hunts."""

        async def scenario():
            cluster = await LiveCluster.launch(2, MANUAL)
            n0, n1 = cluster.nodes[0], cluster.nodes[1]
            try:
                seed(n0, [("k", "v", ts(1.0))])
                answered = []

                def echo_the_root(message):
                    answered.append(message)
                    if len(answered) > 50:  # a walk that is never refused ends here
                        return n1._ack({"error": "still walking"})
                    frontier = [(1, 5)]
                    return n1._message(Frame("tree", {"bits": n1.store.bucket_bits, "frontier": frontier}))

                n1._answer_exchange = echo_the_root
                ran = await n0.run_anti_entropy_once()
                stats = n0.stats
                return ran, stats.tree_rounds, stats.peer_failures, stats.hunts, len(n1.store)
            finally:
                await cluster.stop()

        ran, rounds, failures, hunts, held = asyncio.run(scenario())
        attempts = MANUAL.hunt_limit + 1
        assert not ran
        assert rounds == failures == attempts and hunts == attempts - 1
        assert held == 0


class TestLargeStores:
    """Two 20 000-key nodes, as perfbench's ``live-repair`` holds them."""

    KEYS = 20_000

    def test_repair_ships_what_differs_and_catch_up_skips_the_walk(self):
        async def scenario():
            cluster = await LiveCluster.launch(2, MANUAL)
            n0 = cluster.nodes[0]
            try:
                source = ReplicaStore(site_id=2)
                rows = [source.update(f"key-{i:06d}", f"value-{i}") for i in range(self.KEYS)]
                for node in cluster.nodes.values():
                    for row in rows:
                        node.store.apply_entry(row.key, row.entry)
                # 16 rewritten keys in 16 buckets.
                buckets = {}
                for row in rows:
                    buckets.setdefault(n0.store.bucket_of(row.key), row.key)
                    if len(buckets) == 16:
                        break
                for key in buckets.values():
                    n0.store.update(key, "rewritten")

                def shipped():
                    return sum(node.stats.updates_shipped for node in cluster.nodes.values())

                assert await n0.run_anti_entropy_once()
                repair = (n0.stats.tree_rounds, shipped(), n0.store.agrees_with(cluster.nodes[1].store))

                await cluster.kill(1)
                await n0.peers[1].close()  # the killed node's connection
                restarted = await cluster.restart(1)
                before = (n0.stats.tree_rounds, n0.stats.frames_received.get("tree", 0))
                assert await restarted.run_anti_entropy_once()
                catch_up = (
                    restarted.stats.tree_rounds,
                    restarted.stats.frames_sent.get("tree", 0),
                    (n0.stats.tree_rounds, n0.stats.frames_received.get("tree", 0)) == before,
                    restarted.stats.exchanges,
                    len(restarted.store),
                    restarted.store.agrees_with(n0.store),
                )
                return repair, catch_up
            finally:
                await cluster.stop()

        (rounds, shipped, agrees), catch_up = asyncio.run(scenario())
        assert rounds <= 6
        assert 16 <= shipped < 1_000  # 16 leaves of ≈ 20 keys, not of ≈ 313
        assert agrees
        assert catch_up == (0, 0, True, 1, self.KEYS, True)


def _divergent_states():
    """Shared history plus one-sided edits, as (key, value, stamp) rows."""
    shared = [(f"key-{i}", f"shared-{i}", ts(float(i), site=2)) for i in range(120)]
    only_a = [("key-3", "rewritten", ts(500.0, site=0)), ("fresh-a", "a", ts(501.0, site=0))]
    only_b = [("fresh-b", "b", ts(502.0, site=1))]
    return shared, only_a, only_b


class TestSimLiveEquivalence:
    def test_live_tree_merge_equals_sim_exchange(self):
        """Acceptance criterion: the same divergent pair of databases,
        merged once by the simulator's strategy object and once by two
        live nodes over TREE frames, ends in the identical state."""
        shared, only_a, only_b = _divergent_states()

        sim_a = ReplicaStore(site_id=0, clock=SequenceClock(site=0), bucket_bits=NODE_BUCKET_BITS)
        sim_b = ReplicaStore(site_id=1, clock=SequenceClock(site=1), bucket_bits=NODE_BUCKET_BITS)
        for store in (sim_a, sim_b):
            for key, value, stamp in shared:
                store.apply_entry(key, make_entry(value, stamp))
        for key, value, stamp in only_a:
            sim_a.apply_entry(key, make_entry(value, stamp))
        for key, value, stamp in only_b:
            sim_b.apply_entry(key, make_entry(value, stamp))
        report = HierarchicalChecksum().exchange(sim_a, sim_b, ExchangeMode.PUSH_PULL)
        assert sim_a.agrees_with(sim_b)
        assert report.buckets_resolved >= 1

        async def scenario():
            cluster = await LiveCluster.launch(2, MANUAL)
            n0, n1 = cluster.nodes[0], cluster.nodes[1]
            try:
                seed(n0, shared)
                seed(n1, shared)
                seed(n0, only_a)
                seed(n1, only_b)
                before = n0.stats.tree_rounds
                assert await n0.run_anti_entropy_once()
                return (
                    n0.store.snapshot(),
                    n1.store.snapshot(),
                    n0.stats.tree_rounds - before,
                    n0.stats.entries_avoided,
                    n0.store.agrees_with(n1.store),
                )
            finally:
                await cluster.stop()

        live_a, live_b, rounds, avoided, agrees = asyncio.run(scenario())
        assert rounds >= 1
        assert agrees
        # Bucket scoping really engaged: most of the 120-row shared
        # history never crossed the wire.
        assert avoided > 0
        # Live and sim runtimes converged to the same database.
        assert live_a == live_b == sim_a.snapshot() == sim_b.snapshot()

    @pytest.mark.parametrize("deep", [False, True], ids=["recent", "deep"])
    @pytest.mark.parametrize(
        "strategy,mode",
        [(name, mode) for name in ("full", "checksum") for mode in ExchangeMode]
        + [("hierarchical", ExchangeMode.PUSH_PULL)],
    )
    def test_live_conversation_is_the_sim_conversation(self, strategy, mode, deep):
        """Every strategy, every mode it allows: one divergent pair
        merged by ``strategy.exchange`` and by two live nodes ends in the
        same two databases, having put the same number of entries on the
        wire and found the same number to be news, in each direction."""
        now = time.time()
        shared = [(f"key-{i}", i, ts(now - 900.0 + i, site=2)) for i in range(80)]
        # Edits inside the checksum strategy's 30 s window on both sides
        # (one of them a conflict b wins) ...
        only_a = [("key-3", "a3", ts(now - 3.0, site=0)), ("fresh-a", "a", ts(now - 2.0, site=0))]
        only_b = [("key-3", "b3", ts(now - 1.0, site=1)), ("fresh-b", "b", ts(now - 4.0, site=1))]
        if deep:
            # ... and, "deep", divergence older than the window, which
            # sends the checksum strategy on to its full comparison.
            only_a.append(("old-a", "a", ts(now - 800.0, site=0)))
            only_b.append(("old-b", "b", ts(now - 700.0, site=1)))

        # At the node's bucket count, so the in-process walk compares and
        # ships what the live one does.
        sims = [
            ReplicaStore(
                site_id=site,
                clock=SimClock(site=site, time_source=time.time),
                bucket_bits=NODE_BUCKET_BITS,
            )
            for site in (0, 1)
        ]
        for store, own in zip(sims, (only_a, only_b)):
            for key, value, stamp in shared + own:
                store.apply_entry(key, make_entry(value, stamp))
        report = strategy_for(strategy, tau=30.0).exchange(sims[0], sims[1], mode)

        async def scenario():
            config = dataclasses.replace(MANUAL, strategy=strategy, mode=mode, tau=30.0)
            cluster = await LiveCluster.launch(2, config)
            n0, n1 = cluster.nodes[0], cluster.nodes[1]
            sink = n0.bus.add_sink(RingBufferSink())
            try:
                seed(n0, shared + only_a)
                seed(n1, shared + only_b)
                assert await n0.run_anti_entropy_once()
                (settled,) = sink.of_kind(EventKind.EXCHANGE_SETTLED)
                return (
                    n0.store.snapshot(), n1.store.snapshot(), settled.payload,
                    (n0.stats.updates_shipped, n1.stats.updates_shipped),
                    (n1.stats.updates_absorbed, n0.stats.updates_absorbed),
                    n0.stats.peer_failures + n1.stats.inbound_errors,
                )
            finally:
                await cluster.stop()

        live_a, live_b, settled, wire, news, damage = asyncio.run(scenario())
        assert live_a == sims[0].snapshot() and live_b == sims[1].snapshot()
        assert wire == (report.wire_ab, report.wire_ba)
        assert news == (len(report.sent_ab), len(report.sent_ba))
        assert (settled["via"], settled["shipped"], settled["received"]) == (
            report.via, report.wire_ab, report.wire_ba,
        )
        assert damage == 0
        if mode is ExchangeMode.PUSH_PULL:
            assert live_a == live_b
            if strategy == "checksum":
                # (One-way modes leave the checksums apart whenever the
                # other side had news, and always go on to compare.)
                assert report.via == ("checksum+full" if deep else "checksum")
