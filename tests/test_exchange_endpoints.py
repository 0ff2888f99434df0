"""The anti-entropy endpoints of ``protocols/exchange.py``, socket-free.

Each §1.3 strategy is one initiator generator and one responder that
exchange ``Frame`` objects; the simulator's in-process driver and the
TCP node only move those frames.  These tests hold the properties that
make the two runtimes one protocol: a conversation pushed through the
node's real codec merges exactly what the in-process driver merges, the
two-sided tree walk finds what the recursive ``diff_buckets`` finds at
the same price (and still meets a one-level initiator), a refused
request touches nothing, and the module can be imported without the
network runtime.
"""

import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.items import DeathCertificate, VersionedValue
from repro.core.store import DEFAULT_BUCKET_BITS, ReplicaStore
from repro.core.timestamps import SequenceClock, Timestamp
from repro.net.membership import Membership
from repro.net.node import GossipNode, NodeConfig, _frame_of
from repro.net.wire import HEADER_BYTES, decode_body, encode_message
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import (
    ChecksumWithRecent,
    ExchangeError,
    ExchangeReport,
    Frame,
    FullCompare,
    HierarchicalChecksum,
    _offer,
    drive,
    respond,
)

from conftest import make_store

# Never started: the loopback only borrows their encoders.
NODE_A = GossipNode(0, Membership.localhost([1, 2]), NodeConfig())
NODE_B = GossipNode(1, Membership.localhost([1, 2]), NodeConfig())


def over_the_wire(frame: Frame, sender: GossipNode) -> Frame:
    """One frame as the partner reads it: ``_update_payload`` →
    ``encode_message`` → ``decode_body`` → ``payload_update_list``."""
    body = encode_message(sender._message(frame))[HEADER_BYTES:]
    return _frame_of(decode_body(body))[0]


def wired(conversation, seen=None, answers=None):
    """The initiator ``conversation`` with every request and every reply
    passed through the node's codec; ``seen`` collects the requests,
    ``answers`` the replies."""
    try:
        request = next(conversation)
        while True:
            if seen is not None:
                seen.append(request)
            reply = over_the_wire((yield over_the_wire(request, NODE_A)), NODE_B)
            if answers is not None:
                answers.append(reply)
            request = conversation.send(reply)
    except StopIteration as settled:
        return settled.value


KEYS = ["k0", "k1", "k2", "k3", 7, 2.5, True, ("svc", 1), ("svc", ("printer", 2))]
STAMPS = st.builds(
    Timestamp,
    st.sampled_from([1, 2, 3.5, 8, 19.25]),
    st.integers(0, 2),
    st.integers(0, 1),
)
VALUES = st.one_of(
    st.integers(-5, 5), st.text(max_size=3),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["a", "b"]), st.integers(0, 3), max_size=2),
)


@st.composite
def entries(draw):
    stamp = draw(STAMPS)
    if draw(st.integers(0, 3)):
        return VersionedValue(draw(VALUES), stamp)
    activation = stamp.advanced_to(stamp.time + draw(st.sampled_from([0, 4])))
    return DeathCertificate(stamp, activation, tuple(draw(st.lists(st.integers(0, 3), max_size=2))))


ROWS = st.lists(st.tuples(st.sampled_from(KEYS), entries()), max_size=12)
BITS = st.sampled_from([0, 2, 6])


def build(site: int, bits: int, rows) -> ReplicaStore:
    # The clock stands at 20: with tau=5 only the newest stamp is recent.
    store = ReplicaStore(
        site_id=site, clock=SequenceClock(site=site, start=20.0), bucket_bits=bits
    )
    for key, entry in rows:
        store.apply_entry(key, entry)
    return store


CASES = [
    (strategy, mode)
    for strategy in (FullCompare(), ChecksumWithRecent(5.0), ChecksumWithRecent(1000.0))
    for mode in ExchangeMode
] + [(HierarchicalChecksum(), ExchangeMode.PUSH_PULL)]


class TestWireLoopbackEqualsInProcess:
    @settings(max_examples=200, deadline=None)
    @given(
        case=st.sampled_from(CASES), shared=ROWS, only_a=ROWS, only_b=ROWS,
        bits_a=BITS, bits_b=BITS,
    )
    def test_same_stores_same_report(self, case, shared, only_a, only_b, bits_a, bits_b):
        """Ties on equal timestamps, death certificates, tuple keys and
        mismatched bucket counts included: the codec is transparent to
        the conversation."""
        strategy, mode = case
        a, b = build(0, bits_a, shared + only_a), build(1, bits_b, shared + only_b)
        wire_a, wire_b = build(0, bits_a, shared + only_a), build(1, bits_b, shared + only_b)
        direct = strategy.exchange(a, b, mode)
        looped = drive(wired(strategy.converse(wire_a, mode)), wire_b)
        assert looped == direct
        assert wire_a.snapshot() == a.snapshot() and wire_a.checksum == a.checksum
        assert wire_b.snapshot() == b.snapshot() and wire_b.checksum == b.checksum


def diverged(common: int, a_only: int, b_only: int, bits: int = 6):
    a = ReplicaStore(site_id=0, clock=SequenceClock(site=0), bucket_bits=bits)
    b = ReplicaStore(site_id=1, clock=SequenceClock(site=1, start=500.0), bucket_bits=bits)
    for i in range(common):
        update = a.update(f"common-{i}", i)
        b.apply_entry(update.key, update.entry)
    for i in range(a_only):
        a.update(f"a-{i}", i)
    for i in range(b_only):
        b.update(f"b-{i}", i)
    return a, b


def one_level_walk(store):
    """An initiator that walks one tree level per round trip: it sends
    the inner nodes the responder's frontier showed to differ, for the
    responder to compare again.  The loop this build's initiator replaced,
    kept to hold this build's ``respond`` to it."""
    tree = store.checksum_tree
    nodes, dirty = [(1, tree.root)], []
    while nodes:
        reply = yield Frame("tree", {"mode": "push-pull", "bits": store.bucket_bits, "nodes": nodes})
        dirty.extend(reply.fields["dirty"])
        nodes, leaves = tree.compare(reply.fields["frontier"])
        dirty.extend(leaves)
    report = ExchangeReport(via="tree")
    return (yield from _offer(
        store, ExchangeMode.PUSH_PULL, store.apply_updates, report, sorted(set(dirty))
    ))


def scripted(conversation, frontier, limit=100):
    """Drive ``conversation`` against a responder that answers every TREE
    request with ``frontier`` and no dirty bucket, for ``limit`` rounds."""
    request = next(conversation)
    for __ in range(limit):
        if request.kind != "tree":
            return
        request = conversation.send(Frame("tree", {"bits": 6, "frontier": frontier, "dirty": []}))
    raise AssertionError(f"still walking after {limit} rounds")


WALKS = [(0, 1, 0, 0), (40, 3, 2, 6), (300, 25, 40, 6), (300, 5, 5, 10), (50, 0, 1, 3)]


class TestTreeWalk:
    @pytest.mark.parametrize("common,a_only,b_only,bits", WALKS)
    def test_walk_is_diff_buckets_level_by_level(self, common, a_only, b_only, bits):
        """The reference stays the recursive ``diff_buckets``: same
        dirty buckets, and ``tree_comparisons`` keeps its meaning (the
        root, then two per differing internal node).  Each round trip
        covers two levels, one compared on each side, and every node
        compared crossed the wire once."""
        a, b = diverged(common, a_only, b_only, bits)
        dirty, comparisons = a.checksum_tree.diff_buckets(b.checksum_tree)
        requests, replies = [], []
        conversation = HierarchicalChecksum().converse(a, ExchangeMode.PUSH_PULL)
        report = drive(wired(conversation, requests, replies), b)
        assert report.tree_comparisons == comparisons
        assert requests[-1].kind == "push" and requests[-1].fields["buckets"] == dirty
        assert report.buckets_resolved == len(dirty)
        assert [r.kind for r in requests[:-1]] == ["tree"] * ((bits + 2) // 2)
        sent = sum(len(r.fields["nodes"]) for r in requests[:-1])
        sent += sum(len(r.fields["frontier"]) for r in replies[:-1])
        assert sent == comparisons
        assert report.via == "tree" and not report.full_compare
        assert a.agrees_with(b)

    @pytest.mark.parametrize("common,a_only,b_only,bits", WALKS)
    def test_one_level_initiator_meets_this_responder(self, common, a_only, b_only, bits):
        """``respond`` compares whatever nodes arrive, so an initiator
        that walks one level per round trip reaches the same dirty
        buckets and the same two stores, in ``bits`` round trips."""
        a, b = diverged(common, a_only, b_only, bits)
        old_a, old_b = diverged(common, a_only, b_only, bits)
        new, old = [], []
        drive(wired(HierarchicalChecksum().converse(a, ExchangeMode.PUSH_PULL), new), b)
        drive(wired(one_level_walk(old_a), old), old_b)
        assert old[-1].fields["buckets"] == new[-1].fields["buckets"]
        assert [r.kind for r in old[:-1]] == ["tree"] * max(bits, 1)
        assert old_a.snapshot() == a.snapshot() == old_b.snapshot() == b.snapshot()

    @pytest.mark.parametrize("frontier", [[(1, 5)], [(2, 5), (8, 5)], [(1 << 20, 5)]])
    def test_a_frontier_that_does_not_descend_is_refused(self, frontier):
        """A responder echoing the root forever used to hold a walk for
        good; now a frontier node that is no child of a node sent ends
        the conversation before anything is compared or applied."""
        a, __ = diverged(40, 3, 2)
        before = a.snapshot()
        with pytest.raises(ExchangeError, match="no child"):
            scripted(HierarchicalChecksum().converse(a, ExchangeMode.PUSH_PULL), frontier)
        assert a.snapshot() == before

    def test_an_empty_initiator_skips_the_walk(self):
        """Nothing to prune from an empty store: one offer names every
        bucket and the scoped responder serves its whole table."""
        a, b = diverged(0, 0, 50)
        requests = []
        report = drive(wired(HierarchicalChecksum().converse(a, ExchangeMode.PUSH_PULL), requests), b)
        (offer,) = requests
        assert offer.kind == "push" and offer.fields["buckets"] == list(range(a.bucket_count))
        assert report.tree_comparisons == 0 and len(report.sent_ba) == 50
        assert report.via == "tree" and not report.full_compare
        assert a.agrees_with(b)

    def test_exchange_reports_diff_buckets_comparisons(self):
        a, b = diverged(120, 4, 3)
        expected = a.checksum_tree.diff_buckets(b.checksum_tree)[1]
        report = HierarchicalChecksum().exchange(a, b, ExchangeMode.PUSH_PULL)
        assert report.tree_comparisons == expected

    def test_one_scoped_offer_for_all_dirty_buckets(self):
        """The responder is asked once, whatever the number of dirty
        buckets (the in-process copy used to ask once per bucket)."""
        a, b = diverged(200, 30, 30)
        requests = []
        drive(wired(HierarchicalChecksum().converse(a, ExchangeMode.PUSH_PULL), requests), b)
        assert [r.kind for r in requests].count("push") == 1
        assert len(requests[-1].fields["buckets"]) > 1


class TestResponderValidatesThenMutates:
    def news(self):
        update = make_store(3).update("news", 1)
        return [update]

    @pytest.mark.parametrize(
        "kind,fields,message",
        [
            ("checksum", {"mode": "push-pull", "checksum": 0, "tau": -1}, "bad tau -1"),
            ("checksum", {"mode": "push-pull", "checksum": 0, "tau": True}, "bad tau True"),
            ("checksum", {"mode": "push-pull", "checksum": 0, "tau": float("nan")}, "bad tau nan"),
            ("checksum", {"mode": "sideways", "checksum": 0, "tau": 5}, "bad exchange mode 'sideways'"),
            ("push", {"mode": None}, "bad exchange mode None"),
            (
                "push",
                {"mode": "push-pull", "buckets": [1 << DEFAULT_BUCKET_BITS], "bits": DEFAULT_BUCKET_BITS},
                "bucket index out of range",
            ),
        ],
    )
    def test_refused_request_leaves_the_store_alone(self, kind, fields, message):
        store = make_store(1)
        with pytest.raises(ExchangeError, match=message):
            respond(store, Frame(kind, {**fields, "updates": self.news()}), tau=30.0)
        assert len(store) == 0

    def test_tree_node_out_of_range_is_refused(self):
        store = make_store(1)
        for node_id in (0, 2 * store.bucket_count, 10**6):
            with pytest.raises(ExchangeError, match="out of range"):
                respond(store, Frame("tree", {"bits": store.bucket_bits, "nodes": [(1, 5), (node_id, 5)]}))

    def test_checksum_reply_is_computed_before_the_request_is_merged(self):
        """The simulator's order: what the request delivers is not news
        to send back."""
        store = make_store(1)
        reply, applied, __ = respond(
            store,
            Frame("checksum", {"mode": "push-pull", "checksum": 0, "tau": 1000.0,
                               "updates": self.news()}),
        )
        assert reply.fields["updates"] == []
        assert [result.was_news for __, result in applied] == [True]
        assert reply.fields["checksum"] == store.checksum != 0

    def test_initiator_refuses_an_error_ack(self):
        a = make_store(0)
        conversation = FullCompare().converse(a, ExchangeMode.PUSH)
        next(conversation)
        with pytest.raises(ExchangeError, match="expected ack reply, got ack: boom"):
            conversation.send(Frame("ack", {"error": "boom"}))


def test_protocols_do_not_import_the_network_runtime():
    """Layering: the endpoints are pure; only the drivers know I/O."""
    probe = (
        "import sys; import repro.protocols.exchange, repro.protocols.rumor; "
        "print([m for m in sys.modules "
        "if m in ('asyncio', 'socket') or m.startswith('repro.net')])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": ":".join(sys.path)},
    )
    assert done.stdout.strip() == "[]"
