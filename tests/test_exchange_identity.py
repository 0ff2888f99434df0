"""The whole-table offer, settled by entry identity first.

Stores in one process share the entries they ship, and entries are
immutable, so ``ExchangeSession.respond`` drops every offered entry
that *is* the object it already holds before it judges anything.  These
tests hold what that rests on and what it must not change:

* the new ``respond`` equals the row loop it replaced — transcribed
  below, verbatim, as the reference — on every shape of offer;
* on a converged pair the judgement runs, and a row is built, only for
  the keys that differ (counts, never clocks), while every entry still
  counts as examined;
* over real sockets the offer is still the whole table, in the frames
  the previous build wrote;
* the four value types the shortcut trusts are frozen.
"""

import asyncio
import dataclasses
import json
import socket

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.store as store_module
import repro.protocols.exchange as exchange_module
from repro.core.items import DeathCertificate, VersionedValue
from repro.core.serialize import decode_batch, encode_batch
from repro.core.store import ReplicaStore, StoreUpdate, UpdateList
from repro.core.timestamps import SequenceClock, Timestamp
from repro.net.membership import Membership
from repro.net.node import GossipNode, NodeConfig
from repro.obs.events import EventKind, RingBufferSink
from repro.protocols.base import ExchangeMode, entry_beats
from repro.protocols.exchange import ExchangeSession, FullCompare

from conftest import QUIET
from test_store_pins import _Counter
from test_wire_form import RecordingProxy


def reference_respond(store, mode, offered, scope=None):
    """``ExchangeSession.respond`` as it stood before the identity
    passes: one ``entry_beats`` decision per offered row, then one pass
    over the local-only keys.  Kept here as the reference."""
    pushes = mode.pushes
    pulls = mode.pulls
    send_back = []
    offered_keys = set()
    to_apply = []
    examined = 0
    for update in offered:
        key = update.key
        offered_keys.add(key)
        local = store.entry(key)
        examined += 1
        if pushes and entry_beats(update.entry, local):
            to_apply.append(update)
        elif pulls and entry_beats(local, update.entry):
            send_back.append(StoreUpdate(key=key, entry=local))
    local_entries = store.entries() if scope is None else scope
    for key, entry in local_entries:
        if key in offered_keys:
            continue
        examined += 1
        if pulls:
            send_back.append(StoreUpdate(key=key, entry=entry))
    results = store.apply_updates(to_apply)
    return to_apply, results, send_back, examined


KEYS = ["k0", "k1", "k2", "k3", "k4", 7, 2.5, True, ("svc", 1), ("svc", ("printer", 2))]
STAMPS = st.builds(
    Timestamp, st.sampled_from([1, 2, 3.5, 8]), st.integers(0, 2), st.integers(0, 1)
)


@st.composite
def entries(draw):
    stamp = draw(STAMPS)
    if draw(st.integers(0, 2)):
        return VersionedValue(draw(st.integers(-3, 3)), stamp)
    # Activation 0 or 4 later: two copies of one certificate can differ
    # in nothing but a reactivation.
    activation = stamp.advanced_to(stamp.time + draw(st.sampled_from([0, 4])))
    return DeathCertificate(stamp, activation, tuple(draw(st.lists(st.integers(0, 3), max_size=2))))


ROWS = st.lists(st.tuples(st.sampled_from(KEYS), entries()), max_size=10)
BITS = 2


def build(site, rows):
    store = ReplicaStore(site_id=site, clock=SequenceClock(site=site, start=20.0), bucket_bits=BITS)
    for key, entry in rows:
        store.apply_entry(key, entry)
    return store


def twin(entry):
    """An equal entry that is another object."""
    return dataclasses.replace(entry)


def reactivated(entry):
    """A certificate's later reactivation (same ordinary timestamp);
    for a value, just its twin."""
    return entry.reactivated(entry.activation_timestamp.time + 9) if entry.is_deletion else twin(entry)


class TestRespondEqualsTheRowLoop:
    @settings(max_examples=300, deadline=None)
    @given(
        mode=st.sampled_from(list(ExchangeMode)),
        shape=st.sampled_from(["table", "list", "scoped", "columns", "renamed"]),
        shared=ROWS, copied=ROWS, woken=ROWS, only_a=ROWS, only_b=ROWS,
        second_version=st.none() | st.tuples(st.sampled_from(KEYS), entries(), st.integers(0, 30)),
        buckets=st.sets(st.integers(0, 2**BITS - 1)),
    )
    def test_same_decisions_same_stores(
        self, mode, shape, shared, copied, woken, only_a, only_b, second_version, buckets
    ):
        """``shared`` rows are one object in both stores, ``copied``
        rows equal but distinct, ``woken`` rows differ by a certificate
        reactivation, the rest differ outright or exist on one side.
        ``columns`` is the list offer as a live node receives it: encoded,
        through JSON, and decoded into columns sharing nothing.
        ``renamed`` offers the table to a store of the same size that
        holds one key the offer does not name in place of one it does
        (``only_b`` rewrites some of the rest): the key counts alone must
        not rule the local-only pass out."""
        rows_a = shared + copied + woken + only_a
        rows_b = (
            shared
            + [(key, twin(entry)) for key, entry in copied]
            + [(key, reactivated(entry)) for key, entry in woken]
            + only_b
        )
        a = build(0, rows_a)
        if shape == "renamed":
            held = list(a.entries())
            unheld = [key for key in KEYS if a.entry(key) is None]
            if held and unheld:
                position = (second_version[2] if second_version else 0) % len(held)
                held[position] = (unheld[0], held[position][1])
            names = dict(held)
            rows_b = held + [(key, entry) for key, entry in only_b if key in names]
        new, old = build(1, rows_b), build(1, rows_b)
        scope_new = scope_old = None
        if shape in ("table", "renamed"):
            offered = ExchangeSession(a, mode).offer()
            assert isinstance(offered, UpdateList) and len(offered) == len(a)
        elif shape in ("list", "columns"):
            offered = list(a.updates())
            if second_version is not None:
                # Two versions of one key in one frame: judged row by row.
                key, entry, position = second_version
                offered.insert(position % (len(offered) + 1), StoreUpdate(key, entry))
            if shape == "columns":
                offered = decode_batch(json.loads(json.dumps(encode_batch(offered))))
        else:
            chosen = sorted(buckets)
            offered = [StoreUpdate(*pair) for bucket in chosen for pair in a.bucket_entries(bucket)]
            scope_new = [key for bucket in chosen for key in new.bucket_keys(bucket)]
            scope_old = [pair for bucket in chosen for pair in old.bucket_entries(bucket)]

        reply = ExchangeSession(new, mode).respond(offered, scope=scope_new)
        applied, results, send_back, examined = reference_respond(old, mode, offered, scope_old)

        assert reply.applied == applied and reply.applied_results == results
        if shape not in ("table", "renamed"):
            # What is applied are the offer's own entries, one object
            # per row of a decoded offer.
            assert [id(u.entry) for u in reply.applied] == [id(u.entry) for u in applied]
        assert reply.send_back == send_back
        assert reply.entries_examined == examined
        assert new.snapshot() == old.snapshot() and new.checksum == old.checksum
        assert list(new.keys()) == list(old.keys())

    def test_the_table_is_a_snapshot_that_iterates_as_the_old_list(self):
        a = build(0, [(key, VersionedValue(index, Timestamp(index, 0, 0))) for index, key in enumerate(KEYS)])
        offer = ExchangeSession(a).offer()
        rows = list(offer)
        a.update("later", 1)
        assert len(offer) == len(KEYS) == len(rows)
        assert rows == [StoreUpdate(key, a.entry(key)) for key in KEYS]
        # Built once: a second reader sees the same row objects.
        assert [id(row) for row in offer] == [id(row) for row in rows]


class TestWorkFollowsTheDifference:
    N, K = 1024, 5

    def converged_pair(self):
        a = ReplicaStore(site_id=0, clock=SequenceClock(site=0))
        b = ReplicaStore(site_id=1, clock=SequenceClock(site=1, start=5000.0))
        for index in range(self.N):
            update = a.update(f"key-{index}", index)
            b.apply_entry(update.key, update.entry)
        assert FullCompare().exchange(a, b, ExchangeMode.PUSH_PULL).updates_shipped == 0
        return a, b

    def test_judgements_and_rows_are_bounded_by_the_rewritten_keys(self, monkeypatch):
        a, b = self.converged_pair()
        for index in range(self.K):
            (a if index % 2 else b).update(f"key-{index * 100}", "rewritten")
        judged = _Counter(exchange_module.entry_beats)
        built = _Counter(StoreUpdate)
        monkeypatch.setattr(exchange_module, "entry_beats", judged)
        monkeypatch.setattr(exchange_module, "StoreUpdate", built)
        monkeypatch.setattr(store_module, "StoreUpdate", built)
        report = FullCompare().exchange(a, b, ExchangeMode.PUSH_PULL)
        # The rows the simulator reads (``_exchange_live`` hands each
        # shipped update to the cluster) are the only ones built.
        list(report.sent_ab), list(report.sent_ba)
        assert report.entries_examined == self.N  # examined, only faster
        assert report.wire_ab == self.N and report.updates_shipped == self.K
        assert 0 < judged.calls <= 2 * self.K
        assert 0 < built.calls <= 2 * self.K
        assert a.agrees_with(b) and a.checksum == b.checksum

    def test_the_responder_never_iterates_its_table(self, monkeypatch):
        """Counts, never clocks: each offered key is looked up once to
        settle it, only the rewritten ones again, and a responder that
        holds no key the offer does not name never walks its table."""
        a, b = self.converged_pair()
        for index in range(self.K):
            (a if index % 2 else b).update(f"key-{index * 100}", "rewritten")
        iterated = _Counter(ReplicaStore.keys)
        looked_up = []
        entries_for = ReplicaStore.entries_for

        def counted_entries_for(store, keys, absent=None):
            keys = list(keys)
            looked_up.extend(keys)
            return entries_for(store, keys, absent)

        monkeypatch.setattr(ReplicaStore, "keys", lambda store: iterated(store))
        monkeypatch.setattr(ReplicaStore, "entries_for", counted_entries_for)
        report = FullCompare().exchange(a, b, ExchangeMode.PUSH_PULL)
        assert iterated.calls == 0
        assert 0 < len(looked_up) <= 2 * self.K
        assert report.entries_examined == self.N and report.updates_shipped == self.K

        b.update("key-7", "rewritten")
        b.update("only-here", 1)
        reply = ExchangeSession(b, ExchangeMode.PULL).respond(ExchangeSession(a).offer())
        assert iterated.calls == 1
        assert list(reply.send_back.keys) == ["key-7", "only-here"]
        assert reply.entries_examined == self.N + 1

    def test_a_decoded_offer_takes_every_comparison_it_took(self, monkeypatch):
        """Nothing is shared with a table that came off a wire: the
        shortcut neither helps nor skips a decision."""
        a, b = self.converged_pair()
        offered = [StoreUpdate(update.key, dataclasses.replace(update.entry)) for update in a.updates()]
        judged = _Counter(exchange_module.entry_beats)
        monkeypatch.setattr(exchange_module, "entry_beats", judged)
        reply = ExchangeSession(b).respond(offered)
        assert judged.calls == 2 * self.N
        assert reply.entries_examined == self.N and not reply.applied and not reply.send_back


def respond_both(rows_a, rows_b, mode, shape):
    """``respond`` and the reference row loop on one offer of
    ``rows_a`` (a ``table``, a ``list`` of rows, or ``columns`` decoded
    off a wire) to two stores of ``rows_b``."""
    a, new, old = build(0, rows_a), build(1, rows_b), build(1, rows_b)
    offered = ExchangeSession(a, mode).offer() if shape == "table" else list(a.updates())
    if shape == "columns":
        offered = decode_batch(json.loads(json.dumps(encode_batch(offered))))
    reply = ExchangeSession(new, mode).respond(offered)
    applied, results, send_back, examined = reference_respond(old, mode, offered)
    assert reply.applied == applied and reply.applied_results == results
    assert reply.send_back == send_back and reply.entries_examined == examined
    assert new.snapshot() == old.snapshot()
    return reply


def value(index, site=0):
    return VersionedValue(index, Timestamp(index + 1, site, 0))


class TestTheKeyCountsRuleOutTheScan:
    """The local-only pass is skipped only when the offer names each key
    once, no scope is given, and the store holds exactly as many keys as
    the offer names and it holds.  Each test below breaks one of those."""

    def test_a_key_named_twice_does_not_stand_for_another(self):
        store = build(1, [("k0", value(0)), ("k1", value(1))])
        offered = [StoreUpdate("k0", value(0)), StoreUpdate("k0", value(2))]
        reply = ExchangeSession(store, ExchangeMode.PULL).respond(offered)
        assert list(reply.send_back.keys) == ["k1"]
        assert reply.entries_examined == 3

    @pytest.mark.parametrize("shape", ["table", "list", "columns"])
    def test_equal_counts_of_different_keys(self, shape):
        reply = respond_both(
            [("k0", value(0)), ("k1", value(1))], [("k1", value(1)), ("k2", value(2))],
            ExchangeMode.PUSH_PULL, shape,
        )
        assert list(reply.send_back.keys) == ["k2"] and list(reply.applied.keys) == ["k0"]

    def test_a_scoped_offer_always_scans_its_scope(self):
        class Scope(list):
            iterated = 0

            def __iter__(self):
                Scope.iterated += 1
                return super().__iter__()

        a = build(0, [(key, value(index)) for index, key in enumerate(KEYS)])
        bucket = a.bucket_of(KEYS[0])
        offered = [StoreUpdate(*pair) for pair in a.bucket_entries(bucket)]
        # The responder holds just the offered keys: the counts alone
        # would rule the scan out.
        b = build(1, [(update.key, update.entry) for update in offered])
        reply = ExchangeSession(b).respond(offered, scope=Scope(b.bucket_keys(bucket)))
        assert Scope.iterated == 1
        assert reply.entries_examined == len(offered) and not reply.send_back

    def test_a_decoded_table_over_the_same_keys_is_answered_as_before(self):
        rows_a = [(key, value(index, site=0)) for index, key in enumerate(KEYS)]
        rows_b = [(key, value(index + index % 3 - 1, site=1)) for index, key in enumerate(KEYS)]
        for mode in ExchangeMode:
            reply = respond_both(rows_a, rows_b, mode, "columns")
            assert reply.entries_examined == len(KEYS)


class TestAgreesWith:
    def test_shared_distinct_differing_and_mismatched_stores(self):
        rows = [(key, VersionedValue(index, Timestamp(index + 1, 0, 0))) for index, key in enumerate(KEYS)]
        a = build(0, rows)
        assert a.agrees_with(build(1, rows))                                        # shared objects
        assert a.agrees_with(build(1, [(key, twin(entry)) for key, entry in rows]))  # equal, distinct
        other_value = rows[:-1] + [(rows[-1][0], VersionedValue("other", rows[-1][1].timestamp))]
        assert not a.agrees_with(build(1, other_value))
        newer = rows[:-1] + [(rows[-1][0], VersionedValue(rows[-1][1].value, Timestamp(99, 0, 0)))]
        assert not a.agrees_with(build(1, newer))
        deleted = rows[:-1] + [(rows[-1][0], DeathCertificate(rows[-1][1].timestamp, rows[-1][1].timestamp))]
        assert not a.agrees_with(build(1, deleted))
        assert not a.agrees_with(build(1, rows[:-1]))                                # one key short
        assert not build(1, rows[:-1]).agrees_with(a)
        renamed = rows[:-1] + [("elsewhere", rows[-1][1])]
        assert not a.agrees_with(build(1, renamed))                                  # same length
        # Activation timestamps are not database content.
        certificate = DeathCertificate(Timestamp(3, 0, 0), Timestamp(3, 0, 0))
        assert build(0, [("k", certificate)]).agrees_with(build(1, [("k", certificate.reactivated(50.0))]))


class TestTheWireStillCarriesTheTable:
    @pytest.mark.parametrize(
        "mode, request_type, reply_type",
        [("push-pull", "push", "pull-reply"), ("push", "push", "ack"), ("pull", "pull-request", "pull-reply")],
    )
    def test_full_strategy_frames(self, mode, request_type, reply_type):
        async def scenario():
            socks = []
            for __ in range(2):
                sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                sock.bind(("127.0.0.1", 0))
                socks.append(sock)
            ports = [sock.getsockname()[1] for sock in socks]
            proxy = RecordingProxy(ports[1])
            proxy_port = await proxy.start()
            config = NodeConfig(**{**QUIET, "strategy": "full", "mode": ExchangeMode(mode)})
            a = GossipNode(0, Membership.localhost([ports[0], proxy_port]), config)
            b = GossipNode(1, Membership.localhost(ports), config)
            settled = RingBufferSink()
            a.bus.add_sink(settled)
            await a.start(sock=socks[0])
            await b.start(sock=socks[1])
            try:
                for index in range(30):
                    update = a.store.update(f"key-{index}", index)
                    if index % 3:
                        b.store.apply_entry(update.key, update.entry)
                b.store.update("only-b", 1)
                keys = list(a.store.keys())
                assert await a.run_anti_entropy_once()
                shipped = a.stats.updates_shipped
            finally:
                await a.stop()
                await b.stop()
                await proxy.stop()
            return proxy.bodies(proxy.sent), proxy.bodies(proxy.answered), keys, shipped, settled

        sent, answered, keys, shipped, settled = asyncio.run(scenario())
        (request,), (reply,) = [json.loads(body) for body in sent], [json.loads(body) for body in answered]
        assert (request["type"], reply["type"]) == (request_type, reply_type)
        assert list(request["payload"]) == ["mode", "updates"]
        batch = request["payload"]["updates"]
        # Trace context (the send time) rides only in an offer the
        # partner may apply.
        traced = ["sent_at"] if request_type == "push" else []
        assert list(batch) == ["n", "keys", "values", "times", "sites", "seqs", "certs"] + traced
        assert batch["n"] == len(keys) == 30 and batch["keys"] == keys  # the whole table, store order
        pushes = request_type == "push"
        assert shipped == (30 if pushes else 0)  # a pull-only offer is a digest, not shipped
        (event,) = settled.of_kind(EventKind.EXCHANGE_SETTLED)
        assert event.payload["shipped"] == (30 if pushes else 0)  # the report's wire_ab
        assert event.payload["via"] == "full"
        assert list(reply["payload"]) == (["updates"] if reply_type == "pull-reply" else ["applied"])


class TestEntriesAreFrozen:
    @pytest.mark.parametrize(
        "value",
        [
            Timestamp(1.0, 0, 0),
            VersionedValue("v", Timestamp(1.0, 0, 0)),
            DeathCertificate(Timestamp(1.0, 0, 0), Timestamp(2.0, 0, 0)),
            StoreUpdate("k", VersionedValue("v", Timestamp(1.0, 0, 0))),
        ],
        ids=lambda value: type(value).__name__,
    )
    def test_no_field_can_be_rebound(self, value):
        """``x is y`` settles a key only because nobody can change ``x``
        under one of the stores that share it."""
        assert type(value).__dataclass_params__.frozen
        for field in dataclasses.fields(value):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field.name, getattr(value, field.name))
