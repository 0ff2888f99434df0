"""A wire offer settles on its columns.

A batch decoded off a wire keeps its timestamp columns raw, and
``ExchangeSession.respond`` drops every row whose ``(time, site, seq)``
equals the entry the responder holds before any entry is built: a
16-key repair of a 20 000-key store offers ≈ 5 000 rows, and all but 16
are rows the responder already has.  These tests hold:

* the settle against the judgement it shortcuts — the same offer,
  settled lazily and fully built first, gives the same reply, results,
  counts and store, down to the timestamp index's order;
* the work it saves, as counts (never clocks): a fully held offer
  builds no entry and runs no judgement, 16 differing rows build and
  judge exactly 16;
* the node's side: applying two versions of one key builds only
  their two rows, and an outbound offer builds none.
"""

import json

from hypothesis import example, given, settings, strategies as st

import repro.protocols.exchange as exchange_module
from repro.core.items import DeathCertificate, VersionedValue
from repro.core.serialize import decode_batch, encode_batch
from repro.core.store import ReplicaStore, StoreUpdate, UpdateList
from repro.core.timestamps import SequenceClock, Timestamp
from repro.net.membership import Membership
from repro.net.node import GossipNode, NodeConfig
from repro.obs import spans
from repro.protocols.base import ExchangeMode
from repro.protocols.exchange import ExchangeSession, Frame, respond

from test_binwire_interop import QUIET
from test_store_pins import _Counter

KEYS = ["a", "b", 3, ("t", 1), ("t", ("x", 2))]
#: ``5`` and ``5.0`` are one timestamp to the judgement and to the settle.
TIMES = [1, 1.0, 2, 5, 5.0, 7.5]


@st.composite
def entries(draw):
    stamp = Timestamp(draw(st.sampled_from(TIMES)), draw(st.integers(0, 1)), draw(st.integers(0, 1)))
    if draw(st.integers(0, 2)):
        return VersionedValue(draw(st.integers(-2, 2)), stamp)
    # A later activation: two copies of one certificate can differ in
    # nothing but a reactivation, which only the judgement sees.
    activation = stamp.advanced_to(stamp.time + draw(st.sampled_from([0, 4])))
    return DeathCertificate(stamp, activation, tuple(draw(st.lists(st.integers(0, 2), max_size=2))))


ROWS = st.lists(st.tuples(st.sampled_from(KEYS), entries()), max_size=10)


def store_of(rows):
    store = ReplicaStore(site_id=1, clock=SequenceClock(site=1, start=20.0), bucket_bits=2)
    for key, entry in rows:
        store.apply_entry(key, entry)
    return store


def wire(rows):
    """``rows`` as a JSON body carries them (any key may be offered twice)."""
    return json.loads(json.dumps(encode_batch([StoreUpdate(key, entry) for key, entry in rows])))


def typed(pairs):
    """``(key, entry)`` pairs with each timestamp's ``time`` type, which
    ``==`` alone does not see (``5 == 5.0``) and the checksum does."""
    return [(key, entry, type(entry.timestamp.time)) for key, entry in pairs]


def state(store):
    return (
        typed(store.entries()),
        dict(store._dormant),
        store.checksum,
        [(key, stamp, type(stamp.time)) for key, stamp in store._index.newest_first()],
    )


CERT = DeathCertificate(Timestamp(5, 0, 0), Timestamp(5, 0, 0))


class TestTheSettleChangesNoDecision:
    @settings(max_examples=300, deadline=None)
    @given(mode=st.sampled_from(list(ExchangeMode)), held=ROWS, offered=ROWS)
    # A held certificate meets a value at its timestamp, as int and float.
    @example(mode=ExchangeMode.PUSH_PULL, held=[("a", CERT)],
             offered=[("a", VersionedValue(1, Timestamp(5.0, 0, 0)))])
    # The same certificate, reactivated: equal timestamps, still news.
    @example(mode=ExchangeMode.PUSH_PULL, held=[("a", CERT)],
             offered=[("a", CERT.reactivated(9.0))])
    # Two versions of one key, one held and one absent key, a tuple key.
    @example(mode=ExchangeMode.PUSH, held=[("a", VersionedValue(1, Timestamp(2, 0, 0)))],
             offered=[("a", VersionedValue(1, Timestamp(2.0, 0, 0))),
                      (("t", 1), VersionedValue(2, Timestamp(1, 1, 0))),
                      ("a", VersionedValue(3, Timestamp(7.5, 1, 1)))])
    def test_lazy_offer_equals_the_built_offer(self, mode, held, offered):
        body = wire(offered)
        lazy, built = decode_batch(body), decode_batch(body)
        built.entries  # every row built: only the identity settle applies
        settled_store, judged_store = store_of(held), store_of(held)
        settled = ExchangeSession(settled_store, mode).respond(lazy)
        judged = ExchangeSession(judged_store, mode).respond(built)

        assert typed(zip(settled.applied.keys, settled.applied.entries)) == typed(
            zip(judged.applied.keys, judged.applied.entries)
        )
        assert settled.applied_results == judged.applied_results
        assert list(settled.send_back.keys) == list(judged.send_back.keys)
        assert typed(zip(settled.send_back.keys, settled.send_back.entries)) == typed(
            zip(judged.send_back.keys, judged.send_back.entries)
        )
        assert settled.entries_examined == judged.entries_examined
        assert state(settled_store) == state(judged_store)
        # What was applied are the offer's own rows, and building the
        # rest later keeps them: one row, one object.
        offered = set(map(id, lazy.entries))
        assert all(id(entry) in offered for entry in settled.applied.entries)


class Built:
    """Counts ``Timestamp`` and ``VersionedValue`` constructions and
    ``entry_beats`` judgements while armed."""

    def __init__(self, monkeypatch):
        self.stamps, self.values = _Counter(Timestamp.__init__), _Counter(VersionedValue.__init__)
        self.judged = _Counter(exchange_module.entry_beats)
        monkeypatch.setattr(Timestamp, "__init__", self._counting(self.stamps))
        monkeypatch.setattr(VersionedValue, "__init__", self._counting(self.values))
        monkeypatch.setattr(exchange_module, "entry_beats", self.judged)

    @staticmethod
    def _counting(counter):
        def init(self, *args):
            counter(self, *args)

        return init

    @property
    def counts(self):
        return self.stamps.calls, self.values.calls, self.judged.calls


class TestWorkFollowsTheDifference:
    N, K = 5_000, 16

    def pair(self):
        a, b = ReplicaStore(site_id=0), ReplicaStore(site_id=1)
        for index in range(self.N):
            update = a.update(f"key-{index:05d}", f"value-{index}")
            b.apply_entry(update.key, update.entry)
        return a, b

    def test_a_fully_held_offer_builds_nothing(self, monkeypatch):
        a, b = self.pair()
        body = wire(a.entries())
        built = Built(monkeypatch)
        reply = ExchangeSession(b).respond(decode_batch(body))
        assert built.counts == (0, 0, 0)
        assert reply.entries_examined == self.N and not reply.applied and not reply.send_back

    def test_sixteen_differing_rows_build_sixteen(self, monkeypatch):
        a, b = self.pair()
        for index in range(self.K):
            a.update(f"key-{index * (self.N // self.K):05d}", "rewritten")
        body = wire(a.entries())
        built = Built(monkeypatch)
        reply = ExchangeSession(b).respond(decode_batch(body))
        assert built.counts == (self.K, self.K, self.K)
        assert reply.entries_examined == self.N and len(reply.applied) == self.K
        assert not reply.send_back
        monkeypatch.undo()
        assert a.agrees_with(b) and a.checksum == b.checksum


class TestTheNodeReadsRowsByPosition:
    def test_two_versions_of_one_key_build_only_their_rows(self, monkeypatch):
        """Both versions of ``k`` are applied as the offer's own rows, in
        offer order; the settled rows stay raw."""
        store = store_of([("a", VersionedValue(1, Timestamp(1, 0, 0))),
                          ("b", VersionedValue(2, Timestamp(2, 0, 0)))])
        offer = decode_batch(wire([
            ("a", VersionedValue(1, Timestamp(1, 0, 0))),
            ("k", VersionedValue("old", Timestamp(3, 0, 0))),
            ("b", VersionedValue(2, Timestamp(2, 0, 0))),
            ("k", VersionedValue("new", Timestamp(4, 0, 0))),
        ]))
        built = Built(monkeypatch)
        __, applied, __ = respond(store, Frame("push", {"mode": "push-pull", "updates": offer}))
        assert [entry.value for entry in applied.updates.entries] == ["old", "new"]
        assert built.counts == (2, 2, 2)  # the two rows of "k", nothing else
        monkeypatch.undo()
        assert applied.updates.entries[0] is offer.entries[1]
        assert applied.updates.entries[1] is offer.entries[3]
        assert store.get("k") == "new"

    def test_outbound_trace_ids_build_no_rows(self, monkeypatch):
        """An outbound offer carries no per-update trace context: the
        node formats no trace id and builds no row, only the columns and
        the send time."""
        formatted = []
        monkeypatch.setattr(spans, "trace_id_of", formatted.append)
        node = GossipNode(0, Membership.localhost([1, 2]), NodeConfig(**QUIET))
        updates = [
            StoreUpdate("k", VersionedValue("v", Timestamp(1.5, 0, 7))),
            StoreUpdate(("svc", 7), VersionedValue("w", Timestamp(3, 2, 1))),
        ]
        offer = UpdateList([update.key for update in updates], [update.entry for update in updates])
        payload = node._update_payload({"updates": offer}, now=1.0)
        assert payload["updates"] == {**encode_batch(updates), "sent_at": 1.0}
        assert offer._rows is None and formatted == []
