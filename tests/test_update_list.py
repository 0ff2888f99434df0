"""Columns ≡ rows: the bulk update-list form changes no outcome.

Entries move in bulk as an ``UpdateList`` — parallel key and entry
columns, with ``StoreUpdate`` rows built only for a reader that asks for
rows.  The property below holds the columns to the row paths they
replaced: merging columns, merging rows and applying entry by entry give
the same results and the same store, and a batch decoded from the wire
iterates as the rows the row-form decoder gives, whichever form was
encoded.  Certificates under an expiry policy and without one, a
dormant certificate woken by obsolete data, tuple keys, invalid keys
and two versions of one key in one list are all in the draw.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.core.items import DeathCertificate, VersionedValue
from repro.core.serialize import decode_batch, decode_updates, encode_batch, encode_updates
from repro.core.store import ReplicaStore, StoreUpdate, UpdateList
from repro.core.timestamps import SimClock, Timestamp

SITE = 1
NOW = 20.0
TAU1 = 5.0
#: Scalar and tuple keys (no two equal as dict keys) and "zombie",
#: which every store below holds a dormant certificate for.
KEYS = ["a", "b", 3, 2.5, True, ("t", 7), ("t", ("x", 1)), "zombie"]
#: Keys ``validate_key`` refuses: the merge must fail where the row loop fails.
INVALID = [None, ("bad", None)]


@st.composite
def entries(draw):
    """An entry as another site would ship it.  Stamps come from a grid
    around the clock's ``NOW`` so older, equal, expired and live ones all
    turn up; what a stamp names is fixed by the stamp, as global
    uniqueness demands."""
    stamp = Timestamp(
        time=float(draw(st.integers(0, 24))),
        site=draw(st.integers(0, 2)),
        sequence=draw(st.integers(0, 1)),
    )
    if (int(stamp.time) + stamp.site + stamp.sequence) % 3 == 0:
        return DeathCertificate(
            timestamp=stamp,
            activation_timestamp=stamp.advanced_to(stamp.time + draw(st.sampled_from([0, 1, 4]))),
            retention_sites=draw(st.sampled_from([(), (SITE,), (SITE, 4)])),
        )
    return VersionedValue(value=f"v{stamp.time:g}/{stamp.site}/{stamp.sequence}", timestamp=stamp)


def build(held, ttl):
    store = ReplicaStore(site_id=SITE, clock=SimClock(site=SITE, time_source=lambda: NOW), bucket_bits=2)
    store.apply_entry("zombie", DeathCertificate(Timestamp(10.0, 0, 0), Timestamp(10.0, 0, 0), (SITE,)))
    assert store.sweep_certificates(TAU1, tau2=1000.0).made_dormant == 1
    for key, entry in held:
        store.apply_entry(key, entry)
    store.certificate_ttl = ttl
    return store


def outcome(merge):
    try:
        return merge()
    except (TypeError, ValueError) as error:
        return type(error)


def state(store):
    return (
        dict(store.entries()),
        dict(store._dormant),
        store.checksum,
        list(store.updates_newest_first()),
    )


class TestColumnsEqualRows:
    @settings(max_examples=200, deadline=None)
    @given(
        held=st.lists(st.tuples(st.sampled_from(KEYS), entries()), max_size=8),
        updates=st.lists(st.tuples(st.sampled_from(KEYS), entries()), max_size=12),
        invalid=st.none() | st.tuples(st.sampled_from(INVALID), entries(), st.integers(0, 12)),
        ttl=st.sampled_from([None, TAU1]),
    )
    def test_one_outcome_whatever_the_form(self, held, updates, invalid, ttl):
        if invalid is not None:
            key, entry, position = invalid
            updates.insert(position % (len(updates) + 1), (key, entry))
        columns = UpdateList([key for key, __ in updates], [entry for __, entry in updates])
        rows = [StoreUpdate(key, entry) for key, entry in updates]
        by_columns, by_rows, by_entry = (build(held, ttl) for __ in range(3))

        got = outcome(lambda: by_columns.apply_updates(columns))
        assert got == outcome(lambda: by_rows.apply_updates(rows))
        assert got == outcome(lambda: [by_entry.apply_entry(key, entry) for key, entry in updates])
        assert state(by_columns) == state(by_rows) == state(by_entry)
        assert by_columns.checksum == by_columns.recompute_checksum()
        assert list(columns) == rows and len(columns) == len(rows)

        if any(key in INVALID for key, __ in updates):
            return  # no such list can be encoded, in either form
        want = decode_updates(json.loads(json.dumps(encode_updates(rows))))
        for form in (rows, columns):
            decoded = decode_batch(json.loads(json.dumps(encode_batch(form))))
            assert isinstance(decoded, UpdateList)
            assert list(decoded) == want
            assert [type(u.key) for u in decoded] == [type(u.key) for u in want]

    def test_rows_are_built_once_and_only_when_read(self):
        entry = VersionedValue("v", Timestamp(1.0, 0, 0))
        columns = UpdateList(["k", ("t", 1)], [entry, entry])
        assert columns._rows is None and len(columns) == 2
        rows = list(columns)
        assert rows == [StoreUpdate("k", entry), StoreUpdate(("t", 1), entry)]
        assert [id(row) for row in columns] == [id(row) for row in rows]
        columns.extend(["late"], [entry])
        assert list(columns)[-1] == StoreUpdate("late", entry) and len(columns) == 3
        assert UpdateList.of(columns) is columns
        assert [id(row) for row in UpdateList.of(rows)] == [id(row) for row in rows]
