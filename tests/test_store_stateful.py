"""Stateful equivalence: the lazy store against an eager one.

``ReplicaStore`` defers everything it derives from a key digest —
bucket membership, entry digests, the checksum tree — to the first read
that needs it, and merges update lists in bulk.  The machine below runs
every operation on two stores: ``lazy`` is read only where hypothesis
chooses to (so dirty state piles up across arbitrary interleavings) and
takes update lists through ``apply_updates``; ``eager`` is flushed after
every single operation and takes them row by row through
``apply_entry``.  Every read of ``lazy`` must equal the same read of
``eager`` *and* a from-scratch recomputation that shares no code with
the flush.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.core.checksum import DatabaseChecksum, key_digest
from repro.core.items import DeathCertificate, VersionedValue
from repro.core.store import ApplyResult, ReplicaStore, StoreUpdate
from repro.core.timestamps import SimClock, Timestamp

SITE = 1
BUCKET_BITS = 2
TAU1, TAU2 = 2.0, 3.0

#: Scalar and tuple keys; no two equal as dict keys (1 == True == 1.0).
KEYS = ["a", "b", "c", 3, 2.5, True, ("t", 7), ("t", "x")]

keys = st.sampled_from(KEYS)
buckets = st.integers(0, (1 << BUCKET_BITS) - 1)
values = st.one_of(st.integers(0, 9), st.sampled_from(["v", {"n": [1, 2]}, ("p", 1)]))
retentions = st.sampled_from([(), (SITE,), (SITE, 9), (4,)])


@st.composite
def foreign_entries(draw):
    """An entry as another site would ship it.  Timestamps come from a
    small grid so equal and older stamps turn up; what a stamp names
    (value or certificate) is fixed by the stamp, as global uniqueness
    demands."""
    stamp = Timestamp(
        time=float(draw(st.integers(0, 12))),
        site=draw(st.integers(0, 2)),
        sequence=draw(st.integers(0, 1)),
    )
    if (int(stamp.time) + stamp.site + stamp.sequence) % 3 == 0:
        return DeathCertificate(
            timestamp=stamp,
            activation_timestamp=stamp.advanced_to(stamp.time + draw(st.sampled_from([0, 1, 4]))),
            retention_sites=draw(retentions),
        )
    return VersionedValue(value=f"v{stamp.time:g}/{stamp.site}/{stamp.sequence}", timestamp=stamp)


foreign_updates = st.builds(StoreUpdate, keys, foreign_entries())


def dormant_table(store):
    return {key: store.dormant_certificate(key) for key in KEYS}


def bucket_of(key):
    return key_digest(key) & ((1 << BUCKET_BITS) - 1)


def canonical(updates):
    """Newest first, ties (which only a test's timestamp grid produces
    across keys) in one fixed order: the global index breaks them by
    arrival, the per-bucket view by key."""
    return sorted(updates, key=lambda u: (u.timestamp, repr(u.key)), reverse=True)


def from_scratch(pairs):
    return DatabaseChecksum.of((key, entry.encode()) for key, entry in pairs).value


class LazyAgainstEager(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 0.0

        def store():
            return ReplicaStore(
                site_id=SITE,
                clock=SimClock(site=SITE, time_source=lambda: self.now),
                bucket_bits=BUCKET_BITS,
            )

        self.lazy, self.eager = store(), store()

    def both(self, operation):
        """Run a mutation on both stores; flush only the eager one."""
        got = operation(self.lazy)
        want = operation(self.eager)
        self.eager.checksum
        assert got == want
        return got

    # -- mutations -----------------------------------------------------

    @rule(key=keys, value=values)
    def update(self, key, value):
        self.both(lambda store: store.update(key, value))

    @rule(key=keys, retention=retentions)
    def delete(self, key, retention):
        self.both(lambda store: store.delete(key, retention))

    @rule(update=foreign_updates)
    def apply_entry(self, update):
        self.both(lambda store: store.apply_entry(update.key, update.entry))

    @rule(updates=st.lists(foreign_updates, max_size=8))
    def apply_updates(self, updates):
        got = self.lazy.apply_updates(updates)
        want = [self.eager.apply_entry(u.key, u.entry) for u in updates]
        self.eager.checksum
        assert got == want

    @rule(picked=st.lists(keys, min_size=1, max_size=4), bump=st.integers(0, 3))
    def echo_held_entries(self, picked, bump):
        """A peer ships back what this site holds: values come back
        EQUAL, certificates reactivated ``bump`` later."""
        updates = []
        for key in picked:
            held = self.eager.entry(key)
            if held is not None and held.is_deletion:
                held = held.reactivated(held.activation_timestamp.time + bump)
            if held is not None:
                updates.append(StoreUpdate(key, held))
        self.apply_updates(updates)

    @rule(key=keys)
    def bury(self, key):
        """Delete ``key`` and let the certificate go dormant here."""
        self.delete(key, (SITE,))
        self.now += TAU1 + 1
        self.sweep_certificates()

    @rule(key=keys)
    def purge(self, key):
        self.both(lambda store: store.purge(key))

    @rule()
    def sweep_certificates(self):
        self.both(lambda store: store.sweep_certificates(TAU1, TAU2))

    @rule(ttl=st.sampled_from([None, TAU1]))
    def set_certificate_ttl(self, ttl):
        self.lazy.certificate_ttl = self.eager.certificate_ttl = ttl

    @rule(step=st.integers(1, 4))
    def advance_clock(self, step):
        self.now += step

    # -- reads, at arbitrary points -------------------------------------

    @rule()
    def read_root(self):
        assert self.lazy.checksum == self.eager.checksum
        assert self.lazy.checksum == self.lazy.recompute_checksum()

    @rule(bucket=buckets)
    def read_bucket_entries(self, bucket):
        filed = dict(self.lazy.bucket_entries(bucket))
        assert filed == {
            key: entry for key, entry in self.lazy.entries() if bucket_of(key) == bucket
        }

    @rule(bucket=buckets)
    def read_bucket_len(self, bucket):
        assert self.lazy.bucket_len(bucket) == sum(
            1 for key in self.lazy.keys() if bucket_of(key) == bucket
        )

    @rule(bucket=buckets)
    def read_bucket_checksum(self, bucket):
        assert self.lazy.bucket_checksum(bucket) == from_scratch(
            (key, entry) for key, entry in self.lazy.entries() if bucket_of(key) == bucket
        )

    @rule(bucket=buckets, tau=st.sampled_from([1.5, 4.0, 100.0]))
    def read_recent_in_bucket(self, bucket, tau):
        recent = self.lazy.recent_updates(tau, bucket=bucket)
        assert recent == self.eager.recent_updates(tau, bucket=bucket)
        assert [u.timestamp for u in recent] == [u.timestamp for u in canonical(recent)]
        assert canonical(recent) == canonical(
            u for u in self.lazy.recent_updates(tau) if bucket_of(u.key) == bucket
        )

    @rule(bucket=buckets)
    def read_bucket_newest_first(self, bucket):
        peeled = list(self.lazy.bucket_updates_newest_first(bucket))
        assert peeled == list(self.eager.bucket_updates_newest_first(bucket))
        assert [u.timestamp for u in peeled] == [u.timestamp for u in canonical(peeled)]
        assert canonical(peeled) == canonical(
            u for u in self.lazy.updates_newest_first() if bucket_of(u.key) == bucket
        )

    @rule()
    def read_everything(self):
        lazy, eager = self.lazy, self.eager
        assert dict(lazy.entries()) == dict(eager.entries())
        assert dormant_table(lazy) == dormant_table(eager)
        assert list(lazy.updates_newest_first()) == list(eager.updates_newest_first())
        union = {}
        for bucket in range(lazy.bucket_count):
            filed = dict(lazy.bucket_entries(bucket))
            assert lazy.bucket_len(bucket) == len(filed)
            assert all(lazy.bucket_of(key) == bucket_of(key) == bucket for key in filed)
            assert not union.keys() & filed.keys()
            union.update(filed)
            assert lazy.bucket_checksum(bucket) == lazy.recompute_bucket_checksum(bucket)
            assert lazy.bucket_checksum(bucket) == from_scratch(filed.items())
        assert union == dict(lazy.entries())
        assert lazy.checksum == lazy.recompute_checksum() == eager.checksum
        assert lazy.checksum_tree == eager.checksum_tree

    def teardown(self):
        self.read_everything()


LazyAgainstEager.TestCase.settings = settings(
    max_examples=200, stateful_step_count=40, deadline=None
)
TestLazyAgainstEager = LazyAgainstEager.TestCase


# ----------------------------------------------------------------------
# apply_updates == [apply_entry ...], on the rows hypothesis rarely lines up
# ----------------------------------------------------------------------


def _pair(now=0.0, **kwargs):
    clock = lambda: now  # noqa: E731 - a constant time source
    return tuple(
        ReplicaStore(site_id=SITE, clock=SimClock(site=SITE, time_source=clock), **kwargs)
        for __ in range(2)
    )


def _value(time, value="v", site=0, seq=0):
    return VersionedValue(value, Timestamp(float(time), site, seq))


def _cert(time, activation=None, retention=(), site=0):
    stamp = Timestamp(float(time), site, 0)
    return DeathCertificate(
        stamp, stamp if activation is None else stamp.advanced_to(float(activation)), retention
    )


def assert_same_outcome(batch, rowwise, updates):
    got = batch.apply_updates(updates)
    want = [rowwise.apply_entry(u.key, u.entry) for u in updates]
    assert got == want
    assert dict(batch.entries()) == dict(rowwise.entries())
    assert batch._dormant == rowwise._dormant
    assert list(batch.updates_newest_first()) == list(rowwise.updates_newest_first())
    assert batch.checksum == rowwise.checksum == batch.recompute_checksum()
    return got


class TestApplyUpdatesMatchesRowByRow:
    def test_a_batch_mixing_every_kind_of_row(self):
        batch, rowwise = _pair(now=50.0)
        for store in (batch, rowwise):
            # "zombie" holds a dormant certificate; "held" a newer value.
            store.apply_entry("zombie", _cert(10, retention=(SITE,)))
            store.sweep_certificates(TAU1, tau2=1000.0)
            assert store.dormant_certificate("zombie") is not None
            store.apply_entry("held", _value(40))
            store.certificate_ttl = TAU1
        updates = [
            StoreUpdate("fresh", _value(1)),
            StoreUpdate("held", _value(30)),                  # stale
            StoreUpdate("held", _value(40)),                  # equal
            StoreUpdate("zombie", _value(5)),                 # meets the dormant certificate
            StoreUpdate("zombie", _value(60, "reinstated")),  # now newer than the awakened one
            StoreUpdate(("svc", "printer"), _value(2)),       # tuple key
            StoreUpdate("fresh", _value(3, "again")),         # same key, later in the batch
            StoreUpdate("fresh", _value(2, "late")),          # ... and an older straggler
            StoreUpdate("expired", _cert(1)),                 # older than the ttl, cancels nothing
            StoreUpdate("fresh", _cert(49, activation=49.5)), # a live certificate wins
            StoreUpdate("fresh", _cert(49, activation=50)),   # its reactivation spreads
            StoreUpdate(3, _value(7)),
            StoreUpdate(True, _value(8)),
        ]
        got = assert_same_outcome(batch, rowwise, updates)
        assert got == [
            ApplyResult.APPLIED, ApplyResult.STALE, ApplyResult.EQUAL,
            ApplyResult.RESURRECTION_BLOCKED, ApplyResult.APPLIED, ApplyResult.APPLIED,
            ApplyResult.APPLIED, ApplyResult.STALE, ApplyResult.STALE,
            ApplyResult.APPLIED, ApplyResult.REACTIVATED, ApplyResult.APPLIED,
            ApplyResult.APPLIED,
        ]

    def test_a_dormant_certificate_elsewhere_does_not_slow_or_change_other_keys(self):
        batch, rowwise = _pair(now=50.0)
        for store in (batch, rowwise):
            store.apply_entry("zombie", _cert(10, retention=(SITE,)))
            store.sweep_certificates(TAU1, tau2=1000.0)
        assert_same_outcome(
            batch, rowwise, [StoreUpdate(f"k{i}", _value(i)) for i in range(50)]
        )
        assert batch.dormant_certificate("zombie") is not None

    def test_a_bad_key_raises_where_the_row_loop_would_with_earlier_rows_applied(self):
        batch, rowwise = _pair()
        updates = [
            StoreUpdate("ok", _value(1)),
            StoreUpdate(("ok", 2), _value(2)),
            StoreUpdate(("bad", None), _value(3)),
            StoreUpdate("never", _value(4)),
        ]
        with pytest.raises(ValueError):
            batch.apply_updates(updates)
        with pytest.raises(ValueError):
            for update in updates:
                rowwise.apply_entry(update.key, update.entry)
        assert dict(batch.entries()) == dict(rowwise.entries())
        assert sorted(map(str, batch.keys())) == ["('ok', 2)", "ok"]
        assert list(batch.updates_newest_first()) == list(rowwise.updates_newest_first())
        assert batch.checksum == batch.recompute_checksum()

    def test_equal_timestamps_keep_arrival_order_in_the_index(self):
        batch, rowwise = _pair()
        updates = [StoreUpdate(key, _value(5)) for key in ("x", ("t", 1), "y", 4, "z")]
        assert_same_outcome(batch, rowwise, updates)

    def test_any_iterable_is_accepted(self):
        batch, rowwise = _pair()
        updates = [StoreUpdate(f"k{i}", _value(i)) for i in range(5)]
        assert batch.apply_updates(iter(updates)) == [ApplyResult.APPLIED] * 5
        assert batch.apply_updates(()) == []
        assert batch.apply_updates(tuple(updates)) == [ApplyResult.EQUAL] * 5
