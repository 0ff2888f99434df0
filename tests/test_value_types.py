"""The value types the store builds per write: contract and encoding.

``Timestamp``, ``VersionedValue`` and ``StoreUpdate`` are frozen, slotted
dataclasses with a hand-written ``__init__`` (the generated frozen one
pays an ``object.__setattr__`` per field).  The contract tests pin that
nothing else a dataclass user relies on moved: construction, defaults,
equality, hashing, ordering, ``repr``, immutability, ``replace``,
``fields``, pickling and copying.

The encoding property keeps the original concatenation formula as its
reference: ``Entry.encode`` feeds every checksum, and a changed byte is
a wire break (see ``test_store_pins.py``).
"""

import copy
import dataclasses
import hashlib
import pickle

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.checksum import encode_key, key_digest, key_digest_bytes
from repro.core.items import DeathCertificate, VersionedValue
from repro.core.store import ReplicaStore, StoreUpdate
from repro.core.timestamps import Timestamp

STAMP = Timestamp(1.5, 2, 3)
VALUE = VersionedValue("v", STAMP)

#: (type, positional arguments, the same as keywords, repr as of the
#: generated dataclass __init__).
CASES = [
    (Timestamp, (1.5, 2, 3), {"time": 1.5, "site": 2, "sequence": 3},
     "Timestamp(time=1.5, site=2, sequence=3)"),
    (VersionedValue, ("v", STAMP), {"value": "v", "timestamp": STAMP},
     "VersionedValue(value='v', timestamp=Timestamp(time=1.5, site=2, sequence=3))"),
    (StoreUpdate, ("k", VALUE), {"key": "k", "entry": VALUE},
     "StoreUpdate(key='k', entry=VersionedValue(value='v', "
     "timestamp=Timestamp(time=1.5, site=2, sequence=3)))"),
]
IDS = [case[0].__name__ for case in CASES]


def _build(case):
    cls, args, __, __ = case
    return cls(*args)


class TestContract:
    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_positional_and_keyword_construction_agree(self, case):
        cls, args, kwargs, __ = case
        by_position, by_keyword = cls(*args), cls(**kwargs)
        assert by_position == by_keyword
        for field, value in kwargs.items():
            assert getattr(by_position, field) is value
            assert getattr(by_keyword, field) is value

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_wrong_arguments_are_refused(self, case):
        cls, args, kwargs, __ = case
        with pytest.raises(TypeError):
            cls()
        with pytest.raises(TypeError):
            cls(*args, "extra")
        with pytest.raises(TypeError):
            cls(*args, **{next(iter(kwargs)): "twice"})
        with pytest.raises(TypeError):
            cls(**kwargs, nonsense=1)

    def test_timestamp_defaults(self):
        assert Timestamp(5) == Timestamp(5, 0, 0) == Timestamp(time=5)
        assert Timestamp(5, 7) == Timestamp(time=5, site=7, sequence=0)
        assert Timestamp(5, sequence=9).sequence == 9
        assert Timestamp.MIN == Timestamp(float("-inf"), -1, -1)

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_equality_and_hash_follow_the_fields(self, case):
        cls, args, kwargs, __ = case
        one, other = cls(*args), cls(*args)
        assert one == other and one is not other
        assert hash(one) == hash(other) == hash(tuple(kwargs.values()))
        changed = dataclasses.replace(one, **{next(iter(kwargs)): 99})
        assert changed != one
        assert one != tuple(kwargs.values())

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_repr(self, case):
        assert repr(_build(case)) == case[3]

    def test_timestamps_order_lexicographically(self):
        stamps = [Timestamp(2, 0, 0), Timestamp(1, 5, 0), Timestamp(1, 0, 9), Timestamp(1, 0, 1)]
        assert sorted(stamps) == [
            Timestamp(1, 0, 1), Timestamp(1, 0, 9), Timestamp(1, 5, 0), Timestamp(2, 0, 0)
        ]
        assert Timestamp(1) < Timestamp(1, 0, 1) <= Timestamp(1, 0, 1) < Timestamp(1.5)
        assert Timestamp(2) > Timestamp(1, 99, 99) >= Timestamp(1, 99, 99)
        assert Timestamp.MIN < Timestamp(-1e300)

    @pytest.mark.parametrize("case", CASES[1:], ids=IDS[1:])
    def test_entries_and_updates_have_no_order(self, case):
        with pytest.raises(TypeError):
            _build(case) < _build(case)

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_frozen_and_slotted(self, case):
        instance = _build(case)
        for field in case[2]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(instance, field, 0)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(instance, field)
        assert not hasattr(instance, "__dict__")
        assert repr(instance) == case[3]  # nothing above got through

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_dataclass_introspection(self, case):
        cls, args, kwargs, __ = case
        instance = cls(*args)
        assert dataclasses.is_dataclass(instance)
        assert [field.name for field in dataclasses.fields(cls)] == list(kwargs)
        assert cls.__match_args__ == tuple(kwargs)
        assert dataclasses.astuple(instance) == dataclasses.astuple(cls(**kwargs))
        assert dataclasses.replace(instance) == instance
        first = next(iter(kwargs))
        replaced = dataclasses.replace(instance, **{first: "new"})
        assert getattr(replaced, first) == "new"
        assert type(replaced) is cls

    @pytest.mark.parametrize("case", CASES, ids=IDS)
    def test_pickle_and_copy_round_trips(self, case):
        instance = _build(case)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            restored = pickle.loads(pickle.dumps(instance, protocol))
            assert restored == instance and type(restored) is type(instance)
        assert copy.copy(instance) == instance
        assert copy.deepcopy(instance) == instance

    def test_death_certificate_keeps_its_post_init_check(self):
        with pytest.raises(ValueError):
            DeathCertificate(Timestamp(5), Timestamp(4))
        with pytest.raises(ValueError):
            DeathCertificate(timestamp=Timestamp(5), activation_timestamp=Timestamp(4))
        with pytest.raises(ValueError):
            dataclasses.replace(
                DeathCertificate(Timestamp(5), Timestamp(5)), activation_timestamp=Timestamp(4)
            )


# -- encoding byte identity --------------------------------------------


def reference_value_encoding(value, time, site, sequence):
    return b"V|" + repr(value).encode("utf-8") + b"|" + repr((time, site, sequence)).encode("utf-8")


def reference_certificate_encoding(time, site, sequence):
    return b"D|" + repr((time, site, sequence)).encode("utf-8")


_floats = st.floats(allow_nan=True, allow_infinity=True)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | _floats
    | st.text()
)
_values = st.recursive(
    _scalars,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.dictionaries(st.text(max_size=4), inner, max_size=4)
        | st.tuples(inner, inner)
        | st.tuples(inner)
    ),
    max_leaves=12,
)
_times = st.integers(min_value=-(2**70), max_value=2**70) | _floats
_ids = st.integers(min_value=-1, max_value=2**66)


class TestEncodingByteIdentity:
    @settings(max_examples=400, deadline=None)
    @given(value=_values, time=_times, site=_ids, sequence=_ids)
    @example(value="ключ-ü ✓ \U0001f600 \ud800", time=-0.0, site=0, sequence=0)
    @example(value=2**64 + 1, time=1, site=2**64, sequence=-1)
    @example(value=-0.0, time=float("inf"), site=1, sequence=1)
    @example(value=float("nan"), time=float("nan"), site=3, sequence=4)
    @example(value=[{"a": (1, 2.0)}, ("t", [None])], time=1.0, site=1, sequence=1)
    @example(value=True, time=True, site=False, sequence=0)
    @example(value=("only",), time=float("-inf"), site=-1, sequence=-1)
    def test_entry_encodings_match_the_reference(self, value, time, site, sequence):
        stamp = Timestamp(time, site, sequence)
        assert stamp.encode() == repr((time, site, sequence)).encode("utf-8")
        assert VersionedValue(value, stamp).encode() == reference_value_encoding(
            value, time, site, sequence
        )
        certificate = DeathCertificate(stamp, stamp)
        assert certificate.encode() == reference_certificate_encoding(time, site, sequence)

    def test_int_and_float_times_encode_differently(self):
        assert VersionedValue(1, Timestamp(1)).encode() == b"V|1|(1, 0, 0)"
        assert VersionedValue(1, Timestamp(1.0)).encode() == b"V|1|(1.0, 0, 0)"
        assert Timestamp.MIN.encode() == b"(-inf, -1, -1)"
        assert DeathCertificate(Timestamp.MIN, Timestamp.MIN).encode() == b"D|(-inf, -1, -1)"

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(st.text(max_size=6) | st.integers(), _values.filter(lambda v: v is not None)),
            max_size=30,
        )
    )
    def test_the_flush_folds_the_reference_digests(self, rows):
        store = ReplicaStore(site_id=0, bucket_bits=3)
        for key, value in rows:
            store.update(key, value)
        expected = [0] * store.bucket_count
        for key, entry in store.entries():
            stamp = entry.timestamp
            kd = hashlib.blake2b(encode_key(key), digest_size=16).digest()
            encoded = reference_value_encoding(entry.value, stamp.time, stamp.site, stamp.sequence)
            expected[int.from_bytes(kd, "big") % store.bucket_count] ^= int.from_bytes(
                hashlib.blake2b(kd + b"\x00" + encoded, digest_size=16).digest(), "big"
            )
        assert [store.bucket_checksum(bucket) for bucket in range(store.bucket_count)] == expected

    @pytest.mark.parametrize("key", ["k", "ключ", 7, 2**70, -2.5, True, ("a", (1, 2.0))])
    def test_key_digest_bytes_is_key_digest(self, key):
        assert key_digest_bytes(key) == key_digest(key).to_bytes(16, "big")
