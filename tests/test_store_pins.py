"""Pins on the store's lazy flush: golden checksums and work counts.

Two builds of this code must agree on every checksum bit or they can
never settle an anti-entropy exchange by checksum, so the values for a
fixed corpus are pinned in ``tests/data/checksum_golden.json`` — written
by the commit *before* the flush learned to digest in bulk, and only
ever regenerated (``python tests/test_store_pins.py``) by a change that
means to break wire compatibility; CI fails a pull request that touches
the file.

The cost guards count calls and never read a clock: what the write path
must not do (hash) and what the flush may do at most (one key digest per
dirty key, one tree walk per dirty bucket) holds on any machine.  The
flush digests keys past the ``key_digest`` cache, so one bulk fold
leaves the digests other stores share warm.
"""

import json
import pathlib

import pytest

import repro.core.store as store_module
from repro.core.checksum import ChecksumTree, _encoded_key_digest, key_digest
from repro.core.items import DeathCertificate, VersionedValue
from repro.core.store import ReplicaStore, StoreUpdate
from repro.core.timestamps import Timestamp

GOLDEN = pathlib.Path(__file__).parent / "data" / "checksum_golden.json"
BUCKET_BITS = (0, 4, 6, 10)
#: More dirty keys than the key-digest cache holds (65 536 entries).
BULK = 70_000


def _stamp(time, site=0, seq=0):
    return Timestamp(time=time, site=site, sequence=seq)


def _certificate(stamp, activation=None, retention=()):
    return DeathCertificate(
        timestamp=stamp,
        activation_timestamp=activation if activation is not None else stamp,
        retention_sites=retention,
    )


#: Every key type the wire can carry, every entry shape the checksum
#: encodes.  No two keys here are equal as dict keys (1 == True == 1.0).
CORPUS = [
    ("alpha", VersionedValue("10.0.7.12", _stamp(1790000000.25, 3, 1))),
    ("ключ-ü", VersionedValue("значение", _stamp(12, 1, 0))),
    ("", VersionedValue(0, _stamp(0.1, 0, 7))),
    (7, VersionedValue(3.5, _stamp(3, 2, 2))),
    (-7, VersionedValue(-1, _stamp(4.0, 2, 3))),
    (2**70, VersionedValue(2**80, _stamp(5, 0, 0))),
    (1.5, VersionedValue([1, "two", 3.0], _stamp(6.5, 1, 1))),
    (1e300, VersionedValue(("t", 1), _stamp(7, 1, 2))),
    (-2.25, VersionedValue(True, _stamp(8, 4, 0))),
    (True, VersionedValue("yes", _stamp(9, 4, 1))),
    (False, VersionedValue("no", _stamp(9, 4, 2))),
    (("svc", "printer"), VersionedValue(
        {"addr": [10, 0, 7, 12], "meta": {"floor": 3, "tags": ["a", "b"]}},
        _stamp(10.75, 5, 0),
    )),
    (("a", 2, 2.5, False), VersionedValue({"n": None}, _stamp(11, 5, 1))),
    ((("nested", 3), "x"), VersionedValue("deep", _stamp(12, 5, 2))),
    ("gone", _certificate(_stamp(13, 0, 1))),
    ("gone-kept", _certificate(_stamp(14, 0, 2), retention=(1, 4, 7))),
    (("gone", 9), _certificate(
        _stamp(15.5, 2, 0), activation=_stamp(99.5, 2, 0), retention=(0,)
    )),
    (42, _certificate(_stamp(16, 3, 0), retention=(2, 3))),
]

#: A second wave over the same keys, so the pins also cover the delta
#: of a replace (old digest XOR new) and of a drop.
REWRITES = [
    ("alpha", VersionedValue("10.0.7.13", _stamp(1790000001.5, 3, 2))),
    (7, _certificate(_stamp(20, 2, 4), retention=(5,))),
    ("gone", VersionedValue("back", _stamp(21, 1, 0))),
    (("svc", "printer"), VersionedValue({"addr": [10, 0, 7, 99]}, _stamp(22, 5, 3))),
    ("late", VersionedValue("new key", _stamp(23, 0, 0))),
]
PURGES = ["", (("nested", 3), "x")]


def _snapshot(store):
    return {
        "root": f"{store.checksum:032x}",
        "buckets": {
            str(bucket): f"{store.bucket_checksum(bucket):032x}"
            for bucket in store.checksum_tree.nonzero_buckets()
        },
    }


def golden_values():
    out = {}
    for bits in BUCKET_BITS:
        store = ReplicaStore(site_id=0, bucket_bits=bits)
        for key, entry in CORPUS:
            store.apply_entry(key, entry)
        loaded = _snapshot(store)
        for key, entry in REWRITES:
            store.apply_entry(key, entry)
        for key in PURGES:
            store.purge(key)
        out[f"bits={bits}"] = {"loaded": loaded, "rewritten": _snapshot(store)}
    return out


class TestGoldenChecksums:
    def test_every_root_and_bucket_matches_the_pinned_file(self):
        assert golden_values() == json.loads(GOLDEN.read_text())

    def test_bulk_apply_and_row_apply_reach_the_same_pins(self):
        pinned = json.loads(GOLDEN.read_text())
        for bits in BUCKET_BITS:
            store = ReplicaStore(site_id=0, bucket_bits=bits)
            store.apply_updates(
                [StoreUpdate(key, entry) for key, entry in CORPUS]
            )
            assert _snapshot(store) == pinned[f"bits={bits}"]["loaded"]

    def test_the_pins_do_not_depend_on_when_the_flush_ran(self):
        pinned = json.loads(GOLDEN.read_text())["bits=6"]["rewritten"]
        store = ReplicaStore(site_id=0)
        for key, entry in CORPUS + REWRITES:
            store.apply_entry(key, entry)
            store.checksum  # a flush after every single mutation
        for key in PURGES:
            store.purge(key)
            store.bucket_len(0)
        assert _snapshot(store) == pinned


class _Counter:
    def __init__(self, wrapped):
        self.wrapped = wrapped
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.wrapped(*args, **kwargs)


@pytest.fixture
def digests(monkeypatch):
    """Counts the key digests the store computes: ``key_digest_bytes``
    (the flush's) and ``key_digest`` (``bucket_of``'s), as one count."""
    counter = _Counter(store_module.key_digest_bytes)
    monkeypatch.setattr(store_module, "key_digest_bytes", counter)
    monkeypatch.setattr(store_module, "key_digest", lambda key: int.from_bytes(counter(key), "big"))
    return counter


@pytest.fixture
def tree_walks(monkeypatch):
    """Counts ``ChecksumTree.apply`` calls (one leaf-to-root walk each)."""
    counter = _Counter(ChecksumTree.apply)
    monkeypatch.setattr(
        ChecksumTree, "apply", lambda tree, bucket, delta: counter(tree, bucket, delta)
    )
    return counter


class TestWorkCounts:
    N = 500

    def test_writes_hash_nothing_and_the_read_hashes_each_key_once(self, digests):
        store = ReplicaStore(site_id=0, bucket_bits=4)
        for index in range(self.N):
            store.update(f"key-{index}", index)
        assert digests.calls == 0
        store.checksum
        assert digests.calls == self.N
        store.checksum
        store.bucket_len(3)
        assert digests.calls == self.N  # clean: nothing left to digest

    def test_no_mutation_path_computes_a_digest(self, digests):
        store = ReplicaStore(site_id=0, bucket_bits=4)
        updates = [store.update(f"key-{index}", index) for index in range(20)]
        store.checksum
        digests.calls = 0
        store.apply_updates(updates)  # every row EQUAL: dirties nothing
        store.update("key-1", "again")
        store.delete("key-2", retention_sites=(0,))
        store.purge("key-3")
        store.apply_entry("new", VersionedValue(1, _stamp(1e6)))
        store.apply_updates(
            [StoreUpdate(f"bulk-{index}", VersionedValue(1, _stamp(2e6, 1, index)))
             for index in range(20)]
        )
        assert store.sweep_certificates(tau1=-1.0).made_dormant == 1
        assert digests.calls == 0
        store.checksum
        # key-1, key-2 (deleted, then swept: one net change), key-3,
        # "new" and the twenty bulk keys.
        assert digests.calls == 24
        assert store.checksum == store.recompute_checksum()

    def test_a_key_rewritten_while_dirty_is_digested_once(self, digests):
        store = ReplicaStore(site_id=0)
        for value in range(10):
            store.update("hot", value)
        store.update("added-then-purged", 1)
        store.purge("added-then-purged")
        store.checksum
        assert digests.calls == 1

    def test_a_fold_past_the_key_cache_still_digests_each_key_once(self, digests):
        store = ReplicaStore(site_id=0, bucket_bits=10)
        for index in range(BULK):
            store.update(f"bulk-{index}", index)
        store.checksum
        assert digests.calls == BULK

    def test_cold_fold_walks_the_tree_once_per_bucket(self, tree_walks):
        store = ReplicaStore(site_id=0, bucket_bits=4)
        for index in range(self.N):
            store.update(f"key-{index}", index)
        assert tree_walks.calls == 0
        store.checksum
        assert 0 < tree_walks.calls <= store.bucket_count
        assert store.checksum == store.recompute_checksum()

    def test_bucket_readers_flush_before_reading(self):
        store = ReplicaStore(site_id=0, bucket_bits=2)
        update = store.update("k", 1)
        bucket = store.bucket_of("k")
        assert store.bucket_len(bucket) == 1
        store.update("k2", 2)
        assert dict(store.bucket_entries(store.bucket_of("k2")))["k2"].value == 2
        store.purge("k")
        assert update not in list(store.bucket_updates_newest_first(bucket))
        store.update("k3", 3)
        recent = store.recent_updates(1e9, bucket=store.bucket_of("k3"))
        assert "k3" in [u.key for u in recent]
        assert sum(store.bucket_len(b) for b in range(store.bucket_count)) == len(store)


class TestTheSharedKeyCache:
    def test_a_bulk_fold_keeps_the_warm_digests(self):
        warm = [f"warm-{index}" for index in range(1000)]
        for key in warm:
            key_digest(key)
        store = ReplicaStore(site_id=0, bucket_bits=10)
        for index in range(BULK):
            store.update(f"cold-{index}", index)
        store.checksum
        hits = _encoded_key_digest.cache_info().hits
        for key in warm:
            key_digest(key)
        assert _encoded_key_digest.cache_info().hits == hits + len(warm)


if __name__ == "__main__":  # regenerate the golden file (see module docstring)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(golden_values(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
