"""Database checksums: order independence, incrementality (Section 1.3)."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from repro.core.checksum import (
    ChecksumTree,
    DatabaseChecksum,
    encode_key,
    entry_digest,
    key_digest,
)


class TestEntryDigest:
    def test_deterministic(self):
        assert entry_digest("k", b"abc") == entry_digest("k", b"abc")

    def test_sensitive_to_key_and_content(self):
        base = entry_digest("k", b"abc")
        assert entry_digest("k2", b"abc") != base
        assert entry_digest("k", b"abd") != base

    def test_key_content_boundary_is_unambiguous(self):
        # ("ab", "c...") must not collide with ("a", "bc...").
        assert entry_digest("ab", b"c") != entry_digest("a", b"bc")

    def test_digest_width(self):
        assert 0 <= entry_digest("k", b"v") < 2 ** 128

    def test_string_and_int_keys_never_collide(self):
        # Regression: digesting repr(key) made "1" and 1 distinguishable
        # only by quoting conventions; the canonical JSON encoding keeps
        # them distinct by type.
        assert entry_digest("1", b"v") != entry_digest(1, b"v")

    def test_tuple_keys_digest_canonically(self):
        assert entry_digest(("a", 1), b"v") == entry_digest(("a", 1), b"v")
        assert entry_digest(("a", 1), b"v") != entry_digest(("a", "1"), b"v")


class TestEncodeKey:
    def test_strings_ints_floats_bools_tuples(self):
        for key in ("k", 7, 2.5, True, False, ("a", 1), ((1, 2), "x")):
            blob = encode_key(key)
            assert isinstance(blob, bytes)
            assert blob == encode_key(key)

    def test_distinct_keys_encode_distinctly(self):
        keys = ["1", 1, 1.5, True, ("1",), (1,), ("a", "b"), (("a",), "b")]
        encodings = {encode_key(key) for key in keys}
        assert len(encodings) == len(keys)

    def test_unencodable_keys_rejected(self):
        with pytest.raises(ValueError):
            encode_key(object())

    def test_digest_agrees_across_processes(self):
        """The digest must be a pure function of the key's content.

        ``repr``-based digests were content-determined too, but nothing
        guarded that property; run a child interpreter with a different
        hash seed (the classic way process-dependent state leaks in) and
        require identical digests for every key shape we support.
        """
        keys = ["printer:bldg-35", 42, 2.5, True, ("site", 7), "uniçode"]
        program = (
            "from repro.core.checksum import key_digest, entry_digest\n"
            "keys = ['printer:bldg-35', 42, 2.5, True, ('site', 7), 'uni\\u00e7ode']\n"
            "print([ (key_digest(k), entry_digest(k, b'payload')) for k in keys])\n"
        )
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = "12345"
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        result = subprocess.run(
            [sys.executable, "-c", program],
            capture_output=True, text=True, env=env, check=True,
        )
        theirs = eval(result.stdout.strip())  # noqa: S307 - our own output
        ours = [(key_digest(k), entry_digest(k, b"payload")) for k in keys]
        assert theirs == ours

    @pytest.mark.parametrize(
        "key",
        [
            "key-0001234", "", "uni\u00e7ode \"quoted\" \\ \n", 0, -17, 2**80,
            2.5, 1e300, float("inf"), True, False,
            ("site", 7), ("a", ("b", 2.0), True), (),
        ],
        ids=repr,
    )
    def test_shared_encoder_matches_json_dumps_bytes(self, key):
        """``encode_key`` reuses one ``JSONEncoder``; its bytes are the
        digest's input on every replica, so they must stay exactly what
        the per-call ``json.dumps`` spelling produced."""
        assert encode_key(key) == json.dumps(
            key, separators=(",", ":"), sort_keys=True, ensure_ascii=False
        ).encode("utf-8")


class TestChecksumTree:
    def test_root_equals_whole_database_checksum(self):
        tree = ChecksumTree(bucket_bits=4)
        entries = [("a", b"1"), ("b", b"2"), (7, b"3"), (("t", 1), b"4")]
        for key, blob in entries:
            kd = key_digest(key)
            tree.apply(tree.bucket_of(kd), entry_digest(key, blob))
        assert tree.root == DatabaseChecksum.of(entries).value

    def test_apply_remove_round_trips(self):
        tree = ChecksumTree(bucket_bits=3)
        delta = entry_digest("k", b"v")
        bucket = tree.bucket_of(key_digest("k"))
        tree.apply(bucket, delta)
        tree.apply(bucket, delta)  # XOR: applying twice removes
        assert tree.root == 0
        assert all(tree.node(i) == 0 for i in range(1, 2 * tree.buckets))

    def test_internal_nodes_are_xor_of_children(self):
        tree = ChecksumTree(bucket_bits=5)
        for i in range(100):
            kd = key_digest(i)
            tree.apply(tree.bucket_of(kd), entry_digest(i, b"x"))
        for node in range(1, tree.buckets):
            left, right = tree.children(node)
            assert tree.node(node) == tree.node(left) ^ tree.node(right)

    def test_diff_buckets_finds_exactly_the_differences(self):
        a = ChecksumTree(bucket_bits=6)
        b = ChecksumTree(bucket_bits=6)
        for i in range(200):
            kd = key_digest(i)
            delta = entry_digest(i, b"shared")
            a.apply(a.bucket_of(kd), delta)
            b.apply(b.bucket_of(kd), delta)
        changed = {a.bucket_of(key_digest(f"extra-{j}")) for j in range(3)}
        for j in range(3):
            key = f"extra-{j}"
            a.apply(a.bucket_of(key_digest(key)), entry_digest(key, b"new"))
        dirty, comparisons = a.diff_buckets(b)
        assert set(dirty) == changed
        assert comparisons >= len(changed)

    def test_diff_of_equal_trees_is_empty(self):
        a = ChecksumTree(bucket_bits=4)
        b = ChecksumTree(bucket_bits=4)
        dirty, comparisons = a.diff_buckets(b)
        assert dirty == []
        assert comparisons == 1  # the root comparison prunes everything

    def test_diff_rejects_mismatched_bucket_counts(self):
        with pytest.raises(ValueError):
            ChecksumTree(bucket_bits=4).diff_buckets(ChecksumTree(bucket_bits=5))

    def test_single_bucket_tree(self):
        tree = ChecksumTree(bucket_bits=0)
        assert tree.buckets == 1
        assert tree.is_leaf(1)
        delta = entry_digest("k", b"v")
        tree.apply(0, delta)
        assert tree.root == delta


class TestDatabaseChecksum:
    def test_empty_checksum_is_zero(self):
        assert DatabaseChecksum().value == 0

    def test_add_remove_round_trips(self):
        checksum = DatabaseChecksum()
        checksum.add("k", b"v")
        checksum.remove("k", b"v")
        assert checksum.value == 0

    def test_order_independent(self):
        entries = [("a", b"1"), ("b", b"2"), ("c", b"3")]
        forward = DatabaseChecksum.of(entries)
        backward = DatabaseChecksum.of(reversed(entries))
        assert forward == backward

    def test_replace_equals_remove_then_add(self):
        a = DatabaseChecksum()
        a.add("k", b"old")
        a.replace("k", b"old", b"new")
        b = DatabaseChecksum.of([("k", b"new")])
        assert a == b

    def test_replace_with_no_previous(self):
        a = DatabaseChecksum()
        a.replace("k", None, b"new")
        assert a == DatabaseChecksum.of([("k", b"new")])

    def test_different_contents_differ(self):
        a = DatabaseChecksum.of([("k", b"1")])
        b = DatabaseChecksum.of([("k", b"2")])
        assert a != b

    def test_comparison_with_int(self):
        a = DatabaseChecksum.of([("k", b"1")])
        assert a == a.value
        assert not (a == a.value + 1)

    def test_copy_is_independent(self):
        a = DatabaseChecksum.of([("k", b"1")])
        b = a.copy()
        b.add("k2", b"2")
        assert a != b


class TestChecksumProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.binary(min_size=0, max_size=8)),
            max_size=40,
        )
    )
    def test_incremental_matches_batch(self, entries):
        incremental = DatabaseChecksum()
        for key, blob in entries:
            incremental.add(key, blob)
        assert incremental == DatabaseChecksum.of(entries)

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.binary(min_size=0, max_size=4)),
            max_size=30,
        ),
        st.randoms(use_true_random=False),
    )
    def test_shuffled_insertion_order_agrees(self, entries, rng):
        shuffled = list(entries)
        rng.shuffle(shuffled)
        assert DatabaseChecksum.of(entries) == DatabaseChecksum.of(shuffled)

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.binary(min_size=0, max_size=4)),
            min_size=1,
            max_size=30,
        )
    )
    def test_removing_everything_returns_to_zero(self, entries):
        checksum = DatabaseChecksum.of(entries)
        for key, blob in entries:
            checksum.remove(key, blob)
        assert checksum.value == 0
