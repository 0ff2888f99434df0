"""The inverted timestamp index backing recent-update lists and peel back."""

import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from repro.core import tsindex
from repro.core.timestamps import Timestamp
from repro.core.tsindex import TimestampIndex


def ts(t: float, site: int = 0, seq: int = 0) -> Timestamp:
    return Timestamp(t, site, seq)


class TestBasics:
    def test_empty(self):
        index = TimestampIndex()
        assert len(index) == 0
        assert list(index.newest_first()) == []
        assert index.oldest() is None

    def test_set_and_lookup(self):
        index = TimestampIndex()
        index.set("a", ts(1))
        assert "a" in index
        assert index.timestamp_of("a") == ts(1)

    def test_newest_first_order(self):
        index = TimestampIndex()
        index.set("a", ts(1))
        index.set("b", ts(3))
        index.set("c", ts(2))
        assert [k for k, __ in index.newest_first()] == ["b", "c", "a"]

    def test_overwrite_moves_key(self):
        index = TimestampIndex()
        index.set("a", ts(1))
        index.set("b", ts(2))
        index.set("a", ts(3))
        assert [k for k, __ in index.newest_first()] == ["a", "b"]
        assert len(index) == 2

    def test_discard(self):
        index = TimestampIndex()
        index.set("a", ts(1))
        index.discard("a")
        assert "a" not in index
        assert list(index.newest_first()) == []

    def test_discard_missing_is_noop(self):
        index = TimestampIndex()
        index.discard("ghost")
        assert len(index) == 0

    def test_oldest(self):
        index = TimestampIndex()
        index.set("a", ts(5))
        index.set("b", ts(2))
        assert index.oldest() == ("b", ts(2))

    def test_newer_than_cutoff(self):
        index = TimestampIndex()
        for i in range(10):
            index.set(i, ts(float(i)))
        newer = list(index.newer_than(ts(6.0)))
        assert [k for k, __ in newer] == [9, 8, 7]

    def test_mixed_key_types_with_equal_timestamps(self):
        # int and str keys at the same timestamp must not raise on
        # comparison inside the sorted structure.
        index = TimestampIndex()
        index.set(1, ts(1.0))
        index.set("one", ts(1.0))
        index.set((2, "t"), ts(1.0))
        assert len(list(index.newest_first())) == 3


class TestCompaction:
    def test_heavy_churn_stays_correct(self):
        index = TimestampIndex()
        for round_number in range(30):
            for key in range(20):
                index.set(key, ts(float(round_number * 20 + key)))
        assert len(index) == 20
        keys = [k for k, __ in index.newest_first()]
        assert keys == list(range(19, -1, -1))

    def test_discard_churn(self):
        index = TimestampIndex()
        for i in range(200):
            index.set(i % 10, ts(float(i)))
            if i % 3 == 0:
                index.discard(i % 10)
        survivors = [k for k, __ in index.newest_first()]
        assert len(survivors) == len(set(survivors))


class TestIndexProperties:
    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["set", "discard"]),
                st.integers(0, 8),
                st.floats(0, 100, allow_nan=False),
            ),
            max_size=80,
        )
    )
    def test_model_conformance(self, operations):
        """The index behaves like a dict plus sorting."""
        index = TimestampIndex()
        model: dict = {}
        seq = 0
        for op, key, time in operations:
            if op == "set":
                stamp = ts(time, seq=seq)
                seq += 1
                index.set(key, stamp)
                model[key] = stamp
            else:
                index.discard(key)
                model.pop(key, None)
        assert len(index) == len(model)
        expected = sorted(model.items(), key=lambda kv: kv[1], reverse=True)
        assert list(index.newest_first()) == expected

    @pytest.mark.parametrize("insert_ratio", [64, 0], ids=["sort", "insert"])
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("set"),
                    st.integers(0, 8),
                    st.floats(0, 100, allow_nan=False),
                ),
                st.tuples(st.just("discard"), st.integers(0, 8), st.none()),
                st.tuples(
                    st.sampled_from(["read", "oldest", "newer"]),
                    st.none(),
                    st.floats(0, 100, allow_nan=False),
                ),
            ),
            max_size=300,
        )
    )
    def test_out_of_order_sets_interleaved_with_ordered_reads(
        self, insert_ratio, operations
    ):
        """Appends arrive in any timestamp order; every ordered reader,
        whenever it runs — before, between or after compactions (300
        operations on nine keys force several) — sees dict-plus-sorting,
        whichever way it puts the out-of-order tail in place (a list this
        short always re-sorts; ratio 0 makes it always insert)."""
        with mock.patch.object(tsindex, "_INSERT_RATIO", insert_ratio):
            self.check_interleaved(operations)

    @staticmethod
    def check_interleaved(operations):
        index = TimestampIndex()
        model: dict = {}
        seq = 0
        for op, key, time in operations:
            if op == "set":
                stamp = ts(time, seq=seq)
                seq += 1
                index.set(key, stamp)
                model[key] = stamp
            elif op == "discard":
                index.discard(key)
                model.pop(key, None)
            else:
                expected = sorted(model.items(), key=lambda kv: kv[1], reverse=True)
                if op == "read":
                    assert list(index.newest_first()) == expected
                elif op == "oldest":
                    assert index.oldest() == (expected[-1] if expected else None)
                else:
                    cutoff = ts(time, seq=seq)
                    assert list(index.newer_than(cutoff)) == [
                        pair for pair in expected if pair[1] > cutoff
                    ]
        assert len(index) == len(model)
        assert list(index.newest_first()) == sorted(
            model.items(), key=lambda kv: kv[1], reverse=True
        )


class TestAppendOnly:
    def test_key_set_back_to_the_same_timestamp_object_is_yielded_once(self):
        index = TimestampIndex()
        first, second = ts(1), ts(2)
        index.set("a", first)
        index.set("a", second)
        index.set("a", first)
        assert list(index.newest_first()) == [("a", first)]
        assert index.oldest() == ("a", first)

    def test_equal_timestamps_keep_the_order_they_were_set_in(self):
        index = TimestampIndex()
        index.set("late", ts(9))
        for key in ("x", 3, ("t", 1)):
            index.set(key, ts(5))
        assert [k for k, __ in index.newest_first()] == ["late", ("t", 1), 3, "x"]

    def test_a_held_walker_survives_sets_at_or_above_its_position(self):
        """Peel back mutates a store while it walks that store's index:
        it applies the peer's update at the timestamp its own walk has
        reached, so the sets are never older than what the walker has
        left, and a second ordered read must not disturb the first."""
        index = TimestampIndex()
        for i in range(400):
            index.set(i, ts(float(i)))
        walker = index.newest_first()
        assert [next(walker)[0] for __ in range(300)] == list(range(399, 99, -1))
        index.set("few", ts(200.5))  # one straggler far back: inserted
        assert [k for k, __ in index.newest_first()][198:201] == [201, "few", 200]
        for i in range(40):  # a burst: everything above 150 is re-sorted
            index.set(("burst", i), ts(150.0, seq=40 - i))
        assert len(list(index.newest_first())) == 441
        assert [k for k, __ in walker] == list(range(99, -1, -1))

    @pytest.mark.parametrize(
        "lag, stragglers",
        [(5.0, 2), (5.0, 40), (20_000.0, 2), (20_000.0, 400)],
        ids=["recent-few", "recent-burst", "anywhere-few", "anywhere-burst"],
    )
    def test_a_reader_pays_for_the_out_of_order_tail_not_the_index(
        self, monkeypatch, lag, stragglers
    ):
        """A replica fed by several sites sees out-of-order stamps
        between any two CHECKSUM exchanges, each of which reads the
        recent-update list.  Counted in sort-key extractions (wall time
        would flake): a read after a few out-of-order sets touches the
        region they reach into or bisects them in, never all 20 000
        pairs; and what it yields is what sorting the model yields."""
        calls = []
        monkeypatch.setattr(
            tsindex, "_order", lambda pair: calls.append(1) or pair[0]
        )
        size = 20_000
        index = TimestampIndex()
        model = {}
        for i in range(size):
            index.set(i, ts(float(i)))
            model[i] = ts(float(i))
        rng = random.Random(1987)
        now = float(size)
        worst = 0
        for round_ in range(30):
            for j in range(stragglers):
                now += 1.0
                stamp = ts(now, site=1)
                index.set(("new", round_, j), stamp)
                model[("new", round_, j)] = stamp
                stamp = ts(now - rng.uniform(0.1, lag), site=2, seq=j)
                key = rng.randrange(size) if j % 2 else ("late", round_, j)
                index.set(key, stamp)
                model[key] = stamp
            cutoff = ts(now - 10.0)
            del calls[:]
            got = list(index.newer_than(cutoff))
            worst = max(worst, len(calls))
            expected = sorted(
                (kv for kv in model.items() if kv[1] > cutoff),
                key=lambda kv: kv[1],
                reverse=True,
            )
            assert got == expected
        assert list(index.newest_first()) == sorted(
            model.items(), key=lambda kv: kv[1], reverse=True
        )
        if lag < 100 or stragglers < 100:
            # the region the stragglers reach into plus the tail, or a
            # bisect per straggler: two orders of magnitude under `size`
            assert worst <= 2 * stragglers * (lag + 20), worst
            assert worst < size // 10, worst
