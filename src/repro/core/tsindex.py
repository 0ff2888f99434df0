"""An inverted index of database entries by timestamp (Section 1.3).

The *peel back* variant of anti-entropy exchanges updates in reverse
timestamp order until checksum agreement, which requires each site to
"maintain an inverted index of its database by timestamp".  The paper
notes this index is the scheme's main cost, so only its readers pay it:
writes *append* a pair to a plain list, and the ordered readers (peel
back, recent-update lists) put the list in order — in C, over plain
``(time, site, sequence)`` tuples — before iterating.  What a reader
pays is proportional to how far back the out-of-order appends reach,
not to the size of the index: a replica fed by gossip from several
sites sees stamps a little out of order all the time, and re-sorts
only the newest few pairs; only a shuffled bulk load sorts everything.

The index maps each key to its *current* entry timestamp.  Stale pairs
(left behind when a key is overwritten or dropped) are skipped during
iteration and physically removed when they exceed half the list, keeping
iteration amortized O(1) per yielded item.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import itemgetter
from typing import Hashable, Iterable, Iterator, Tuple

from repro.core.timestamps import Timestamp

_order = itemgetter(0)

# Sorting a region costs a key extraction and a comparison per pair;
# inserting one pair costs a bisect and a memmove of the same region,
# about 1/400 of that per pair (measured at 200 k and 1 M pairs).  Well
# inside that ratio, so the insert path is never the slower one.
_INSERT_RATIO = 64


class TimestampIndex:
    """Append-only ``(order, key, timestamp)`` pairs, sorted on read.

    ``order`` is the timestamp's ``(time, site, sequence)`` as a plain
    tuple: comparing those never leaves C, where comparing
    :class:`Timestamp` objects calls their Python-level ``__lt__``.  A
    pair is live when its timestamp *is* the object recorded for its
    key, so liveness is an identity test.  Pairs with equal timestamps
    keep the order they were set in (the sort is stable).

    ``_pairs[:_sorted_len]`` is in order; ``_low`` is the smallest order
    appended behind a larger one since (``None`` while the whole list is
    in order), which bounds how much of the sorted prefix a reader has
    to touch.
    """

    __slots__ = ("_pairs", "_current", "_stale", "_sorted_len", "_low")

    def __init__(self) -> None:
        self._pairs: list[Tuple[tuple, Hashable, Timestamp]] = []
        self._current: dict[Hashable, Timestamp] = {}
        self._stale = 0
        self._sorted_len = 0
        self._low: tuple | None = None

    def __len__(self) -> int:
        """Number of live keys in the index."""
        return len(self._current)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._current

    def timestamp_of(self, key: Hashable) -> Timestamp | None:
        return self._current.get(key)

    def set(self, key: Hashable, timestamp: Timestamp) -> None:
        """Insert or move ``key`` to ``timestamp``."""
        old = self._current.get(key)
        if old is not None:
            if old is timestamp or old == timestamp:
                return
            self._stale += 1
        self._current[key] = timestamp
        order = (timestamp.time, timestamp.site, timestamp.sequence)
        pairs = self._pairs
        if pairs and order < pairs[-1][0]:
            self._appending_behind(order)
        pairs.append((order, key, timestamp))
        if old is not None:
            self._maybe_compact()

    def _appending_behind(self, order: tuple) -> None:
        """``order`` is about to be appended behind a larger one."""
        low = self._low
        if low is None:
            self._sorted_len = len(self._pairs)
            self._low = order
        elif order < low:
            self._low = order

    def set_run(self, run: list) -> None:
        """:meth:`set` for a run of ``(order, key, timestamp)`` pairs.

        What a bulk apply hands over after merging a received update
        list: the pairs as the index stores them, ``order`` already
        built for the timestamp comparison that admitted the entry.
        Leaves the index exactly as one :meth:`set` per pair would,
        checking for compaction once at the end.
        """
        current = self._current
        pairs = self._pairs
        last = pairs[-1][0] if pairs else None
        moved = 0
        for pair in run:
            order, key, timestamp = pair
            old = current.get(key)
            if old is not None:
                if old is timestamp or old == timestamp:
                    continue
                moved += 1
            current[key] = timestamp
            if last is not None and order < last:
                self._appending_behind(order)
            pairs.append(pair)
            last = order
        if moved:
            self._stale += moved
            self._maybe_compact()

    def discard(self, key: Hashable) -> None:
        """Remove ``key`` from the index if present."""
        if key in self._current:
            del self._current[key]
            self._stale += 1
            self._maybe_compact()

    def _ordered_pairs(self) -> list:
        """The pair list, oldest first.

        Every pair appended since the list was last in order is at least
        ``_low``, so the sorted prefix below ``_low`` is already in
        place: only the pairs from there up are sorted (one presorted
        run plus the appended tail, which timsort merges rather than
        sorts).  A few stragglers reaching far back are cheaper to
        insert one by one — a ``memmove`` each — than a pass over
        everything newer than the oldest of them.

        A walker a caller still holds is undisturbed as long as the sets
        made since are no older than the pairs it has left to yield —
        peel back's case, which applies a peer's update at the timestamp
        its own walk has reached.
        """
        low = self._low
        if low is not None:
            pairs = self._pairs
            prefix = self._sorted_len
            start = bisect_left(pairs, low, 0, prefix, key=_order)
            if (len(pairs) - prefix) * _INSERT_RATIO < prefix - start:
                tail = pairs[prefix:]
                del pairs[prefix:]
                for pair in tail:  # in arrival order: equal stamps stay stable
                    insort(pairs, pair, key=_order)
            else:
                pairs[start:] = sorted(pairs[start:], key=_order)
            self._low = None
        return self._pairs

    def newest_first(self) -> Iterator[Tuple[Hashable, Timestamp]]:
        """Yield live ``(key, timestamp)`` pairs, newest first.

        Safe against concurrent :meth:`set`/:meth:`discard` of keys that
        have not yet been yielded only in the sense that already-yielded
        state is unaffected; callers that mutate during iteration should
        materialize the prefix they need first.
        """
        seen: set[Hashable] = set()
        current = self._current
        for __, key, timestamp in reversed(self._ordered_pairs()):
            if current.get(key) is not timestamp or key in seen:
                continue  # stale pair, or a key set back to the same stamp
            seen.add(key)
            yield key, timestamp

    def newer_than(self, cutoff: Timestamp) -> Iterator[Tuple[Hashable, Timestamp]]:
        """Yield live pairs with ``timestamp > cutoff``, newest first."""
        for key, timestamp in self.newest_first():
            if timestamp <= cutoff:
                return
            yield key, timestamp

    def newest_first_in(
        self, keys: Iterable[Hashable]
    ) -> Iterator[Tuple[Hashable, Timestamp]]:
        """Live pairs restricted to ``keys``, newest first.

        The per-bucket variant of :meth:`newest_first`: a hierarchical
        exchange peels back or lists recent updates *within one hash
        bucket*, and sorting the bucket's keys by their current
        timestamps directly is O(k log k) in the bucket size — it never
        touches the global pair list, so cost is independent of the
        database size.  Keys absent from the index are skipped.
        """
        pairs = [
            (timestamp, _OrderedKey(key))
            for key, timestamp in (
                (key, self._current.get(key)) for key in keys
            )
            if timestamp is not None
        ]
        pairs.sort(reverse=True)
        for timestamp, okey in pairs:
            yield okey.key, timestamp

    def oldest(self) -> Tuple[Hashable, Timestamp] | None:
        """Return the live pair with the smallest timestamp, if any."""
        current = self._current
        for __, key, timestamp in self._ordered_pairs():
            if current.get(key) is timestamp:
                return key, timestamp
        return None

    def _maybe_compact(self) -> None:
        if self._stale <= len(self._current) or self._stale < 64:
            return
        # Keep each key's newest live pair: a key that moved away from a
        # timestamp and back to the same object holds two.  The pass is
        # O(n) whatever the order, so it leaves the new list in order.
        current = self._current
        kept: list = []
        seen: set[Hashable] = set()
        for pair in reversed(self._ordered_pairs()):
            key = pair[1]
            if current.get(key) is pair[2] and key not in seen:
                seen.add(key)
                kept.append(pair)
        kept.reverse()
        self._pairs = kept
        self._stale = 0


class _OrderedKey:
    """Wrap keys so heterogeneous key types never break pair comparison.

    :meth:`TimestampIndex.newest_first_in` sorts ``(timestamp, key)``
    tuples of an unordered key set; when two timestamps are equal the
    comparison falls through to the key.  Keys of mixed
    types (e.g. ``int`` and ``str``) are not mutually orderable, so we
    compare their ``repr`` instead — a stable, total order is all the
    index needs.

    The rank string is computed lazily: timestamps are globally unique,
    so the tie-break almost never runs, and caching a repr per key would
    roughly double the index's memory on a million-key store.
    """

    __slots__ = ("key",)

    def __init__(self, key: Hashable):
        self.key = key

    def __lt__(self, other: "_OrderedKey") -> bool:
        return repr(self.key) < repr(other.key)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _OrderedKey) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_OrderedKey({self.key!r})"
