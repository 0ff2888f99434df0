"""Incremental, order-independent database checksums (Section 1.3).

Sites performing anti-entropy first exchange checksums and compare their
full databases only when the checksums disagree.  For that to work the
checksum must be:

* **content-determined** — equal databases give equal checksums regardless
  of insertion order; and
* **incrementally maintainable** — applying an update must not require a
  pass over the whole database.

We XOR per-entry digests together.  XOR is commutative, associative and
self-inverse, so adding an entry and removing an entry are both a single
XOR, and the running checksum of a set of entries is independent of the
order in which they were added.  Per-entry digests are 128-bit BLAKE2b
hashes of a canonical ``(key, entry)`` encoding, making accidental
collisions (two different databases with equal checksums) vanishingly
unlikely for the database sizes at hand.

Keys enter the digest through :func:`encode_key`, a canonical byte
encoding shared with the checkpoint/wire codec (re-exported by
:mod:`repro.core.serialize`).  Hashing ``repr(key)`` — the historical
behavior — was wrong: any key type without a content-determined repr
(the default ``<object at 0x...>`` repr embeds a memory address) gave
two replicas permanently disagreeing checksums for identical data,
forcing a full database comparison on every anti-entropy exchange.

For stores beyond a few thousand entries one checksum for the whole
database is too coarse: a single differing key forces a full comparison.
:class:`ChecksumTree` partitions the keyspace into ``2**bucket_bits``
hash buckets (by the low bits of the canonical key digest) and folds the
per-bucket checksums up a binary Merkle-style tree, so two replicas can
compare the root, recurse only into differing subtrees, and identify the
exact buckets that differ in ``O(dirty buckets · log buckets)`` checksum
comparisons — never touching agreeing entries.
"""

from __future__ import annotations

import functools
import hashlib
import json
from typing import Callable, Hashable, Iterable, Iterator, List, Optional, Tuple

DIGEST_BITS = 128
_DIGEST_BYTES = DIGEST_BITS // 8


#: One encoder for every key: ``json.dumps`` with non-default arguments
#: builds a fresh ``JSONEncoder`` per call, which cost more than the
#: encoding itself on the first write of every key and on every fold.
_KEY_ENCODER = json.JSONEncoder(
    separators=(",", ":"), sort_keys=True, ensure_ascii=False
)


def encode_key(key: Hashable) -> bytes:
    """Canonical byte encoding of a database key.

    Content-determined: two processes encoding the same logical key get
    the same bytes, regardless of memory layout, hash randomization, or
    interpreter version.  Supports the JSON-compatible key types that can
    cross the wire — ``str``, ``int``, ``float``, ``bool`` — plus tuples
    of those (tuples encode as JSON arrays; lists are unhashable, so the
    encoding stays injective over valid keys).

    Raises :class:`ValueError` for keys with no canonical encoding
    (e.g. arbitrary objects, whose default repr embeds ``id()``).
    """
    try:
        return _KEY_ENCODER.encode(key).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise ValueError(
            f"key {key!r} has no canonical encoding "
            f"(use str/int/float/bool keys, or tuples of those): {error}"
        ) from None


@functools.lru_cache(maxsize=65536)
def _encoded_key_digest(encoded: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(encoded, digest_size=_DIGEST_BYTES).digest(), "big"
    )


def key_digest(key: Hashable) -> int:
    """128-bit content-determined digest of a key alone.

    Used both as the fixed-width key prefix inside :func:`entry_digest`
    and — via its low bits — as the key's bucket assignment in
    :class:`ChecksumTree`.  The hash step is memoized on the canonical
    encoding (safe even for ``1`` vs ``True``, whose encodings differ).
    """
    return _encoded_key_digest(encode_key(key))


def key_digest_bytes(key: Hashable) -> bytes:
    """:func:`key_digest` as its 16 big-endian bytes, hashed afresh.

    What the store's flush digests keys with.  It is not memoized: a
    flush digests each dirty key once, no benchmarked workload runs
    faster with the memo in the flush (docs/performance.md), and one
    bulk fold would evict every warm entry of :func:`key_digest`'s memo
    for digests nobody asks for again.
    """
    return hashlib.blake2b(encode_key(key), digest_size=_DIGEST_BYTES).digest()


def entry_digest_of(kd: bytes, encoded_entry: bytes) -> int:
    """128-bit digest of one entry given its key's
    :func:`key_digest_bytes`: the store's flush digests a key once and
    folds both entry digests of a replace from it."""
    return int.from_bytes(
        hashlib.blake2b(kd + b"\x00" + encoded_entry, digest_size=_DIGEST_BYTES).digest(),
        "big",
    )


def entry_digest_with(kd: int, encoded_entry: bytes) -> int:
    """128-bit digest of one entry given a precomputed :func:`key_digest`."""
    return entry_digest_of(kd.to_bytes(_DIGEST_BYTES, "big"), encoded_entry)


def entry_digest(key: Hashable, encoded_entry: bytes) -> int:
    """128-bit digest of one ``(key, entry)`` pair.

    The key participates through its fixed-width :func:`key_digest`, so
    the key/content boundary is unambiguous by construction and the
    digest is content-determined for every supported key type.
    """
    return entry_digest_with(key_digest(key), encoded_entry)


class DatabaseChecksum:
    """A running XOR-of-digests checksum over a set of entries."""

    __slots__ = ("_value",)

    def __init__(self, value: int = 0):
        self._value = value

    @property
    def value(self) -> int:
        return self._value

    def add(self, key: Hashable, encoded_entry: bytes) -> None:
        """Fold a new entry into the checksum (O(1))."""
        self._value ^= entry_digest(key, encoded_entry)

    def remove(self, key: Hashable, encoded_entry: bytes) -> None:
        """Remove a previously added entry (XOR is self-inverse, O(1))."""
        self._value ^= entry_digest(key, encoded_entry)

    def replace(self, key: Hashable, old_encoded: bytes | None, new_encoded: bytes) -> None:
        """Swap one entry for another under the same key."""
        if old_encoded is not None:
            self.remove(key, old_encoded)
        self.add(key, new_encoded)

    def copy(self) -> "DatabaseChecksum":
        return DatabaseChecksum(self._value)

    @classmethod
    def of(cls, entries: Iterable[Tuple[Hashable, bytes]]) -> "DatabaseChecksum":
        """Compute a checksum from scratch (used to validate the incremental one)."""
        checksum = cls()
        for key, encoded in entries:
            checksum.add(key, encoded)
        return checksum

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DatabaseChecksum):
            return self._value == other._value
        if isinstance(other, int):
            return self._value == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._value)

    def __repr__(self) -> str:
        return f"DatabaseChecksum({self._value:#034x})"


class ChecksumTree:
    """A Merkle-style tree of per-bucket XOR checksums.

    Laid out as a flat segment tree: node 1 is the root, node ``i`` has
    children ``2i`` and ``2i+1``, and the ``2**bucket_bits`` leaves sit
    at indices ``[buckets, 2*buckets)``.  Because bucket checksums are
    XORs of entry digests and XOR is associative, every internal node is
    simply the XOR of its subtree's leaves — so folding an entry delta
    into one bucket updates the whole path to the root with
    ``bucket_bits + 1`` XORs, and the root equals the classic
    whole-database checksum exactly.

    Two replicas with equal ``bucket_bits`` locate their differing
    buckets by comparing roots and recursing only into differing
    children (:meth:`diff_buckets`); an exchange does the same walk two
    levels per round trip, one compared on each side (:meth:`compare`,
    :meth:`expand`).

    An owner maintaining the tree lazily (the :class:`ReplicaStore`
    defers digest folding until a checksum is actually read) registers a
    *refresh hook*: every value-reading method calls it first, so held
    references stay correct without the owner paying digest costs on
    writes nobody observes.
    """

    __slots__ = ("bucket_bits", "buckets", "_nodes", "_refresh")

    def __init__(self, bucket_bits: int = 6):
        if bucket_bits < 0:
            raise ValueError("bucket_bits must be >= 0")
        self.bucket_bits = bucket_bits
        self.buckets = 1 << bucket_bits
        self._nodes: List[int] = [0] * (2 * self.buckets)
        self._refresh: Optional[Callable[[], None]] = None

    def set_refresh_hook(self, hook: Optional[Callable[[], None]]) -> None:
        """Install (or clear) the owner's lazy-maintenance flush.

        The hook must bring the tree up to date via :meth:`apply` and
        must not read the tree back through the hooked accessors.
        """
        self._refresh = hook

    def refresh(self) -> None:
        if self._refresh is not None:
            self._refresh()

    # -- addressing ----------------------------------------------------

    def bucket_of(self, kd: int) -> int:
        """The bucket a key lands in, from its :func:`key_digest`."""
        return kd & (self.buckets - 1)

    def is_leaf(self, node_id: int) -> bool:
        return node_id >= self.buckets

    def children(self, node_id: int) -> Tuple[int, int]:
        return 2 * node_id, 2 * node_id + 1

    # -- values --------------------------------------------------------

    @property
    def root(self) -> int:
        """The whole-database checksum (XOR over every bucket)."""
        self.refresh()
        return self._nodes[1]

    def node(self, node_id: int) -> int:
        self.refresh()
        return self._nodes[node_id]

    def bucket_value(self, bucket: int) -> int:
        self.refresh()
        return self._nodes[self.buckets + bucket]

    def apply(self, bucket: int, delta: int) -> None:
        """XOR ``delta`` into one bucket and every ancestor (O(log B))."""
        if not delta:
            return
        i = self.buckets + bucket
        nodes = self._nodes
        while i:
            nodes[i] ^= delta
            i >>= 1

    # -- comparison ----------------------------------------------------

    def diff_buckets(self, other: "ChecksumTree") -> Tuple[List[int], int]:
        """Buckets whose checksums differ between the two trees.

        Returns ``(dirty_buckets, comparisons)`` where ``comparisons``
        counts node-pair checksum comparisons — the drill-down work two
        replicas would exchange.  Equal subtrees are pruned at their
        highest agreeing node, so the cost is
        ``O(dirty · bucket_bits)`` rather than ``O(buckets)``.
        """
        if self.buckets != other.buckets:
            raise ValueError(
                f"cannot diff trees with {self.buckets} vs {other.buckets} buckets"
            )
        self.refresh()
        other.refresh()
        dirty: List[int] = []
        comparisons = 0
        stack = [1]
        mine, theirs = self._nodes, other._nodes
        while stack:
            node_id = stack.pop()
            comparisons += 1
            if mine[node_id] == theirs[node_id]:
                continue
            if node_id >= self.buckets:
                dirty.append(node_id - self.buckets)
            else:
                stack.append(2 * node_id + 1)
                stack.append(2 * node_id)
        return sorted(dirty), comparisons

    def compare(self, nodes: Iterable[Tuple[int, int]]):
        """One level of :meth:`diff_buckets`' walk, against a peer's
        ``(node_id, value)`` pairs instead of its tree: ``(node_id, own
        value)`` for the internal nodes that differ, and the buckets of
        the leaves that do.  ``ValueError`` for a node id out of range."""
        self.refresh()
        mine, leaves = self._nodes, self.buckets
        inner: List[Tuple[int, int]] = []
        dirty: List[int] = []
        for node_id, theirs in nodes:
            if not 1 <= node_id < 2 * leaves:
                raise ValueError(f"tree node {node_id} out of range")
            own = mine[node_id]
            if own == theirs:
                continue  # that subtree is settled
            if node_id < leaves:
                inner.append((node_id, own))
            else:
                dirty.append(node_id - leaves)
        return inner, dirty

    def expand(self, nodes: Iterable[Tuple[int, int]]) -> List[Tuple[int, int]]:
        """``(child_id, value)`` for both children of each internal
        node in ``nodes`` — the next level a drill-down compares."""
        self.refresh()
        mine = self._nodes
        return [
            (child, mine[child]) for node, __ in nodes for child in (2 * node, 2 * node + 1)
        ]

    def nonzero_buckets(self) -> Iterator[int]:
        """Buckets with a nonzero checksum (i.e. holding entries)."""
        self.refresh()
        base = self.buckets
        for bucket in range(self.buckets):
            if self._nodes[base + bucket]:
                yield bucket

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ChecksumTree):
            self.refresh()
            other.refresh()
            return self.buckets == other.buckets and self._nodes == other._nodes
        return NotImplemented

    def __hash__(self) -> int:  # pragma: no cover - trees are not dict keys
        return hash((self.buckets, self._nodes[1]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ChecksumTree(bits={self.bucket_bits}, root={self._nodes[1]:#x})"
        )
