"""The per-site replicated database (Sections 1.1, 1.3, 2).

A :class:`ReplicaStore` is the state one site keeps for one replicated
database (in Clearinghouse terms, one *domain*):

* the active entry table ``key -> (value, timestamp)`` with last-writer-
  wins conflict resolution, where deletions are death certificates;
* an incrementally maintained order-independent checksum of the active
  table (Section 1.3's checksum optimization);
* a timestamp-ordered inverted index supporting *recent update lists*
  and *peel back* exchanges; and
* a dormant death-certificate table for the retention-site scheme of
  Section 2.1, including activation-timestamp reactivation (2.2).

The store is deliberately independent of any protocol or simulator: the
epidemic protocols hand it what they received from peers — a whole
update list (an :class:`UpdateList` of columns, or rows) through
:meth:`ReplicaStore.apply_updates`, a single entry through
:meth:`ReplicaStore.apply_entry` — and interpret the returned
:class:`ApplyResult` values.

Writes touch only the entry table, the dirty map and the timestamp
index.  Everything derived from a key's digest — its bucket, its entry
digests, the checksum tree — is brought up to date in bulk by the first
read that needs it (:meth:`ReplicaStore._flush`).
"""

from __future__ import annotations

import dataclasses
import enum
from itertools import compress, repeat
from operator import attrgetter, is_not, ne
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.core.checksum import (
    ChecksumTree,
    DatabaseChecksum,
    entry_digest_of,
    key_digest,
    key_digest_bytes,
)
from repro.core.items import (
    NIL,
    SCALAR_KEY_TYPES,
    DeathCertificate,
    Entry,
    VersionedValue,
    validate_key,
)
from repro.core.timestamps import Clock, SequenceClock, Timestamp
from repro.core.tsindex import TimestampIndex


class ApplyResult(enum.Enum):
    """Outcome of merging a received entry into the local store.

    ``APPLIED``, ``REACTIVATED`` and ``RESURRECTION_BLOCKED`` all mean the
    received data changed local state (it was "news"); ``EQUAL`` means the
    replicas already agreed on this key; ``STALE`` means the local entry is
    newer — for pull and push-pull exchanges the receiver should offer its
    own entry back to the sender.
    """

    APPLIED = "applied"
    REACTIVATED = "reactivated"
    RESURRECTION_BLOCKED = "resurrection-blocked"
    EQUAL = "equal"
    STALE = "stale"

    def __init__(self, label: str):
        # A plain attribute fixed when the member is created: receivers
        # read it two or three times per update.
        self.was_news: bool = label in ("applied", "reactivated", "resurrection-blocked")


@dataclasses.dataclass(frozen=True, slots=True, init=False)
class StoreUpdate:
    """A ``(key, entry)`` pair as shipped between sites."""

    key: Hashable
    entry: Entry

    def __init__(self, key: Hashable, entry: Entry) -> None:
        # Slot descriptors, not the generated frozen __init__ (see Timestamp).
        _set_key(self, key)
        _set_entry(self, entry)

    @property
    def timestamp(self) -> Timestamp:
        return self.entry.timestamp


_set_key = StoreUpdate.__dict__["key"].__set__
_set_entry = StoreUpdate.__dict__["entry"].__set__
_KEY_AND_ENTRY = attrgetter("key", "entry")
_HELD_ORDER = attrgetter("timestamp.time", "timestamp.site", "timestamp.sequence")

#: The held entry :meth:`UpdateList.settle` reads for an absent key:
#: its ``(None, None, None)`` equals no offered timestamp.  Never stored.
ABSENT = VersionedValue(None, Timestamp(None, None, None))


class UpdateList:
    """An update list as two parallel columns, ``keys`` and ``entries``.

    The one form in which entries move in bulk: ``decode_batch`` returns
    one, ``encode_batch``, :meth:`ReplicaStore.apply_updates` and the
    exchange endpoints read its columns, and a whole-table offer is one
    over a snapshot dict (as its key column) and its ``values()`` view.
    A column is anything that iterates in row order and has the list's
    length.  The list has the length of its columns and iterates as its
    :class:`StoreUpdate` rows — built on first use and kept, for a caller
    that reads rows (a delivery span, a transfer hook); the bulk paths
    never do, so a catch-up builds none.  Only an instance over lists may
    be extended.

    A list decoded from a wire (:meth:`decoded`) keeps its value and
    timestamp columns raw: a row's entry is built when the row is read —
    alone through :meth:`entries_where`, with every other at the first
    read of ``entries`` — and kept, so one row is always one object.
    """

    __slots__ = ("keys", "_entries", "_rows", "_raw", "_built")

    def __init__(self, keys=None, entries=None):
        self.keys = [] if keys is None else keys
        self._entries = [] if entries is None else entries
        self._rows: Optional[List[StoreUpdate]] = None
        self._raw = self._built = None

    @classmethod
    def decoded(cls, keys, values, times, sites, seqs, built: Dict[int, Entry]) -> "UpdateList":
        """Rows as a wire carries them, already checked: raw value and
        timestamp columns, and ``built`` (row → entry) the rows that are
        entries already, the certificates."""
        columns = cls(keys)
        columns._entries, columns._raw, columns._built = None, (values, times, sites, seqs), built
        return columns

    @property
    def entries(self):
        """The entry column; a decoded list builds the rows not yet built."""
        if self._entries is None:
            values, times, sites, seqs = self._raw
            entries = list(map(VersionedValue, values, map(Timestamp, times, sites, seqs)))
            for row, entry in self._built.items():
                entries[row] = entry
            self._entries, self._raw, self._built = entries, None, None
        return self._entries

    def _entry(self, row: int) -> Entry:
        entry = self._built.get(row)
        if entry is None:
            values, times, sites, seqs = self._raw
            entry = VersionedValue(values[row], Timestamp(times[row], sites[row], seqs[row]))
            self._built[row] = entry
        return entry

    def entries_where(self, mask: List[bool]) -> Iterator[Entry]:
        """The entries of the rows ``mask`` selects, building only those."""
        if self._entries is not None:
            return compress(self._entries, mask)
        return map(self._entry, compress(range(len(self.keys)), mask))

    def settle(self, store: "ReplicaStore") -> Tuple[List[Hashable], List[Entry], List[bool]]:
        """``(keys, held, unsettled)`` for the rows a judgement must see
        only, in row order: their keys, the entries ``store`` holds under
        them (:data:`ABSENT` where none), and the mask that selects them.  A built entry settles when it *is* the held one
        (stores in one process share what they ship): one lookup per row,
        and a second per unsettled row.  A raw row settles, at C speed,
        when its ``(time, site, sequence)`` equals the held one's: one
        update.  Built rows of a decoded list, certificates among them,
        are seen."""
        if self._entries is not None:
            unsettled = list(map(is_not, map(store._entries.get, self.keys), self._entries))
            keys = list(compress(self.keys, unsettled))
            return keys, store.entries_for(keys, ABSENT), unsettled
        held = store.entries_for(self.keys, ABSENT)
        __, times, sites, seqs = self._raw
        unsettled = list(map(ne, zip(times, sites, seqs), map(_HELD_ORDER, held)))
        for row in self._built:
            unsettled[row] = True
        return list(compress(self.keys, unsettled)), list(compress(held, unsettled)), unsettled

    @classmethod
    def of(cls, updates: Iterable[StoreUpdate]) -> "UpdateList":
        """``updates`` as columns: an :class:`UpdateList` itself, any
        other update list with its rows kept as they are."""
        if isinstance(updates, UpdateList):
            return updates
        rows = list(updates)
        columns = cls([update.key for update in rows], [update.entry for update in rows])
        columns._rows = rows
        return columns

    def extend(self, keys: Iterable[Hashable], entries: Iterable[Entry]) -> None:
        """Append rows given as two columns of equal length."""
        self.keys.extend(keys)
        self.entries.extend(entries)
        self._rows = None

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[StoreUpdate]:
        if self._rows is None:
            self._rows = list(map(StoreUpdate, self.keys, self.entries))
        return iter(self._rows)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UpdateList):
            return list(self.keys) == list(other.keys) and list(self.entries) == list(other.entries)
        if isinstance(other, (list, tuple)):
            return list(self) == list(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"UpdateList({list(self)!r})"


@dataclasses.dataclass(slots=True)
class SweepStats:
    """Result of one death-certificate expiry sweep."""

    expired: int = 0
    made_dormant: int = 0
    discarded_dormant: int = 0


#: Default keyspace partitioning: 64 hash buckets.  Small enough that a
#: thousand-site simulation pays negligible per-store overhead, large
#: enough that the demo workloads' drill-downs isolate single keys.
#: Production-scale stores (the million-key bench) pass a bigger value.
DEFAULT_BUCKET_BITS = 6


class ReplicaStore:
    """One site's copy of the replicated database.

    The keyspace is partitioned into ``2**bucket_bits`` hash buckets
    (by the canonical key digest), each with an incrementally maintained
    checksum folded up a :class:`~repro.core.checksum.ChecksumTree`.
    The tree root *is* the classic Section 1.3 whole-database checksum;
    the buckets below it are what lets a hierarchical exchange ship only
    the differing slices of a large store.
    """

    def __init__(
        self,
        site_id: int = 0,
        clock: Clock | None = None,
        bucket_bits: int = DEFAULT_BUCKET_BITS,
    ):
        self.site_id = site_id
        self.clock = clock if clock is not None else SequenceClock(site=site_id)
        self._entries: Dict[Hashable, Entry] = {}
        self._dormant: Dict[Hashable, DeathCertificate] = {}
        self._tree = ChecksumTree(bucket_bits)
        # Everything derived from a key's digest is maintained lazily:
        # mutations record the pre-image here (key -> entry before the
        # first unflushed change, or None when absent) and hash nothing.
        # The first read of a checksum or of a bucket's membership runs
        # _flush, which digests each dirty key once.  Most simulation
        # mutations are never followed by such a read before the next
        # overwrite, and a key rewritten while dirty costs one delta,
        # not one per write.
        self._dirty: Dict[Hashable, Entry | None] = {}
        self._tree.set_refresh_hook(self._flush)
        # bucket -> keys in it as of the last flush (read it through
        # _keys_in); buckets vanish when emptied so a small store never
        # pays for the full bucket range.
        self._bucket_keys: Dict[int, set] = {}
        self._index = TimestampIndex()
        # When a certificate-expiry policy is active (set by the
        # DeathCertificateManager), incoming certificates already older
        # than tau1 are not re-adopted unless they actually cancel
        # something: otherwise an expired certificate would bounce
        # forever between sites that have swept it and sites that
        # haven't.
        self.certificate_ttl: float | None = None

    # ------------------------------------------------------------------
    # Client operations (Section 1.1)
    # ------------------------------------------------------------------

    def update(self, key: Hashable, value: Any) -> StoreUpdate:
        """Client write: ``s.ValueOf[k] <- (v, Now[])``.

        Returns the :class:`StoreUpdate` so the caller (typically a
        distribution protocol) can start spreading it.
        """
        validate_key(key)
        if value is NIL or value is None:
            raise ValueError("use delete() to remove a key")
        entry = VersionedValue(value, self.clock.next_timestamp())
        self._put(key, entry)
        return StoreUpdate(key, entry)

    def delete(self, key: Hashable, retention_sites: Tuple[int, ...] = ()) -> StoreUpdate:
        """Client delete: install a death certificate for ``key``.

        ``retention_sites`` are the ``r`` randomly chosen sites that will
        hold a dormant copy of the certificate (Section 2.1); an empty
        tuple gives the plain fixed-threshold behavior.
        """
        validate_key(key)
        stamp = self.clock.next_timestamp()
        certificate = DeathCertificate(
            timestamp=stamp,
            activation_timestamp=stamp,
            retention_sites=tuple(retention_sites),
        )
        self._put(key, certificate)
        return StoreUpdate(key, certificate)

    def get(self, key: Hashable) -> Any:
        """Client read: the value, or ``None`` when absent or deleted."""
        entry = self._entries.get(key)
        if entry is None or entry.is_deletion:
            return None
        return entry.value

    def __contains__(self, key: Hashable) -> bool:
        """Client-visible membership (deleted keys are absent)."""
        entry = self._entries.get(key)
        return entry is not None and not entry.is_deletion

    # ------------------------------------------------------------------
    # Replication-facing accessors
    # ------------------------------------------------------------------

    def entry(self, key: Hashable) -> Entry | None:
        """The raw active entry for ``key`` (certificates included)."""
        return self._entries.get(key)

    def entries_for(self, keys: Iterable[Hashable], absent: Any = None) -> List[Entry | None]:
        """:meth:`entry` for each of ``keys`` (else ``absent``), at C speed."""
        get = self._entries.get
        return list(map(get, keys) if absent is None else map(get, keys, repeat(absent)))

    def dormant_certificate(self, key: Hashable) -> DeathCertificate | None:
        return self._dormant.get(key)

    def entries(self) -> Iterator[Tuple[Hashable, Entry]]:
        """All active entries in unspecified order."""
        return iter(self._entries.items())

    def updates(self) -> Iterator[StoreUpdate]:
        for key, entry in self._entries.items():
            yield StoreUpdate(key=key, entry=entry)

    def keys(self) -> Iterator[Hashable]:
        return iter(self._entries.keys())

    def visible_items(self) -> Iterator[Tuple[Hashable, Any]]:
        """Client-visible ``(key, value)`` pairs (no deletions)."""
        for key, entry in self._entries.items():
            if not entry.is_deletion:
                yield key, entry.value

    def __len__(self) -> int:
        """Number of active entries, including death certificates."""
        return len(self._entries)

    def visible_count(self) -> int:
        return sum(1 for __ in self.visible_items())

    def dormant_count(self) -> int:
        return len(self._dormant)

    # ------------------------------------------------------------------
    # Checksums and ordered views (Section 1.3)
    # ------------------------------------------------------------------

    @property
    def checksum(self) -> int:
        """The incrementally maintained checksum of the active table.

        Equal (by construction) to the checksum-tree root: the XOR of
        every bucket checksum is the XOR of every entry digest.
        """
        return self._tree.root

    @property
    def checksum_tree(self) -> ChecksumTree:
        """The live checksum tree.  Read-only for callers: exchange
        strategies and the wire drill-down compare its nodes, only the
        store's own mutations may fold deltas in."""
        return self._tree

    @property
    def bucket_bits(self) -> int:
        return self._tree.bucket_bits

    @property
    def bucket_count(self) -> int:
        return self._tree.buckets

    def bucket_of(self, key: Hashable) -> int:
        """The hash bucket ``key`` belongs to (canonical key digest)."""
        return self._tree.bucket_of(key_digest(key))

    def bucket_checksum(self, bucket: int) -> int:
        """The incrementally maintained checksum of one bucket."""
        return self._tree.bucket_value(bucket)

    def _keys_in(self, bucket: int) -> Iterable[Hashable]:
        """The keys filed in one bucket, pending mutations included."""
        self._flush()
        return self._bucket_keys.get(bucket, ())

    def bucket_len(self, bucket: int) -> int:
        """Number of active entries in one bucket."""
        return len(self._keys_in(bucket))

    def bucket_keys(self, bucket: int) -> Iterator[Hashable]:
        """The keys of one bucket's active entries, unspecified order
        (the order :meth:`bucket_entries` yields them in)."""
        return iter(self._keys_in(bucket))

    def bucket_entries(self, bucket: int) -> Iterator[Tuple[Hashable, Entry]]:
        """Active ``(key, entry)`` pairs of one bucket, unspecified order."""
        entries = self._entries
        for key in self._keys_in(bucket):
            yield key, entries[key]

    def bucket_updates_newest_first(self, bucket: int) -> Iterator[StoreUpdate]:
        """One bucket's entries in reverse timestamp order (per-bucket
        *peel back*); O(bucket size · log bucket size)."""
        for key, __ in self._index.newest_first_in(self._keys_in(bucket)):
            yield StoreUpdate(key=key, entry=self._entries[key])

    def recompute_checksum(self) -> int:
        """Checksum from scratch — used by tests to validate the invariant."""
        return DatabaseChecksum.of(
            (key, entry.encode()) for key, entry in self._entries.items()
        ).value

    def recompute_bucket_checksum(self, bucket: int) -> int:
        """One bucket's checksum from scratch (invariant validation)."""
        return DatabaseChecksum.of(
            (key, entry.encode()) for key, entry in self.bucket_entries(bucket)
        ).value

    def recent_updates(self, tau: float, bucket: int | None = None) -> List[StoreUpdate]:
        """Entries whose age (by the local clock) is less than ``tau``.

        This is the *recent update list* exchanged before the checksum
        comparison (Section 1.3).  Newest first.  With ``bucket`` the
        list is restricted to that hash bucket, at a cost proportional
        to the bucket size rather than the recent-update count.
        """
        now = self.clock.now()
        recent: List[StoreUpdate] = []
        if bucket is not None:
            pairs = self._index.newest_first_in(self._keys_in(bucket))
        else:
            pairs = self._index.newest_first()
        for key, stamp in pairs:
            if stamp.age(now) >= tau:
                break
            recent.append(StoreUpdate(key=key, entry=self._entries[key]))
        return recent

    def updates_newest_first(self) -> Iterator[StoreUpdate]:
        """All active entries in reverse timestamp order (*peel back*)."""
        for key, __ in self._index.newest_first():
            yield StoreUpdate(key=key, entry=self._entries[key])

    # ------------------------------------------------------------------
    # Merging entries received from peers
    # ------------------------------------------------------------------

    def apply_update(self, update: StoreUpdate) -> ApplyResult:
        return self.apply_entry(update.key, update.entry)

    def apply_entry(self, key: Hashable, entry: Entry) -> ApplyResult:
        """Merge an entry received from another site.

        Implements last-writer-wins on the ordinary timestamp, plus the
        two death-certificate subtleties of Section 2:

        * a *dormant* local certificate newer than an incoming ordinary
          value blocks the resurrection and is reactivated (its
          activation timestamp is set to the local current time and it
          re-enters the active table so it propagates again); and
        * two copies of the *same* certificate merge by taking the later
          activation timestamp, so reactivations themselves spread.
        """
        validate_key(key)
        if (
            entry.is_deletion
            and self.certificate_ttl is not None
            and entry.is_expired(self.clock.now(), self.certificate_ttl)
        ):
            current = self._entries.get(key)
            if current is None or not entry.supersedes(current):
                # An expired certificate that cancels nothing here is
                # old news, not fresh state to re-adopt.
                return ApplyResult.STALE
        dormant = self._dormant.get(key)
        if dormant is not None:
            if entry.is_deletion and entry.timestamp >= dormant.timestamp:
                # The incoming certificate supersedes our dormant one.
                del self._dormant[key]
            elif not entry.is_deletion and dormant.supersedes(entry):
                # Obsolete data met a dormant certificate: awaken it
                # (Section 2.1's "immune reaction").
                del self._dormant[key]
                awakened = dormant.reactivated(self.clock.now())
                self._put(key, awakened)
                return ApplyResult.RESURRECTION_BLOCKED
            elif not entry.is_deletion:
                # Entry is a legitimate reinstatement newer than the
                # dormant certificate; the certificate is obsolete.
                del self._dormant[key]

        current = self._entries.get(key)
        if current is None or entry.timestamp > current.timestamp:
            self._put(key, entry)
            return ApplyResult.APPLIED
        if entry.timestamp < current.timestamp:
            return ApplyResult.STALE
        # Identical ordinary timestamps: globally unique timestamps mean
        # this is the same logical update.  For certificates, adopt the
        # later activation timestamp so reactivations propagate.
        if (
            entry.is_deletion
            and current.is_deletion
            and entry.activation_timestamp > current.activation_timestamp
        ):
            self._put(key, entry)
            return ApplyResult.REACTIVATED
        return ApplyResult.EQUAL

    def apply_updates(self, updates: Iterable[StoreUpdate]) -> List[ApplyResult]:
        """Merge a received update list; one :class:`ApplyResult` per row.

        ``updates`` is an :class:`UpdateList`, whose columns are read
        as they are, or any iterable of :class:`StoreUpdate` rows.
        Results and final state are those of calling :meth:`apply_entry`
        row by row, in order.  The common row — an ordinary value under
        a scalar key with no dormant certificate waiting for it — is
        merged inline: a scalar key's exact type is all that
        ``validate_key`` would establish, the timestamp comparison runs
        on plain tuples, and those tuples go to the timestamp index in
        one run.  Every other row (certificates, tuple or invalid keys,
        dormant reactivation) goes through :meth:`apply_entry` itself.
        """
        entries = self._entries
        entries_get = entries.get
        dirty = self._dirty
        dormant = self._dormant
        applied, stale, equal = ApplyResult.APPLIED, ApplyResult.STALE, ApplyResult.EQUAL
        results: List[ApplyResult] = []
        note = results.append
        run: list = []
        if isinstance(updates, UpdateList):
            rows = zip(updates.keys, updates.entries)
        else:
            rows = map(_KEY_AND_ENTRY, updates)
        try:
            for key, entry in rows:
                if (
                    type(entry) is not VersionedValue
                    or key in dormant
                    or type(key) not in SCALAR_KEY_TYPES
                ):
                    if run:  # keep the index in arrival order
                        self._index.set_run(run)
                        run = []
                    note(self.apply_entry(key, entry))
                    continue
                stamp = entry.timestamp
                order = (stamp.time, stamp.site, stamp.sequence)
                current = entries_get(key)
                if current is not None:
                    held = current.timestamp
                    held = (held.time, held.site, held.sequence)
                    if not order > held:
                        note(stale if order < held else equal)
                        continue
                if key not in dirty:
                    dirty[key] = current
                entries[key] = entry
                run.append((order, key, stamp))
                note(applied)
        finally:
            if run:
                self._index.set_run(run)
        return results

    def purge(self, key: Hashable) -> bool:
        """Remove an entry outright, with NO death certificate.

        This is *not* a client operation: Section 2 explains that naive
        removal is wrong — the propagation mechanisms resurrect the item
        from other replicas.  It exists so the experiments can
        demonstrate exactly that failure, and as the primitive the
        certificate expiry sweep uses.
        """
        if key not in self._entries:
            return False
        self._drop(key)
        return True

    # ------------------------------------------------------------------
    # Death-certificate lifecycle (Sections 2.1, 2.2)
    # ------------------------------------------------------------------

    def sweep_certificates(self, tau1: float, tau2: float = float("inf")) -> SweepStats:
        """Expire old death certificates.

        Active certificates whose activation timestamp is older than
        ``tau1`` are dropped — unless this site appears on the
        certificate's retention list, in which case a dormant copy is
        kept.  Dormant certificates older than ``tau1 + tau2`` are
        discarded entirely.
        """
        now = self.clock.now()
        stats = SweepStats()
        expired_keys = [
            key
            for key, entry in self._entries.items()
            if entry.is_deletion and entry.is_expired(now, tau1)
        ]
        for key in expired_keys:
            certificate = self._entries[key]
            self._drop(key)
            stats.expired += 1
            if self.site_id in certificate.retention_sites:
                self._dormant[key] = certificate
                stats.made_dormant += 1
        discard_keys = [
            key
            for key, certificate in self._dormant.items()
            if certificate.is_discardable(now, tau1, tau2)
        ]
        for key in discard_keys:
            del self._dormant[key]
            stats.discarded_dormant += 1
        return stats

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _put(self, key: Hashable, entry: Entry) -> None:
        old = self._entries.get(key)
        if key not in self._dirty:
            self._dirty[key] = old
        self._entries[key] = entry
        self._index.set(key, entry.timestamp)

    def _drop(self, key: Hashable) -> None:
        entry = self._entries.pop(key)
        if key not in self._dirty:
            self._dirty[key] = entry
        self._index.discard(key)

    def _flush(self) -> None:
        """Bring the checksum tree and the bucket membership up to date.

        Runs as the tree's refresh hook and before every read of
        ``_bucket_keys``, i.e. on the first such read after a mutation.
        Each dirty key is digested once, as bytes and past the key-digest
        memo (:func:`key_digest_bytes`); that one digest files a new key
        in its bucket (or unfiles a dropped one) and prefixes both entry
        digests of its delta — old XOR current, so intermediate states
        of a multiply-rewritten key cancel without ever being hashed.
        Deltas are XORed together per bucket first, so the tree is
        walked once per dirty bucket, not once per entry.
        """
        if not self._dirty:
            return
        dirty, self._dirty = self._dirty, {}
        entries_get = self._entries.get
        bucket_keys = self._bucket_keys
        mask = self._tree.buckets - 1
        from_bytes = int.from_bytes
        deltas: Dict[int, int] = {}
        for key, old in dirty.items():
            current = entries_get(key)
            if current is old:
                continue
            kd = key_digest_bytes(key)
            bucket = from_bytes(kd, "big") & mask
            delta = 0
            if old is None:
                keys = bucket_keys.get(bucket)
                if keys is None:
                    bucket_keys[bucket] = {key}
                else:
                    keys.add(key)
            else:
                delta = entry_digest_of(kd, old.encode())
            if current is None:
                keys = bucket_keys[bucket]
                keys.discard(key)
                if not keys:
                    del bucket_keys[bucket]
            else:
                delta ^= entry_digest_of(kd, current.encode())
            deltas[bucket] = deltas.get(bucket, 0) ^ delta
        apply = self._tree.apply
        for bucket, delta in deltas.items():
            apply(bucket, delta)

    def snapshot(self) -> Dict[Hashable, Entry]:
        """A shallow copy of the active table (entries are immutable)."""
        return dict(self._entries)

    def agrees_with(self, other: "ReplicaStore") -> bool:
        """True when the two active tables are identical.

        Certificate activation timestamps are ignored, matching the
        checksum definition: replicas that differ only in how long they
        will retain a certificate still *agree* on database content.
        """
        if len(self._entries) != len(other._entries):
            return False
        for key, entry in self._entries.items():
            theirs = other._entries.get(key)
            if theirs is entry:
                continue  # stores in one process share the entries they ship
            if theirs is None or theirs.timestamp != entry.timestamp:
                return False
            if entry.is_deletion != theirs.is_deletion:
                return False
            if not entry.is_deletion and entry.value != theirs.value:
                return False
        return True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ReplicaStore(site={self.site_id}, entries={len(self._entries)}, "
            f"dormant={len(self._dormant)})"
        )
