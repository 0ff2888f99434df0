"""Database items: versioned values and death certificates (Sections 1.1, 2).

The client-visible database maps keys to ``(value, timestamp)`` pairs.  A
value of :data:`NIL` means "deleted as of that timestamp"; from a client's
perspective a NIL entry is indistinguishable from an absent entry, but the
propagation machinery must keep it around as a *death certificate* so the
deletion spreads instead of the deleted item being resurrected.

Death certificates additionally carry (Section 2.2):

* an **activation timestamp** — initially equal to the ordinary timestamp;
  reactivation sets it forward without touching the ordinary timestamp, so
  a reactivated certificate propagates again without cancelling legitimate
  updates newer than the original deletion; and
* a list of **retention sites** — the ``r`` sites that keep a *dormant*
  copy of the certificate after the first threshold ``tau1`` expires.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Hashable, Tuple

from repro.core.timestamps import Timestamp


class _Nil:
    """Singleton sentinel for the distinguished value NIL."""

    _instance = None

    def __new__(cls) -> "_Nil":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NIL"

    def __reduce__(self):  # keep singleton identity across pickling
        return (_Nil, ())


NIL = _Nil()


@dataclasses.dataclass(frozen=True, slots=True, init=False)
class VersionedValue:
    """An ordinary database entry: ``(v, t)`` with ``v != NIL``."""

    value: Any
    timestamp: Timestamp

    def __init__(self, value: Any, timestamp: Timestamp) -> None:
        # Slot descriptors, not the generated frozen __init__ (see Timestamp).
        _set_value(self, value)
        _set_timestamp(self, timestamp)

    @property
    def is_deletion(self) -> bool:
        return False

    def supersedes(self, other: "VersionedValue | DeathCertificate | None") -> bool:
        """Last-writer-wins: a larger timestamp always supersedes."""
        return other is None or self.timestamp > other.timestamp

    def encode(self) -> bytes:
        """Canonical encoding used by the database checksum: ``V|``, the
        value's ``repr``, ``|`` and :meth:`Timestamp.encode`, in one format."""
        stamp = self.timestamp
        return (
            "V|%r|(%r, %r, %r)" % (self.value, stamp.time, stamp.site, stamp.sequence)
        ).encode("utf-8")


_set_value = VersionedValue.__dict__["value"].__set__
_set_timestamp = VersionedValue.__dict__["timestamp"].__set__


@dataclasses.dataclass(frozen=True, slots=True)
class DeathCertificate:
    """A deletion entry: ``(NIL, t)`` plus activation metadata.

    ``timestamp`` is the *ordinary* timestamp: it decides which entries
    the certificate cancels.  ``activation_timestamp`` decides dormancy
    and propagation (Section 2.2).  ``retention_sites`` are the sites
    that hold a dormant copy between ``tau1`` and ``tau1 + tau2``.
    """

    timestamp: Timestamp
    activation_timestamp: Timestamp
    retention_sites: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.activation_timestamp < self.timestamp:
            raise ValueError(
                "activation timestamp must not precede the ordinary timestamp"
            )

    @property
    def value(self) -> _Nil:
        return NIL

    @property
    def is_deletion(self) -> bool:
        return True

    def supersedes(self, other: "VersionedValue | DeathCertificate | None") -> bool:
        """A certificate cancels any entry with a smaller ordinary timestamp."""
        return other is None or self.timestamp > other.timestamp

    def reactivated(self, now: float) -> "DeathCertificate":
        """Return a copy activated at local time ``now``.

        The ordinary timestamp is left unchanged so that updates newer
        than the original deletion are not cancelled; only the
        activation timestamp moves forward (Section 2.2).
        """
        return DeathCertificate(
            timestamp=self.timestamp,
            activation_timestamp=self.activation_timestamp.advanced_to(now),
            retention_sites=self.retention_sites,
        )

    def is_expired(self, now: float, tau1: float) -> bool:
        """True when ordinary (non-retention) sites should drop it."""
        return self.activation_timestamp.age(now) > tau1

    def is_discardable(self, now: float, tau1: float, tau2: float) -> bool:
        """True when even retention sites should drop it."""
        return self.activation_timestamp.age(now) > tau1 + tau2

    def encode(self) -> bytes:
        """Canonical encoding used by the database checksum.

        Only the ordinary timestamp participates: two replicas whose
        visible contents agree must produce equal checksums even if one
        has reactivated a certificate the other has not yet seen.
        """
        stamp = self.timestamp
        return ("D|(%r, %r, %r)" % (stamp.time, stamp.site, stamp.sequence)).encode("utf-8")


Entry = VersionedValue | DeathCertificate


def make_entry(value: Any, timestamp: Timestamp) -> Entry:
    """Build the right entry type for ``value``: NIL becomes a certificate."""
    if value is NIL or value is None:
        return DeathCertificate(timestamp=timestamp, activation_timestamp=timestamp)
    return VersionedValue(value, timestamp)


def newer(a: Entry | None, b: Entry | None) -> Entry | None:
    """Return whichever entry wins last-writer-wins, or ``None`` if both absent."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a.timestamp >= b.timestamp else b


#: Key types with a canonical (content-determined) encoding; see
#: :func:`repro.core.checksum.encode_key`.  ``bool`` rides along as an
#: ``int`` subclass but encodes distinctly.
_CANONICAL_KEY_TYPES = (str, int, float)

#: The exact types of the keys :func:`validate_key` accepts without
#: looking inside them: ``type(key) in SCALAR_KEY_TYPES`` validates one
#: key, ``SCALAR_KEY_TYPES.issuperset(map(type, keys))`` a whole column
#: at C speed.  Only a tuple (or something that is no key at all) needs
#: the full check.
SCALAR_KEY_TYPES = frozenset({str, int, float, bool})


def _has_canonical_encoding(key: Hashable) -> bool:
    if isinstance(key, _CANONICAL_KEY_TYPES):
        return True
    if isinstance(key, tuple):
        return all(_has_canonical_encoding(item) for item in key)
    return False


def validate_key(key: Hashable) -> Hashable:
    """Reject keys the replication machinery cannot handle, early.

    Beyond unhashable and ``None`` keys, this rejects keys without a
    canonical content-determined encoding (arbitrary objects, whose
    default repr embeds ``id()``): such keys would digest differently at
    every site, so the Section 1.3 checksums could never agree and every
    anti-entropy exchange would degenerate to a full compare — forever.
    Valid keys are ``str``/``int``/``float``/``bool`` and tuples of
    those, exactly what the wire codec can ship.
    """
    if key is None:
        raise ValueError("database keys must not be None")
    hash(key)  # raises TypeError for unhashable keys
    if not _has_canonical_encoding(key):
        raise ValueError(
            f"key {key!r} has no canonical encoding; database keys must be "
            "str/int/float/bool or tuples of those so checksums agree "
            "across replicas"
        )
    return key
