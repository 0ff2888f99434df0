"""JSON-compatible serialization of store contents.

A deployment needs to checkpoint a replica to disk (the paper's mail
queues and databases live on stable storage) and to ship entries
between processes.  This module encodes entries — including death
certificates with their activation timestamps and retention lists —
into plain dicts/lists that survive ``json.dumps`` unmodified, and
decodes them back losslessly.

Values are passed through as-is: they must themselves be JSON
compatible (the name-service records provide ``to_payload`` shapes via
their dataclass fields if needed; plain strings/numbers/dicts always
work).  Timestamps round-trip exactly.

Because these payloads also cross the network (``repro.net.wire``
frames carry them between gossip nodes), decoding is strict: anything
malformed — unknown ``kind``, missing or ill-typed fields — raises
:class:`SerializeError` rather than leaking a bare ``KeyError`` from
peer-supplied bytes.

An update list has two encodings.  The **row form**
(:func:`encode_updates`) nests one dict per update and is what a
checkpoint holds.  The **batch** (:func:`encode_batch`) holds the same
updates as one list per field and is what crosses the wire: a bulk
anti-entropy transfer moves tens of thousands of entries in one frame,
where the nested form costs the frame codec ~24 objects per update and
the columnar one 5 scalars.  Both decode to the same updates under the
same strictness: the row form to a list of :class:`StoreUpdate` rows,
the batch to an :class:`UpdateList` of columns whose value rows stay raw
until read: a receiver that holds a row already compares three numbers.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Tuple

from repro.core.checksum import encode_key as encode_key  # canonical key codec
from repro.core.items import (
    SCALAR_KEY_TYPES,
    DeathCertificate,
    Entry,
    VersionedValue,
    validate_key,
)
from repro.core.store import ReplicaStore, StoreUpdate, UpdateList
from repro.core.timestamps import Timestamp

FORMAT_VERSION = 1


class SerializeError(ValueError):
    """A payload could not be decoded.

    Raised for unknown entry kinds, missing fields, ill-typed fields and
    unsupported dump versions.  Subclasses :class:`ValueError` so callers
    that guarded against the old behavior keep working.
    """


def _require(payload: Any, field: str, context: str) -> Any:
    if not isinstance(payload, dict):
        raise SerializeError(f"{context}: expected an object, got {type(payload).__name__}")
    try:
        return payload[field]
    except KeyError:
        raise SerializeError(f"{context}: missing field {field!r}") from None


def encode_timestamp(stamp: Timestamp) -> Dict[str, Any]:
    return {"time": stamp.time, "site": stamp.site, "seq": stamp.sequence}


def decode_timestamp(payload: Dict[str, Any]) -> Timestamp:
    time = _require(payload, "time", "timestamp")
    site = _require(payload, "site", "timestamp")
    seq = _require(payload, "seq", "timestamp")
    if not isinstance(time, (int, float)) or isinstance(time, bool):
        raise SerializeError(f"timestamp: time must be a number, got {time!r}")
    if not isinstance(site, int) or isinstance(site, bool):
        raise SerializeError(f"timestamp: site must be an integer, got {site!r}")
    if not isinstance(seq, int) or isinstance(seq, bool):
        raise SerializeError(f"timestamp: seq must be an integer, got {seq!r}")
    return Timestamp(time=time, site=site, sequence=seq)


def encode_entry(entry: Entry) -> Dict[str, Any]:
    if entry.is_deletion:
        return {
            "kind": "certificate",
            "timestamp": encode_timestamp(entry.timestamp),
            "activation": encode_timestamp(entry.activation_timestamp),
            "retention": list(entry.retention_sites),
        }
    return {
        "kind": "value",
        "timestamp": encode_timestamp(entry.timestamp),
        "value": entry.value,
    }


def _decode_certificate(
    timestamp: Timestamp, activation: Timestamp, retention: Any
) -> DeathCertificate:
    if not isinstance(retention, (list, tuple)) or not all(
        isinstance(site, int) and not isinstance(site, bool) for site in retention
    ):
        raise SerializeError(
            f"certificate: retention must be a list of site ids, got {retention!r}"
        )
    if activation < timestamp:
        raise SerializeError(
            "certificate: activation timestamp precedes the ordinary timestamp"
        )
    return DeathCertificate(
        timestamp=timestamp,
        activation_timestamp=activation,
        retention_sites=tuple(retention),
    )


def decode_entry(payload: Dict[str, Any]) -> Entry:
    kind = _require(payload, "kind", "entry")
    if kind == "certificate":
        retention = _require(payload, "retention", "certificate")
        return _decode_certificate(
            decode_timestamp(_require(payload, "timestamp", "certificate")),
            decode_timestamp(_require(payload, "activation", "certificate")),
            retention,
        )
    if kind == "value":
        value = _require(payload, "value", "value entry")
        if value is None:
            raise SerializeError("value entry: value is null (a deletion is a certificate)")
        return VersionedValue(value, decode_timestamp(_require(payload, "timestamp", "value entry")))
    raise SerializeError(f"unknown entry kind: {kind!r}")


def encode_update(update: StoreUpdate) -> Dict[str, Any]:
    return {"key": update.key, "entry": encode_entry(update.entry)}


def _tuple_of(items: list) -> tuple:
    return tuple(_tuple_of(item) if type(item) is list else item for item in items)


def decode_key(key: Any) -> Hashable:
    """A database key as it came off JSON or MessagePack.

    Tuple keys travel as arrays and come back lists, so arrays are
    restored to tuples (recursively); the result must then be a key
    :func:`repro.core.items.validate_key` accepts, so a peer or client
    can no more plant an unhashable or ``None`` key than a local caller.
    """
    if type(key) is list:
        key = _tuple_of(key)
    try:
        return validate_key(key)
    except (TypeError, ValueError) as error:
        raise SerializeError(f"bad key {key!r}: {error}") from None


def decode_update(payload: Dict[str, Any]) -> StoreUpdate:
    return StoreUpdate(
        key=decode_key(_require(payload, "key", "update")),
        entry=decode_entry(_require(payload, "entry", "update")),
    )


def encode_updates(updates: Iterable[StoreUpdate]) -> List[Dict[str, Any]]:
    return [encode_update(update) for update in updates]


def decode_updates(payload: Any) -> List[StoreUpdate]:
    if not isinstance(payload, list):
        raise SerializeError(
            f"update list: expected an array, got {type(payload).__name__}"
        )
    return [decode_update(item) for item in payload]


def encode_batch(
    updates: Iterable[StoreUpdate],
    sent_at: float | None = None,
) -> Dict[str, Any]:
    """An update list — an :class:`UpdateList`, read column by column,
    or a list of rows — as columns: the shape every wire frame carries.

    ``{"n", "keys", "values", "times", "sites", "seqs", "certs",
    "sent_at"}``: one plain list per field instead of one nested dict
    per update, so a frame codec handles five scalars per update rather
    than two dozen objects.  ``values`` holds ``None`` in a death
    certificate's row; ``certs`` lists those rows as ``[index, act_time,
    act_site, act_seq, retention]``.  ``sent_at`` (the sender's clock,
    see :mod:`repro.obs.spans`) rides along as opaque trace context and
    is omitted when unknown.  Times stay plain numbers, never packed floats:
    ``Timestamp.encode`` feeds ``repr(time)`` into the checksum, so an
    ``int`` time must arrive an ``int``.
    """
    columns = UpdateList.of(updates)
    entries = columns.entries
    stamps = [entry.timestamp for entry in entries]
    values = [entry.value for entry in entries]
    certs = []
    if DeathCertificate in set(map(type, entries)):
        for index, entry in enumerate(entries):
            if entry.is_deletion:
                values[index] = None
                activation = entry.activation_timestamp
                certs.append(
                    [index, activation.time, activation.site, activation.sequence,
                     list(entry.retention_sites)]
                )
    batch = {
        "n": len(columns),
        "keys": list(columns.keys),
        "values": values,
        "times": [stamp.time for stamp in stamps],
        "sites": [stamp.site for stamp in stamps],
        "seqs": [stamp.sequence for stamp in stamps],
        "certs": certs,
    }
    if sent_at is not None:
        batch["sent_at"] = sent_at
    return batch


_NUMBER_TYPES = frozenset({int, float})
_INT_TYPES = frozenset({int})


def _column(batch: Dict[str, Any], field: str, count: int, types=None) -> list:
    column = _require(batch, field, "update batch")
    if not isinstance(column, list) or len(column) != count:
        raise SerializeError(
            f"update batch: {field!r} must be an array of {count} items"
        )
    # Exact types, checked at C speed: bool is not int here, which is
    # what the row form's isinstance-and-not-bool tests amount to.
    if types is not None and not types.issuperset(map(type, column)):
        raise SerializeError(f"update batch: ill-typed item in {field!r}")
    return column


def decode_batch(batch: Any) -> UpdateList:
    """Decode :func:`encode_batch` output, exactly as strictly as
    :func:`decode_updates` decodes the row form, into columns.  Every
    column is checked here, but only certificates become entries: a value
    row's :class:`Timestamp` and entry wait until the row is read
    (:meth:`UpdateList.decoded`), its :class:`StoreUpdate` until rows are."""
    count = _require(batch, "n", "update batch")
    if type(count) is not int or count < 0:
        raise SerializeError(f"update batch: n must be a count, got {count!r}")
    keys = _column(batch, "keys", count)
    # Scalar keys need no restoring and are all valid; the per-key
    # decode runs only for a column holding an array (a tuple key) or
    # something that is no key at all.
    if not SCALAR_KEY_TYPES.issuperset(map(type, keys)):
        keys = list(map(decode_key, keys))
    times = _column(batch, "times", count, _NUMBER_TYPES)
    sites = _column(batch, "sites", count, _INT_TYPES)
    seqs = _column(batch, "seqs", count, _INT_TYPES)
    values = _column(batch, "values", count)
    certs = _require(batch, "certs", "update batch")
    if not isinstance(certs, list):
        raise SerializeError("update batch: 'certs' must be an array")
    certificates: Dict[int, Entry] = {}
    for cert in certs:
        if not isinstance(cert, list) or len(cert) != 5:
            raise SerializeError(f"update batch: bad certificate row {cert!r}")
        index, time, site, seq, retention = cert
        if type(index) is not int or not 0 <= index < count:
            raise SerializeError(f"update batch: certificate index {index!r} out of range")
        certificates[index] = _decode_certificate(
            Timestamp(times[index], sites[index], seqs[index]),
            decode_timestamp({"time": time, "site": site, "seq": seq}),
            retention,
        )
    # A null value is a deletion, and a deletion travels as a certificate.
    if None in values and any(v is None and i not in certificates for i, v in enumerate(values)):
        raise SerializeError("update batch: a value row holds null and no certificate")
    return UpdateList.decoded(keys, values, times, sites, seqs, certificates)


def batch_sent_at(batch: Dict[str, Any]) -> float | None:
    """The sender's clock riding in a batch, or ``None``.

    Trace context is observability, not data: a missing or ill-typed
    ``sent_at`` degrades to ``None``, never an error.  A field no
    reader names, such as a per-update hop column older senders added,
    is ignored.
    """
    sent_at = batch.get("sent_at")
    return float(sent_at) if type(sent_at) in _NUMBER_TYPES else None


def dump_store(store: ReplicaStore) -> Dict[str, Any]:
    """Serialize a store's replicated content (active + dormant).

    Protocol state (hot rumors, activity orders) is deliberately not
    included: after a restore those states rebuild themselves, exactly
    as they would after a crash in the paper's model.
    """
    return {
        "version": FORMAT_VERSION,
        "site": store.site_id,
        "entries": [
            {"key": key, "entry": encode_entry(entry)}
            for key, entry in sorted(
                store.entries(), key=lambda kv: encode_key(kv[0])
            )
        ],
        "dormant": [
            {"key": key, "entry": encode_entry(cert)}
            for key, cert in sorted(
                _dormant_items(store), key=lambda kv: encode_key(kv[0])
            )
        ],
    }


def load_store(payload: Dict[str, Any], store: ReplicaStore) -> int:
    """Merge a serialized dump into ``store``; returns entries applied.

    Loading *merges* (last-writer-wins) rather than replaces, so a
    checkpoint can safely be loaded into a store that has since seen
    newer updates.
    """
    version = _require(payload, "version", "store dump")
    if version != FORMAT_VERSION:
        raise SerializeError(f"unsupported dump version: {version!r}")
    # A dormant certificate re-enters through the normal apply path and
    # will be re-expired by the next sweep.
    updates = decode_updates(_require(payload, "entries", "store dump"))
    updates += decode_updates(_require(payload, "dormant", "store dump"))
    return sum(result.was_news for result in store.apply_updates(updates))


def _dormant_items(store: ReplicaStore) -> Iterable[Tuple[Hashable, DeathCertificate]]:
    # The dormant table has no public iterator; reach through the
    # private dict here rather than widening the store API for one
    # serialization concern.
    return store._dormant.items()
