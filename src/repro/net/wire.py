"""Wire framing for the live gossip runtime.

A frame is a 4-byte big-endian length prefix followed by a UTF-8 JSON
body::

    {"v": 3, "max": 3, "type": "push", "sender": 3, "payload": {...}}

There is **one wire form**.  Every frame a node writes — request or
reply, to a peer or to a client — is this JSON body stamped ``v=3``,
and every update list in a payload is one columnar batch object
(:func:`repro.core.serialize.encode_batch`) with its trace context
(``hops``, ``sent_at``) inside it.  Anything that crosses the wire is
what a checkpoint would contain — death certificates with activation
timestamps and retention lists included.

**Versions.**  ``v`` is the version the frame is written in and ``max``
the highest version its sender writes; the header is the negotiation
mechanism, kept so an incompatible future format is rejected cleanly
instead of misparsed.  A frame whose ``v`` this build does not read is
refused (:data:`SUPPORTED_VERSIONS`): the connection is dropped and the
drop counted, never half-understood.  That includes the retired v1/v2
forms; a v3 frame carrying the retired row-form update list (an array
of ``{"key", "entry"}`` objects) is answered with an error ``ACK``.

A body opening with the byte 0xC1 (impossible in JSON) is the binary
v4 encoding of the same message (:mod:`repro.net.binwire`).  It is
still *read* — and answered in JSON — but no node writes it: against a
JSON body carrying the same batch it lost at every frame size
(docs/performance.md).

Message types map onto the paper's mechanisms:

========================  ====================================================
``PUSH``                  anti-entropy offer (initiator's full table); the
                          responder applies newer entries and answers with a
                          ``PULL_REPLY`` (push-pull) or ``ACK`` (push only)
``PULL_REQUEST``          anti-entropy offer used purely as a digest: nothing
                          is applied at the responder, which answers with the
                          entries the initiator lacks in a ``PULL_REPLY``
``PULL_REPLY``            the responder's half of an exchange
``CHECKSUM``              Section 1.3's cheap first phase (recent update list
                          + database checksum)
``RUMOR``                 a Section 1.4 conversation: a push answered by an
                          ``ACK`` of per-update was-news feedback, or a pull
                          answered by the responder's hot rumors in a
                          ``RUMOR``, then the puller's feedback
``MAIL``                  direct mail between peers, or a client injection
                          (``{"key": ..., "value": ...}``) stamped by the
                          receiving node's clock
``STATUS``                live introspection: any client can ask a node for
                          its metrics-registry snapshot and S/I/R census; the
                          reply is a ``STATUS`` frame and is served even when
                          the node is refusing gossip conversations
``ACK``                   generic reply: feedback, client results, rejections
``TREE``                  two levels of a hierarchical-checksum
                          drill-down: the initiator sends checksum-tree
                          nodes, the responder answers with the children
                          of those that differ and the dirty buckets
                          reached
========================  ====================================================

All decoding is strict: malformed frames raise :class:`WireError`, and
oversized frames are rejected before allocation so a bad peer cannot
balloon memory.
"""

from __future__ import annotations

import asyncio
import dataclasses
import enum
import json
import struct
from typing import Any, Dict, Optional

from repro.core.serialize import SerializeError, batch_trace_context, decode_batch
from repro.core.store import UpdateList

#: The version every frame this build writes is stamped with.
PROTOCOL_VERSION = 3
#: Versions this decoder accepts.
SUPPORTED_VERSIONS = frozenset({3, 4})
#: The version whose bodies are binary (MessagePack behind a magic
#: byte, :mod:`repro.net.binwire`) instead of UTF-8 JSON.  Semantically
#: identical to v3: same message types, same payload fields.
BINARY_WIRE_VERSION = 4

#: Hard ceiling on one frame's body size (16 MiB).  Full-table offers
#: for the demo workloads are a few KiB; this bound exists to stop a
#: malformed or hostile length prefix from forcing a giant allocation.
MAX_FRAME_BYTES = 16 * 1024 * 1024

_HEADER = struct.Struct(">I")
HEADER_BYTES = _HEADER.size


class WireError(Exception):
    """A frame could not be encoded, read, or decoded."""


class MessageType(enum.Enum):
    PUSH = "push"
    PULL_REQUEST = "pull-request"
    PULL_REPLY = "pull-reply"
    CHECKSUM = "checksum"
    RUMOR = "rumor"
    MAIL = "mail"
    STATUS = "status"
    ACK = "ack"
    TREE = "tree"


_TYPES_BY_VALUE = {t.value: t for t in MessageType}


@dataclasses.dataclass(frozen=True, slots=True)
class Message:
    """One framed message: a type, the sending node's id, and a payload.

    ``version`` is the version the frame is (or was) written in;
    ``max_version`` is the sender's advertised ceiling.  Inbound, a
    frame without a ``max`` key decodes with ``max_version == version``.
    """

    type: MessageType
    sender: int
    payload: Dict[str, Any] = dataclasses.field(default_factory=dict)
    version: int = PROTOCOL_VERSION
    max_version: int = PROTOCOL_VERSION


#: Stable small codes for the binary body's type byte.  Append-only:
#: codes are wire format, never renumber.
TYPE_CODES = {
    MessageType.PUSH: 0,
    MessageType.PULL_REQUEST: 1,
    MessageType.PULL_REPLY: 2,
    MessageType.CHECKSUM: 3,
    MessageType.RUMOR: 4,
    MessageType.MAIL: 5,
    MessageType.STATUS: 6,
    MessageType.ACK: 7,
    MessageType.TREE: 8,
}
_TYPES_BY_CODE = {code: t for t, code in TYPE_CODES.items()}


def encode_message(message: Message, max_frame: int = MAX_FRAME_BYTES) -> bytes:
    """Encode ``message`` as one length-prefixed frame.

    A message stamped :data:`BINARY_WIRE_VERSION` gets the binary
    body; everything a node sends is stamped :data:`PROTOCOL_VERSION`
    and gets the UTF-8 JSON body.
    """
    if message.version >= BINARY_WIRE_VERSION:
        from repro.net.binwire import BinWireError, encode_binary_body

        try:
            body = encode_binary_body(
                message.version,
                message.max_version,
                TYPE_CODES[message.type],
                message.sender,
                message.payload,
            )
        except BinWireError as error:
            raise WireError(f"cannot encode binary frame: {error}") from None
    else:
        body = json.dumps(
            {
                "v": message.version,
                "max": message.max_version,
                "type": message.type.value,
                "sender": message.sender,
                "payload": message.payload,
            },
            separators=(",", ":"),
        ).encode("utf-8")
    if len(body) > max_frame:
        raise WireError(
            f"message of {len(body)} bytes exceeds the {max_frame}-byte frame limit"
        )
    return _HEADER.pack(len(body)) + body


def decode_body(body: bytes) -> Message:
    """Decode one frame body (everything after the length prefix).

    The first byte discriminates the format: 0xC1 opens a v4 binary
    body, anything else is parsed as a JSON object.
    """
    if body[:1] == b"\xc1":
        return _decode_binary_body(body)
    try:
        blob = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"frame body is not valid JSON: {error}") from None
    if not isinstance(blob, dict):
        raise WireError(f"frame body must be an object, got {type(blob).__name__}")
    version = blob.get("v")
    if version not in SUPPORTED_VERSIONS:
        raise WireError(
            f"unsupported wire version {version!r} "
            f"(this node reads {sorted(SUPPORTED_VERSIONS)})"
        )
    max_version = blob.get("max", version)
    if not isinstance(max_version, int) or isinstance(max_version, bool):
        max_version = version
    max_version = max(version, max_version)
    type_name = blob.get("type")
    message_type = _TYPES_BY_VALUE.get(type_name)
    if message_type is None:
        raise WireError(f"unknown message type {type_name!r}")
    sender = blob.get("sender")
    if not isinstance(sender, int) or isinstance(sender, bool):
        raise WireError(f"sender must be a node id, got {sender!r}")
    payload = blob.get("payload", {})
    if not isinstance(payload, dict):
        raise WireError(f"payload must be an object, got {type(payload).__name__}")
    return Message(
        type=message_type,
        sender=sender,
        payload=payload,
        version=version,
        max_version=max_version,
    )


def _decode_binary_body(body: bytes) -> Message:
    from repro.net.binwire import BinWireError, decode_binary_body

    try:
        version, max_version, type_code, sender, payload = decode_binary_body(body)
    except BinWireError as error:
        raise WireError(f"bad binary frame: {error}") from None
    if version != BINARY_WIRE_VERSION:
        raise WireError(f"unsupported binary wire version {version!r}")
    message_type = _TYPES_BY_CODE.get(type_code)
    if message_type is None:
        raise WireError(f"unknown message type code {type_code}")
    return Message(
        type=message_type,
        sender=sender,
        payload=payload,
        version=version,
        max_version=max(version, max_version),
    )


async def read_message(
    reader: asyncio.StreamReader, max_frame: int = MAX_FRAME_BYTES
) -> Optional[Message]:
    """Read one frame; ``None`` on a clean EOF at a frame boundary.

    EOF in the middle of a frame (a peer dying mid-send) and malformed
    bodies raise :class:`WireError`.
    """
    try:
        header = await reader.readexactly(HEADER_BYTES)
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between frames
        raise WireError("connection closed mid-header") from None
    (length,) = _HEADER.unpack(header)
    if length == 0:
        raise WireError("zero-length frame")
    if length > max_frame:
        raise WireError(
            f"incoming frame of {length} bytes exceeds the {max_frame}-byte limit"
        )
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as error:
        raise WireError(
            f"connection closed mid-frame ({len(error.partial)}/{length} bytes)"
        ) from None
    return decode_body(body)


def payload_update_list(payload: Dict[str, Any], field: str = "updates") -> tuple:
    """An inbound update list with its trace context:
    ``(updates, hops, sent_at)``.

    The list is one columnar batch (:func:`repro.core.serialize.encode_batch`),
    returned as the :class:`~repro.core.store.UpdateList` it decodes to;
    an absent field is an empty one.  ``hops`` is the sender's hop
    distance per update, or ``None`` instead of a list when it sent
    none; ``sent_at`` its clock at send time.  The updates are decoded
    strictly — :class:`repro.core.serialize.SerializeError` becomes
    :class:`WireError`, so transport code has a single failure type for
    "the peer sent garbage", the retired row form included — the context
    leniently (:func:`repro.core.serialize.batch_trace_context`).
    """
    batch = payload.get(field)
    if batch is None:
        return UpdateList(), None, None
    try:
        updates = decode_batch(batch)
    except SerializeError as error:
        raise WireError(f"bad {field!r} in payload: {error}") from None
    hops, sent_at = batch_trace_context(batch, len(updates))
    if hops is not None and hops.count(None) == len(hops):
        hops = None
    return updates, hops, sent_at


def payload_tree_nodes(
    payload: Dict[str, Any], field: str = "nodes"
) -> list[tuple[int, int]]:
    """Decode a ``[[node_id, checksum], ...]`` list from a TREE payload.

    Unlike trace context, tree nodes are *data*: a malformed list means
    the drill-down cannot proceed, so garbage raises :class:`WireError`
    rather than degrading.  Node ids must be positive and checksums
    non-negative integers (JSON carries Python's arbitrary-precision
    ints, so 128-bit checksum values round-trip exactly).
    """
    blobs = payload.get(field, [])
    if not isinstance(blobs, list):
        raise WireError(f"bad {field!r} in payload: expected an array")
    nodes: list[tuple[int, int]] = []
    for blob in blobs:
        if (
            not isinstance(blob, (list, tuple))
            or len(blob) != 2
            or not isinstance(blob[0], int)
            or isinstance(blob[0], bool)
            or not isinstance(blob[1], int)
            or isinstance(blob[1], bool)
            or blob[0] < 1
            or blob[1] < 0
        ):
            raise WireError(
                f"bad {field!r} in payload: expected [node_id, checksum] pairs, "
                f"got {blob!r}"
            )
        nodes.append((blob[0], blob[1]))
    return nodes


def payload_bucket_list(payload: Dict[str, Any], field: str = "dirty") -> list[int]:
    """Decode a list of bucket indexes from a TREE payload."""
    blobs = payload.get(field, [])
    if not isinstance(blobs, list) or not all(
        isinstance(b, int) and not isinstance(b, bool) and b >= 0 for b in blobs
    ):
        raise WireError(f"bad {field!r} in payload: expected bucket indexes")
    return list(blobs)
