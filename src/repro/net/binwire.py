"""The v4 binary wire codec: MessagePack bodies behind a tiny prelude.

JSON framing (:mod:`repro.net.wire`, v1-v3) spends most of a hot
frame's encode/decode budget on text: float formatting, string
escaping, and number parsing.  Wire version 4 keeps the 4-byte length
prefix and the message model exactly as they are and swaps the body
for a binary encoding::

    byte 0      0xC1        (magic; reserved-never-used in MessagePack,
                             and distinct from ``{`` = 0x7B, so one byte
                             discriminates binary from JSON bodies)
    byte 1      version     (the frame's wire version, >= 4)
    byte 2      max         (the sender's advertised version ceiling)
    byte 3      type code   (:data:`TYPE_CODES`)
    bytes 4+    MessagePack ``[sender, payload]``

Values are MessagePack-encoded with one extension: integers outside the
64-bit range — the store's 128-bit checksums and checksum-tree nodes —
travel as ext type :data:`EXT_BIGINT` holding the minimal big-endian
two's-complement bytes, so they round-trip exactly like JSON's
arbitrary-precision ints.

The packer/unpacker here is the codec: a self-contained implementation
of the MessagePack subset the payloads need (nil, bool, int, float,
str, bytes, array, map, ext), with no dependency outside the standard
library.  Its output is spec-valid MessagePack, so any conforming
decoder that knows :data:`EXT_BIGINT` can read a body.

Encoding reuses one per-encoder ``bytearray`` so hot frames (PUSH
offers, RUMOR batches, MAIL, TREE frontiers) do not reallocate a
buffer per frame; a busy flag drops to a fresh buffer on re-entrant
use instead of corrupting the shared one.
"""

from __future__ import annotations

import struct
from typing import Any, List, Tuple

#: The first body byte of every v4 binary frame.
BINARY_MAGIC = 0xC1

#: MessagePack extension type carrying an arbitrary-precision integer
#: as minimal big-endian two's-complement bytes.
EXT_BIGINT = 1

_PRELUDE = struct.Struct(">BBBB")
PRELUDE_BYTES = _PRELUDE.size

_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_I8 = struct.Struct(">b")
_I16 = struct.Struct(">h")
_I32 = struct.Struct(">i")
_I64 = struct.Struct(">q")
_F64 = struct.Struct(">d")


class BinWireError(Exception):
    """A binary body could not be packed or unpacked."""


def msgpack_available() -> bool:
    """Whether the ``msgpack`` library is importable here.  A plain fact
    about the host for the benchmark's environment block; this codec
    never uses the library."""
    try:
        import msgpack  # noqa: F401
    except ImportError:
        return False
    return True


# ----------------------------------------------------------------------
# Big-integer extension
# ----------------------------------------------------------------------


def _bigint_to_bytes(value: int) -> bytes:
    return value.to_bytes((value.bit_length() + 8) // 8 or 1, "big", signed=True)


def _bigint_from_bytes(data: bytes) -> int:
    if not data:
        raise BinWireError("empty bigint extension payload")
    return int.from_bytes(data, "big", signed=True)


# ----------------------------------------------------------------------
# Packer
# ----------------------------------------------------------------------


def _pack_into(out: bytearray, value: Any) -> None:
    if value is None:
        out.append(0xC0)
    elif value is True:
        out.append(0xC3)
    elif value is False:
        out.append(0xC2)
    elif type(value) is int:
        _pack_int(out, value)
    elif type(value) is float:
        out.append(0xCB)
        out += _F64.pack(value)
    elif type(value) is str:
        _pack_str(out, value)
    elif type(value) is dict:
        _pack_map(out, value)
    elif type(value) in (list, tuple):
        _pack_array(out, value)
    elif isinstance(value, (bytes, bytearray)):
        _pack_bin(out, bytes(value))
    elif isinstance(value, int):  # int subclasses (enums); bool is the
        # True/False singletons, always caught above
        _pack_int(out, int(value))
    elif isinstance(value, float):
        out.append(0xCB)
        out += _F64.pack(float(value))
    elif isinstance(value, str):
        _pack_str(out, str(value))
    elif isinstance(value, dict):
        _pack_map(out, value)
    elif isinstance(value, (list, tuple)):
        _pack_array(out, value)
    else:
        raise BinWireError(f"cannot pack {type(value).__name__} value {value!r}")


def _pack_int(out: bytearray, value: int) -> None:
    if 0 <= value <= 0x7F:
        out.append(value)
    elif -32 <= value < 0:
        out.append(value & 0xFF)
    elif 0 < value:
        if value <= 0xFF:
            out.append(0xCC)
            out.append(value)
        elif value <= 0xFFFF:
            out.append(0xCD)
            out += _U16.pack(value)
        elif value <= 0xFFFFFFFF:
            out.append(0xCE)
            out += _U32.pack(value)
        elif value <= 0xFFFFFFFFFFFFFFFF:
            out.append(0xCF)
            out += _U64.pack(value)
        else:
            _pack_ext(out, EXT_BIGINT, _bigint_to_bytes(value))
    else:
        if value >= -0x80:
            out.append(0xD0)
            out += _I8.pack(value)
        elif value >= -0x8000:
            out.append(0xD1)
            out += _I16.pack(value)
        elif value >= -0x80000000:
            out.append(0xD2)
            out += _I32.pack(value)
        elif value >= -0x8000000000000000:
            out.append(0xD3)
            out += _I64.pack(value)
        else:
            _pack_ext(out, EXT_BIGINT, _bigint_to_bytes(value))


def _pack_str(out: bytearray, value: str) -> None:
    data = value.encode("utf-8")
    size = len(data)
    if size <= 0x1F:
        out.append(0xA0 | size)
    elif size <= 0xFF:
        out.append(0xD9)
        out.append(size)
    elif size <= 0xFFFF:
        out.append(0xDA)
        out += _U16.pack(size)
    else:
        out.append(0xDB)
        out += _U32.pack(size)
    out += data


def _pack_bin(out: bytearray, data: bytes) -> None:
    size = len(data)
    if size <= 0xFF:
        out.append(0xC4)
        out.append(size)
    elif size <= 0xFFFF:
        out.append(0xC5)
        out += _U16.pack(size)
    else:
        out.append(0xC6)
        out += _U32.pack(size)
    out += data


def _pack_array(out: bytearray, value) -> None:
    size = len(value)
    if size <= 0x0F:
        out.append(0x90 | size)
    elif size <= 0xFFFF:
        out.append(0xDC)
        out += _U16.pack(size)
    else:
        out.append(0xDD)
        out += _U32.pack(size)
    for item in value:
        _pack_into(out, item)


def _pack_map(out: bytearray, value: dict) -> None:
    size = len(value)
    if size <= 0x0F:
        out.append(0x80 | size)
    elif size <= 0xFFFF:
        out.append(0xDE)
        out += _U16.pack(size)
    else:
        out.append(0xDF)
        out += _U32.pack(size)
    for key, item in value.items():
        _pack_into(out, key)
        _pack_into(out, item)


def _pack_ext(out: bytearray, code: int, data: bytes) -> None:
    size = len(data)
    if size == 1:
        out.append(0xD4)
    elif size == 2:
        out.append(0xD5)
    elif size == 4:
        out.append(0xD6)
    elif size == 8:
        out.append(0xD7)
    elif size == 16:
        out.append(0xD8)
    elif size <= 0xFF:
        out.append(0xC7)
        out.append(size)
    elif size <= 0xFFFF:
        out.append(0xC8)
        out += _U16.pack(size)
    else:
        out.append(0xC9)
        out += _U32.pack(size)
    out.append(code & 0xFF)
    out += data


# ----------------------------------------------------------------------
# Unpacker
# ----------------------------------------------------------------------


class _Unpacker:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _take(self, count: int) -> bytes:
        end = self.pos + count
        if end > len(self.data):
            raise BinWireError("truncated MessagePack data")
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def _guard_count(self, count: int) -> int:
        # Every element needs at least one byte; a hostile count dies
        # here instead of allocating a huge container.
        if count > len(self.data) - self.pos:
            raise BinWireError("MessagePack container count exceeds frame size")
        return count

    def unpack(self) -> Any:
        data = self.data
        if self.pos >= len(data):
            raise BinWireError("truncated MessagePack data")
        marker = data[self.pos]
        self.pos += 1
        if marker <= 0x7F:
            return marker
        if marker >= 0xE0:
            return marker - 0x100
        if 0x80 <= marker <= 0x8F:
            return self._unpack_map(marker & 0x0F)
        if 0x90 <= marker <= 0x9F:
            return self._unpack_array(marker & 0x0F)
        if 0xA0 <= marker <= 0xBF:
            return self._unpack_str(marker & 0x1F)
        handler = _MARKERS.get(marker)
        if handler is None:
            raise BinWireError(f"unsupported MessagePack marker 0x{marker:02x}")
        return handler(self)

    def _unpack_str(self, size: int) -> str:
        try:
            return self._take(size).decode("utf-8")
        except UnicodeDecodeError as error:
            raise BinWireError(f"invalid UTF-8 in string: {error}") from None

    def _unpack_array(self, count: int) -> List[Any]:
        self._guard_count(count)
        return [self.unpack() for __ in range(count)]

    def _unpack_map(self, count: int) -> dict:
        self._guard_count(count)
        result = {}
        for __ in range(count):
            key = self.unpack()
            result[key] = self.unpack()
        return result

    def _unpack_ext(self, size: int) -> Any:
        code = self._take(1)[0]
        payload = self._take(size)
        if code == EXT_BIGINT:
            return _bigint_from_bytes(payload)
        raise BinWireError(f"unknown extension type {code}")


_MARKERS = {
    0xC0: lambda u: None,
    0xC2: lambda u: False,
    0xC3: lambda u: True,
    0xC4: lambda u: bytes(u._take(u._take(1)[0])),
    0xC5: lambda u: bytes(u._take(_U16.unpack(u._take(2))[0])),
    0xC6: lambda u: bytes(u._take(_U32.unpack(u._take(4))[0])),
    0xC7: lambda u: u._unpack_ext(u._take(1)[0]),
    0xC8: lambda u: u._unpack_ext(_U16.unpack(u._take(2))[0]),
    0xC9: lambda u: u._unpack_ext(_U32.unpack(u._take(4))[0]),
    0xCA: lambda u: struct.unpack(">f", u._take(4))[0],
    0xCB: lambda u: _F64.unpack(u._take(8))[0],
    0xCC: lambda u: u._take(1)[0],
    0xCD: lambda u: _U16.unpack(u._take(2))[0],
    0xCE: lambda u: _U32.unpack(u._take(4))[0],
    0xCF: lambda u: _U64.unpack(u._take(8))[0],
    0xD0: lambda u: _I8.unpack(u._take(1))[0],
    0xD1: lambda u: _I16.unpack(u._take(2))[0],
    0xD2: lambda u: _I32.unpack(u._take(4))[0],
    0xD3: lambda u: _I64.unpack(u._take(8))[0],
    0xD4: lambda u: u._unpack_ext(1),
    0xD5: lambda u: u._unpack_ext(2),
    0xD6: lambda u: u._unpack_ext(4),
    0xD7: lambda u: u._unpack_ext(8),
    0xD8: lambda u: u._unpack_ext(16),
    0xD9: lambda u: u._unpack_str(u._take(1)[0]),
    0xDA: lambda u: u._unpack_str(_U16.unpack(u._take(2))[0]),
    0xDB: lambda u: u._unpack_str(_U32.unpack(u._take(4))[0]),
    0xDC: lambda u: u._unpack_array(_U16.unpack(u._take(2))[0]),
    0xDD: lambda u: u._unpack_array(_U32.unpack(u._take(4))[0]),
    0xDE: lambda u: u._unpack_map(_U16.unpack(u._take(2))[0]),
    0xDF: lambda u: u._unpack_map(_U32.unpack(u._take(4))[0]),
}


# ----------------------------------------------------------------------
# Public pack/unpack
# ----------------------------------------------------------------------


def pack_value(value: Any) -> bytes:
    """MessagePack-encode one value (bigints via :data:`EXT_BIGINT`)."""
    out = bytearray()
    _pack_into(out, value)
    return bytes(out)


def unpack_value(data: bytes) -> Any:
    """Decode one MessagePack value; trailing bytes are an error."""
    unpacker = _Unpacker(data)
    value = unpacker.unpack()
    if unpacker.pos != len(data):
        raise BinWireError(
            f"{len(data) - unpacker.pos} trailing bytes after MessagePack value"
        )
    return value


# ----------------------------------------------------------------------
# Frame bodies
# ----------------------------------------------------------------------


class FrameEncoder:
    """Builds v4 binary bodies into one reusable buffer.

    The per-frame allocation pattern matters on the live runtime's hot
    frames (every anti-entropy round trip encodes a PUSH offer and a
    reply); reusing a single ``bytearray`` keeps the encode path to one
    final ``bytes`` copy.  A busy flag guards re-entrancy (an encode
    triggered from within an encode — e.g. by a logging hook — gets a
    private buffer instead of corrupting the shared one).
    """

    __slots__ = ("_buffer", "_busy")

    def __init__(self) -> None:
        self._buffer = bytearray()
        self._busy = False

    def encode_body(
        self,
        version: int,
        max_version: int,
        type_code: int,
        sender: int,
        payload: dict,
    ) -> bytes:
        if self._busy:
            out = bytearray()
        else:
            out = self._buffer
            out.clear()
            self._busy = True
        try:
            out += _PRELUDE.pack(BINARY_MAGIC, version, max_version, type_code)
            _pack_into(out, [sender, payload])
            return bytes(out)
        finally:
            if out is self._buffer:
                self._busy = False


_SHARED_ENCODER = FrameEncoder()


def encode_binary_body(
    version: int, max_version: int, type_code: int, sender: int, payload: dict
) -> bytes:
    """One v4 frame body (everything after the length prefix)."""
    return _SHARED_ENCODER.encode_body(
        version, max_version, type_code, sender, payload
    )


def decode_binary_body(body: bytes) -> Tuple[int, int, int, int, dict]:
    """Split a v4 body into (version, max, type code, sender, payload).

    The caller (:func:`repro.net.wire.decode_body`) validates version
    and type against its tables; malformed MessagePack raises
    :class:`BinWireError` here.
    """
    if len(body) < PRELUDE_BYTES + 1:
        raise BinWireError(f"binary body of {len(body)} bytes is too short")
    magic, version, max_version, type_code = _PRELUDE.unpack_from(body)
    if magic != BINARY_MAGIC:
        raise BinWireError(f"bad binary magic 0x{magic:02x}")
    value = unpack_value(body[PRELUDE_BYTES:])
    if (
        not isinstance(value, list)
        or len(value) != 2
        or not isinstance(value[0], int)
        or isinstance(value[0], bool)
    ):
        raise BinWireError("binary body must decode to [sender, payload]")
    sender, payload = value
    if not isinstance(payload, dict):
        raise BinWireError(
            f"payload must be a map, got {type(payload).__name__}"
        )
    return version, max_version, type_code, sender, payload
