"""Property tests for the v4 binary wire codec (:mod:`repro.net.binwire`).

Hypothesis drives round trips through the MessagePack-style packer for
arbitrary payload values, and through :func:`encode_message` /
:func:`decode_body` for every message type — including TREE frontiers
carrying 128-bit checksums and span-context fragments, the two payload
shapes that forced the EXT_BIGINT extension and binary-safe strings.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.binwire import (
    BINARY_MAGIC,
    BinWireError,
    FrameEncoder,
    decode_binary_body,
    encode_binary_body,
    pack_value,
    unpack_value,
)
from repro.net.wire import (
    BINARY_WIRE_VERSION,
    TYPE_CODES,
    Message,
    MessageType,
    WireError,
    decode_body,
    encode_message,
)

# JSON-compatible scalars plus the binary-only extras (bytes, big ints).
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.floats(allow_nan=False),
    st.text(max_size=64),
    st.binary(max_size=64),
)
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=8),
        st.dictionaries(st.text(max_size=16), children, max_size=8),
        st.dictionaries(st.integers(-100, 100), children, max_size=4),
    ),
    max_leaves=24,
)
PAYLOADS = st.dictionaries(st.text(max_size=16), VALUES, max_size=6)


@settings(max_examples=200, deadline=None)
@given(VALUES)
def test_pack_value_round_trip(value):
    assert unpack_value(pack_value(value)) == value


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=-(2**512), max_value=2**512))
def test_bigint_round_trip(value):
    assert unpack_value(pack_value(value)) == value


@pytest.mark.parametrize(
    "value",
    [2**63 - 1, 2**63, -(2**63), -(2**63) - 1, 2**64 - 1, 2**64,
     2**127, -(2**127), 2**300],
)
def test_int64_boundary_values(value):
    assert unpack_value(pack_value(value)) == value


def test_bool_int_distinction_survives():
    out = unpack_value(pack_value([True, 1, False, 0]))
    assert out == [True, 1, False, 0]
    assert [type(v) for v in out] == [bool, int, bool, int]


@settings(max_examples=60, deadline=None)
@given(
    type_=st.sampled_from(sorted(MessageType, key=lambda t: t.value)),
    sender=st.integers(min_value=0, max_value=2**31),
    payload=PAYLOADS,
)
def test_v4_message_round_trip(type_, sender, payload):
    message = Message(
        version=BINARY_WIRE_VERSION,
        max_version=BINARY_WIRE_VERSION,
        type=type_,
        sender=sender,
        payload=payload,
    )
    frame = encode_message(message)
    length = struct.unpack(">I", frame[:4])[0]
    body = frame[4:]
    assert len(body) == length
    assert body[0] == BINARY_MAGIC
    assert decode_body(body) == message


@settings(max_examples=40, deadline=None)
@given(
    frontier=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=2**20),
            st.integers(min_value=0, max_value=2**128 - 1),
        ),
        max_size=16,
    ),
    dirty=st.lists(st.integers(min_value=0, max_value=2**16), max_size=16),
    bits=st.integers(min_value=0, max_value=20),
)
def test_tree_frontier_round_trip(frontier, dirty, bits):
    """TREE replies carry 128-bit checksums — the EXT_BIGINT hot case."""
    payload = {
        "bits": bits,
        "frontier": [[node, value] for node, value in frontier],
        "dirty": dirty,
    }
    message = Message(
        version=4, max_version=4, type=MessageType.TREE, sender=9, payload=payload
    )
    assert decode_body(encode_message(message)[4:]) == message


@settings(max_examples=40, deadline=None)
@given(
    spans=st.lists(
        st.fixed_dictionaries(
            {
                "trace": st.text(min_size=1, max_size=32),
                "hop": st.one_of(st.none(), st.integers(0, 2**32)),
                "sent_at": st.floats(
                    min_value=0, max_value=2**40, allow_nan=False
                ),
            }
        ),
        max_size=8,
    )
)
def test_span_fragment_round_trip(spans):
    """Span contexts ride beside updates in PUSH/RUMOR payloads."""
    payload = {"updates": [], "spans": spans}
    message = Message(
        version=4, max_version=4, type=MessageType.RUMOR, sender=2, payload=payload
    )
    assert decode_body(encode_message(message)[4:]) == message


@settings(max_examples=40, deadline=None)
@given(
    type_=st.sampled_from(sorted(MessageType, key=lambda t: t.value)),
    payload=st.dictionaries(
        st.text(max_size=12),
        st.recursive(
            st.one_of(
                st.none(), st.booleans(), st.integers(-(2**53), 2**53),
                st.text(max_size=32),
            ),
            lambda c: st.lists(c, max_size=4),
            max_leaves=8,
        ),
        max_size=4,
    ),
)
def test_json_and_binary_agree(type_, payload):
    """The same JSON-expressible message decodes identically from both
    codecs (only the version stamps differ)."""
    v3 = Message(version=3, max_version=4, type=type_, sender=5, payload=payload)
    v4 = Message(version=4, max_version=4, type=type_, sender=5, payload=payload)
    from_json = decode_body(encode_message(v3)[4:])
    from_binary = decode_body(encode_message(v4)[4:])
    assert from_json.payload == from_binary.payload
    assert (from_json.type, from_json.sender) == (from_binary.type, from_binary.sender)


def test_every_message_type_has_a_code():
    assert set(TYPE_CODES) == set(MessageType)
    codes = list(TYPE_CODES.values())
    assert len(set(codes)) == len(codes)


@pytest.mark.parametrize(
    "body",
    [
        b"\xc1",                              # truncated prelude
        b"\xc1\x04\x04",                      # still truncated
        b"\xc1\x04\x04\x63\x92\x05\x80",      # unknown type code 0x63
        b"\xc1\x03\x03\x00\x92\x05\x80",      # version below the binary floor
        b"\xc1\x04\x04\x00\x05",              # body is not [sender, payload]
        b"\xc1\x04\x04\x00\x92\xa3abc\x80",   # sender is not an int
        b"\xc1\x04\x04\x00\x92\x05\x91\x01",  # payload is not a map
        b"\xc1\x04\x04\x00\x92\x05",          # truncated msgpack body
        encode_binary_body(4, 4, 0, 1, {})[:-1],  # cut off mid-frame
    ],
)
def test_malformed_binary_bodies_raise(body):
    with pytest.raises(WireError):
        decode_body(body)


def test_hostile_container_count_rejected():
    # array32 claiming 2**31 elements with a 3-byte body must not allocate.
    body = b"\xdd\x80\x00\x00\x00" + b"\x01\x01\x01"
    with pytest.raises(BinWireError):
        unpack_value(body)


def test_decode_binary_body_clamps_max_version():
    body = encode_binary_body(4, 2, 0, 1, {})
    version, max_version, code, sender, payload = decode_binary_body(body)
    assert (version, code, sender, payload) == (4, 0, 1, {})
    message = decode_body(body)
    assert message.max_version >= message.version


def test_frame_encoder_reuse_and_reentrancy():
    encoder = FrameEncoder()
    first = encoder.encode_body(4, 4, 0, 1, {"a": 1})
    second = encoder.encode_body(4, 4, 0, 1, {"a": 1})
    assert first == second == encode_binary_body(4, 4, 0, 1, {"a": 1})
    # The shared encoder hands out detached bytes: mutating state between
    # calls must not corrupt previously returned frames.
    third = encoder.encode_body(4, 4, 1, 2, {"b": [1, 2, 3]})
    assert first == encode_binary_body(4, 4, 0, 1, {"a": 1})
    assert decode_binary_body(third)[4] == {"b": [1, 2, 3]}
