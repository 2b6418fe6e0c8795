from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import pytest

from interopsim.errors import EncodingError
from interopsim.values import (
    MAX_RECORD_DEPTH,
    Value,
    decode_one,
    decode_record,
    decode_value,
    encode_record,
    encode_value,
    join_record,
)


# pinned canonical byte forms: tag, then 4-byte BE length + payload for str/bytes
CANONICAL = [
    (None, bytes([0])),
    (True, bytes([1, 1])),
    (False, bytes([1, 0])),
    (0, bytes([2]) + b"\x00" * 8),
    (1, bytes([2]) + b"\x00" * 7 + b"\x01"),
    (-1, bytes([2]) + b"\xff" * 8),
    (2**63 - 1, bytes([2]) + b"\x7f" + b"\xff" * 7),
    (-(2**63), bytes([2]) + b"\x80" + b"\x00" * 7),
    ("", bytes([3, 0, 0, 0, 0])),
    ("hi", bytes([3, 0, 0, 0, 2]) + b"hi"),
    (b"\x00\xff", bytes([4, 0, 0, 0, 2]) + b"\x00\xff"),
]


@pytest.mark.parametrize("value,raw", CANONICAL)
def test_canonical_encoding(value, raw):
    assert encode_value(value) == raw
    assert decode_one(raw) == value


def test_roundtrip_mixed_list():
    vs = [None, True, -42, "bids.alice", b"\x01\x02", 2**40]
    raw = encode_record(vs)
    assert raw[0] == 5 and int.from_bytes(raw[1:5], "big") == len(vs)
    back, end = [], 5
    for _ in vs:
        v, end = decode_value(raw, end)
        back.append(v)
    assert back == vs
    assert end == len(raw)


def test_int_out_of_range_rejected():
    with pytest.raises(EncodingError):
        encode_value(2**63)
    with pytest.raises(EncodingError):
        encode_value(-(2**63) - 1)


def test_truncated_inputs_rejected():
    raw = encode_value("hello")
    for cut in range(1, len(raw)):
        with pytest.raises(EncodingError):
            decode_one(raw[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(EncodingError):
        decode_one(encode_value(5) + b"\x00")


def test_unknown_tag_rejected():
    with pytest.raises(EncodingError):
        decode_value(bytes([9, 1, 2]))


def test_bool_byte_is_zero_or_one():
    # any other byte would decode to a bool that re-encodes to other bytes
    for byte in (2, 0x80, 0xFF):
        with pytest.raises(EncodingError):
            decode_one(bytes([1, byte]))
        with pytest.raises(EncodingError):
            decode_record(bytes([5, 0, 0, 0, 1, 1, byte]))


def test_bool_is_not_int_encoding():
    # bool must take the bool tag even though bool subclasses int
    assert encode_value(True)[0] == 1
    assert encode_value(1)[0] == 2
    assert encode_value(True) != encode_value(1)


# a record: tag 5, 4-byte BE item count, then the items (scalars as above)
NESTED = ("k", (1, True), [None, b"\x01"])
NESTED_RAW = (
    bytes([5, 0, 0, 0, 3])
    + bytes([3, 0, 0, 0, 1]) + b"k"
    + bytes([5, 0, 0, 0, 2]) + bytes([2]) + b"\x00" * 7 + b"\x01" + bytes([1, 1])
    + bytes([5, 0, 0, 0, 2]) + bytes([0]) + bytes([4, 0, 0, 0, 1, 1])
)


def test_lone_surrogate_is_an_encoding_error():
    # UTF-8 cannot hold a lone surrogate: every encoder refuses it as it refuses
    # any other value it cannot encode
    for encode in (encode_value, lambda s: encode_record((s,)), lambda s: encode_record(((1, s),))):
        with pytest.raises(EncodingError):
            encode("a\ud800")


def test_canonical_record_encoding():
    assert encode_record(NESTED) == NESTED_RAW
    assert decode_record(NESTED_RAW, 3) == ("k", (1, True), (None, b"\x01"))  # lists come back as tuples


def test_record_round_trip_tells_true_from_one():
    record = (True, 1, (False, 0), ("", b""), ())
    raw = encode_record(record)
    back = decode_record(raw)
    assert encode_record(back) == raw
    assert [type(v) for v in (back[0], back[1], *back[2])] == [bool, int, bool, int]


def test_record_malformed_inputs_rejected():
    with pytest.raises(EncodingError):
        decode_record(b"")
    for cut in range(1, len(NESTED_RAW)):
        with pytest.raises(EncodingError, match="truncated"):
            decode_record(NESTED_RAW[:cut])
    with pytest.raises(EncodingError):
        decode_record(NESTED_RAW + b"\x00")
    with pytest.raises(EncodingError):
        decode_record(NESTED_RAW, 2)  # wrong width
    with pytest.raises(EncodingError):
        decode_record(encode_value("k"))  # top level is not a list
    # a forged count larger than the data runs out of bytes
    with pytest.raises(EncodingError):
        decode_record(bytes([5, 0xFF, 0xFF, 0xFF, 0xFF, 0]))


def test_record_nesting_capped():
    deepest = ()
    for _ in range(MAX_RECORD_DEPTH - 1):
        deepest = (deepest,)
    raw = encode_record(deepest)
    assert decode_record(raw) == deepest
    with pytest.raises(EncodingError):
        encode_record((deepest,))
    # hand-built: one list deeper than the cap, and a deep chain of lists
    with pytest.raises(EncodingError):
        decode_record(bytes([5, 0, 0, 0, 1]) + raw)
    with pytest.raises(EncodingError):
        decode_record(bytes([5, 0, 0, 0, 1]) * 10_000)


def test_list_is_never_a_value():
    with pytest.raises(EncodingError):
        encode_value((1, 2))
    with pytest.raises(EncodingError):
        encode_value([1])
    with pytest.raises(EncodingError):
        decode_one(bytes([5, 0, 0, 0, 0]))


@dataclass(frozen=True)
class Inner:
    name: str
    flag: bool


@dataclass(frozen=True)
class Outer:
    n: int
    value: Value
    blob: Optional[bytes]
    pair: Optional[tuple[int, int]]
    names: tuple[str, ...]
    inners: tuple[Inner, ...]
    inner: Inner


OUTER = Outer(1, None, b"\x00", (2, 3), ("a", "b"), (Inner("i", True),), Inner("j", False))


def test_typed_record_round_trip():
    raw = encode_record(OUTER)
    assert raw == encode_record((1, None, b"\x00", (2, 3), ("a", "b"), (("i", True),), ("j", False)))
    back = decode_record(raw, Outer)
    assert back == OUTER and type(back.inners[0]) is Inner
    assert encode_record(back) == raw
    assert join_record([encode_record((1,)), encode_record(())]) == encode_record(((1,), ()))


@pytest.mark.parametrize(
    "items",
    [
        (True, None, None, None, (), (), ("j", False)),  # a bool is not an int
        (1, (), None, None, (), (), ("j", False)),  # a tuple is not a Value
        (1, None, "b", None, (), (), ("j", False)),  # str for Optional[bytes]
        (1, None, None, (2,), (), (), ("j", False)),  # a pair of one
        (1, None, None, (2, True), (), (), ("j", False)),  # a bool in the pair
        (1, None, None, None, ("a", 1), (), ("j", False)),  # an int among names
        (1, None, None, None, "a", (), ("j", False)),  # str for a tuple
        (1, None, None, None, (), (("i", 1),), ("j", False)),  # an int flag, nested
        (1, None, None, None, (), (), ("j",)),  # a short nested record
        (1, None, None, None, (), (), None),  # None for a record
        (1, None, None, None, (), ()),  # a short record
    ],
)
def test_typed_record_rejects_ill_typed_fields(items):
    with pytest.raises(EncodingError):
        decode_record(encode_record(items), Outer)
