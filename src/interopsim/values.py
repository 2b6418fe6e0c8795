"""Scalar value model, records, and their canonical byte encoding.

Every value a contract can store or pass is one of five scalars:
None, bool, int (signed 64-bit), str, bytes.  The encoding is a tag
byte (0=Null, 1=Bool, 2=Int64 big-endian two's complement, 3=Str,
4=Bytes); Str/Bytes carry a 4-byte big-endian length plus payload.
Digests are SHA-256, always 32 bytes.

A record is a protocol message: nested tuples or lists of values, such as
a dataclass's fields in declaration order.  A list encodes as tag 5
(TAG_LIST), a 4-byte big-endian item count, then its items; decoding gives
tuples.  TAG_LIST is never a value: encode_value/decode_value reject
tuples and tag 5, so what a contract stores stays one of the five scalars.
"""

from __future__ import annotations

import hashlib
from typing import Optional, Union

Value = Union[None, bool, int, str, bytes]
Record = Union[tuple, list]  # of Values and nested Records

TAG_NULL = 0
TAG_BOOL = 1
TAG_INT = 2
TAG_STR = 3
TAG_BYTES = 4
TAG_LIST = 5  # records only, never a stored value
_LIST_HEAD = bytes([TAG_LIST])
_STR_HEAD = bytes([TAG_STR])

MAX_RECORD_DEPTH = 8  # lists nested deeper than this are refused

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

from .errors import EncodingError


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def encode_value(v: Value) -> bytes:
    # bool first: bool is a subclass of int
    if v is None:
        return bytes([TAG_NULL])
    if isinstance(v, bool):
        return bytes([TAG_BOOL, 1 if v else 0])
    if isinstance(v, int):
        if not INT64_MIN <= v <= INT64_MAX:
            raise EncodingError(f"integer out of 64-bit range: {v}")
        return bytes([TAG_INT]) + (v & ((1 << 64) - 1)).to_bytes(8, "big")
    if isinstance(v, str):
        raw = v.encode("utf-8")
        return bytes([TAG_STR]) + len(raw).to_bytes(4, "big") + raw
    if isinstance(v, bytes):
        return bytes([TAG_BYTES]) + len(v).to_bytes(4, "big") + v
    raise EncodingError(f"unsupported value type: {type(v).__name__}")


def decode_value(data: bytes, offset: int = 0) -> tuple[Value, int]:
    """Decode one value; returns (value, next_offset)."""
    if offset >= len(data):
        raise EncodingError("truncated value")
    tag = data[offset]
    offset += 1
    if tag == TAG_NULL:
        return None, offset
    if tag == TAG_BOOL:
        if offset >= len(data):
            raise EncodingError("truncated bool")
        return data[offset] != 0, offset + 1
    if tag == TAG_INT:
        if offset + 8 > len(data):
            raise EncodingError("truncated int64")
        raw = int.from_bytes(data[offset : offset + 8], "big")
        if raw >= 1 << 63:
            raw -= 1 << 64
        return raw, offset + 8
    if tag in (TAG_STR, TAG_BYTES):
        if offset + 4 > len(data):
            raise EncodingError("truncated length")
        n = int.from_bytes(data[offset : offset + 4], "big")
        offset += 4
        if offset + n > len(data):
            raise EncodingError("truncated payload")
        payload = data[offset : offset + n]
        offset += n
        if tag == TAG_STR:
            try:
                return payload.decode("utf-8"), offset
            except UnicodeDecodeError as exc:
                raise EncodingError("invalid utf-8") from exc
        return payload, offset
    raise EncodingError(f"unknown value tag {tag}")


def decode_one(data: bytes) -> Value:
    v, end = decode_value(data, 0)
    if end != len(data):
        raise EncodingError("trailing bytes after value")
    return v


def encode_values(vs: list[Value]) -> bytes:
    out = [len(vs).to_bytes(4, "big")]
    out.extend(encode_value(v) for v in vs)
    return b"".join(out)


def encode_record(record: Record) -> bytes:
    """The canonical bytes of a record: a top-level tuple or list."""
    if not isinstance(record, (tuple, list)):
        raise EncodingError(f"a record is a tuple or list, not {type(record).__name__}")
    out: list[bytes] = []
    _encode_list(record, out, 1)
    return b"".join(out)


def _encode_list(items: Record, out: list[bytes], depth: int) -> None:
    if depth > MAX_RECORD_DEPTH:
        raise EncodingError("record nests too deep")
    out.append(_LIST_HEAD + len(items).to_bytes(4, "big"))
    for item in items:
        if item.__class__ is str:  # the common case, inline
            raw = item.encode("utf-8")
            out.append(_STR_HEAD + len(raw).to_bytes(4, "big") + raw)
        elif isinstance(item, (tuple, list)):
            _encode_list(item, out, depth + 1)
        else:
            out.append(encode_value(item))


def decode_record(data: bytes, width: Optional[int] = None, offset: int = 0) -> tuple:
    """Decode the record filling data[offset:]; with `width`, it must have that many items."""
    if offset >= len(data) or data[offset] != TAG_LIST:
        raise EncodingError("record is not a list")
    record, end = _decode_list(data, offset + 1, 1)
    if end != len(data):
        raise EncodingError("trailing bytes after record")
    if width is not None and len(record) != width:
        raise EncodingError(f"record has {len(record)} items, wanted {width}")
    return record


def _decode_list(data: bytes, offset: int, depth: int) -> tuple[tuple, int]:
    if depth > MAX_RECORD_DEPTH:
        raise EncodingError("record nests too deep")
    end = len(data)
    if offset + 4 > end:
        raise EncodingError("truncated list count")
    n = int.from_bytes(data[offset : offset + 4], "big")
    offset += 4
    items = []
    append = items.append
    for _ in range(n):
        # each item takes at least one byte, so a forged count runs out of data
        tag = data[offset] if offset < end else None
        if tag == TAG_STR or tag == TAG_BYTES:  # the common cases, inline
            start = offset + 5
            offset = start + int.from_bytes(data[offset + 1 : start], "big")
            if offset > end:
                raise EncodingError("truncated payload")
            item = data[start:offset]
            if tag == TAG_STR:
                try:
                    item = item.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise EncodingError("invalid utf-8") from exc
        elif tag == TAG_INT:
            start = offset + 1
            offset = start + 8
            if offset > end:
                raise EncodingError("truncated int64")
            item = int.from_bytes(data[start:offset], "big", signed=True)
        elif tag == TAG_LIST:
            item, offset = _decode_list(data, offset + 1, depth + 1)
        else:
            item, offset = decode_value(data, offset)
        append(item)
    return tuple(items), offset


def lp(raw: bytes) -> bytes:
    """4-byte big-endian length prefix."""
    return len(raw).to_bytes(4, "big") + raw


def lps(s: str) -> bytes:
    return lp(s.encode("utf-8"))


def read_lp(data: bytes, offset: int) -> tuple[bytes, int]:
    if offset + 4 > len(data):
        raise EncodingError("truncated length prefix")
    n = int.from_bytes(data[offset : offset + 4], "big")
    offset += 4
    if offset + n > len(data):
        raise EncodingError("truncated field")
    return data[offset : offset + n], offset + n


def read_lps(data: bytes, offset: int) -> tuple[str, int]:
    raw, offset = read_lp(data, offset)
    try:
        return raw.decode("utf-8"), offset
    except UnicodeDecodeError as exc:
        raise EncodingError("invalid utf-8") from exc
