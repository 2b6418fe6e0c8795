"""Scalar value model, records, and their canonical byte encoding.

Every value a contract can store or pass is one of five scalars:
None, bool, int (signed 64-bit), str, bytes.  The encoding is a tag
byte (0=Null, 1=Bool, 2=Int64 big-endian two's complement, 3=Str,
4=Bytes); Str/Bytes carry a 4-byte big-endian length plus payload.
Digests are SHA-256, always 32 bytes.

A record is a protocol message: a dataclass instance (its fields in
declaration order), a tuple or a list, nesting records and values.  A list
encodes as tag 5 (TAG_LIST), a 4-byte big-endian item count, then its items.
Every decode names the record's type, a record class or a tuple type
(decode_record(raw, ReadResponse), decode_record(raw, tuple[Value])): each
item is checked against its annotation, and a record class gives an
instance of it.  There is no untyped decode and no decode of a lone value;
values come back only as record items.  TAG_LIST is never a value:
encode_value refuses tuples and lists, and a Value item refuses tag 5, so
what a contract stores stays one of the five scalars.  Every byte string
that decodes re-encodes to itself.

A record class is declared with `record`: dataclass(frozen=True) with an
__init__, generated once per class as dataclasses generates its own, that
stores each field straight into the instance __dict__ instead of calling
object.__setattr__ per field.  Typed decoding follows a plan that _compile
builds once per record class and tuple type.
"""

from __future__ import annotations

import hashlib
from dataclasses import MISSING, dataclass, fields, is_dataclass
from functools import cache
from itertools import repeat
from operator import attrgetter
from typing import Callable, Optional, Union, get_args, get_origin, get_type_hints

Value = Union[None, bool, int, str, bytes]

TAG_NULL = 0
TAG_BOOL = 1
TAG_INT = 2
TAG_STR = 3
TAG_BYTES = 4
TAG_LIST = 5  # records only, never a stored value
_LIST_HEAD = bytes([TAG_LIST])
_STR_HEAD = bytes([TAG_STR])
_INT_HEAD = bytes([TAG_INT])
_BYTES_HEAD = bytes([TAG_BYTES])

MAX_RECORD_DEPTH = 8  # lists nested deeper than this are refused

INT64_MIN = -(1 << 63)
INT64_MAX = (1 << 63) - 1

from .errors import EncodingError


def digest(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


def check_entry(key: str, value: Value) -> None:
    """EncodingError unless `key` is a str that encodes and `value` a Value."""
    if type(key) is not str:
        raise EncodingError(f"key is not a str: {key!r}")
    encode_value(key)
    encode_value(value)


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
        try:
            raw = v.encode("utf-8")
        except UnicodeEncodeError as exc:  # UTF-8 cannot hold a lone surrogate
            raise EncodingError(f"str not encodable as utf-8: {v!r}") from exc
        return bytes([TAG_STR]) + len(raw).to_bytes(4, "big") + raw
    if isinstance(v, bytes):
        return bytes([TAG_BYTES]) + len(v).to_bytes(4, "big") + v
    raise EncodingError(f"unsupported value type: {type(v).__name__}")


def record(cls):
    """`dataclass(frozen=True)`, with an __init__ that fills the instance __dict__.

    A frozen dataclass's own __init__ sets each field through
    object.__setattr__; this one, generated once per class as dataclasses
    does, stores them straight into __dict__.  Defaults and default_factory
    hold as before; assigning a field still raises FrozenInstanceError; ==,
    hash, repr, fields, asdict and replace are the dataclass's own.
    """
    cls = dataclass(frozen=True)(cls)
    flds = fields(cls)
    if hasattr(cls, "__post_init__") or len(flds) != len(cls.__dataclass_fields__):
        raise TypeError(f"record {cls.__name__}: no __post_init__ or InitVar")
    if any(not f.init or getattr(f, "kw_only", False) for f in flds):
        raise TypeError(f"record {cls.__name__}: every field is a positional init argument")
    ns: dict = {"_FACTORY": _FACTORY}
    params, body = ["self"], ["    _fields = self.__dict__"]
    for f in flds:
        if f.default is not MISSING:
            ns[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        elif f.default_factory is not MISSING:
            ns[f"_factory_{f.name}"] = f.default_factory
            params.append(f"{f.name}=_FACTORY")
            body.append(f"    if {f.name} is _FACTORY: {f.name} = _factory_{f.name}()")
        else:
            params.append(f.name)
        body.append(f"    _fields[{f.name!r}] = {f.name}")
    exec("\n".join([f"def __init__({', '.join(params)}):", *body]), ns)
    init = ns["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls


_FACTORY = object()  # a record field's default that says: call its default_factory


def encode_record(record) -> bytes:
    """The canonical bytes of a record: a dataclass instance, tuple or list."""
    if hasattr(record, "__dataclass_fields__"):
        record = _field_getter(type(record))(record)
    elif not isinstance(record, (tuple, list)):
        raise EncodingError(f"a record is a dataclass, tuple or list, not {type(record).__name__}")
    out: list[bytes] = []
    try:
        _encode_list(record, out, 1)
    except UnicodeEncodeError as exc:  # a str the inline path could not encode
        raise EncodingError(f"record holds a str not encodable as utf-8: {exc}") from exc
    return b"".join(out)


def join_record(encoded: list[bytes]) -> bytes:
    """The record whose items are `encoded`, each already a record's bytes."""
    return b"".join([_LIST_HEAD, len(encoded).to_bytes(4, "big"), *encoded])


@cache
def _field_getter(cls) -> Callable:
    """A record class's fields, in declaration order, as one tuple."""
    return attrgetter(*[f.name for f in fields(cls)])


def _encode_list(items: tuple | list, out: list[bytes], depth: int) -> None:
    if depth > MAX_RECORD_DEPTH:
        raise EncodingError("record nests too deep")
    out.append(_LIST_HEAD + len(items).to_bytes(4, "big"))
    for item in items:
        cls = item.__class__
        if cls is str:  # the common cases, inline
            raw = item.encode("utf-8")
            out.append(_STR_HEAD + len(raw).to_bytes(4, "big") + raw)
        elif cls is bytes:
            out.append(_BYTES_HEAD + len(item).to_bytes(4, "big") + item)
        elif cls is int and INT64_MIN <= item <= INT64_MAX:
            out.append(_INT_HEAD + item.to_bytes(8, "big", signed=True))
        elif isinstance(item, (tuple, list)):
            _encode_list(item, out, depth + 1)
        elif hasattr(cls, "__dataclass_fields__"):
            _encode_list(_field_getter(cls)(item), out, depth + 1)
        else:
            out.append(encode_value(item))


def decode_record(data: bytes, shape, offset: int = 0):
    """Decode the record of type `shape` filling data[offset:].

    `shape` is a record class or tuple type.  Each item must match its
    annotation (see _compile), else EncodingError, and a record class gives
    an instance of it.
    """
    record, end = read_record(data, shape, offset)
    if end != len(data):
        raise EncodingError("trailing bytes after record")
    return record


def read_record(data: bytes, shape, offset: int = 0):
    """Decode the record starting at data[offset], as decode_record does.

    Returns the record and the offset just past it, so a caller can keep a
    nested record's own bytes, data[offset:end], as its encoding.
    """
    layout = _compile(shape)[1]
    if layout is None:
        raise TypeError(f"no record layout for {shape!r}")
    if offset >= len(data) or data[offset] != TAG_LIST:
        raise EncodingError("record is not a list")
    return _decode_list(data, offset + 1, 1, layout)


_SCALARS = frozenset([type(None), bool, int, str, bytes])
_TUPLE = frozenset([tuple])


@cache
def _compile(tp) -> tuple[frozenset, Optional[tuple]]:
    """How to decode an item of type `tp`, compiled once per type.

    `tp` is a record class, a scalar type (an int is not a bool), Value,
    Optional or another Union of these, tuple[T, ...] or tuple[A, B, ...].
    Returns the classes the item may have and, when it may be a list, the
    layout _decode_list reads it with: the plans of its items (one plan
    for every item of a tuple[T, ...]), their number, and the function
    that builds the result from them.  A union may hold one list type.
    """
    if tp in _SCALARS:
        return frozenset([tp]), None
    origin, args = get_origin(tp), get_args(tp)
    if origin is Union:
        parts = [_compile(a) for a in args]
        layouts = [layout for _, layout in parts if layout is not None]
        if len(layouts) > 1:
            raise TypeError(f"no record layout for {tp!r}: more than one list type")
        return frozenset().union(*[kinds for kinds, _ in parts]), (layouts or [None])[0]
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _TUPLE, (_compile(args[0]), None, tuple)
    if origin is tuple:
        return _TUPLE, ([_compile(a) for a in args], len(args), tuple)
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        plans = [_compile(hints[f.name]) for f in fields(tp)]
        return _TUPLE, (plans, len(plans), lambda items: tp(*items))
    raise TypeError(f"no record layout for {tp!r}")


def _decode_list(data: bytes, offset: int, depth: int, layout: tuple):
    """Decode the list whose count is at data[offset], following `layout`.

    `layout` comes from _compile: each item is checked against its plan
    and the layout builds the result from the items.
    """
    if depth > MAX_RECORD_DEPTH:
        raise EncodingError("record nests too deep")
    end = len(data)
    if offset + 4 > end:
        raise EncodingError("truncated list count")
    n = int.from_bytes(data[offset : offset + 4], "big")
    offset += 4
    plans, width, build = layout
    if width is None:
        plans = repeat(plans, n)
    elif n != width:
        raise EncodingError(f"record has {n} items, wanted {width}")
    items = []
    append = items.append
    for kinds, sub in plans:
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
            if tuple not in kinds:
                raise EncodingError("a list where a value belongs")
            item, offset = _decode_list(data, offset + 1, depth + 1, sub)
            append(item)
            continue
        elif tag == TAG_NULL:
            offset += 1
            item = None
        elif tag == TAG_BOOL:
            offset += 2
            if offset > end:
                raise EncodingError("truncated bool")
            if data[offset - 1] > 1:
                raise EncodingError(f"bool byte {data[offset - 1]} is not 0 or 1")
            item = data[offset - 1] == 1
        else:
            raise EncodingError("truncated value" if tag is None else f"unknown value tag {tag}")
        if item.__class__ not in kinds:
            raise EncodingError(f"ill-typed record item: {type(item).__name__}")
        append(item)
    return build(items), offset


def lp(raw: bytes) -> bytes:
    """4-byte big-endian length prefix."""
    return len(raw).to_bytes(4, "big") + raw
