"""`values.record` classes and typed record decoding."""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil

import pytest

import interopsim
from interopsim.bus import Signatures
from interopsim.errors import EncodingError
from interopsim.txn import Committed, PrefixRows, ReadRequest
from interopsim.values import MAX_RECORD_DEPTH, decode_record, encode_record, join_record, record

from test_codec_fuzz import CLASSES, capture


def record_classes() -> list[type]:
    """Every frozen dataclass the package defines: each is a @record."""
    found = []
    for info in pkgutil.walk_packages(interopsim.__path__, "interopsim."):
        module = importlib.import_module(info.name)
        for obj in vars(module).values():
            if (
                isinstance(obj, type)
                and obj.__module__ == module.__name__
                and dataclasses.is_dataclass(obj)
                and obj.__dataclass_params__.frozen
            ):
                found.append(obj)
    return sorted(found, key=lambda cls: f"{cls.__module__}.{cls.__qualname__}")


RECORDS = record_classes()


def twin(cls) -> type:
    """A plain dataclass(frozen=True) with the same fields, defaults and factories."""
    specs = []
    for f in dataclasses.fields(cls):
        extra = {}
        if f.default is not dataclasses.MISSING:
            extra["default"] = f.default
        if f.default_factory is not dataclasses.MISSING:
            extra["default_factory"] = f.default_factory
        specs.append((f.name, f.type, dataclasses.field(**extra)))
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True)


def test_every_record_module_is_covered():
    names = {cls.__name__ for cls in RECORDS}
    assert {"Event", "Prepare", "Block", "Keypair", "MerkleProof", "Committed", "Policy"} <= names
    assert len(RECORDS) >= 30


@pytest.mark.parametrize("cls", RECORDS, ids=[cls.__name__ for cls in RECORDS])
def test_record_matches_its_dataclass_twin(cls):
    plain = twin(cls)
    flds = dataclasses.fields(cls)
    values = [f"v{i}" for i in range(len(flds))]
    by_name = {f.name: v for f, v in zip(flds, values)}
    a, b = cls(*values), plain(*values)
    assert cls(**by_name) == a and hash(cls(**by_name)) == hash(a)
    assert repr(a) == repr(b)
    assert hash(a) == hash(b)
    assert dataclasses.astuple(a) == dataclasses.astuple(b)
    assert dataclasses.asdict(a) == dataclasses.asdict(b)
    assert [f.name for f in dataclasses.fields(a)] == [f.name for f in dataclasses.fields(b)]
    assert a != cls(*values[:-1], "other")
    changed = dataclasses.replace(a, **{flds[0].name: "new"})
    assert type(changed) is cls and dataclasses.astuple(changed) == ("new", *values[1:])
    # defaults and default factories
    required = [v for f, v in zip(flds, values) if f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING]
    assert dataclasses.astuple(cls(*required)) == dataclasses.astuple(plain(*required))
    for f in flds:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(a, f.name, "x")
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(a, f.name)
    with pytest.raises(TypeError):
        cls(*values, "one too many")


def test_default_factory_gives_each_record_its_own_value():
    first, second = Committed(), Committed()
    assert first.read_values == {} and first == second
    first.read_values["k"] = 1
    assert second.read_values == {}
    assert Committed({"k": 1}).read_values == {"k": 1}
    assert repr(Committed()) == repr(twin(Committed)())


def test_record_refuses_what_its_init_does_not_generate():
    class WithPostInit:
        x: int

        def __post_init__(self):
            pass

    class WithInitVar:
        x: int
        y: dataclasses.InitVar[int] = 0

    class WithNoInitField:
        x: int
        y: int = dataclasses.field(default=0, init=False)

    for cls in (WithPostInit, WithInitVar, WithNoInitField):
        with pytest.raises(TypeError):
            record(cls)


# --- typed decoding ---


@pytest.fixture(scope="module")
def wires():
    return capture()[1]


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_every_truncation_of_a_real_message_is_refused(wires, cls):
    raw = wires[cls]
    assert encode_record(decode_record(raw, cls)) == raw
    for cut in range(len(raw)):
        with pytest.raises(EncodingError):
            decode_record(raw[:cut], cls)


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_a_wrong_item_count_is_refused(wires, cls):
    fields = decode_record(wires[cls])  # its items, untyped
    for bad in (fields[:-1], (*fields, None), ()):
        with pytest.raises(EncodingError, match="items, wanted"):
            decode_record(encode_record(bad), cls)


def test_tuple_types_check_their_counts_and_items():
    assert decode_record(encode_record([("n0", b"s")]), Signatures) == (("n0", b"s"),)
    for bad in ([("n0",)], [("n0", b"s", b"")], [("n0", "s")], [b"n0"], ("n0", b"s")):
        with pytest.raises(EncodingError):
            decode_record(encode_record(bad), Signatures)


def test_a_bool_byte_other_than_zero_or_one_is_refused():
    raw = encode_record(ReadRequest(1, "beta", lock_only=True))
    assert raw.endswith(bytes([1, 1]))  # the bool tag, then its byte
    assert decode_record(raw[:-1] + b"\x00", ReadRequest).lock_only is False
    for byte in (2, 0xFF):
        with pytest.raises(EncodingError, match=f"bool byte {byte}"):
            decode_record(raw[:-1] + bytes([byte]), ReadRequest)
    with pytest.raises(EncodingError, match="truncated bool"):
        decode_record(raw[:-1], ReadRequest)


def test_typed_nesting_deeper_than_the_cap_is_refused():
    shape, raw = tuple[int, ...], encode_record(())
    for _ in range(MAX_RECORD_DEPTH - 1):
        shape, raw = tuple[shape, ...], join_record([raw])
    assert decode_record(raw, shape) == decode_record(raw)  # eight levels decode
    deeper = tuple[shape, ...]
    with pytest.raises(EncodingError, match="nests too deep"):
        decode_record(join_record([raw]), deeper)
    with pytest.raises(EncodingError, match="nests too deep"):
        decode_record(bytes([5, 0, 0, 0, 1]) * 10_000, deeper)


def test_prefix_rows_decode_typed():
    rows = (("kv.a", None, (1, 0)), ("kv.b", b"\x00", (2, 3)), ("kv.c", True, (2, 4)))
    raw = encode_record(rows)
    assert decode_record(raw, PrefixRows) == rows
    for bad in (
        [("kv.a", None, (1,))],  # a version of one
        [("kv.a", None, (1, True))],  # a bool in the version
        [(b"kv.a", None, (1, 0))],  # a bytes key
        [("kv.a", (), (1, 0))],  # a list for a value
        [("kv.a", None)],  # a short row
    ):
        with pytest.raises(EncodingError):
            decode_record(encode_record(bad), PrefixRows)
