"""Seeded type-swap fuzz over real encoded messages of every record class.

One message of each class is captured from a World run.  Each field is
replaced by a value of a type its annotation does not admit: decoding must
raise EncodingError, and each layer that receives the message must drop it
without raising.  Random byte edits must either fail to decode or decode
to a message that encodes back to the same bytes.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from interopsim.bus import KIND_DECIDE, KIND_PREPARE, KIND_VOTE, Event, SignedEventBatch, verify_batch
from interopsim.errors import EncodingError
from interopsim.merkle import MerkleProof
from interopsim.systxn import Outcome, Prepare, ReadRequest, ReadResponse, Vote
from interopsim.txn import MODE_OCC
from interopsim.values import decode_record, encode_record, join_record

from harness import World

SEED = 20_191_121
CLASSES = (Event, SignedEventBatch, ReadRequest, ReadResponse, MerkleProof, Prepare, Vote, Outcome)
PROTOCOL_KINDS = {Prepare: KIND_PREPARE, Vote: KIND_VOTE, Outcome: KIND_DECIDE}

# the scalar classes each field annotation admits; tuple and record fields admit none
SCALARS = (type(None), bool, int, str, bytes)
ADMITS = {
    "str": {str},
    "int": {int},
    "bool": {bool},
    "bytes": {bytes},
    "Value": set(SCALARS),
    "Optional[MerkleProof]": {type(None)},
    "Optional[tuple[bytes, Value]]": {type(None)},
    "Optional[Version]": {type(None)},
}


def capture():
    """A settled World and one real wire message per class, keyed by class."""
    w = World()
    exchanges = []
    serve = w.sim.direct_handlers["beta"]

    def recording(raw, now):
        out = serve(raw, now)
        exchanges.append((raw, out))
        return out

    w.sim.direct_handlers["beta"] = recording
    w.set_kv("beta", "x", 5)
    t = w.engine.begin_general("alpha", MODE_OCC)
    w.engine.txn_read(t, "beta", "kv.x")  # a storage-path read: proof and version
    w.engine.txn_write(t, "beta", "kv.y", b"\x01")
    w.engine.txn_commit(t)
    w.settle()
    w.sim.direct_handlers["beta"] = serve
    batches = [raw for broker in w.sim.brokers for _, raw in broker.history]
    events = [decode_record(raw, SignedEventBatch).event for raw in batches]
    payloads = {event.kind: event.payload for event in events}
    request, response = exchanges[0]
    proof = decode_record(response, ReadResponse).proof
    assert proof is not None
    return w, {
        Event: events[0].encode(),
        SignedEventBatch: batches[0],
        ReadRequest: request,
        ReadResponse: response,
        MerkleProof: encode_record(proof),
        **{cls: payloads[kind] for cls, kind in PROTOCOL_KINDS.items()},
    }


def swaps(cls, message, rng):
    """Every field of `message` in turn, replaced by each ill-typed candidate."""
    for f in dataclasses.fields(cls):
        admitted = ADMITS.get(f.type, set())
        candidates = [
            None,
            rng.random() < 0.5,
            rng.randrange(-(2**40), 2**40),
            "".join(rng.choice("abc.:") for _ in range(rng.randrange(4))),
            rng.randbytes(rng.randrange(4)),
        ]
        candidates = [c for c in candidates if type(c) not in admitted]
        # a tuple of one tuple: admitted by no scalar, record, pair or sequence field
        candidates.append(((None,),))
        for bad in candidates:
            yield f.name, dataclasses.replace(message, **{f.name: bad})


@pytest.fixture(scope="module")
def captured():
    return capture()


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_type_swapped_fields_are_refused(captured, cls):
    w, wires = captured
    rng = random.Random(SEED)
    raw = wires[cls]
    message = decode_record(raw, cls)
    refused = 0
    for name, swapped in swaps(cls, message, rng):
        bad = encode_record(swapped)
        with pytest.raises(EncodingError):
            decode_record(bad, cls)
        if cls is Event:
            sigs = decode_record(wires[SignedEventBatch], SignedEventBatch).signatures
            assert verify_batch(join_record([bad, encode_record(sigs)]), w.sim.registry) is None
        elif cls is SignedEventBatch:
            assert verify_batch(bad, w.sim.registry) is None
        elif cls is ReadRequest:
            out = w.sim.direct_handlers["beta"](bad, w.sim.tick)
            assert out is None or decode_record(out, ReadResponse).status == "error", name
        elif cls is ReadResponse:
            req = decode_record(wires[ReadRequest], ReadRequest)
            with pytest.raises(EncodingError):
                w.engine.verify_response(req, bad)
        refused += 1
    assert refused >= 2 * len(dataclasses.fields(cls))


def test_type_swapped_protocol_events_get_failed_receipts():
    w, wires = capture()
    rng = random.Random(SEED)
    alpha, beta = w.chains["alpha"], w.chains["beta"]
    sent = set()
    for cls, kind in PROTOCOL_KINDS.items():
        for _, swapped in swaps(cls, decode_record(wires[cls], cls), rng):
            event = Event("alpha", "beta", "sys.txn", "sys.txn", alpha.event_nonce, kind, encode_record(swapped))
            alpha.event_nonce += 1
            w.sim.emit_event(alpha, event)
            sent.add(event.encode())
    start = beta.height
    w.settle()  # nothing raises out of run_until_quiescent
    receipts = {
        txn.args[0]: receipt
        for block in beta.blocks[start + 1 :]
        for txn, receipt in zip(block.txns, block.receipts)
        if txn.method == "__event__"
    }
    assert receipts.keys() == sent
    assert all(r.status == "failed" and r.error.startswith("EncodingError") for r in receipts.values())


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_edited_bytes_fail_or_re_encode_to_themselves(captured, cls):
    _, wires = captured
    rng = random.Random(SEED)
    raw = wires[cls]
    decoded = 0
    for _ in range(400):
        edited = bytearray(raw)
        for _ in range(rng.randrange(1, 3)):
            edited[rng.randrange(len(raw))] = rng.choice([0, 1, 2, rng.randrange(256)])
        edited = bytes(edited)
        try:
            message = decode_record(edited, cls)
        except EncodingError:
            continue
        decoded += 1
        assert encode_record(message) == edited
    assert decoded > 0
