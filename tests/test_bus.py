import sys

import pytest

import interopsim.sim
from interopsim.bus import (
    Broker,
    BrokerFaults,
    Event,
    SignedEventBatch,
    verify_batch,
)
from interopsim.chain import Behavior
from interopsim.errors import ConfigError, EncodingError
from interopsim.sim import BROKER_LATENCY, BUS_BACKOFF, BUS_RETRIES
from interopsim.txn import Committed, MiniTxn
from interopsim.values import decode_record, digest, encode_record

from harness import World


def sample_event(nonce=7, payload=b"\x01\x02"):
    return Event(
        source_chain="alpha",
        dest_chain="beta",
        source_contract="kv",
        dest_contract="kv",
        nonce=nonce,
        kind=16,
        payload=payload,
    )


def test_event_wire_format_pinned():
    # a record of the fields in order: list tag 5 and count, then tagged values
    e = Event("a", "b", "c", "d", nonce=1, kind=16, payload=b"pp")
    raw = e.encode()
    expect = (
        bytes([5, 0, 0, 0, 8])
        + b"\x03\x00\x00\x00\x01a"
        + b"\x03\x00\x00\x00\x01b"
        + b"\x03\x00\x00\x00\x01c"
        + b"\x03\x00\x00\x00\x01d"
        + b"\x02" + (1).to_bytes(8, "big")
        + b"\x02" + (16).to_bytes(8, "big")
        + b"\x04\x00\x00\x00\x02pp"
        + b"\x02" + (1).to_bytes(8, "big")  # version
    )
    assert raw == expect
    assert decode_record(raw, Event) == e


def test_event_digest_and_encoding_are_cached_consistently():
    built = sample_event()
    decoded = decode_record(sample_event().encode(), Event)
    for e in (built, decoded):
        assert e.digest == digest(e.encode())
        assert e.encode() is e.encode()  # computed once per instance
    assert decoded.digest == built.digest


def test_event_cache_does_not_affect_equality_or_hash():
    filled, empty = sample_event(), sample_event()
    filled.digest
    assert "digest" in filled.__dict__ and "digest" not in empty.__dict__
    assert filled == empty and hash(filled) == hash(empty)
    assert len({filled, empty}) == 1
    assert filled != sample_event(nonce=8)


def test_batch_wire_format_pinned():
    e = Event("a", "b", "c", "d", nonce=1, kind=16, payload=b"pp")
    e.digest  # a filled cache must not change the bytes
    batch = SignedEventBatch(event=e, signatures=(("n0", b"s0"), ("n1", b"sig1")))
    expect = (
        bytes([5, 0, 0, 0, 2])
        + e.encode()
        + bytes([5, 0, 0, 0, 2])
        + bytes([5, 0, 0, 0, 2]) + b"\x03\x00\x00\x00\x02n0" + b"\x04\x00\x00\x00\x02s0"
        + bytes([5, 0, 0, 0, 2]) + b"\x03\x00\x00\x00\x02n1" + b"\x04\x00\x00\x00\x04sig1"
    )
    assert batch.encode() == expect


def test_batch_wire_roundtrip():
    e = sample_event()
    batch = SignedEventBatch(event=e, signatures=(("n0", b"s0"), ("n1", b"s1")))
    raw = batch.encode()
    assert decode_record(raw, SignedEventBatch) == batch
    with pytest.raises(EncodingError):
        decode_record(raw + b"\x00", SignedEventBatch)


def emit_via_contract(world: World, source="alpha", dest="beta", value=b"hello"):
    """Emit one app event from contract execution on the source chain."""
    chain = world.chains[source]

    def _emit(ctx):
        ctx.emit(dest, "kv", 16, value)

    # one-off handler: reuse the kv contract with a custom method
    contract = chain.contracts["kv"]
    contract.handlers = dict(contract.handlers)
    contract.handlers["emit"] = lambda self, ctx, args: ctx.emit(dest, "kv", 16, value)
    chain.submit_call("alice", "kv", "emit", [])
    world.settle()


@pytest.mark.parametrize(
    "kind,payload", [(16, "a str payload"), (2**70, b"x")], ids=["str_payload", "kind_out_of_range"]
)
def test_ill_typed_emit_fails_its_transaction(kind, payload):
    # the event would not decode at the destination, or not encode at all
    w = World()
    alpha = w.chains["alpha"]
    contract = alpha.contracts["kv"]
    contract.handlers = dict(contract.handlers)
    contract.handlers["emit"] = lambda self, ctx, args: ctx.emit("beta", "kv", kind, payload)
    txid = alpha.submit_call("alice", "kv", "emit", [])
    w.settle()
    (receipt,) = [
        receipt
        for block in alpha.blocks
        for txn, receipt in zip(block.txns, block.receipts)
        if txn.txn_id == txid
    ]
    assert receipt.status == "failed" and receipt.error.startswith("EncodingError")
    assert w.sim.meter.sent == 0
    assert not any(r["kind"] in ("deliver", "giveup") for r in w.sim.log.records)


def test_registry_refuses_to_register_a_chain_again():
    # a verdict on a batch, once given, must stand: both InboxDedupe.verified
    # and Simulation.handoff keep verdicts
    w = World()
    registry = w.sim.registry
    with pytest.raises(ConfigError):
        registry.register_chain("alpha", 0, {}, w.chains["alpha"].scheme)
    assert registry.f_of("alpha") == 1
    emit_via_contract(w, value=b"still verified")
    assert w.sim.meter.delivered == 1


def test_event_delivery_end_to_end():
    w = World()
    emit_via_contract(w, value=b"hello")
    items = w.chains["beta"].state_items("kv.inbox.")
    assert len(items) == 1
    assert items[0][1] == b"hello"


def test_nonce_auto_assignment_sequential():
    w = World()
    emit_via_contract(w, value=b"first")
    emit_via_contract(w, value=b"second")
    items = w.chains["beta"].state_items("kv.inbox.alpha.")
    nonces = sorted(int(k.rsplit(".", 1)[1]) for k, _, _ in items)
    assert nonces == [nonces[0], nonces[0] + 1]


def published_batch(world: World, event: Event) -> bytes:
    """The wire bytes of the one batch the brokers queued for `event`."""
    (raw,) = {
        raw
        for broker in world.sim.brokers
        for _, raw in broker.history
        if decode_record(raw, SignedEventBatch).event == event
    }
    return raw


def test_gateway_batches_at_f_plus_1(monkeypatch):
    w = World()
    gw = w.sim.gateways["alpha"]
    chain = w.chains["alpha"]
    e = sample_event()
    sigs = dict(chain.node_signatures(e.digest))
    assert len(sigs) == 4
    verified = []
    real = w.sim.registry.verify

    def counting(chain_id, node_id, message, sig):
        verified.append(node_id)
        return real(chain_id, node_id, message, sig)

    monkeypatch.setattr(w.sim.registry, "verify", counting)
    batch = gw.collect(e, sigs)
    # the first f+1 signatures in node-id order, and no more are verified
    nodes = sorted(sigs)
    assert batch.event is e
    assert batch.signatures == tuple((n, sigs[n]) for n in nodes[:2])
    assert verified == nodes[:2]
    # f valid signatures form no batch
    assert gw.collect(e, {nodes[3]: sigs[nodes[3]]}) is None


def test_gateway_ignores_invalid_signature():
    w = World()
    gw = w.sim.gateways["alpha"]
    chain = w.chains["alpha"]
    e = sample_event()
    nodes = chain.cfg.node_ids()
    assert gw.collect(e, {nodes[0]: b"garbage"}) is None
    assert gw.invalid_signatures == 1
    # a garbage signature is skipped: the next valid one completes the batch
    sigs = dict(chain.node_signatures(e.digest))
    sigs[nodes[0]] = b"garbage"
    batch = gw.collect(e, sigs)
    assert batch.signatures == tuple((n, sigs[n]) for n in nodes[1:3])
    assert gw.invalid_signatures == 2
    # with only f valid signatures left, none is batched
    assert gw.collect(e, {nodes[0]: b"garbage", nodes[1]: sigs[nodes[1]]}) is None


def test_honest_emission_forwards_all_node_signatures():
    w = World()
    chain = w.chains["alpha"]
    e = sample_event(nonce=555)
    # all 4 honest nodes sign; the published batch carries exactly f+1
    assert len(chain.node_signatures(e.digest)) == 4
    w.sim.emit_event(chain, e)
    batch = decode_record(published_batch(w, e), SignedEventBatch)
    assert len(batch.signatures) == chain.cfg.f + 1


def test_silent_node_reduces_signatures():
    w = World()
    chain = w.chains["alpha"]
    silent = chain.cfg.node_ids()[0]
    chain.byzantine[silent] = Behavior.SILENT
    e = sample_event(nonce=556)
    assert len(chain.node_signatures(e.digest)) == 3  # the silent node stays quiet
    w.sim.emit_event(chain, e)
    batch = decode_record(published_batch(w, e), SignedEventBatch)
    assert silent not in dict(batch.signatures)
    emit_via_contract(w, value=b"quiet")
    # batches still form from the remaining nodes; delivery succeeds
    items = [
        entry for entry in w.chains["beta"].state_items("kv.inbox.")
        if entry[1] == b"quiet"
    ]
    assert len(items) == 1


def test_forged_event_sweep_single_forger_never_delivered():
    # adversary sweep: any single Byzantine signer (f=1) cannot forge
    for forger_idx in range(4):
        w = World(seed=forger_idx)
        chain = w.chains["alpha"]
        node = chain.cfg.node_ids()[forger_idx]
        forged = sample_event(nonce=999_000 + forger_idx, payload=b"forged")
        w.sim.emit_event(chain, forged, forged_by=[node])
        w.settle()
        assert w.chains["beta"].state_items("kv.inbox.") == []


def test_f_plus_1_colluders_cross_the_boundary():
    w = World()
    chain = w.chains["alpha"]
    nodes = chain.cfg.node_ids()[:2]  # f+1 = 2 colluding signers
    forged = sample_event(nonce=999_999, payload=b"forged")
    w.sim.emit_event(chain, forged, forged_by=nodes)
    w.settle()
    items = w.chains["beta"].state_items("kv.inbox.")
    assert len(items) == 1  # threshold exceeded: delivery occurs


def test_redundant_brokers_beat_a_dropping_broker():
    w = World(n_brokers=0)
    w.sim.add_broker(Broker("bad", BrokerFaults(drop_rate=1.0)))
    w.sim.add_broker(Broker("good", BrokerFaults()))
    emit_via_contract(w, value=b"via-good")
    items = w.chains["beta"].state_items("kv.inbox.")
    assert len(items) == 1


def test_duplicate_and_replay_are_deduplicated():
    w = World(duplicate=1.0, replay=0.5, seed=3)
    emit_via_contract(w, value=b"once")
    emit_via_contract(w, value=b"twice")
    items = w.chains["beta"].state_items("kv.inbox.alpha.")
    # every (source, nonce) delivered exactly once despite duplicates/replays
    assert len(items) == 2
    assert w.sim.meter.rejected_dup > 0


def test_tampering_broker_rejected():
    w = World(n_brokers=0)
    w.sim.add_broker(Broker("forger", BrokerFaults(forge=True)))
    emit_via_contract(w, value=b"original")
    items = w.chains["beta"].state_items("kv.inbox.")
    assert len(items) == 1
    assert items[0][1] == b"original"
    assert w.sim.meter.rejected_sig > 0


def test_batch_with_f_signatures_dropped():
    w = World()
    chain = w.chains["alpha"]
    e = sample_event(nonce=424242)
    nodes = chain.cfg.node_ids()
    sig = chain.scheme.sign(chain.keys[nodes[0]].signing_key, e.digest)
    underweight = SignedEventBatch(event=e, signatures=((nodes[0], sig),))
    assert verify_batch(underweight.encode(), w.sim.registry) is None
    # f+1 distinct valid signatures pass
    sig1 = chain.scheme.sign(chain.keys[nodes[1]].signing_key, e.digest)
    ok = SignedEventBatch(event=e, signatures=((nodes[0], sig), (nodes[1], sig1)))
    assert verify_batch(ok.encode(), w.sim.registry) is not None
    # duplicated node ids do not count twice
    dup = SignedEventBatch(event=e, signatures=((nodes[0], sig), (nodes[0], sig)))
    assert verify_batch(dup.encode(), w.sim.registry) is None


def test_eventual_delivery_within_retry_bound():
    cfgs = [(0.3, 11), (0.5, 12)]
    for drop, seed in cfgs:
        w = World(drop=drop, seed=seed)
        emit_tick = w.sim.tick
        emit_via_contract(w, value=b"bounded")
        items = w.chains["beta"].state_items("kv.inbox.")
        assert len(items) == 1
        cfg = w.sim.config
        bound = BUS_RETRIES * BUS_BACKOFF + BROKER_LATENCY + cfg.latency_jitter + 4
        assert w.sim.tick <= emit_tick + bound + 4


def test_broker_restart_replay():
    w = World(n_brokers=0)
    broker = w.sim.add_broker(Broker("fb"))
    emit_via_contract(w, value=b"logged")
    before = w.chains["beta"].state_items("kv.inbox.")
    assert len(before) == 1
    # restart the broker from its history and force re-delivery: the
    # consumer's dedupe keeps the accepted set unchanged (connectionless
    # contract)
    broker.restart(w.sim.tick)
    w.sim.run_until_quiescent(w.sim.tick + 200)
    after = w.chains["beta"].state_items("kv.inbox.")
    assert after == before
    assert w.sim.meter.rejected_dup >= 1


def test_batch_given_up_after_the_last_round_is_logged():
    w = World(n_brokers=0, seed=4)
    w.sim.add_broker(Broker("b0", BrokerFaults(drop_rate=0.5)))
    for i in range(6):
        emit_via_contract(w, value=bytes([i]))
    records = w.sim.log.records
    delivered = [r["nonce"] for r in records if r["kind"] == "deliver" and r["result"] == "accepted"]
    assert delivered == [1, 2, 3, 4, 5]
    giveups = [r for r in records if r["kind"] == "giveup"]
    # the only batch whose 1 + BUS_RETRIES publish rounds all went unacknowledged
    assert giveups == [
        {
            "kind": "giveup",
            "tick": giveups[0]["tick"],
            "source_chain": "alpha",
            "nonce": 0,
            "dest_chain": "beta",
            "stage": "publish",
            "brokers": ["b0"],
        }
    ]
    assert giveups[0]["tick"] >= BUS_RETRIES * BUS_BACKOFF


def test_event_without_a_signature_quorum_is_logged_when_dropped():
    w = World()
    e = sample_event(nonce=99)
    emitted_at = w.sim.tick
    # one signature, f + 1 = 2 needed: the gateway never forms a batch
    w.sim.emit_event(w.chains["alpha"], e, forged_by=["alpha:node0"])
    assert w.sim.quiescent()  # nothing is left to retry
    assert w.sim.meter.sent == 0
    giveups = [r for r in w.sim.log.records if r["kind"] == "giveup"]
    assert giveups == [
        {
            "kind": "giveup",
            "tick": emitted_at,
            "source_chain": "alpha",
            "nonce": 99,
            "dest_chain": "beta",
            "stage": "gateway",
            "brokers": [],
        }
    ]


def test_fault_free_run_gives_nothing_up():
    w = World()
    for i in range(3):
        emit_via_contract(w, value=bytes([i]))
    assert w.sim.meter.delivered == 3
    assert not any(r["kind"] == "giveup" for r in w.sim.log.records)


def count_verifies(monkeypatch) -> list[bytes]:
    """Record every raw batch _deliver hands to verify_batch."""
    calls: list[bytes] = []
    real = interopsim.sim.verify_batch

    def counting(raw, registry):
        calls.append(raw)
        return real(raw, registry)

    monkeypatch.setattr(interopsim.sim, "verify_batch", counting)
    return calls


def test_redundant_copies_verified_once_per_inbox(monkeypatch):
    w = World(duplicate=1.0, replay=0.5, seed=3)
    calls = count_verifies(monkeypatch)
    pulled: list[tuple[str, bytes]] = []
    for broker in w.sim.brokers:
        def pull(topic, now, _pull=broker.pull):
            due = _pull(topic, now)
            pulled.extend((topic, raw) for raw in due)
            return due

        broker.pull = pull
    emit_via_contract(w, value=b"once")
    emit_via_contract(w, value=b"twice")
    meter = w.sim.meter
    assert meter.delivered == 2
    assert meter.rejected_sig == 0
    assert meter.rejected_dup == len(pulled) - 2 == 8  # the same as full verification gives
    # every event here goes to beta, so one inbox sees every copy
    assert {topic for topic, _ in pulled} == {"beta"}
    # the gateway's batch is handed over; no honest copy is decoded
    assert calls == []
    verified = w.sim.dedupe["beta"].verified
    assert set(verified) == {raw for _, raw in pulled}
    assert sorted(verified.values()) == sorted(w.sim.dedupe["beta"].seen)


def test_tampered_copy_of_accepted_event_still_rejected_sig(monkeypatch):
    w = World(n_brokers=0)
    w.sim.add_broker(Broker("forger", BrokerFaults(forge=True)))
    calls = count_verifies(monkeypatch)
    emit_via_contract(w, value=b"original")
    meter = w.sim.meter
    # every publish queues the batch and a tampered copy, in that order
    assert meter.delivered == 1
    assert meter.rejected_sig == meter.sent
    assert meter.rejected_dup == meter.sent - 1
    assert len(calls) == meter.sent  # each tampered copy; the batch is handed over
    assert len(w.sim.dedupe["beta"].verified) == 1


def test_recovered_broker_copies_need_no_verification(monkeypatch):
    w = World(n_brokers=0)
    broker = w.sim.add_broker(Broker("fb"))
    emit_via_contract(w, value=b"logged")
    dup_before = w.sim.meter.rejected_dup
    # stand-in for bytes reloaded from durable storage: equal, fresh objects
    broker.history = [(topic, bytes(bytearray(raw))) for topic, raw in broker.history]
    broker.restart(w.sim.tick)
    copies = [raw for queue in broker.queues.values() for _, raw in queue]
    known = w.sim.dedupe["beta"].verified
    assert copies and all(raw in known for raw in copies)
    assert not any(raw is k for raw in copies for k in known)  # equal, not identical
    calls = count_verifies(monkeypatch)
    w.sim.run_until_quiescent(w.sim.tick + 200)
    assert calls == []
    assert w.sim.meter.rejected_dup == dup_before + len(copies)
    assert len(w.chains["beta"].state_items("kv.inbox.")) == 1


def test_a_valid_copy_under_new_bytes_is_delivered_at_most_once():
    # the signatures reversed: the batch still verifies, but these bytes never
    # passed the inbox, so only its (source, nonce) record stops the copy
    w = World(n_brokers=0)
    broker = w.sim.add_broker(Broker("b0"))
    emit_via_contract(w, value=b"once")
    (raw,) = {raw for _, raw in broker.history}
    batch = decode_record(raw, SignedEventBatch)
    copy = SignedEventBatch(batch.event, batch.signatures[::-1]).encode()
    assert copy != raw and verify_batch(copy, w.sim.registry) is not None
    assert copy not in w.sim.dedupe["beta"].verified
    dup_before = w.sim.meter.rejected_dup
    broker._enqueue("beta", w.sim.tick, copy)
    w.settle()
    assert w.sim.meter.rejected_dup == dup_before + 1
    last = [r for r in w.sim.log.records if r["kind"] == "deliver"][-1]
    assert (last["result"], last["source_chain"], last["nonce"]) == ("duplicate", "alpha", batch.event.nonce)
    assert len(w.chains["beta"].state_items("kv.inbox.")) == 1


def test_misrouted_batch_never_enters_the_map(monkeypatch):
    w = World(n_brokers=0)
    broker = w.sim.add_broker(Broker("b0"))
    e = sample_event(nonce=31337)
    w.sim.emit_event(w.chains["alpha"], e)
    raw = published_batch(w, e)
    w.settle()
    calls = count_verifies(monkeypatch)
    for _ in range(2):
        broker._enqueue("alpha", w.sim.tick, raw)  # a beta batch on alpha's topic
        w.sim.step()
    assert calls == [raw, raw]  # verified, and refused, each time
    assert raw not in w.sim.dedupe["alpha"].verified
    misrouted = [r for r in w.sim.log.records if r.get("result") == "misrouted"]
    assert len(misrouted) == 2


def test_meter_fault_counts_sum_the_brokers():
    noisy = World(duplicate=1.0, replay=0.5, seed=3)
    lossy = World(drop=0.5, seed=11)
    emit_via_contract(noisy, value=b"first")  # one event's replay draws all miss
    for w in (noisy, lossy):
        emit_via_contract(w, value=b"once")
        meter, snap = w.sim.meter, w.sim.meter.snapshot()
        for name in ("dropped", "duplicated", "replayed"):
            total = sum(broker.metrics[name] for broker in w.sim.brokers)
            assert getattr(meter, name) == snap[name] == total
    assert noisy.sim.meter.duplicated > 0 and noisy.sim.meter.replayed > 0
    assert lossy.sim.meter.dropped > 0


def test_signed_batch_encoded_once():
    w = World(duplicate=1.0, replay=0.5, seed=3)
    e = sample_event(nonce=555)
    w.sim.emit_event(w.chains["alpha"], e)
    w.settle()
    wire = published_batch(w, e)
    copies = [raw for broker in w.sim.brokers for _, raw in broker.history if raw == wire]
    assert len(copies) > 1  # the first publish, on both brokers
    assert all(raw is wire for raw in copies)
    assert decode_record(wire, SignedEventBatch).encode() == wire


# ------------------------------------------------------- acknowledgements


def test_ack_round_trip_beats_the_first_retransmit():
    # a broker's ack counts as in before the next round: the model needs it
    assert 2 * BROKER_LATENCY < BUS_BACKOFF


def test_fault_free_batch_published_once():
    w = World()
    chain = w.chains["alpha"]
    contract = chain.contracts["kv"]
    contract.handlers = dict(contract.handlers)
    contract.handlers["emit"] = lambda self, ctx, args: ctx.emit("beta", "kv", 16, b"once")
    chain.submit_call("alice", "kv", "emit", [])
    while not w.chains["beta"].state_items("kv.inbox."):
        w.sim.step()
    assert not w.sim._timers  # no bus retransmit is armed
    w.settle()
    batches = len({raw for broker in w.sim.brokers for _, raw in broker.history})
    assert batches == 1
    assert w.sim.meter.sent == batches
    assert [b.metrics["published"] for b in w.sim.brokers] == [1, 1]
    assert w.sim.meter.rejected_dup == 1  # the other broker's copy


def test_retransmits_go_only_to_the_unacknowledging_broker():
    w = World(n_brokers=0)
    bad = w.sim.add_broker(Broker("bad", BrokerFaults(drop_rate=1.0)))
    good = w.sim.add_broker(Broker("good", BrokerFaults()))
    emit_via_contract(w, value=b"via-good")
    assert good.metrics["published"] == 1
    assert bad.metrics["published"] == bad.metrics["dropped"] == 1 + BUS_RETRIES
    assert w.sim.meter.sent == 1 + BUS_RETRIES
    assert w.sim.meter.delivered == 1
    assert w.sim.meter.rejected_dup == 0
    assert len(w.chains["beta"].state_items("kv.inbox.")) == 1


def test_lost_acks_keep_delivery_at_most_once():
    w = World(n_brokers=0, seed=4)
    broker = w.sim.add_broker(Broker("lossy", BrokerFaults(drop_rate=0.5)))
    events = 6
    for i in range(events):
        emit_via_contract(w, value=b"lost-ack-%d" % i)
    queued = broker.metrics["published"] - broker.metrics["dropped"]
    assert queued > events  # some queued batch's ack was lost and it went again
    items = w.chains["beta"].state_items("kv.inbox.alpha.")
    assert len(items) == len({key for key, _, _ in items}) == w.sim.meter.delivered
    assert w.sim.meter.delivered <= events
    assert w.sim.meter.rejected_dup == queued - w.sim.meter.delivered


# ------------------------------------------------------- delivery, once


def count_event_codec(monkeypatch) -> tuple[list, list]:
    """Record every Event the record codec decodes, alone or in its batch,
    and every one it encodes.

    Wraps the codec's names in each simulator module that imports them;
    values.py's own names stay, so a nested call is not counted twice."""
    decoded, encoded = [], []

    def decoding(real, returns_end):
        def wrapper(data, shape, offset=0):
            out = real(data, shape, offset)
            record = out[0] if returns_end else out
            if shape is Event:
                decoded.append(record)
            elif shape is SignedEventBatch:
                decoded.append(record.event)
            return out

        return wrapper

    def encoding(real):
        def wrapper(record):
            if isinstance(record, Event):
                encoded.append(record)
            return real(record)

        return wrapper

    wrappers = {
        "decode_record": lambda real: decoding(real, False),
        "read_record": lambda real: decoding(real, True),
        "encode_record": encoding,
    }
    for name, module in list(sys.modules.items()):
        if not name.startswith("interopsim.") or name == "interopsim.values":
            continue
        for attr, wrap in wrappers.items():
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, wrap(getattr(module, attr)))
    return decoded, encoded


def test_each_delivered_event_decoded_once_and_never_reencoded(monkeypatch):
    w = World()
    decoded, encoded = count_event_codec(monkeypatch)
    delivered = w.sim.meter.delivered
    mt = MiniTxn(compares=(), reads=(), writes=(("alpha", "kv.x", 1), ("beta", "kv.y", 2)))
    assert isinstance(w.engine.execute_minitxn("alpha", mt), Committed)
    w.settle()
    delivered = w.sim.meter.delivered - delivered
    assert delivered > 0
    # the destination gets the gateway's batch: nothing is decoded
    assert decoded == []
    # each event is encoded once, where it is emitted
    assert len(encoded) == delivered == len({id(e) for e in encoded})


def test_decoded_event_keeps_its_canonical_bytes():
    w = World()
    e = sample_event(nonce=4242, payload=b"kept")
    w.sim.emit_event(w.chains["alpha"], e)
    raw = published_batch(w, e)
    batch = verify_batch(raw, w.sim.registry)
    decoded = batch.event
    assert decoded == e
    assert decoded.encode() == encode_record(decoded) == e.encode()
    assert decoded.encode() in raw
    assert decoded.digest == digest(encode_record(decoded))
    assert batch.encode() == raw


def test_inbox_maps_are_empty_once_settled():
    w = World(duplicate=1.0, replay=0.5, seed=3)
    emit_via_contract(w, value=b"one")
    mt = MiniTxn(compares=(), reads=(), writes=(("beta", "kv.x", 1),))
    assert isinstance(w.engine.execute_minitxn("alpha", mt), Committed)
    w.settle()
    assert w.sim.meter.delivered > 1
    assert all(chain._inbox == {} for chain in w.chains.values())


def test_inbox_event_survives_a_lost_block():
    w = World()
    beta = w.chains["beta"]
    w.sim.emit_event(w.chains["alpha"], sample_event(nonce=77, payload=b"again"))
    for _ in range(20):  # step until the event is delivered to beta
        if beta._inbox:
            break
        w.sim.step()
    (txid,) = beta._inbox
    nodes = beta.cfg.node_ids()[:2]
    beta.byzantine.update({node: Behavior.SILENT for node in nodes})
    failures = w.sim.meter.quorum_failures
    w.sim.step()  # the block holding the inbox transaction rolls back
    assert w.sim.meter.quorum_failures == failures + 1
    assert list(beta._inbox) == [txid]
    for node in nodes:
        del beta.byzantine[node]
    w.settle()
    receipts = [
        receipt
        for block in beta.blocks
        for txn, receipt in zip(block.txns, block.receipts)
        if txn.txn_id == txid
    ]
    assert [r.status for r in receipts] == ["ok"]
    assert w.kv("beta", "inbox.alpha.77") == b"again"
    assert beta._inbox == {}
