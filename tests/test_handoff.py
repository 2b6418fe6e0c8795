"""The gateway's verified batch, handed to its destination, changes no output.

Simulation.handoff maps the wire bytes of each batch a gateway formed to the
batch itself; _deliver takes it from there instead of decoding and verifying
the bytes.  These tests run each workload twice, once with a table that never
holds an entry, so every copy goes through verify_batch, and compare."""

import pytest

import interopsim.sim
from interopsim.bus import Broker, BrokerFaults, Event, verify_batch
from interopsim.chain import Behavior
from interopsim.sim import Simulation
from interopsim.txn import MODE_LOCKS, MODE_OCC, Committed, MiniTxn

from harness import World, mk_auction_world


class NeverHolds(dict):
    """A handoff table that keeps nothing."""

    def __setitem__(self, raw, batch):
        pass


class Recording(dict):
    """A handoff table that also keeps every (raw, batch) ever added."""

    def __init__(self):
        super().__init__()
        self.added = []

    def __setitem__(self, raw, batch):
        self.added.append((raw, batch))
        super().__setitem__(raw, batch)


def use_table(monkeypatch, table_type) -> list:
    """Give every Simulation built from here on a fresh `table_type` handoff;
    returns the list of those tables."""
    tables = []
    init = Simulation.__init__

    def init_with_table(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.handoff = table_type()
        tables.append(self.handoff)

    monkeypatch.setattr(Simulation, "__init__", init_with_table)
    return tables


def count_verifies(monkeypatch) -> list[bytes]:
    calls: list[bytes] = []
    real = interopsim.sim.verify_batch

    def counting(raw, registry):
        calls.append(raw)
        return real(raw, registry)

    monkeypatch.setattr(interopsim.sim, "verify_batch", counting)
    return calls


def outputs(sim):
    return sim.log.records, sim.meter.snapshot(), sim.final_state_roots()


def run_mini(scheme="hmac"):
    w = World(scheme=scheme)
    for i in range(3):
        mt = MiniTxn(compares=(), reads=(), writes=(("alpha", "kv.x", i), ("beta", "kv.y", i)))
        assert isinstance(w.engine.execute_minitxn("alpha", mt), Committed)
    w.settle()
    return w.sim


def run_general(mode, seed):
    w = World(drop=0.2, duplicate=0.3, replay=0.3, seed=seed)
    w.set_kv("beta", "x", 5)
    for i in range(3):
        t = w.engine.begin_general("alpha", mode)
        value = w.engine.txn_read(t, "beta", "kv.x")
        w.engine.txn_write(t, "beta", "kv.x", value + i)
        w.engine.txn_write(t, "alpha", "kv.y", i)
        w.engine.txn_commit(t)
    w.settle()
    return w.sim


def run_auction(behavior, seed=3):
    byz = {"coinb": {"coinb:node1": behavior}, "tickets": {"tickets:node3": behavior}}
    sim, engine, app = mk_auction_world(seed=seed, duplicate=0.2, replay=0.2, byz=byz)
    receipt, _ = app.start_auction("alice", "t1", "a1", 200)
    assert receipt.status == "ok"
    app.submit_bid("coinb", "bob", "a1", 100)
    app.submit_bid("coinc", "carol", "a1", 40)
    assert app.conclude_auction("a1", MODE_OCC, retries=5).status == "concluded"
    sim.run_until_quiescent()
    return sim


WORKLOADS = {
    "mini": run_mini,
    "mini_ed25519": lambda: run_mini("ed25519"),
    "general_occ": lambda: run_general(MODE_OCC, seed=5),
    "general_locks": lambda: run_general(MODE_LOCKS, seed=6),
    "auction_silent": lambda: run_auction(Behavior.SILENT),
    "auction_equivocate": lambda: run_auction(Behavior.EQUIVOCATE),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_full_verification_gives_the_same_log_and_metrics(monkeypatch, name):
    run = WORKLOADS[name]
    calls = count_verifies(monkeypatch)
    handed = outputs(run())
    handed_calls = len(calls)
    use_table(monkeypatch, NeverHolds)
    verified = outputs(run())
    assert len(calls) > 2 * handed_calls  # the second run decoded every copy
    assert verified == handed


@pytest.mark.parametrize("name", ["mini", "general_locks", "auction_equivocate"])
def test_every_handed_batch_is_what_verify_batch_gives(monkeypatch, name):
    tables = use_table(monkeypatch, Recording)
    sim = WORKLOADS[name]()
    (table,) = tables
    assert table.added
    for raw, batch in table.added:
        assert raw == batch.encode()
        assert verify_batch(raw, sim.registry) == batch


def hand_built(**fields):
    base = dict(
        source_chain="alpha", dest_chain="beta", source_contract="kv", dest_contract="kv",
        nonce=900, kind=16, payload=b"p",
    )
    return Event(**{**base, **fields})


@pytest.mark.parametrize(
    "event",
    [hand_built(nonce=True), hand_built(version=2), hand_built(payload="a str payload")],
    ids=["bool_nonce", "version_2", "str_payload"],
)
def test_batch_that_would_not_decode_unchanged_is_never_handed_over(event):
    w = World()
    w.sim.emit_event(w.chains["alpha"], event)
    assert w.sim.handoff == {}
    w.settle()
    meter = w.sim.meter
    assert meter.sent == 1 and meter.delivered == 0
    assert meter.rejected_sig == len(w.sim.brokers) == 2
    results = [r["result"] for r in w.sim.log.records if r["kind"] == "deliver"]
    assert results == ["rejected_sig", "rejected_sig"]


def test_event_emitted_through_another_chains_gateway_is_never_handed_over():
    # verify_batch checks the signatures against the event's source chain;
    # the gateway checked them against its own
    w = World(chain_ids=("alpha", "beta", "gamma"))
    w.sim.emit_event(w.chains["gamma"], hand_built())
    assert w.sim.handoff == {}
    w.settle()
    assert w.sim.meter.rejected_sig == 2 and w.sim.meter.delivered == 0


@pytest.mark.parametrize("faults", [{}, {"duplicate": 1.0, "replay": 0.5, "seed": 3}])
def test_handoff_is_empty_once_settled(faults):
    w = World(**faults)
    mt = MiniTxn(compares=(), reads=(), writes=(("alpha", "kv.x", 1), ("beta", "kv.y", 2)))
    assert isinstance(w.engine.execute_minitxn("alpha", mt), Committed)
    t = w.engine.begin_general("alpha", MODE_OCC)
    w.engine.txn_write(t, "beta", "kv.z", 3)
    assert isinstance(w.engine.txn_commit(t), Committed)
    w.settle()
    assert w.sim.meter.delivered > 0
    assert w.sim.handoff == {}


def test_batch_given_up_leaves_the_handoff():
    w = World(n_brokers=0)
    w.sim.add_broker(Broker("lossy", BrokerFaults(drop_rate=1.0)))
    w.sim.emit_event(w.chains["alpha"], hand_built())
    assert len(w.sim.handoff) == 1
    w.settle()
    assert [r["stage"] for r in w.sim.log.records if r["kind"] == "giveup"] == ["publish"]
    assert w.sim.handoff == {}


def test_misrouted_copy_leaves_the_entry_for_its_destination(monkeypatch):
    w = World(n_brokers=0)
    broker = w.sim.add_broker(Broker("b0"))
    calls = count_verifies(monkeypatch)
    w.sim.emit_event(w.chains["alpha"], hand_built(nonce=31337))
    (raw,) = w.sim.handoff
    broker._enqueue("alpha", w.sim.tick, raw)  # the beta batch on alpha's topic too
    w.sim.step()
    assert [r["result"] for r in w.sim.log.records if r["kind"] == "deliver"] == ["misrouted"]
    assert raw in w.sim.handoff
    w.settle()
    assert w.sim.meter.delivered == 1 and w.sim.handoff == {}
    assert calls == []
