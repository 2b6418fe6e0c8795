"""Simulation kernel: timers, tasks, and the direct channel."""

import gc
import itertools

import pytest

import interopsim.sim as sim_module
from interopsim.chain import Chain
from interopsim.errors import MaxTicksExceeded, QuorumFailure
from interopsim.fixtures import scenario_path
from interopsim.scenario import Scenario, load_scenario, run_scenario
from interopsim.sim import Future, SimConfig, Simulation
from interopsim.txn import Committed, MiniTxn

from harness import World


def test_timers_fire_in_due_then_insertion_order():
    sim = Simulation(SimConfig(seed=1))
    out = []
    sim.call_at(3, lambda: out.append("c"))
    sim.call_at(1, lambda: out.append("a"))
    sim.call_at(1, lambda: out.append("b"))
    for _ in range(5):
        sim.step()
    assert out == ["a", "b", "c"]


def test_sleep_and_tasks():
    sim = Simulation(SimConfig(seed=1))

    def agent():
        yield sim.sleep(2)
        yield sim.sleep(3)
        return "done"

    task = sim.spawn(agent())
    result = sim.pump(task.future)
    assert result == "done"
    assert sim.tick >= 5


def test_task_exception_propagates_through_pump():
    sim = Simulation(SimConfig(seed=1))

    def boom():
        yield sim.sleep(1)
        raise RuntimeError("kaput")

    task = sim.spawn(boom())
    with pytest.raises(RuntimeError, match="kaput"):
        sim.pump(task.future)


def test_an_error_thrown_from_task_to_task_leaves_no_cycle(collector_off):
    # the error a task raises is stored in its future and thrown into the
    # task awaiting that future; no task's step frame, in the error's
    # traceback, leads back to the error
    sim = Simulation(SimConfig(seed=1))

    def boom():
        yield sim.sleep(1)
        raise RuntimeError("kaput")

    def waiter():
        try:
            yield sim.spawn(boom()).future
        except RuntimeError as exc:
            return str(exc)

    assert sim.pump(sim.spawn(waiter()).future) == "kaput"
    assert gc.collect() == 0


def test_pump_respects_max_ticks():
    sim = Simulation(SimConfig(seed=1))
    never = Future()
    with pytest.raises(MaxTicksExceeded):
        sim.pump(never, max_ticks=10)


def test_quiescent_when_idle():
    sim = Simulation(SimConfig(seed=1))
    assert sim.quiescent()
    sim.call_later(5, lambda: None)
    assert not sim.quiescent()
    sim.run_until_quiescent(100)
    assert sim.quiescent()


def test_rng_draws_are_seed_deterministic():
    def draws(seed):
        sim = Simulation(SimConfig(seed=seed))
        return [sim.rng.random() for _ in range(10)]

    assert draws(7) == draws(7)
    assert draws(7) != draws(8)


def test_direct_channel_roundtrip_and_retries():
    sim = Simulation(SimConfig(seed=3, direct_drop_rate=0.4))
    sim.direct_handlers["svc"] = lambda payload, tick: payload + b"!"
    for i in range(20):
        fut = sim.direct_request("svc", f"m{i}".encode())
        assert sim.pump(fut) == f"m{i}".encode() + b"!"


def test_resolved_direct_read_leaves_no_retry_timer():
    w = World()
    t = w.engine.begin_general("alpha", "occ")
    assert w.engine.txn_read(t, "alpha", "kv.x") is None
    assert w.sim.quiescent()


def test_dropped_response_is_still_retried(monkeypatch):
    monkeypatch.setattr(sim_module, "DIRECT_TIMEOUT", 4)
    sim = Simulation(SimConfig(seed=3))
    served = []
    sim.direct_handlers["svc"] = lambda payload, tick: served.append(tick) or payload + b"!"
    fates = iter([False, True])  # leg fates: the first request arrives, its response is lost
    sim._direct_dropped = lambda: next(fates, False)
    fut = sim.direct_request("svc", b"m")
    assert sim.pump(fut) == b"m!"
    assert served == [1, 5]  # the retry went out at tick 4, the first attempt's timeout
    assert sim.quiescent()


def test_direct_channel_gives_up_after_retry_budget(monkeypatch):
    monkeypatch.setattr(sim_module, "DIRECT_TIMEOUT", 2)
    sim = Simulation(SimConfig(seed=3, direct_drop_rate=1.0))
    sim.direct_handlers["svc"] = lambda payload, tick: payload
    fut = sim.direct_request("svc", b"m")
    assert sim.pump(fut, max_ticks=2000) is None


@pytest.mark.parametrize(
    "fates,answer",
    [
        ((), b"m!"),  # answered at once
        ((False, True), b"m!"),  # the first response is lost; the retry is answered
        (itertools.repeat(True), None),  # every request is lost: DIRECT_RETRIES used up
    ],
    ids=["at_once", "after_a_retry", "out_of_retries"],
)
def test_a_finished_exchange_leaves_no_cycle(monkeypatch, collector_off, fates, answer):
    # a finished exchange is freed by reference counting: no timer closure
    # stays reachable from it after it resolves or gives up
    monkeypatch.setattr(sim_module, "DIRECT_TIMEOUT", 4)
    sim = Simulation(SimConfig(seed=3))
    sim.direct_handlers["svc"] = lambda payload, tick: payload + b"!"
    fates = iter(fates)
    sim._direct_dropped = lambda: next(fates, False)
    fut = sim.direct_request("svc", b"m")
    assert sim.pump(fut, max_ticks=2000) == answer
    assert sim.quiescent()
    del fut
    assert gc.collect() == 0


# ------------------------------------------- idle ticks skipped, not changed


def both_loops(monkeypatch, run):
    """run() under the idle-skipping run loops, then stepping once per tick.

    Returns both results and the number of step() calls each made.
    """
    results, steps = [], []
    real_step = Simulation.step
    for jump in (True, False):
        calls = [0]

        def counted(sim, calls=calls):
            calls[0] += 1
            real_step(sim)

        with monkeypatch.context() as m:
            m.setattr(Simulation, "step", counted)
            if not jump:
                m.setattr(Simulation, "_idle_until", lambda sim, limit: None)
            results.append(run())
        steps.append(calls[0])
    return results, steps


def demo_auction(max_ticks=None):
    raw = load_scenario(str(scenario_path("auction")))
    raw.update(seed=2, mode="locks")
    for spec in raw["broker"].values():
        spec["drop_rate"] = 0.1
    if max_ticks is not None:
        raw["max_ticks"] = max_ticks
    metrics, log = run_scenario(Scenario.from_dict(raw))
    return metrics.status, metrics.ticks, log.lines()


def test_idle_jump_leaves_the_demo_auction_log_unchanged(monkeypatch):
    (fast, ref), (fast_steps, ref_steps) = both_loops(monkeypatch, demo_auction)
    assert fast[0] == "ok"
    assert fast == ref
    assert fast_steps < ref_steps


def mini_series(drop=0.0, max_ticks=None):
    w = World(seed=5, drop=drop)
    outcomes = []
    try:
        for i in range(6):
            mt = MiniTxn(
                compares=(),
                reads=(("alpha", "kv.a"),),
                writes=(("alpha", f"kv.k{i}", i), ("beta", f"kv.k{i}", i)),
            )
            fut = w.engine.execute_minitxn_async("alpha", mt)
            outcomes.append(type(w.sim.pump(fut, max_ticks)).__name__)
            w.settle()
    except MaxTicksExceeded as exc:
        outcomes.append(str(exc))
    return outcomes, w.sim.tick, w.sim.log.lines()


@pytest.mark.parametrize("drop", [0.0, 0.3])
def test_idle_jump_leaves_a_mini_series_unchanged(monkeypatch, drop):
    (fast, ref), (fast_steps, ref_steps) = both_loops(monkeypatch, lambda: mini_series(drop))
    assert fast[0] == ["Committed"] * 6
    assert fast == ref
    assert fast_steps < ref_steps


def test_max_ticks_exceeded_at_the_same_tick(monkeypatch):
    (fast, ref), _ = both_loops(monkeypatch, lambda: demo_auction(max_ticks=30))
    assert fast[:2] == ("max_ticks", 30)
    assert fast == ref
    # the first mini decides 3 ticks after it is submitted: 2 is too few
    (fast, ref), _ = both_loops(monkeypatch, lambda: mini_series(max_ticks=2))
    assert fast[0] == ["future pending at tick 3"]
    assert fast == ref


def test_run_loops_jump_to_their_limit_with_nothing_due():
    sim = Simulation(SimConfig(seed=1))
    sim.call_at(500, lambda: None)
    with pytest.raises(MaxTicksExceeded, match="future pending at tick 10$"):
        sim.pump(Future(), max_ticks=10)
    with pytest.raises(MaxTicksExceeded, match="still active at tick 20$"):
        sim.run_until_quiescent(20)
    assert sim.tick == 20
    sim.run_until_quiescent(1000)
    assert sim.tick == 501


# ------------------------------------------- one bus hop, one modelled latency


def test_a_bus_event_executes_at_its_emit_tick_plus_its_drawn_latency():
    # each chain pulls its inbox before it cuts its block, so an event
    # emitted at tick t runs in its destination's block at t + 1 + jitter
    w = World(seed=3, jitter=2)
    alpha, beta = w.chains["alpha"], w.chains["beta"]
    contract = alpha.contracts["kv"]
    contract.handlers = dict(contract.handlers)
    contract.handlers["emit"] = lambda self, ctx, args: ctx.emit("beta", "kv", 16, b"hop")
    emitted = {}  # nonce -> (emit tick, drawn latency)
    for _ in range(12):
        alpha.submit_call("alice", "kv", "emit", [])
        nonce, tick = alpha.event_nonce, w.sim.tick
        w.sim.step()
        assert alpha.blocks[-1].header.tick == tick
        (due,) = {due for broker in w.sim.brokers for due, _ in broker.queues["beta"]}
        emitted[nonce] = (tick, due - tick)
        w.settle()
    executed = {
        key: block.header.tick
        for block in beta.blocks
        for receipt in block.receipts
        for key, _ in receipt.writes
        if key.startswith("kv.inbox.alpha.")
    }
    assert executed == {f"kv.inbox.alpha.{n}": tick + latency for n, (tick, latency) in emitted.items()}
    assert {latency for _, latency in emitted.values()} == {1, 2, 3}


def test_a_fault_free_mini_decides_three_ticks_after_it_is_submitted():
    # the begin block sends the prepare, the participant's block votes a tick
    # later, and the coordinator's block a tick after that decides; the
    # client hears the decision at the end of that tick
    w = World()
    mt = MiniTxn(compares=(), reads=(("alpha", "kv.a"),), writes=(("alpha", "kv.a", 1), ("beta", "kv.b", 2)))
    submitted = w.sim.tick
    fut = w.engine.execute_minitxn_async("alpha", mt)
    assert isinstance(w.sim.pump(fut), Committed)
    assert w.sim.tick == submitted + 3
    txid = list(w.engine.records)[-1]
    decided = [
        block.header.tick
        for block in w.chains["alpha"].blocks
        for receipt in block.receipts
        if any(key == f"sys.2pc.{txid}.decision" for key, _ in receipt.writes)
    ]
    assert decided == [submitted + 2]


@pytest.mark.parametrize("mode", ["occ", "locks"])
def test_a_delivered_event_waits_in_a_mempool_only_behind_a_lost_block(monkeypatch, mode):
    # delivery comes right before each chain's block, so between two steps a
    # delivered __event__ is still queued only where that block rolled back
    lost = set()  # (chain, tick) of each block lost to QuorumFailure
    real_produce, real_step = Chain.produce_block, Simulation.step

    def produce(chain, tick):
        try:
            return real_produce(chain, tick=tick)
        except QuorumFailure:
            lost.add((chain.chain_id, tick))
            raise

    kept = []

    def step(sim):
        real_step(sim)
        for chain_id, chain in sim.chains.items():
            if any(txn.method == "__event__" for txn in chain.mempool):
                assert (chain_id, sim.tick - 1) in lost
                kept.append(chain_id)

    monkeypatch.setattr(Chain, "produce_block", produce)
    monkeypatch.setattr(Simulation, "step", step)
    # two of four nodes on tickets, then on coinb, go silent for two ticks
    # in four, over the conclude's 2PC
    silence = [
        {"tick": start + offset + lag, "action": "set_byzantine", "chain": chain, "node": node, "behavior": behavior}
        for start in range(25, 45, 4)
        for offset, chain in ((0, "tickets"), (1, "coinb"))
        for lag, behavior in ((0, "silent"), (2, "honest"))
        for node in ("node0", "node1")
    ]
    for seed in range(4):
        raw = load_scenario(str(scenario_path("auction")))
        raw.update(seed=seed, mode=mode, latency_jitter=1)
        raw["script"] = sorted(raw["script"] + silence, key=lambda entry: entry["tick"])
        for spec in raw["broker"].values():
            spec.update(drop_rate=0.2, duplicate_rate=0.1, replay_rate=0.1)
        metrics, _ = run_scenario(Scenario.from_dict(raw))
        assert metrics.status == "ok"
    assert lost, "no block was lost"
    assert kept, "no lost block held a delivered event"
