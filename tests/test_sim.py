"""Simulation kernel: timers, tasks, and the direct channel."""

import gc
import itertools

import pytest

import interopsim.sim as sim_module
from interopsim.errors import MaxTicksExceeded
from interopsim.fixtures import scenario_path
from interopsim.scenario import Scenario, load_scenario, run_scenario
from interopsim.sim import Future, SimConfig, Simulation
from interopsim.txn import MiniTxn

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
    (fast, ref), _ = both_loops(monkeypatch, lambda: mini_series(max_ticks=3))
    assert fast[0] == ["future pending at tick 4"]
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
