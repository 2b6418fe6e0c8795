"""Seeded inputs, runners and output checks for the three benchmark workloads.

Each workload turns a seed into plain input data (`make_inputs`) and runs one
pass over those inputs (`run_pass`).  A pass builds fresh worlds, times every
op, and checks the outputs; a check that fails lands in `PassResult.problems`.
The simulator only ever sees the generated inputs: the mini-transactions,
the transfer programs and the scenario dicts.  Worlds are driven the way
`tests/harness.py` and `interopsim.scenario.run_scenario` drive them.
"""

from __future__ import annotations

import copy
import hashlib
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from interopsim.audit import audit_records
from interopsim.bus import Broker, BrokerFaults
from interopsim.chain import ChainConfig, Contract
from interopsim.errors import LockTimeout
from interopsim.fixtures import scenario_path
from interopsim.runlog import RunLog
from interopsim.scenario import Scenario, load_scenario, run_scenario
from interopsim.sim import SimConfig, Simulation
from interopsim.txn import MODE_LOCKS, MODE_OCC, Aborted, Committed, MiniTxn, XTxnEngine

SETTLE_TICKS = 5000


# ------------------------------------------------------------ pass results


@dataclass
class LedgerStats:
    """Deterministic counts read from run logs and message meters."""

    blocks: int = 0
    txns: int = 0
    failed_txns: int = 0
    decision_ticks: list[int] = field(default_factory=list)
    commits: int = 0
    commit_round_trips: int = 0
    aborts: Counter = field(default_factory=Counter)
    messages: Counter = field(default_factory=Counter)


@dataclass
class PassResult:
    op_wall_s: list[float] = field(default_factory=list)
    op_ticks: list[int] = field(default_factory=list)
    op_ok: list[bool] = field(default_factory=list)
    setup_s: float = 0.0
    state_digests: list[str] = field(default_factory=list)
    root_digests: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    ledger: LedgerStats = field(default_factory=LedgerStats)

    def deterministic(self) -> dict:
        """Everything a pass must reproduce exactly, traced or not."""
        return {
            "state_digest": content_hash(self.state_digests),
            "op_ticks": self.op_ticks,
            "op_ok": self.op_ok,
            "ledger": self.ledger,
        }


def content_hash(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def final_state(records: list[dict]) -> dict:
    """Final non-`sys.` state per chain, rebuilt from the logged block writes."""
    state: dict[str, dict] = {}
    for rec in records:
        if rec["kind"] != "block":
            continue
        chain = state.setdefault(rec["chain"], {})
        for txn in rec["txns"]:
            for key, value in txn["writes"]:
                if not key.startswith("sys."):
                    chain[key] = value
    return state


def tally(records: list[dict], meter: dict, stats: LedgerStats) -> None:
    """Add one world's blocks, 2PC decisions and message counts to `stats`."""
    prepared: dict[str, int] = {}
    committed: set[str] = set()
    for rec in records:
        if rec["kind"] == "xtxn" and rec["decision"] == "commit":
            committed.add(rec["txn"])
        if rec["kind"] != "block":
            continue
        stats.blocks += 1
        for txn in rec["txns"]:
            stats.txns += 1
            if txn["status"] != "ok":
                stats.failed_txns += 1
            for key, _ in txn["writes"]:
                if not key.startswith("sys.2pc."):
                    continue
                txid, _, what = key[len("sys.2pc."):].partition(".")
                if what == "phase":
                    prepared.setdefault(txid, rec["tick"])
                elif what == "decision" and txid in prepared:
                    stats.decision_ticks.append(rec["tick"] - prepared[txid])
    stats.commits += len(committed)
    stats.commit_round_trips += sum(meter["round_trips"].get(t, 0) for t in committed)
    for reason, n in meter["aborts"].items():
        stats.aborts[reason.split(":", 1)[0]] += n
    for name, n in meter.items():
        if isinstance(n, int):
            stats.messages[name] += n


def decision_tick(records: list[dict], chain_id: str) -> int | None:
    """Tick of the block on `chain_id` recording the last committed 2PC decision."""
    committed = [r["txn"] for r in records if r["kind"] == "xtxn" and r["decision"] == "commit"]
    wanted = {f"sys.2pc.{txid}.decision" for txid in committed[-1:]}
    tick = None
    for rec in records:
        if rec["kind"] != "block" or rec["chain"] != chain_id:
            continue
        for txn in rec["txns"]:
            if any(key in wanted for key, _ in txn["writes"]):
                tick = rec["tick"]
    return tick


# ------------------------------------------------------------ shared world


class KvContract(Contract):
    contract_id = "kv"

    def _set(self, ctx, args):
        ctx.put(args[0], args[1])

    handlers = {"set": _set}


def settle(sim: Simulation) -> None:
    sim.run_until_quiescent(sim.tick + SETTLE_TICKS)


def kv_world(chain_ids: tuple[str, ...], sim_seed: int):
    """Fault-free world of 4-node chains running `kv`, two brokers, one engine."""
    log = RunLog()
    sim = Simulation(SimConfig(seed=sim_seed), log=log)
    for cid in chain_ids:
        chain = sim.add_chain(ChainConfig(chain_id=cid, n=4, f=1))
        chain.register_contract(KvContract())
    for i in range(2):
        sim.add_broker(Broker(f"b{i}", BrokerFaults()))
    engine = XTxnEngine(sim)
    settle(sim)
    return sim, engine, log


def timed_setup(res: PassResult, setup, inputs):
    start = time.perf_counter()
    world = setup(inputs)
    res.setup_s = time.perf_counter() - start
    return world


def _roots(sim: Simulation) -> str:
    return content_hash(sim.final_state_roots())


# -------------------------------------------------------------- mini_scale

MINI_OPS = 120
MINI_KEYS = 50


@dataclass(frozen=True)
class MiniInputs:
    sim_seed: int
    a: int
    values: tuple[int, ...]


def mini_inputs(seed: int, ops: int = MINI_OPS) -> MiniInputs:
    rng = random.Random(seed)
    return MiniInputs(
        sim_seed=rng.randrange(1 << 31),
        a=rng.randrange(10**6),
        values=tuple(rng.randrange(10**6) for _ in range(ops)),
    )


def mini_setup(inp: MiniInputs):
    sim, engine, log = kv_world(("alpha", "beta"), inp.sim_seed)
    sim.chains["alpha"].submit_call("client", "kv", "set", ["a", inp.a])
    settle(sim)
    return sim, engine, log


def mini_pass(inp: MiniInputs) -> PassResult:
    """Closed loop, one client: submit a mini, wait for its decision, settle."""
    res = PassResult()
    sim, engine, log = timed_setup(res, mini_setup, inp)

    expected: dict[str, int] = {}
    for i, value in enumerate(inp.values):
        key = f"kv.k{i % MINI_KEYS}"
        mt = MiniTxn(
            compares=(),
            reads=(("alpha", "kv.a"),),
            writes=(("alpha", key, value), ("beta", key, value)),
        )
        start = time.perf_counter()
        submitted = sim.tick
        fut = engine.execute_minitxn_async("alpha", mt)
        sim.pump(fut, SETTLE_TICKS)
        decided = sim.tick
        settle(sim)
        res.op_wall_s.append(time.perf_counter() - start)
        res.op_ticks.append(decided - submitted)
        outcome = fut.value
        res.op_ok.append(
            isinstance(outcome, Committed)
            and outcome.read_values.get(("alpha", "kv.a")) == inp.a
        )
        expected[key] = value

    if not all(res.op_ok):
        res.problems.append(f"{res.op_ok.count(False)} minis did not commit with the right read")
    for cid in ("alpha", "beta"):
        chain = sim.chains[cid]
        wrong = [k for k, v in expected.items() if chain.read_state(k) != v]
        if wrong:
            res.problems.append(f"{cid}: wrong final values for {wrong[:3]}")
        if not chain.locks.empty():
            res.problems.append(f"{cid}: lock table not empty")
    if sim.chains["alpha"].read_state("kv.a") != inp.a:
        res.problems.append("alpha: kv.a changed")
    res.state_digests.append(content_hash(final_state(log.records)))
    res.root_digests.append(_roots(sim))
    tally(log.records, sim.meter.snapshot(), res.ledger)
    return res


# ------------------------------------------------------ transfer_contended

TRANSFER_CHAINS = ("c0", "c1", "c2")
TRANSFER_WORLDS = 2  # independent worlds per pass, so one seed's luck averages out
TRANSFER_ACCOUNTS = 6
TRANSFER_BURSTS = 30  # per world
TRANSFER_BURST_SIZE = 4
TRANSFER_SPREAD = 12  # arrival ticks within a burst
# provenance-dependent write rule whose limit no burst reaches, allow-all reads
TRANSFER_POLICY = (
    "allow read on *;\n"
    'allow write on acct.* when count("acct.", block.height - 10, block.height) <= 1000000;\n'
)


@dataclass(frozen=True)
class Transfer:
    src: int
    dst: int
    amount: int
    mode: str
    offset: int  # arrival tick within the burst


@dataclass(frozen=True)
class TransferWorld:
    sim_seed: int
    balances: tuple[int, ...]
    bursts: tuple[tuple[Transfer, ...], ...]


def account(j: int) -> tuple[str, str]:
    return TRANSFER_CHAINS[j % len(TRANSFER_CHAINS)], f"kv.acct.a{j}"


def transfer_inputs(seed: int, bursts: int = TRANSFER_BURSTS) -> tuple[TransferWorld, ...]:
    rng = random.Random(seed)
    worlds = []
    for _ in range(TRANSFER_WORLDS):
        sim_seed = rng.randrange(1 << 31)
        balances = tuple(1000 + rng.randrange(1000) for _ in range(TRANSFER_ACCOUNTS))
        out = []
        for _ in range(bursts):
            half = TRANSFER_BURST_SIZE // 2
            modes = [MODE_OCC] * half + [MODE_LOCKS] * (TRANSFER_BURST_SIZE - half)
            rng.shuffle(modes)
            burst = []
            for mode in modes:
                src, dst = rng.sample(range(TRANSFER_ACCOUNTS), 2)
                burst.append(Transfer(src, dst, rng.randint(1, 9), mode, rng.randrange(TRANSFER_SPREAD)))
            out.append(tuple(burst))
        worlds.append(TransferWorld(sim_seed, balances, tuple(out)))
    return tuple(worlds)


def transfer_agent(sim: Simulation, engine: XTxnEngine, tr: Transfer, outcomes: list):
    """General transaction: read src, read dst, write both, commit."""
    src_chain, src_key = account(tr.src)
    dst_chain, dst_key = account(tr.dst)
    t = engine.begin_general(src_chain, tr.mode, caller_id="teller")
    try:
        a = yield engine.txn_read_async(t, src_chain, src_key)
        b = yield engine.txn_read_async(t, dst_chain, dst_key)
        yield engine.txn_write_async(t, src_chain, src_key, a - tr.amount)
        yield engine.txn_write_async(t, dst_chain, dst_key, b + tr.amount)
        result = yield engine.txn_commit_async(t)
    except LockTimeout:
        result = Aborted("LockTimeout")  # the engine already aborted t
    outcomes.append((tr, sim.tick, result))


def transfer_setup(worlds: tuple[TransferWorld, ...]) -> list:
    built = []
    for w in worlds:
        sim, engine, log = kv_world(TRANSFER_CHAINS, w.sim_seed)
        for cid in TRANSFER_CHAINS:
            sim.chains[cid].attach_policy("kv", TRANSFER_POLICY)
        for j, balance in enumerate(w.balances):
            cid, key = account(j)
            sim.chains[cid].submit_call("bank", "kv", "set", [key[len("kv."):], balance])
        settle(sim)
        built.append((sim, engine, log))
    return built


def transfer_pass(worlds: tuple[TransferWorld, ...]) -> PassResult:
    """Bursts arrive on a virtual-tick schedule; each burst runs to quiescence."""
    res = PassResult()
    built = timed_setup(res, transfer_setup, worlds)
    for w, (sim, engine, log) in zip(worlds, built):
        run_transfers(res, w, sim, engine, log)
    return res


def run_transfers(res: PassResult, w: TransferWorld, sim: Simulation, engine: XTxnEngine, log: RunLog) -> None:
    expected = list(w.balances)
    for burst in w.bursts:
        outcomes: list = []
        start = time.perf_counter()
        base = sim.tick + 1
        for tr in burst:
            sim.call_at(
                base + tr.offset,
                lambda tr=tr: sim.spawn(transfer_agent(sim, engine, tr, outcomes)),
            )
        settle(sim)
        res.op_wall_s.append(time.perf_counter() - start)
        if len(outcomes) != len(burst):
            res.problems.append(f"{len(burst) - len(outcomes)} transfers never finished")
            continue
        first = base + min(tr.offset for tr in burst)
        res.op_ticks.append(max(tick for _, tick, _ in outcomes) - first)
        for tr, _, result in outcomes:
            committed = isinstance(result, Committed)
            if not committed and not isinstance(result, Aborted):
                res.problems.append(f"transfer ended with {result!r}")
            res.op_ok.append(committed)
            if committed:
                expected[tr.src] -= tr.amount
                expected[tr.dst] += tr.amount

    balances = [sim.chains[cid].read_state(key) for cid, key in map(account, range(TRANSFER_ACCOUNTS))]
    if sum(balances) != sum(w.balances):
        res.problems.append(f"balance total {sum(balances)} != {sum(w.balances)}")
    if balances != expected:
        res.problems.append("final balances differ from the committed transfers")
    for cid in TRANSFER_CHAINS:
        if not sim.chains[cid].locks.empty():
            res.problems.append(f"{cid}: lock table not empty")
    report = audit_records(log.records)
    for check in report.checks:
        if check.name in ("atomicity", "at_most_once") and not check.passed:
            res.problems.append(f"audit {check.name}: {check.detail}")
    res.state_digests.append(content_hash(final_state(log.records)))
    res.root_digests.append(_roots(sim))
    tally(log.records, sim.meter.snapshot(), res.ledger)


# ----------------------------------------------------------- auction_sweep

AUCTION_RUNS = 120
AUCTION_DROPS = (0.0, 0.1, 0.3)
AUCTION_BEHAVIORS = ("silent", "equivocate")


@dataclass(frozen=True)
class AuctionRun:
    seed: int
    drop: float
    node: str
    behavior: str


def auction_inputs(seed: int, runs: int = AUCTION_RUNS) -> tuple[AuctionRun, ...]:
    rng = random.Random(seed)
    return tuple(
        AuctionRun(
            seed=rng.randrange(1 << 31),
            drop=AUCTION_DROPS[i % len(AUCTION_DROPS)],
            node=f"node{rng.randrange(4)}",
            behavior=AUCTION_BEHAVIORS[i % len(AUCTION_BEHAVIORS)],
        )
        for i in range(runs)
    )


def auction_scenario(base: dict, run: AuctionRun) -> dict:
    """The packaged auction under the acceptance sweep's fault profile."""
    raw = copy.deepcopy(base)
    raw["seed"] = run.seed
    for spec in raw["broker"].values():
        spec["drop_rate"] = run.drop
        spec["duplicate_rate"] = 0.1
        spec["replay_rate"] = 0.1
    for spec in raw["chain"].values():
        spec["byzantine"] = f"{run.node}:{run.behavior}"
    return raw


def auction_setup(runs: tuple[AuctionRun, ...]) -> list[Scenario]:
    base = load_scenario(str(scenario_path("auction")))
    return [Scenario.from_dict(auction_scenario(base, run)) for run in runs]


def auction_pass(runs: tuple[AuctionRun, ...]) -> PassResult:
    """Runs go one at a time; an op is one whole run, world build included."""
    res = PassResult()
    scenarios = timed_setup(res, auction_setup, runs)

    for i, scn in enumerate(scenarios):
        start = time.perf_counter()
        metrics, log = run_scenario(scn)
        res.op_wall_s.append(time.perf_counter() - start)
        if metrics.status != "ok":
            res.problems.append(f"run {i}: status {metrics.status}")
        report = audit_records(log.records)
        if not report.ok:
            failed = [c for c in report.checks if not c.passed]
            res.problems.append(f"run {i}: audit {failed[0].name}: {failed[0].detail}")
        concluded = any(o.get("status") == "concluded" for o in metrics.outcomes)
        res.op_ok.append(concluded)
        conclude_at = next(e["tick"] for e in scn.raw["script"] if e["action"] == "conclude")
        decided_at = decision_tick(log.records, scn.raw["auction"]["ticket_chain"])
        if decided_at is None:
            if concluded:
                res.problems.append(f"run {i}: concluded without a decision block")
        else:
            res.op_ticks.append(decided_at - conclude_at)
        res.state_digests.append(content_hash(final_state(log.records)))
        res.root_digests.append(content_hash(metrics.state_roots))
        data = metrics.to_dict()
        tally(log.records, {**data["messages"], "round_trips": data["round_trips"], "aborts": data["aborts"]}, res.ledger)
    return res


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: Callable  # seed -> inputs
    setup: Callable  # inputs -> what a pass needs before its first op
    run_pass: Callable  # inputs -> PassResult, set-up included


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mini_scale", mini_inputs, mini_setup, mini_pass),
        Workload("transfer_contended", transfer_inputs, transfer_setup, transfer_pass),
        Workload("auction_sweep", auction_inputs, auction_setup, auction_pass),
    )
}
