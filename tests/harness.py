"""Shared world-building helpers for protocol tests."""

from __future__ import annotations

from fractions import Fraction

from interopsim.auction import AuctionApp
from interopsim.bus import Broker, BrokerFaults
from interopsim.chain import Chain, ChainConfig, Contract
from interopsim.runlog import RunLog
from interopsim.sim import SimConfig, Simulation
from interopsim.txn import XTxnEngine


class KvContract(Contract):
    contract_id = "kv"

    def _set(self, ctx, args):
        ctx.put(args[0], args[1])

    def _get_query(self, view, args):
        return view.get(args[0])

    def _sum_query(self, view, args):
        # toy query handler: sum of two keys (contract-path read target)
        a = view.get(args[0]) or 0
        b = view.get(args[1]) or 0
        return a + b

    handlers = {"set": _set}
    query_handlers = {"get": _get_query, "sum2": _sum_query}

    def on_event(self, ctx, event):
        # record every accepted inbox event payload under its nonce
        ctx.put(f"inbox.{event.source_chain}.{event.nonce}", event.payload)


class World:
    def __init__(
        self,
        chain_ids=("alpha", "beta"),
        seed: int = 0,
        drop: float = 0.0,
        duplicate: float = 0.0,
        replay: float = 0.0,
        direct_drop: float = 0.0,
        jitter: int = 0,
        n_brokers: int = 2,
        n: int = 4,
        f: int = 1,
        scheme: str = "hmac",
        log: bool = True,
    ):
        cfg = SimConfig(
            seed=seed,
            direct_drop_rate=direct_drop,
            latency_jitter=jitter,
        )
        self.sim = Simulation(cfg, log=RunLog() if log else None)
        self.chains: dict[str, Chain] = {}
        for cid in chain_ids:
            chain = self.sim.add_chain(ChainConfig(chain_id=cid, n=n, f=f, scheme=scheme))
            chain.register_contract(KvContract())
            self.chains[cid] = chain
        for i in range(n_brokers):
            faults = BrokerFaults(drop_rate=drop, duplicate_rate=duplicate, replay_rate=replay)
            self.sim.add_broker(Broker(f"b{i}", faults))
        self.engine = XTxnEngine(self.sim)
        self.settle()

    def settle(self, max_ticks: int = 5000) -> None:
        self.sim.run_until_quiescent(self.sim.tick + max_ticks)

    def set_kv(self, chain_id: str, key: str, value, user: str = "alice") -> None:
        self.chains[chain_id].submit_call(user, "kv", "set", [key, value])
        self.settle()

    def kv(self, chain_id: str, key: str):
        return self.chains[chain_id].read_state(f"kv.{key}")

    def locks_empty(self) -> bool:
        return all(c.locks.empty() for c in self.chains.values())


def step_until(sim, done, ticks: int = 100) -> None:
    """Step `sim` until `done()` holds; fail once `ticks` steps have not made it."""
    for _ in range(ticks):
        if done():
            return
        sim.step()
    assert done(), f"not done after {ticks} steps"


def queued_for(sim, chain_id: str) -> bool:
    """Whether a broker holds a copy for `chain_id` that is not pulled yet."""
    return any(broker.next_due(chain_id) is not None for broker in sim.brokers)


def mk_auction_world(
    seed: int = 0,
    drop: float = 0.0,
    duplicate: float = 0.0,
    replay: float = 0.0,
    direct_drop: float = 0.0,
    jitter: int = 0,
    scheme: str = "hmac",
    balances=None,
    rates=None,
    start_limit: int = 3,
    byz=None,
    log: bool = True,
):
    """The three-chain fixture: tickets plus two coin chains."""
    cfg = SimConfig(seed=seed, direct_drop_rate=direct_drop, latency_jitter=jitter)
    sim = Simulation(cfg, log=RunLog() if log else None)
    rates = rates or {"coinb": Fraction(1, 2), "coinc": Fraction(3, 2)}
    genesis = AuctionApp.genesis(
        "tickets",
        ["coinb", "coinc"],
        balances=balances or {"coinb": {"bob": 100, "alice": 0}, "coinc": {"carol": 80, "alice": 0}},
        tickets={"t1": "alice"},
        start_limit=start_limit,
    )
    for cid in ("tickets", "coinb", "coinc"):
        chain = sim.add_chain(ChainConfig(chain_id=cid, n=4, f=1, scheme=scheme), *genesis[cid])
        if byz and cid in byz:
            chain.byzantine.update(byz[cid])
    for i in range(2):
        sim.add_broker(
            Broker(f"b{i}", BrokerFaults(drop_rate=drop, duplicate_rate=duplicate, replay_rate=replay))
        )
    engine = XTxnEngine(sim)
    app = AuctionApp(sim, engine, "tickets", ["coinb", "coinc"], rates)
    return sim, engine, app


def coin_totals(sim, chain_id: str) -> int:
    """Conservation oracle: sum of balances plus escrows on one coin chain."""
    chain = sim.chains[chain_id]
    total = 0
    for key, value, _ in chain.state_items("Bidder.balance."):
        total += value or 0
    for key, value, _ in chain.state_items("Bidder.escrow."):
        total += value or 0
    return total


def ledger_rescan_winner(sim, bidder_chains, rates):
    """Independent winner oracle: re-scan bids straight off chain state."""
    candidates = []
    for cid in bidder_chains:
        chain = sim.chains[cid]
        for key, value, version in chain.state_items("Bidder.bids."):
            if value is None:
                continue
            user = key.rsplit(".", 1)[1]
            candidates.append((Fraction(value) * rates[cid], version[0], cid, user))
    if not candidates:
        return None
    best = min(candidates, key=lambda c: (-c[0], c[1], c[2], c[3]))
    return best[2], best[3]
