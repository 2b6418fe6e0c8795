"""Scenario configs and the runner.

The file format is a small TOML-like dialect owned by this module:
`key = value` pairs, `[dotted.section]` headers, repeated `[[script]]`
blocks forming the ordered action list, and `#` comments.  Values are
ints, floats, booleans, or double-quoted strings; exchange rates are
strings like "3/2" parsed as exact rationals.
"""

from __future__ import annotations

import functools
import re
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Optional

from .auction import AuctionApp
from .bus import Broker, BrokerFaults
from .chain import Behavior, ChainConfig
from .crypto import SCHEMES
from .errors import ConfigError, MaxTicksExceeded
from .metrics import RunMetrics
from .runlog import RunLog
from .sim import SimConfig, Simulation
from .txn import MODE_LOCKS, MODE_OCC, XTxnEngine

_LINE = re.compile(
    r"""^\s*(?:
        (?P<table_array>\[\[(?P<ta_name>[A-Za-z0-9_.]+)\]\])
      | (?P<table>\[(?P<t_name>[A-Za-z0-9_.]+)\])
      | (?P<kv>(?P<key>[A-Za-z0-9_.]+)\s*=\s*(?P<value>.+?))
    )\s*$""",
    re.VERBOSE,
)


def _parse_value(raw: str, line_no: int):
    raw = raw.strip()
    if raw.startswith('"') and raw.endswith('"') and len(raw) >= 2:
        return raw[1:-1].replace('\\"', '"')
    if raw in ("true", "false"):
        return raw == "true"
    try:
        return int(raw)
    except ValueError:
        pass
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {line_no}: cannot parse value {raw!r}")


# a double-quoted string, kept whole, or a comment running to the line's end
_QUOTED_OR_COMMENT = re.compile(r'("(?:\\.|[^"\\])*")|#.*')


def parse_scenario_text(text: str) -> dict:
    root: dict = {"script": []}
    target: dict = root
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = _QUOTED_OR_COMMENT.sub(lambda m: m.group(1) or "", line).rstrip()
        if not stripped.strip():
            continue
        m = _LINE.match(stripped)
        if m is None:
            raise ConfigError(f"line {line_no}: cannot parse {stripped!r}")
        if m.group("table_array"):
            name = m.group("ta_name")
            if name != "script":
                raise ConfigError(f"line {line_no}: only [[script]] arrays supported")
            entry: dict = {}
            root["script"].append(entry)
            target = entry
        elif m.group("table"):
            parts = m.group("t_name").split(".")
            node = root
            for part in parts:
                node = node.setdefault(part, {})
                if not isinstance(node, dict):
                    raise ConfigError(f"line {line_no}: section clashes with a key")
            target = node
        else:
            target[m.group("key")] = _parse_value(m.group("value"), line_no)
    return root


def load_scenario(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read scenario: {exc}")


_BEHAVIORS = {
    "honest": Behavior.HONEST,
    "silent": Behavior.SILENT,
    "equivocate": Behavior.EQUIVOCATE,
}

DEFAULT_BROKERS = {"b0": {}, "b1": {}}

# value kinds of the key checks: (test, what the value must be)
_STR = (lambda v: type(v) is str, "a string")
_BOOL = (lambda v: type(v) is bool, "true or false")
_INT = (lambda v: type(v) is int, "an int")
_COUNT = (lambda v: type(v) is int and v >= 0, "an int >= 0")
_RATE = (lambda v: type(v) in (int, float) and 0 <= v <= 1, "a number in [0, 1]")
_ANY = (lambda v: True, "")

# SimConfig fields a scenario sets at its top level
_TUNABLES = ("latency_jitter", "direct_drop_rate")
# the keys of each part of a scenario and their kinds: from_dict checks the
# top level, build_world and _schedule_script each section they read
_TOP_KEYS = {
    "seed": _INT, "max_ticks": _COUNT, "latency_jitter": _COUNT, "direct_drop_rate": _RATE,
    **dict.fromkeys(("mode", "scheme", "chain", "broker", "script", "auction", "rates", "balances"), _ANY),
}
_CHAIN_KEYS = {"n": _INT, "f": _INT, "scheme": _STR, "byzantine": _STR}
_BROKER_KEYS = {"drop_rate": _RATE, "duplicate_rate": _RATE, "replay_rate": _RATE, "forge": _BOOL}
_AUCTION_KEYS = {"ticket_chain": _STR, "bidder_chains": _STR, "seller": _STR, "ticket": _STR, "start_limit": _COUNT}
_SCRIPT_KEYS = {"tick": _COUNT, "action": _STR}

# per script action: the keys it requires ("tick" defaults to 0), and the keys it reads
_ACTIONS = {
    "start_auction": (frozenset(), {"seller": _STR, "ticket": _STR, "auction": _STR, "close_height": _COUNT}),
    "submit_bid": (
        frozenset({"chain", "user", "amount"}), {"chain": _STR, "user": _STR, "amount": _INT, "auction": _STR}
    ),
    "conclude": (frozenset(), {"auction": _STR, "retries": _COUNT}),
    "submit_txn": (
        frozenset({"chain", "contract", "method"}),
        {"chain": _STR, "contract": _STR, "method": _STR, "caller": _STR, "args": _ANY},
    ),
    "set_byzantine": (frozenset({"chain", "node"}), {"chain": _STR, "node": _STR, "behavior": _STR}),
    "restart_broker": (frozenset({"broker"}), {"broker": _STR}),
}


def _check_value(where: str, key: str, value, kinds: dict) -> None:
    if key not in kinds:
        raise ConfigError(f"{where}: unknown key {key!r}")
    test, kind = kinds[key]
    if not test(value):
        raise ConfigError(f"{where}: {key} must be {kind}, not {value!r}")


def _check_section(where: str, spec, kinds: dict) -> None:
    """Refuse a section with a key `kinds` does not name or a value not of its kind."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{where} must be a section, not {spec!r}")
    for key, value in spec.items():
        _check_value(where, key, value, kinds)


def _check_node(chain_id: str, n: int, node: str, behavior: str) -> None:
    # an ill-typed n is left for ChainConfig.validate to refuse when the world is built
    if type(n) is int and node not in {f"node{i}" for i in range(n)}:
        raise ConfigError(f"chain {chain_id!r} has no node {node!r}")
    if behavior not in _BEHAVIORS:
        raise ConfigError(f"{chain_id}:{node}: behavior {behavior!r} is not one of {', '.join(_BEHAVIORS)}")


@functools.lru_cache(maxsize=256)  # a sweep repeats a few texts across many scenarios
def _check_byzantine(chain_id: str, n: int, byz: str) -> None:
    if type(byz) is not str:
        raise ConfigError(f"chain {chain_id!r}: byzantine must be a string, not {byz!r}")
    for assignment in byz.split(","):
        node, _, behavior = assignment.partition(":")
        _check_node(chain_id, n, node, behavior)


@dataclass
class Scenario:
    """Validated scenario, ready to run."""

    raw: dict
    seed: int = 0
    mode: str = MODE_OCC
    max_ticks: int = SimConfig.max_ticks

    @classmethod
    def from_dict(cls, raw: dict) -> "Scenario":
        _check_section("top level", raw, _TOP_KEYS)
        seed = raw.get("seed", 0)
        mode = raw.get("mode", MODE_OCC)
        if mode not in (MODE_OCC, MODE_LOCKS):
            raise ConfigError(f"unknown mode {mode!r}")
        chains = raw.get("chain")
        if not chains:
            raise ConfigError("scenario defines no chains")
        max_ticks = raw.get("max_ticks", SimConfig.max_ticks)
        scheme = raw.get("scheme", "hmac")
        for chain_id, spec in chains.items():
            chain_scheme = spec.get("scheme", scheme)
            if type(chain_scheme) is not str or chain_scheme not in SCHEMES:
                raise ConfigError(f"chain {chain_id!r}: unknown signature scheme {chain_scheme!r}")
            if spec.get("byzantine"):
                _check_byzantine(chain_id, spec.get("n", 4), spec["byzantine"])
        brokers = raw.get("broker", DEFAULT_BROKERS)
        for entry in raw.get("script", []):
            action = entry.get("action")
            if action not in _ACTIONS:
                raise ConfigError(f"unknown script action {action!r} in {entry}")
            required = _ACTIONS[action][0]
            if not required <= entry.keys():
                raise ConfigError(f"script action {action!r} lacks {', '.join(sorted(required - entry.keys()))}")
            ref = entry.get("chain")
            if ref is not None and ref not in chains:
                raise ConfigError(f"script references unknown chain {ref!r}")
            if action == "set_byzantine":
                _check_node(ref, chains[ref].get("n", 4), entry["node"], entry.get("behavior", "silent"))
            elif action == "restart_broker" and entry["broker"] not in brokers:
                raise ConfigError(f"script references unknown broker {entry['broker']!r}")
            elif action in ("start_auction", "conclude") and "auction" not in raw:
                raise ConfigError(f"script action {action!r} needs an [auction] section")
        ticks = [e.get("tick", 0) for e in raw.get("script", [])]
        for tick in ticks:
            _check_value("script", "tick", tick, _SCRIPT_KEYS)
        if ticks != sorted(ticks):
            raise ConfigError("script ticks must be non-decreasing")
        if "auction" in raw:
            spec = raw["auction"]
            referenced = [spec.get("ticket_chain", "tickets")]
            bidders = spec.get("bidder_chains", "")
            if type(bidders) is not str:
                raise ConfigError(f"bidder_chains must be a comma-separated string, not {bidders!r}")
            referenced += [c for c in bidders.split(",") if c]
            for cid in referenced:
                if cid not in chains:
                    raise ConfigError(f"auction references unknown chain {cid!r}")
            for cid in referenced[1:]:
                if cid not in raw.get("rates", {}):
                    raise ConfigError(f"no exchange rate for bidder chain {cid!r}")
        return cls(raw=raw, seed=seed, mode=mode, max_ticks=max_ticks)


def build_world(scn: Scenario, log: Optional[RunLog]) -> tuple[Simulation, XTxnEngine, Optional[AuctionApp]]:
    raw = scn.raw
    sim_cfg = SimConfig(
        seed=scn.seed,
        max_ticks=scn.max_ticks,
        **{name: raw[name] for name in _TUNABLES if name in raw},
    )
    sim = Simulation(sim_cfg, log=log)
    auction = raw.get("auction")
    bidder_chains: list[str] = []
    if auction is not None:
        _check_section("[auction]", auction, _AUCTION_KEYS)
        bidder_chains = [cid for cid in auction.get("bidder_chains", "").split(",") if cid]
    # rates and balances are read for bidder chains only
    balances, rates = raw.get("balances", {}), raw.get("rates", {})
    _check_section("[balances]", balances, dict.fromkeys(bidder_chains, _ANY))
    for cid, users in balances.items():
        _check_section(f"[balances.{cid}]", users, dict.fromkeys(users, _COUNT))
    _check_section("[rates]", rates, dict.fromkeys(bidder_chains, _ANY))
    rates = {cid: _rate(cid, value) for cid, value in rates.items()}
    genesis = {}
    if auction is not None:
        ticket_chain = auction.get("ticket_chain", "tickets")
        genesis = AuctionApp.genesis(
            ticket_chain,
            bidder_chains,
            balances={cid: dict(users) for cid, users in balances.items()},
            tickets={auction.get("ticket", "t1"): auction.get("seller", "alice")},
            start_limit=auction.get("start_limit", 3),
        )
    # sorted iteration: behavior must not depend on config dict order
    for chain_id, spec in sorted(raw["chain"].items()):
        _check_section(f"[chain.{chain_id}]", spec, _CHAIN_KEYS)
        cfg = ChainConfig(
            chain_id=chain_id,
            n=spec.get("n", 4),
            f=spec.get("f", 1),
            scheme=spec.get("scheme", raw.get("scheme", "hmac")),
        )
        chain = sim.add_chain(cfg, *genesis.get(chain_id, ((), ())))
        byz = spec.get("byzantine", "")
        if byz:
            for assignment in byz.split(","):
                node, behavior = assignment.split(":")
                chain.byzantine[f"{chain_id}:{node}"] = _BEHAVIORS[behavior]
    brokers = raw.get("broker", DEFAULT_BROKERS)
    for broker_id, spec in sorted(brokers.items()):
        _check_section(f"[broker.{broker_id}]", spec, _BROKER_KEYS)
        sim.add_broker(Broker(broker_id, BrokerFaults(**spec)))
    engine = XTxnEngine(sim)

    app = None
    if auction is not None:
        app = AuctionApp(sim, engine, ticket_chain, bidder_chains, rates)
    return sim, engine, app


def _rate(chain_id: str, value) -> Fraction:
    try:
        rate = Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        raise ConfigError(f"exchange rate for {chain_id!r} is not a rational number: {value!r}") from None
    if rate <= 0:
        raise ConfigError(f"exchange rate for {chain_id!r} must be positive, not {value!r}")
    return rate


def _schedule_script(scn: Scenario, sim: Simulation, engine: XTxnEngine, app, outcomes: list):
    raw = scn.raw
    auction_spec = raw.get("auction", {})

    def make_action(entry: dict):
        action = entry["action"]
        if action == "start_auction":
            seller = entry.get("seller", auction_spec.get("seller", "alice"))
            ticket = entry.get("ticket", auction_spec.get("ticket", "t1"))
            auction_id = entry.get("auction", "a1")
            close = entry.get("close_height", 200)
            chain = sim.chains[app.ticket_chain]
            return lambda: chain.submit_call(
                seller, "Auctioneer", "start_auction", [ticket, auction_id, close]
            )
        if action == "submit_bid":
            chain = sim.chains[entry["chain"]]
            return lambda: chain.submit_call(
                entry["user"], "Bidder", "submit_bid", [entry.get("auction", "a1"), entry["amount"]]
            )
        if action == "conclude":
            auction_id = entry.get("auction", "a1")

            def conclude():
                outcome = {"action": "conclude", "auction": auction_id}
                try:
                    result = yield from app.conclude_agent(auction_id, scn.mode, retries=entry.get("retries", 5))
                    outcome.update(asdict(result))
                except Exception as exc:
                    outcome.update(status="error", error=str(exc))
                outcomes.append(outcome)

            return lambda: sim.spawn(conclude())
        if action == "submit_txn":
            chain = sim.chains[entry["chain"]]
            args = [
                _parse_value(part.strip(), 0) if part.strip() else ""
                for part in str(entry.get("args", "")).split("|")
                if part.strip()
            ]
            return lambda: chain.submit_call(
                entry.get("caller", "user"), entry["contract"], entry["method"], args
            )
        if action == "set_byzantine":
            chain = sim.chains[entry["chain"]]
            node = f"{entry['chain']}:{entry['node']}"
            behavior = _BEHAVIORS[entry.get("behavior", "silent")]
            return lambda: chain.byzantine.__setitem__(node, behavior)
        broker = next(b for b in sim.brokers if b.broker_id == entry["broker"])
        return lambda: broker.restart(sim.tick)

    for entry in raw.get("script", []):
        where = f"script action {entry['action']!r} at tick {entry.get('tick', 0)}"
        _check_section(where, entry, {**_SCRIPT_KEYS, **_ACTIONS[entry["action"]][1]})
        sim.call_at(entry.get("tick", 0), make_action(entry))


def run_scenario(scn: Scenario, log: Optional[RunLog] = None) -> tuple[RunMetrics, Optional[RunLog]]:
    """Build the scenario's world, run it to quiescence or max_ticks, log `final`.

    The world is closed once `final` is written (Simulation.close), so it is
    freed by reference counting when this returns; only the metrics and the
    log outlive the run."""
    if log is None:
        log = RunLog()
    log.record("meta", seed=scn.seed, mode=scn.mode, scenario=scn.raw)
    sim, engine, app = build_world(scn, log)
    outcomes: list = []
    _schedule_script(scn, sim, engine, app, outcomes)
    status = "ok"
    try:
        sim.run_until_quiescent(scn.max_ticks)
    except MaxTicksExceeded:
        status = "max_ticks"
    metrics = RunMetrics.from_sim(sim, scn.seed, scn.mode, status, outcomes)
    log.record(
        "final",
        state_roots=sim.final_state_roots(),
        locks={
            cid: sorted(list(sim.chains[cid].locks.exact) + list(sim.chains[cid].locks.prefix))
            for cid in sim.chain_order
        },
        rates={k: str(v) for k, v in (app.rates.items() if app else {})},
        metrics=metrics.to_dict(),
    )
    sim.close()
    return metrics, log
