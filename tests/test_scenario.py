import copy
import dataclasses
import itertools
import json
import weakref
from pathlib import Path

import pytest

import interopsim.scenario as scenario_module
from interopsim.audit import audit_records, audit_run
from interopsim.cli import main as simctl
from interopsim.errors import ConfigError, CorruptLog
from interopsim.fixtures import scenario_path
from interopsim.metrics import RunMetrics
from interopsim.runlog import RunLog, load_log
from interopsim.scenario import (
    DEFAULT_BROKERS,
    Scenario,
    load_scenario,
    build_world,
    parse_scenario_text,
    run_scenario,
)
from interopsim.txn import Committed, MiniTxn

from harness import World
from test_sim import demo_auction


BROKER_RESTART = Path(__file__).parent / "scenarios" / "broker_restart.scn"
POLICY_DENIALS = Path(__file__).parent / "scenarios" / "auction_policy_denials.scn"
LATE_BID = Path(__file__).parent / "scenarios" / "auction_late_bid.scn"
SHARED_CHAIN = Path(__file__).parent / "scenarios" / "auction_shared_chain.scn"
DIRECT_DROPS = Path(__file__).parent / "scenarios" / "auction_direct_drops.scn"


def auction_scn(**overrides):
    raw = load_scenario(str(scenario_path("auction")))
    raw.update(overrides)
    return Scenario.from_dict(raw)


# ----------------------------------------------------------------- parsing


def test_parse_scenario_sections_and_script():
    raw = parse_scenario_text(
        """
        seed = 7
        mode = "locks"
        [chain.alpha]
        n = 4
        f = 1
        [broker.b0]
        drop_rate = 0.25
        [[script]]
        tick = 1
        action = "restart_broker"
        broker = "b0"
        """
    )
    assert raw["seed"] == 7
    assert raw["mode"] == "locks"
    assert raw["chain"]["alpha"]["n"] == 4
    assert raw["broker"]["b0"]["drop_rate"] == 0.25
    assert raw["script"][0]["action"] == "restart_broker"


def test_parse_keeps_a_hash_inside_quotes():
    raw = parse_scenario_text('x = "a#b"  # a comment\ny = "#" # "z"\n# only a comment\n')
    assert raw == {"script": [], "x": "a#b", "y": "#"}


def test_parse_rejects_garbage():
    with pytest.raises(ConfigError):
        parse_scenario_text("what even is this")
    with pytest.raises(ConfigError):
        parse_scenario_text("[[other]]\nx = 1")


def test_scenario_validation():
    with pytest.raises(ConfigError):
        Scenario.from_dict({"script": []})  # no chains
    with pytest.raises(ConfigError):
        Scenario.from_dict(
            {"chain": {"a": {}}, "mode": "wat", "script": []}
        )
    with pytest.raises(ConfigError):
        Scenario.from_dict(
            {
                "chain": {"a": {}},
                "script": [{"action": "x", "tick": 5}, {"action": "y", "tick": 1}],
            }
        )
    with pytest.raises(ConfigError):
        Scenario.from_dict(
            {
                "chain": {"a": {}},
                "script": [{"action": "submit_bid", "tick": 1, "chain": "nope"}],
            }
        )
    with pytest.raises(ConfigError):  # bidder chain without a rate
        Scenario.from_dict(
            {
                "chain": {"t": {}, "c": {}},
                "auction": {"ticket_chain": "t", "bidder_chains": "c"},
                "script": [],
            }
        )


# ----------------------------------------------------------------- running


def _fixture_with_script(*entries):
    raw = load_scenario(str(scenario_path("auction")))
    raw["script"].extend(entries)
    return raw


@pytest.mark.parametrize(
    "entry",
    [
        {"tick": 30, "action": "explode"},
        {"tick": 30},
        {"tick": 30, "action": "submit_bid", "chain": "coinb", "user": "bob"},
        {"tick": 30, "action": "submit_txn", "chain": "coinb", "contract": "Bidder"},
        {"tick": 30, "action": "set_byzantine", "chain": "coinb"},
        {"tick": 30, "action": "set_byzantine", "chain": "coinb", "node": "node4"},
        {"tick": 30, "action": "set_byzantine", "chain": "coinb", "node": "node01"},
        {"tick": 30, "action": "set_byzantine", "chain": "coinb", "node": "n1"},
        {"tick": 30, "action": "set_byzantine", "chain": "coinb", "node": "node1", "behavior": "forge"},
        {"tick": 30, "action": "set_byzantine", "node": "node1"},
        {"tick": 30, "action": "restart_broker"},
        {"tick": 30, "action": "restart_broker", "broker": "b9"},
    ],
)
def test_malformed_script_entry_rejected_at_load(entry):
    with pytest.raises(ConfigError):
        Scenario.from_dict(_fixture_with_script(entry))


@pytest.mark.parametrize("byzantine", ["node1", "node4:silent", "node1:bogus", "node1:silent,"])
def test_malformed_byzantine_assignment_rejected_at_load(byzantine):
    raw = load_scenario(str(scenario_path("auction")))
    raw["chain"]["tickets"]["byzantine"] = byzantine
    with pytest.raises(ConfigError):
        Scenario.from_dict(raw)


@pytest.mark.parametrize("action", ["start_auction", "conclude"])
def test_auction_action_without_auction_section_rejected(action):
    raw = load_scenario(str(scenario_path("auction")))
    del raw["auction"]
    raw["script"] = [{"tick": 1, "action": action}]
    with pytest.raises(ConfigError, match="auction"):
        Scenario.from_dict(raw)


def test_well_formed_fault_actions_accepted():
    raw = _fixture_with_script(
        {"tick": 30, "action": "set_byzantine", "chain": "coinb", "node": "node3", "behavior": "equivocate"},
        {"tick": 30, "action": "restart_broker", "broker": "b1"},
    )
    raw["chain"]["tickets"]["byzantine"] = "node0:silent,node3:honest"
    Scenario.from_dict(raw)


_FIXTURE_APPEND = '\n[[script]]\ntick = 30\n'


@pytest.mark.parametrize(
    "edit",
    [
        lambda text: text + _FIXTURE_APPEND
        + 'action = "set_byzantine"\nchain = "coinb"\nnode = "node1"\nbehavior = "bogus"\n',
        lambda text: text + _FIXTURE_APPEND + 'action = "restart_broker"\n',
        lambda text: text.replace("[chain.tickets]\n", '[chain.tickets]\nbyzantine = "node1"\n'),
        # settings no longer read must not run silently with their defaults
        lambda text: "vote_timeout = 8\n" + text,
        lambda text: text + "\n[timing]\nlock_timeout = 5\n",
        # ill-typed or out-of-range values must not run, or fail mid-run
        lambda text: "latency_jitter = -2\n" + text,
        lambda text: 'direct_drop_rate = "high"\n' + text,
        lambda text: "direct_drop_rate = 1.5\n" + text,
        lambda text: text.replace("max_ticks = 20000", 'max_ticks = "x"'),
        lambda text: text.replace("seed = 42", 'seed = "x"'),
        lambda text: text.replace("seed = 42", "seed = true"),
        lambda text: 'scheme = "rsa"\n' + text,
        lambda text: text.replace("[chain.coinb]\nn = 4", '[chain.coinb]\nn = "x"'),
        lambda text: text.replace("[chain.coinc]\nn = 4\nf = 1", "[chain.coinc]\nn = 4\nf = 2"),
        lambda text: text.replace('coinb = "1/2"', 'coinb = "half"'),
        lambda text: text.replace("tick = 10\n", 'tick = "late"\n'),
        lambda text: text.replace("tick = 2\n", "tick = -1\n"),
        # every section value is checked where the world is built or the script scheduled
        lambda text: text.replace("[broker.b1]\ndrop_rate = 0.0", '[broker.b1]\ndrop_rate = "high"'),
        lambda text: text.replace('bidder_chains = "coinb,coinc"', "bidder_chains = 5"),
        lambda text: text.replace('coinb = "1/2"', 'coinb = "-1/2"'),
        lambda text: text.replace("bob = 100", 'bob = "lots"'),
        lambda text: text.replace("amount = 40", 'amount = "x"'),
        lambda text: text.replace("[broker.b1]\n", '[broker.b1]\nforge = "yes"\n'),
        lambda text: text.replace('action = "conclude"\n', 'action = "conclude"\nretries = "many"\n'),
        lambda text: text.replace("close_height = 200", 'close_height = "soon"'),
        # misspelt keys must not run with the default
        lambda text: text.replace("[broker.b1]\n", "[broker.b1]\ndrop_rat = 0.5\n"),
        lambda text: text.replace("[chain.coinb]\n", "[chain.coinb]\ndrop_rat = 0.5\n"),
        lambda text: text.replace("[chain.coinb]\nn = 4", "[chain.coinb]\nnn = 4"),
        lambda text: text.replace('seller = "alice"', 'seler = "alice"'),
    ],
    ids=[
        "unknown_behavior", "restart_broker_without_broker", "byzantine_without_colon",
        "unknown_top_level_key", "unknown_section",
        "negative_latency_jitter", "str_direct_drop_rate", "direct_drop_rate_above_one", "str_max_ticks",
        "str_seed", "bool_seed", "unknown_scheme", "str_chain_n", "f_too_large_for_n", "str_rate",
        "str_script_tick", "negative_script_tick",
        "str_broker_drop_rate", "int_bidder_chains", "negative_rate", "str_balance", "str_bid_amount",
        "str_forge", "str_retries", "str_close_height",
        "misspelt_broker_key", "unknown_chain_key", "misspelt_chain_n", "misspelt_auction_seller",
    ],
)
def test_cli_malformed_scenario_is_a_config_error(tmp_path, capsys, edit):
    text = scenario_path("auction").read_text(encoding="utf-8")
    bad = tmp_path / "bad.scn"
    bad.write_text(edit(text), encoding="utf-8")
    assert simctl(["run", str(bad), "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_auction_fixture_concludes_with_expected_round_trips():
    scn = auction_scn()
    metrics, log = run_scenario(scn)
    assert metrics.status == "ok"
    conclude = [o for o in metrics.outcomes if o["action"] == "conclude"]
    assert len(conclude) == 1
    assert conclude[0]["status"] == "concluded"
    assert conclude[0]["winner_user"] == "carol"
    assert conclude[0]["winner_amount"] == 60
    # protocol-trace oracle: 2 prefix reads + 2 reads per bid, then
    # prepare and decision; the general txn must meter exactly k+2
    n_bids = 2
    expected_k = 2 + 2 * n_bids
    gt_trips = [v for v in metrics.round_trips.values() if v > 2]
    assert gt_trips == [expected_k + 2]


def test_same_seed_runs_are_byte_identical():
    m1, l1 = run_scenario(auction_scn())
    m2, l2 = run_scenario(auction_scn())
    assert m1.to_json() == m2.to_json()
    assert l1.lines() == l2.lines()
    assert m1.state_roots == m2.state_roots


def test_metrics_to_dict_is_asdict_without_the_deep_copy():
    metrics, _ = run_scenario(auction_scn())
    data = metrics.to_dict()
    assert json.dumps(data, sort_keys=True) == json.dumps(dataclasses.asdict(metrics), sort_keys=True)
    assert list(data) == [f.name for f in dataclasses.fields(metrics)]
    # every container is a copy: changing one leaves the metrics alone
    data["messages"]["sent"] += 1
    data["outcomes"][0]["status"] = "changed"
    assert metrics.to_dict() == dataclasses.asdict(metrics) != data


def test_different_seed_changes_nothing_without_faults():
    # without faults the rng is never consulted for message fates
    m1, _ = run_scenario(auction_scn(seed=1))
    m2, _ = run_scenario(auction_scn(seed=2))
    assert m1.state_roots == m2.state_roots


def test_fixture_under_drops_concludes_or_aborts_cleanly():
    for seed in (1, 2, 3):
        raw = load_scenario(str(scenario_path("auction")))
        for spec in raw["broker"].values():
            spec["drop_rate"] = 0.3
        raw["seed"] = seed
        metrics, log = run_scenario(Scenario.from_dict(raw))
        report = audit_records(log.records)
        assert report.ok, report.render()
        conclude = [o for o in metrics.outcomes if o["action"] == "conclude"]
        assert conclude[0]["status"] in ("concluded", "aborted")


def test_fixture_under_real_asymmetric_signatures():
    # the same auction, but every chain signs with ed25519 instead of hmac
    raw = load_scenario(str(scenario_path("auction")))
    raw["scheme"] = "ed25519"
    metrics, log = run_scenario(Scenario.from_dict(raw))
    assert metrics.status == "ok"
    conclude = [o for o in metrics.outcomes if o["action"] == "conclude"]
    assert conclude[0]["status"] == "concluded"
    assert conclude[0]["winner_user"] == "carol"
    assert audit_records(log.records).ok


def test_set_byzantine_action():
    raw = load_scenario(str(scenario_path("auction")))
    raw["script"] = [
        {"tick": 1, "action": "set_byzantine", "chain": "coinb", "node": "node0",
         "behavior": "silent"},
        {"tick": 3, "action": "start_auction", "auction": "a1", "close_height": 200},
        {"tick": 12, "action": "submit_bid", "chain": "coinb", "user": "bob", "amount": 100},
        {"tick": 16, "action": "submit_bid", "chain": "coinc", "user": "carol", "amount": 40},
        {"tick": 30, "action": "conclude", "auction": "a1"},
    ]
    metrics, log = run_scenario(Scenario.from_dict(raw))
    assert metrics.status == "ok"
    conclude = [o for o in metrics.outcomes if o["action"] == "conclude"]
    assert conclude[0]["status"] == "concluded"
    assert audit_records(log.records).ok


def _duplicates(records):
    return sum(1 for r in records if r["kind"] == "deliver" and r["result"] == "duplicate")


def _conclusions(metrics):
    return [
        (o["status"], o["winner_chain"], o["winner_user"], o["winner_amount"])
        for o in metrics.outcomes
        if o["action"] == "conclude"
    ]


def test_broker_restart_mid_run_keeps_delivery_at_most_once(tmp_path):
    raw = load_scenario(str(BROKER_RESTART))
    assert [e["action"] for e in raw["script"]].count("restart_broker") == 1
    without = dict(raw, script=[e for e in raw["script"] if e["action"] != "restart_broker"])
    metrics, log = run_scenario(Scenario.from_dict(raw))
    base_metrics, base_log = run_scenario(Scenario.from_dict(without))
    assert metrics.status == base_metrics.status == "ok"
    report = audit_records(log.records)
    assert report.ok
    assert "at_most_once" in {c.name for c in report.checks}
    assert _duplicates(log.records) > _duplicates(base_log.records)
    assert _conclusions(metrics) == _conclusions(base_metrics)
    assert _conclusions(metrics)[0][0] == "concluded"
    path = tmp_path / "run.jsonl"
    log.dump(str(path))
    assert simctl(["replay", str(path)]) == 0


def test_policy_denials_leave_failed_receipts_and_the_same_winner():
    metrics, log = run_scenario(Scenario.from_dict(load_scenario(str(POLICY_DENIALS))))
    base_metrics, _ = run_scenario(auction_scn())
    denied = [
        (r["chain"], txn["caller_id"], txn["target"], txn["method"], txn["error"])
        for r in log.records
        if r["kind"] == "block"
        for txn in r["txns"]
        if txn["error"].startswith("PolicyDenied")
    ]
    assert denied == [
        ("coinb", "bob", "Bidder", "submit_bid", "PolicyDenied: rule 1: condition false"),
        ("coinb", "mallory", "sys.policy", "attach", "PolicyDenied: coinb:mallory may not call sys.policy"),
    ]
    assert metrics.status == "ok" and audit_records(log.records).ok
    assert _conclusions(metrics) == _conclusions(base_metrics)
    assert _conclusions(metrics)[0][:3] == ("concluded", "coinc", "carol")


def test_a_late_bid_aborts_the_first_conclude_and_the_retry_names_carol(tmp_path):
    # coinc's no vote on the Bidder.bids prefix decides the first commit; the
    # second conclude reads carol's bid and commits
    metrics, log = run_scenario(Scenario.from_dict(load_scenario(str(LATE_BID))))
    assert metrics.status == "ok"
    decisions = [(r["decision"], r["reason"]) for r in log.records if r["kind"] == "xtxn"]
    assert decisions == [("abort", "VersionConflict: Bidder.bids.*"), ("commit", "")]
    assert metrics.aborts == {"VersionConflict: Bidder.bids.*": 1}
    assert _conclusions(metrics) == [("concluded", "coinc", "carol", 60)]
    report = audit_records(log.records)
    assert report.ok, report.render()
    path = tmp_path / "run.jsonl"
    log.dump(str(path))
    assert simctl(["replay", str(path)]) == 0


def test_direct_drops_scenario_exhausts_an_exchange_and_releases_its_locks():
    # the scenario's header promises a conclude that ends in error; its
    # transaction must still abort, so every lock table ends empty
    metrics, log = run_scenario(Scenario.from_dict(load_scenario(str(DIRECT_DROPS))))
    assert metrics.status == "ok"
    assert [o["status"] for o in metrics.outcomes] == ["error"]
    final = next(r for r in log.records if r["kind"] == "final")
    assert final["locks"] and not any(final["locks"].values())
    report = audit_records(log.records)
    assert report.ok, report.render()


def test_ticket_chain_that_also_takes_bids_keeps_both_contracts(tmp_path):
    # tickets is both the ticket chain and a bidder chain: its genesis block
    # must register Auctioneer and Bidder and run both inits
    scn = Scenario.from_dict(load_scenario(str(SHARED_CHAIN)))
    sim, _, _ = build_world(scn, None)
    tickets = sim.chains["tickets"]
    assert list(tickets.contracts) == ["Auctioneer", "Bidder"]
    assert tickets.contract_active("Auctioneer") and tickets.contract_active("Bidder")
    assert tickets.read_state("Bidder.balance.bob") == 100
    metrics, log = run_scenario(scn)
    assert metrics.status == "ok"
    assert _conclusions(metrics) == [("concluded", "coinc", "carol", 60)]
    report = audit_records(log.records)
    assert report.ok, report.render()
    path = tmp_path / "run.jsonl"
    log.dump(str(path))
    assert simctl(["replay", str(path)]) == 0


def test_auction_without_bidder_chains_concludes_cancelled():
    raw = parse_scenario_text(
        """
        [chain.tickets]
        [auction]
        [[script]]
        tick = 2
        action = "start_auction"
        [[script]]
        tick = 10
        action = "conclude"
        """
    )
    metrics, log = run_scenario(Scenario.from_dict(raw))
    assert metrics.status == "ok"
    assert _conclusions(metrics) == [("cancelled", "", "", 0)]
    assert audit_records(log.records).ok


def test_run_log_opens_each_chain_with_its_genesis_block():
    scn = auction_scn()
    sim, _, _ = build_world(scn, None)
    _, log = run_scenario(scn)
    first = {}
    for rec in log.records:
        if rec["kind"] == "block":
            first.setdefault(rec["chain"], rec)
    assert sorted(first) == sorted(sim.chains)
    for cid, rec in first.items():
        assert (rec["height"], rec["tick"]) == (0, 0)
        assert rec["state_root"] == sim.chains[cid].blocks[0].header.state_root.hex()
    genesis_writes = [key for txn in first["coinb"]["txns"] for key, _ in txn["writes"]]
    assert "Bidder.balance.bob" in genesis_writes and "sys.policy.Bidder" in genesis_writes


def test_run_scenario_frees_its_world_without_the_collector(monkeypatch, collector_off):
    # once run_scenario returns, its world is freed by reference counting:
    # nothing in it still refers back to it, even in a run cut off at max_ticks
    worlds = []

    def capture(scn, log):
        world = build_world(scn, log)
        worlds.append(weakref.ref(world[0]))  # the engine and app hold the sim
        return world

    monkeypatch.setattr(scenario_module, "build_world", capture)
    base = load_scenario(str(scenario_path("auction")))
    errors = 0
    sweep = itertools.product((0.0, 0.3), range(10), ("occ", "locks"), (0.0, 0.1, 0.3))
    for direct_drop, seed, mode, drop in sweep:
        raw = copy.deepcopy(base)
        raw.update(seed=seed, mode=mode, direct_drop_rate=direct_drop)
        for spec in raw["broker"].values():
            spec.update(drop_rate=drop, duplicate_rate=0.1, replay_rate=0.1)
        metrics, _ = run_scenario(Scenario.from_dict(raw))
        # a conclude that ends in error keeps no exception that leads back
        errors += any(outcome["status"] == "error" for outcome in metrics.outcomes)
        assert worlds[-1]() is None, f"direct drop {direct_drop}, seed {seed}, {mode}, drop {drop}"
    assert errors >= 1
    assert demo_auction(max_ticks=30)[0] == "max_ticks"
    assert worlds[-1]() is None


# ------------------------------------------------------------------- audit


def test_audit_clean_run_passes(tmp_path):
    _, log = run_scenario(auction_scn())
    path = tmp_path / "run.log"
    log.dump(str(path))
    report = audit_run(str(path))
    assert report.ok
    names = {c.name for c in report.checks}
    assert names == {
        "atomicity",
        "conservation",
        "at_most_once",
        "locks_released",
        "winner_correctness",
        "mini_round_trips",
    }


def test_audit_detects_injected_orphan_write(tmp_path):
    _, log = run_scenario(auction_scn())
    # flip the committed settlement to "abort": its applied writes orphan
    doctored = RunLog()
    target_txn = None
    for rec in log.records:
        rec = dict(rec)
        if rec.get("kind") == "xtxn" and rec.get("type") == "general":
            rec["decision"] = "abort"
            target_txn = rec["txn"]
        doctored.records.append(rec)
    path = tmp_path / "bad.log"
    doctored.dump(str(path))
    report = audit_run(str(path))
    atomicity = next(c for c in report.checks if c.name == "atomicity")
    assert not atomicity.passed
    assert target_txn in atomicity.detail


def _audit_check(records, name):
    return next(c for c in audit_records(records).checks if c.name == name)


def test_audit_detects_a_duplicated_delivery():
    _, log = run_scenario(auction_scn())
    assert _audit_check(log.records, "at_most_once").passed
    records = copy.deepcopy(log.records)
    i, accepted = next(
        (i, r) for i, r in enumerate(records) if r["kind"] == "deliver" and r["result"] == "accepted"
    )
    records.insert(i + 1, dict(accepted))
    check = _audit_check(records, "at_most_once")
    assert not check.passed
    assert check.detail == f"duplicate accept {(accepted['chain'], accepted['source_chain'], accepted['nonce'])}"


def _clear_bid(records, chain, user):
    """Clear `user`'s bid on `chain` in the block transaction that placed it."""
    key = f"Bidder.bids.{user}"
    for rec in records:
        if rec["kind"] == "block" and rec["chain"] == chain:
            for txn in rec["txns"]:
                if any(k == key and v is not None for k, v in txn["writes"]):
                    txn["writes"].append([key, None])
                    return
    raise AssertionError(f"no bid by {user} on {chain}")


def _rewrite_winner(records):
    (settlement,) = [r for r in records if r["kind"] == "xtxn" and r["decision"] == "commit"]
    for write in settlement["writes"]:
        if write[1].endswith(".winner_chain"):
            write[2] = "coinb"
        elif write[1].endswith(".winner_user"):
            write[2] = "bob"


@pytest.mark.parametrize(
    "mutate, detail",
    [
        (_rewrite_winner, "recorded winner coinb:bob, re-scan says coinc:carol"),
        (lambda records: _clear_bid(records, "coinc", "carol"), "recorded winner coinc:carol, re-scan says coinb:bob"),
        (
            lambda records: (_clear_bid(records, "coinb", "bob"), _clear_bid(records, "coinc", "carol")),
            "no bids found for recorded winner",
        ),
    ],
    ids=["rewritten_winner", "cleared_winning_bid", "every_bid_cleared"],
)
def test_audit_detects_a_wrong_winner(mutate, detail):
    # the packaged auction: carol's 40 at 3/2 beats bob's 100 at 1/2
    _, log = run_scenario(auction_scn())
    assert _audit_check(log.records, "winner_correctness").passed
    records = copy.deepcopy(log.records)
    mutate(records)
    check = _audit_check(records, "winner_correctness")
    assert not check.passed
    assert detail in check.detail


def test_audit_detects_a_mini_transaction_over_two_round_trips():
    # no scenario scripts a mini-transaction: a harness world runs one, and
    # the final record carries the metrics as run_scenario writes them
    w = World()
    result = w.engine.execute_minitxn("alpha", MiniTxn((), (), (("alpha", "kv.x", 1), ("beta", "kv.y", 2))))
    assert isinstance(result, Committed)
    w.settle()
    w.sim.log.record("final", locks={}, metrics=RunMetrics.from_sim(w.sim, 0, "", "ok", []).to_dict())
    records = copy.deepcopy(w.sim.log.records)
    check = _audit_check(records, "mini_round_trips")
    assert check.passed and check.detail == "1 committed mini-txns at exactly 2"
    (txid,) = [r["txn"] for r in records if r["kind"] == "xtxn" and r["type"] == "mini"]
    records[-1]["metrics"]["round_trips"][txid] = 3
    check = _audit_check(records, "mini_round_trips")
    assert not check.passed
    assert check.detail == f"{txid}: 3 round trips"


def test_audit_detects_conservation_violation(tmp_path):
    _, log = run_scenario(auction_scn())
    # minting 5 units out of thin air in the final refund breaks conservation
    last = None
    for ri, rec in enumerate(log.records):
        if rec.get("kind") != "block":
            continue
        for ti, txn in enumerate(rec["txns"]):
            for wi, (k, v) in enumerate(txn["writes"]):
                if k.endswith("balance.bob") and isinstance(v, int):
                    last = (ri, ti, wi, v)
    assert last is not None
    ri, ti, wi, v = last
    doctored = RunLog()
    doctored.records = [dict(r) for r in log.records]
    import copy

    doctored.records[ri] = copy.deepcopy(doctored.records[ri])
    doctored.records[ri]["txns"][ti]["writes"][wi][1] = v + 5
    path = tmp_path / "bad.log"
    doctored.dump(str(path))
    report = audit_run(str(path))
    conservation = next(c for c in report.checks if c.name == "conservation")
    assert not conservation.passed


def test_audit_detects_an_altered_genesis_balance(tmp_path):
    # conservation's baseline is block 0, where Bidder.init funds the users
    _, log = run_scenario(auction_scn())
    assert audit_records(log.records).ok
    doctored = RunLog()
    doctored.records = copy.deepcopy(log.records)
    genesis = next(r for r in doctored.records if r["kind"] == "block" and r["chain"] == "coinb")
    assert genesis["height"] == 0
    writes = next(t["writes"] for t in genesis["txns"] if t["target"] == "Bidder")
    entry = next(w for w in writes if w[0] == "Bidder.balance.bob")
    entry[1] += 5
    path = tmp_path / "bad.log"
    doctored.dump(str(path))
    conservation = next(c for c in audit_run(str(path)).checks if c.name == "conservation")
    assert not conservation.passed
    assert conservation.detail.startswith("coinb at height")


def test_truncated_log_is_corrupt(tmp_path):
    _, log = run_scenario(auction_scn())
    path = tmp_path / "run.log"
    log.dump(str(path))
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:-3]) + "\n")
    with pytest.raises(CorruptLog):
        audit_run(str(path))


def test_tampered_log_checksum_fails(tmp_path):
    _, log = run_scenario(auction_scn())
    path = tmp_path / "run.log"
    log.dump(str(path))
    text = path.read_text().replace('"carol"', '"bobby"', 1)
    path.write_text(text)
    with pytest.raises(CorruptLog):
        audit_run(str(path))


# --------------------------------------------------------------------- cli


def test_cli_run_audit_replay_roundtrip(tmp_path):
    out = tmp_path / "metrics.json"
    logp = tmp_path / "run.log"
    code = simctl(
        [
            "run",
            str(scenario_path("auction")),
            "--out",
            str(out),
            "--log",
            str(logp),
        ]
    )
    assert code == 0
    metrics = json.loads(out.read_text())
    assert metrics["status"] == "ok"
    assert simctl(["audit", str(logp)]) == 0
    assert simctl(["replay", str(logp)]) == 0


def test_cli_replay_names_the_first_divergent_line(tmp_path, capsys):
    _, log = run_scenario(auction_scn())
    edited = RunLog()
    edited.records = [dict(rec) for rec in log.records]
    first_block = next(i for i, rec in enumerate(edited.records) if rec["kind"] == "block")
    edited.records[first_block]["height"] += 1
    edited.records[first_block]["tick"] += 1
    path = tmp_path / "edited.log"
    edited.dump(str(path))  # a well-formed log whose content no run gives
    capsys.readouterr()
    assert simctl(["replay", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "replay MISMATCH: log diverged from recording",
        f"line {first_block + 1}: recorded kind 'block', replayed kind 'block'; "
        "fields differ: height, tick",
    ]

    edited.records = [dict(rec) for rec in log.records[:-2]]  # lose the last two records
    edited.dump(str(path))
    assert simctl(["replay", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err[1] == f"line {len(log.records) - 1}: the replay has 2 extra lines"


def test_cli_demo_and_overrides(tmp_path, capsys):
    code = simctl(["demo", "auction", "--seed", "7", "--mode", "locks"])
    assert code == 0
    printed = capsys.readouterr().out
    metrics = json.loads(printed)
    assert metrics["seed"] == 7
    assert metrics["mode"] == "locks"


def test_cli_audit_failure_exit_code(tmp_path):
    _, log = run_scenario(auction_scn())
    doctored = RunLog()
    for rec in log.records:
        rec = dict(rec)
        if rec.get("kind") == "xtxn" and rec.get("type") == "general":
            rec["decision"] = "abort"
        doctored.records.append(rec)
    path = tmp_path / "bad.log"
    doctored.dump(str(path))
    assert simctl(["audit", str(path)]) == 2


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.scn"
    bad.write_text("mode = \"wat\"\n[chain.a]\nn = 4\nf = 1\n")
    assert simctl(["run", str(bad)]) == 1
    assert simctl(["run", str(tmp_path / "missing.scn")]) == 1
    assert simctl(["demo", "nope"]) == 1


def test_cli_corrupt_log_exit_code(tmp_path):
    path = tmp_path / "garbage.log"
    path.write_text("not json\n")
    assert simctl(["audit", str(path)]) == 1
    assert simctl(["replay", str(path)]) == 1


def test_cli_drop_rate_override(tmp_path, capsys):
    code = simctl(["demo", "auction", "--seed", "5", "--drop-rate", "0.3"])
    assert code == 0
    metrics = json.loads(capsys.readouterr().out)
    assert metrics["messages"]["dropped"] > 0


def test_cli_drop_rate_override_reaches_the_default_brokers(tmp_path, capsys):
    text = scenario_path("auction").read_text(encoding="utf-8")
    start, end = text.index("[broker.b0]"), text.index("[auction]")
    path = tmp_path / "default_brokers.scn"
    path.write_text(text[:start] + text[end:], encoding="utf-8")
    dropped = []
    for rate in ("0", "0.5"):
        assert simctl(["run", str(path), "--seed", "5", "--drop-rate", rate]) == 0
        dropped.append(json.loads(capsys.readouterr().out)["messages"]["dropped"])
    assert dropped[0] == 0 < dropped[1]
    assert DEFAULT_BROKERS == {"b0": {}, "b1": {}}


def test_max_ticks_reported_with_partial_metrics(tmp_path, capsys):
    code = simctl(["demo", "auction", "--max-ticks", "6", "--out", str(tmp_path / "m.json")])
    assert code == 1
    metrics = json.loads((tmp_path / "m.json").read_text())
    assert metrics["status"] == "max_ticks"
    assert metrics["ticks"] >= 6  # partial metrics still emitted
