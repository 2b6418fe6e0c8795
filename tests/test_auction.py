from fractions import Fraction

import pytest

import interopsim.auction as auction_module
from interopsim.audit import audit_records, check_conservation
from interopsim.auction import AuctionStart
from interopsim.fixtures import scenario_path
from interopsim.scenario import Scenario, load_scenario, run_scenario
from interopsim.txn import MODE_LOCKS, MODE_OCC
from interopsim.values import decode_record, encode_record

from harness import coin_totals, ledger_rescan_winner, mk_auction_world


def start(app, aid="a1", close=200):
    receipt, opened = app.start_auction("alice", "t1", aid, close)
    assert receipt.status == "ok"
    return opened


def test_start_auction_opens_all_three_chains():
    sim, engine, app = mk_auction_world()
    opened = start(app)
    assert opened == {"coinb": True, "coinc": True}
    assert sim.chains["tickets"].read_state("Auctioneer.ticket.t1.escrowed") is True
    assert sim.chains["coinb"].read_state("Bidder.auction.close_height") == 200


def test_start_not_owner_rejected_no_events():
    sim, engine, app = mk_auction_world()
    receipt, opened = app.start_auction("mallory", "t1", "a1", 200)
    assert receipt.status == "failed"
    assert "NotOwner" in receipt.error
    assert opened == {"coinb": False, "coinc": False}


def test_start_escrowed_ticket_rejected():
    sim, engine, app = mk_auction_world()
    start(app, aid="a1")
    receipt, _ = app.start_auction("alice", "t1", "a2", 300)
    assert receipt.status == "failed"
    assert "AlreadyEscrowed" in receipt.error


def test_provenance_cap_denies_fifth_start():
    # oracle: count auctions.* writes in the window by direct history scan
    sim, engine, app = mk_auction_world(start_limit=3)
    tchain = sim.chains["tickets"]
    for i in range(2, 6):
        tchain.submit_call("sys", "Auctioneer", "mint_ticket", [f"t{i}", "alice"])
    sim.run_until_quiescent()
    opened_flags = []
    for i in range(1, 6):
        receipt, opened = app.start_auction("alice", f"t{i}", f"a{i}", 500)
        assert receipt.status == "ok"  # ticket-side start always succeeds
        opened_flags.append(opened["coinb"])
        coinb = sim.chains["coinb"]
        window = coinb.get_history("Bidder.auctions.", 0, coinb.height)
        accepted = len(window)
        # the bidder chain accepted the start iff the previous count was <= 3
        assert opened_flags[-1] == (accepted >= 1 or i == 1)
    coinb = sim.chains["coinb"]
    accepted_starts = len(coinb.get_history("Bidder.auctions.", 0, coinb.height))
    assert accepted_starts == 4  # starts 1..4 accepted (count<=3), 5th denied
    assert coinb.read_state("Bidder.auction.id") == "a4"


def test_submit_bid_valid_and_recorded():
    sim, engine, app = mk_auction_world()
    start(app)
    receipt = app.submit_bid("coinb", "bob", "a1", 60)
    assert receipt.status == "ok"
    coinb = sim.chains["coinb"]
    assert coinb.read_state("Bidder.bids.bob") == 60
    assert coinb.read_state("Bidder.escrow.bob") == 60
    assert coinb.read_state("Bidder.balance.bob") == 40


def test_second_bid_denied_by_policy():
    sim, engine, app = mk_auction_world()
    start(app)
    assert app.submit_bid("coinb", "bob", "a1", 60).status == "ok"
    receipt = app.submit_bid("coinb", "bob", "a1", 70)
    assert receipt.status == "failed"
    assert "PolicyDenied" in receipt.error
    assert sim.chains["coinb"].read_state("Bidder.bids.bob") == 60


def test_bid_after_close_height_denied():
    sim, engine, app = mk_auction_world()
    coinb = sim.chains["coinb"]
    start(app, close=coinb.height + 3)
    # advance the bidder chain past the close height with filler txns
    for _ in range(5):
        coinb.submit_call("sys", "Bidder", "init", [])
        sim.run_until_quiescent()
    receipt = app.submit_bid("coinb", "bob", "a1", 60)
    assert receipt.status == "failed"
    assert "PolicyDenied" in receipt.error


def test_insufficient_funds():
    sim, engine, app = mk_auction_world()
    start(app)
    receipt = app.submit_bid("coinb", "bob", "a1", 1000)
    assert receipt.status == "failed"
    assert "InsufficientFunds" in receipt.error


def test_conclude_exchange_rate_winner():
    # 100 units at rate 1/2 -> 50; 40 units at rate 3/2 -> 60: coinc wins
    sim, engine, app = mk_auction_world()
    start(app)
    app.submit_bid("coinb", "bob", "a1", 100)
    app.submit_bid("coinc", "carol", "a1", 40)
    before_b = coin_totals(sim, "coinb")
    before_c = coin_totals(sim, "coinc")
    outcome = app.conclude_auction("a1", MODE_OCC)
    assert outcome.status == "concluded"
    assert (outcome.winner_chain, outcome.winner_user) == ("coinc", "carol")
    assert outcome.winner_amount == 60
    tickets = sim.chains["tickets"]
    assert tickets.read_state("Auctioneer.ticket.t1.owner") == "carol"
    assert tickets.read_state("Auctioneer.ticket.t1.escrowed") is False
    assert tickets.read_state("Auctioneer.winning_bids.a1") == 60
    coinb, coinc = sim.chains["coinb"], sim.chains["coinc"]
    # loser refunded in full
    assert coinb.read_state("Bidder.balance.bob") == 100
    assert coinb.read_state("Bidder.escrow.bob") == 0
    # winner paid the seller on her own chain
    assert coinc.read_state("Bidder.escrow.carol") == 0
    assert coinc.read_state("Bidder.balance.carol") == 40
    assert coinc.read_state("Bidder.balance.alice") == 40
    # conservation on both coin chains
    assert coin_totals(sim, "coinb") == before_b
    assert coin_totals(sim, "coinc") == before_c


def test_conclude_tie_breaks_on_earlier_height():
    sim, engine, app = mk_auction_world(
        rates={"coinb": Fraction(1), "coinc": Fraction(1)},
    )
    start(app)
    app.submit_bid("coinb", "bob", "a1", 50)
    app.submit_bid("coinc", "carol", "a1", 50)  # later bid height
    outcome = app.conclude_auction("a1", MODE_OCC)
    assert outcome.status == "concluded"
    assert (outcome.winner_chain, outcome.winner_user) == ("coinb", "bob")


def test_conclude_zero_bids_cancels():
    sim, engine, app = mk_auction_world()
    start(app)
    before_b = coin_totals(sim, "coinb")
    outcome = app.conclude_auction("a1", MODE_OCC)
    assert outcome.status == "cancelled"
    tickets = sim.chains["tickets"]
    assert tickets.read_state("Auctioneer.auction.a1.status") == "cancelled"
    assert tickets.read_state("Auctioneer.ticket.t1.escrowed") is False
    assert tickets.read_state("Auctioneer.ticket.t1.owner") == "alice"
    assert coin_totals(sim, "coinb") == before_b


@pytest.mark.parametrize("mode", [MODE_OCC, MODE_LOCKS])
def test_conclude_both_modes(mode):
    sim, engine, app = mk_auction_world()
    start(app)
    app.submit_bid("coinb", "bob", "a1", 100)
    app.submit_bid("coinc", "carol", "a1", 40)
    outcome = app.conclude_auction("a1", mode)
    assert outcome.status == "concluded"
    assert outcome.winner_user == "carol"
    assert all(sim.chains[c].locks.empty() for c in ("tickets", "coinb", "coinc"))


def test_winner_matches_ledger_rescan_oracle():
    sim, engine, app = mk_auction_world(seed=5)
    start(app)
    app.submit_bid("coinb", "bob", "a1", 90)
    app.submit_bid("coinc", "carol", "a1", 29)
    expected = ledger_rescan_winner(sim, ["coinb", "coinc"], app.rates)
    outcome = app.conclude_auction("a1", MODE_OCC)
    assert outcome.status == "concluded"
    assert (outcome.winner_chain, outcome.winner_user) == expected


def test_late_bid_race_occ_aborts_then_settles_correctly():
    sim, engine, app = mk_auction_world()
    start(app)
    app.submit_bid("coinb", "bob", "a1", 100)  # normalized 50
    # agent reads bids, then carol's higher bid lands before prepare
    task = sim.spawn(app.conclude_agent("a1", MODE_OCC, retries=3))
    # step until the conclude has performed its reads (bids snapshot taken)
    handle = None
    for _ in range(400):
        sim.step()
        recs = [r for r in engine.records.values() if r.kind == "general"]
        if recs and recs[-1].prefix_set:
            handle = recs[-1]
            break
    assert handle is not None
    app.submit_bid("coinc", "carol", "a1", 40, settle=False)  # normalized 60
    outcome = sim.pump(task.future)
    sim.run_until_quiescent()
    assert outcome.status == "concluded"
    assert outcome.attempts >= 2  # first attempt hit VersionConflict
    assert outcome.winner_user == "carol"
    assert sim.chains["tickets"].read_state("Auctioneer.ticket.t1.owner") == "carol"
    assert sim.meter.aborts.get("VersionConflict: Bidder.bids.*", 0) >= 1


def test_late_bid_race_locks_blocks_the_bid():
    sim, engine, app = mk_auction_world()
    start(app)
    app.submit_bid("coinb", "bob", "a1", 100)
    task = sim.spawn(app.conclude_agent("a1", MODE_LOCKS, retries=3))
    handle = None
    for _ in range(400):
        sim.step()
        recs = [r for r in engine.records.values() if r.kind == "general"]
        if recs and recs[-1].prefix_set:
            handle = recs[-1]
            break
    assert handle is not None
    txid = app.submit_bid("coinc", "carol", "a1", 40, settle=False)
    outcome = sim.pump(task.future)
    sim.run_until_quiescent()
    # the late bid hit the predicate lock and failed; bob keeps the win
    assert outcome.status == "concluded"
    assert outcome.winner_user == "bob"
    receipt = app._receipt_of(sim.chains["coinc"], txid)
    assert receipt is not None and receipt.status == "failed"
    assert "LockConflict" in receipt.error
    assert all(sim.chains[c].locks.empty() for c in ("tickets", "coinb", "coinc"))


def test_conclude_under_faults_still_atomic():
    for seed in range(10):
        sim, engine, app = mk_auction_world(seed=seed, drop=0.2, duplicate=0.1, replay=0.1)
        start(app)
        app.submit_bid("coinb", "bob", "a1", 100)
        app.submit_bid("coinc", "carol", "a1", 40)
        outcome = app.conclude_auction("a1", MODE_OCC, retries=5)
        assert outcome.status == "concluded"
        assert outcome.winner_user == "carol"
        # conservation: totals never change (coinb funded 100, coinc 80)
        assert coin_totals(sim, "coinb") == 100
        assert coin_totals(sim, "coinc") == 80
        assert sim.chains["coinc"].read_state("Bidder.balance.alice") == 40


def test_failed_conclude_releases_its_locks():
    # a read that exhausts its retry budget ends the conclude in error; the
    # conclude must still abort its transaction, so no lock outlives the run
    errors = 0
    for seed in range(30):
        raw = load_scenario(str(scenario_path("auction")))
        raw.update(seed=seed, mode=MODE_LOCKS, direct_drop_rate=0.3)
        metrics, log = run_scenario(Scenario.from_dict(raw))
        assert metrics.status == "ok"
        report = audit_records(log.records)
        assert report.ok, f"seed {seed}:\n{report.render()}"
        errors += sum(o["status"] == "error" for o in metrics.outcomes)
    assert errors >= 1


@pytest.mark.parametrize("mode", [MODE_OCC, MODE_LOCKS])
def test_packaged_conclude_reads_in_one_wave(mode):
    raw = load_scenario(str(scenario_path("auction")))
    raw.update(seed=1, mode=mode)
    conclude_at = next(e["tick"] for e in raw["script"] if e["action"] == "conclude")
    metrics, log = run_scenario(Scenario.from_dict(raw))
    assert [o["status"] for o in metrics.outcomes] == ["concluded"]
    decided_at = [
        rec["tick"]
        for rec in log.records
        if rec["kind"] == "block" and rec["chain"] == "tickets"
        for txn in rec["txns"]
        if any(key.endswith(".decision") for key, _ in txn["writes"])
    ]
    # the read wave (the auction record; bids, escrows and balances on each
    # bidder chain) costs a request and a response leg, and 2PC takes 2, a
    # bus hop for the prepare and one for the vote; locks mode spends 2 more
    # on the write locks no prefix lock covers
    assert decided_at == [conclude_at + {MODE_OCC: 4, MODE_LOCKS: 6}[mode]]
    k = 3 * 2  # bids, escrow and balance prefixes on two remote bidder chains
    assert [v for v in metrics.round_trips.values() if v > 2] == [k + 2]
    if mode == MODE_OCC:  # the auction record's prefix read, and k more
        assert metrics.messages["direct_sent"] == 1 + k


@pytest.mark.parametrize("mode", [MODE_OCC, MODE_LOCKS])
def test_seller_who_bids_and_loses_is_credited_refund_and_price(mode):
    # alice sells, then bids 20 on coinc and loses to carol's 40 there: two
    # settlement steps credit Bidder.balance.alice on coinc, and both land
    sim, engine, app = mk_auction_world(
        balances={"coinb": {"bob": 100, "alice": 0}, "coinc": {"carol": 80, "alice": 30}},
    )
    start(app)
    assert app.submit_bid("coinb", "bob", "a1", 100).status == "ok"  # normalized 50
    assert app.submit_bid("coinc", "alice", "a1", 20).status == "ok"  # normalized 30
    assert app.submit_bid("coinc", "carol", "a1", 40).status == "ok"  # normalized 60
    coinc = sim.chains["coinc"]
    before = coinc.read_state("Bidder.balance.alice")
    outcome = app.conclude_auction("a1", mode)
    assert (outcome.status, outcome.winner_user) == ("concluded", "carol")
    assert coinc.read_state("Bidder.balance.alice") == before + 20 + 40
    assert coinc.read_state("Bidder.escrow.alice") == 0
    assert coinc.read_state("Bidder.escrow.carol") == 0
    assert coin_totals(sim, "coinc") == 110
    assert check_conservation(sim.log.records).passed
    assert all(sim.chains[c].locks.empty() for c in ("tickets", "coinb", "coinc"))
    for t in engine.records.values():  # escrows and balances come from one prefix read each
        prefixes = [(chain, prefix) for chain, prefix, _ in t.prefix_set]
        for chain in ("coinb", "coinc"):
            assert prefixes.count((chain, "Bidder.escrow.")) == 1
            assert prefixes.count((chain, "Bidder.balance.")) == 1
        assert not [key for _, key, _ in t.read_set if key.startswith(("Bidder.escrow.", "Bidder.balance."))]


def test_locks_mode_conclude_locks_escrow_and_balance_prefixes():
    raw = load_scenario(str(scenario_path("auction")))
    raw.update(seed=1, mode=MODE_LOCKS)
    metrics, log = run_scenario(Scenario.from_dict(raw))
    assert [o["status"] for o in metrics.outcomes] == ["concluded"]
    acquired = [(rec["chain"], rec["key"]) for rec in log.records if rec["kind"] == "lock" and rec["op"] == "acquire"]
    for chain in ("coinb", "coinc"):
        assert (chain, "Bidder.escrow.") in acquired
        assert (chain, "Bidder.balance.") in acquired
    coin_keys = {key for _, key in acquired if key.startswith(("Bidder.escrow.", "Bidder.balance."))}
    assert coin_keys == {"Bidder.escrow.", "Bidder.balance."}  # no Bidder.escrow.<user> or balance.<user>
    # 7 prefix locks (the auction record; bids, escrows and balances on each
    # bidder chain) and 5 write locks: ticket owner and escrowed, the winning
    # bid and each bidder chain's auction status
    assert len(acquired) == 12, acquired


def test_start_payload_bytes_unchanged_by_its_record_type():
    assert encode_record(AuctionStart("a", 7)) == encode_record(("a", 7))
    assert decode_record(encode_record(("a", 7)), AuctionStart) == AuctionStart("a", 7)


@pytest.mark.parametrize("close", ["soon", True, None, b"\x00"])
def test_ill_typed_close_height_refused_before_escrow(close):
    sim, engine, app = mk_auction_world()
    receipt, opened = app.start_auction("alice", "t1", "a1", close)
    assert receipt.status == "failed" and receipt.error.startswith("TypeMismatch")
    assert opened == {"coinb": False, "coinc": False}
    assert sim.chains["tickets"].read_state("Auctioneer.ticket.t1.escrowed") is False
    assert sim.chains["tickets"].read_state("Auctioneer.auction.a1.status") is None
    for cid in ("coinb", "coinc"):  # no start event went out
        assert not [t for b in sim.chains[cid].blocks for t in b.txns if t.method == "__event__"]
    # the ticket is still free: a well-typed start goes through
    assert start(app, aid="a2") == {"coinb": True, "coinc": True}


def test_ill_typed_start_payload_fails_at_the_bidders(monkeypatch):
    # an Auctioneer that emits a string close height, as a faulty source would
    monkeypatch.setattr(
        auction_module,
        "encode_record",
        lambda start: encode_record((start.auction_id, str(start.close_height))),
    )
    sim, engine, app = mk_auction_world()
    receipt, opened = app.start_auction("alice", "t1", "a1", 200)
    assert receipt.status == "ok"  # the Auctioneer's own checks pass
    assert opened == {"coinb": False, "coinc": False}
    for cid in ("coinb", "coinc"):
        chain = sim.chains[cid]
        receipts = [
            r
            for block in chain.blocks
            for txn, r in zip(block.txns, block.receipts)
            if txn.method == "__event__"
        ]
        assert len(receipts) == 1
        assert receipts[0].status == "failed" and receipts[0].error.startswith("EncodingError")
        assert chain.read_state("Bidder.auction.id") is None
