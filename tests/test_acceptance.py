"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest -s tests/test_acceptance.py` to see the verdict lines; the
whole suite stays within a couple of minutes on a laptop.
"""

import random

import pytest

from interopsim.audit import audit_records
from interopsim.errors import ParseError, StaleQuorum
from interopsim.fixtures import (
    POLICY_CLASSES,
    policy_requests,
    policy_text,
    scenario_path,
)
from interopsim.merkle import ABSENCE, MEMBERSHIP, MerkleMap, MerkleProof, verify_proof
from interopsim.policy import (
    AccessRequest,
    MapEvalContext,
    Policy,
    evaluate,
    parse_policy,
    print_policy,
)
from interopsim.scenario import Scenario, load_scenario, run_scenario
from interopsim.txn import Committed, MiniTxn
from interopsim.values import encode_record

from harness import World
from oracles import find_serial_order, run_interleaved
from policy_fuzz import gen_policy


def _verdict(criterion: int, passed: bool, detail: str) -> None:
    mark = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {mark} - {detail}")
    assert passed, detail


def _auction_raw(seed: int, drop: float, byz_behavior: str):
    raw = load_scenario(str(scenario_path("auction")))
    raw["seed"] = seed
    for spec in raw["broker"].values():
        spec["drop_rate"] = drop
        spec["duplicate_rate"] = 0.1
        spec["replay_rate"] = 0.1
    node = f"node{seed % 4}"
    for spec in raw["chain"].values():
        spec["byzantine"] = f"{node}:{byz_behavior}"
    return raw


def _quorum_loss_raw(chain: str, tick: int):
    """The demo auction with two of `chain`'s four nodes silent for one tick."""
    raw = load_scenario(str(scenario_path("auction")))
    for at, behavior in ((tick, "silent"), (tick + 1, "honest")):
        for node in ("node0", "node1"):
            raw["script"].append(
                {"tick": at, "action": "set_byzantine", "chain": chain, "node": node, "behavior": behavior}
            )
    return raw


def test_criterion_1_atomicity_sweep():
    """500 seeded auction runs under faults, plus one lost block on the
    coordinator or a participant at every tick of the conclude: 0
    atomicity or conservation violations."""
    violations = []
    runs = 0
    for i in range(500):
        drop = (0.0, 0.1, 0.3)[i % 3]
        behavior = ("silent", "equivocate")[i % 2]
        raw = _auction_raw(seed=i, drop=drop, byz_behavior=behavior)
        metrics, log = run_scenario(Scenario.from_dict(raw))
        runs += 1
        if metrics.status != "ok":
            violations.append(f"run {i}: status {metrics.status}")
            continue
        report = audit_records(log.records)
        for check in report.checks:
            if check.name in ("atomicity", "conservation") and not check.passed:
                violations.append(f"run {i}: {check.name}: {check.detail}")
            elif not check.passed:
                violations.append(f"run {i}: {check.name}: {check.detail}")
    lost = 0
    for chain in ("tickets", "coinb"):  # the coordinator, then a participant
        for tick in range(24, 90):
            metrics, log = run_scenario(Scenario.from_dict(_quorum_loss_raw(chain, tick)))
            lost += 1
            if metrics.status != "ok":
                violations.append(f"{chain}@{tick}: status {metrics.status}")
                continue
            for check in audit_records(log.records).checks:
                if not check.passed:
                    violations.append(f"{chain}@{tick}: {check.name}: {check.detail}")
    _verdict(
        1,
        not violations,
        f"{runs} fault-injected runs and {lost} quorum-loss runs, {len(violations)} violations"
        + (f"; first: {violations[0]}" if violations else ""),
    )


def test_criterion_2_serializability_oracle():
    """100 random small scenarios equal some serial order (brute force)."""
    failures = []
    for i in range(100):
        rng = random.Random(1000 + i)
        n_chains = rng.randint(2, 3)
        n_txns = rng.randint(3, 8)
        initial, final, committed, first_guess, world = run_interleaved(
            seed=1000 + i, n_chains=n_chains, n_txns=n_txns
        )
        order = find_serial_order(initial, final, committed, first_guess)
        if order is None:
            failures.append(
                f"scenario {i}: no serial order for {len(committed)} committed txns"
            )
        if not world.locks_empty():
            failures.append(f"scenario {i}: locks leaked")
    _verdict(
        2,
        not failures,
        f"100/100 scenarios matched a serial order"
        if not failures
        else f"{len(failures)} failed; first: {failures[0]}",
    )


def test_criterion_3_freshness_and_authenticity():
    """1000 injected replays all rejected; the f / f+1 forgery boundary is
    exact."""
    rejected = 0
    injected = 0

    # 500 replayed read responses under rotating nonces
    w = World()
    w.set_kv("beta", "x", 123)
    captured = None
    for i in range(500):
        injected += 1
        if i % 10 == 0:
            req = w.engine.make_read_request("beta", contract="kv", method="get", args=("x",))
            captured = w.sim.pump(w.sim.direct_request("beta", encode_record(req)))
        fresh = w.engine.make_read_request("beta", contract="kv", method="get", args=("x",))
        try:
            w.engine.verify_response(fresh, captured)
        except StaleQuorum:
            rejected += 1

    # 500 replayed signed event batches
    w2 = World(seed=9)
    chain = w2.chains["alpha"]
    contract = chain.contracts["kv"]
    contract.handlers = dict(contract.handlers)
    contract.handlers["emit"] = lambda self, ctx, args: ctx.emit("beta", "kv", 16, b"x")
    for _ in range(50):
        chain.submit_call("alice", "kv", "emit", [])
    w2.settle()
    accepted_before = len(w2.chains["beta"].state_items("kv.inbox."))
    history = list(w2.sim.brokers[0].history)
    assert history
    dup_before = w2.sim.meter.rejected_dup
    count = 0
    i = 0
    while count < 500:
        topic, raw = history[i % len(history)]
        w2.sim.brokers[0]._enqueue(topic, w2.sim.tick, raw)
        count += 1
        i += 1
    injected += count
    w2.settle()
    accepted_after = len(w2.chains["beta"].state_items("kv.inbox."))
    rejected += (w2.sim.meter.rejected_dup - dup_before) if accepted_after == accepted_before else 0

    # forgery boundary: f signers never deliver, f+1 signers always do
    boundary_ok = True
    from interopsim.bus import Event

    for forger in range(4):
        w3 = World(seed=20 + forger)
        chain3 = w3.chains["alpha"]
        node = chain3.cfg.node_ids()[forger]
        forged = Event("alpha", "beta", "kv", "kv", nonce=900_000 + forger, kind=16, payload=b"f")
        w3.sim.emit_event(chain3, forged, forged_by=[node])
        w3.settle()
        if w3.chains["beta"].state_items("kv.inbox."):
            boundary_ok = False
    w4 = World(seed=30)
    chain4 = w4.chains["alpha"]
    colluders = chain4.cfg.node_ids()[:2]  # f+1 = 2
    forged = Event("alpha", "beta", "kv", "kv", nonce=901_000, kind=16, payload=b"f")
    w4.sim.emit_event(chain4, forged, forged_by=colluders)
    w4.settle()
    if len(w4.chains["beta"].state_items("kv.inbox.")) != 1:
        boundary_ok = False

    passed = rejected == injected == 1000 and boundary_ok
    _verdict(
        3,
        passed,
        f"{rejected}/{injected} replays rejected; f/f+1 boundary exact: {boundary_ok}",
    )


def test_criterion_4_round_trip_accounting():
    """Committed mini-txns meter exactly 2 round trips; the conclude general
    transaction meters at least k+2, strictly more than 2."""
    mini_bad = []
    committed_minis = 0
    for seed in range(60):
        w = World(drop=0.15, seed=seed, log=False)
        mt = MiniTxn(
            compares=(("alpha", "kv.s", None),),
            reads=(("beta", "kv.r"),),
            writes=(("alpha", "kv.s", seed), ("beta", "kv.t", seed)),
        )
        fut = w.engine.execute_minitxn_async("alpha", mt)
        w.settle()
        result = fut.result()
        if isinstance(result, Committed):
            committed_minis += 1
            txid = [t for t in w.sim.meter.round_trips][-1]
            if w.sim.meter.round_trips[txid] != 2:
                mini_bad.append(f"seed {seed}: {w.sim.meter.round_trips[txid]} trips")

    conclude_bad = []
    for seed in (0, 1, 2, 3, 4):
        raw = load_scenario(str(scenario_path("auction")))
        raw["seed"] = seed
        metrics, _ = run_scenario(Scenario.from_dict(raw))
        k = 2 + 2 * 2  # six remote prefix reads: bids, escrows and balances on 2 bidder chains
        gt = [v for v in metrics.round_trips.values() if v > 2]
        if not gt or gt[-1] < k + 2:
            conclude_bad.append(f"seed {seed}: trips {gt}, want >= {k + 2}")
    passed = not mini_bad and not conclude_bad and committed_minis >= 50
    _verdict(
        4,
        passed,
        f"{committed_minis} committed mini-txns all at exactly 2 trips; "
        f"conclude metered >= k+2 in 5/5 runs",
    )


def test_criterion_5_late_bid_race():
    """200 seeded interleavings of the late-bid race: OCC aborts with
    VersionConflict, Locks blocks the bid, never a wrong winner."""
    wrong = []
    occ_conflicts = 0
    locks_blocked = 0
    for i in range(200):
        mode = "occ" if i < 100 else "locks"
        raw = load_scenario(str(scenario_path("auction")))
        raw["seed"] = i
        raw["mode"] = mode
        raw["latency_jitter"] = 2
        # sweep the late bid across the whole read->prepare window (~40 ticks)
        delta = i % 40
        raw["script"] = [
            {"tick": 2, "action": "start_auction", "auction": "a1", "close_height": 200},
            {"tick": 10, "action": "submit_bid", "chain": "coinb", "user": "bob", "amount": 100},
            {"tick": 24, "action": "conclude", "auction": "a1"},
            {"tick": 26 + delta, "action": "submit_bid", "chain": "coinc", "user": "carol", "amount": 40},
        ]
        raw["script"].sort(key=lambda e: e["tick"])
        metrics, log = run_scenario(Scenario.from_dict(raw))
        if metrics.status != "ok":
            wrong.append(f"run {i}: status {metrics.status}")
            continue
        report = audit_records(log.records)
        if not report.ok:
            wrong.append(f"run {i}: {report.render()}")
            continue
        conclude = [o for o in metrics.outcomes if o["action"] == "conclude"][0]
        if conclude["status"] != "concluded":
            wrong.append(f"run {i}: conclude {conclude['status']}")
            continue
        version_conflicts = sum(
            n for reason, n in metrics.aborts.items() if "VersionConflict" in reason
        )
        if mode == "occ":
            occ_conflicts += version_conflicts
            # whenever carol's bid is visible in the ledger, she must win
            if conclude["attempts"] > 1 and conclude["winner_user"] != "carol":
                wrong.append(f"run {i}: retried but winner {conclude['winner_user']}")
        else:
            if version_conflicts:
                wrong.append(f"run {i}: locks mode saw a version conflict")
            if conclude["winner_user"] == "carol":
                # carol can only win by landing before the predicate lock
                pass
            else:
                locks_blocked += 1
    passed = not wrong and occ_conflicts > 0 and locks_blocked > 0
    _verdict(
        5,
        passed,
        f"200 interleavings audited; occ VersionConflict aborts={occ_conflicts}, "
        f"locks races blocked={locks_blocked}, wrong winners={len(wrong)}"
        + (f"; first: {wrong[0]}" if wrong else ""),
    )


def test_criterion_6_policy_suite():
    """Four policy-class fixtures pass their request fixtures; deny-by-default
    holds; a 10^4 fuzz corpus round-trips with zero crashes."""
    failures = []
    requests = policy_requests()
    for name in POLICY_CLASSES:
        ast = parse_policy(policy_text(name))
        for request in requests[name]["positive"]:
            ctx = MapEvalContext(
                request.get("state", {}),
                version_log=[tuple(e) for e in request.get("version_log", [])],
            )
            req = AccessRequest(
                caller_id=request["caller_id"],
                caller_chain=request["caller_chain"],
                action=request["action"],
                resource=request["resource"],
                height=request["height"],
            )
            if not evaluate(ast, req, ctx).allowed:
                failures.append(f"{name}: positive fixture denied: {request}")
        for request in requests[name]["negative"]:
            ctx = MapEvalContext(
                request.get("state", {}),
                version_log=[tuple(e) for e in request.get("version_log", [])],
            )
            req = AccessRequest(
                caller_id=request["caller_id"],
                caller_chain=request["caller_chain"],
                action=request["action"],
                resource=request["resource"],
                height=request["height"],
            )
            if evaluate(ast, req, ctx).allowed:
                failures.append(f"{name}: negative fixture allowed: {request}")

    empty = evaluate(
        Policy(rules=()),
        AccessRequest("u", "c", "read", "anything", height=1),
        MapEvalContext(),
    )
    if empty.allowed or empty.reason != "no matching rule":
        failures.append("deny-by-default violated on the empty policy")

    rng = random.Random(2024)
    crashes = 0
    roundtrip_failures = 0
    for _ in range(10_000):
        src = gen_policy(rng)
        try:
            ast = parse_policy(src)
            if parse_policy(print_policy(ast)) != ast:
                roundtrip_failures += 1
        except Exception:
            crashes += 1
    for _ in range(2_000):
        src = gen_policy(rng)
        pos = rng.randrange(len(src))
        mutated = src[:pos] + rng.choice(";()*!&|#\"x9") + src[pos + 1 :]
        try:
            parse_policy(mutated)
        except ParseError:
            pass
        except Exception:
            crashes += 1
    if crashes or roundtrip_failures:
        failures.append(f"{crashes} crashes, {roundtrip_failures} round-trip failures")
    _verdict(
        6,
        not failures,
        "4 policy classes, deny-by-default, 10k fuzz round-trips clean"
        if not failures
        else failures[0],
    )


def test_criterion_7_proof_soundness():
    """10^4 fuzzed proofs verify; 10^4 single-byte mutations all fail."""
    rng = random.Random(777)
    verified = 0
    mutations_failed = 0
    total = 10_000
    rounds = 0
    while verified < total:
        rounds += 1
        n = rng.randint(1, 28)
        items = {}
        while len(items) < n:
            key = bytes(rng.randrange(256) for _ in range(rng.randint(1, 10)))
            items[key] = rng.choice(
                [rng.randrange(-(10**6), 10**6), "v" + "x" * rng.randint(0, 4), None, True]
            )
        tree = MerkleMap(items)
        keys = sorted(items)
        for _ in range(min(40, total - verified)):
            if rng.random() < 0.5:
                key = keys[rng.randrange(len(keys))]
            else:
                key = bytes(rng.randrange(256) for _ in range(rng.randint(1, 10)))
            proof = tree.prove(key)
            if not verify_proof(tree.root, proof):
                _verdict(7, False, f"honest proof failed: {key!r}")
            verified += 1
            if _mutate_and_check(rng, tree.root, proof):
                mutations_failed += 1
    passed = mutations_failed == verified == total
    _verdict(
        7,
        passed,
        f"{verified} fuzzed proofs verified; {mutations_failed}/{total} mutations rejected",
    )


def _flip(raw: bytes, rng) -> bytes:
    pos = rng.randrange(len(raw))
    return raw[:pos] + bytes([raw[pos] ^ (1 << rng.randrange(8))]) + raw[pos + 1 :]


def _mutate_and_check(rng, root, proof) -> bool:
    """Apply one single-byte mutation to committed content; True if rejected."""
    if proof.kind == MEMBERSHIP:
        choices = ["key", "value"] + (["path"] if proof.path else [])
        what = rng.choice(choices)
        if what == "key":
            bad = MerkleProof(MEMBERSHIP, _flip(proof.leaf_key, rng), proof.leaf_value, proof.path)
        elif what == "value":
            bad = MerkleProof(MEMBERSHIP, proof.leaf_key, _mutate_value(proof.leaf_value, rng), proof.path)
        else:
            i = rng.randrange(len(proof.path))
            bad_path = proof.path[:i] + (_flip(proof.path[i], rng),) + proof.path[i + 1 :]
            bad = MerkleProof(MEMBERSHIP, proof.leaf_key, proof.leaf_value, bad_path)
        return not verify_proof(root, bad)
    # absence: mutate the terminal leaf (key or value) or a path sibling; a
    # tree of at least one item always gives the proof one of them
    what = rng.choice((["key", "value"] if proof.terminal else []) + (["path"] if proof.path else []))
    terminal, path = proof.terminal, proof.path
    if what == "key":
        terminal = (_flip(terminal[0], rng), terminal[1])
    elif what == "value":
        terminal = (terminal[0], _mutate_value(terminal[1], rng))
    else:
        i = rng.randrange(len(path))
        path = path[:i] + (_flip(path[i], rng),) + path[i + 1 :]
    bad = MerkleProof(ABSENCE, proof.leaf_key, path=path, terminal=terminal)
    return not verify_proof(root, bad)


def _mutate_value(value, rng):
    if value is None:
        return 0
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value ^ (1 << rng.randrange(16))
    return value + "z" if isinstance(value, str) else value + b"z"


def test_criterion_8_determinism():
    """Any scenario re-run with the same seed is byte-identical: state roots,
    logs, and metrics."""
    mismatches = []
    for variant in ("clean", "faulted"):
        raw = load_scenario(str(scenario_path("auction")))
        raw["seed"] = 99
        if variant == "faulted":
            for spec in raw["broker"].values():
                spec["drop_rate"] = 0.3
                spec["duplicate_rate"] = 0.1
                spec["replay_rate"] = 0.1
            for spec in raw["chain"].values():
                spec["byzantine"] = "node1:silent"
        m1, l1 = run_scenario(Scenario.from_dict(raw))
        m2, l2 = run_scenario(Scenario.from_dict(raw))
        if m1.to_json() != m2.to_json():
            mismatches.append(f"{variant}: metrics differ")
        if l1.lines() != l2.lines():
            mismatches.append(f"{variant}: logs differ")
        if m1.state_roots != m2.state_roots:
            mismatches.append(f"{variant}: state roots differ")
    _verdict(
        8,
        not mismatches,
        "clean and faulted fixtures replay byte-identical"
        if not mismatches
        else "; ".join(mismatches),
    )
