import dataclasses
import random

import pytest

import interopsim.txn as txn_module
from interopsim.audit import audit_records
from interopsim.bus import KIND_DECIDE, KIND_PREPARE, KIND_VOTE, Event
from interopsim.chain import Behavior, Contract
from interopsim.errors import (
    EncodingError,
    InvalidState,
    LockTimeout,
    PolicyDenied,
    ProofInvalid,
    StaleQuorum,
)
from interopsim.fixtures import scenario_path
from interopsim.merkle import MerkleProof
from interopsim.metrics import RunMetrics
from interopsim.scenario import Scenario, load_scenario, run_scenario
from interopsim.txn import (
    Aborted,
    Committed,
    MODE_LOCKS,
    MODE_OCC,
    MiniTxn,
    Prepare,
    ReadRequest,
    Outcome,
    ReadResponse,
    Vote,
    XTxnEngine,
    read_response_digest,
)
from interopsim.values import decode_record, encode_record

from harness import World, queued_for, step_until


# ------------------------------------------------------------ verified reads


def test_storage_path_read_with_proof():
    w = World()
    w.set_kv("beta", "x", 41)
    req = w.engine.make_read_request("beta", key="kv.x")
    resp = w.engine.verified_read(req)
    assert resp.value == 41
    assert resp.proof is not None
    assert resp.anchor_height == w.chains["beta"].height
    assert resp.version is not None


def test_storage_path_absent_key_null_with_absence_proof():
    w = World()
    w.set_kv("beta", "x", 1)
    req = w.engine.make_read_request("beta", key="kv.nothing")
    resp = w.engine.verified_read(req)
    assert resp.value is None
    assert resp.proof.kind == "absence"


def test_contract_path_read_quorum():
    w = World()
    w.set_kv("beta", "a", 30)
    w.set_kv("beta", "b", 12)
    req = w.engine.make_read_request("beta", contract="kv", method="sum2", args=("a", "b"))
    resp = w.engine.verified_read(req)
    assert resp.value == 42
    # all four nodes sign the same digest
    assert len(resp.signatures) == 4


def test_contract_path_two_matching_signatures_accept():
    # f=1: 2 matching signatures suffice even with 2 silent nodes
    w = World()
    w.set_kv("beta", "a", 5)
    chain = w.chains["beta"]
    nodes = chain.cfg.node_ids()
    chain.byzantine[nodes[0]] = Behavior.SILENT
    chain.byzantine[nodes[1]] = Behavior.SILENT
    req = w.engine.make_read_request("beta", contract="kv", method="get", args=("a",))
    resp = w.engine.verified_read(req)
    assert resp.value == 5
    assert len(resp.signatures) == 2


def test_contract_path_differing_digests_stale_quorum():
    # 2 signatures exist but only 1 matches the response digest
    w = World()
    w.set_kv("beta", "a", 5)
    chain = w.chains["beta"]
    nodes = chain.cfg.node_ids()
    chain.byzantine[nodes[0]] = Behavior.SILENT
    chain.byzantine[nodes[1]] = Behavior.SILENT
    chain.byzantine[nodes[2]] = Behavior.EQUIVOCATE
    req = w.engine.make_read_request("beta", contract="kv", method="get", args=("a",))
    with pytest.raises(StaleQuorum):
        w.engine.verified_read(req)


def test_replayed_response_rejected_under_new_nonce():
    w = World()
    w.set_kv("beta", "x", 9)
    req1 = w.engine.make_read_request("beta", contract="kv", method="get", args=("x",))
    raw1 = w.sim.pump(w.sim.direct_request("beta", encode_record(req1)))
    assert w.engine.verify_response(req1, raw1).value == 9
    # adversary replays the captured response against a fresh request
    req2 = w.engine.make_read_request("beta", contract="kv", method="get", args=("x",))
    with pytest.raises(StaleQuorum):
        w.engine.verify_response(req2, raw1)


def test_tampered_value_fails_verification():
    w = World()
    w.set_kv("beta", "x", 9)
    req = w.engine.make_read_request("beta", contract="kv", method="get", args=("x",))
    raw = w.sim.pump(w.sim.direct_request("beta", encode_record(req)))
    resp = decode_record(raw, ReadResponse)
    forged = ReadResponse(
        value=1000,  # tampered value, original signatures
        anchor_height=resp.anchor_height,
        nonce=resp.nonce,
        signatures=resp.signatures,
    )
    with pytest.raises(StaleQuorum):
        w.engine.verify_response(req, encode_record(forged))


def test_tampered_proof_fails_verification():
    w = World()
    w.set_kv("beta", "x", 9)
    req = w.engine.make_read_request("beta", key="kv.x")
    raw = w.sim.pump(w.sim.direct_request("beta", encode_record(req)))
    resp = decode_record(raw, ReadResponse)
    proof = resp.proof
    bad_proof = MerkleProof(
        kind=proof.kind,
        leaf_key=proof.leaf_key,
        leaf_value=77,
        path=proof.path,
        root_height=proof.root_height,
    )
    forged = ReadResponse(
        value=resp.value,
        anchor_height=resp.anchor_height,
        nonce=resp.nonce,
        signatures=resp.signatures,
        proof=bad_proof,
    )
    with pytest.raises(ProofInvalid):
        w.engine.verify_response(req, encode_record(forged))


def _storage_response(w, key="kv.x"):
    """A storage-path read of `key` on beta: the request and its raw response."""
    req = w.engine.make_read_request("beta", key=key)
    return req, w.sim.pump(w.sim.direct_request("beta", encode_record(req)))


def test_a_malformed_proof_in_a_response_is_refused():
    w = World()
    w.set_kv("beta", "x", 9)
    req, raw = _storage_response(w)
    resp = decode_record(raw, ReadResponse)
    assert w.engine.verify_response(req, raw).value == 9
    # bytes after the proof's own record: the response no longer decodes
    proof_raw = encode_record(resp.proof)
    end = raw.index(proof_raw) + len(proof_raw)
    for junk in (b"\x00" * 13, encode_record((b"",)), bytes([4, 0, 0, 0, 0])):
        with pytest.raises(EncodingError):
            w.engine.verify_response(req, raw[:end] + junk + raw[end:])
    # a sibling that is not a 32-byte digest, and a kind neither membership nor absence
    assert resp.proof.path
    long_sibling = (resp.proof.path[0] + b"\x00", *resp.proof.path[1:])
    for bad in (
        dataclasses.replace(resp.proof, path=long_sibling),
        dataclasses.replace(resp.proof, kind="presence"),
    ):
        with pytest.raises(ProofInvalid):
            w.engine.verify_response(req, encode_record(dataclasses.replace(resp, proof=bad)))


def test_negative_anchor_height_is_refused_as_stale():
    w = World()
    w.set_kv("beta", "x", 9)
    storage_req, storage_raw = _storage_response(w)
    contract_req = w.engine.make_read_request("beta", contract="kv", method="get", args=("x",))
    contract_raw = w.sim.pump(w.sim.direct_request("beta", encode_record(contract_req)))
    for req, raw in ((storage_req, storage_raw), (contract_req, contract_raw)):
        resp = decode_record(raw, ReadResponse)
        assert w.engine.verify_response(req, raw).value == 9
        with pytest.raises(StaleQuorum):
            w.engine.verify_response(req, encode_record(dataclasses.replace(resp, anchor_height=-1)))


def _resigned(chain, resp, **changes):
    """`resp` with `changes`, signed afresh by the first node."""
    resp = dataclasses.replace(resp, **changes)
    node_id, key = next(iter(chain.signing_keys.items()))
    sig = chain.scheme.sign(key, read_response_digest(resp.value, resp.nonce, resp.anchor_height))
    return dataclasses.replace(resp, signatures=((node_id, sig),))


def _weak_anchor_cert(chain, req, resp):
    block = chain.blocks[resp.anchor_height]
    cert = dataclasses.replace(block.cert, signatures=block.cert.signatures[:2])
    chain.blocks[resp.anchor_height] = dataclasses.replace(block, cert=cert)
    return req, resp


# each case changes an honest storage-path read of kv.x = 9 (kv.y = 9 too)
_STORAGE_REFUSALS = {
    "no signatures": (
        lambda chain, req, resp: (req, dataclasses.replace(resp, signatures=())),
        StaleQuorum, "lacks a valid signature",
    ),
    "anchor certificate of 2 signatures": (_weak_anchor_cert, ProofInvalid, "certificate invalid"),
    "anchor height below the proof's": (
        lambda chain, req, resp: (req, _resigned(chain, resp, anchor_height=resp.anchor_height - 1)),
        ProofInvalid, "different height",
    ),
    "proof of another key with the same value": (
        lambda chain, req, resp: (req, dataclasses.replace(resp, proof=chain.get_proof("kv.y"))),
        ProofInvalid, "different key",
    ),
    "membership proof of another value": (
        lambda chain, req, resp: (req, _resigned(chain, resp, value=10)),
        ProofInvalid, "value mismatch",
    ),
    "absence proof under a value": (
        lambda chain, req, resp: (
            dataclasses.replace(req, key="kv.m"),
            _resigned(chain, resp, value=5, proof=chain.get_proof("kv.m")),
        ),
        ProofInvalid, "absence proof",
    ),
}


@pytest.mark.parametrize("case", list(_STORAGE_REFUSALS))
def test_every_storage_path_check_refuses_its_forgery(case):
    w = World()
    w.set_kv("beta", "x", 9)
    w.set_kv("beta", "y", 9)
    req, raw = _storage_response(w)
    assert w.engine.verify_response(req, raw).value == 9
    forge, error, reason = _STORAGE_REFUSALS[case]
    req, forged = forge(w.chains["beta"], req, decode_record(raw, ReadResponse))
    with pytest.raises(error, match=reason):
        w.engine.verify_response(req, encode_record(forged))


def _serve(w, req):
    """The target chain's response to `req`, decoded, without the channel."""
    return decode_record(w.engine._serve_direct(encode_record(req), w.sim.tick), ReadResponse)


_REFUSAL_RAISES = {"denied": PolicyDenied, "error": StaleQuorum}


def _assert_refused(w, req, status):
    """The target chain refuses `req` with `status`, and `verified_read` raises for it."""
    resp = _serve(w, req)
    assert (resp.status, resp.value) == (status, None), (req, resp.status, resp.reason)
    with pytest.raises(_REFUSAL_RAISES[status]):
        w.engine.verified_read(req)


def test_policy_gated_read_denied():
    w = World()
    w.set_kv("beta", "secret", 1)
    w.chains["beta"].submit_call(
        "sys", "sys.policy", "attach", ["kv", 'allow read on open.*;']
    )
    w.settle()
    req = w.engine.make_read_request(
        "beta", key="kv.secret", caller_id="nosy", caller_chain="alpha"
    )
    with pytest.raises(PolicyDenied):
        w.engine.verified_read(req)


def test_aggregate_read_exposes_only_the_scalar():
    w = World()
    w.set_kv("beta", "bids.a", 3)
    w.set_kv("beta", "bids.b", 7)
    w.chains["beta"].submit_call(
        "sys", "sys.policy", "attach", ["kv", 'allow read on agg.sum.bids when caller.id == "auditor";']
    )
    w.settle()
    agg_req = w.engine.make_read_request(
        "beta", contract="kv", method="__agg__", args=("sum", "bids."), caller_id="auditor"
    )
    assert w.engine.verified_read(agg_req).value == 10
    # row access stays denied under the same policy, however the rows are
    # named; a storage or prefix read that also names a contract is an error
    for status, fields in (
        ("denied", dict(key="kv.bids.a")),
        ("denied", dict(method="__prefix__", key="kv.bids.")),
        ("denied", dict(method="__prefix__", key="")),
        ("error", dict(contract="kv", key="bids.a")),
        ("error", dict(contract="kv.bids", key="a")),
        ("error", dict(contract="kv.bids", method="__prefix__", key="")),
    ):
        row_req = w.engine.make_read_request("beta", caller_id="auditor", caller_chain="", **fields)
        _assert_refused(w, row_req, status)


def test_every_name_of_a_gated_key_is_gated():
    # every stored kv key, read as each of its prefixes and as each split at a
    # dot into contract + key: a caller the policy does not allow gets no kv
    # value or row, and kv.open.* stays readable. A prefix read is denied by a
    # row's own gate; a storage or prefix read that names a contract, and a
    # query of a dotted pseudo-contract, are errors; kv's aggregates are denied
    w = World()
    for key, value in (("open.a", 1), ("open.b", 2), ("secret", 5), ("bids.a", 3), ("bids.b", 7)):
        w.set_kv("beta", key, value)
    beta = w.chains["beta"]
    beta.submit_call("sys", "sys.policy", "attach", ["kv", 'allow read on open.*;'])
    w.settle()
    stored = {key: value for key, value, _ in beta.state_items("kv.")}
    opened = {key: value for key, value in stored.items() if key.startswith("kv.open.")}
    assert len(stored) == 5 and len(opened) == 2

    def request(**fields):
        return w.engine.make_read_request("beta", caller_id="nosy", caller_chain="alpha", **fields)

    def prefixes(key):
        return [key[:end] for end in range(len(key) + 1)]

    for full in stored:
        for prefix in prefixes(full):
            req = request(method="__prefix__", key=prefix)
            if any(key.startswith(prefix) for key in set(stored) - set(opened)):
                _assert_refused(w, req, "denied")
            else:
                rows = {key: value for key, value, _ in decode_record(_serve(w, req).value, txn_module.PrefixRows)}
                assert rows == {k: v for k, v in opened.items() if k.startswith(prefix)}, prefix
        for dot in [i for i, ch in enumerate(full) if ch == "."]:
            contract, rest = full[:dot], full[dot + 1 :]
            _assert_refused(w, request(contract=contract, key=rest), "error")
            for prefix in prefixes(rest):
                _assert_refused(w, request(contract=contract, method="__prefix__", key=prefix), "error")
                agg_status = "denied" if contract == "kv" else "error"
                _assert_refused(w, request(contract=contract, method="__agg__", args=("sum", prefix)), agg_status)
    for key, value in opened.items():
        resp = w.engine.verified_read(
            w.engine.make_read_request("beta", key=key, caller_id="nosy", caller_chain="alpha")
        )
        assert resp.value == value


def test_write_lock_on_a_sys_key_is_refused_at_the_read():
    # a caller never writes a sys. key, so it may not lock one for writing either
    w = World()
    t = w.engine.begin_general("alpha", MODE_LOCKS)
    with pytest.raises(PolicyDenied, match="sys namespace"):
        w.engine.txn_write(t, "beta", "sys.contract.kv", False)
    assert w.locks_empty() and t.write_set == {}
    req = w.engine.make_read_request("beta", key="sys.x", lock_for="t1", lock_only=True)
    _assert_refused(w, req, "denied")
    assert w.locks_empty()


# ------------------------------------------------------------- mini-txns


def test_minitxn_vacuous_compare_commits_both_writes():
    w = World()
    mt = MiniTxn(
        compares=(),
        reads=(),
        writes=(("alpha", "kv.x", 1), ("beta", "kv.y", 2)),
    )
    result = w.engine.execute_minitxn("alpha", mt)
    w.settle()
    assert isinstance(result, Committed)
    assert w.kv("alpha", "x") == 1
    assert w.kv("beta", "y") == 2


def test_minitxn_compare_failure_aborts_everywhere():
    w = World()
    w.set_kv("alpha", "status", "closed")
    mt = MiniTxn(
        compares=(("alpha", "kv.status", "open"),),
        reads=(),
        writes=(("alpha", "kv.x", 1), ("beta", "kv.y", 2)),
    )
    result = w.engine.execute_minitxn("alpha", mt)
    w.settle()
    assert isinstance(result, Aborted)
    assert "CompareFailed" in result.reason
    assert w.kv("alpha", "x") is None
    assert w.kv("beta", "y") is None
    assert w.locks_empty()


def test_minitxn_reads_returned():
    w = World()
    w.set_kv("beta", "price", 250)
    mt = MiniTxn(
        compares=(),
        reads=(("beta", "kv.price"),),
        writes=(("alpha", "kv.copy", 1),),
    )
    result = w.engine.execute_minitxn("alpha", mt)
    w.settle()
    assert isinstance(result, Committed)
    assert result.read_values[("beta", "kv.price")] == 250


def test_minitxn_write_policy_enforced():
    w = World()
    w.chains["beta"].submit_call(
        "sys", "sys.policy", "attach", ["kv", "allow write on nothing;"]
    )
    w.settle()
    mt = MiniTxn(compares=(), reads=(), writes=(("beta", "kv.y", 2),))
    result = w.engine.execute_minitxn("alpha", mt)
    w.settle()
    assert isinstance(result, Aborted)
    assert "PolicyDenied" in result.reason
    assert w.kv("beta", "y") is None


def test_minitxn_read_policy_enforced_at_prepare():
    w = World()
    w.set_kv("beta", "secret", 7)
    w.chains["beta"].submit_call(
        "sys", "sys.policy", "attach", ["kv", "allow write on *; allow read on public.*;"]
    )
    w.settle()
    mt = MiniTxn(
        compares=(),
        reads=(("beta", "kv.secret"),),
        writes=(("alpha", "kv.x", 1), ("beta", "kv.y", 2)),
    )
    result = w.engine.execute_minitxn("alpha", mt)
    w.settle()
    assert isinstance(result, Aborted)
    assert result.reason.startswith("PolicyDenied")
    assert w.kv("alpha", "x") is None
    assert w.kv("beta", "y") is None
    assert w.locks_empty()


def test_minitxn_exactly_two_round_trips_on_commit():
    w = World()
    mt = MiniTxn(compares=(), reads=(), writes=(("beta", "kv.y", 2),))
    fut = w.engine.execute_minitxn_async("alpha", mt)
    w.settle()
    assert isinstance(fut.result(), Committed)
    txid = list(w.sim.meter.round_trips)[-1]
    assert w.sim.meter.round_trips[txid] == 2


def test_minitxn_two_chain_swap_under_drops_is_atomic():
    # fault-injection sweep with a state-audit oracle: all-or-nothing
    committed = aborted = 0
    for seed in range(500):
        w = World(drop=0.10, seed=seed, log=False)
        mt = MiniTxn(
            compares=(("alpha", "kv.owner", None),),
            reads=(),
            writes=(("alpha", "kv.owner", "bob"), ("beta", "kv.paid", 10)),
        )
        result = w.engine.execute_minitxn("alpha", mt)
        w.settle()
        a = w.kv("alpha", "owner")
        b = w.kv("beta", "paid")
        if isinstance(result, Committed):
            committed += 1
            assert (a, b) == ("bob", 10), f"seed {seed}: partial commit"
        else:
            aborted += 1
            assert (a, b) == (None, None), f"seed {seed}: partial abort"
        assert w.locks_empty()
    assert committed > 450  # 10% drops with retries rarely abort


# ---------------------------------------------------------- general txns


def test_begin_general_modes_and_distinct_ids():
    w = World()
    t1 = w.engine.begin_general("alpha", MODE_LOCKS)
    t2 = w.engine.begin_general("alpha", MODE_OCC)
    assert t1.status == "active" and t2.status == "active"
    assert t1.mode == MODE_LOCKS and t2.mode == MODE_OCC
    assert t1.txn_id != t2.txn_id


def test_occ_read_records_version():
    w = World()
    w.set_kv("beta", "x", 5)
    expected_version = w.chains["beta"].current_version("kv.x")
    t = w.engine.begin_general("alpha", MODE_OCC)
    value = w.engine.txn_read(t, "beta", "kv.x")
    assert value == 5
    assert t.read_set == [("beta", "kv.x", expected_version)]


def test_locks_read_blocks_then_times_out(monkeypatch):
    monkeypatch.setattr(txn_module, "LOCK_TIMEOUT", 5)
    w = World()
    w.set_kv("beta", "x", 5)
    t1 = w.engine.begin_general("alpha", MODE_LOCKS)
    w.engine.txn_read(t1, "beta", "kv.x")  # t1 holds the lock
    t2 = w.engine.begin_general("alpha", MODE_LOCKS)
    with pytest.raises(LockTimeout):
        w.engine.txn_read(t2, "beta", "kv.x")
    assert t2.status == "aborted"
    assert t1.status == "active"


def _pending_for(w, fut, ticks=10):
    for _ in range(ticks):
        w.sim.step()
    assert not fut.done


def test_a_held_key_lock_blocks_a_prefix_read_until_its_holder_commits():
    w = World()
    w.set_kv("beta", "x", 5)
    t1 = w.engine.begin_general("alpha", MODE_LOCKS)
    assert w.engine.txn_read(t1, "beta", "kv.x") == 5
    t2 = w.engine.begin_general("alpha", MODE_LOCKS)
    rows = w.engine.txn_read_prefix_async(t2, "beta", "kv.")
    _pending_for(w, rows)
    w.engine.txn_write(t1, "beta", "kv.x", 6)
    assert isinstance(w.engine.txn_commit(t1), Committed)
    assert [(key, value) for key, value, _ in w.sim.pump(rows)] == [("kv.x", 6)]
    assert w.chains["beta"].locks.prefix == {"kv.": t2.txn_id}
    assert isinstance(w.engine.txn_commit(t2), Committed)
    w.settle()
    assert w.locks_empty()


def test_a_held_prefix_lock_blocks_a_key_read_until_its_holder_commits():
    w = World()
    t1 = w.engine.begin_general("alpha", MODE_LOCKS)
    assert w.sim.pump(w.engine.txn_read_prefix_async(t1, "beta", "kv.")) == ()
    t2 = w.engine.begin_general("alpha", MODE_LOCKS)
    value = w.engine.txn_read_async(t2, "beta", "kv.y")
    _pending_for(w, value)
    w.engine.txn_write(t1, "beta", "kv.y", 3)
    assert isinstance(w.engine.txn_commit(t1), Committed)
    assert w.sim.pump(value) == 3
    assert isinstance(w.engine.txn_commit(t2), Committed)
    w.settle()
    assert w.locks_empty()


def test_a_held_prefix_lock_blocks_an_enclosing_prefix_read_until_its_holder_commits(monkeypatch):
    # t1's prefix lock on kv.a extends t2's prefix kv.: beta answers t2 locked
    w = World()
    w.set_kv("beta", "ab", 1)
    beta = w.chains["beta"]
    statuses = []
    verify = w.engine.verify_response

    def spy(req, raw):
        resp = verify(req, raw)
        if req.method == "__prefix__":
            statuses.append((req.key, resp.status))
        return resp

    monkeypatch.setattr(w.engine, "verify_response", spy)
    t1 = w.engine.begin_general("alpha", MODE_LOCKS)
    assert [(key, value) for key, value, _ in w.sim.pump(w.engine.txn_read_prefix_async(t1, "beta", "kv.a"))] == [
        ("kv.ab", 1)
    ]
    t2 = w.engine.begin_general("alpha", MODE_LOCKS)
    rows = w.engine.txn_read_prefix_async(t2, "beta", "kv.")
    _pending_for(w, rows)
    assert beta.locks.prefix == {"kv.a": t1.txn_id}
    assert statuses[0] == ("kv.a", "ok") and set(statuses[1:]) == {("kv.", "locked")}
    w.engine.txn_write(t1, "beta", "kv.ab", 2)
    assert isinstance(w.engine.txn_commit(t1), Committed)
    assert [(key, value) for key, value, _ in w.sim.pump(rows)] == [("kv.ab", 2)]
    assert statuses[-1] == ("kv.", "ok")
    assert beta.locks.prefix == {"kv.": t2.txn_id}
    assert isinstance(w.engine.txn_commit(t2), Committed)
    w.settle()
    assert w.locks_empty()


def test_an_abort_after_a_lock_timeout_submits_no_second_decide(monkeypatch):
    # the read that times out aborts t2; an agent that then aborts on any read
    # error (as tests/oracles.py's gt_agent does) adds no second decide
    monkeypatch.setattr(txn_module, "LOCK_TIMEOUT", 5)
    w = World()
    w.set_kv("beta", "x", 5)
    t1 = w.engine.begin_general("alpha", MODE_LOCKS)
    w.engine.txn_read(t1, "beta", "kv.x")
    t2 = w.engine.begin_general("alpha", MODE_LOCKS)

    def agent():
        try:
            yield w.engine.txn_read_async(t2, "beta", "kv.x")
        except LockTimeout:
            w.engine.abort(t2, "read failed")

    w.sim.spawn(agent())
    w.settle()
    assert t2.future.result() == Aborted("LockTimeout")
    decides = [
        txn for block in w.chains["alpha"].blocks for txn in block.txns
        if txn.method == "decide" and txn.args[0] == t2.txn_id
    ]
    assert len(decides) == 1
    assert w.chains["beta"].locks.exact == {"kv.x": t1.txn_id}


def test_read_after_abort_invalid_state():
    w = World()
    t = w.engine.begin_general("alpha", MODE_OCC)
    w.engine.abort(t, "client abort")
    with pytest.raises(InvalidState):
        w.engine.txn_read(t, "beta", "kv.x")


def test_read_your_writes_and_last_write_wins():
    w = World()
    t = w.engine.begin_general("alpha", MODE_OCC)
    w.engine.txn_write(t, "beta", "kv.x", 1)
    assert w.engine.txn_read(t, "beta", "kv.x") == 1
    w.engine.txn_write(t, "beta", "kv.x", 2)
    assert t.write_set[("beta", "kv.x")] == 2


def test_write_after_prepare_invalid_state():
    w = World()
    t = w.engine.begin_general("alpha", MODE_OCC)
    w.engine.txn_write(t, "beta", "kv.x", 1)
    fut = w.engine.txn_commit_async(t)
    with pytest.raises(InvalidState):
        w.engine.txn_write(t, "beta", "kv.y", 2)
    w.settle()
    assert isinstance(fut.result(), Committed)


def test_occ_version_conflict_aborts():
    w = World()
    w.set_kv("beta", "x", 5)
    t = w.engine.begin_general("alpha", MODE_OCC)
    assert w.engine.txn_read(t, "beta", "kv.x") == 5
    # interleaving local write bumps the version between read and prepare
    w.set_kv("beta", "x", 6)
    w.engine.txn_write(t, "beta", "kv.x", 50)
    result = w.engine.txn_commit(t)
    w.settle()
    assert isinstance(result, Aborted)
    assert "VersionConflict" in result.reason
    assert w.kv("beta", "x") == 6
    assert w.locks_empty()


def test_occ_prefix_phantom_earlier_in_the_prepare_block_aborts():
    # beta loses quorum, so a phantom under the prefix and the prepare land in
    # one block: the prefix guard sees the write made earlier in that block
    w = World()
    beta = w.chains["beta"]
    t = w.engine.begin_general("alpha", MODE_OCC)
    assert w.sim.pump(w.engine.txn_read_prefix_async(t, "beta", "kv.p.")) == ()
    w.engine.txn_write(t, "alpha", "kv.w", 1)
    beta.byzantine.update({"beta:node1": Behavior.SILENT, "beta:node2": Behavior.SILENT})
    beta.submit_call("mallory", "kv", "set", ["p.z", 1])
    fut = w.engine.txn_commit_async(t)
    step_until(w.sim, lambda: any(txn.method == "__event__" for txn in beta.mempool))
    beta.byzantine.clear()
    assert w.sim.pump(fut) == Aborted("VersionConflict: kv.p.*")
    w.settle()
    assert w.kv("alpha", "w") is None and w.kv("beta", "p.z") == 1
    assert w.locks_empty()


@pytest.mark.parametrize(
    "key, value",
    [("kv.x", 1.5), ("kv.x", [1, 2]), ("kv.x", 2**70), ("kv.x", "\ud800"), ("kv.x\ud800", 1)],
)
def test_client_write_no_prepare_can_carry_fails_at_the_call(key, value):
    w = World()
    records = dict(w.engine.records)
    with pytest.raises(EncodingError):
        w.engine.execute_minitxn_async("alpha", MiniTxn((), (), (("beta", key, value),)))
    assert w.engine.records == records
    t = w.engine.begin_general("alpha", MODE_LOCKS)
    with pytest.raises(EncodingError):
        w.engine.txn_write_async(t, "beta", key, value)
    assert t.write_set == {} and t.lock_keys == {}
    assert all(not chain.mempool for chain in w.chains.values())
    w.settle()
    assert w.locks_empty()


def test_clean_commit_applies_all_writes():
    w = World()
    w.set_kv("beta", "x", 5)
    t = w.engine.begin_general("alpha", MODE_OCC)
    x = w.engine.txn_read(t, "beta", "kv.x")
    w.engine.txn_write(t, "beta", "kv.x", x + 1)
    w.engine.txn_write(t, "alpha", "kv.mirror", x + 1)
    result = w.engine.txn_commit(t)
    w.settle()
    assert isinstance(result, Committed)
    assert t.status == "committed"
    assert w.kv("beta", "x") == 6
    assert w.kv("alpha", "mirror") == 6
    assert w.locks_empty()


def test_locks_mode_commit_and_local_conflict_fails():
    w = World()
    w.set_kv("beta", "x", 5)
    t = w.engine.begin_general("alpha", MODE_LOCKS)
    w.engine.txn_read(t, "beta", "kv.x")
    # a local transaction hitting the locked key fails with LockConflict
    w.chains["beta"].submit_call("mallory", "kv", "set", ["x", 99])
    w.settle()
    block = w.chains["beta"].blocks[-1]
    statuses = {r.status for r in block.receipts}
    assert "failed" in statuses
    w.engine.txn_write(t, "beta", "kv.x", 10)
    result = w.engine.txn_commit(t)
    w.settle()
    assert isinstance(result, Committed)
    assert w.kv("beta", "x") == 10
    assert w.locks_empty()


def test_decision_drop_retries_apply_exactly_once():
    # per-key write-count oracle: the committed write lands exactly once
    for seed in range(40):
        w = World(drop=0.35, seed=seed, log=False)
        t = w.engine.begin_general("alpha", MODE_OCC)
        w.engine.txn_write(t, "beta", "kv.once", seed)
        result = w.engine.txn_commit(t)
        w.settle()
        if isinstance(result, Committed):
            hist = w.chains["beta"].get_history("kv.once", 0, w.chains["beta"].height)
            assert len(hist) == 1, f"seed {seed}: applied {len(hist)} times"
        assert w.locks_empty()


def test_general_txn_round_trips_k_plus_2():
    w = World(chain_ids=("alpha", "beta", "gamma"))
    w.set_kv("beta", "x", 1)
    w.set_kv("gamma", "y", 2)
    t = w.engine.begin_general("alpha", MODE_OCC)
    x = w.engine.txn_read(t, "beta", "kv.x")  # k=1
    y = w.engine.txn_read(t, "gamma", "kv.y")  # k=2
    w.engine.txn_write(t, "beta", "kv.sum", x + y)
    result = w.engine.txn_commit(t)
    w.settle()
    assert isinstance(result, Committed)
    assert w.sim.meter.round_trips[t.txn_id] == 4  # k + prepare + decide


def test_two_pc_record_on_coordinator_ledger():
    w = World()
    t = w.engine.begin_general("alpha", MODE_OCC)
    w.engine.txn_write(t, "beta", "kv.r", 7)
    w.engine.txn_commit(t)
    w.settle()
    # the decision and each vote are ledger entries on the coordinator chain
    alpha = w.chains["alpha"]
    assert alpha.read_state(f"sys.2pc.{t.txn_id}.decision") == "commit"
    assert alpha.read_state(f"sys.2pc.{t.txn_id}.vote.beta").partition(":")[0] == "yes"


def _audit(w):
    """Audit the world's run log, closed by a final record as run_scenario writes it."""
    w.sim.log.record(
        "final",
        locks={cid: sorted([*c.locks.exact, *c.locks.prefix]) for cid, c in w.chains.items()},
        metrics=RunMetrics.from_sim(w.sim, 0, "", "ok", []).to_dict(),
    )
    return audit_records(w.sim.log.records)


def _step_until_voted_yes(w, chain, txid):
    step_until(w.sim, lambda: chain.read_state(f"sys.xt.{txid}.vote") == "yes")


@pytest.mark.parametrize(
    "mode, prepared",
    [(MODE_OCC, True), (MODE_LOCKS, True), (MODE_LOCKS, False)],
    ids=["occ", "locks", "locks-before-commit"],
)
def test_abort_after_prepare_is_a_ledger_decision(mode, prepared):
    # a participant that voted yes must learn the abort from the coordinator;
    # so must one that holds a lock from before commit, which is released
    # only when that decision is applied
    w = World()
    t = w.engine.begin_general("alpha", mode)
    w.engine.txn_write(t, "beta", "kv.x", 1)
    beta = w.chains["beta"]
    if prepared:
        w.engine.txn_commit_async(t)
        _step_until_voted_yes(w, beta, t.txn_id)
    else:
        assert beta.locks.exact == {"kv.x": t.txn_id}
    w.engine.abort(t, "client abort")
    w.settle()
    assert t.future.result() == Aborted("client abort")
    assert t.status == "aborted"
    assert w.chains["alpha"].read_state(f"sys.2pc.{t.txn_id}.decision") == "abort"
    assert beta.read_state(f"sys.applied.{t.txn_id}") == "abort"
    assert w.kv("beta", "x") is None
    assert w.locks_empty()
    report = _audit(w)
    assert report.ok, report.render()


def test_abort_racing_a_lock_read_leaves_no_lock():
    # the abort reaches beta while the lock request may still be in flight:
    # the applied decision releases a lock taken before it, and beta takes
    # none for the transaction after it
    for seed in range(40):
        for steps in range(4):
            w = World(seed=seed, direct_drop=0.4, jitter=3)
            w.set_kv("beta", "x", 5)
            t = w.engine.begin_general("alpha", MODE_LOCKS)
            w.engine.txn_read_async(t, "beta", "kv.x")
            for _ in range(steps):
                w.sim.step()
            w.engine.abort(t, "client abort")
            w.settle()
            assert w.locks_empty(), f"seed {seed}, {steps} steps"
            report = _audit(w)
            assert report.ok, f"seed {seed}, {steps} steps: {report.render()}"
            assert t.future.result() == Aborted("client abort")


def test_empty_transactions_end_without_a_ledger_round():
    # no chain to ask: an empty commit or abort resolves at once, and only the
    # abort is logged, so the audit's two-round-trip check counts no empty commit
    w = World()
    assert w.engine.execute_minitxn("alpha", MiniTxn((), (), ())) == Committed()
    t = w.engine.begin_general("alpha", MODE_OCC)
    w.engine.abort(t, "client abort")
    assert t.future.result() == Aborted("client abort")
    assert not any(chain.mempool for chain in w.chains.values())
    report = _audit(w)
    assert report.ok, report.render()


def test_a_direct_request_cannot_release_a_lock():
    # only a no vote or an applied decision releases a lock
    w = World()
    w.set_kv("beta", "x", 5)
    beta = w.chains["beta"]
    t = w.engine.begin_general("alpha", MODE_LOCKS)
    w.engine.txn_read(t, "beta", "kv.x")
    resp = _serve(w, ReadRequest(99, "beta", method="__unlock__", caller_id="mallory", lock_for=t.txn_id))
    assert resp.status == "error"
    assert beta.locks.exact == {"kv.x": t.txn_id}
    beta.submit_call("mallory", "kv", "set", ["x", 99])
    w.settle()
    w.engine.txn_write(t, "beta", "kv.x", 10)
    assert isinstance(w.engine.txn_commit(t), Committed)
    w.settle()
    assert w.kv("beta", "x") == 10
    assert w.locks_empty()


@pytest.mark.parametrize("seed", [4, 73, 94, 186, 187, 197])
def test_late_prepare_after_applied_abort_takes_no_locks(seed, monkeypatch):
    # under heavy drops the prepare to beta is retransmitted past a
    # VoteTimeout abort that beta has already applied; it must not lock kv.x
    monkeypatch.setattr(txn_module, "VOTE_TIMEOUT", 8)
    w = World(drop=0.6, seed=seed)
    t = w.engine.begin_general("alpha", MODE_OCC)
    w.engine.txn_write(t, "beta", "kv.x", 1)
    w.engine.txn_commit_async(t)
    w.settle()
    assert w.locks_empty()
    # no yes vote on beta is left without its applied decision
    beta = w.chains["beta"]
    if beta.read_state(f"sys.xt.{t.txn_id}.vote") == "yes":
        assert beta.read_state(f"sys.applied.{t.txn_id}") is not None
    report = _audit(w)
    assert report.ok, report.render()


# ------------------------------- the coordinator's own share stays off the bus


def _deliveries(records):
    """(source, destination, kind) of every accepted delivery, in log order."""
    return [
        (r["source_chain"], r["chain"], r["event_kind"])
        for r in records
        if r["kind"] == "deliver" and r["result"] == "accepted"
    ]


def _txn_on_alpha_and_beta(w, kind):
    """Run a transaction that alpha coordinates and that reads and writes on both chains."""
    if kind == "mini":
        mt = MiniTxn(
            compares=(("alpha", "kv.x", 1),),
            reads=(("beta", "kv.x"),),
            writes=(("alpha", "kv.a", 1), ("beta", "kv.b", 2)),
        )
        return w.engine.execute_minitxn("alpha", mt)
    t = w.engine.begin_general("alpha", kind)
    a = w.engine.txn_read(t, "alpha", "kv.x")
    b = w.engine.txn_read(t, "beta", "kv.x")
    w.engine.txn_write(t, "alpha", "kv.a", a)
    w.engine.txn_write(t, "beta", "kv.b", a + b)
    return w.engine.txn_commit(t)


@pytest.mark.parametrize("kind", ["mini", MODE_OCC, MODE_LOCKS])
def test_only_the_remote_share_crosses_the_bus(kind):
    # alpha prepares, votes and applies its own share inside its own blocks:
    # the bus carries beta's prepare, vote and decide, and nothing to alpha
    # from alpha
    w = World()
    w.set_kv("alpha", "x", 1)
    w.set_kv("beta", "x", 1)
    assert isinstance(_txn_on_alpha_and_beta(w, kind), Committed)
    w.settle()
    assert (w.kv("alpha", "a"), w.kv("beta", "b")) == (1, 2)
    assert _deliveries(w.sim.log.records) == [
        ("alpha", "beta", KIND_PREPARE),
        ("beta", "alpha", KIND_VOTE),
        ("alpha", "beta", KIND_DECIDE),
    ]
    assert w.locks_empty()
    report = _audit(w)
    assert report.ok, report.render()


@pytest.mark.parametrize("mode", [MODE_OCC, MODE_LOCKS])
def test_the_demo_auction_delivers_nothing_to_its_source_chain(mode):
    raw = load_scenario(str(scenario_path("auction")))
    raw.update(mode=mode)
    metrics, log = run_scenario(Scenario.from_dict(raw))
    assert metrics.status == "ok"
    delivered = _deliveries(log.records)
    assert delivered and all(source != dest for source, dest, _ in delivered)
    assert audit_records(log.records).ok


def test_the_coordinator_runs_two_blocks_per_mini_transaction():
    # the begin block prepares and votes here, and the block that tallies
    # beta's vote decides and applies here
    w = World()
    alpha = w.chains["alpha"]
    for i in range(3):
        height = alpha.height
        mt = MiniTxn(compares=(), reads=(), writes=(("alpha", "kv.a", i), ("beta", "kv.b", i)))
        assert isinstance(w.engine.execute_minitxn("alpha", mt), Committed)
        w.settle()
        assert alpha.height == height + 2
        assert (w.kv("alpha", "a"), w.kv("beta", "b")) == (i, i)


@pytest.mark.parametrize("kind", ["mini", MODE_OCC, MODE_LOCKS])
def test_a_transaction_on_its_coordinator_alone_decides_in_its_begin_block(kind):
    w = World()
    alpha = w.chains["alpha"]
    w.set_kv("alpha", "x", 1)
    if kind == "mini":
        mt = MiniTxn(compares=(("alpha", "kv.x", 1),), reads=(("alpha", "kv.x"),), writes=(("alpha", "kv.y", 2),))
        fut = w.engine.execute_minitxn_async("alpha", mt)
        txid = list(w.engine.records)[-1]
        expected = Committed(read_values={("alpha", "kv.x"): 1})
    else:
        t = w.engine.begin_general("alpha", kind)
        w.engine.txn_write(t, "alpha", "kv.y", w.engine.txn_read(t, "alpha", "kv.x") + 1)
        w.settle()  # the read's retry timer
        fut, txid, expected = w.engine.txn_commit_async(t), t.txn_id, Committed()
    height = alpha.height
    assert w.sim.pump(fut) == expected
    assert alpha.height == height + 1
    assert [txn.method for txn in alpha.blocks[-1].txns] == ["begin"]
    assert alpha.read_state(f"sys.2pc.{txid}.decision") == "commit"
    assert w.kv("alpha", "y") == 2
    assert w.sim.meter.round_trips[txid] == 2
    # no vote timeout, decision poll, bus event or block is left to run
    assert w.sim.quiescent()
    assert _deliveries(w.sim.log.records) == []
    assert w.locks_empty()
    report = _audit(w)
    assert report.ok, report.render()


@pytest.mark.parametrize("kind", ["mini", MODE_LOCKS])
def test_a_no_vote_on_the_coordinator_aborts_and_releases_its_locks(kind):
    # mini: a failed compare on alpha; locks: alpha's write policy changes
    # after the transaction locked kv.x and kv.a there
    w = World()
    alpha, beta = w.chains["alpha"], w.chains["beta"]
    w.set_kv("alpha", "x", 1)
    if kind == "mini":
        mt = MiniTxn(compares=(("alpha", "kv.x", 2),), reads=(), writes=(("alpha", "kv.a", 1), ("beta", "kv.b", 2)))
        fut = w.engine.execute_minitxn_async("alpha", mt)
        txid, reason = list(w.engine.records)[-1], "CompareFailed: alpha:kv.x"
    else:
        t = w.engine.begin_general("alpha", MODE_LOCKS)
        w.engine.txn_write(t, "alpha", "kv.a", w.engine.txn_read(t, "alpha", "kv.x"))
        w.engine.txn_write(t, "beta", "kv.b", 2)
        assert alpha.locks.exact == {"kv.x": t.txn_id, "kv.a": t.txn_id}
        alpha.attach_policy("kv", "allow read on *;")
        w.settle()
        fut, txid, reason = w.engine.txn_commit_async(t), t.txn_id, "PolicyDenied"
    step_until(w.sim, lambda: alpha.read_state(f"sys.xt.{txid}.vote") is not None)
    # the begin block holds alpha's no vote and released alpha's locks
    assert alpha.read_state(f"sys.2pc.{txid}.vote.alpha").startswith(f"no:{reason}")
    assert alpha.locks.empty()
    result = w.sim.pump(fut)
    assert isinstance(result, Aborted) and result.reason.startswith(reason)
    w.settle()
    assert beta.read_state(f"sys.applied.{txid}") == "abort"
    assert (w.kv("alpha", "a"), w.kv("beta", "b")) == (None, None)
    assert w.locks_empty()
    report = _audit(w)
    assert report.ok, report.render()


def test_the_coordinators_own_no_vote_sends_no_prepare():
    # beta is touched first, yet alpha's share prepares first: its failed
    # compare decides abort in the begin block, before beta's prepare leaves
    w = World()
    alpha, beta = w.chains["alpha"], w.chains["beta"]
    w.set_kv("alpha", "x", 1)
    mt = MiniTxn(compares=(("beta", "kv.y", None), ("alpha", "kv.x", 2)), reads=(), writes=(("beta", "kv.b", 2),))
    result = w.engine.execute_minitxn("alpha", mt)
    txid = list(w.engine.records)[-1]
    assert isinstance(result, Aborted) and result.reason.startswith("CompareFailed: alpha:kv.x")
    w.settle()
    assert ("alpha", "beta", KIND_PREPARE) not in _deliveries(w.sim.log.records)
    assert beta.read_state(f"sys.xt.{txid}.vote") is None
    assert beta.read_state(f"sys.applied.{txid}") == "abort"
    assert w.kv("beta", "b") is None
    assert w.locks_empty()
    assert alpha.read_state(f"sys.2pc.{txid}.participants") == "alpha,beta"
    report = _audit(w)
    assert report.ok, report.render()


def test_a_remote_no_vote_decides_without_waiting_for_the_other_votes():
    # gamma produces no block while two of its four nodes are silent; beta's
    # failed compare alone decides abort, well before the vote timeout
    w = World(chain_ids=("alpha", "beta", "gamma"))
    gamma = w.chains["gamma"]
    silent = gamma.cfg.node_ids()[:2]
    gamma.byzantine.update({node: Behavior.SILENT for node in silent})
    mt = MiniTxn(compares=(("beta", "kv.y", 1),), reads=(), writes=(("beta", "kv.b", 2), ("gamma", "kv.c", 3)))
    start = w.sim.tick
    result = w.engine.execute_minitxn("alpha", mt)
    txid = list(w.engine.records)[-1]
    assert result == Aborted("CompareFailed: beta:kv.y")
    assert w.sim.tick - start < txn_module.VOTE_TIMEOUT
    assert gamma.read_state(f"sys.applied.{txid}") is None
    for node in silent:
        del gamma.byzantine[node]
    w.settle()
    assert gamma.read_state(f"sys.applied.{txid}") == "abort"
    assert (w.kv("beta", "b"), w.kv("gamma", "c")) == (None, None)
    assert w.locks_empty()
    report = _audit(w)
    assert report.ok, report.render()


# ------------------------------------------ the ledger holds all 2PC state


def _emit_sys_txn(w, source, dest, kind, message):
    """`source`'s nodes sign a sys.txn event that its own sys.txn never made."""
    chain = w.chains[source]
    event = Event(source, dest, "sys.txn", "sys.txn", chain.event_nonce, kind, encode_record(message))
    chain.event_nonce += 1
    w.sim.emit_event(chain, event)


def test_restarted_engine_finishes_a_prepared_transaction_from_the_ledger():
    # both participants voted yes, then every chain gets an engine with no
    # memory of the transaction: the ledger alone carries it to the end
    w = World()
    mt = MiniTxn(compares=(), reads=(), writes=(("alpha", "kv.a", 1), ("beta", "kv.b", 2)))
    w.engine.execute_minitxn_async("alpha", mt)
    txid = list(w.engine.records)[-1]
    vote_key = f"sys.xt.{txid}.vote"
    for _ in range(20):
        if all(chain.read_state(vote_key) == "yes" for chain in w.chains.values()):
            break
        w.sim.step()
    assert all(chain.read_state(vote_key) == "yes" for chain in w.chains.values())
    XTxnEngine(w.sim)
    w.settle()
    assert w.chains["alpha"].read_state(f"sys.2pc.{txid}.decision") == "commit"
    assert (w.kv("alpha", "a"), w.kv("beta", "b")) == (1, 2)
    assert w.locks_empty()
    # the old engine's vote timeout reads the decision from the ledger, so
    # alpha runs no decide after the block that recorded it
    alpha_txns = [
        (txn["method"], [key for key, _ in txn["writes"]])
        for rec in w.sim.log.records
        if rec["kind"] == "block" and rec["chain"] == "alpha"
        for txn in rec["txns"]
    ]
    decided = next(i for i, (_, keys) in enumerate(alpha_txns) if f"sys.2pc.{txid}.decision" in keys)
    assert [method for method, _ in alpha_txns[decided + 1 :] if method == "decide"] == []


@pytest.mark.parametrize("mode", [MODE_OCC, MODE_LOCKS])
def test_a_poll_that_finds_the_coordinator_undecided_polls_again(mode, monkeypatch):
    # every bus copy is lost once the prepare is queued for beta: its yes
    # vote never reaches alpha, whose VoteTimeout abort comes after beta's
    # first poll; beta learns the abort, and drops its locks, through a
    # later poll
    w = World()
    w.set_kv("beta", "x", 5)
    alpha, beta = w.chains["alpha"], w.chains["beta"]
    t = w.engine.begin_general("alpha", mode)
    w.engine.txn_read(t, "beta", "kv.x")
    w.engine.txn_write(t, "beta", "kv.y", 1)
    fut = w.engine.txn_commit_async(t)
    step_until(w.sim, lambda: queued_for(w.sim, "beta"))
    for broker in w.sim.brokers:
        broker.faults.drop_rate = 1.0
    decision = f"sys.2pc.{t.txn_id}.decision"
    polls = []
    poll = w.engine._poll_decision

    def spy(txid, chain_id, coordinator):
        polls.append((w.sim.tick, alpha.read_state(decision)))
        poll(txid, chain_id, coordinator)

    monkeypatch.setattr(w.engine, "_poll_decision", spy)
    assert w.sim.pump(fut) == Aborted("VoteTimeout")
    w.settle()
    assert polls[0][1] is None and polls[-1][1] == "abort" and len(polls) >= 2
    assert beta.read_state(f"sys.applied.{t.txn_id}") == "abort"
    assert w.kv("beta", "y") is None
    assert w.locks_empty()


def test_a_participant_that_never_hears_the_decide_applies_it_through_a_poll():
    # beta voted yes, then every broker drops everything: the decide is given
    # up after its retransmits, and beta's decision poll reads it from alpha
    w = World()
    mt = MiniTxn(compares=(), reads=(), writes=(("beta", "kv.b", 2),))
    fut = w.engine.execute_minitxn_async("alpha", mt)
    txid = list(w.engine.records)[-1]
    beta = w.chains["beta"]
    _step_until_voted_yes(w, beta, txid)
    for broker in w.sim.brokers:
        broker.faults.drop_rate = 1.0
    assert w.sim.pump(fut) == Committed()
    w.settle()
    assert w.kv("beta", "b") == 2
    assert beta.read_state(f"sys.applied.{txid}") == "commit"
    assert w.sim.meter.recovery_reads == 1
    giveups = [r for r in w.sim.log.records if r["kind"] == "giveup"]
    assert [(r["stage"], r["dest_chain"]) for r in giveups] == [("publish", "beta")]
    beta_txns = [
        txn["method"]
        for rec in w.sim.log.records
        if rec["kind"] == "block" and rec["chain"] == "beta"
        for txn in rec["txns"]
    ]
    assert beta_txns[-1] == "apply"
    assert w.locks_empty()


def test_decide_counts_only_from_the_coordinator_that_prepared():
    # beta voted yes to alpha: a commit that gamma's nodes sign is not alpha's
    # decision, and neither is a commit of a transaction beta never prepared
    w = World(chain_ids=("alpha", "beta", "gamma"))
    beta = w.chains["beta"]
    t = w.engine.begin_general("alpha", MODE_OCC)
    w.engine.txn_write(t, "beta", "kv.x", 1)
    fut = w.engine.txn_commit_async(t)
    _step_until_voted_yes(w, beta, t.txn_id)
    _emit_sys_txn(w, "gamma", "beta", KIND_DECIDE, Outcome(t.txn_id, "commit"))
    _emit_sys_txn(w, "gamma", "beta", KIND_DECIDE, Outcome("t9", "commit"))
    w.engine.abort(t, "client abort")
    assert w.sim.pump(fut) == Aborted("client abort")
    w.settle()
    assert w.chains["alpha"].read_state(f"sys.2pc.{t.txn_id}.decision") == "abort"
    assert beta.read_state(f"sys.applied.{t.txn_id}") == "abort"
    assert beta.read_state("sys.applied.t9") is None
    assert w.kv("beta", "x") is None
    assert w.locks_empty()
    report = _audit(w)
    assert report.ok, report.render()


def test_prepare_answers_to_its_source_chain():
    # gamma's prepare to beta names no coordinator: beta judges it by gamma's
    # policy context and votes back to gamma, which knows no such transaction
    w = World(chain_ids=("alpha", "beta", "gamma"))
    beta = w.chains["beta"]
    beta.attach_policy("kv", 'allow read on *; allow write on * when caller.chain == "alpha";')
    w.settle()
    _emit_sys_txn(w, "gamma", "beta", KIND_PREPARE, Prepare("t1", "client", writes=(("kv.x", 1),)))
    w.settle()
    assert beta.read_state("sys.xt.t1.vote") == "no"
    assert beta.read_state("sys.xt.t1.writes") is None
    assert w.locks_empty()
    votes = [
        (r["source_chain"], r["chain"])
        for r in w.sim.log.records
        if r["kind"] == "deliver" and r.get("event_kind") == KIND_VOTE
    ]
    assert votes == [("beta", "gamma")]


def test_vote_from_a_non_participant_is_ignored():
    w = World(chain_ids=("alpha", "beta", "gamma"))
    mt = MiniTxn(compares=(), reads=(), writes=(("beta", "kv.x", 1),))
    fut = w.engine.execute_minitxn_async("alpha", mt)
    txid = list(w.engine.records)[-1]
    _emit_sys_txn(w, "gamma", "alpha", KIND_VOTE, Vote(txid, "yes", "", (("kv.secret", 42),)))
    assert w.sim.pump(fut) == Committed()
    w.settle()
    assert w.chains["alpha"].read_state(f"sys.2pc.{txid}.vote.gamma") is None
    assert w.kv("beta", "x") == 1


def test_prepare_codec_round_trip():
    rng = random.Random(11)
    values = [None, True, False, 0, -1, 2**63 - 1, -(2**63), "", "v", b"", b"\x00\xff"]

    def key():
        return rng.choice(["kv.", "Bidder.bids.", "sys.2pc."]) + str(rng.randrange(100))

    def version():
        return (rng.randrange(1000), rng.randrange(50))

    def some(make):
        return tuple(make() for _ in range(rng.randrange(4)))

    cases = [Prepare("t0", "client")]
    for i in range(300):
        cases.append(
            Prepare(
                txn_id=f"t{i}",
                caller_id=rng.choice(["client", "Auctioneer", ""]),
                compares=some(lambda: (key(), rng.choice(values))),
                reads=some(key),
                versions=some(lambda: (key(), version())),
                prefixes=some(lambda: (key() + ".", version())),
                locks=some(lambda: rng.choice([key(), key() + ".*"])),
                writes=some(lambda: (key(), rng.choice(values))),
            )
        )
    for p in cases:
        raw = encode_record(p)
        back = decode_record(raw, Prepare)
        assert back == p
        assert encode_record(back) == raw  # also tells True from 1


def _stored_response(w):
    """A real storage-path response (with a Merkle proof) and its request."""
    w.set_kv("beta", "x", 9)
    req = w.engine.make_read_request("beta", key="kv.x", caller_chain="alpha")
    return req, w.sim.pump(w.sim.direct_request("beta", encode_record(req)))


def test_read_request_codec_round_trip():
    req = ReadRequest(
        7, "beta", "kv", "get", "", (None, True, 1, -5, "s", b"\x00"), "auditor", "alpha", "t1", True
    )
    raw = encode_record(req)
    back = decode_record(raw, ReadRequest)
    assert back == req
    assert encode_record(back) == raw  # also tells True from 1
    assert type(back.args[1]) is bool and type(back.args[2]) is int


@pytest.mark.parametrize(
    "req",
    [
        ReadRequest("x", "beta", key="kv.x"),  # a str nonce
        ReadRequest(1, "beta", key=5),  # an int key
        ReadRequest(1, "beta", contract="kv", method="__agg__", args=()),  # no aggregate args
        ReadResponse(1, 0, 1, ()),  # a response record has 8 fields, not 10
    ],
    ids=["str-nonce", "int-key", "agg-no-args", "a-response"],
)
def test_serve_direct_refuses_ill_typed_read_request(req):
    w = World()
    w.set_kv("beta", "x", 1)
    out = w.engine._serve_direct(encode_record(req), w.sim.tick)
    assert out is None or decode_record(out, ReadResponse).status == "error"


@pytest.mark.parametrize(
    "fields",
    [{"key": "kv.x"}, {"contract": "kv", "method": "get", "args": ("x",)}, {"method": "__prefix__", "key": "kv."}],
    ids=["storage", "query", "prefix"],
)
def test_negative_nonce_read_is_answered_and_the_run_goes_on(fields):
    # a read signature covers the nonce as a record int64, so any nonce signs
    w = World()
    w.set_kv("beta", "x", 1)
    req = ReadRequest(-1, "beta", **fields)
    raw = w.sim.pump(w.sim.direct_request("beta", encode_record(req)))
    resp = decode_record(raw, ReadResponse)
    assert (resp.status, resp.nonce) == ("ok", -1)
    assert w.engine.verify_response(req, raw) == resp
    w.set_kv("beta", "x", 2)
    assert w.kv("beta", "x") == 2


@pytest.mark.parametrize("result", [1.5, (1, 2)], ids=["float", "tuple"])
def test_query_answer_that_is_no_value_is_an_error_refusal(result):
    # a float does not encode and a tuple would sign as a list: neither is signed
    w = World()
    w.chains["beta"].contracts["kv"].query_handlers = {"odd": lambda contract, view, args: result}
    req = w.engine.make_read_request("beta", contract="kv", method="odd")
    resp = decode_record(w.sim.pump(w.sim.direct_request("beta", encode_record(req))), ReadResponse)
    assert (resp.status, resp.value, resp.signatures) == ("error", None, ())
    assert resp.reason.startswith("EncodingError")
    w.set_kv("beta", "x", 2)
    assert w.kv("beta", "x") == 2


@pytest.mark.parametrize(
    "field, bad",
    [("nonce", True), ("target_chain", 3), ("key", None), ("args", "ab"), ("lock_only", 1)],
)
def test_read_request_decode_rejects_ill_typed_fields(field, bad):
    req = ReadRequest(7, "beta", key="kv.x")
    with pytest.raises(EncodingError):
        decode_record(encode_record(dataclasses.replace(req, **{field: bad})), ReadRequest)


@pytest.mark.parametrize(
    "args",
    [("sum",), ("sum", 5), (5, "bids."), ("sum", "bids.", 1), ("sum", "bids.", 1, True)],
)
def test_aggregate_read_with_ill_typed_args_is_an_error_refusal(args):
    w = World()
    w.set_kv("beta", "bids.a", 3)
    req = w.engine.make_read_request("beta", contract="kv", method="__agg__", args=args)
    resp = decode_record(w.engine._serve_direct(encode_record(req), w.sim.tick), ReadResponse)
    assert resp.status == "error" and resp.value is None


def test_read_response_codec_round_trip():
    w = World()
    _, raw = _stored_response(w)
    with_proof = decode_record(raw, ReadResponse)
    assert with_proof.proof is not None and with_proof.version is not None
    assert encode_record(with_proof) == raw
    for resp in (
        ReadResponse(True, 3, 5, (("beta:node0", b"\x01" * 32), ("beta:node1", b""))),
        ReadResponse(1, 3, 5, (), version=None),
        ReadResponse(None, 0, 1, (), version=(4, 2), status="locked", reason="kv.x"),
    ):
        raw = encode_record(resp)
        back = decode_record(raw, ReadResponse)
        assert back == resp
        assert encode_record(back) == raw


def test_prefix_rows_codec_round_trip():
    rows = [("kv.a", None, (1, 0)), ("kv.b", b"\x00\xff", (2, 3)), ("kv.c", True, (2, 4)), ("kv.d", 1, (5, 0))]
    raw = encode_record(rows)
    back = decode_record(raw, txn_module.PrefixRows)
    assert back == tuple(rows)
    assert [type(value) for _, value, _ in back] == [type(None), bytes, bool, int]
    assert encode_record(back) == raw


def test_vote_and_decide_payloads_round_trip(monkeypatch):
    payloads = []
    real = txn_module._sys_event

    def capture(dest_chain, kind, payload):
        payloads.append((kind, payload))
        return real(dest_chain, kind, payload)

    monkeypatch.setattr(txn_module, "_sys_event", capture)
    w = World()
    w.set_kv("beta", "a", True)
    mt = MiniTxn(compares=(), reads=(("beta", "kv.a"),), writes=(("beta", "kv.b", b"\x01"),))
    assert isinstance(w.engine.execute_minitxn("alpha", mt), Committed)
    classes = {KIND_VOTE: Vote, KIND_DECIDE: Outcome}
    seen = {kind: decode_record(p, classes[kind]) for kind, p in payloads if kind in classes}
    vote = seen[KIND_VOTE]
    assert (vote.vote, vote.reason) == ("yes", "")
    # the vote names no participant: the coordinator takes it from the
    # authenticated source chain of the vote event
    vote_sources = [
        r["source_chain"]
        for r in w.sim.log.records
        if r["kind"] == "deliver" and r.get("event_kind") == KIND_VOTE
    ]
    assert vote_sources == ["beta"]
    assert w.chains["alpha"].read_state(f"sys.2pc.{vote.txn_id}.vote.beta") == "yes:"
    assert vote.reads == (("kv.a", True),) and type(vote.reads[0][1]) is bool
    assert seen[KIND_DECIDE] == Outcome(vote.txn_id, "commit")
    for kind, p in payloads:
        if kind in classes:
            assert encode_record(decode_record(p, classes[kind])) == p


def test_malformed_read_payloads_rejected():
    w = World()
    req, raw = _stored_response(w)
    for cut in range(len(raw)):
        with pytest.raises(EncodingError):
            decode_record(raw[:cut], ReadResponse)
    with pytest.raises(EncodingError):
        decode_record(raw + b"\x00", ReadResponse)
    with pytest.raises(EncodingError, match="7 items, wanted 8"):  # wrong width
        decode_record(encode_record(dataclasses.astuple(decode_record(raw, ReadResponse))[:7]), ReadResponse)
    raw_req = encode_record(req)
    with pytest.raises(EncodingError):
        decode_record(raw_req + b"\x00", ReadRequest)
    for cut in range(len(raw_req)):
        assert w.engine._serve_direct(raw_req[:cut], w.sim.tick) is None
    assert w.engine._serve_direct(raw_req, w.sim.tick) is not None


def test_unparseable_policy_attached_by_sys_txn_fails_and_reads_still_serve():
    # the ledger only ever holds policy text that parses
    w = World()
    w.set_kv("beta", "x", 1)
    beta = w.chains["beta"]
    beta.submit_call("sys", "sys.policy", "attach", ["kv", "allow read on"])
    w.settle()
    receipt = beta.blocks[-1].receipts[0]
    assert receipt.status == "failed" and receipt.error.startswith("ParseError")
    assert beta.policy_source("kv") is None
    req = w.engine.make_read_request("beta", key="kv.x")
    resp = decode_record(w.engine._serve_direct(encode_record(req), w.sim.tick), ReadResponse)
    assert (resp.status, resp.value) == ("ok", 1)


# ------------------------------------------- quorum loss during 2PC blocks


def _start_txn(w, kind):
    """Begin a transaction with coordinator alpha that writes kv.x on beta."""
    if kind == "mini":
        mt = MiniTxn(compares=(), reads=(), writes=(("beta", "kv.x", 1),))
        fut = w.engine.execute_minitxn_async("alpha", mt)
        return list(w.engine.records)[-1], fut
    t = w.engine.begin_general("alpha", kind)
    w.engine.txn_write(t, "beta", "kv.x", 1)
    return t.txn_id, w.engine.txn_commit_async(t)


def _lose_one_block(w, chain_id):
    """Two of four nodes stay silent for one tick: that tick's block rolls back."""
    chain = w.chains[chain_id]
    nodes = chain.cfg.node_ids()[:2]
    chain.byzantine.update({node: Behavior.SILENT for node in nodes})
    w.sim.step()
    for node in nodes:
        del chain.byzantine[node]


def _assert_settled_agrees_with_ledger(w, txid, fut):
    w.sim.run_until_quiescent(w.sim.tick + 3000)
    decision = w.chains["alpha"].read_state(f"sys.2pc.{txid}.decision")
    outcome = fut.result()
    assert decision == ("commit" if isinstance(outcome, Committed) else "abort")
    assert w.locks_empty()
    if decision == "commit":
        assert w.kv("beta", "x") == 1
    report = _audit(w)
    assert report.ok, report.render()


def test_coordinator_vote_block_lost_to_quorum_failure_still_decides():
    # the coordinator's block that tallies the last vote and decides rolls
    # back; the client must not hear the decision the ledger never kept
    w = World()
    txid, fut = _start_txn(w, "mini")
    alpha = w.chains["alpha"]
    step_until(w.sim, lambda: queued_for(w.sim, "alpha"))  # beta's vote
    _lose_one_block(w, "alpha")
    assert w.sim.meter.quorum_failures == 1
    # the lost block held beta's vote, which is left in alpha's mempool
    assert [t.method for t in alpha.mempool] == ["__event__"]
    assert [event.kind for event in alpha._inbox.values()] == [KIND_VOTE]
    assert alpha.read_state(f"sys.2pc.{txid}.decision") is None
    _assert_settled_agrees_with_ledger(w, txid, fut)


@pytest.mark.parametrize("kind", ["mini", MODE_OCC, MODE_LOCKS])
@pytest.mark.parametrize("chain_id", ["alpha", "beta"])
@pytest.mark.parametrize("lost_tick", range(16))
def test_one_lost_block_at_any_tick_of_2pc(kind, chain_id, lost_tick):
    w = World()
    txid, fut = _start_txn(w, kind)
    for _ in range(lost_tick):
        w.sim.step()
    _lose_one_block(w, chain_id)
    _assert_settled_agrees_with_ledger(w, txid, fut)


# ------------------------------------------------ system targets


class EvilContract(Contract):
    """Emits protocol events to beta's sys.txn from an ordinary contract."""

    contract_id = "evil"

    def _prepare(self, ctx, args):
        # a share of transaction evil1 that claims the caller owner
        prepare = Prepare("evil1", "owner", writes=(("kv.x", 666),))
        ctx.emit("beta", "sys.txn", KIND_PREPARE, encode_record(prepare))

    def _decide(self, ctx, args):
        ctx.emit("beta", "sys.txn", KIND_DECIDE, encode_record(Outcome("evil1", "commit")))

    handlers = {"prepare": _prepare, "decide": _decide}


def test_contract_events_to_sys_txn_are_refused():
    w = World()
    w.chains["alpha"].register_contract(EvilContract())
    beta = w.chains["beta"]
    beta.attach_policy("kv", 'allow write on x when caller.id == "owner";')
    w.settle()
    w.chains["alpha"].submit_call("mallory", "evil", "prepare", [])
    for _ in range(20):  # the prepare reaches beta a block before the decision
        w.sim.step()
    w.chains["alpha"].submit_call("mallory", "evil", "decide", [])
    w.settle()
    inbox = [
        receipt
        for block in beta.blocks
        for txn, receipt in zip(block.txns, block.receipts)
        if txn.target_contract == "sys.txn" and txn.method == "__event__"
    ]
    assert len(inbox) == 2
    assert all(r.status == "failed" and r.error.startswith("PolicyDenied") for r in inbox)
    assert w.kv("beta", "x") is None
    assert beta.locks.empty()


@pytest.mark.parametrize(
    "target, method, args",
    [
        ("sys.policy", "attach", ["kv", "allow write on *;"]),
        ("sys.registry", "register", ["kv2"]),
        ("sys.txn", "apply", ["t1", "commit"]),
        ("sys.txn", "decide", ["t1", "commit", ""]),
        ("sys.txn", "__event__", [b""]),
    ],
)
def test_system_targets_refuse_other_callers(target, method, args):
    w = World()
    beta = w.chains["beta"]
    before = beta.state_items("sys.")
    beta.submit_call("mallory", target, method, args)
    w.settle()
    receipt = beta.blocks[-1].receipts[0]
    assert receipt.status == "failed" and receipt.error.startswith("PolicyDenied")
    assert beta.state_items("sys.") == before


def test_forged_inbox_event_to_a_contract_is_refused():
    # a local caller hands kv event bytes that never crossed the bus: no
    # signatures were checked and dedupe never saw them
    w = World()
    beta = w.chains["beta"]
    forged = Event("alpha", "beta", "kv", "kv", 999, 16, b"forged").encode()
    beta.submit_call("mallory", "kv", "__event__", [forged])
    w.settle()
    txn = beta.blocks[-1].txns[0]
    receipt = beta.blocks[-1].receipts[0]
    assert (txn.caller_id, txn.method) == ("mallory", "__event__")
    assert receipt.status == "failed" and receipt.error.startswith("PolicyDenied")
    assert receipt.writes == ()
    assert w.kv("beta", "inbox.alpha.999") is None
    assert w.sim.dedupe["beta"].seen == set()


def test_ill_typed_prefix_rows_fail_the_read(monkeypatch):
    w = World()
    w.set_kv("beta", "a", 1)
    t = w.engine.begin_general("alpha", MODE_OCC)
    rows = w.sim.pump(w.engine.txn_read_prefix_async(t, "beta", "kv."))
    assert [(key, value) for key, value, _ in rows] == [("kv.a", 1)]
    assert all(type(h) is int for _, _, version in rows for h in version)
    # beta's nodes sign rows whose versions lost an item: the decode refuses them
    beta = w.chains["beta"]
    real = beta.state_items
    monkeypatch.setattr(
        beta, "state_items", lambda prefix="": [(k, v, ver[:1]) for k, v, ver in real(prefix)]
    )
    t = w.engine.begin_general("alpha", MODE_OCC)
    with pytest.raises(EncodingError):
        w.sim.pump(w.engine.txn_read_prefix_async(t, "beta", "kv."))


@pytest.mark.parametrize(
    "byzantine,signer",
    [({}, "beta:node0"), ({"beta:node0": Behavior.SILENT, "beta:node1": Behavior.EQUIVOCATE}, "beta:node2")],
)
def test_storage_read_is_signed_by_the_first_honest_node(byzantine, signer):
    w = World(n=7, f=2)  # two faulty nodes still leave a quorum
    beta = w.chains["beta"]
    beta.byzantine.update(byzantine)
    req, raw = _stored_response(w)
    resp = decode_record(raw, ReadResponse)
    expected = read_response_digest(resp.value, req.nonce, resp.anchor_height)
    assert resp.signatures == ((signer, beta.scheme.sign(beta.keys[signer].signing_key, expected)),)
