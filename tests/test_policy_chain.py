"""Policy enforcement wired through the chain: attachment and gating."""

from types import SimpleNamespace

import pytest

import interopsim.policy
import interopsim.policy.parser
from interopsim.chain import Chain, ChainConfig, Contract
from interopsim.errors import ParseError
from interopsim.policy import AggExpr, ChainEvalContext, eval_aggregate, parse_policy

from harness import World


class GatedKv(Contract):
    """KV contract that delegates write access to the policy engine."""

    contract_id = "gkv"

    def _set(self, ctx, args):
        ctx.require_access("write", args[0])
        ctx.put(args[0], args[1])

    handlers = {"set": _set}


def mk_chain():
    chain = Chain(ChainConfig(chain_id="pol", n=4, f=1))
    chain.register_contract(GatedKv())
    chain.produce_block(tick=0)
    return chain


def test_no_policy_means_ungated():
    chain = mk_chain()
    chain.submit_call("alice", "gkv", "set", ["k.a", 1])
    block, _ = chain.produce_block(tick=0)
    assert block.receipts[0].status == "ok"


def test_attach_gates_from_next_block():
    chain = mk_chain()
    chain.attach_policy("gkv", "allow write on k.*;")
    chain.produce_block(tick=0)
    chain.submit_call("alice", "gkv", "set", ["k.a", 1])
    chain.submit_call("alice", "gkv", "set", ["other", 2])
    block, _ = chain.produce_block(tick=1)
    assert [r.status for r in block.receipts] == ["ok", "failed"]
    assert "PolicyDenied" in block.receipts[1].error


def test_attach_unparseable_raises_and_ledger_unchanged():
    chain = mk_chain()
    height_before = chain.height
    with pytest.raises(ParseError):
        chain.attach_policy("gkv", "allow write on bids. when")
    assert chain.mempool == []
    assert chain.height == height_before
    assert chain.read_state("sys.policy.gkv") is None


def test_same_block_attach_old_policy_governs():
    chain = mk_chain()
    chain.attach_policy("gkv", "allow write on k.*;")
    chain.produce_block(tick=0)
    # replacement lands in the same block as a gated txn: old policy rules
    chain.attach_policy("gkv", "allow read on nothing;")
    chain.submit_call("alice", "gkv", "set", ["k.a", 1])
    block, _ = chain.produce_block(tick=1)
    statuses = [r.status for r in block.receipts]
    assert statuses == ["ok", "ok"]  # attach txn, then still-allowed write
    # from the next block the replacement governs
    chain.submit_call("alice", "gkv", "set", ["k.b", 2])
    block, _ = chain.produce_block(tick=2)
    assert block.receipts[0].status == "failed"
    assert "PolicyDenied" in block.receipts[0].error


def test_evaluation_is_read_only():
    chain = mk_chain()
    chain.attach_policy(
        "gkv", 'allow write on k.* when exists("k.seed") || sum("k.") == 0;'
    )
    chain.produce_block(tick=0)
    root_before = chain.blocks[-1].header.state_root
    decision = chain.evaluate_policy("gkv", "write", "k.a", "alice", "pol")
    assert decision.allowed
    assert chain.blocks[-1].header.state_root == root_before
    assert chain.mempool == []


def test_provenance_count_matches_get_history():
    chain = mk_chain()
    for i in range(6):
        chain.submit_call("alice", "gkv", "set", [f"k.{i % 2}", i])
        chain.produce_block(tick=i)
    ctx = ChainEvalContext(chain, "gkv", chain.height)
    for frm, to in [(0, chain.height), (2, 4), (5, 5), (0, 1)]:
        expected = len(chain.get_history("gkv.k.", frm, to))
        assert eval_aggregate(AggExpr("count", "k.", frm, to), ctx) == expected


def test_caller_identity_bound_in_conditions():
    chain = mk_chain()
    chain.attach_policy("gkv", 'allow write on k.* when caller.id == "alice";')
    chain.produce_block(tick=0)
    chain.submit_call("alice", "gkv", "set", ["k.a", 1])
    chain.submit_call("mallory", "gkv", "set", ["k.b", 2])
    block, _ = chain.produce_block(tick=1)
    assert [r.status for r in block.receipts] == ["ok", "failed"]


# ------------------------------------------------------------ parse cache

_SHARED_TEXT = 'allow read on x when caller.chain == "alpha";  # shared by text'


def test_worlds_attaching_one_text_share_one_policy(monkeypatch):
    seen = []
    real = interopsim.policy.evaluate

    def spy(ast, req, ctx):
        seen.append(ast)
        return real(ast, req, ctx)

    monkeypatch.setattr(interopsim.policy, "evaluate", spy)
    for _ in range(2):
        w = World()
        beta = w.chains["beta"]
        beta.attach_policy("kv", _SHARED_TEXT)
        w.settle()
        assert beta.evaluate_policy("kv", "read", "x", "alice", "alpha").allowed
        assert not beta.evaluate_policy("kv", "read", "x", "alice", "gamma").allowed
    assert len(seen) == 4
    assert all(ast is seen[0] for ast in seen)


def test_parse_errors_are_not_cached(monkeypatch):
    calls = []
    real = interopsim.policy.parser.tokenize

    def counted(text):
        calls.append(text)
        return real(text)

    monkeypatch.setattr(interopsim.policy.parser, "tokenize", counted)
    bad = "allow write on bids. when  # never cached"
    for _ in range(2):
        with pytest.raises(ParseError):
            parse_policy(bad)
    assert calls == [bad, bad]


def test_text_bearing_object_parses_like_its_string():
    text = "allow write on k.*;  # via .text"
    assert parse_policy(SimpleNamespace(text=text)) is parse_policy(text)
