import itertools
from collections import Counter
import math
import random

import pytest

import interopsim.chain
import interopsim.merkle
from interopsim.chain import (
    Behavior,
    Chain,
    ChainConfig,
    Contract,
    LockTable,
    Receipt,
    Transaction,
)
from interopsim.crypto import HmacScheme
from interopsim.errors import (
    ConfigError,
    DuplicateContract,
    DuplicateNonce,
    EncodingError,
    FutureHeight,
    InvalidRange,
    InvalidState,
    QuorumFailure,
    UnknownContract,
)
from interopsim.merkle import EMPTY_ROOT, MEMBERSHIP, MerkleMap, verify_proof
from interopsim.runlog import RunLog
from interopsim.sim import Simulation
from interopsim.values import digest, encode_record

from harness import World


class KvContract(Contract):
    contract_id = "kv"

    def _set(self, ctx, args):
        ctx.put(args[0], args[1])

    def _fill(self, ctx, args):
        for i in range(args[0]):
            ctx.put(f"f{i}", i)

    def _probe(self, ctx, args):
        # what a policy aggregate sees: history up to the block being produced
        seen = ctx.history(args[0], args[1], ctx.height)
        self.probes.append((ctx.height, args[0], args[1], seen))

    def _get(self, view, args):
        return view.get(args[0])

    handlers = {"set": _set, "fill": _fill, "probe": _probe}
    query_handlers = {"get": _get}


def mk_chain(n=4, f=1, byzantine=None, chain_id="alpha"):
    cfg = ChainConfig(chain_id=chain_id, n=n, f=f, byzantine=byzantine or {})
    return Chain(cfg)


def ready_kv(chain):
    chain.register_contract(KvContract())
    chain.produce_block(tick=0)
    return chain


def set_kv(chain, user, key, value, tick=0):
    chain.submit_call(user, "kv", "set", [key, value])
    block, _ = chain.produce_block(tick=tick)
    return block


def test_create_chain_genesis():
    # a chain built with no genesis contents, directly or by the simulation
    for ch in (mk_chain(n=4, f=1), Simulation().add_chain(ChainConfig(chain_id="beta", n=4, f=1))):
        assert ch.height == 0
        genesis = ch.blocks[0]
        assert genesis.header.height == 0
        assert genesis.header.prev_digest == b"\x00" * 32
        assert genesis.header.state_root == EMPTY_ROOT
        assert genesis.txns == ()


def test_create_chain_rejects_small_n():
    with pytest.raises(ConfigError):
        mk_chain(n=3, f=1)


def test_quorum_size_arithmetic():
    ch = mk_chain(n=7, f=2)
    assert ch.cfg.quorum == 5
    assert ch.height == 0


def test_register_contract_and_duplicate():
    ch = mk_chain()
    ch.register_contract(KvContract())
    with pytest.raises(DuplicateContract):
        ch.register_contract(KvContract())


def test_contract_ids_keep_key_namespaces_disjoint():
    # Chain.key_access finds a key's contract by its first dotted segment
    ch = mk_chain()
    for cid in ("kv.bids", "sys"):
        contract = KvContract()
        contract.contract_id = cid
        with pytest.raises(ConfigError):
            ch.register_contract(contract)
    assert ch.contracts == {} and ch.mempool == []


def test_key_access_maps_each_full_key_to_its_gate():
    ch = ready_kv(mk_chain())
    ch.submit_call("sys", "sys.policy", "attach", ["kv", 'allow read on open.*;'])
    ch.produce_block(tick=1)
    cases = [
        ("read", "sys.policy.kv", True),  # anyone reads a sys. key
        ("write", "sys.x", False),  # no caller writes one
        ("read", "kv.open.a", True),  # the owning contract's policy, resource open.a
        ("read", "kv.secret", False),
        ("write", "kv.open.a", False),
        ("read", "kvx.secret", True),  # no registered contract owns it
        ("read", "kv", True),  # outside every namespace
    ]
    for action, key, allowed in cases:
        decision = ch.key_access(action, key, "nosy", "beta", ch.height)
        assert decision.allowed is allowed, (action, key)
        assert allowed or decision.reason
    assert ch.key_access("write", "sys.x", "sys", "alpha", 1).reason == "writes to the sys namespace are reserved"


@pytest.mark.parametrize(
    "caller, args",
    [("al\ud800ice", ["x", 1]), ("alice", ["x", 1.5]), ("alice", ["x", (1, 2)])],
    ids=["surrogate-caller", "float-arg", "tuple-arg"],
)
def test_call_that_does_not_encode_is_refused_before_it_is_recorded(caller, args):
    w = World()
    alpha = w.chains["alpha"]
    mempool, nonces = list(alpha.mempool), set(alpha._nonces)
    with pytest.raises(EncodingError):
        alpha.submit_call(caller, "kv", "set", args)
    assert alpha.mempool == mempool and alpha._nonces == nonces
    w.settle()  # no block hashes the refused transaction
    w.set_kv("alpha", "x", 2)
    assert w.kv("alpha", "x") == 2


def test_same_contract_id_on_two_chains():
    a = mk_chain(chain_id="a")
    b = mk_chain(chain_id="b")
    a.register_contract(KvContract())
    b.register_contract(KvContract())  # ids are per-chain


def test_contract_callable_from_next_block():
    ch = mk_chain()
    ch.register_contract(KvContract())
    # same block: registration txn plus a call; the call must fail
    ch.submit_call("alice", "kv", "set", ["x", 1])
    block, _ = ch.produce_block(tick=0)
    statuses = [r.status for r in block.receipts]
    assert statuses == ["ok", "failed"]
    # next block: callable
    block = set_kv(ch, "alice", "x", 1)
    assert block.receipts[0].status == "ok"
    assert ch.read_state("kv.x") == 1


# ------------------------------------------------------------------ genesis


class GenesisProbe(KvContract):
    """Handlers a genesis call may not run: one that emits, one that defers."""

    def _emit(self, ctx, args):
        ctx.emit("beta", "kv", 16, b"x")

    def _defer(self, ctx, args):
        ctx.after_commit(lambda: None)

    handlers = {**KvContract.handlers, "emit": _emit, "defer": _defer}


def test_genesis_contracts_and_calls_commit_in_block_0():
    policy = "allow read on *;"
    ch = Chain(
        ChainConfig(chain_id="alpha", n=4, f=1),
        [KvContract()],
        [("sys", "kv", "set", ["x", 5]), ("sys", "sys.policy", "attach", ["kv", policy])],
    )
    assert ch.height == 0 and ch.mempool == []
    assert ch.contract_active("kv")  # active at height 0, not from the next block
    assert ch.read_state("kv.x") == 5 and ch.current_version("kv.x") == (0, 1)
    assert ch.policy_source("kv") == policy
    genesis = ch.blocks[0]
    assert [(t.target_contract, t.method) for t in genesis.txns] == [
        ("sys.registry", "register"),
        ("kv", "set"),
        ("sys.policy", "attach"),
    ]
    assert [r.status for r in genesis.receipts] == ["ok"] * 3
    assert genesis.header.state_root == MerkleMap({b"sys.contract.kv": True, b"kv.x": 5, b"sys.policy.kv": policy}).root
    # run time goes on at height 1, and sys's nonces continue past genesis
    block = set_kv(ch, "alice", "y", 6)
    assert block.header.height == 1 and block.receipts[0].status == "ok"
    ch.submit_call("sys", "kv", "set", ["z", 7])
    assert ch.mempool[-1].nonce == 4


def test_genesis_call_sees_earlier_genesis_writes_in_history():
    kv = KvContract()
    kv.probes = []
    Chain(ChainConfig(chain_id="alpha", n=4, f=1), [kv], [("sys", "kv", "set", ["x", 5]), ("sys", "kv", "probe", ["", 0])])
    assert kv.probes == [(0, "", 0, [("kv.x", 5, (0, 1))])]


def test_genesis_write_proves_against_the_height_0_root():
    ch = Chain(ChainConfig(chain_id="alpha", n=4, f=1), [KvContract()], [("sys", "kv", "set", ["x", 5])])
    proof = ch.get_proof("kv.x", 0)
    assert proof.kind == MEMBERSHIP and proof.leaf_value == 5
    assert verify_proof(ch.state_root_at(0), proof)


@pytest.mark.parametrize(
    "method, error",
    [("nope", "UnknownContract"), ("emit", "events"), ("defer", "effects")],
    ids=["fails", "emits-an-event", "after-commit-effect"],
)
def test_genesis_call_that_fails_emits_or_defers_is_refused(method, error):
    sim = Simulation(log=None)
    with pytest.raises(ConfigError, match=error):
        sim.add_chain(ChainConfig(chain_id="alpha", n=4, f=1), [GenesisProbe()], [("sys", "kv", method, [])])
    assert "alpha" not in sim.chains and sim.chain_order == []


@pytest.mark.parametrize("cid, error", [("kv", DuplicateContract), ("kv.bids", ConfigError), ("sys", ConfigError)])
def test_genesis_contract_ids_are_checked_like_register_contract(cid, error):
    other = KvContract()
    other.contract_id = cid
    ch = ready_kv(mk_chain())
    with pytest.raises(error):
        ch.register_contract(other)
    sim = Simulation(log=None)
    with pytest.raises(error):
        sim.add_chain(ChainConfig(chain_id="alpha", n=4, f=1), [KvContract(), other])
    assert "alpha" not in sim.chains


@pytest.mark.parametrize("flags", [
    {"alpha:node0": Behavior.SILENT, "alpha:node1": Behavior.SILENT},
    {"alpha:node0": Behavior.SILENT, "alpha:node3": Behavior.EQUIVOCATE},
])
def test_more_than_f_faulty_flags_are_a_config_error(flags):
    with pytest.raises(ConfigError, match="more than f=1"):
        mk_chain(byzantine=flags)
    with pytest.raises(ConfigError, match="more than f=1"):
        Simulation(log=None).add_chain(ChainConfig(chain_id="alpha", n=4, f=1, byzantine=flags))
    # a flag that names honest behaviour is no fault
    mk_chain(byzantine={"alpha:node0": Behavior.SILENT, "alpha:node1": Behavior.HONEST})


@pytest.mark.parametrize("behavior", [Behavior.SILENT, Behavior.EQUIVOCATE])
def test_block_0_is_certified_under_the_config_flags(behavior):
    # f = 2 flagged nodes of 7; block 0 is certified like every block, by the others
    flagged = {"alpha:node1": behavior, "alpha:node5": behavior}
    cfg = ChainConfig(chain_id="alpha", n=7, f=2, byzantine=flagged)
    ch = Chain(cfg, [KvContract()], [("sys", "kv", "set", ["x", 5])])
    genesis = ch.blocks[0]
    assert genesis.header.prev_digest == b"\x00" * 32 and genesis.cert.header_digest == genesis.header.digest
    signers = [node_id for node_id, _ in genesis.cert.signatures]
    assert signers == [node_id for node_id in ch.cfg.node_ids() if node_id not in flagged]
    for node_id, sig in genesis.cert.signatures:
        assert ch.scheme.verify(ch.verify_keys[node_id], genesis.header.digest, sig)


def test_submit_transaction_examples():
    ch = ready_kv(mk_chain())
    txn = Transaction("alpha", "alice", "kv", "set", ("x", 1), nonce=7)
    txid = ch.submit_transaction(txn)
    assert txid == txn.txn_id
    with pytest.raises(DuplicateNonce):
        ch.submit_transaction(txn)
    with pytest.raises(UnknownContract):
        ch.submit_transaction(
            Transaction("alpha", "alice", "nope", "set", ("x", 1), nonce=8)
        )


def test_submit_call_continues_above_an_explicit_nonce():
    ch = Chain(ChainConfig("alpha", 4, 1), [KvContract()])
    ch.submit_transaction(Transaction("alpha", "alice", "kv", "set", ("x", 1), 2))
    ch.submit_call("alice", "kv", "set", ["y", 2])
    ch.submit_call("alice", "kv", "set", ["z", 3])
    assert [txn.nonce for txn in ch.mempool] == [2, 3, 4]
    # a lower explicit nonce does not pull the counter back
    ch.submit_transaction(Transaction("alpha", "alice", "kv", "set", ("w", 4), 1))
    ch.submit_call("alice", "kv", "set", ["v", 5])
    assert ch.mempool[-1].nonce == 5


def test_produce_block_all_honest():
    ch = ready_kv(mk_chain(n=4, f=1))
    for i in range(3):
        ch.submit_call("alice", "kv", "set", [f"k{i}", i])
    block, _ = ch.produce_block(tick=5)
    assert block.header.height == 2
    assert len(block.txns) == 3
    assert len(block.cert.signatures) == 4


def test_produce_block_empty_mempool():
    ch = mk_chain()
    assert ch.produce_block(tick=0) is None


def test_quorum_failure_threshold_enumeration():
    # oracle: enumerate behavior assignments; a block certifies iff the
    # number of honest signers is at least 2f+1
    n, f = 4, 1
    node_ids = ChainConfig("x", n, f).node_ids()
    behaviors = [Behavior.HONEST, Behavior.SILENT, Behavior.EQUIVOCATE]
    for assignment in itertools.product(behaviors, repeat=n):
        honest = sum(1 for b in assignment if b == Behavior.HONEST)
        ch = ready_kv(mk_chain(n=n, f=f, chain_id="x"))
        ch.byzantine.update(
            {nid: b for nid, b in zip(node_ids, assignment) if b != Behavior.HONEST}
        )
        ch.submit_call("alice", "kv", "set", ["k", 1])
        if honest >= 2 * f + 1:
            block, _ = ch.produce_block(tick=0)
            assert len(block.cert.signatures) == honest
        else:
            with pytest.raises(QuorumFailure):
                ch.produce_block(tick=0)


def test_quorum_failure_restores_mempool():
    ch = ready_kv(mk_chain(chain_id="x"))
    ch.byzantine.update(
        {"x:node1": Behavior.SILENT, "x:node2": Behavior.EQUIVOCATE}
    )
    ch.submit_call("alice", "kv", "set", ["k", 1])
    with pytest.raises(QuorumFailure):
        ch.produce_block(tick=0)
    assert len(ch.mempool) == 1
    assert ch.read_state("kv.k") is None
    # heal the chain and retry
    ch.byzantine.clear()
    block, _ = ch.produce_block(tick=1)
    assert block.receipts[0].status == "ok"


@pytest.mark.parametrize(
    "prefix, conflicts",
    [("kv.a", True), ("kv.ab", True), ("kv.", True), ("", True), ("kv.b", False), ("kv.aa", False)],
    ids=["equal", "extends", "extended-by", "everything", "disjoint", "sibling"],
)
def test_prefix_locks_of_two_owners_conflict_when_one_prefix_covers_the_other(prefix, conflicts):
    locks = LockTable()
    assert locks.try_lock_prefix("kv.ab", "t1")
    assert not locks.prefix_conflicts(prefix, "t1")  # an owner never conflicts with itself
    assert locks.prefix_conflicts(prefix, "t2") is conflicts
    assert locks.try_lock_prefix(prefix, "t2") is not conflicts
    locks.release_owner("t1")
    assert locks.try_lock_prefix(prefix, "t2")


def test_quorum_failure_drops_after_commit_effects_and_restores_locks():
    sim = Simulation(log=RunLog())
    ch = ready_kv(sim.add_chain(ChainConfig(chain_id="x", n=4, f=1)))
    ch.locks.try_lock("kv.held", "t0")
    ran = []

    def handler(ctx):
        chain, txn = ctx.chain, ctx.txn
        chain.locks.release_owner("t0")
        chain.locks.try_lock(f"kv.{txn.args[0]}", "t1")
        chain.locks.try_lock_prefix("kv.p.", "t1")
        ctx.after_commit(lambda: ran.append((txn.args[0], chain.height)))
        ctx.after_commit(lambda: sim.log.record("effect", height=chain.height))

    ch.system_handlers["sys.test"] = handler
    ch.submit_call("sys", "sys.test", "go", ["a"])
    ch.byzantine.update({"x:node1": Behavior.SILENT, "x:node2": Behavior.SILENT})
    with pytest.raises(QuorumFailure):
        ch.produce_block(tick=0)
    assert ran == []
    assert (ch.locks.exact, ch.locks.prefix) == ({"kv.held": "t0"}, {})
    ch.byzantine.clear()
    sim.step()
    # effects run once, after the block is appended and before the run log records it
    assert ran == [("a", 2)]
    assert [(r["kind"], r["height"]) for r in sim.log.records[-2:]] == [("effect", 2), ("block", 2)]
    assert (ch.locks.exact, ch.locks.prefix) == ({"kv.a": "t1"}, {"kv.p.": "t1"})
    set_kv(ch, "alice", "b", 1)
    assert ran == [("a", 2)]


def test_failed_system_transaction_leaves_nothing_behind():
    # a handler stages a write, an event and an effect, then raises: only the
    # failed receipt remains
    ch = ready_kv(mk_chain(chain_id="x"))
    ran = []

    def handler(ctx):
        ctx.put("kv.staged", 1)
        ctx.emit("y", "kv", 16, b"payload")
        ctx.after_commit(lambda: ran.append(ctx.txn.args[0]))
        raise InvalidState("late failure")

    ch.system_handlers["sys.test"] = handler
    ch.submit_call("sys", "sys.test", "go", ["a"])
    prev_root = ch.blocks[-1].header.state_root
    block, events = ch.produce_block(tick=1)
    (receipt,) = block.receipts
    assert (receipt.status, receipt.error, receipt.writes) == ("failed", "InvalidState: late failure", ())
    assert ch.read_state("kv.staged") is None
    assert block.header.state_root == prev_root
    assert events == []
    set_kv(ch, "alice", "b", 1)
    assert ran == []


def test_every_read_sees_the_block_in_production():
    # a write earlier in the block is visible to every state read a later
    # transaction of the same block makes, exactly as once it commits
    ch = ready_kv(mk_chain(chain_id="x"))
    seen = []

    def reads(chain):
        return (
            chain.read_state("kv.p.a"),
            chain.current_version("kv.p.a"),
            chain.state_items("kv.p."),
            chain.latest_version_under("kv.p."),
        )

    ch.system_handlers["sys.test"] = lambda ctx: seen.append(reads(ctx.chain))
    ch.submit_call("alice", "kv", "set", ["p.a", 7])
    ch.submit_call("sys", "sys.test", "go", [])
    ch.produce_block(tick=1)
    version = (ch.height, 0)
    assert seen == [(7, version, [("kv.p.a", 7, version)], version)]
    assert reads(ch) == seen[0]


class WriterContract(Contract):
    """Writes or emits whatever the test sets on the class."""

    contract_id = "w"
    write = ("k", 1)
    dest = "y"

    def _write(self, ctx, args):
        ctx.put(*self.write)

    def _emit(self, ctx, args):
        ctx.emit(self.dest, "kv", 16, b"x")

    handlers = {"write": _write, "emit": _emit}


@pytest.mark.parametrize(
    "key, value",
    [("k", 1.5), ("k", [1, 2]), ("k", 2**70), ("k", "\ud800"), ("k\ud800", 1)],
)
def test_contract_write_that_does_not_encode_fails_the_transaction(monkeypatch, key, value):
    ch = ready_kv(mk_chain())
    ch.register_contract(WriterContract())
    ch.produce_block(tick=1)
    monkeypatch.setattr(WriterContract, "write", (key, value))
    ch.submit_call("alice", "w", "write", [])
    ch.submit_call("alice", "kv", "set", ["after", 1])
    prev_root = ch.blocks[-1].header.state_root
    block, _ = ch.produce_block(tick=2)
    bad, good = block.receipts
    assert bad.status == "failed" and bad.error.startswith("EncodingError")
    assert good.status == "ok"
    assert ch.history_ceiling() == ch.height  # no block left in production
    assert ch.read_state("kv.after") == 1
    assert block.header.state_root == full_state_root(ch) != prev_root


def test_event_to_a_destination_that_does_not_encode_fails_the_transaction(monkeypatch):
    ch = ready_kv(mk_chain())
    ch.register_contract(WriterContract())
    ch.produce_block(tick=1)
    monkeypatch.setattr(WriterContract, "dest", "be\ud800ta")
    ch.submit_call("alice", "w", "emit", [])
    block, events = ch.produce_block(tick=2)
    assert block.receipts[0].status == "failed"
    assert block.receipts[0].error.startswith("EncodingError")
    assert events == []


def test_read_state_at_heights():
    ch = ready_kv(mk_chain())  # height 1 after registration
    set_kv(ch, "alice", "x", 5)  # height 2
    set_kv(ch, "alice", "y", 9)  # height 3
    assert ch.read_state("kv.x") == 5
    assert ch.read_state("kv.absent") is None


def test_read_state_sees_latest_version():
    ch = ready_kv(mk_chain())
    set_kv(ch, "alice", "x", 1)
    set_kv(ch, "alice", "x", 2)
    assert ch.read_state("kv.x") == 2


def test_get_history_examples():
    ch = ready_kv(mk_chain())  # h1 registration
    set_kv(ch, "alice", "k", 10)  # h2
    set_kv(ch, "alice", "other", 0)  # h3
    set_kv(ch, "alice", "k", 20)  # h4
    hist = ch.get_history("kv.k", 1, ch.height)
    assert [(k, v) for k, v, _ in hist] == [("kv.k", 10), ("kv.k", 20)]
    assert hist[0][2] < hist[1][2]
    set_kv(ch, "alice", "other", 1)  # advance height past the last k write
    assert ch.get_history("kv.k", ch.height, ch.height) == []
    with pytest.raises(InvalidRange):
        ch.get_history("kv.k", 7, 4)


def test_history_completeness_over_covering_ranges():
    ch = ready_kv(mk_chain())
    for i in range(8):
        set_kv(ch, "alice", "k", i)
    full = ch.get_history("kv.k", 0, ch.height)
    mid = ch.height // 2
    parts = ch.get_history("kv.k", 0, mid) + ch.get_history("kv.k", mid + 1, ch.height)
    assert parts == full
    assert len(full) == 8


def test_get_proof_membership_and_verification():
    ch = ready_kv(mk_chain())
    set_kv(ch, "alice", "x", 5)
    h = ch.height
    proof = ch.get_proof("kv.x", h)
    root = ch.state_root_at(h)
    assert verify_proof(root, proof)
    # anchored to a different height's root: fails
    set_kv(ch, "alice", "x", 6)
    assert not verify_proof(ch.state_root_at(ch.height), proof)


def full_state_root(chain):
    return MerkleMap({k.encode(): v for k, v, _ in chain.state_items()}).root


def test_get_proof_only_at_current_height():
    ch = ready_kv(mk_chain())
    set_kv(ch, "alice", "x", 5)
    set_kv(ch, "alice", "y", 6)
    assert verify_proof(ch.state_root_at(ch.height), ch.get_proof("kv.x", ch.height))
    with pytest.raises(InvalidRange):
        ch.get_proof("kv.x", ch.height - 1)
    with pytest.raises(FutureHeight):
        ch.get_proof("kv.x", ch.height + 1)


def test_quorum_failure_leaves_committed_tree_untouched():
    ch = ready_kv(mk_chain(chain_id="x"))
    set_kv(ch, "alice", "a", 1)
    root = ch.state_root_at(ch.height)
    assert full_state_root(ch) == root
    ch.byzantine.update({"x:node1": Behavior.SILENT, "x:node2": Behavior.SILENT})
    ch.submit_call("alice", "kv", "set", ["a", 2])
    ch.submit_call("alice", "kv", "set", ["b", 3])
    with pytest.raises(QuorumFailure):
        ch.produce_block(tick=0)
    # proofs still come from the committed tree: a is 1 and b is absent
    member, absent = ch.get_proof("kv.a"), ch.get_proof("kv.b")
    assert (member.kind, member.leaf_value, absent.kind) == ("membership", 1, "absence")
    assert verify_proof(root, member) and verify_proof(root, absent)
    assert full_state_root(ch) == root
    ch.byzantine.clear()
    block, _ = ch.produce_block(tick=1)
    assert ch.read_state("kv.a") == 2 and ch.read_state("kv.b") == 3
    assert block.header.state_root == full_state_root(ch) != root
    assert verify_proof(block.header.state_root, ch.get_proof("kv.b"))


def brute_history(chain, prefix, frm, to, before=None):
    """Scan every block's receipts; `before` caps the version (exclusive)."""
    out = []
    for block in chain.blocks:
        h = block.header.height
        for idx, receipt in enumerate(block.receipts):
            if frm <= h <= to and (before is None or (h, idx) < before):
                out += [(k, v, (h, idx)) for k, v in receipt.writes if k.startswith(prefix)]
    return sorted(out, key=lambda e: (e[2], e[0]))


def test_history_index_matches_receipt_scan():
    rng = random.Random(11)
    ch = mk_chain()
    kv = KvContract()
    kv.probes = []
    ch.register_contract(kv)
    ch.produce_block(tick=0)
    probes = []  # (height, index in block)
    for _ in range(25):
        for _ in range(rng.randint(1, 5)):
            r = rng.random()
            if r < 0.7:
                key = rng.choice(["a", "ab", "b"]) + str(rng.randrange(3))
                ch.submit_call("alice", "kv", "set", [key, rng.randrange(100)])
            elif r < 0.85:
                ch.submit_call("alice", "kv", "nosuch", [])  # a failed receipt
            else:
                probes.append((ch.height + 1, len(ch.mempool)))
                frm = rng.randint(0, ch.height + 1)
                ch.submit_call("alice", "kv", "probe", [rng.choice(["", "a", "b"]), frm])
        ch.produce_block(tick=0)
    assert len(kv.probes) == len(probes) > 0
    for (h, idx), (height, prefix, frm, seen) in zip(probes, kv.probes):
        assert height == h
        assert seen == brute_history(ch, "kv." + prefix, frm, h, before=(h, idx))
    for _ in range(200):
        frm = rng.randint(0, ch.height)
        to = rng.randint(frm, ch.height)
        prefix = "kv." + rng.choice(["", "a", "ab", "b1", "c"])
        assert ch.get_history(prefix, frm, to) == brute_history(ch, prefix, frm, to)


@pytest.mark.parametrize("n", [100, 5000])
def test_one_write_block_digests_scale_with_log_of_state(n, monkeypatch):
    # a deterministic guard against an O(state) commitment: a full rebuild
    # hashes every key, at least n digests, far above 3·log2(n)
    ch = ready_kv(mk_chain())
    ch.submit_call("alice", "kv", "fill", [n - 1])
    ch.produce_block(tick=0)
    assert len(ch.state_items()) == n
    ch.submit_call("alice", "kv", "set", ["new", 1])
    calls = []
    real_digest = interopsim.merkle.digest

    def counted(data):
        calls.append(data)
        return real_digest(data)

    monkeypatch.setattr(interopsim.merkle, "digest", counted)
    monkeypatch.setattr(interopsim.chain, "digest", counted)
    ch.produce_block(tick=0)
    assert 0 < len(calls) < 3 * math.log2(n)


def test_get_proof_absence():
    ch = ready_kv(mk_chain())
    set_kv(ch, "alice", "a", 1)
    set_kv(ch, "alice", "z", 2)
    proof = ch.get_proof("kv.m")
    assert proof.kind == "absence"
    assert verify_proof(ch.state_root_at(ch.height), proof)
    with pytest.raises(FutureHeight):
        ch.get_proof("kv.m", ch.height + 3)


def test_failed_txn_recorded_with_receipt():
    ch = ready_kv(mk_chain())
    ch.submit_call("alice", "kv", "nosuch", [])
    block, _ = ch.produce_block(tick=0)
    assert block.receipts[0].status == "failed"
    assert "UnknownContract" in block.receipts[0].error


def test_determinism_identical_runs():
    def run():
        ch = ready_kv(mk_chain())
        for i in range(5):
            set_kv(ch, "alice", f"k{i % 2}", i, tick=i)
        return [b.header.digest for b in ch.blocks]

    assert run() == run()


def test_append_only_prev_links():
    ch = ready_kv(mk_chain())
    for i in range(4):
        set_kv(ch, "alice", "k", i)
    for h in range(1, ch.height + 1):
        assert ch.blocks[h].header.prev_digest == ch.blocks[h - 1].header.digest



def test_each_block_header_hashed_once(monkeypatch):
    hashed: list[bytes] = []
    real_digest = interopsim.chain.digest

    def counted(data):
        hashed.append(data)
        return real_digest(data)

    monkeypatch.setattr(interopsim.chain, "digest", counted)
    ch = ready_kv(mk_chain())
    for i in range(4):
        set_kv(ch, "alice", "k", i)
        assert ch.blocks[ch.height].header.digest  # as a read check reads it
    headers = [encode_record(b.header) for b in ch.blocks[1:]]
    # certified, linked to by the next block and read back: one hash each
    assert Counter(data for data in hashed if data in headers) == Counter(headers)
    for h in range(1, ch.height + 1):
        header = ch.blocks[h].header
        assert header.digest == digest(encode_record(header)) == ch.blocks[h].cert.header_digest

# ------------------------------------------------------------ txn ids


def _txn(nonce=1):
    return Transaction("alpha", "alice", "kv", "set", ("k", 5, None, b"\x00"), nonce)


def test_txn_id_is_the_digest_of_the_encoding():
    txn = _txn()
    assert txn.txn_id == digest(encode_record(txn))


def test_txn_id_encodes_once(monkeypatch):
    calls = []
    real = interopsim.chain.encode_record

    def counted(record):
        calls.append(record)
        return real(record)

    monkeypatch.setattr(interopsim.chain, "encode_record", counted)
    txn = _txn()
    ids = {txn.txn_id for _ in range(5)}
    assert len(ids) == 1 and len(calls) == 1


def test_cached_txn_id_leaves_equality_and_hash_alone():
    a, b = _txn(), _txn()
    a.txn_id  # caches on a only
    assert a == b and hash(a) == hash(b)
    assert {a: 1}[b] == 1
    assert a != _txn(nonce=2)


def test_produced_block_bytes_unchanged():
    ch = ready_kv(mk_chain())
    block = set_kv(ch, "alice", "x", 5, tick=3)
    for txn in block.txns:
        txn.txn_id
    # pinned: caching txn ids must not change the block; its header commits
    # to them through txn_root
    expected = "8d46ed93437410128a540f232e0337a0bfd24aaad39892bff6ae9c6ce0d714c6"
    assert block.header.digest.hex() == expected


def reference_signatures(chain, message):
    """Each node in turn, its key looked up and signed with, per its behavior."""
    sigs = []
    for node_id in chain.cfg.node_ids():
        behavior = chain.byzantine.get(node_id, Behavior.HONEST)
        if behavior == Behavior.SILENT:
            continue
        target = bytes(b ^ 0xFF for b in message) if behavior == Behavior.EQUIVOCATE else message
        sigs.append((node_id, chain.scheme.sign(chain.keys[node_id].signing_key, target)))
    return tuple(sigs)


@pytest.mark.parametrize("scheme", ["hmac", "ed25519"])
@pytest.mark.parametrize("n,f", [(4, 1), (11, 3)])  # 11 nodes: node10 sorts before node2
@pytest.mark.parametrize("behavior", list(Behavior))
def test_node_signatures_match_a_per_node_reference(scheme, n, f, behavior):
    cfg = ChainConfig(chain_id="alpha", n=n, f=f, scheme=scheme, byzantine={"alpha:node1": behavior})
    chain = Chain(cfg)
    message = digest(b"block")
    assert chain.node_signatures(message) == reference_signatures(chain, message)
    # a behavior set at run time, as the scenario action set_byzantine does
    chain.byzantine[f"alpha:node{n - 1}"] = Behavior.SILENT
    chain.byzantine["alpha:node0"] = Behavior.EQUIVOCATE
    assert chain.node_signatures(message) == reference_signatures(chain, message)
    # cleared flags: every node signs the message itself, in node order
    chain.byzantine.clear()
    honest = chain.node_signatures(message)
    assert honest == reference_signatures(chain, message)
    assert [node_id for node_id, _ in honest] == cfg.node_ids()


def test_fault_free_block_computes_each_mac_once(monkeypatch):
    # the certificate checks the MACs the nodes just made by lookup
    chain = ready_kv(mk_chain(n=7, f=2))
    keys = []
    real = HmacScheme._mac

    def counting(self, key, message):
        keys.append(key)
        return real(self, key, message)

    monkeypatch.setattr(HmacScheme, "_mac", counting)
    block = set_kv(chain, "alice", "x", 1)
    assert sorted(keys) == sorted(chain.signing_keys.values())
    assert len(block.cert.signatures) == 7


@pytest.mark.parametrize("node", range(4))
def test_equivocating_signature_fails_the_certificate(node):
    equivocator = f"alpha:node{node}"
    chain = ready_kv(mk_chain(byzantine={equivocator: Behavior.EQUIVOCATE}))
    block = set_kv(chain, "alice", "x", 1)
    signers = [node_id for node_id, _ in block.cert.signatures]
    assert signers == [n for n in chain.cfg.node_ids() if n != equivocator]
    chain.byzantine[f"alpha:node{(node + 1) % 4}"] = Behavior.EQUIVOCATE
    chain.submit_call("alice", "kv", "set", ["x", 2])
    with pytest.raises(QuorumFailure):
        chain.produce_block(tick=1)


def test_certificate_signatures_are_the_verified_quorum_sorted_by_node():
    chain = ready_kv(mk_chain(n=11, f=3, byzantine={"alpha:node4": Behavior.EQUIVOCATE}))
    header = chain.blocks[-1].header
    cert = chain.blocks[-1].cert
    expected = sorted(
        (node_id, sig)
        for node_id, sig in reference_signatures(chain, header.digest)
        if chain.scheme.verify(chain.keys[node_id].verify_key, header.digest, sig)
    )
    assert list(cert.signatures) == expected and len(expected) == 10
