"""The chain side of cross-chain transactions: the `sys.txn` system contract
and the direct-channel read server, which Simulation.add_chain installs on
every chain.  Neither refers to a client, and no other module knows the 2PC
ledger layout.

A read is answered only by the chain it is sent to, contract-path (every
honest node signs the digest of the record (value, nonce, height), f+1
matching signatures required) or storage-path (one node signature plus a
Merkle proof anchored to a certified state root).

A `begin` on the coordinator holds the participants and each one's
`Prepare`; each participant checks write and read policy, compares,
versions and held locks, takes its write locks and votes.  Every abort is a
`decide` on the coordinator.  Locks are released only by a no vote or an
applied decision, and a chain that applied one takes no more locks for the
transaction.  The ledger is the only copy of the 2PC state.  Each
participant keeps one `VoteRecord` under `sys.xt.<txid>.vote` (its vote,
the no vote's reason, the coordinator, and the writes a commit applies) and
`sys.applied.<txid>`.  The coordinator keeps `sys.2pc.<txid>.participants`,
each remote participant's vote as `sys.2pc.<txid>.vote.<chain>` (its own is
its vote record), `sys.2pc.<txid>.decision`, and `sys.2pc.<txid>.phase`.
No protocol code reads `phase`: it is written only for `perfbench`'s
`tally`, which times each decision from the begin block that wrote it, and
it can go once the benchmark reads decisions from the run log instead.
Protocol messages are bus events signed by f+1 nodes of their source chain,
which names the coordinator to a participant and the voter to the
coordinator; once a chain votes yes, only its coordinator's decide counts.
The first no vote decides abort, the last yes decides commit.  The
coordinator's own share prepares first and never touches the bus (R*'s
coordinator as participant): a message to the chain that sends it runs at
once, in the sender's ExecContext, so the begin block prepares and votes
locally (a no there decides before any remote prepare leaves) and the
deciding block applies locally, and a transaction whose only participant is
its coordinator decides in its begin block.
Each handler reads and stages only through its ExecContext, and tells the
chain's client (`Chain.client`, if it has one) what happened by a call of
one of the client's methods, keyed by txid, through `ctx.after_commit` (a
read's lock at serve time).  So a decision is durable before anyone hears
it, a failed handler or a block lost to QuorumFailure leaves nothing
behind, and a restarted client finishes a prepared transaction.
"""

from __future__ import annotations

from functools import partial
from typing import Optional

from .bus import KIND_DECIDE, KIND_PREPARE, KIND_VOTE
from .chain import Behavior, Chain, EventDraft, ExecContext, Version
from .errors import EncodingError, InvalidState
from .merkle import MerkleProof
from .policy import AggExpr, ChainEvalContext, eval_aggregate
from .values import Value, decode_record, digest, encode_record, encode_value, record


def decision_key(txid: str) -> str:
    """The coordinator's ledger key that holds the decision, commit or abort."""
    return f"sys.2pc.{txid}.decision"


def applied_marker(txid: str) -> str:
    """A participant's ledger key that holds the decision once it is applied there."""
    return f"sys.applied.{txid}"


# ---------------------------------------------------------------- records

# Every protocol message is a record (values.encode_record) of its class and
# decodes through values.decode_record(raw, cls), which checks every field
# against its annotation; the `__prefix__` rows are a PrefixRows record inside
# a signed value, checked the same way.  Read requests and responses carry
# no kind byte: their shapes differ (10 fields against 8), so neither decodes
# as the other.  A storage-path response's Merkle proof is a record nested
# in it, decoded and checked with the response.


@record
class ReadRequest:
    nonce: int
    target_chain: str
    contract: str = ""  # the active contract a query or __agg__ reads; "" on key paths
    method: str = ""  # "" selects the storage path (a full key)
    key: str = ""  # storage and __prefix__ reads: a full key or key prefix
    args: tuple[Value, ...] = ()
    caller_id: str = "client"
    caller_chain: str = ""
    lock_for: str = ""  # general-txn id that wants the key locked first
    lock_only: bool = False


@record
class ReadResponse:
    value: Value
    anchor_height: int
    nonce: int
    signatures: tuple[tuple[str, bytes], ...]
    proof: Optional[MerkleProof] = None  # storage path only
    version: Optional[Version] = None
    status: str = "ok"  # ok | denied | locked | error
    reason: str = ""


def read_response_digest(value: Value, nonce: int, anchor_height: int) -> bytes:
    return digest(encode_record((value, nonce, anchor_height)))


PrefixRows = tuple[tuple[str, Value, Version], ...]  # (key, value, version)


@record
class Prepare:
    """One participant's share of a transaction, as the prepare event carries it.

    The participant checks write policy, read policy on `reads`, compares,
    versions and prefix versions (OCC), held locks (locks mode), then takes
    the write locks, in that order.  A set the transaction does not use is
    empty.  The coordinator is the prepare event's authenticated source.
    """

    txn_id: str
    caller_id: str
    compares: tuple[tuple[str, Value], ...] = ()  # (key, expected value)
    reads: tuple[str, ...] = ()  # keys whose values return with the vote
    versions: tuple[tuple[str, Version], ...] = ()  # (key, version read)
    prefixes: tuple[tuple[str, Version], ...] = ()  # (prefix, latest version under it)
    locks: tuple[str, ...] = ()  # keys, or prefixes ending in "*", locked while reading
    writes: tuple[tuple[str, Value], ...] = ()  # (key, value)


@record
class Vote:
    """A participant's vote on its prepare, with the values of the keys it read."""

    txn_id: str
    vote: str  # yes | no
    reason: str
    reads: tuple[tuple[str, Value], ...] = ()  # (key, value)


@record
class VoteRecord:
    """A participant's vote as its ledger keeps it: on a yes, only the decide
    of `coordinator` counts, and a commit applies `writes`."""

    vote: str  # yes | no
    reason: str  # why the vote is no; "" on a yes
    coordinator: str
    writes: tuple[tuple[str, Value], ...] = ()  # (key, value)


@record
class Outcome:
    """The coordinator's decision on a transaction, as each participant hears it."""

    txn_id: str
    decision: str  # commit | abort


# ------------------------------------------------------------ read server


def serve_direct(chain: Chain, raw: bytes, now: int) -> Optional[bytes]:
    """`chain`'s direct-channel handler; no answer to bytes that are no
    ReadRequest, or to a request sent to another chain."""
    try:
        req = decode_record(raw, ReadRequest)
    except EncodingError:
        return None
    if req.target_chain != chain.chain_id:
        return None
    return _serve_read(chain, req)


def _refusal(req: ReadRequest, height: int, status: str, reason: str) -> bytes:
    """A response carrying no value: status denied, locked or error."""
    return encode_record(ReadResponse(None, height, req.nonce, (), status=status, reason=reason))


def _agg_request(args: tuple) -> Optional[AggExpr]:
    """The aggregate an `__agg__` read asks for; None unless args are (str, str[, int, int])."""
    if len(args) in (2, 4) and all(type(a) is t for a, t in zip(args, (str, str, int, int))):
        return AggExpr(*args)
    return None


def _serve_read(chain: Chain, req: ReadRequest) -> Optional[bytes]:
    height = chain.height

    # a lock taken after the decision was applied here would never be released
    if req.lock_for and chain.read_state(applied_marker(req.lock_for)) is not None:
        return _refusal(req, height, "error", f"transaction {req.lock_for} is decided")

    # storage and prefix reads name full keys, each gated by Chain.key_access
    if req.contract and req.method in ("", "__prefix__"):
        return _refusal(req, height, "error", "a storage or prefix read names a full key, not a contract")

    # prefix snapshot: phantom-safe row listing with a prefix version guard
    if req.method == "__prefix__":
        prefix = req.key
        rows = [
            (key, value, version)
            for key, value, version in chain.state_items(prefix)
            if value is not None
        ]
        for key, _, _ in rows:
            decision = chain.key_access("read", key, req.caller_id, req.caller_chain, height)
            if not decision.allowed:
                return _refusal(req, height, "denied", decision.reason)
        if req.lock_for:
            if not chain.locks.try_lock_prefix(prefix, req.lock_for):
                return _refusal(req, height, "locked", prefix)
            if chain.client is not None:
                chain.client.lock(req.lock_for, chain.chain_id, "acquire", prefix)
        guard = chain.latest_version_under(prefix)
        value = encode_record(rows)
        sigs = chain.node_signatures(read_response_digest(value, req.nonce, height))
        return encode_record(ReadResponse(value, height, req.nonce, sigs, version=guard))

    # aggregate query (resource agg.<fn>.<prefix>, no row access implied)
    # or contract path (a read-only query handler) of an active contract:
    # every node signs
    if req.method:
        if not chain.contract_active(req.contract):
            return _refusal(req, height, "error", f"UnknownContract: {req.contract!r} is not active")
        agg = None
        resource = req.method
        if req.method == "__agg__":
            agg = _agg_request(req.args)
            if agg is None:
                return _refusal(req, height, "error", "__agg__ takes (fn, prefix[, from, to])")
            resource = f"agg.{agg.fn}.{agg.prefix.rstrip('.')}" if agg.prefix else f"agg.{agg.fn}"
        decision = chain.evaluate_policy(req.contract, "read", resource, req.caller_id, req.caller_chain)
        if not decision.allowed:
            return _refusal(req, height, "denied", decision.reason)
        try:
            if agg is not None:
                value = eval_aggregate(agg, ChainEvalContext(chain, req.contract, height))
            else:
                value = chain.run_query(req.contract, req.method, list(req.args))
            encode_value(value)  # a handler's tuple would otherwise sign as a list
            sigs = chain.node_signatures(read_response_digest(value, req.nonce, height))
        except Exception as exc:
            return _refusal(req, height, "error", f"{type(exc).__name__}: {exc}")
        return encode_record(ReadResponse(value, height, req.nonce, sigs))

    # storage path: plain key, merkle proof, single (first honest) node;
    # a write-lock acquisition is gated on write intent, not read
    action = "write" if req.lock_only else "read"
    decision = chain.key_access(action, req.key, req.caller_id, req.caller_chain, height)
    if not decision.allowed:
        return _refusal(req, height, "denied", decision.reason)
    if req.lock_for:
        if not chain.locks.try_lock(req.key, req.lock_for):
            return _refusal(req, height, "locked", req.key)
        if chain.client is not None:
            chain.client.lock(req.lock_for, chain.chain_id, "acquire", req.key)
    value = chain.read_state(req.key)
    version = chain.current_version(req.key)
    proof = chain.get_proof(req.key, height)
    sigs = ()
    for node_id, key in chain.signing_keys.items():
        if chain.byzantine.get(node_id, Behavior.HONEST) == Behavior.HONEST:
            sigs = ((node_id, chain.scheme.sign(key, read_response_digest(value, req.nonce, height))),)
            break
    return encode_record(ReadResponse(value, height, req.nonce, sigs, proof, version))


# ------------------------------------------------------ sys.txn contract


def sys_txn_exec(ctx: ExecContext) -> None:
    """The `sys.txn` system handler: runs inside block execution, deterministically.

    2PC state is read only from `ctx`, which sees the ledger and this
    block; writes and protocol events are staged on `ctx`, and the client
    hears of them through `ctx.after_commit`."""
    method, args = ctx.txn.method, ctx.txn.args
    if method == "begin":
        _exec_begin(ctx, args[0], args[1], args[2:])
    elif method == "decide":
        _exec_decide(ctx, *args)
    elif method == "apply":
        _exec_apply(ctx, args[0], args[1])
    elif method != "__event__":
        raise EncodingError(f"unknown sys.txn method {method}")
    else:
        # the sender (coordinator or voter) is the event's authenticated source
        event = ctx.chain.inbox_event(ctx.txn)
        _receive(ctx, event.source_chain, event.kind, event.payload)


def _sys_event(dest_chain: str, kind: int, payload: bytes) -> EventDraft:
    return EventDraft(
        dest_chain=dest_chain,
        dest_contract="sys.txn",
        kind=kind,
        payload=payload,
        source_contract="sys.txn",
    )


def _send(ctx: ExecContext, dest: str, kind: int, payload: bytes) -> None:
    """Stage a protocol message to `dest`; one to the executing chain runs now, in `ctx`."""
    if dest == ctx.chain.chain_id:
        _receive(ctx, dest, kind, payload)
    else:
        ctx.events.append(_sys_event(dest, kind, payload))


def _receive(ctx: ExecContext, source: str, kind: int, payload: bytes) -> None:
    """Run one protocol message; `source` is a bus event's authenticated
    source, or the executing chain for a message it sent itself."""
    if kind == KIND_PREPARE:
        _exec_prepare(ctx, source, decode_record(payload, Prepare))
    elif kind == KIND_VOTE:
        _exec_vote(ctx, source, decode_record(payload, Vote))
    elif kind == KIND_DECIDE:
        outcome = decode_record(payload, Outcome)
        _exec_apply(ctx, outcome.txn_id, outcome.decision, source)
    else:
        raise EncodingError(f"unexpected protocol event kind {kind}")


# --- coordinator side ---


def _exec_begin(ctx: ExecContext, txid: str, participants: str, prepares: tuple) -> None:
    ctx.xchain_txn = txid
    ctx.put(f"sys.2pc.{txid}.phase", "prepare")
    ctx.put(f"sys.2pc.{txid}.participants", participants)
    if prepares:  # an abort before commit carries none
        for part, payload in zip(participants.split(","), prepares, strict=True):
            if ctx.get(decision_key(txid)) is None:  # else the coordinator's own no decided
                _send(ctx, part, KIND_PREPARE, payload)


def _exec_decide(ctx: ExecContext, txid: str, decision: str, reason: str) -> None:
    participants = ctx.get(f"sys.2pc.{txid}.participants")
    if participants is None or ctx.get(decision_key(txid)) is not None:
        return
    ctx.xchain_txn = txid
    ctx.put(decision_key(txid), decision)
    if ctx.chain.client is not None:
        ctx.after_commit(partial(ctx.chain.client.decided, txid, decision, reason))
    payload = encode_record(Outcome(txid, decision))
    for part in participants.split(","):
        _send(ctx, part, KIND_DECIDE, payload)


def _exec_vote(ctx: ExecContext, part: str, v: Vote) -> None:
    txid = v.txn_id
    participants = ctx.get(f"sys.2pc.{txid}.participants")
    parts = [] if participants is None else participants.split(",")
    if part not in parts:  # an unknown txid, or a chain the transaction never asked
        return
    ctx.xchain_txn = txid
    coordinator = ctx.chain.chain_id
    if part != coordinator:  # the coordinator's own vote is its vote record
        ctx.put(f"sys.2pc.{txid}.vote.{part}", f"{v.vote}:{v.reason}")
    if ctx.get(decision_key(txid)) is not None:
        return
    all_in = all(
        _voted_here(ctx, txid) if p == coordinator else ctx.get(f"sys.2pc.{txid}.vote.{p}") is not None
        for p in parts
    )
    if ctx.chain.client is not None:
        reads = {(part, k): value for k, value in v.reads}
        ctx.after_commit(partial(ctx.chain.client.vote_counted, txid, reads, all_in))
    if v.vote != "yes":  # the first no decides abort, the last yes commit
        _exec_decide(ctx, txid, "abort", v.reason)
    elif all_in:
        _exec_decide(ctx, txid, "commit", "")


def _voted_here(ctx: ExecContext, txid: str) -> bool:
    """Whether the coordinator's own share has voted: its vote record names
    this chain, not another chain that sent a prepare under the same txid."""
    stored = ctx.get(f"sys.xt.{txid}.vote")
    return stored is not None and decode_record(stored, VoteRecord).coordinator == ctx.chain.chain_id


# --- participant side ---


def _exec_prepare(ctx: ExecContext, coordinator: str, p: Prepare) -> None:
    chain, client, txid = ctx.chain, ctx.chain.client, p.txn_id
    ctx.xchain_txn = txid
    vote_key = f"sys.xt.{txid}.vote"
    # a prepare voted on before, or arriving after a decision was applied
    # here (say a retransmit past a VoteTimeout abort), must take no locks
    if ctx.get(vote_key) is not None or ctx.get(applied_marker(txid)) is not None:
        return
    reason = _prepare_checks(ctx, coordinator, p)
    vote = "no" if reason else "yes"
    ctx.put(vote_key, encode_record(VoteRecord(vote, reason, coordinator, () if reason else p.writes)))
    reads = () if reason else tuple((key, ctx.get(key)) for key in p.reads)
    if not reason:
        if coordinator != chain.chain_id and client is not None:  # the coordinator applies its share as it decides
            ctx.after_commit(partial(client.yes_voted, txid, chain.chain_id, coordinator))
    elif chain.locks.release_owner(txid) and client is not None:  # a no-vote releases every lock this txn holds here
        ctx.after_commit(partial(client.lock, txid, chain.chain_id, "release", "*"))
    _send(ctx, coordinator, KIND_VOTE, encode_record(Vote(txid, vote, reason, reads)))


def _prepare_checks(ctx: ExecContext, coordinator: str, p: Prepare) -> str:
    """The reason to vote no, or "" after taking the write locks."""
    chain, txid = ctx.chain, p.txn_id
    for action, keys in (("write", [key for key, _ in p.writes]), ("read", p.reads)):
        for key in keys:
            decision = chain.key_access(action, key, p.caller_id, coordinator, ctx.height)
            if not decision.allowed:
                return f"PolicyDenied: {decision.reason}"
    for key, expected in p.compares:
        if ctx.get(key) != expected:
            return f"CompareFailed: {chain.chain_id}:{key}"
    # first-committer-wins: newer versions, this block's writes included,
    # abort the transaction
    for key, ver in p.versions:
        if (chain.current_version(key) or (0, 0)) != ver:
            return f"VersionConflict: {key}"
    for prefix, ver in p.prefixes:
        if chain.latest_version_under(prefix) != ver:
            return f"VersionConflict: {prefix}*"
    for key in p.locks:
        held = chain.locks.prefix if key.endswith("*") else chain.locks.exact
        if held.get(key.removesuffix("*")) != txid:
            return f"LockLost: {key}"
    for key, _ in p.writes:
        if chain.locks.exact.get(key) == txid or _covered_by_prefix(chain, key, txid):
            continue
        if not chain.locks.try_lock(key, txid):
            return f"LockConflict: {key}"
        if chain.client is not None:
            ctx.after_commit(partial(chain.client.lock, txid, chain.chain_id, "acquire", key))
    return ""


def _covered_by_prefix(chain: Chain, key: str, owner: str) -> bool:
    return any(key.startswith(p) for p, o in chain.locks.prefix.items() if o == owner)


def _exec_apply(ctx: ExecContext, txid: str, decision: str, source: str = "") -> None:
    chain, client = ctx.chain, ctx.chain.client
    ctx.xchain_txn = txid
    marker = applied_marker(txid)
    if ctx.get(marker) is not None:
        return  # applied already
    stored = ctx.get(f"sys.xt.{txid}.vote")
    voted = None if stored is None else decode_record(stored, VoteRecord)
    yes = voted is not None and voted.vote == "yes"
    if source and yes and source != voted.coordinator:
        return  # a decide from other than the coordinator a yes vote names
    ctx.put(marker, decision)
    if decision == "commit":  # every participant voted yes, so stored its writes
        if not yes:
            raise InvalidState(f"commit of {txid} without a yes vote here")
        for key, value in voted.writes:
            ctx.put(key, value)
    if chain.locks.release_owner(txid) and client is not None:
        ctx.after_commit(partial(client.lock, txid, chain.chain_id, "release", "*"))
    if client is not None:
        ctx.after_commit(partial(client.applied, txid))
