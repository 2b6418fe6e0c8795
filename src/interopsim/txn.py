"""Cross-chain transactions: verified reads and one two-phase commit path.

Reads travel a direct request/response channel and come back either
contract-path (every honest node signs the digest of the record
(value, nonce, height), f+1 matching signatures required) or storage-path
(one node signature plus a Merkle proof anchored to a certified state root).

Every cross-chain transaction is an `XTxn` committed by the same 2PC run on
a coordinator chain.  A mini-transaction knows its compare/read/write sets
up front; a general one (lock-based or optimistic) builds its read (with
versions), prefix, lock and write sets through verified reads first.  At
commit the client submits a `begin` that holds the participants and each
one's `Prepare`; each participant checks write and read policy, compares,
versions and held locks, takes its write locks and votes.  Every abort is a
`decide` on the coordinator; before commit it follows a `begin` that carries
no prepares.  Locks are released only by a no vote or an applied decision,
and a chain that applied one takes no more locks for the transaction.  The
ledger is the only copy of the 2PC state: the coordinator keeps the
participants, votes and decision under `sys.2pc.<txid>.`, a participant
its vote (`sys.xt.<txid>.vote`, yes or no), on a yes its coordinator and
the writes it will apply (`sys.xt.<txid>.writes`), and `sys.applied.<txid>`.
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
Each `sys.txn` handler reads and stages only through its ExecContext and
reaches engine memory (client futures, polls, meters, log records) only
through `ExecContext.after_commit` callbacks, which skip a transaction this
engine has no record of.  So a decision is durable before anyone hears it,
a failed handler or a block lost to QuorumFailure leaves nothing behind, and
a restarted engine finishes a prepared transaction.  Prepared remote
participants that miss the decision poll the coordinator's ledger.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .bus import KIND_DECIDE, KIND_PREPARE, KIND_VOTE
from .chain import Behavior, Chain, EventDraft, ExecContext, Version
from .errors import (
    EncodingError,
    InvalidState,
    LockTimeout,
    PolicyDenied,
    ProofInvalid,
    StaleQuorum,
)
from .merkle import MerkleProof, verify_proof
from .policy import AggExpr, ChainEvalContext, eval_aggregate
from .sim import Future, Simulation
from .values import Value, check_entry, decode_record, digest, encode_record, encode_value, record

LOCK_TIMEOUT = 50  # a locked read is resent for this long, then LockTimeout aborts it
VOTE_TIMEOUT = 40  # the client aborts a commit the coordinator has not decided by then
DECISION_POLL = 20  # a prepared participant asks the coordinator this often

MODE_LOCKS = "locks"
MODE_OCC = "occ"

ST_ACTIVE = "active"
ST_PREPARED = "prepared"
ST_COMMITTED = "committed"
ST_ABORTED = "aborted"


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


@record
class MiniTxn:
    compares: tuple[tuple[str, str, Value], ...]  # (chain, key, expected)
    reads: tuple[tuple[str, str], ...]  # (chain, key)
    writes: tuple[tuple[str, str, Value], ...]  # (chain, key, value)


@record
class Committed:
    read_values: dict = field(default_factory=dict)


@record
class Aborted:
    reason: str


@dataclass(eq=False)
class XTxn:
    """One cross-chain transaction, mini or general, and its 2PC bookkeeping.

    Sets are keyed by chain.  A mini-transaction fills `compare_set`,
    `fetch_set` (keys whose values come back with the vote) and `write_set`
    before commit; a general one fills `read_set` and `prefix_set` (with the
    versions seen), `lock_keys` (locks mode) and `write_set` as it runs.
    """

    txn_id: str
    kind: str  # "mini" | "general": the type of the xtxn log record
    coordinator_chain: str
    caller_id: str = "client"
    mode: str = ""  # general: MODE_LOCKS | MODE_OCC
    status: str = ST_ACTIVE
    reason: str = ""  # the abort reason submitted, then the decision's
    future: Optional[Future] = None
    participants: list[str] = field(default_factory=list)
    read_values: dict[tuple[str, str], Value] = field(default_factory=dict)
    compare_set: list[tuple[str, str, Value]] = field(default_factory=list)
    fetch_set: list[tuple[str, str]] = field(default_factory=list)
    read_set: list[tuple[str, str, Version]] = field(default_factory=list)
    prefix_set: list[tuple[str, str, Version]] = field(default_factory=list)
    lock_keys: dict[str, list[str]] = field(default_factory=dict)  # chain -> held lock keys
    write_set: dict[tuple[str, str], Value] = field(default_factory=dict)

    def chains(self) -> list[str]:
        """Every chain the sets name, in first-touch order: the participants."""
        seen: dict[str, None] = {}
        for chain, *_ in [
            *self.compare_set,
            *self.fetch_set,
            *self.read_set,
            *self.prefix_set,
            *self.write_set,
        ]:
            seen.setdefault(chain)
        for chain in self.lock_keys:
            seen.setdefault(chain)
        return list(seen)

    def prepare_for(self, chain: str) -> "Prepare":
        occ = self.mode == MODE_OCC
        return Prepare(
            txn_id=self.txn_id,
            caller_id=self.caller_id,
            compares=tuple((k, v) for c, k, v in self.compare_set if c == chain),
            reads=tuple(k for c, k in self.fetch_set if c == chain),
            versions=tuple((k, ver) for c, k, ver in self.read_set if c == chain) if occ else (),
            prefixes=tuple((p, ver) for c, p, ver in self.prefix_set if c == chain) if occ else (),
            locks=tuple(self.lock_keys.get(chain, ())),
            writes=tuple((k, v) for (c, k), v in self.write_set.items() if c == chain),
        )


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
class Outcome:
    """The coordinator's decision on a transaction, as each participant hears it."""

    txn_id: str
    decision: str  # commit | abort


# ---------------------------------------------------------------- payloads

# Every protocol message is a record (values.encode_record) of its class and
# decodes through values.decode_record(raw, cls), which checks every field
# against its annotation; the `__prefix__` rows are a PrefixRows record inside
# a signed value, checked the same way.  Read requests and responses carry
# no kind byte: their shapes differ (10 fields against 8), so neither decodes
# as the other.  A storage-path response's Merkle proof is a record nested
# in it, decoded and checked with the response.

PrefixRows = tuple[tuple[str, Value, Version], ...]  # (key, value, version)
PreparedWrites = tuple[str, tuple[tuple[str, Value], ...]]  # a yes vote's coordinator, (key, value) writes

def _answer(
    req: ReadRequest,
    height: int,
    value: Value,
    signatures: tuple[tuple[str, bytes], ...],
    proof: Optional[MerkleProof] = None,
    version: Optional[Version] = None,
) -> bytes:
    return encode_record(ReadResponse(value, height, req.nonce, signatures, proof, version))


def _refusal(req: ReadRequest, height: int, status: str, reason: str) -> bytes:
    """A response carrying no value: status denied, locked or error."""
    return encode_record(ReadResponse(None, height, req.nonce, (), status=status, reason=reason))


def _agg_request(args: tuple) -> Optional[AggExpr]:
    """The aggregate an `__agg__` read asks for; None unless args are (str, str[, int, int])."""
    if len(args) in (2, 4) and all(type(a) is t for a, t in zip(args, (str, str, int, int))):
        return AggExpr(*args)
    return None


def _sys_event(dest_chain: str, kind: int, payload: bytes) -> EventDraft:
    return EventDraft(
        dest_chain=dest_chain,
        dest_contract="sys.txn",
        kind=kind,
        payload=payload,
        source_contract="sys.txn",
    )


# ------------------------------------------------------------- the engine


class XTxnEngine:
    """Protocol driver: registered on a Simulation, serves every chain."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._nonce = 0
        self._txn_seq = 0
        # every transaction begun here; the coordinator ledger mirrors decisions
        self.records: dict[str, XTxn] = {}
        for chain_id in sim.chain_order:
            self.attach_chain(chain_id)

    def attach_chain(self, chain_id: str) -> None:
        chain = self.sim.chains[chain_id]
        chain.system_handlers["sys.txn"] = self._sys_txn_exec
        self.sim.direct_handlers[chain_id] = self._serve_direct

    # ------------------------------------------------------------- reads

    def next_nonce(self) -> int:
        self._nonce += 1
        return self._nonce

    def make_read_request(self, target_chain: str, **fields) -> ReadRequest:
        """A request under a fresh nonce; `fields` are ReadRequest's other fields."""
        return ReadRequest(self.next_nonce(), target_chain, **fields)

    def _read(self, req: ReadRequest):
        """Task body: send the request; returns the verified ReadResponse."""
        raw = yield self.sim.direct_request(req.target_chain, encode_record(req))
        return self.verify_response(req, raw)

    def verify_response(self, req: ReadRequest, raw: Optional[bytes]) -> ReadResponse:
        if raw is None:
            raise StaleQuorum("no response within retry budget")
        resp = decode_record(raw, ReadResponse)
        if resp.status == "denied":
            raise PolicyDenied(resp.reason)
        if resp.status == "locked":
            return resp  # caller retries; carries no accepted value
        if resp.status != "ok":
            raise StaleQuorum(resp.reason or "malformed response")
        if resp.nonce != req.nonce:
            raise StaleQuorum("nonce mismatch (replayed response)")
        if resp.anchor_height < 0:
            raise StaleQuorum("negative anchor height")
        registry = self.sim.registry
        f = registry.f_of(req.target_chain)
        expected = read_response_digest(resp.value, req.nonce, resp.anchor_height)
        valid = registry.count_valid(req.target_chain, expected, resp.signatures)
        proof = resp.proof
        if proof is not None:
            # storage path: certified root + proof + at least one fresh signature
            if valid < 1:
                raise StaleQuorum("storage-path response lacks a valid signature")
            chain = self.sim.chains[req.target_chain]
            root = chain.state_root_at(resp.anchor_height)
            block = chain.blocks[resp.anchor_height]
            if registry.count_valid(req.target_chain, block.header.digest, block.cert.signatures) < 2 * f + 1:
                raise ProofInvalid("anchor block certificate invalid")
            if proof.root_height != resp.anchor_height:
                raise ProofInvalid("proof anchored to a different height")
            if not verify_proof(root, proof):
                raise ProofInvalid("merkle proof does not verify")
            if proof.leaf_key != req.key.encode("utf-8"):
                raise ProofInvalid("proof is for a different key")
            if proof.kind == "membership" and proof.leaf_value != resp.value:
                raise ProofInvalid("proof value mismatch")
            if proof.kind == "absence" and resp.value is not None:
                raise ProofInvalid("absence proof with non-null value")
        elif valid < f + 1:
            raise StaleQuorum(f"{valid} matching signatures < f+1 = {f + 1}")
        return resp

    def verified_read(self, req: ReadRequest) -> ReadResponse:
        """Synchronous facade: pumps the simulation until the read resolves."""
        return self.sim.pump(self.sim.spawn(self._read(req)).future)

    # --- participant-side serving (direct channel handler) ---

    def _serve_direct(self, raw: bytes, now: int) -> Optional[bytes]:
        try:
            req = decode_record(raw, ReadRequest)
        except EncodingError:
            return None
        chain = self.sim.chains.get(req.target_chain)
        if chain is None:
            return None
        return self._serve_read(chain, req)

    def _serve_read(self, chain: Chain, req: ReadRequest) -> Optional[bytes]:
        height = chain.height

        # a lock taken after the decision was applied here would never be released
        if req.lock_for and chain.read_state(f"sys.applied.{req.lock_for}") is not None:
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
                self._log_lock(chain.chain_id, "acquire", prefix, req.lock_for)
            guard = chain.latest_version_under(prefix)
            value = encode_record(rows)
            sigs = chain.node_signatures(read_response_digest(value, req.nonce, height))
            return _answer(req, height, value, sigs, version=guard)

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
            return _answer(req, height, value, sigs)

        # storage path: plain key, merkle proof, single (first honest) node;
        # a write-lock acquisition is gated on write intent, not read
        action = "write" if req.lock_only else "read"
        decision = chain.key_access(action, req.key, req.caller_id, req.caller_chain, height)
        if not decision.allowed:
            return _refusal(req, height, "denied", decision.reason)
        if req.lock_for:
            if not chain.locks.try_lock(req.key, req.lock_for):
                return _refusal(req, height, "locked", req.key)
            self._log_lock(chain.chain_id, "acquire", req.key, req.lock_for)
        value = chain.read_state(req.key)
        version = chain.current_version(req.key)
        proof = chain.get_proof(req.key, height)
        sigs = ()
        for node_id, key in chain.signing_keys.items():
            if chain.byzantine.get(node_id, Behavior.HONEST) == Behavior.HONEST:
                sigs = ((node_id, chain.scheme.sign(key, read_response_digest(value, req.nonce, height))),)
                break
        return _answer(req, height, value, sigs, proof=proof, version=version)

    # ---------------------------------------------------- transactions

    def new_txn_id(self, prefix: str) -> str:
        self._txn_seq += 1
        return digest(f"{prefix}|{self._txn_seq}".encode()).hex()[:16]

    def execute_minitxn_async(
        self, coordinator: str, mt: MiniTxn, caller_id: str = "client"
    ) -> Future:
        # a key or value no Prepare could carry fails here, before anything is sent
        for _, key, value in (*mt.compares, *mt.writes):
            check_entry(key, value)
        for _, key in mt.reads:
            check_entry(key, None)
        t = XTxn(
            self.new_txn_id(f"mt|{coordinator}"),
            "mini",
            coordinator,
            caller_id,
            compare_set=list(mt.compares),
            fetch_set=list(mt.reads),
            write_set={(chain, key): value for chain, key, value in mt.writes},
        )
        self.records[t.txn_id] = t
        return self._commit(t)

    def execute_minitxn(self, coordinator: str, mt: MiniTxn, caller_id: str = "client"):
        return self.sim.pump(self.execute_minitxn_async(coordinator, mt, caller_id))

    def begin_general(self, coordinator: str, mode: str, caller_id: str = "client") -> XTxn:
        if mode not in (MODE_LOCKS, MODE_OCC):
            raise InvalidState(f"unknown mode {mode}")
        t = XTxn(self.new_txn_id(f"gt|{coordinator}"), "general", coordinator, caller_id, mode)
        self.records[t.txn_id] = t
        return t

    def _require_active(self, t: XTxn) -> None:
        if t.status != ST_ACTIVE:
            raise InvalidState(f"transaction is {t.status}")

    def _locked_request(self, t: XTxn, chain_id: str, what: str, **fields):
        """Task body: send one read request, resending while the target is locked.

        Past the lock timeout the transaction aborts with LockTimeout."""
        deadline = self.sim.tick + LOCK_TIMEOUT
        if fields.get("lock_for"):  # an abort must reach a lock still in flight
            t.lock_keys.setdefault(chain_id, [])
        while True:
            self._require_active(t)
            req = self.make_read_request(
                chain_id, caller_id=t.caller_id, caller_chain=t.coordinator_chain, **fields
            )
            resp = yield from self._read(req)
            if resp.status != "locked":
                break
            if self.sim.tick >= deadline:
                self.abort(t, "LockTimeout")
                raise LockTimeout(f"{chain_id}:{what}")
            yield self.sim.sleep(2)
        self._require_active(t)
        return resp

    def txn_read_async(self, t: XTxn, chain_id: str, key: str) -> Future:
        self._require_active(t)
        if (chain_id, key) in t.write_set:
            fut = Future()
            fut.set_result(t.write_set[(chain_id, key)])
            return fut  # read-your-writes
        return self.sim.spawn(self._txn_read_task(t, chain_id, key, prefix=False)).future

    def txn_read_prefix_async(self, t: XTxn, chain_id: str, prefix: str) -> Future:
        self._require_active(t)
        return self.sim.spawn(self._txn_read_task(t, chain_id, prefix, prefix=True)).future

    def _txn_read_task(self, t: XTxn, chain_id: str, key: str, prefix: bool):
        lock_for = t.txn_id if t.mode == MODE_LOCKS else ""
        what = key + "*" if prefix else key
        method = "__prefix__" if prefix else ""
        resp = yield from self._locked_request(
            t, chain_id, what, method=method, key=key, lock_for=lock_for
        )
        if lock_for:
            t.lock_keys.setdefault(chain_id, []).append(what)
        (t.prefix_set if prefix else t.read_set).append((chain_id, key, resp.version or (0, 0)))
        if chain_id != t.coordinator_chain:
            self.sim.meter.round_trip(t.txn_id)
        return decode_record(resp.value, PrefixRows) if prefix else resp.value

    def txn_read(self, t: XTxn, chain_id: str, key: str) -> Value:
        return self.sim.pump(self.txn_read_async(t, chain_id, key))

    def txn_write_async(self, t: XTxn, chain_id: str, key: str, value: Value) -> Future:
        self._require_active(t)
        check_entry(key, value)  # fails at the call, not by the vote timeout
        if t.mode == MODE_LOCKS and not self._holds_lock(t, chain_id, key):
            return self.sim.spawn(self._txn_lock_write_task(t, chain_id, key, value)).future
        t.write_set[(chain_id, key)] = value
        fut = Future()
        fut.set_result(None)
        return fut

    def _holds_lock(self, t: XTxn, chain_id: str, key: str) -> bool:
        for held in t.lock_keys.get(chain_id, []):
            if held == key or (held.endswith("*") and key.startswith(held[:-1])):
                return True
        return False

    def _txn_lock_write_task(self, t: XTxn, chain_id: str, key: str, value: Value):
        yield from self._locked_request(
            t, chain_id, key, key=key, lock_for=t.txn_id, lock_only=True
        )
        t.lock_keys.setdefault(chain_id, []).append(key)
        t.write_set[(chain_id, key)] = value
        return None

    def txn_write(self, t: XTxn, chain_id: str, key: str, value: Value) -> None:
        self.sim.pump(self.txn_write_async(t, chain_id, key, value))

    def txn_commit_async(self, t: XTxn) -> Future:
        self._require_active(t)
        return self._commit(t)

    def txn_commit(self, t: XTxn):
        return self.sim.pump(self.txn_commit_async(t))

    def _commit(self, t: XTxn, abort: str = "") -> Future:
        """Start 2PC: the sets freeze, and `begin` carries every prepare, the coordinator's first.

        With an `abort` reason, `begin` carries no prepares and the abort
        `decide` follows it into the same coordinator block."""
        t.status = ST_PREPARED
        t.future = Future()
        t.participants = sorted(t.chains(), key=lambda c: c != t.coordinator_chain)
        if not t.participants:  # no ledger decides it, and an empty commit leaves no record
            if abort:
                self._complete(t.txn_id, "abort", abort)
            else:
                t.status = ST_COMMITTED
                t.future.set_result(Committed())
            return t.future
        coord = self.sim.chains[t.coordinator_chain]
        prepares = [] if abort else [encode_record(t.prepare_for(part)) for part in t.participants]
        coord.submit_call("sys.txn", "sys.txn", "begin", [t.txn_id, ",".join(t.participants), *prepares])
        if abort:
            self._submit_abort(t, abort)
        elif t.participants != [t.coordinator_chain]:  # else the begin block decides
            self._arm_vote_timeout(t)
        return t.future

    def _arm_vote_timeout(self, t: XTxn) -> None:
        coord = self.sim.chains[t.coordinator_chain]

        def on_timeout():
            if coord.read_state(f"sys.2pc.{t.txn_id}.decision") is None:
                self._submit_abort(t, "VoteTimeout")

        self.sim.call_at(self.sim.tick + VOTE_TIMEOUT, on_timeout)

    def _submit_abort(self, t: XTxn, reason: str) -> None:
        if t.reason:  # one abort decide per transaction
            return
        t.reason = reason
        coord = self.sim.chains[t.coordinator_chain]
        coord.submit_call("sys.txn", "sys.txn", "decide", [t.txn_id, "abort", reason])

    def abort(self, t: XTxn, reason: str = "client abort") -> None:
        """Abort `t` by a `decide` on the coordinator ledger; the commit future
        resolves when that block executes.  An active `t` freezes first, and a
        transaction whose abort is already submitted is left as it is."""
        reason = reason or "abort"
        if t.status == ST_ACTIVE:
            self._commit(t, abort=reason)
        elif t.status == ST_PREPARED:
            self._submit_abort(t, reason)

    # ------------------------------------------------- block-exec handler

    def _sys_txn_exec(self, ctx: ExecContext) -> None:
        """System handler: runs inside block execution, deterministically.

        2PC state is read only from `ctx`, which sees the ledger and this
        block; writes and protocol events are staged on `ctx`, and everything
        else goes through `ctx.after_commit`."""
        method, args = ctx.txn.method, ctx.txn.args
        if method == "begin":
            self._exec_begin(ctx, args[0], args[1], args[2:])
        elif method == "decide":
            self._exec_decide(ctx, *args)
        elif method == "apply":
            self._exec_apply(ctx, args[0], args[1])
        elif method != "__event__":
            raise EncodingError(f"unknown sys.txn method {method}")
        else:
            # the sender (coordinator or voter) is the event's authenticated source
            event = ctx.chain.inbox_event(ctx.txn)
            self._receive(ctx, event.source_chain, event.kind, event.payload)

    def _send(self, ctx: ExecContext, dest: str, kind: int, payload: bytes) -> None:
        """Stage a protocol message to `dest`; one to the executing chain runs now, in `ctx`."""
        if dest == ctx.chain.chain_id:
            self._receive(ctx, dest, kind, payload)
        else:
            ctx.events.append(_sys_event(dest, kind, payload))

    def _receive(self, ctx: ExecContext, source: str, kind: int, payload: bytes) -> None:
        """Run one protocol message; `source` is a bus event's authenticated
        source, or the executing chain for a message it sent itself."""
        if kind == KIND_PREPARE:
            self._exec_prepare(ctx, source, decode_record(payload, Prepare))
        elif kind == KIND_VOTE:
            self._exec_vote(ctx, source, decode_record(payload, Vote))
        elif kind == KIND_DECIDE:
            outcome = decode_record(payload, Outcome)
            self._exec_apply(ctx, outcome.txn_id, outcome.decision, source)
        else:
            raise EncodingError(f"unexpected protocol event kind {kind}")

    # --- coordinator side ---

    def _exec_begin(self, ctx: ExecContext, txid: str, participants: str, prepares: tuple) -> None:
        ctx.xchain_txn = txid
        ctx.put(f"sys.2pc.{txid}.phase", "prepare")
        ctx.put(f"sys.2pc.{txid}.participants", participants)
        if prepares:  # an abort before commit carries none
            for part, payload in zip(participants.split(","), prepares, strict=True):
                if ctx.get(f"sys.2pc.{txid}.decision") is None:  # else the coordinator's own no decided
                    self._send(ctx, part, KIND_PREPARE, payload)

    def _exec_decide(self, ctx: ExecContext, txid: str, decision: str, reason: str) -> None:
        participants = ctx.get(f"sys.2pc.{txid}.participants")
        if participants is None or ctx.get(f"sys.2pc.{txid}.decision") is not None:
            return
        ctx.xchain_txn = txid
        ctx.put(f"sys.2pc.{txid}.decision", decision)
        ctx.put(f"sys.2pc.{txid}.reason", reason)
        ctx.after_commit(partial(self._complete, txid, decision, reason))
        payload = encode_record(Outcome(txid, decision))
        for part in participants.split(","):
            self._send(ctx, part, KIND_DECIDE, payload)

    def _complete(self, txid: str, decision: str, reason: str) -> None:
        """The decision is on the ledger: record it, then tell the client."""
        t = self.records.get(txid)
        if t is None:
            return
        t.reason = reason
        self._log_xtxn(t, decision)
        if decision == "commit":
            t.status = ST_COMMITTED
            t.future.set_result(Committed(read_values=dict(t.read_values)))
        else:
            self.sim.meter.abort(t.reason or "abort")
            t.status = ST_ABORTED
            t.future.set_result(Aborted(t.reason))

    # --- participant side ---

    def _exec_prepare(self, ctx: ExecContext, coordinator: str, p: Prepare) -> None:
        chain, txid = ctx.chain, p.txn_id
        ctx.xchain_txn = txid
        vote_key = f"sys.xt.{txid}.vote"
        # a prepare voted on before, or arriving after a decision was applied
        # here (say a retransmit past a VoteTimeout abort), must take no locks
        if ctx.get(vote_key) is not None or ctx.get(f"sys.applied.{txid}") is not None:
            return
        reason = self._prepare_checks(ctx, coordinator, p)
        vote = "no" if reason else "yes"
        ctx.put(vote_key, vote)
        reads = () if reason else tuple((key, ctx.get(key)) for key in p.reads)
        if not reason:
            ctx.put(f"sys.xt.{txid}.writes", encode_record((coordinator, p.writes)))
            if coordinator != chain.chain_id:  # the coordinator applies its share as it decides
                ctx.after_commit(partial(self._arm_decision_poll, txid, chain.chain_id, coordinator))
        elif chain.locks.release_owner(txid):  # a no-vote releases every lock this txn holds here
            ctx.after_commit(partial(self._log_lock, chain.chain_id, "release", "*", txid))
        self._send(ctx, coordinator, KIND_VOTE, encode_record(Vote(txid, vote, reason, reads)))

    def _prepare_checks(self, ctx: ExecContext, coordinator: str, p: Prepare) -> str:
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
            if chain.locks.exact.get(key) == txid or self._covered_by_prefix(chain, key, txid):
                continue
            if not chain.locks.try_lock(key, txid):
                return f"LockConflict: {key}"
            ctx.after_commit(partial(self._log_lock, chain.chain_id, "acquire", key, txid))
        return ""

    def _covered_by_prefix(self, chain: Chain, key: str, owner: str) -> bool:
        return any(key.startswith(p) for p, o in chain.locks.prefix.items() if o == owner)

    def _exec_vote(self, ctx: ExecContext, part: str, v: Vote) -> None:
        txid = v.txn_id
        participants = ctx.get(f"sys.2pc.{txid}.participants")
        parts = [] if participants is None else participants.split(",")
        if part not in parts:  # an unknown txid, or a chain the transaction never asked
            return
        ctx.xchain_txn = txid
        ctx.put(f"sys.2pc.{txid}.vote.{part}", f"{v.vote}:{v.reason}")
        if ctx.get(f"sys.2pc.{txid}.decision") is not None:
            return
        ctx.after_commit(partial(self._merge_reads, txid, {(part, k): value for k, value in v.reads}))
        all_in = all(ctx.get(f"sys.2pc.{txid}.vote.{p}") is not None for p in parts)
        if all_in:
            ctx.after_commit(partial(self.sim.meter.round_trip, txid))
        if v.vote != "yes":  # the first no decides abort, the last yes commit
            self._exec_decide(ctx, txid, "abort", v.reason)
        elif all_in:
            self._exec_decide(ctx, txid, "commit", "")

    def _merge_reads(self, txid: str, read_values: dict) -> None:
        t = self.records.get(txid)
        if t is not None:
            t.read_values.update(read_values)

    def _exec_apply(self, ctx: ExecContext, txid: str, decision: str, source: str = "") -> None:
        chain = ctx.chain
        ctx.xchain_txn = txid
        marker = f"sys.applied.{txid}"
        stored = ctx.get(f"sys.xt.{txid}.writes")
        coordinator, writes = ("", None) if stored is None else decode_record(stored, PreparedWrites)
        if ctx.get(marker) is not None or (source and coordinator and source != coordinator):
            return  # applied already, or a decide from other than the coordinator a yes vote stored
        ctx.put(marker, decision)
        if decision == "commit":  # every participant voted yes, so stored its writes
            if writes is None:
                raise InvalidState(f"commit of {txid} without a yes vote here")
            for key, value in writes:
                ctx.put(key, value)
        if chain.locks.release_owner(txid):
            ctx.after_commit(partial(self._log_lock, chain.chain_id, "release", "*", txid))
        ctx.after_commit(partial(self._applied, txid))

    def _applied(self, txid: str) -> None:
        """The last participant to apply the decision closes the decide round trip."""
        t = self.records.get(txid)
        marker = f"sys.applied.{txid}"
        if t is not None and all(self.sim.chains[c].read_state(marker) is not None for c in t.participants):
            self.sim.meter.round_trip(txid)

    # ------------------------------------------------ decision recovery

    def _arm_decision_poll(self, txid: str, chain_id: str, coordinator: str) -> None:
        self.sim.call_later(DECISION_POLL, partial(self._poll_decision, txid, chain_id, coordinator))

    def _poll_decision(self, txid: str, chain_id: str, coordinator: str) -> None:
        chain = self.sim.chains[chain_id]
        if chain.read_state(f"sys.applied.{txid}") is not None:
            return  # decision already applied here
        req = self.make_read_request(
            coordinator,
            key=f"sys.2pc.{txid}.decision",
            caller_id="sys.txn",
            caller_chain=chain_id,
        )
        # sent from the timer, so its drop draws keep their place in the run
        raw_fut = self.sim.direct_request(coordinator, encode_record(req))
        self.sim.spawn(self._poll_complete_task(txid, req, raw_fut))

    def _poll_complete_task(self, txid: str, req: ReadRequest, raw_fut: Future):
        raw = yield raw_fut
        if raw is not None:
            self.sim.meter.recovery_reads += 1
        try:
            decision = self.verify_response(req, raw).value
        except Exception:
            decision = None
        chain = self.sim.chains[req.caller_chain]
        if chain.read_state(f"sys.applied.{txid}") is not None:
            return None
        if decision in ("commit", "abort"):
            chain.submit_call("sys.txn", "sys.txn", "apply", [txid, decision])
            return None
        # undecided: poll again later
        self._arm_decision_poll(txid, req.caller_chain, req.target_chain)
        return None

    # ------------------------------------------------------------ logging

    def _log_lock(self, chain_id: str, op: str, key: str, owner: str) -> None:
        self.sim.record("lock", chain=chain_id, op=op, key=key, owner=owner)

    def _log_xtxn(self, t: XTxn, decision: str) -> None:
        if self.sim.log is None:
            return
        from .runlog import value_to_jsonable

        self.sim.log.record(
            "xtxn",
            txn=t.txn_id,
            type=t.kind,
            coordinator=t.coordinator_chain,
            decision=decision,
            reason=t.reason,
            participants=sorted(t.participants),
            writes=[[c, k, value_to_jsonable(v)] for (c, k), v in sorted(t.write_set.items())],
        )
