"""Cross-chain transactions, client side: `XTxnEngine` and its records.

Every cross-chain transaction is an `XTxn` committed by the same 2PC run,
whose chain side is systxn's `sys.txn` contract.  A mini-transaction knows
its compare/read/write sets up front; a general one (lock-based or
optimistic) builds its read (with versions), prefix, lock and write sets
through verified reads first.  The engine reaches a chain through
`submit_call`, the direct channel and `Chain.client`, which `attach_chain`
fills: once a block commits, the chain calls `decided`, `vote_counted`,
`yes_voted`, `applied` or `lock` for what it did; a message about a
transaction this engine did not begin changes no record.  A prepared remote
participant that misses the decision polls the coordinator's ledger.
The engine still reads ledgers directly in four places:
- `_arm_vote_timeout`, the coordinator's decision (ROADMAP item 8);
- `applied`, every participant's applied marker (item 6);
- the decision poll, its own chain's applied marker (item 8);
- `verify_response`, the anchor block in `sim.chains` (item 11).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from .chain import Version
from .errors import InvalidState, LockTimeout, PolicyDenied, ProofInvalid, StaleQuorum
from .merkle import verify_proof
from .runlog import value_to_jsonable
from .sim import Future, Simulation
from .systxn import Prepare, PrefixRows, ReadRequest, ReadResponse, applied_marker, decision_key, read_response_digest
from .values import Value, check_entry, decode_record, digest, encode_record, record

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

    def prepare_for(self, chain: str) -> Prepare:
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


# ------------------------------------------------------------- the engine


class XTxnEngine:
    """The 2PC client of every chain of a Simulation it is attached to."""

    def __init__(self, sim: Simulation):
        self.sim = sim
        self._nonce = 0
        self._txn_seq = 0
        # every transaction begun here; the coordinator ledger mirrors decisions
        self.records: dict[str, XTxn] = {}
        for chain_id in sim.chain_order:
            self.attach_chain(chain_id)

    def attach_chain(self, chain_id: str) -> None:
        """Become the chain's client; an engine attached before is no longer told."""
        self.sim.chains[chain_id].client = self

    # ------------------------------------------------------------- reads

    def make_read_request(self, target_chain: str, **fields) -> ReadRequest:
        """A request under a fresh nonce; `fields` are ReadRequest's other fields."""
        self._nonce += 1
        return ReadRequest(self._nonce, target_chain, **fields)

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
                self.decided(t.txn_id, "abort", abort)
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
            if coord.read_state(decision_key(t.txn_id)) is None:
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

    # ---------------------------------- what the chains tell their client

    def decided(self, txid: str, decision: str, reason: str) -> None:
        """The decision is on the coordinator's ledger: record it, then tell the caller."""
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

    def vote_counted(self, txid: str, reads: dict, all_in: bool) -> None:
        """The coordinator counted a vote, which carries the values of `reads`;
        the last one in closes the prepare round trip."""
        t = self.records.get(txid)
        if t is not None:
            t.read_values.update(reads)
        if all_in:
            self.sim.meter.round_trip(txid)

    def applied(self, txid: str) -> None:
        """The last participant to apply the decision closes the decide round trip."""
        t = self.records.get(txid)
        marker = applied_marker(txid)
        if t is not None and all(self.sim.chains[c].read_state(marker) is not None for c in t.participants):
            self.sim.meter.round_trip(txid)

    def lock(self, txid: str, chain_id: str, op: str, key: str) -> None:
        """`chain_id` took (op "acquire") or dropped ("release", key "*": all) a lock of `txid`."""
        self.sim.record("lock", chain=chain_id, op=op, key=key, owner=txid)

    def yes_voted(self, txid: str, chain_id: str, coordinator: str) -> None:
        """A remote participant voted yes: it polls the coordinator's ledger
        for the decision until the decision is applied there."""
        self.sim.call_later(DECISION_POLL, partial(self._poll_decision, txid, chain_id, coordinator))

    def _poll_decision(self, txid: str, chain_id: str, coordinator: str) -> None:
        chain = self.sim.chains[chain_id]
        if chain.read_state(applied_marker(txid)) is not None:
            return  # decision already applied here
        req = self.make_read_request(
            coordinator,
            key=decision_key(txid),
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
        if chain.read_state(applied_marker(txid)) is not None:
            return None
        if decision in ("commit", "abort"):
            chain.submit_call("sys.txn", "sys.txn", "apply", [txid, decision])
            return None
        # undecided: poll again later, as after the yes vote
        self.yes_voted(txid, req.caller_chain, req.target_chain)
        return None

    # ------------------------------------------------------------ logging

    def _log_xtxn(self, t: XTxn, decision: str) -> None:
        self.sim.record(
            "xtxn",
            txn=t.txn_id,
            type=t.kind,
            coordinator=t.coordinator_chain,
            decision=decision,
            reason=t.reason,
            participants=sorted(t.participants),
            writes=[[c, k, value_to_jsonable(v)] for (c, k), v in sorted(t.write_set.items())],
        )
