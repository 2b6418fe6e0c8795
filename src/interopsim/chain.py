"""Simulated permissioned blockchain.

One sequencer per chain, FIFO mempool, no fees.  Consensus is abstracted:
block finality is sequencer ordering plus collection of 2f+1 node
signatures over the header digest.  State is a versioned key-value map
(version = (block height, txn index)) with a Merkle root in every header.

Keys are dotted strings namespaced as "<contract_id>.<suffix>"; system
keys live under "sys.".  Contracts are native deterministic handlers.

Every transaction, contract call or system target alike, runs against its
ExecContext, which stages its writes, events and after-commit effects;
`Chain._execute` applies them only once the handler returns and builds the
only Receipt.  Every state read sees committed state plus the block in
production.

`Chain.produce_block` executes, certifies and commits every block, block 0
included; a block's receipts are the chain's only record of its writes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Optional, Sequence

from .bus import Event
from .crypto import Keypair, get_scheme
from .errors import (
    ConfigError,
    DuplicateContract,
    DuplicateNonce,
    EncodingError,
    FutureHeight,
    InvalidRange,
    LockConflict,
    PolicyDenied,
    QuorumFailure,
    UnknownContract,
)
from .merkle import MerkleMap, MerkleProof, root_of_digests
from .policy import Decision
from .values import (
    INT64_MAX,
    INT64_MIN,
    Value,
    check_entry,
    digest,
    encode_record,
    encode_value,
    record,
)

ZERO_DIGEST = b"\x00" * 32

Version = tuple[int, int]  # (block_height, txn_index_within_block)

# a call run in block 0 by a caller on the chain: (caller_id, target, method, args)
GenesisCall = tuple[str, str, str, list[Value]]


class Behavior(str, Enum):
    HONEST = "honest"
    SILENT = "silent"
    EQUIVOCATE = "equivocate"


@dataclass
class ChainConfig:
    chain_id: str
    n: int
    f: int
    scheme: str = "hmac"
    byzantine: dict[str, Behavior] = field(default_factory=dict)

    def validate(self) -> None:
        if not self.chain_id:
            raise ConfigError("chain_id must be non-empty")
        if type(self.n) is not int or type(self.f) is not int:
            raise ConfigError(f"chain {self.chain_id}: n and f must be ints, not n={self.n!r}, f={self.f!r}")
        if self.n < 3 * self.f + 1:
            raise ConfigError(f"n={self.n} violates n >= 3f+1 with f={self.f}")
        if self.f < 0 or self.n <= 0:
            raise ConfigError("n must be positive and f non-negative")
        for node_id in self.byzantine:
            if node_id not in self.node_ids():
                raise ConfigError(f"unknown byzantine node {node_id}")
        # the fault model allows at most f faulty nodes; at n = 3f+1 more
        # would leave too few signers to certify any block, block 0 included
        faulty = sum(behavior != Behavior.HONEST for behavior in self.byzantine.values())
        if faulty > self.f:
            raise ConfigError(f"chain {self.chain_id}: {faulty} nodes flagged faulty, more than f={self.f}")

    def node_ids(self) -> list[str]:
        return [f"{self.chain_id}:node{i}" for i in range(self.n)]

    @property
    def quorum(self) -> int:
        return 2 * self.f + 1


@record
class Transaction:
    caller_chain: str
    caller_id: str
    target_contract: str
    method: str
    args: tuple[Value, ...]
    nonce: int

    # hashed once per instance; kept in __dict__, unseen by == and hash.
    # encode_record refuses an argument that is no Value, except a list or
    # record, which it would nest; encode_value refuses those.
    @cached_property
    def txn_id(self) -> bytes:
        for arg in self.args:
            if isinstance(arg, (tuple, list)) or hasattr(arg, "__dataclass_fields__"):
                encode_value(arg)
        return digest(encode_record(self))


@record
class BlockHeader:
    chain_id: str
    height: int
    prev_digest: bytes
    txn_root: bytes
    state_root: bytes
    tick: int

    # hashed once per instance, like Transaction.txn_id: certification, the
    # next block's prev_digest, the run log and read checks all use it
    @cached_property
    def digest(self) -> bytes:
        return digest(encode_record(self))


@record
class QuorumCert:
    header_digest: bytes
    signatures: tuple[tuple[str, bytes], ...]  # sorted by node_id


@record
class Receipt:
    txn_id: bytes
    status: str  # "ok" | "failed"
    error: str = ""
    writes: tuple[tuple[str, Value], ...] = ()
    # cross-chain transaction this receipt's writes settle, if any
    xchain_txn: str = ""


@record
class Block:
    header: BlockHeader
    txns: tuple[Transaction, ...]
    receipts: tuple[Receipt, ...]
    cert: QuorumCert


@record
class EventDraft:
    """Outbox entry produced by contract execution; the bus assigns nonces."""

    dest_chain: str
    dest_contract: str
    kind: int
    payload: bytes
    source_contract: str


class Contract:
    """Deterministic handler bundle.

    handlers: method name -> fn(ctx, args); mutate state via ctx.put and may
    emit events.  query_handlers: read-only fns(view, args) -> Value used by
    cross-chain verified reads.  on_event handles inbox events.
    """

    contract_id = ""
    handlers: dict[str, Callable] = {}
    query_handlers: dict[str, Callable] = {}

    def on_event(self, ctx: "ExecContext", event) -> None:
        raise PolicyDenied("contract accepts no events")


class StateView:
    """Read-only view of the current state handed to query handlers."""

    def __init__(self, chain: "Chain", contract_id: str):
        self._chain = chain
        self._cid = contract_id

    def get(self, key: str) -> Value:
        return self._chain.read_state(f"{self._cid}.{key}")


class ExecContext:
    """What one transaction runs against; Chain._execute applies what it stages.

    A contract names keys in its own namespace, a system target full keys."""

    def __init__(self, chain: "Chain", txn: Transaction, height: int):
        self.chain = chain
        self.contract_id = txn.target_contract
        self.txn = txn
        self.height = height
        self.caller_chain = txn.caller_chain
        self.caller_id = txn.caller_id
        self.namespace = "" if self.contract_id.startswith("sys.") else f"{self.contract_id}."
        self.writes: dict[str, Value] = {}
        self.events: list[EventDraft] = []
        self.effects: list[Callable[[], None]] = []
        self.xchain_txn = ""  # the cross-chain transaction the receipt settles, if any

    # -- state access, relative to the namespace --

    def get(self, key: str) -> Value:
        full = f"{self.namespace}{key}"
        if full in self.writes:
            return self.writes[full]
        return self.chain.read_state(full)

    def put(self, key: str, value: Value) -> None:
        self.writes[f"{self.namespace}{key}"] = value

    def history(self, prefix: str, frm: int, to: int):
        return self.chain.get_history(f"{self.namespace}{prefix}", frm, to)

    def after_commit(self, effect: Callable[[], None]) -> None:
        """Run `effect` once the block commits; a failed transaction or a lost
        block drops it.  Execution reaches outside the ledger only through
        here and the lock table, which a rollback restores."""
        self.effects.append(effect)

    def emit(self, dest_chain: str, dest_contract: str, kind: int, payload: bytes) -> None:
        # a field the destination would not decode as its Event field fails the txn
        if not (type(dest_chain) is type(dest_contract) is str and type(payload) is bytes
                and type(kind) is int and INT64_MIN <= kind <= INT64_MAX):
            raise EncodingError(f"ill-typed event: {dest_chain!r}, {dest_contract!r}, {kind!r}")
        encode_value(dest_chain + dest_contract)  # a name with a lone surrogate fails too
        self.events.append(
            EventDraft(
                dest_chain=dest_chain,
                dest_contract=dest_contract,
                kind=kind,
                payload=payload,
                source_contract=self.contract_id,
            )
        )

    # -- access control delegation (the system contract of the policy engine) --

    def require_access(self, action: str, resource: str) -> None:
        decision = self.chain.evaluate_policy(
            self.contract_id, action, resource, self.caller_id, self.caller_chain, self.height
        )
        if not decision.allowed:
            raise PolicyDenied(decision.reason)


class LockTable:
    """Exclusive locks on exact keys and on key prefixes (predicate locks)."""

    def __init__(self):
        self.exact: dict[str, str] = {}  # key -> owner txn id (hex)
        self.prefix: dict[str, str] = {}

    def conflicts(self, key: str, owner: str) -> bool:
        held = self.exact.get(key)
        if held is not None and held != owner:
            return True
        for p, o in self.prefix.items():
            if o != owner and key.startswith(p):
                return True
        return False

    def prefix_conflicts(self, prefix: str, owner: str) -> bool:
        for k, o in self.exact.items():
            if o != owner and k.startswith(prefix):
                return True
        for p, o in self.prefix.items():
            if o != owner and (p.startswith(prefix) or prefix.startswith(p)):
                return True
        return False

    def try_lock(self, key: str, owner: str) -> bool:
        if self.conflicts(key, owner):
            return False
        self.exact[key] = owner
        return True

    def try_lock_prefix(self, prefix: str, owner: str) -> bool:
        if self.prefix_conflicts(prefix, owner):
            return False
        self.prefix[prefix] = owner
        return True

    def release_owner(self, owner: str) -> int:
        n = 0
        for k in [k for k, o in self.exact.items() if o == owner]:
            del self.exact[k]
            n += 1
        for p in [p for p, o in self.prefix.items() if o == owner]:
            del self.prefix[p]
            n += 1
        return n

    def empty(self) -> bool:
        return not self.exact and not self.prefix


class Chain:
    """One simulated blockchain instance.

    Block 0 registers `contracts`, active from height 0, and then runs
    `calls` in order, each seeing the writes before it; all of it commits in
    block 0's state root.  produce_block makes block 0 like any other block,
    certified under the node behaviour flags of the config."""

    def __init__(
        self, cfg: ChainConfig, contracts: Sequence[Contract] = (), calls: Sequence[GenesisCall] = ()
    ):
        cfg.validate()
        self.cfg = cfg
        self.chain_id = cfg.chain_id
        self.scheme = get_scheme(cfg.scheme)
        self.keys: dict[str, Keypair] = {
            node_id: self.scheme.keygen(f"{cfg.chain_id}|{node_id}".encode())
            for node_id in cfg.node_ids()
        }
        # the two halves of `keys`, node_id -> key in node order, for the
        # signing and verifying paths
        self.signing_keys = {node_id: kp.signing_key for node_id, kp in self.keys.items()}
        self.verify_keys = {node_id: kp.verify_key for node_id, kp in self.keys.items()}
        self.byzantine: dict[str, Behavior] = dict(cfg.byzantine)

        # versioned state
        self._current: dict[str, tuple[Value, Version]] = {}
        # authenticated state at the current height
        self._tree = MerkleMap({})

        self.blocks: list[Block] = []
        self.mempool: list[Transaction] = []
        self._nonces: set[tuple[str, str, int]] = set()
        self._auto_nonce: dict[tuple[str, str], int] = {}

        self.contracts: dict[str, Contract] = {}
        # system targets dispatched outside the contract table: fn(ctx) -> None
        self.system_handlers: dict[str, Callable[[ExecContext], None]] = {
            "sys.registry": _register_contract,
            "sys.policy": _attach_policy,
        }

        self.locks = LockTable()
        self.event_nonce = 0
        # verified bus events by inbox transaction id, until their block commits
        self._inbox: dict[bytes, Event] = {}

        # execution overlay and receipts, in use only while a block is produced
        self._overlay: Optional[dict[str, tuple[Value, Version]]] = None
        self._receipts: list[Receipt] = []

        # block 0: a sys.registry registration per contract, then `calls`
        for contract in contracts:
            self._add_contract(contract)
        self.mempool = [self._call("sys", "sys.registry", "register", [c.contract_id]) for c in contracts]
        self.mempool += [self._call(*call) for call in calls]
        self._nonces.update((txn.caller_chain, txn.caller_id, txn.nonce) for txn in self.mempool)
        self.produce_block(tick=0)

    # ------------------------------------------------------------------ state

    def _entry(self, key: str) -> Optional[tuple[Value, Version]]:
        if self._overlay is not None and key in self._overlay:
            return self._overlay[key]
        return self._current.get(key)

    def read_state(self, key: str) -> Value:
        entry = self._entry(key)
        return entry[0] if entry else None

    def current_version(self, key: str) -> Optional[Version]:
        entry = self._entry(key)
        return entry[1] if entry else None

    @property
    def height(self) -> int:
        """Height of the last committed block; -1 while block 0 is produced."""
        return self.blocks[-1].header.height if self.blocks else -1

    def history_ceiling(self) -> int:
        """Highest height readable right now (the in-production block counts)."""
        return self.height + (1 if self._overlay is not None else 0)

    def get_history(
        self, key_prefix: str, from_height: int, to_height: int
    ) -> list[tuple[str, Value, Version]]:
        if from_height > to_height or from_height < 0 or to_height > self.history_ceiling():
            raise InvalidRange(
                f"bad range [{from_height}, {to_height}] at height {self.height}"
            )
        # a write's version is (height, index of its transaction's receipt)
        logs = [(block.header.height, block.receipts) for block in self.blocks[from_height : to_height + 1]]
        if to_height > self.height:
            logs.append((self.height + 1, self._receipts))
        out = [
            (key, value, (height, idx))
            for height, receipts in logs
            for idx, receipt in enumerate(receipts)
            for key, value in receipt.writes
            if key.startswith(key_prefix)
        ]
        out.sort(key=lambda e: (e[2], e[0]))
        return out

    def latest_version_under(self, prefix: str) -> Version:
        """Newest write version under a key prefix; (0, 0) when none.  An
        in-block write is newer than any committed one: no merge is needed."""
        best = (0, 0)
        for entries in (self._current, self._overlay or {}):
            for key, (_, version) in entries.items():
                if key.startswith(prefix) and version > best:
                    best = version
        return best

    def state_items(self, prefix: str = "") -> list[tuple[str, Value, Version]]:
        """(key, value, version) of every key under the prefix, key order."""
        entries = self._current if self._overlay is None else {**self._current, **self._overlay}
        return [(key, *entries[key]) for key in sorted(key for key in entries if key.startswith(prefix))]

    def get_proof(self, key: str, height: Optional[int] = None) -> MerkleProof:
        """Membership or absence proof; served at the current height only."""
        if height is None:
            height = self.height
        if height > self.height:
            raise FutureHeight(f"height {height} > current {self.height}")
        if height < self.height:
            raise InvalidRange(f"proofs are served at the current height {self.height}")
        return self._tree.prove(key.encode("utf-8"), root_height=height)

    def state_root_at(self, height: int) -> bytes:
        if height > self.height:
            raise FutureHeight(f"height {height} > current {self.height}")
        return self.blocks[height].header.state_root

    # ------------------------------------------------------------- contracts

    def _add_contract(self, contract: Contract) -> None:
        cid = contract.contract_id
        if not cid or cid in self.contracts:
            raise DuplicateContract(f"contract {cid!r} already registered")
        # namespaces stay disjoint: key_access finds a key's owner by its
        # first segment, and "sys." belongs to the system
        if "." in cid or cid == "sys":
            raise ConfigError(f"contract id {cid!r} would share another key namespace")
        self.contracts[cid] = contract

    def register_contract(self, contract: Contract) -> None:
        """Register at run time: the contract is active from the next block."""
        self._add_contract(contract)
        self.submit_call("sys", "sys.registry", "register", [contract.contract_id])

    def contract_active(self, cid: str) -> bool:
        """Registered here and on the ledger as of the last committed block: a
        genesis contract from height 0, a run-time registration from the
        block after the one that commits it."""
        entry = self._current.get(f"sys.contract.{cid}")
        return cid in self.contracts and entry is not None and entry[0] is True

    # ------------------------------------------------------------- mempool

    def submit_transaction(self, txn: Transaction) -> bytes:
        txn_id = txn.txn_id  # EncodingError here, before anything is recorded
        key = (txn.caller_chain, txn.caller_id, txn.nonce)
        if key in self._nonces:
            raise DuplicateNonce(f"nonce {txn.nonce} reused by {txn.caller_id}")
        if not txn.target_contract.startswith("sys.") and txn.target_contract not in self.contracts:
            raise UnknownContract(txn.target_contract)
        self._nonces.add(key)
        self._auto_nonce[key[:2]] = max(self._auto_nonce.get(key[:2], 0), txn.nonce)  # next_nonce goes above
        self.mempool.append(txn)
        return txn_id

    def next_nonce(self, caller_chain: str, caller_id: str) -> int:
        k = (caller_chain, caller_id)
        self._auto_nonce[k] = self._auto_nonce.get(k, 0) + 1
        return self._auto_nonce[k]

    def _call(self, caller_id: str, contract: str, method: str, args: list[Value]) -> Transaction:
        """A call by `caller_id` on this chain, with that caller's next nonce."""
        return Transaction(
            caller_chain=self.chain_id,
            caller_id=caller_id,
            target_contract=contract,
            method=method,
            args=tuple(args),
            nonce=self.next_nonce(self.chain_id, caller_id),
        )

    def submit_call(
        self, caller_id: str, contract: str, method: str, args: list[Value]
    ) -> bytes:
        return self.submit_transaction(self._call(caller_id, contract, method, args))

    def enqueue_inbox_event(self, event: Event) -> None:
        """Queue a verified bus event; its caller is the event's authenticated source."""
        txn = Transaction(
            caller_chain=event.source_chain,
            caller_id=event.source_contract,
            target_contract=event.dest_contract,
            method="__event__",
            args=(event.encode(),),
            nonce=self.next_nonce(event.source_chain, event.source_contract),
        )
        self._inbox[self.submit_transaction(txn)] = event

    def inbox_event(self, txn: Transaction) -> Event:
        """The verified event an `__event__` transaction was queued for.

        Only enqueue_inbox_event queues one, so any other `__event__`
        transaction, say a local call carrying forged event bytes, is denied."""
        event = self._inbox.get(txn.txn_id)
        if event is None:
            raise PolicyDenied("not a verified inbox event")
        return event

    # ------------------------------------------------------------ production

    def node_signatures(self, message: bytes) -> tuple[tuple[str, bytes], ...]:
        """Every node's signature over `message`, in node order, per its behavior:
        silent nodes skip and equivocators sign the complement.

        The nodes and their keys come from `signing_keys`, built with the
        chain, so no call rebuilds the node list."""
        sign = self.scheme.sign  # looked up per call: tracing patches the scheme class
        if not self.byzantine:
            return tuple([(node_id, sign(key, message)) for node_id, key in self.signing_keys.items()])
        sigs = []
        for node_id, key in self.signing_keys.items():
            behavior = self.byzantine.get(node_id, Behavior.HONEST)
            if behavior == Behavior.SILENT:
                continue
            target = message
            if behavior == Behavior.EQUIVOCATE:
                target = bytes(b ^ 0xFF for b in message)
            sigs.append((node_id, sign(key, target)))
        return tuple(sigs)

    def _certify(self, header: BlockHeader) -> QuorumCert:
        hd = header.digest
        verify, verify_keys = self.scheme.verify, self.verify_keys
        valid = [
            (node_id, sig)
            for node_id, sig in self.node_signatures(hd)
            if verify(verify_keys[node_id], hd, sig)
        ]
        if len(valid) < self.cfg.quorum:
            raise QuorumFailure(
                f"{len(valid)} valid signatures < quorum {self.cfg.quorum}"
            )
        return QuorumCert(header_digest=hd, signatures=tuple(sorted(valid)))

    def produce_block(self, tick: int = 0) -> Optional[tuple[Block, list[EventDraft]]]:
        """Execute, certify and commit the mempool as the next block; None if
        it is empty, save for block 0.  Block 0's writes are committed state at
        once, so a contract is active, and a policy in force, for the genesis
        calls after it; a genesis call that fails, emits an event or leaves an
        after-commit effect is a ConfigError: there is no bus or run loop yet."""
        if not self.mempool and self.blocks:
            return None
        txns = tuple(self.mempool)
        self.mempool = []
        height = self.height + 1

        # until commit, _current holds the state as of the block's start: the
        # policies and contract registrations this block executes under.
        # Locks change in place (prepares in one block see each other's), so
        # a rollback restores them from this copy.
        self._overlay = {} if height else self._current
        locks = (dict(self.locks.exact), dict(self.locks.prefix))
        receipts = self._receipts = []
        out_events: list[EventDraft] = []
        # effects outside the ledger, run only once the block commits
        effects: list[Callable[[], None]] = []
        try:
            for idx, txn in enumerate(txns):
                receipt, events, txn_effects = self._execute(txn, height, idx)
                if not height and (receipt.status != "ok" or events or txn_effects):
                    what = receipt.error or "it emits events or after-commit effects"
                    raise ConfigError(f"genesis call {txn.target_contract}.{txn.method} on {self.chain_id}: {what}")
                receipts.append(receipt)
                out_events.extend(events)
                effects.extend(txn_effects)
            tree = MerkleMap(
                {k.encode("utf-8"): v for k, (v, _) in self._overlay.items()},
                base=self._tree,
            )
            header = BlockHeader(
                chain_id=self.chain_id,
                height=height,
                prev_digest=self.blocks[-1].header.digest if height else ZERO_DIGEST,
                txn_root=root_of_digests([t.txn_id for t in txns]),
                state_root=tree.root,
                tick=tick,
            )
            cert = self._certify(header)
        except QuorumFailure:
            self.mempool = list(txns) + self.mempool
            self._overlay = None
            self.locks.exact, self.locks.prefix = locks
            raise

        # commit: fold the overlay into current state
        self._current.update(self._overlay)
        self._tree = tree
        self._overlay = None
        if self._inbox:  # a block lost to QuorumFailure keeps its events for the retry
            for txn in txns:
                self._inbox.pop(txn.txn_id, None)

        block = Block(
            header=header, txns=txns, receipts=tuple(receipts), cert=cert
        )
        self.blocks.append(block)
        for effect in effects:
            effect()
        return block, out_events

    def _execute(
        self, txn: Transaction, height: int, idx: int
    ) -> tuple[Receipt, list[EventDraft], list[Callable[[], None]]]:
        """Run `txn` against its ExecContext; apply what it staged only if it returns.

        Returns the receipt, then the events and effects for the block."""
        target = txn.target_contract
        ctx = ExecContext(self, txn, height)
        try:
            if target.startswith("sys."):
                # system targets run only what the system sends: events from a
                # sys.txn to sys.txn, and calls by this chain's sys or sys.txn
                if txn.method == "__event__":
                    allowed = target == "sys.txn" and txn.caller_id == "sys.txn"
                else:
                    allowed = txn.caller_chain == self.chain_id and txn.caller_id in ("sys", "sys.txn")
                if not allowed:
                    raise PolicyDenied(f"{txn.caller_chain}:{txn.caller_id} may not call {target}")
                handler = self.system_handlers.get(target)
                if handler is None:
                    raise UnknownContract(target)
                handler(ctx)
            else:
                if not self.contract_active(target):
                    raise UnknownContract(f"{target} not active")
                contract = self.contracts[target]
                if txn.method == "__event__":
                    contract.on_event(ctx, self.inbox_event(txn))
                else:
                    handler = contract.handlers.get(txn.method)
                    if handler is None:
                        raise UnknownContract(f"{target}.{txn.method}")
                    handler(contract, ctx, list(txn.args))
                for key, value in ctx.writes.items():
                    # a write that would not encode fails here, not in the Merkle build
                    check_entry(key, value)
                    # foreign locks block local writes (serializability under Locks mode)
                    if self.locks.conflicts(key, txn.txn_id.hex()):
                        raise LockConflict(key)
        except Exception as exc:  # failed txns are recorded, never dropped
            return Receipt(txn.txn_id, "failed", error=f"{type(exc).__name__}: {exc}"), [], []
        version = (height, idx)
        for key, value in ctx.writes.items():
            self._overlay[key] = (value, version)
        receipt = Receipt(txn.txn_id, "ok", writes=tuple(ctx.writes.items()), xchain_txn=ctx.xchain_txn)
        return receipt, ctx.events, ctx.effects

    # ------------------------------------------------------------- policies

    def attach_policy(self, contract_id: str, src: str) -> bytes:
        """Validate and stage a policy; applied from the next block onward.

        Unparseable text raises ParseError and leaves the ledger untouched.
        """
        from .policy import parse_policy

        parse_policy(src)  # ParseError propagates before anything is queued
        return self.submit_call("sys", "sys.policy", "attach", [contract_id, src])

    def policy_source(self, contract_id: str) -> Optional[str]:
        """The policy attached as of the last committed block."""
        entry = self._current.get(f"sys.policy.{contract_id}")
        return entry[0] if entry else None

    def key_access(
        self, action: str, key: str, caller_id: str, caller_chain: str, height: int
    ) -> Decision:
        """The one gate on a full key.  A `sys.` key is readable by anyone and
        written by no caller; any other key answers to the policy of the
        registered contract whose namespace holds it, the rest of the key
        being the resource; a key no registered contract owns is ungated."""
        if key.startswith("sys."):
            if action == "read":
                return Decision(True)
            return Decision(False, "writes to the sys namespace are reserved")
        contract, dot, resource = key.partition(".")
        if not dot or contract not in self.contracts:
            return Decision(True)
        return self.evaluate_policy(contract, action, resource, caller_id, caller_chain, height)

    def evaluate_policy(
        self,
        contract_id: str,
        action: str,
        resource: str,
        caller_id: str,
        caller_chain: str,
        height: Optional[int] = None,
    ):
        """Evaluate the attached policy; no policy attached means ungated."""
        from .policy import AccessRequest, ChainEvalContext, evaluate, parse_policy

        src = self.policy_source(contract_id)
        if src is None:
            return Decision(True, "")
        ast = parse_policy(src)
        if height is None:
            height = self.height
        req = AccessRequest(
            caller_id=caller_id,
            caller_chain=caller_chain,
            action=action,
            resource=resource,
            height=height,
        )
        ctx = ChainEvalContext(self, contract_id, height)
        return evaluate(ast, req, ctx)

    # ---------------------------------------------------------- query path

    def run_query(self, contract_id: str, method: str, args: list[Value]) -> Value:
        """Run a read-only query handler of an active contract (the caller checks)."""
        contract = self.contracts[contract_id]
        handler = contract.query_handlers.get(method)
        if handler is None:
            raise UnknownContract(f"{contract_id}.{method} (query)")
        view = StateView(self, contract_id)
        return handler(contract, view, list(args))


def _register_contract(ctx: ExecContext) -> None:  # sys.registry register(cid)
    if ctx.txn.method != "register":
        raise UnknownContract("sys.registry")
    ctx.put(f"sys.contract.{ctx.txn.args[0]}", True)


def _attach_policy(ctx: ExecContext) -> None:  # sys.policy attach(cid, src)
    from .policy import parse_policy

    if ctx.txn.method != "attach":
        raise UnknownContract("sys.policy")
    parse_policy(ctx.txn.args[1])  # text that does not parse never reaches the ledger
    ctx.put(f"sys.policy.{ctx.txn.args[0]}", ctx.txn.args[1])
