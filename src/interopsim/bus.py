"""Cross-chain event bus: signed events, per-chain gateways, untrusted brokers.

Events carry source/destination chain and contract names plus a per-source
nonce.  A gateway batches f+1 node signatures over an event digest before
publishing; brokers are untrusted queues with injectable faults (drop,
duplicate, replay, forge) that acknowledge each batch they queue, over the
same lossy link; consumers pull per tick, verify signatures against the
source chain's published key set, and deduplicate by (source_chain, nonce).
Events and signed batches are records on the wire (values.encode_record).
Each inbox also remembers the exact wire bytes of every copy it has
verified, so a redundant copy of those bytes is classified as a duplicate
by one lookup, without decoding or verifying it again; an event computes
its encoding and digest once, a signed batch its encoding.  The gateway
checks the f+1 signatures verify_batch checks, so its batch is handed to
the destination (Simulation.handoff) when decodes_unchanged holds; only
bytes no gateway formed, such as a forged copy, reach verify_batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .errors import ConfigError, EncodingError
from .values import decode_record, digest, encode_record, join_record, read_record, record

EVENT_VERSION = 1

# Event.kind of the 2PC protocol messages; reads travel the direct channel
# as records of their own class and carry no kind
KIND_PREPARE = 3
KIND_VOTE = 4
KIND_DECIDE = 5
# application events use kinds >= 16
KIND_APP_BASE = 16


@record
class Event:
    source_chain: str
    dest_chain: str
    source_contract: str
    dest_contract: str
    nonce: int
    kind: int
    payload: bytes
    version: int = EVENT_VERSION

    def encode(self) -> bytes:
        return self._wire

    # computed once per instance; the cache lives in __dict__, outside the
    # dataclass fields, so equality and hashing do not see it
    @cached_property
    def _wire(self) -> bytes:
        return encode_record(self)

    @cached_property
    def digest(self) -> bytes:
        return digest(self._wire)


Signatures = tuple[tuple[str, bytes], ...]  # (node_id, signature), sorted by node_id


@record
class SignedEventBatch:
    event: Event
    signatures: Signatures

    def encode(self) -> bytes:
        return self._wire

    # computed once per instance, like Event._wire, around the event's own
    # cached bytes: the gateway keeps and every broker queues this object
    @cached_property
    def _wire(self) -> bytes:
        return join_record([self.event.encode(), encode_record(self.signatures)])


class KeyRegistry:
    """Out-of-band distribution of each chain's node verify keys and f."""

    def __init__(self):
        self._chains: dict[str, tuple[int, dict[str, bytes], object]] = {}

    def register_chain(self, chain_id: str, f: int, verify_keys: dict[str, bytes], scheme) -> None:
        """Add a chain once: a verdict on any batch, once given, never changes."""
        if chain_id in self._chains:
            raise ConfigError(f"chain {chain_id} is already registered")
        self._chains[chain_id] = (f, dict(verify_keys), scheme)

    def f_of(self, chain_id: str) -> int:
        return self._chains[chain_id][0]

    def known(self, chain_id: str) -> bool:
        return chain_id in self._chains

    def verify(self, chain_id: str, node_id: str, message: bytes, sig: bytes) -> bool:
        entry = self._chains.get(chain_id)
        if entry is None:
            return False
        _, keys, scheme = entry
        key = keys.get(node_id)
        if key is None:
            return False
        return scheme.verify(key, message, sig)

    def count_valid(self, chain_id: str, message: bytes, sigs) -> int:
        seen = set()
        for node_id, sig in sigs:
            if node_id in seen:
                continue
            if self.verify(chain_id, node_id, message, sig):
                seen.add(node_id)
        return len(seen)


@dataclass
class BrokerFaults:
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    replay_rate: float = 0.0
    forge: bool = False


class Broker:
    """Untrusted pub/sub queue; topic = destination chain id."""

    def __init__(self, broker_id: str, faults: Optional[BrokerFaults] = None):
        self.broker_id = broker_id
        self.faults = faults or BrokerFaults()
        self.queues: dict[str, list[tuple[int, bytes]]] = {}
        self._heads: dict[str, int] = {}  # topic -> least due tick in its queue
        self.history: list[tuple[str, bytes]] = []
        self.metrics: dict[str, int] = {
            "published": 0,
            "dropped": 0,
            "duplicated": 0,
            "replayed": 0,
            "forged": 0,
        }

    def _enqueue(self, topic: str, due: int, raw: bytes) -> None:
        self.queues.setdefault(topic, []).append((due, raw))
        head = self._heads.get(topic)
        if head is None or due < head:
            self._heads[topic] = due

    def publish(self, topic: str, raw: bytes, now: int, latency: int, rng) -> bool:
        """Queue one batch, subject to this broker's fault profile.

        Returns whether the broker queued the batch and its acknowledgement
        reached the publisher.  The acknowledgement crosses the same lossy
        link as the batch, and arrives before the publisher's first
        retransmit is due.  RNG draw order per publish: drop, duplicate,
        replay, forge, ack; the drop and ack draws happen only when
        drop_rate > 0.
        """
        self.metrics["published"] += 1
        if self.faults.drop_rate > 0 and rng.random() < self.faults.drop_rate:
            self.metrics["dropped"] += 1
            return False
        self._enqueue(topic, now + latency, raw)
        self.history.append((topic, raw))
        if self.faults.duplicate_rate > 0 and rng.random() < self.faults.duplicate_rate:
            self.metrics["duplicated"] += 1
            self._enqueue(topic, now + latency + 1, raw)
        if (
            self.faults.replay_rate > 0
            and self.history
            and rng.random() < self.faults.replay_rate
        ):
            old_topic, old_raw = self.history[rng.randrange(len(self.history))]
            self.metrics["replayed"] += 1
            self._enqueue(old_topic, now + latency + 1, old_raw)
        if self.faults.forge:
            self.metrics["forged"] += 1
            self._enqueue(topic, now + latency, _tamper(raw))
        ack_lost = self.faults.drop_rate > 0 and rng.random() < self.faults.drop_rate
        return not ack_lost

    def next_due(self, topic: Optional[str] = None) -> Optional[int]:
        """Least due tick queued for `topic`, or for any topic; None if none."""
        if topic is not None:
            return self._heads.get(topic)
        return min(self._heads.values(), default=None)

    def restart(self, now: int) -> None:
        """Crash and recover from history: every batch this broker ever queued
        is due again at `now`, in publish order; inbox dedupe keeps delivery
        at-most-once.  Draws no RNG."""
        self.queues = {}
        self._heads = {}
        for topic, raw in self.history:
            self._enqueue(topic, now, raw)

    def pull(self, topic: str, now: int) -> list[bytes]:
        queue = self.queues.get(topic)
        if not queue:
            return []
        due = [raw for tick, raw in queue if tick <= now]
        rest = [(tick, raw) for tick, raw in queue if tick > now]
        self.queues[topic] = rest
        if rest:
            self._heads[topic] = min(tick for tick, _ in rest)
        else:
            del self._heads[topic]
        return due


def _tamper(raw: bytes) -> bytes:
    # flip one payload-ish byte; the digest check at the consumer must catch it
    if not raw:
        return raw
    pos = len(raw) // 2
    return raw[:pos] + bytes([raw[pos] ^ 0xA5]) + raw[pos + 1 :]


class Gateway:
    """Per-chain relay batching f+1 node signatures over one event digest."""

    def __init__(self, chain_id: str, f: int, registry: KeyRegistry):
        self.chain_id = chain_id
        self.f = f
        self.registry = registry
        self.invalid_signatures = 0

    def collect(self, event: Event, sigs: dict[str, bytes]) -> Optional[SignedEventBatch]:
        """Batch the first f+1 of `sigs` that verify, in node-id order; None if fewer do.

        All of an event's signatures arrive in this one call, so nothing is
        kept between calls."""
        valid = []
        for node_id, sig in sorted(sigs.items()):
            if not self.registry.verify(self.chain_id, node_id, event.digest, sig):
                self.invalid_signatures += 1
                continue
            valid.append((node_id, sig))
            if len(valid) == self.f + 1:
                return SignedEventBatch(event=event, signatures=tuple(valid))
        return None


class InboxDedupe:
    """Per-destination record of accepted (source_chain, nonce) pairs.

    verified maps the wire bytes of every copy that passed verify_batch and
    the destination check here to its (source_chain, nonce).  Verification
    depends only on the bytes and the key registry, which only ever gains
    chains, so those bytes would pass again and their pair is in seen: a
    later copy of them is a duplicate without being decoded or verified.
    """

    def __init__(self):
        self.seen: set[tuple[str, int]] = set()
        self.verified: dict[bytes, tuple[str, int]] = {}

    def accept(self, source_chain: str, nonce: int) -> bool:
        key = (source_chain, nonce)
        if key in self.seen:
            return False
        self.seen.add(key)
        return True


_BATCH_HEAD = join_record([b"", b""])  # the head of a two-item record


def verify_batch(raw: bytes, registry: KeyRegistry) -> Optional[SignedEventBatch]:
    """Decode and authenticate one pulled batch; None if it must be dropped.

    Delivery calls this only for bytes no gateway handed over.  The
    batch is read in one pass: its head, the event record, then the
    signatures.  The codec is canonical, so the event's bytes within the
    batch are its encoding, and the event keeps them instead of encoding
    itself again to be hashed and carried in its inbox transaction."""
    if not raw.startswith(_BATCH_HEAD):
        return None
    start = len(_BATCH_HEAD)
    try:
        event, end = read_record(raw, Event, start)
        signatures = decode_record(raw, Signatures, end)
    except EncodingError:
        return None
    event.__dict__["_wire"] = raw[start:end]  # Event._wire's cache slot
    if event.version != EVENT_VERSION or not registry.known(event.source_chain):
        return None
    need = registry.f_of(event.source_chain) + 1
    if registry.count_valid(event.source_chain, event.digest, signatures) < need:
        return None
    return SignedEventBatch(event, signatures)


def decodes_unchanged(batch: SignedEventBatch) -> bool:
    """Whether verify_batch would decode batch.encode() to `batch`: the current
    version, and every field the exact class the typed decoder returns (a
    bool nonce encodes, but its bytes are rejected)."""
    e = batch.event
    names = (e.source_chain, e.dest_chain, e.source_contract, e.dest_contract)
    return (
        type(e.nonce) is type(e.kind) is type(e.version) is int and e.version == EVENT_VERSION
        and type(e.payload) is bytes and all(type(name) is str for name in names)
        and all(type(node_id) is str and type(sig) is bytes for node_id, sig in batch.signatures)
    )
