"""Simulation kernel: global tick loop, tasks, message transport, metering.

One Simulation instance is one deterministic world: all randomness (drops,
duplicates, replays, jitter) comes from a single seeded generator.  Draw
order is documented at the drawing sites; the per-tick phase order is:

    1. timers due this tick
    2. ready tasks
    3. per chain, in creation order: pull the bus copies due for it into
       its inbox, then cut its block and publish the block's events (each
       signed and batched at once)
    4. ready tasks again

So a batch due at tick t runs in its destination's tick-t block, and a bus
hop takes its drawn latency (BROKER_LATENCY plus jitter), no more.  Pulling
every chain's copies before cutting any block would do the same: delivery
draws no RNG, and an event published at t is due at t+1 or later, so no
chain sees another chain's tick-t events.  The run log gets block 0
from add_chain and each later block from step(), once produce_block returns
it: after the lock and xtxn records of its commit effects.  The run loops
(run_until_quiescent, pump) jump the clock over ticks at which none of these
phases has work, so a skipped tick is one at which step() would do nothing.

A world's lifetime: pending timers and tasks, direct handlers and chain
system handlers can each lead back to the world (a closure over it, a bound
method of its engine), so a running world is a reference cycle.  close()
drops them; nothing else in a world refers back to it, so a closed world is
freed by reference counting once its last outside reference goes.
run_scenario closes the world it builds.  A world built by hand and never
closed, such as tests/harness.World or perfbench's kv_world, is freed by
the cycle collector.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .bus import (
    Broker,
    Event,
    Gateway,
    InboxDedupe,
    KeyRegistry,
    SignedEventBatch,
    decodes_unchanged,
    verify_batch,
)
from .chain import Chain, ChainConfig, Contract, EventDraft, GenesisCall
from .errors import ConfigError, MaxTicksExceeded, QuorumFailure
from .runlog import RunLog


BROKER_LATENCY = 1
BUS_RETRIES = 5
BUS_BACKOFF = 4  # linear: re-publish at +b, +2b, ... +retries*b
DIRECT_TIMEOUT = 8  # first per-attempt wait on the request/response channel
DIRECT_RETRIES = 5


@dataclass
class SimConfig:
    seed: int = 0
    latency_jitter: int = 0  # extra 0..jitter ticks drawn per publish/send
    direct_drop_rate: float = 0.0
    max_ticks: int = 20_000


class Future:
    __slots__ = ("done", "value", "error")

    def __init__(self):
        self.done = False
        self.value = None
        self.error = None

    def set_result(self, value) -> None:
        if not self.done:
            self.done = True
            self.value = value

    def set_error(self, error: BaseException) -> None:
        if not self.done:
            self.done = True
            self.error = error

    def result(self):
        if self.error is not None:
            raise self.error
        return self.value


class Task:
    def __init__(self, gen):
        self.gen = gen
        self.waiting_on: Optional[Future] = None
        self.future = Future()

    @property
    def finished(self) -> bool:
        return self.future.done

    def ready(self) -> bool:
        if self.finished:
            return False
        return self.waiting_on is None or self.waiting_on.done

    def step(self) -> None:
        if self.finished:
            return
        waited, self.waiting_on = self.waiting_on, None
        try:
            if waited is not None and waited.error is not None:
                awaited = self.gen.throw(waited.error)
            else:
                awaited = self.gen.send(waited.value if waited is not None else None)
        except StopIteration as stop:
            self.future.set_result(stop.value)
        except BaseException as exc:
            self.future.set_error(exc)
        else:
            if not isinstance(awaited, Future):
                raise TypeError(f"task yielded {type(awaited).__name__}, wanted Future")
            self.waiting_on = awaited
        finally:
            # this frame is in the traceback of whatever the generator raises;
            # held here, the task (whose future stores that error) or the
            # future thrown would lead the error back to itself
            self = waited = None


@dataclass(eq=False)
class _Exchange:
    """One direct request and its attempts: the future and the retry armed last."""

    target_chain: str
    payload: bytes
    fut: Future
    retry: Optional[tuple[int, int]] = None


class MessageMeter:
    """Message counters; dropped, duplicated and replayed sum the brokers' own.

    sent counts publish rounds: a batch's first publish to every broker, and
    each retransmit round to the brokers that have not acknowledged it.
    """

    def __init__(self, brokers: list[Broker]):
        self._brokers = brokers  # the simulation's live list, not a copy
        self.sent = 0
        self.delivered = 0
        self.rejected_sig = 0
        self.rejected_dup = 0
        self.direct_sent = 0
        self.direct_dropped = 0
        self.recovery_reads = 0
        self.quorum_failures = 0
        self.round_trips: dict[str, int] = {}
        self.aborts: dict[str, int] = {}

    def _brokers_total(self, name: str) -> int:
        return sum(broker.metrics[name] for broker in self._brokers)

    @property
    def dropped(self) -> int:
        return self._brokers_total("dropped")

    @property
    def duplicated(self) -> int:
        return self._brokers_total("duplicated")

    @property
    def replayed(self) -> int:
        return self._brokers_total("replayed")

    def round_trip(self, txn_id: str) -> None:
        self.round_trips[txn_id] = self.round_trips.get(txn_id, 0) + 1

    def abort(self, reason: str) -> None:
        self.aborts[reason] = self.aborts.get(reason, 0) + 1

    def snapshot(self) -> dict:
        return {
            "sent": self.sent,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "duplicated": self.duplicated,
            "replayed": self.replayed,
            "rejected_sig": self.rejected_sig,
            "rejected_dup": self.rejected_dup,
            "direct_sent": self.direct_sent,
            "direct_dropped": self.direct_dropped,
            "recovery_reads": self.recovery_reads,
            "quorum_failures": self.quorum_failures,
            "round_trips": dict(self.round_trips),
            "aborts": dict(self.aborts),
        }


class Simulation:
    def __init__(self, config: Optional[SimConfig] = None, log: Optional[RunLog] = None):
        self.config = config or SimConfig()
        self.rng = random.Random(self.config.seed)
        self.tick = 0
        self.chains: dict[str, Chain] = {}
        self.chain_order: list[str] = []
        self.gateways: dict[str, Gateway] = {}
        self.brokers: list[Broker] = []
        self.registry = KeyRegistry()
        self.dedupe: dict[str, InboxDedupe] = {}
        # wire bytes -> the batch a gateway formed from them, until delivered
        self.handoff: dict[bytes, SignedEventBatch] = {}
        self.meter = MessageMeter(self.brokers)
        self.log = log
        self.tasks: list[Task] = []
        self._timers: list[tuple[int, int, Callable]] = []
        self._timer_seq = 0
        # direct request/response channel handlers, per chain
        self.direct_handlers: dict[str, Callable] = {}

    # ----------------------------------------------------------- topology

    def add_chain(
        self, cfg: ChainConfig, contracts: Sequence[Contract] = (), calls: Sequence[GenesisCall] = ()
    ) -> Chain:
        """Add a chain whose block 0 holds `contracts` and `calls` (see Chain);
        block 0 is logged like any other block, at height 0 and tick 0."""
        if cfg.chain_id in self.chains:
            raise ConfigError(f"duplicate chain id {cfg.chain_id}")
        chain = Chain(cfg, contracts, calls)
        self.chains[cfg.chain_id] = chain
        self.chain_order.append(cfg.chain_id)
        self.gateways[cfg.chain_id] = Gateway(cfg.chain_id, cfg.f, self.registry)
        self.dedupe[cfg.chain_id] = InboxDedupe()
        self.registry.register_chain(
            cfg.chain_id,
            cfg.f,
            chain.verify_keys,
            chain.scheme,
        )
        self._log_block(chain, chain.blocks[0])
        return chain

    def add_broker(self, broker: Broker) -> Broker:
        self.brokers.append(broker)
        return broker

    # -------------------------------------------------------------- tasks

    def spawn(self, gen) -> Task:
        task = Task(gen)
        self.tasks.append(task)
        return task

    def call_at(self, tick: int, fn: Callable) -> tuple[int, int]:
        """Arm `fn` for `tick`; returns the timer's (tick, seq), for `cancel`.

        The handle holds no `fn`, so a caller that keeps it keeps no closure."""
        self._timer_seq += 1
        timer = (max(tick, self.tick), self._timer_seq)
        heapq.heappush(self._timers, (*timer, fn))
        return timer

    def call_later(self, delay: int, fn: Callable) -> tuple[int, int]:
        return self.call_at(self.tick + max(1, delay), fn)

    def cancel(self, timer: Optional[tuple[int, int]]) -> None:
        """Drop an armed timer; one that fired already is left alone."""
        for i, (tick, seq, _) in enumerate(self._timers):
            if (tick, seq) == timer:  # (tick, seq) is unique
                del self._timers[i]
                heapq.heapify(self._timers)
                return

    def sleep(self, delay: int) -> Future:
        fut = Future()
        self.call_later(delay, lambda: fut.set_result(None))
        return fut

    # --------------------------------------------------------------- loop

    def _run_ready_tasks(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for task in list(self.tasks):
                if task.ready():
                    task.step()
                    progressed = True
            self.tasks = [t for t in self.tasks if not t.finished]

    def step(self) -> None:
        """Run one tick: due timers, ready tasks, then for each chain its due
        bus copies and its block, then ready tasks again (module docstring)."""
        now = self.tick
        while self._timers and self._timers[0][0] <= now:
            _, _, fn = heapq.heappop(self._timers)
            fn()
        if self.tasks:
            self._run_ready_tasks()
        for chain_id in self.chain_order:
            self._deliver(chain_id)
            chain = self.chains[chain_id]
            if chain.mempool:
                try:
                    block, drafts = chain.produce_block(tick=now)
                except QuorumFailure:
                    self.meter.quorum_failures += 1
                    continue
                self._log_block(chain, block)
                self._emit_drafts(chain, drafts)
        if self.tasks:
            self._run_ready_tasks()
        self.tick = now + 1

    def _idle_until(self, limit: int) -> None:
        """Move the clock forward to the next tick at which step() has work.

        That is the earliest due timer or broker entry, and at most `limit`.
        With no ready task and no mempool entry, every tick before it would
        run no timer, task, block or delivery.
        """
        if any(chain.mempool for chain in self.chains.values()):
            return
        if any(task.ready() for task in self.tasks):
            return
        wake = [limit]
        if self._timers:
            wake.append(self._timers[0][0])
        wake.extend(broker.next_due() for broker in self.brokers)
        self.tick = max(self.tick, min(t for t in wake if t is not None))

    def quiescent(self) -> bool:
        if self._timers or self.tasks:
            return False
        if any(chain.mempool for chain in self.chains.values()):
            return False
        if any(broker.next_due() is not None for broker in self.brokers):
            return False
        return True

    def run_until_quiescent(self, max_ticks: Optional[int] = None) -> None:
        limit = max_ticks if max_ticks is not None else self.config.max_ticks
        while not self.quiescent():
            self._idle_until(limit)
            if self.tick >= limit:
                raise MaxTicksExceeded(f"still active at tick {self.tick}")
            self.step()

    def pump(self, future: Future, max_ticks: Optional[int] = None):
        """Drive the loop until the future completes; returns its result."""
        limit = self.tick + (max_ticks if max_ticks is not None else self.config.max_ticks)
        while not future.done:
            self._idle_until(limit)
            if self.tick >= limit:
                raise MaxTicksExceeded(f"future pending at tick {self.tick}")
            self.step()
        return future.result()

    def close(self) -> None:
        """End the world: drop its pending timers and tasks and every handler
        registered on it or on its chains, the references that lead back to
        it (see the module docstring).  A closed world runs no more."""
        self._timers.clear()
        self.tasks.clear()
        self.direct_handlers.clear()
        for chain in self.chains.values():
            chain.system_handlers.clear()

    # ------------------------------------------------- event emission path

    def _log_block(self, chain: Chain, block) -> None:
        """Record a committed block for audit/replay."""
        if self.log is None:
            return
        from .runlog import value_to_jsonable

        self.log.record(
            "block",
            chain=chain.chain_id,
            height=block.header.height,
            tick=block.header.tick,
            header=block.header.digest.hex(),
            state_root=block.header.state_root.hex(),
            txns=[
                {
                    "id": txn.txn_id.hex(),
                    "caller_chain": txn.caller_chain,
                    "caller_id": txn.caller_id,
                    "target": txn.target_contract,
                    "method": txn.method,
                    "status": receipt.status,
                    "error": receipt.error,
                    "xchain": receipt.xchain_txn,
                    "writes": [
                        [key, value_to_jsonable(value)] for key, value in receipt.writes
                    ],
                }
                for txn, receipt in zip(block.txns, block.receipts)
            ],
        )

    def _emit_drafts(self, chain: Chain, drafts: list[EventDraft]) -> None:
        for draft in drafts:
            event = Event(
                source_chain=chain.chain_id,
                dest_chain=draft.dest_chain,
                dest_contract=draft.dest_contract,
                source_contract=draft.source_contract,
                nonce=chain.event_nonce,
                kind=draft.kind,
                payload=draft.payload,
            )
            chain.event_nonce += 1
            self.emit_event(chain, event)

    def emit_event(self, chain: Chain, event: Event, forged_by: Optional[list[str]] = None) -> None:
        """Every (selected) node signs the digest; the gateway batches and publishes.

        forged_by limits signing to the given nodes: the forged-event path,
        where only colluding Byzantine nodes endorse an event that never
        executed.  Honest emission signs per each node's behavior flag.  An
        event that fewer than f+1 valid signatures endorse is given up here.
        The gateway checked what verify_batch checks, so a batch that
        decodes unchanged goes into `handoff` for its destination to take.
        """
        if forged_by is None:
            sigs = dict(chain.node_signatures(event.digest))
        else:
            sigs = {
                node_id: chain.scheme.sign(chain.signing_keys[node_id], event.digest)
                for node_id in forged_by
            }
        batch = self.gateways[chain.chain_id].collect(event, sigs)
        if batch is None:
            self._log_giveup(event, "gateway", [])
            return
        raw = batch.encode()
        if event.source_chain == chain.chain_id and decodes_unchanged(batch):
            self.handoff[raw] = batch
        self._publish_round(event, raw, list(self.brokers), 0)

    def _publish_round(self, event: Event, raw: bytes, brokers: list[Broker], retries: int) -> None:
        """Publish to `brokers`; re-publish to those that did not acknowledge.

        Retransmits follow a linear backoff, at +b, +2b, ... +BUS_RETRIES*b
        after the first publish, one timer armed at a time.  An acknowledgement
        takes 2*BROKER_LATENCY ticks, less than BUS_BACKOFF, so it is in before
        the next round is due; after the last round the batch is given up.
        Draw order: jitter, then per broker in registration order (see
        Broker.publish).
        """
        self.meter.sent += 1
        latency = BROKER_LATENCY + self._jitter()
        topic = event.dest_chain
        unacked = [b for b in brokers if not b.publish(topic, raw, self.tick, latency, self.rng)]
        if unacked and retries < BUS_RETRIES:
            self.call_later(
                BUS_BACKOFF,
                lambda: self._publish_round(event, raw, unacked, retries + 1),
            )
        elif unacked:
            self.handoff.pop(raw, None)  # a copy still queued is verified on arrival
            self._log_giveup(event, "publish", [b.broker_id for b in unacked])

    def record(self, kind: str, **fields) -> None:
        """Add a record to the run log, if the simulation keeps one."""
        if self.log is not None:
            self.log.record(kind, **fields)

    def _log_giveup(self, event: Event, stage: str, brokers: list[str]) -> None:
        """Log an event the bus stops sending: never batched, or never acknowledged."""
        self.record(
            "giveup", tick=self.tick, source_chain=event.source_chain, nonce=event.nonce,
            dest_chain=event.dest_chain, stage=stage, brokers=brokers,
        )

    # ------------------------------------------------------- delivery path

    def _deliver(self, chain_id: str) -> None:
        """Pull the copies due for `chain_id` into its inbox, right before its
        block, which then executes the events accepted here.

        Classify each due copy: bytes that passed here before are a duplicate;
        else the batch is the gateway's, from `handoff`, or verify_batch's.  The
        first copy at its destination takes the entry out; a misrouted one leaves it."""
        chain = self.chains[chain_id]
        dedupe = self.dedupe[chain_id]
        for broker in self.brokers:
            due = broker.next_due(chain_id)
            if due is None or due > self.tick:
                continue
            for raw in broker.pull(chain_id, self.tick):
                known = dedupe.verified.get(raw)
                if known is not None:
                    # these exact bytes passed here before: a duplicate
                    self._reject_duplicate(chain_id, *known)
                    continue
                batch = self.handoff.get(raw) or verify_batch(raw, self.registry)
                if batch is None:
                    self.meter.rejected_sig += 1
                    self.record("deliver", chain=chain_id, result="rejected_sig")
                    continue
                event = batch.event
                if event.dest_chain != chain_id:
                    # a broker misrouted the batch onto the wrong topic
                    self.meter.rejected_sig += 1
                    self.record("deliver", chain=chain_id, result="misrouted")
                    continue
                self.handoff.pop(raw, None)
                dedupe.verified[raw] = (event.source_chain, event.nonce)
                if not dedupe.accept(event.source_chain, event.nonce):
                    self._reject_duplicate(chain_id, event.source_chain, event.nonce)
                    continue
                self.meter.delivered += 1
                self.record(
                    "deliver", chain=chain_id, source_chain=event.source_chain, nonce=event.nonce,
                    event_kind=event.kind, dest_contract=event.dest_contract, result="accepted",
                )
                chain.enqueue_inbox_event(event)

    def _reject_duplicate(self, chain_id: str, source_chain: str, nonce: int) -> None:
        self.meter.rejected_dup += 1
        self.record("deliver", chain=chain_id, source_chain=source_chain, nonce=nonce, result="duplicate")

    # ------------------------------------------------ direct req/resp path

    def direct_request(self, target_chain: str, payload: bytes) -> Future:
        """Point-to-point request to a chain's protocol handler.

        Both legs draw drop faults (in order: request, response); retries up
        to DIRECT_RETRIES with doubled per-attempt timeout.  The future yields
        the raw response bytes, or None after the final attempt times out.
        The response that resolves it drops the pending retry timer.
        """
        exchange = _Exchange(target_chain, payload, Future())
        self._direct_attempt(exchange, attempt=0)
        return exchange.fut

    def _direct_attempt(self, ex: _Exchange, attempt: int) -> None:
        if ex.fut.done:
            return
        if attempt > DIRECT_RETRIES:
            ex.fut.set_result(None)
            return
        timeout = DIRECT_TIMEOUT * (2**attempt)
        self.meter.direct_sent += 1
        req_dropped = self._direct_dropped()
        latency = 1 + self._jitter()
        if not req_dropped:
            self.call_later(latency, lambda: self._direct_serve(ex))
        ex.retry = self.call_later(timeout, lambda: self._direct_attempt(ex, attempt + 1))

    def _direct_serve(self, ex: _Exchange) -> None:
        if ex.fut.done:
            return
        handler = self.direct_handlers.get(ex.target_chain)
        if handler is None:
            return
        response = handler(ex.payload, self.tick)
        if response is None:
            return
        if self._direct_dropped():
            return
        latency = 1 + self._jitter()

        def complete():
            if ex.fut.done:
                return
            ex.fut.set_result(response)
            self.cancel(ex.retry)

        self.call_later(latency, complete)

    def _direct_dropped(self) -> bool:
        """Draw whether one leg of a direct exchange is lost; counts the loss."""
        rate = self.config.direct_drop_rate
        dropped = rate > 0 and self.rng.random() < rate
        if dropped:
            self.meter.direct_dropped += 1
        return dropped

    def _jitter(self) -> int:
        """Extra latency for one publish or direct leg: 0..latency_jitter, drawn when set."""
        jitter = self.config.latency_jitter
        return self.rng.randrange(jitter + 1) if jitter else 0

    # ------------------------------------------------------------- metrics

    def final_state_roots(self) -> dict[str, str]:
        return {
            chain_id: self.chains[chain_id].blocks[-1].header.state_root.hex()
            for chain_id in self.chain_order
        }

    def blocks_per_chain(self) -> dict[str, int]:
        return {cid: self.chains[cid].height for cid in self.chain_order}
