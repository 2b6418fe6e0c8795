"""Read-only span tracing, applied from outside the simulator.

`Tracer.install()` replaces each traced entry point at the name through which
the simulator looks it up (a module attribute, a class attribute, or an entry
of `Simulation.direct_handlers`) with a wrapper that records a span and calls
the original with the same arguments.  Spans are kept in memory as
`(name, start_ns, end_ns, parent_index)` tuples; parents come from a stack,
which is exact because the simulator is single-threaded and no traced call
suspends.  `uninstall()` restores every original.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Optional

Span = tuple[str, int, int, int]


def aggregate(spans: list[Span]) -> dict[tuple[str, str], list[int]]:
    """Per (name, parent name): [count, total ns, self ns].

    A span's self time is its duration minus the part covered by its direct
    children.  Children of one span are sequential, so that part is the sum
    of their durations; grandchildren are already inside a child.
    """
    covered = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[tuple[str, str], list[int]] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else ""
        entry = out.setdefault((name, parent_name), [0, 0, 0])
        entry[0] += 1
        entry[1] += end - start
        entry[2] += end - start - covered[i]
    return out


class Tracer:
    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ----------------------------------------------------------- recording

    def wrap(self, name: str, fn: Callable, observe: Optional[Callable] = None) -> Callable:
        """Wrapper recording one span per call; `observe(args, result)` counts."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def take(self) -> list[Span]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("spans still open")
        done = list(self.spans)
        self.spans.clear()
        return done

    # ------------------------------------------------------------ patching

    def _replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _trace(self, owner, attr: str, name: str, observe: Optional[Callable] = None) -> None:
        self._replace(owner, attr, self.wrap(name, getattr(owner, attr), observe))

    def install(self) -> None:
        import interopsim.bus as bus
        import interopsim.chain as chain
        import interopsim.crypto as crypto
        import interopsim.policy as policy
        import interopsim.runlog as runlog
        import interopsim.scenario as scenario
        import interopsim.sim as sim
        import interopsim.txn as txn

        counts = self.counts

        def count_leaves(args, _result):
            counts["merkle.leaves_hashed"] += len(args[1])

        def count_locked(_args, response):
            if response.status == "locked":
                counts["txn.locked_retries"] += 1

        def count_denied(_args, decision):
            if not decision.allowed:
                counts["policy.denied"] += 1

        base_map = chain.MerkleMap
        traced_map = type(
            "MerkleMap",
            (base_map,),
            {"__init__": self.wrap("merkle.build", base_map.__init__, count_leaves)},
        )
        self._replace(chain, "MerkleMap", traced_map)
        self._trace(chain.Chain, "produce_block", "chain.produce_block")
        self._trace(chain.Chain, "get_proof", "chain.get_proof")
        self._trace(txn, "verify_proof", "merkle.verify")
        for scheme in (crypto.HmacScheme, crypto.Ed25519Scheme):
            self._trace(scheme, "sign", "crypto.sign")
            self._trace(scheme, "verify", "crypto.verify")
        self._trace(sim, "verify_batch", "bus.verify_batch")
        self._trace(bus.Gateway, "collect", "bus.gateway")
        self._trace(policy, "evaluate", "policy.evaluate", count_denied)
        self._trace(policy, "parse_policy", "policy.parse")
        self._trace(sim.Simulation, "step", "sim.step")
        self._trace(txn.XTxnEngine, "verify_response", "txn.verify_response", count_locked)
        self._trace(scenario, "build_world", "scenario.build_world")
        self._trace(runlog.RunLog, "record", "runlog.record")

        attach = txn.XTxnEngine.attach_chain
        wrap = self.wrap

        def attach_chain(engine, chain_id):
            attach(engine, chain_id)
            handlers = engine.sim.direct_handlers
            handlers[chain_id] = wrap("txn.serve", handlers[chain_id])

        self._replace(txn.XTxnEngine, "attach_chain", attach_chain)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def write_spans(path: Path, spans: list[Span]) -> None:
    """One JSON array per line: [index, name, start_ns, end_ns, parent_index]."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(json.dumps([i, name, start, end, parent]))
            fh.write("\n")
