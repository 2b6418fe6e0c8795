"""End-to-end and per-layer metrics, computed from passes and spans.

Every pass runs the same ops, so wall-time metrics are taken over the per-op
series: op i's wall time is the least of its times in all passes of the run.
As with `timeit`, repeats of the same work differ only by interference from
the rest of the host, which adds time and never removes it; on a shared
host that interference swings op times by up to 2x within a minute.  The
set-up time is likewise the least of its samples.  Tick,
ratio and count metrics repeat exactly in every pass, so they come from the
first one.  Per-layer times and counts are per pass: the total over the
traced passes divided by their number.
"""

from __future__ import annotations

import resource
from collections import Counter

from measure import growth_ratio, percentile, tail, tail_percentile
from tracing import aggregate
from workloads import PassResult

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_wall_ms_p50": "ms",
    "op_wall_ms_tail": "ms",
    "op_ticks_p50": "ticks",
    "op_ticks_tail": "ticks",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "growth_ratio": "ratio",
}

ABORT_REASONS = ("LockConflict", "VersionConflict", "LockTimeout", "LockLost", "VoteTimeout", "PolicyDenied")

PER_LAYER = {
    "merkle.root_s": "s",
    "merkle.leaves_hashed": "count",
    "merkle.proof_s": "s",
    "merkle.proofs": "count",
    "merkle.verify_s": "s",
    "chain.produce_block_self_s": "s",
    "chain.blocks": "count",
    "chain.txns_per_block": "ratio",
    "chain.failed_txn_ratio": "ratio",
    "txn.serve_s": "s",
    "txn.reads_served": "count",
    "txn.verify_response_s": "s",
    "txn.locked_retries": "count",
    "txn.round_trips_per_commit": "ratio",
    "txn.decision_ticks_p50": "ticks",
    "txn.decision_ticks_tail": "ticks",
    **{f"txn.aborts.{reason}": "count" for reason in ABORT_REASONS},
    "txn.aborts.other": "count",
    "bus.verify_batch_s": "s",
    "bus.copies_pulled": "count",
    "bus.useful_ratio": "ratio",
    "bus.verifies_per_delivered": "ratio",
    "bus.publishes_per_op": "ratio",
    "bus.rejected_dup": "count",
    "bus.gateway_s": "s",
    "policy.evaluate_s": "s",
    "policy.parse_s": "s",
    "policy.evaluations": "count",
    "policy.denied_ratio": "ratio",
    "crypto.sign_s": "s",
    "crypto.verify_s": "s",
    "crypto.signs": "count",
    "crypto.verifies": "count",
    "crypto.cert_s": "s",
    "sim.self_s": "s",
    "sim.ticks": "count",
    "scenario.build_world_s": "s",
    "runlog.record_s": "s",
    "runlog.records": "count",
    "trace.overhead": "ratio",
}


def op_series(passes: list[PassResult]) -> list[float]:
    """Each op's least wall time over the passes, in op order."""
    return [min(times) for times in zip(*(p.op_wall_s for p in passes))]


def ops_per_s(passes: list[PassResult]) -> float:
    series = op_series(passes)
    return len(series) / sum(series)


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes: list[PassResult], setup_samples: list[float]) -> dict[str, float]:
    first = passes[0]
    series = op_series(passes)
    return {
        "setup_s": min(setup_samples),
        "ops_per_s": len(series) / sum(series),
        "op_wall_ms_p50": percentile(series, 50) * 1e3,
        "op_wall_ms_tail": tail(series)[1] * 1e3,
        "op_ticks_p50": percentile(first.op_ticks, 50),
        "op_ticks_tail": tail(first.op_ticks)[1],
        "ok_ratio": first.op_ok.count(True) / len(first.op_ok),
        "peak_rss_mb": peak_rss_mb(),
        "growth_ratio": growth_ratio(series),
    }


def tail_note(p: PassResult) -> dict:
    """Which percentile the tails are, and over how many samples."""
    return {
        "op_wall_tail_percentile": tail_percentile(len(p.op_wall_s)),
        "op_wall_samples": len(p.op_wall_s),
        "op_ticks_tail_percentile": tail_percentile(len(p.op_ticks)),
        "op_ticks_samples": len(p.op_ticks),
        "decision_ticks_tail_percentile": tail_percentile(len(p.ledger.decision_ticks)),
        "decision_ticks_samples": len(p.ledger.decision_ticks),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    span_totals: dict[tuple[str, str], list[int]],
    counts: Counter,
    passes: list[PassResult],
    overhead: float,
) -> dict[str, float]:
    """Layer metrics per pass from aggregated spans and the ledger tallies."""
    n = len(passes)

    def total(name: str, parent: str | None = None, col: int = 1) -> float:
        return sum(
            v[col] for (s, p), v in span_totals.items() if s == name and (parent is None or p == parent)
        )

    def seconds(name: str, parent: str | None = None, col: int = 1) -> float:
        return total(name, parent, col) / 1e9 / n

    def calls(name: str, parent: str | None = None) -> float:
        return total(name, parent, col=0) / n

    ledger = passes[0].ledger
    msgs = ledger.messages
    copies = calls("bus.verify_batch")
    evaluations = calls("policy.evaluate")
    aborts = Counter(ledger.aborts)
    out = {
        "merkle.root_s": seconds("merkle.build") - seconds("merkle.build", "chain.get_proof"),
        "merkle.leaves_hashed": counts["merkle.leaves_hashed"] / n,
        "merkle.proof_s": seconds("chain.get_proof"),
        "merkle.proofs": calls("chain.get_proof"),
        "merkle.verify_s": seconds("merkle.verify"),
        "chain.produce_block_self_s": seconds("chain.produce_block", col=2),
        "chain.blocks": ledger.blocks,
        "chain.txns_per_block": _ratio(ledger.txns, ledger.blocks),
        "chain.failed_txn_ratio": _ratio(ledger.failed_txns, ledger.txns),
        "txn.serve_s": seconds("txn.serve"),
        "txn.reads_served": calls("txn.serve"),
        "txn.verify_response_s": seconds("txn.verify_response"),
        "txn.locked_retries": counts["txn.locked_retries"] / n,
        "txn.round_trips_per_commit": _ratio(ledger.commit_round_trips, ledger.commits),
        "txn.decision_ticks_p50": percentile(ledger.decision_ticks, 50) if ledger.decision_ticks else 0,
        "txn.decision_ticks_tail": tail(ledger.decision_ticks)[1] if ledger.decision_ticks else 0,
    }
    for reason in ABORT_REASONS:
        out[f"txn.aborts.{reason}"] = aborts.pop(reason, 0)
    out.update(
        {
            "txn.aborts.other": sum(aborts.values()),
            "bus.verify_batch_s": seconds("bus.verify_batch"),
            "bus.copies_pulled": copies,
            "bus.useful_ratio": _ratio(msgs["delivered"], copies),
            "bus.verifies_per_delivered": _ratio(calls("crypto.verify", "bus.verify_batch"), msgs["delivered"]),
            "bus.publishes_per_op": _ratio(msgs["sent"], len(passes[0].op_wall_s)),
            "bus.rejected_dup": msgs["rejected_dup"],
            "bus.gateway_s": seconds("bus.gateway"),
            "policy.evaluate_s": seconds("policy.evaluate"),
            "policy.parse_s": seconds("policy.parse"),
            "policy.evaluations": evaluations,
            "policy.denied_ratio": _ratio(counts["policy.denied"] / n, evaluations),
            "crypto.sign_s": seconds("crypto.sign"),
            "crypto.verify_s": seconds("crypto.verify"),
            "crypto.signs": calls("crypto.sign"),
            "crypto.verifies": calls("crypto.verify"),
            "crypto.cert_s": seconds("crypto.sign", "chain.produce_block")
            + seconds("crypto.verify", "chain.produce_block"),
            "sim.self_s": seconds("sim.step", col=2),
            "sim.ticks": calls("sim.step"),
            "scenario.build_world_s": seconds("scenario.build_world"),
            "runlog.record_s": seconds("runlog.record"),
            "runlog.records": calls("runlog.record"),
            "trace.overhead": overhead,
        }
    )
    return out


def merge_spans(into: dict[tuple[str, str], list[int]], spans) -> None:
    for key, (count, total_ns, self_ns) in aggregate(spans).items():
        entry = into.setdefault(key, [0, 0, 0])
        entry[0] += count
        entry[1] += total_ns
        entry[2] += self_ns
