"""Post-run audit: replays the run log and checks the global properties.

Everything is recomputed from raw log records (block writes, delivery
records, lock events, transaction decisions); the audit never trusts a
component's own summary of itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from .errors import CorruptLog
from .runlog import load_log, value_from_jsonable
from .values import record


@record
class AuditCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class AuditReport:
    checks: list[AuditCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def render(self) -> str:
        lines = []
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            line = f"[{mark}] {c.name}"
            if c.detail:
                line += f": {c.detail}"
            lines.append(line)
        verdict = "AUDIT OK" if self.ok else "AUDIT FAILED"
        lines.append(verdict)
        return "\n".join(lines)


def _iter_writes(records):
    """Yield (chain, height, txn_index, key, value, xchain, status) per write."""
    for rec in records:
        if rec.get("kind") != "block":
            continue
        for i, txn in enumerate(rec.get("txns", [])):
            for key, value in txn.get("writes", []):
                yield (
                    rec["chain"],
                    rec["height"],
                    i,
                    key,
                    value_from_jsonable(value),
                    txn.get("xchain", ""),
                    txn.get("status"),
                )


def check_atomicity(records) -> AuditCheck:
    """Committed cross-chain writes all land; aborted ones leave nothing."""
    applied: dict[str, list] = {}
    for chain, _h, _i, key, value, xchain, _s in _iter_writes(records):
        if xchain and not key.startswith("sys."):
            applied.setdefault(xchain, []).append((chain, key, value))
    failures = []
    for rec in records:
        if rec.get("kind") != "xtxn":
            continue
        txid = rec["txn"]
        wanted = [
            (chain, key, value_from_jsonable(value))
            for chain, key, value in rec.get("writes", [])
        ]
        got = applied.get(txid, [])
        if rec.get("decision") == "commit":
            missing = [w for w in wanted if w not in got]
            if missing:
                failures.append(f"{txid}: missing writes {missing[:3]}")
        else:
            if got:
                failures.append(f"{txid}: aborted but wrote {got[:3]}")
    return AuditCheck(
        "atomicity",
        not failures,
        failures[0] if failures else "all-or-nothing writes hold",
    )


def check_conservation(records) -> AuditCheck:
    """Sum(balance.*) + sum(escrow.*) constant per chain after funding."""
    chains: dict[str, dict[str, int]] = {}
    baseline: dict[str, int] = {}
    failures = []
    last_block: dict[str, tuple] = {}
    by_block: dict[tuple, list] = {}
    for item in _iter_writes(records):
        chain, height = item[0], item[1]
        by_block.setdefault((chain, height), []).append(item)
    for (chain, height) in sorted(by_block, key=lambda ch: (ch[1], ch[0])):
        for _c, _h, _i, key, value, _x, _s in by_block[(chain, height)]:
            if ".balance." in key or ".escrow." in key:
                chains.setdefault(chain, {})[key] = value or 0
        if chain in chains:
            total = sum(chains[chain].values())
            if chain not in baseline:
                baseline[chain] = total
            elif total != baseline[chain]:
                failures.append(
                    f"{chain} at height {height}: total {total} != {baseline[chain]}"
                )
    return AuditCheck(
        "conservation",
        not failures,
        failures[0] if failures else "balances+escrows constant per chain",
    )


def check_at_most_once(records) -> AuditCheck:
    seen = set()
    failures = []
    for rec in records:
        if rec.get("kind") != "deliver" or rec.get("result") != "accepted":
            continue
        key = (rec["chain"], rec["source_chain"], rec["nonce"])
        if key in seen:
            failures.append(f"duplicate accept {key}")
        seen.add(key)
    return AuditCheck(
        "at_most_once",
        not failures,
        failures[0] if failures else f"{len(seen)} unique deliveries",
    )


def check_locks(records) -> AuditCheck:
    final = None
    for rec in records:
        if rec.get("kind") == "final":
            final = rec
    if final is None:
        return AuditCheck("locks_released", False, "no final record")
    leftovers = {c: ks for c, ks in final.get("locks", {}).items() if ks}
    return AuditCheck(
        "locks_released",
        not leftovers,
        str(leftovers) if leftovers else "lock tables empty",
    )


def check_winner(records) -> AuditCheck:
    """Brute-force ledger re-scan: the recorded winner is the true argmax."""
    final = next((r for r in records if r.get("kind") == "final"), None)
    rates = {
        cid: Fraction(text)
        for cid, text in (final.get("rates", {}) if final else {}).items()
    }
    # chronological write stream per chain
    writes_by_chain: dict[str, list] = {}
    for item in _iter_writes(records):
        writes_by_chain.setdefault(item[0], []).append(item)

    conclusions = []
    for rec in records:
        if rec.get("kind") != "xtxn" or rec.get("decision") != "commit":
            continue
        winner_user = winner_chain = None
        for chain, key, value in rec.get("writes", []):
            if ".winner_user" in key:
                winner_user = value_from_jsonable(value)
            if ".winner_chain" in key:
                winner_chain = value_from_jsonable(value)
        if winner_user is not None:
            conclusions.append((rec["txn"], winner_chain, winner_user))
    failures = []
    for txid, winner_chain, winner_user in conclusions:
        candidates = []
        for chain, stream in writes_by_chain.items():
            if chain not in rates:
                continue
            bids: dict[str, tuple] = {}
            for _c, height, idx, key, value, xchain, status in stream:
                if xchain == txid:
                    break  # state as of just before this settlement applied
                if ".bids." in key:
                    user = key.rsplit(".", 1)[1]
                    if value is None:
                        bids.pop(user, None)
                    else:
                        bids[user] = (value, height)
            for user, (amount, height) in bids.items():
                candidates.append((Fraction(amount) * rates[chain], height, chain, user))
        if not candidates:
            failures.append(f"{txid}: no bids found for recorded winner")
            continue
        best = min(candidates, key=lambda c: (-c[0], c[1], c[2], c[3]))
        if (best[2], best[3]) != (winner_chain, winner_user):
            failures.append(
                f"{txid}: recorded winner {winner_chain}:{winner_user}, "
                f"re-scan says {best[2]}:{best[3]}"
            )
    detail = failures[0] if failures else f"{len(conclusions)} conclusion(s) verified"
    return AuditCheck("winner_correctness", not failures, detail)


def check_mini_round_trips(records) -> AuditCheck:
    final = next((r for r in records if r.get("kind") == "final"), None)
    if final is None:
        return AuditCheck("mini_round_trips", False, "no final record")
    round_trips = final.get("metrics", {}).get("round_trips", {})
    failures = []
    count = 0
    for rec in records:
        if rec.get("kind") != "xtxn" or rec.get("type") != "mini":
            continue
        if rec.get("decision") != "commit":
            continue
        count += 1
        rt = round_trips.get(rec["txn"])
        if rt != 2:
            failures.append(f"{rec['txn']}: {rt} round trips")
    return AuditCheck(
        "mini_round_trips",
        not failures,
        failures[0] if failures else f"{count} committed mini-txns at exactly 2",
    )


def audit_records(records) -> AuditReport:
    report = AuditReport()
    report.checks.append(check_atomicity(records))
    report.checks.append(check_conservation(records))
    report.checks.append(check_at_most_once(records))
    report.checks.append(check_locks(records))
    report.checks.append(check_winner(records))
    report.checks.append(check_mini_round_trips(records))
    return report


def audit_run(path: str) -> AuditReport:
    """Audit a run log file; raises CorruptLog on damaged input."""
    return audit_records(load_log(path))
