"""Each `simctl demo auction` smoke in CI still exercises what its step is named for.

A change of timing reorders the seeded RNG draws, so a smoke can keep
passing `run`, `replay` and `audit` while it no longer injects the fault its
name promises.  Each step of .github/workflows/tests.yml that runs a demo
smoke is run here with its flags, and its named condition is checked.
"""

import json
from pathlib import Path

import pytest

from interopsim.bus import KIND_DECIDE, Broker, SignedEventBatch
from interopsim.cli import main as simctl
from interopsim.sim import Simulation
from interopsim.values import decode_record

ROOT = Path(__file__).parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
DEMO = "simctl demo auction "


def demo_smokes() -> dict[str, list[str]]:
    """Step name -> the flags of the step's `simctl demo auction` run."""
    smokes, name = {}, None
    for line in WORKFLOW.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("- name: "):
            name = line[len("- name: ") :]
        elif line.startswith(DEMO):
            smokes[name] = line[len(DEMO) :].split(" --out ")[0].split()
    return smokes


class Run:
    """One smoke's metrics and log, and the bus copies dropped and given up in it."""

    def __init__(self, out: Path, log: Path, dropped: list, given_up: list):
        self.metrics = json.loads(out.read_text(encoding="utf-8"))
        self.records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
        self.dropped = dropped  # event kind of each copy a broker dropped
        self.given_up = given_up  # (event kind, destination) of each event given up

    def drops(self) -> bool:
        return self.metrics["messages"]["dropped"] > 0

    def calls(self, method: str) -> list[str]:
        """The chain of each committed call of `method`."""
        return [
            rec["chain"]
            for rec in self.records
            if rec["kind"] == "block"
            for txn in rec["txns"]
            if txn["method"] == method and txn["status"] == "ok"
        ]


def _decide_given_up_and_polled(run: Run) -> bool:
    lost = {dest for kind, dest in run.given_up if kind == KIND_DECIDE}
    return bool(lost & set(run.calls("apply")))


CHECKS = {
    "Determinism smoke": lambda run: not run.drops(),
    "Determinism smoke (locks, drops)": lambda run: run.metrics["mode"] == "locks" and run.drops(),
    "Determinism smoke (locks, decides dropped)": lambda run: (
        run.metrics["mode"] == "locks" and KIND_DECIDE in run.dropped
    ),
    "Determinism smoke (occ, drops)": lambda run: run.metrics["mode"] == "occ" and run.drops(),
    "Determinism smoke (occ, a decide lost entirely, applied by a poll)": lambda run: (
        run.metrics["mode"] == "occ" and _decide_given_up_and_polled(run)
    ),
}


def test_every_demo_smoke_has_a_check():
    assert sorted(demo_smokes()) == sorted(CHECKS)


def test_diff_demo_logs_runs_the_workflows_smokes():
    text = (ROOT / "scripts" / "diff_demo_logs.sh").read_text(encoding="utf-8")
    listed = text.split("\nsmokes=(\n", 1)[1].split("\n)", 1)[0]
    assert [line.strip().strip('"').split() for line in listed.splitlines()] == list(demo_smokes().values())


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_demo_smoke_does_what_its_step_name_says(name, tmp_path, monkeypatch, capsys):
    dropped, given_up = [], []
    publish, log_giveup = Broker.publish, Simulation._log_giveup

    def spy_publish(broker, topic, raw, now, latency, rng):
        before = broker.metrics["dropped"]
        acked = publish(broker, topic, raw, now, latency, rng)
        if broker.metrics["dropped"] > before:
            dropped.append(decode_record(raw, SignedEventBatch).event.kind)
        return acked

    def spy_giveup(sim, event, stage, brokers):
        given_up.append((event.kind, event.dest_chain))
        log_giveup(sim, event, stage, brokers)

    out, log = tmp_path / "m.json", tmp_path / "run.jsonl"
    with monkeypatch.context() as patch:
        patch.setattr(Broker, "publish", spy_publish)
        patch.setattr(Simulation, "_log_giveup", spy_giveup)
        assert simctl(["demo", "auction", *demo_smokes()[name], "--out", str(out), "--log", str(log)]) == 0
    assert simctl(["replay", str(log)]) == 0
    assert simctl(["audit", str(log)]) == 0
    capsys.readouterr()
    assert CHECKS[name](Run(out, log, dropped, given_up))
