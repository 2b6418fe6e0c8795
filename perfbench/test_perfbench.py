"""Tests of the benchmark itself: statistics, span tracing, tiny workload runs.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import interopsim.chain  # noqa: E402
import report  # noqa: E402
import run  # noqa: E402
from measure import growth_ratio, percentile, tail, tail_percentile  # noqa: E402
from tracing import Tracer, aggregate  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402

# (size argument of make_inputs, ops per pass at that size)
TINY = {"mini_scale": (8, 8), "transfer_contended": (2, 4), "auction_sweep": (4, 4)}


# ------------------------------------------------------------- statistics


@pytest.mark.parametrize(
    "n, expected",
    [(1, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (199, 90.0),
     (200, 95.0), (1000, 99.0), (10_000, 99.9)],
)
def test_tail_is_highest_percentile_leaving_ten_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_leaves_at_least_ten_samples_beyond():
    for n in range(20, 3000, 7):
        p = tail_percentile(n)
        cut = percentile(list(range(n)), p)
        assert n - 1 - cut >= 10


def test_percentile_is_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert percentile(values, 50) == 3
    assert percentile(values, 100) == 5
    assert percentile(values, 1) == 1
    assert tail(list(range(1, 201))) == (95.0, 190)


def test_growth_ratio_compares_last_quarter_with_first():
    assert growth_ratio([1, 1, 2, 2, 3, 3, 4, 4]) == 4.0
    with pytest.raises(ValueError):
        growth_ratio([1, 2, 3])


# ---------------------------------------------------------------- tracing


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("leaf", 20, 30, 1),
        ("b", 50, 70, 0),
        ("leaf", 80, 85, 0),
    ]
    agg = aggregate(spans)
    assert agg[("root", "")] == [1, 100, 100 - 30 - 20 - 5]
    assert agg[("a", "root")] == [1, 30, 20]
    assert agg[("leaf", "a")] == [1, 10, 10]
    assert agg[("b", "root")] == [1, 20, 20]
    assert agg[("leaf", "root")] == [1, 5, 5]


def test_wrapped_calls_nest_and_return_unchanged():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x * 2)
    outer = tracer.wrap("outer", lambda x: inner(x) + inner(x + 1))
    assert outer(3) == 14
    spans = tracer.take()
    assert [(s[0], s[3]) for s in spans] == [("outer", -1), ("inner", 0), ("inner", 0)]
    assert all(s[1] <= s[2] for s in spans)
    assert tracer.take() == []


def test_wrapped_call_records_span_when_it_raises():
    tracer = Tracer()

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap("boom", boom)()
    assert [s[0] for s in tracer.take()] == ["boom"]


def test_uninstall_restores_every_original():
    before = interopsim.chain.MerkleMap, interopsim.chain.Chain.produce_block
    tracer = Tracer()
    tracer.install()
    assert interopsim.chain.MerkleMap is not before[0]
    tracer.uninstall()
    assert (interopsim.chain.MerkleMap, interopsim.chain.Chain.produce_block) == before


# ------------------------------------------------------- tiny workload runs


@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_checks_out_and_tracing_is_read_only(name):
    workload = WORKLOADS[name]
    size, ops = TINY[name]
    inputs = workload.make_inputs(7, size)
    plain = workload.run_pass(inputs)
    assert plain.problems == []
    assert len(plain.op_wall_s) == ops
    assert plain.op_ok and len(plain.op_ticks) == len(plain.op_wall_s)
    metrics = report.end_to_end([plain], [plain.setup_s])
    assert set(metrics) == set(report.END_TO_END)
    assert all(v > 0 for v in metrics.values())

    tracer = Tracer()
    tracer.install()
    try:
        traced = workload.run_pass(inputs)
    finally:
        tracer.uninstall()
    assert traced.deterministic() == plain.deterministic()
    assert traced.root_digests == plain.root_digests
    totals: dict = {}
    report.merge_spans(totals, tracer.take())
    layers = report.per_layer(totals, tracer.counts, [traced], 0.0)
    assert set(layers) == set(report.PER_LAYER)
    assert layers["chain.blocks"] > 0 and layers["crypto.signs"] > 0
    assert layers["merkle.leaves_hashed"] > 0 and layers["sim.ticks"] > 0


def test_mini_decides_every_mini_in_steady_ticks():
    result = WORKLOADS["mini_scale"].run_pass(WORKLOADS["mini_scale"].make_inputs(3, 8))
    assert all(result.op_ok)
    assert len(set(result.op_ticks)) == 1


def test_same_seed_same_inputs():
    for name, (size, _) in TINY.items():
        make = WORKLOADS[name].make_inputs
        assert make(5, size) == make(5, size)
        assert make(5, size) != make(6, size)


def test_pass_with_a_failed_check_yields_no_numbers():
    class Broken:
        name = "broken"

        def run_pass(self, inputs):
            return PassResult(op_wall_s=[0.1], op_ticks=[1], op_ok=[True], problems=["wrong total"])

    with pytest.raises(run.CheckFailed, match="wrong total"):
        run.run_passes(Broken(), None, 1.0)


def fake_workload_processes(monkeypatch, failing: str | None):
    """Replace the per-workload processes of `--workload all` with canned output."""

    def fake_run(cmd, **kwargs):
        name = cmd[cmd.index("--workload") + 1]
        if name == failing:
            return subprocess.CompletedProcess(cmd, 1, stdout="")
        result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}
        return subprocess.CompletedProcess(cmd, 0, stdout=f"{name} report\n{json.dumps(result)}\n")

    monkeypatch.setattr(run.subprocess, "run", fake_run)


def test_all_prints_one_result_over_every_workload(monkeypatch, capsys):
    fake_workload_processes(monkeypatch, failing=None)
    assert run.main(["--seconds", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 9, 0)
    assert sorted(result["metrics"]) == sorted(f"{name}.setup_s" for name in run.WORKLOAD_NAMES)
    assert not any(line.startswith("{") for line in lines[:-1])


def test_all_prints_no_result_when_a_workload_fails(monkeypatch, capsys):
    fake_workload_processes(monkeypatch, failing="transfer_contended")
    assert run.main([]) == 1
    out = capsys.readouterr().out
    assert "{" not in out
    assert "mini_scale report" in out


def test_benchmark_json_names_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == report.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == report.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert spec["run_seconds"] == run.RUN_SECONDS


def test_exits_nonzero_without_simulator_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "perfbench" / "run.py"), "--workload", "mini_scale",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
