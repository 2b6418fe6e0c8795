"""Benchmark entry point for the interopsim simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's inputs from the seed, then runs passes over them (each
pass sets up fresh worlds and runs every op) until the time budget is spent.
Every pass checks its outputs and must reproduce the first pass's
deterministic results exactly.  The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`.  With `--trace 0` the
metrics are the end-to-end ones, measured untraced.  With `--trace 1` half
the budget runs untraced and half traced; the traced passes must reproduce
the untraced ones exactly and give the per-layer metrics plus the tracing
overhead.  `--workload all` runs every workload, each in its own process
with an equal share of `--seconds`, and prints one result whose metrics are
named `<workload>.<metric>`.

A failed check prints the problem on standard error, no result line, and
exits with code 1.  Without the simulator's sources in `src/` next to this
directory the benchmark exits with code 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".perfbench"
RUN_SECONDS = 36.0  # the run_seconds of BENCHMARK.json
SETUP_REPEATS = 3  # extra set-ups timed after each pass
WORKLOAD_NAMES = ("mini_scale", "transfer_contended", "auction_sweep")


class CheckFailed(Exception):
    pass


def load_simulator() -> None:
    """Import interopsim from this checkout's `src/`, never from elsewhere."""
    if not (SRC / "interopsim" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import interopsim

    if Path(interopsim.__file__).resolve().parent != SRC / "interopsim":
        print(f"perfbench: interopsim imported from {interopsim.__file__}", file=sys.stderr)
        sys.exit(2)


def run_passes(workload, inputs, seconds: float, after_pass=None) -> list:
    """Run whole passes while another one still fits in `seconds` (at least one)."""
    passes = []
    began = time.perf_counter()
    while True:
        gc.collect()  # free the previous pass's worlds before timing this one
        result = workload.run_pass(inputs)
        if result.problems:
            raise CheckFailed(f"{workload.name}: " + "; ".join(result.problems[:5]))
        if passes and result.deterministic() != passes[0].deterministic():
            raise CheckFailed(f"{workload.name}: pass {len(passes)} diverged from pass 0")
        passes.append(result)
        if after_pass is not None:
            after_pass()
        elapsed = time.perf_counter() - began
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def time_setups(workload, inputs, samples: list[float]) -> None:
    """Set up SETUP_REPEATS more times, each from a collected heap like a pass's own."""
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        workload.setup(inputs)
        samples.append(time.perf_counter() - start)


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict, int]:
    """(metrics, details, ops attempted) for one workload; raises CheckFailed."""
    import report
    from tracing import Tracer, write_spans
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    inputs = workload.make_inputs(seed)
    if not trace:
        # extra set-ups are spread over the run, so that their least time
        # comes from the host's quietest moments, like the op times
        extra: list[float] = []
        passes = run_passes(workload, inputs, seconds, after_pass=lambda: time_setups(workload, inputs, extra))
        metrics = report.end_to_end(passes, [p.setup_s for p in passes] + extra)
        attempted = sum(len(p.op_ok) for p in passes)
        return metrics, details(passes), attempted

    untraced = run_passes(workload, inputs, seconds / 2)
    tracer = Tracer()
    span_totals: dict = {}
    kept: list = []

    def fold_spans():
        spans = tracer.take()
        report.merge_spans(span_totals, spans)
        if not kept:
            kept.extend(spans)

    tracer.install()
    try:
        traced = run_passes(workload, inputs, seconds / 2, after_pass=fold_spans)
    finally:
        tracer.uninstall()
    if traced[0].deterministic() != untraced[0].deterministic():
        raise CheckFailed(f"{name}: traced run diverged from the untraced run")
    untraced_rate = report.ops_per_s(untraced)
    traced_rate = report.ops_per_s(traced)
    overhead = untraced_rate / traced_rate - 1.0
    metrics = report.per_layer(span_totals, tracer.counts, traced, overhead)
    span_file = SPAN_DIR / f"spans-{name}-seed{seed}.jsonl"
    write_spans(span_file, kept)
    info = details(traced)
    info.update(
        untraced_ops_per_s=untraced_rate,
        traced_ops_per_s=traced_rate,
        untraced_passes=len(untraced),
        spans_per_pass=len(kept),
        span_file=str(span_file.relative_to(ROOT)),
    )
    attempted = sum(len(p.op_ok) for p in traced)
    return metrics, info, attempted


def details(passes) -> dict:
    import report
    from workloads import content_hash

    first = passes[0]
    return {
        "passes": len(passes),
        "ops_per_pass": len(first.op_wall_s),
        **report.tail_note(first),
        "state_digest": first.deterministic()["state_digest"],
        "roots_digest": content_hash(first.root_digests),
    }


def run_one(args) -> int:
    load_simulator()
    import report

    try:
        metrics, info, attempted = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1
    units = report.PER_LAYER if args.trace else report.END_TO_END
    print(f"{args.workload} seed={args.seed} trace={args.trace}")
    print("details " + json.dumps(info, sort_keys=True))
    for metric, value in metrics.items():
        print(f"  {metric:<28} {value:>14.6g} {units[metric]}")
    result = {
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory is per workload.

    The workloads share `--seconds` equally.  A workload that fails stops the
    run: its problem is on standard error and no result is printed.
    """
    seconds = args.seconds / len(WORKLOAD_NAMES)
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0:
            print("\n".join(lines))
            print(f"perfbench: {name} failed with exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        print("\n".join(lines[:-1]))  # the report lines, not the workload's own result
        results[name] = json.loads(lines[-1])
    print(json.dumps(combine(results)))
    return 0


def combine(results: dict[str, dict]) -> dict:
    """One result over all workloads, each metric named `<workload>.<metric>`."""
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{m}": v for name, r in results.items() for m, v in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
