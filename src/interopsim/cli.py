"""simctl: run, audit, and replay simulator scenarios."""

from __future__ import annotations

import argparse
import json
import sys
import time

from .audit import audit_run
from .errors import ConfigError, CorruptLog, SimError
from .fixtures import scenario_path
from .runlog import load_log
from .scenario import DEFAULT_BROKERS, Scenario, load_scenario, run_scenario

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_AUDIT_FAIL = 2


def _apply_overrides(raw: dict, args) -> dict:
    if args.seed is not None:
        raw["seed"] = args.seed
    if args.mode is not None:
        raw["mode"] = args.mode
    if args.max_ticks is not None:
        raw["max_ticks"] = args.max_ticks
    if args.drop_rate is not None:
        # a scenario without [broker] sections runs the default brokers
        brokers = raw.setdefault("broker", {name: dict(spec) for name, spec in DEFAULT_BROKERS.items()})
        for spec in brokers.values():
            spec["drop_rate"] = args.drop_rate
    return raw


def _run(raw: dict, args) -> int:
    scn = Scenario.from_dict(_apply_overrides(raw, args))
    started = time.monotonic()
    metrics, log = run_scenario(scn)
    wall = time.monotonic() - started
    text = metrics.to_json()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if args.log:
        log.dump(args.log)
    print(f"wall_seconds={wall:.3f}", file=sys.stderr)
    if metrics.status != "ok":
        print(f"run ended with status {metrics.status}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


def cmd_run(args) -> int:
    return _run(load_scenario(args.scenario), args)


def cmd_demo(args) -> int:
    if args.name != "auction":
        print(f"unknown demo {args.name!r}; available: auction", file=sys.stderr)
        return EXIT_ERROR
    return _run(load_scenario(str(scenario_path("auction"))), args)


def cmd_audit(args) -> int:
    report = audit_run(args.log)
    print(report.render())
    return EXIT_OK if report.ok else EXIT_AUDIT_FAIL


def cmd_replay(args) -> int:
    records = load_log(args.log)
    meta = next((r for r in records if r.get("kind") == "meta"), None)
    if meta is None or "scenario" not in meta:
        raise CorruptLog("log has no scenario meta record")
    scn = Scenario.from_dict(meta["scenario"])
    _, log = run_scenario(scn)
    original_lines = None
    with open(args.log, "r", encoding="utf-8") as fh:
        original_lines = [line.rstrip("\n") for line in fh if line.strip()]
    replayed_lines = log.lines()
    if replayed_lines == original_lines:
        print("replay OK: byte-identical log")
        return EXIT_OK
    print("replay MISMATCH: log diverged from recording", file=sys.stderr)
    print(first_divergence(original_lines, replayed_lines), file=sys.stderr)
    return EXIT_AUDIT_FAIL


def first_divergence(recorded: list[str], replayed: list[str]) -> str:
    """Name the first line (1-based) at which two run logs differ, and how.

    The end lines are left out: they only count and checksum the lines
    before them, so they differ whenever anything else does.
    """
    recorded, replayed = recorded[:-1], replayed[:-1]
    for number, (old, new) in enumerate(zip(recorded, replayed), 1):
        if old != new:
            old_rec, new_rec = json.loads(old), json.loads(new)
            fields = sorted(
                name
                for name in old_rec.keys() | new_rec.keys()
                if name not in old_rec or name not in new_rec or old_rec[name] != new_rec[name]
            )
            return (
                f"line {number}: recorded kind {old_rec.get('kind')!r}, "
                f"replayed kind {new_rec.get('kind')!r}; fields differ: {', '.join(fields)}"
            )
    longer = "recording" if len(recorded) > len(replayed) else "replay"
    extra = abs(len(recorded) - len(replayed))
    return f"line {min(len(recorded), len(replayed)) + 1}: the {longer} has {extra} extra lines"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="simctl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--mode", choices=["occ", "locks"], default=None)
        p.add_argument("--drop-rate", type=float, default=None, dest="drop_rate")
        p.add_argument("--max-ticks", type=int, default=None, dest="max_ticks")
        p.add_argument("--out", default=None, help="write metrics JSON here")
        p.add_argument("--log", default=None, help="write the replayable run log here")

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario")
    add_run_flags(p_run)
    p_run.set_defaults(fn=cmd_run)

    p_demo = sub.add_parser("demo", help="run a packaged demo scenario")
    p_demo.add_argument("name")
    add_run_flags(p_demo)
    p_demo.set_defaults(fn=cmd_demo)

    p_audit = sub.add_parser("audit", help="audit a run log")
    p_audit.add_argument("log")
    p_audit.set_defaults(fn=cmd_audit)

    p_replay = sub.add_parser("replay", help="re-execute a run log and compare")
    p_replay.add_argument("log")
    p_replay.set_defaults(fn=cmd_replay)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, CorruptLog) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except SimError as exc:
        print(f"runtime error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
