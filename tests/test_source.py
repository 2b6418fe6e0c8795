"""Static checks over the simulator's own source tree."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "interopsim"

# the modules that read scenario, policy and log files or write metrics and logs
LOADERS = ("cli.py", "scenario.py", "runlog.py", "fixtures/__init__.py")

FILE_IO = re.compile(r"\bopen\(|read_text|write_text")


def _io_lines(rel: str) -> list[str]:
    text = (SRC / rel).read_text(encoding="utf-8")
    return [
        f"{rel}:{number}: {line.strip()}"
        for number, line in enumerate(text.splitlines(), 1)
        if FILE_IO.search(line)
    ]


def test_no_file_io_outside_the_loaders():
    modules = sorted(path.relative_to(SRC).as_posix() for path in SRC.rglob("*.py"))
    assert set(LOADERS) <= set(modules)
    offenders = [hit for rel in modules if rel not in LOADERS for hit in _io_lines(rel)]
    assert offenders == []
    # the pattern does see the loaders' own file access
    assert all(_io_lines(rel) for rel in LOADERS)


def test_wire_layouts_are_written_only_in_the_codecs():
    # messages are records (values.py); only values.py and the Merkle proof's
    # binary form (merkle.py) read integers back out of raw bytes
    readers = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "int.from_bytes" in path.read_text(encoding="utf-8")
    )
    assert readers == ["merkle.py", "values.py"]


def _modules_matching(pattern: re.Pattern) -> list[str]:
    return sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    )


def test_events_are_decoded_only_on_the_bus():
    # bus.verify_batch decodes each delivered event once and authenticates
    # it; a decode elsewhere is a second decode or an unverified event path
    assert _modules_matching(re.compile(r"\b(?:decode|read)_record\([^)]*\bEvent\b")) == ["bus.py"]


def test_hmac_is_computed_only_in_crypto():
    # signatures come from the schemes, whose HMAC keeps precomputed key state
    assert _modules_matching(re.compile(r"\bhmac\.new\(")) == ["crypto.py"]
