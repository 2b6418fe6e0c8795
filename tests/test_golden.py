"""Every CI smoke writes the log and metrics file pinned in tests/golden/logs.sha256.

The file is in `sha256sum` format and names each file by the path its step in
.github/workflows/tests.yml writes, so `sha256sum -c tests/golden/logs.sha256`
checks a CI run's files from the repo root.  A change that alters a log on
purpose replaces the lines this test prints and says in CHANGES.md which
digests moved and why.
"""

import hashlib
from pathlib import Path

import pytest

from interopsim.cli import main as simctl

ROOT = Path(__file__).parents[1]
GOLDEN = ROOT / "tests" / "golden" / "logs.sha256"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
SCENARIOS = sorted((ROOT / "tests" / "scenarios").glob("*.scn"))


def smokes() -> dict[str, tuple[list[str], str, str]]:
    """Smoke label -> (simctl arguments, metrics path, log path), as CI names them."""
    out = {}
    for line in WORKFLOW.read_text(encoding="utf-8").splitlines():
        words = line.split()
        if words[:3] == ["simctl", "demo", "auction"]:
            cut = words.index("--out")
            files = dict(zip(words[cut::2], words[cut + 1 :: 2]))
            out[" ".join(words[1:cut])] = (words[1:cut], files["--out"], files["--log"])
    for scn in SCENARIOS:
        name = f"scn-runs/{scn.stem}"
        out[f"run tests/scenarios/{scn.name}"] = (["run", str(scn)], f"{name}.json", f"{name}.jsonl")
    return out


def golden() -> dict[str, str]:
    """Path -> pinned sha256 hex digest."""
    lines = GOLDEN.read_text(encoding="utf-8").splitlines()
    return {path: sha for sha, path in (line.split("  ", 1) for line in lines)}


def test_every_smoke_file_has_one_digest():
    assert len(smokes()) == 11
    assert sorted(golden()) == sorted(path for _, *paths in smokes().values() for path in paths)


@pytest.mark.parametrize("label", sorted(smokes()))
def test_smoke_files_match_their_digests(label, tmp_path, capsys):
    args, *paths = smokes()[label]
    metrics, log = (tmp_path / path.replace("/", "_") for path in paths)
    assert simctl([*args, "--out", str(metrics), "--log", str(log)]) == 0
    capsys.readouterr()
    pinned, moved = golden(), []
    for path, written in zip(paths, (metrics, log)):
        sha = hashlib.sha256(written.read_bytes()).hexdigest()
        if sha != pinned.get(path):
            moved.append(f"{sha}  {path}")
    assert not moved, f"{label} wrote other bytes; replace its lines in tests/golden/logs.sha256 with:\n" + "\n".join(moved)
