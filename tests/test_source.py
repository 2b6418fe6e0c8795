"""Static checks over the simulator's own source tree."""

import ast
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
    # messages and Merkle proofs are records (values.py): only values.py
    # reads integers back out of wire bytes, and merkle.py's key_bits reads
    # a key hash as the trie position
    readers = sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if "int.from_bytes" in path.read_text(encoding="utf-8")
    )
    assert readers == ["merkle.py", "values.py"]
    # a wire string is decoded only inside values.py's typed decoder, so no
    # second wire codec grows elsewhere
    assert _modules_matching(re.compile(r"""\.decode\(\s*(?:\)|["']utf-?8)""")) == ["values.py"]
    # what a chain hashes or signs (txn ids, header digests, read signatures)
    # is a record encoding too: only values.py lays integers out as bytes
    assert _modules_matching(re.compile(r"\.to_bytes\(")) == ["values.py"]


def _modules_matching(pattern: re.Pattern) -> list[str]:
    return sorted(
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        if pattern.search(path.read_text(encoding="utf-8"))
    )


def test_events_are_decoded_only_on_the_bus():
    # an event is decoded only in bus.verify_batch, for bytes no gateway
    # handed over; a decode elsewhere is a second decode or an unverified
    # event path
    assert _modules_matching(re.compile(r"\b(?:decode|read)_record\([^)]*\bEvent\b")) == ["bus.py"]


def test_hmac_is_computed_only_in_crypto():
    # signatures come from the schemes, whose HMAC keeps precomputed key state
    assert _modules_matching(re.compile(r"\bhmac\.new\(")) == ["crypto.py"]


def test_frozen_records_are_declared_with_record():
    # values.record stores fields straight into __dict__; a plain frozen
    # dataclass would set each one through object.__setattr__
    assert _modules_matching(re.compile(r"@dataclass\(\s*frozen\s*=\s*True")) == []
    assert "auction.py" in _modules_matching(re.compile(r"^@record$", re.M))


def _calls(tree: ast.AST) -> list[ast.Call]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)]


def test_no_module_manages_memory_by_hand():
    # every world is freed by reference counting (Simulation.close breaks its
    # cycles), so no module calls the collector or holds a weak reference
    imported = set()
    for path in SRC.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    assert not imported & {"gc", "weakref"}
    # the walk does see the modules the simulator imports
    assert {"heapq", "random"} <= imported


def test_generated_code_is_executed_only_in_values():
    # values.py generates record __init__s with exec
    callers = {
        path.relative_to(SRC).as_posix()
        for path in SRC.rglob("*.py")
        for call in _calls(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(call.func, ast.Name) and call.func.id in ("exec", "eval", "compile")
    }
    assert callers == {"values.py"}


def _function(rel: str, name: str) -> ast.FunctionDef:
    tree = ast.parse((SRC / rel).read_text(encoding="utf-8"))
    (found,) = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef) and n.name == name]
    return found


def test_signing_paths_use_the_chain_signer_tables():
    # the node_id -> key tables are built once per chain; the hot paths never
    # rebuild the node list
    for rel, name in (("chain.py", "node_signatures"), ("chain.py", "_certify"), ("systxn.py", "_serve_read")):
        fn = _function(rel, name)
        attrs = [c.func.attr for c in _calls(fn) if isinstance(c.func, ast.Attribute)]
        assert "node_ids" not in attrs, f"{rel}:{name} calls node_ids()"
    assert any(
        isinstance(n, ast.Attribute) and n.attr == "signing_keys" for n in ast.walk(_function("systxn.py", "_serve_read"))
    )


def test_only_chain_touches_chain_private_state():
    # every transaction reaches state through its ExecContext, which the chain
    # applies in one place; no other module reaches into the chain itself
    private = re.compile(r"\._(?:commit_writes|overlay|current|effects|inbox|history)\b")
    assert _modules_matching(private) == ["chain.py"]


def test_only_chain_maps_a_key_to_its_contract():
    # Chain.key_access is the one gate on a full key: storage and prefix reads
    # name full keys, so no module builds one from a request's contract, and
    # no other module slices a contract's namespace off a key
    assert _modules_matching(re.compile(r"\{req\.contract\}\.")) == []
    assert set(_modules_matching(re.compile(r"\[\s*len\(\w+\)\s*\+\s*1\s*:"))) <= {"chain.py"}


def test_sys_txn_handlers_read_only_their_exec_context():
    # the chain side of 2PC knows no client: it imports nothing from the
    # client module and reaches no engine, simulation or other chain; what
    # the client hears goes through Chain.client
    tree = ast.parse((SRC / "systxn.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    assert not imported & {"txn", "interopsim.txn"}
    assert "chain" in imported  # the walk does see the module's imports
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    attrs = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "XTxnEngine" not in names | attrs
    assert not attrs & {"sim", "records", "chains"}
    assert "client" in attrs  # the walk does see an attribute where one is read


def test_only_systxn_knows_the_2pc_ledger_layout():
    # the client reads 2PC ledger keys through systxn's decision_key and
    # applied_marker, so one module lays the keys out
    assert _modules_matching(re.compile(r"sys\.(?:2pc|applied|xt)\.")) == ["systxn.py"]


def test_only_a_no_vote_or_an_applied_decision_releases_locks():
    # strict two-phase locking: a transaction's locks go only with its no vote
    # or its applied decision, and no direct-channel request releases one
    callers = []
    for path in SRC.rglob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        releases = [c for c in _calls(tree) if isinstance(c.func, ast.Attribute) and c.func.attr == "release_owner"]
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and any(c in releases for c in _calls(fn)):
                callers.append(f"{path.relative_to(SRC).as_posix()}:{fn.name}")
    assert sorted(callers) == ["systxn.py:_exec_apply", "systxn.py:_exec_prepare"]
    assert _modules_matching(re.compile("__unlock__")) == []


def test_protocol_events_are_staged_only_by_send():
    # _send runs a message to the executing chain in place; a 2PC event
    # staged anywhere else could reach the bus addressed to its own source
    tree = ast.parse((SRC / "systxn.py").read_text(encoding="utf-8"))
    makers, stagers = set(), set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            if any(isinstance(c.func, ast.Name) and c.func.id == "_sys_event" for c in _calls(fn)):
                makers.add(fn.name)
            if any(isinstance(n, ast.Attribute) and n.attr in ("events", "emit") for n in ast.walk(fn)):
                stagers.add(fn.name)
    assert makers == {"_send"}
    assert stagers == {"_send"}
