"""Policy AST node types and the canonical pretty-printer."""

from __future__ import annotations

from typing import Optional, Union

from ..values import Value, record

Expr = Union["OrExpr", "AndExpr", "NotExpr", "CmpExpr", "ArithExpr", "Lit", "Builtin"]

ACTIONS = ("read", "write", "invoke")

# nullary builtins bind request attributes; the rest query chain state
NULLARY_BUILTINS = ("caller.id", "caller.chain", "block.height")
CALL_BUILTINS = {"state": (1,), "exists": (1,), "count": (3,), "sum": (1, 3), "avg": (1,)}


@record
class Lit:
    value: Value


@record
class Builtin:
    name: str
    args: tuple[Expr, ...] = ()


@record
class ArithExpr:
    op: str  # "+" | "-"
    left: Expr
    right: Expr


@record
class CmpExpr:
    op: str  # == != < <= > >=
    left: Expr
    right: Expr


@record
class NotExpr:
    operand: Expr


@record
class AndExpr:
    left: Expr
    right: Expr


@record
class OrExpr:
    left: Expr
    right: Expr


@record
class Rule:
    action: str
    resource: tuple[str, ...]  # segments; "*" may appear only last
    condition: Optional[Expr] = None


@record
class Policy:
    rules: tuple[Rule, ...]


def conjuncts(expr: Expr) -> list[Expr]:
    """Flatten a left-assoc chain of AndExpr into its conjunct list."""
    if isinstance(expr, AndExpr):
        return conjuncts(expr.left) + [expr.right]
    return [expr]


def _quote(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def _term_str(e: Expr) -> str:
    if isinstance(e, Lit):
        v = e.value
        if v is None:
            return "null"
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, str):
            return _quote(v)
        raise TypeError(f"unprintable literal {v!r}")
    if isinstance(e, Builtin):
        if not e.args:
            return e.name
        return f"{e.name}({', '.join(_term_str(a) for a in e.args)})"
    if isinstance(e, ArithExpr):
        return f"{_term_str(e.left)} {e.op} {_term_str(e.right)}"
    raise TypeError(f"not a term: {e!r}")


def _cmp_str(e: Expr) -> str:
    if isinstance(e, CmpExpr):
        return f"{_term_str(e.left)} {e.op} {_term_str(e.right)}"
    if isinstance(e, (OrExpr, AndExpr, NotExpr)):
        return f"({expr_str(e)})"
    return _term_str(e)


def _not_str(e: Expr) -> str:
    if isinstance(e, NotExpr):
        return "!" + _not_str(e.operand)
    return _cmp_str(e)


def _and_str(e: Expr) -> str:
    if isinstance(e, AndExpr):
        return f"{_and_str(e.left)} && {_not_str(e.right)}"
    return _not_str(e)


def expr_str(e: Expr) -> str:
    if isinstance(e, OrExpr):
        return f"{expr_str(e.left)} || {_and_str(e.right)}"
    return _and_str(e)


def print_policy(policy: Policy) -> str:
    lines = []
    for rule in policy.rules:
        text = f"allow {rule.action} on {'.'.join(rule.resource)}"
        if rule.condition is not None:
            text += f" when {expr_str(rule.condition)}"
        lines.append(text + ";")
    return "\n".join(lines) + "\n"
