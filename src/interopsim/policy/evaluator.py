"""Policy evaluation: total, read-only, deny-by-default.

A request is allowed iff at least one rule matches its action and
resource and that rule's condition evaluates to true.  A type error
inside a condition makes the rule false rather than aborting the
enclosing transaction (fail closed).
"""

from __future__ import annotations

from typing import Optional

from ..errors import TypeMismatch
from ..values import INT64_MAX, INT64_MIN, Value, record
from .ast import (
    AndExpr,
    ArithExpr,
    Builtin,
    CmpExpr,
    Lit,
    NotExpr,
    OrExpr,
    Policy,
)


@record
class AccessRequest:
    caller_id: str
    caller_chain: str
    action: str  # read | write | invoke
    resource: str  # dotted path
    height: int
    args: tuple[Value, ...] = ()


@record
class Decision:
    allowed: bool
    reason: str = ""


@record
class AggExpr:
    fn: str  # sum | count | avg
    prefix: str
    frm: Optional[int] = None
    to: Optional[int] = None


class EvalContext:
    """Read-only adapter over one contract's namespaced state."""

    def read_state(self, key: str) -> Value:
        raise NotImplementedError

    def exists(self, key: str) -> bool:
        return self.read_state(key) is not None

    def current_values(self, prefix: str) -> list[Value]:
        """Non-null current values under the prefix, key order."""
        raise NotImplementedError

    def history_values(self, prefix: str, frm: int, to: int) -> list[Value]:
        """Values of every write under the prefix in the height range."""
        raise NotImplementedError


class MapEvalContext(EvalContext):
    """Dict-backed context for direct evaluator use and tests."""

    def __init__(
        self,
        state: Optional[dict[str, Value]] = None,
        version_log: Optional[list[tuple[int, str, Value]]] = None,
    ):
        self.state = dict(state or {})
        self.version_log = list(version_log or [])

    def read_state(self, key: str) -> Value:
        return self.state.get(key)

    def current_values(self, prefix: str) -> list[Value]:
        return [
            self.state[k]
            for k in sorted(self.state)
            if k.startswith(prefix) and self.state[k] is not None
        ]

    def history_values(self, prefix: str, frm: int, to: int) -> list[Value]:
        return [
            v
            for h, k, v in self.version_log
            if k.startswith(prefix) and frm <= h <= to
        ]


class ChainEvalContext(EvalContext):
    """Live chain state scoped to a contract namespace; ranges clamped."""

    def __init__(self, chain, contract_id: str, height: int):
        self.chain = chain
        self.contract_id = contract_id
        self.height = height

    def _full(self, key: str) -> str:
        return f"{self.contract_id}.{key}"

    def read_state(self, key: str) -> Value:
        return self.chain.read_state(self._full(key))

    def current_values(self, prefix: str) -> list[Value]:
        return [v for _, v, _ in self.chain.state_items(self._full(prefix)) if v is not None]

    def history_values(self, prefix: str, frm: int, to: int) -> list[Value]:
        frm = max(0, frm)
        to = min(to, self.chain.history_ceiling())
        if frm > to:
            return []
        return [
            v for _, v, _ in self.chain.get_history(self._full(prefix), frm, to)
        ]


class _EvalTypeError(Exception):
    pass


def _tyname(v: Value) -> str:
    if v is None:
        return "null"
    if isinstance(v, bool):
        return "bool"
    if isinstance(v, int):
        return "int"
    if isinstance(v, str):
        return "str"
    return "bytes"


def _want_int(v: Value, what: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise _EvalTypeError(f"{what} wants int, got {_tyname(v)}")
    return v


def _want_str(v: Value, what: str) -> str:
    if not isinstance(v, str):
        raise _EvalTypeError(f"{what} wants str, got {_tyname(v)}")
    return v


def _want_bool(v: Value, what: str) -> bool:
    if not isinstance(v, bool):
        raise _EvalTypeError(f"{what} wants bool, got {_tyname(v)}")
    return v


def _check_range(v: int) -> int:
    if not INT64_MIN <= v <= INT64_MAX:
        raise _EvalTypeError("integer overflow")
    return v


def _agg(fn: str, prefix: str, frm, to, ctx: EvalContext) -> Value:
    if frm is None:
        values = ctx.current_values(prefix)
    else:
        values = ctx.history_values(prefix, frm, to)
    if fn == "count":
        return len(values)
    total = 0
    for v in values:
        if isinstance(v, bool) or not isinstance(v, int):
            raise TypeMismatch(f"{fn} over non-numeric value ({_tyname(v)})")
        total += v
    if fn == "sum":
        return _check_int64(total)
    # avg: integer division, empty prefix yields null
    if not values:
        return None
    return _check_int64(total // len(values))


def _check_int64(v: int) -> int:
    if not INT64_MIN <= v <= INT64_MAX:
        raise TypeMismatch("aggregate overflow")
    return v


def eval_aggregate(agg: AggExpr, ctx: EvalContext) -> Value:
    """sum/count/avg over a key prefix, current or height-ranged."""
    if agg.fn not in ("sum", "count", "avg"):
        raise TypeMismatch(f"unknown aggregate {agg.fn}")
    return _agg(agg.fn, agg.prefix, agg.frm, agg.to, ctx)


def _eval(e, req: AccessRequest, ctx: EvalContext) -> Value:
    if isinstance(e, Lit):
        return e.value
    if isinstance(e, Builtin):
        return _eval_builtin(e, req, ctx)
    if isinstance(e, ArithExpr):
        lv = _eval(e.left, req, ctx)
        rv = _eval(e.right, req, ctx)
        if e.op == "+":
            if isinstance(lv, str) and isinstance(rv, str):
                return lv + rv
            if (
                isinstance(lv, int)
                and isinstance(rv, int)
                and not isinstance(lv, bool)
                and not isinstance(rv, bool)
            ):
                return _check_range(lv + rv)
            raise _EvalTypeError(f"'+' on {_tyname(lv)} and {_tyname(rv)}")
        if (
            isinstance(lv, int)
            and isinstance(rv, int)
            and not isinstance(lv, bool)
            and not isinstance(rv, bool)
        ):
            return _check_range(lv - rv)
        raise _EvalTypeError(f"'-' on {_tyname(lv)} and {_tyname(rv)}")
    if isinstance(e, CmpExpr):
        lv = _eval(e.left, req, ctx)
        rv = _eval(e.right, req, ctx)
        return _compare(e.op, lv, rv)
    if isinstance(e, NotExpr):
        return not _want_bool(_eval(e.operand, req, ctx), "'!'")
    if isinstance(e, AndExpr):
        if not _want_bool(_eval(e.left, req, ctx), "'&&'"):
            return False
        return _want_bool(_eval(e.right, req, ctx), "'&&'")
    if isinstance(e, OrExpr):
        if _want_bool(_eval(e.left, req, ctx), "'||'"):
            return True
        return _want_bool(_eval(e.right, req, ctx), "'||'")
    raise _EvalTypeError(f"unknown node {type(e).__name__}")


def _compare(op: str, lv: Value, rv: Value) -> bool:
    same_kind = _tyname(lv) == _tyname(rv)
    if op in ("==", "!="):
        if lv is None and rv is None:
            return op == "=="
        if not same_kind:
            raise _EvalTypeError(f"'{op}' on {_tyname(lv)} and {_tyname(rv)}")
        return (lv == rv) if op == "==" else (lv != rv)
    if not same_kind or _tyname(lv) not in ("int", "str"):
        raise _EvalTypeError(f"'{op}' on {_tyname(lv)} and {_tyname(rv)}")
    if op == "<":
        return lv < rv
    if op == "<=":
        return lv <= rv
    if op == ">":
        return lv > rv
    return lv >= rv


def _eval_builtin(e: Builtin, req: AccessRequest, ctx: EvalContext) -> Value:
    name = e.name
    if name == "caller.id":
        return req.caller_id
    if name == "caller.chain":
        return req.caller_chain
    if name == "block.height":
        return req.height
    if name == "state":
        return ctx.read_state(_want_str(_eval(e.args[0], req, ctx), "state()"))
    if name == "exists":
        return ctx.exists(_want_str(_eval(e.args[0], req, ctx), "exists()"))
    # aggregates: count(p, a, b), sum(p), sum(p, a, b), avg(p)
    prefix = _want_str(_eval(e.args[0], req, ctx), f"{name}()")
    frm = to = None
    if len(e.args) == 3:
        frm = _want_int(_eval(e.args[1], req, ctx), f"{name}() from")
        to = _want_int(_eval(e.args[2], req, ctx), f"{name}() to")
    try:
        return _agg(name, prefix, frm, to, ctx)
    except TypeMismatch as exc:
        raise _EvalTypeError(str(exc))


def match_resource(pattern: tuple[str, ...], resource: str) -> bool:
    segs = tuple(resource.split(".")) if resource else ()
    if pattern and pattern[-1] == "*":
        head = pattern[:-1]
        return len(segs) > len(head) and segs[: len(head)] == head
    return segs == pattern


def evaluate(ast: Policy, req: AccessRequest, ctx: EvalContext) -> Decision:
    """Total function: Allow iff some rule matches and its condition holds."""
    first_reason = ""
    for i, rule in enumerate(ast.rules):
        if rule.action != req.action:
            continue
        if not match_resource(rule.resource, req.resource):
            continue
        if rule.condition is None:
            return Decision(True)
        try:
            value = _eval(rule.condition, req, ctx)
        except _EvalTypeError as exc:
            if not first_reason:
                first_reason = f"rule {i + 1}: type error: {exc}"
            continue
        except Exception as exc:  # deny-safe on any evaluation failure
            if not first_reason:
                first_reason = f"rule {i + 1}: evaluation error: {exc}"
            continue
        if value is True:
            return Decision(True)
        if not first_reason:
            if isinstance(value, bool):
                first_reason = f"rule {i + 1}: condition false"
            else:
                first_reason = f"rule {i + 1}: type error: condition is {_tyname(value)}"
    return Decision(False, first_reason or "no matching rule")
