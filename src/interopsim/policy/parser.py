"""Recursive-descent parser for the access-policy language.

Grammar (ASCII source, "#" line comments):

    policy   := rule+
    rule     := "allow" action "on" resource ("when" expr)? ";"
    action   := "read" | "write" | "invoke"
    resource := seg ("." seg)*        seg := IDENT | "*" (last only)
    expr     := and ("||" and)*
    and      := not ("&&" not)*
    not      := "!" not | cmp
    cmp      := "(" expr ")" | term (relop term)?
    term     := atom (("+" | "-") atom)*
    atom     := INT | STRING | "true" | "false" | "null" | builtin

Builtins: caller.id, caller.chain, block.height, state(k), exists(k),
count(p, from, to), sum(p), sum(p, from, to), avg(p).
"""

from __future__ import annotations

import re
from functools import lru_cache

from ..errors import ParseError
from ..values import record
from .ast import (
    ACTIONS,
    AndExpr,
    ArithExpr,
    Builtin,
    CALL_BUILTINS,
    CmpExpr,
    Lit,
    NULLARY_BUILTINS,
    NotExpr,
    OrExpr,
    Policy,
    Rule,
)

# distinct policy texts kept parsed per process; the AST is immutable, so
# every chain and world attaching the same text shares one Policy
PARSE_CACHE_SIZE = 256

RESERVED = {"allow", "on", "when", "read", "write", "invoke", "true", "false", "null"}

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<string>"(?:[^"\\\n]|\\.)*")
  | (?P<op>\|\||&&|==|!=|<=|>=|[!<>().,;*+\-])
    """,
    re.VERBOSE,
)

_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t"}


@record
class Token:
    kind: str  # ident | int | string | op | eof
    text: str
    line: int
    col: int


def _unescape(raw: str, line: int, col: int) -> str:
    body = raw[1:-1]
    out = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            nxt = body[i + 1] if i + 1 < len(body) else ""
            if nxt not in _ESCAPES:
                raise ParseError(line, col, "valid escape", f"\\{nxt}")
            out.append(_ESCAPES[nxt])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def tokenize(src: str) -> list[Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError(line, col, "token", src[pos])
        kind = m.lastgroup
        text = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(text)
        else:
            tokens.append(Token(kind, text, line, col))
            col += len(text)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.i = 0

    @property
    def cur(self) -> Token:
        return self.tokens[self.i]

    def _fail(self, expected: str):
        t = self.cur
        raise ParseError(t.line, t.col, expected, t.text or "end of input")

    def advance(self) -> Token:
        t = self.cur
        self.i += 1
        return t

    def expect_op(self, op: str) -> Token:
        if self.cur.kind == "op" and self.cur.text == op:
            return self.advance()
        self._fail(f"'{op}'")

    def expect_keyword(self, word: str) -> Token:
        if self.cur.kind == "ident" and self.cur.text == word:
            return self.advance()
        self._fail(f"'{word}'")

    def at_op(self, *ops: str) -> bool:
        return self.cur.kind == "op" and self.cur.text in ops

    # policy := rule+
    def policy(self) -> Policy:
        rules = [self.rule()]
        while self.cur.kind != "eof":
            rules.append(self.rule())
        return Policy(rules=tuple(rules))

    def rule(self) -> Rule:
        self.expect_keyword("allow")
        if self.cur.kind == "ident" and self.cur.text in ACTIONS:
            action = self.advance().text
        else:
            self._fail("action (read | write | invoke)")
        self.expect_keyword("on")
        resource = self.resource()
        condition = None
        if self.cur.kind == "ident" and self.cur.text == "when":
            self.advance()
            condition = self.expr()
        self.expect_op(";")
        return Rule(action=action, resource=resource, condition=condition)

    def resource(self) -> tuple[str, ...]:
        segs = [self.segment()]
        while self.at_op("."):
            self.advance()
            segs.append(self.segment())
        for s in segs[:-1]:
            if s == "*":
                t = self.cur
                raise ParseError(t.line, t.col, "'*' only as last segment", s)
        return tuple(segs)

    def segment(self) -> str:
        if self.cur.kind == "ident" and self.cur.text not in RESERVED:
            return self.advance().text
        if self.at_op("*"):
            self.advance()
            return "*"
        self._fail("resource segment")

    # expr := and ("||" and)*
    def expr(self):
        node = self.and_expr()
        while self.at_op("||"):
            self.advance()
            node = OrExpr(node, self.and_expr())
        return node

    def and_expr(self):
        node = self.not_expr()
        while self.at_op("&&"):
            self.advance()
            node = AndExpr(node, self.not_expr())
        return node

    def not_expr(self):
        if self.at_op("!"):
            self.advance()
            return NotExpr(self.not_expr())
        return self.cmp()

    def cmp(self):
        if self.at_op("("):
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        left = self.term()
        if self.at_op("==", "!=", "<", "<=", ">", ">="):
            op = self.advance().text
            right = self.term()
            return CmpExpr(op, left, right)
        return left

    def term(self):
        node = self.atom()
        while self.at_op("+", "-"):
            op = self.advance().text
            node = ArithExpr(op, node, self.atom())
        return node

    def atom(self):
        t = self.cur
        if t.kind == "int":
            self.advance()
            return Lit(int(t.text))
        if t.kind == "string":
            self.advance()
            return Lit(_unescape(t.text, t.line, t.col))
        if t.kind == "ident":
            if t.text == "true":
                self.advance()
                return Lit(True)
            if t.text == "false":
                self.advance()
                return Lit(False)
            if t.text == "null":
                self.advance()
                return Lit(None)
            return self.builtin()
        self._fail("term")

    def builtin(self):
        t = self.advance()
        name = t.text
        if name in ("caller", "block"):
            self.expect_op(".")
            attr = self.cur
            if attr.kind != "ident":
                self._fail("attribute name")
            self.advance()
            full = f"{name}.{attr.text}"
            if full not in NULLARY_BUILTINS:
                raise ParseError(attr.line, attr.col, "builtin attribute", full)
            return Builtin(full)
        if name in CALL_BUILTINS:
            arities = CALL_BUILTINS[name]
            self.expect_op("(")
            args = [self.term()]
            while self.at_op(","):
                self.advance()
                args.append(self.term())
            self.expect_op(")")
            if len(args) not in arities:
                raise ParseError(
                    t.line, t.col, f"{name} with {' or '.join(map(str, arities))} argument(s)",
                    f"{len(args)} given",
                )
            return Builtin(name, tuple(args))
        raise ParseError(t.line, t.col, "term", name)


def parse_policy(src) -> Policy:
    """Parse policy text (str or an object with a .text attribute)."""
    return _parse_text(src.text if hasattr(src, "text") else src)


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _parse_text(text: str) -> Policy:
    return _Parser(tokenize(text)).policy()  # a ParseError is never cached
