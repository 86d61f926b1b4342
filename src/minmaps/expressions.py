"""Tiny arithmetic expression language for maps and conformal factors.

Grammar (whitespace-insensitive)::

    map      := expr ',' expr          (two components, top-level comma)
    expr     := term (('+'|'-') term)*
    term     := factor (('*'|'/') factor)*
    factor   := unary ('^' factor)?    (right-associative power)
    unary    := '-' unary | primary
    primary  := NUMBER | 'pi' | 'x' | 'y' | FUNC '(' expr ')' | '(' expr ')'
    FUNC     := exp | sin | cos | sqrt | log

Parse errors carry the byte offset of the offending token. Expressions are
symbolically differentiable (`diff`), so expression-backed maps get exact
chart Jacobians instead of finite-difference ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError

__all__ = [
    "ExprError", "Node", "Const", "Var", "Neg", "BinOp", "Call",
    "parse_scalar", "parse_map", "diff", "evaluate", "MapExpr",
]


class ExprError(ConfigError):
    """Syntax or name error in an expression; `offset` is the byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# ---------------------------------------------------------------- AST nodes

@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # "x" or "y"


@dataclass(frozen=True)
class Neg:
    arg: "Node"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * / ^
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Call:
    func: str  # exp sin cos sqrt log
    arg: "Node"


Node = Union[Const, Var, Neg, BinOp, Call]

_FUNCS = {"exp": np.exp, "sin": np.sin, "cos": np.cos, "sqrt": np.sqrt, "log": np.log}
_CONSTANTS = {"pi": math.pi}


# ---------------------------------------------------------------- tokenizer

def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Return (kind, value, offset) triples; kind in {num,name,op,end}."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_e = False
            while j < n:
                d = text[j]
                if d.isdigit() or d == ".":
                    j += 1
                elif d in "eE" and not seen_e and j + 1 < n and (text[j + 1].isdigit() or text[j + 1] in "+-"):
                    seen_e = True
                    j += 2 if text[j + 1] in "+-" else 1
                else:
                    break
            try:
                float(text[i:j])
            except ValueError:
                raise ExprError(f"bad number literal {text[i:j]!r}", i) from None
            toks.append(("num", text[i:j], i))
            i = j
        elif c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
        elif c in "+-*/^(),":
            toks.append(("op", c, i))
            i += 1
        else:
            raise ExprError(f"unexpected character {c!r}", i)
    toks.append(("end", "", n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect_op(self, op: str):
        kind, val, off = self.peek()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", off)
        return self.next()

    def expr(self) -> Node:
        node = self.term()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "+-":
                self.next()
                rhs = self.term()
                node = BinOp(val, node, rhs)
            else:
                return node

    def term(self) -> Node:
        node = self.unary()
        while True:
            kind, val, _ = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                rhs = self.unary()
                node = BinOp(val, node, rhs)
            else:
                return node

    def unary(self) -> Node:
        # -x^2 means -(x^2); the exponent itself may carry a sign (2^-3)
        kind, val, _ = self.peek()
        if kind == "op" and val == "-":
            self.next()
            return Neg(self.unary())
        return self.factor()

    def factor(self) -> Node:
        base = self.primary()
        kind, val, _ = self.peek()
        if kind == "op" and val == "^":
            self.next()
            return BinOp("^", base, self.unary())
        return base

    def primary(self) -> Node:
        kind, val, off = self.next()
        if kind == "num":
            return Const(float(val))
        if kind == "name":
            if val in ("x", "y"):
                return Var(val)
            if val in _CONSTANTS:
                return Const(_CONSTANTS[val])
            if val in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return Call(val, arg)
            raise ExprError(f"unknown identifier {val!r}", off)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprError(f"unexpected token {val!r}" if val else "unexpected end of input", off)


def parse_scalar(text: str) -> Node:
    """Parse a single-component expression."""
    p = _Parser(text)
    node = p.expr()
    kind, val, off = p.peek()
    if kind != "end":
        raise ExprError(f"trailing input {val!r}", off)
    return node


def parse_map(text: str) -> tuple[Node, Node]:
    """Parse two comma-separated components."""
    p = _Parser(text)
    first = p.expr()
    kind, val, off = p.peek()
    if not (kind == "op" and val == ","):
        raise ExprError("expected ',' between map components", off)
    p.next()
    second = p.expr()
    kind, val, off = p.peek()
    if kind != "end":
        raise ExprError(f"trailing input {val!r}", off)
    return first, second


# ---------------------------------------------------------------- evaluation

def evaluate(node: Node, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    if isinstance(node, Const):
        return np.broadcast_to(np.float64(node.value), np.broadcast(x, y).shape).copy()
    if isinstance(node, Var):
        return np.asarray(x if node.name == "x" else y, dtype=float) + 0.0
    if isinstance(node, Neg):
        return -evaluate(node.arg, x, y)
    if isinstance(node, Call):
        return _FUNCS[node.func](evaluate(node.arg, x, y))
    a = evaluate(node.left, x, y)
    b = evaluate(node.right, x, y)
    if node.op == "+":
        return a + b
    if node.op == "-":
        return a - b
    if node.op == "*":
        return a * b
    if node.op == "/":
        return a / b
    return np.power(a, b)


# ------------------------------------------------------------ symbolic diff

def _is_zero(n: Node) -> bool:
    return isinstance(n, Const) and n.value == 0.0


def _mul(a: Node, b: Node) -> Node:
    if _is_zero(a) or _is_zero(b):
        return Const(0.0)
    if isinstance(a, Const) and a.value == 1.0:
        return b
    if isinstance(b, Const) and b.value == 1.0:
        return a
    return BinOp("*", a, b)


def _add(a: Node, b: Node) -> Node:
    if _is_zero(a):
        return b
    if _is_zero(b):
        return a
    return BinOp("+", a, b)


def diff(node: Node, var: str) -> Node:
    """Symbolic derivative with light constant folding."""
    if isinstance(node, Const):
        return Const(0.0)
    if isinstance(node, Var):
        return Const(1.0 if node.name == var else 0.0)
    if isinstance(node, Neg):
        d = diff(node.arg, var)
        return Const(0.0) if _is_zero(d) else Neg(d)
    if isinstance(node, Call):
        inner = diff(node.arg, var)
        if _is_zero(inner):
            return Const(0.0)
        if node.func == "exp":
            outer: Node = Call("exp", node.arg)
        elif node.func == "sin":
            outer = Call("cos", node.arg)
        elif node.func == "cos":
            outer = Neg(Call("sin", node.arg))
        elif node.func == "sqrt":
            return BinOp("/", inner, _mul(Const(2.0), Call("sqrt", node.arg)))
        else:  # log
            return BinOp("/", inner, node.arg)
        return _mul(outer, inner)
    # BinOp
    a, b = node.left, node.right
    da, db = diff(a, var), diff(b, var)
    if node.op == "+":
        return _add(da, db)
    if node.op == "-":
        if _is_zero(db):
            return da
        if _is_zero(da):
            return Neg(db)
        return BinOp("-", da, db)
    if node.op == "*":
        return _add(_mul(da, b), _mul(a, db))
    if node.op == "/":
        # (da*b - a*db) / b^2
        num = BinOp("-", _mul(da, b), _mul(a, db))
        return BinOp("/", num, _mul(b, b))
    # power
    if isinstance(b, Const):
        c = b.value
        if c == 0.0:
            return Const(0.0)
        base = a if c == 2.0 else BinOp("^", a, Const(c - 1.0))
        return _mul(Const(c), _mul(base, da))
    # general a^b = exp(b log a)
    rewritten = Call("exp", _mul(b, Call("log", a)))
    return diff(rewritten, var)


# ----------------------------------------------------------------- wrappers

@dataclass(frozen=True)
class MapExpr:
    """A two-component analytic map with exact chart Jacobian."""

    f1: Node
    f2: Node
    source: str = ""

    @classmethod
    def parse(cls, text: str) -> "MapExpr":
        f1, f2 = parse_map(text)
        return cls(f1, f2, source=text)

    def __call__(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.stack([evaluate(self.f1, x, y), evaluate(self.f2, x, y)], axis=-1)

    def jacobian(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """df with shape (..., 2, 2); df[..., a, i] = d f^a / d x^i."""
        # component-major storage: each [..., a, i] is a contiguous plane
        df = np.array([[evaluate(diff(comp, v), x, y) for v in ("x", "y")]
                       for comp in (self.f1, self.f2)])
        return np.moveaxis(df, (0, 1), (-2, -1))
