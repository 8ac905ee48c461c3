"""Smooth-map expression trees and their parser.

A smooth map is a tuple of expression trees over input variables
``t0..t{n-1}`` (with ``t``/``x`` as aliases for ``t0`` and ``y`` for
``t1``), built from rational constants, `+ - * /`, integer powers via
``^``, and the primitives sin, cos, exp, log, sqrt.  Multi-output maps
are written as comma-separated expressions, optionally parenthesized:
``(t, t^2 + t^3)``.

This module owns the tree shape, parsing, scalar evaluation (exact on
rationals for the arithmetic fragment, float otherwise), symbolic
polynomial extraction, and composition/pairing plumbing.  Lifting
through a Weil algebra lives in the lifting module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, ParseError, ScalarModeError
from .polynomials import MAX_EXPONENT, Polynomial, constant, times_power, variable

PRIMITIVES = ("sin", "cos", "exp", "log", "sqrt")

VAR_ALIASES: Dict[str, int] = {"t": 0, "x": 0, "y": 1}


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Const(Expr):
    value: Fraction


@dataclass(frozen=True)
class Var(Expr):
    index: int


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Neg(Expr):
    arg: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: int


@dataclass(frozen=True)
class Call(Expr):
    fn: str
    arg: Expr


# ---------------------------------------------------------------------------
# the one walker


# node type -> its children, left to right; None for a leaf
_CHILDREN: Dict[type, Optional[Callable[[Expr], Tuple[Expr, ...]]]] = {
    Const: None,
    Var: None,
    **{op: lambda e: (e.left, e.right) for op in (Add, Sub, Mul, Div)},
    Neg: lambda e: (e.arg,),
    Pow: lambda e: (e.base,),
    Call: lambda e: (e.arg,),
}
# the arithmetic fragment: a primitive call is opaque, its argument unvisited
_ARITHMETIC_CHILDREN = {**_CHILDREN, Call: None}


def fold_expr(root: Expr, rules: Dict[type, Callable], children=_CHILDREN):
    """Fold an expression DAG bottom-up; ``rules[type(node)](node,
    *child_values)`` gives each node's value.  Nodes run in the post-order
    of a recursive walk, except that a node met again in the same call
    keeps its value, memoized on node identity (the dataclasses' hash and
    equality recurse over the whole tree).  The stack is explicit."""
    values: Dict[int, object] = {}
    stack: list = [root]  # a bare node is still to visit; (node, children) is ready
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            node, kids = item
            rule = rules[type(node)]
            if len(kids) == 2:
                values[id(node)] = rule(node, values[id(kids[0])], values[id(kids[1])])
            else:
                values[id(node)] = rule(node, values[id(kids[0])])
        elif id(item) not in values:
            try:
                kids_of = children[type(item)]
            except KeyError:
                raise TypeError(f"unknown expression node {item!r}") from None
            if kids_of is None:
                values[id(item)] = rules[type(item)](item)
            else:
                kids = kids_of(item)
                stack.append((item, kids))
                stack.extend(reversed(kids))
    return values[id(root)]


@dataclass(frozen=True)
class SmoothMap:
    """arity inputs, one expression tree per output."""

    arity: int
    outputs: Tuple[Expr, ...]

    @property
    def coarity(self) -> int:
        return len(self.outputs)

    def select(self, indices: Sequence[int]) -> "SmoothMap":
        """Post-compose with a coordinate projection."""
        return SmoothMap(self.arity, tuple(self.outputs[i] for i in indices))


def pair_maps(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    if f.arity != g.arity:
        raise ValueError("paired maps must share arity")
    return SmoothMap(f.arity, f.outputs + g.outputs)


def compose_maps(outer: SmoothMap, inner: SmoothMap) -> SmoothMap:
    """outer o inner; inner's coarity must equal outer's arity."""
    if inner.coarity != outer.arity:
        raise ValueError(
            f"cannot compose: inner has {inner.coarity} outputs, outer takes {outer.arity}"
        )
    rules = {**_REBUILD, Var: lambda e: inner.outputs[e.index]}
    return SmoothMap(inner.arity, tuple(fold_expr(o, rules) for o in outer.outputs))


_REBUILD: Dict[type, Callable] = {
    Const: lambda e: e,
    **{op: lambda e, *kids: type(e)(*kids) for op in (Add, Sub, Mul, Div, Neg)},
    Pow: lambda e, b: Pow(b, e.exponent),
    Call: lambda e, a: Call(e.fn, a),
}

_MAX_VAR: Dict[type, Callable] = {
    **{op: lambda e, *kids: max(kids) for op in _CHILDREN},
    Const: lambda e: -1,
    Var: lambda e: e.index,
}


def max_var_index(e: Expr) -> int:
    return fold_expr(e, _MAX_VAR)


# ---------------------------------------------------------------------------
# parsing


# Deepest nesting of parentheses, primitive calls and unary minus the
# parser accepts.  Each parenthesis level costs it five Python frames, so
# this stays well inside the interpreter's default recursion limit of 1000.
MAX_NESTING = 100
# MAX_EXPONENT, the largest |exponent| the parser accepts after '^', is
# the cap that presentations' relations share (see polynomials).
# Most nodes one parse may build, over all outputs: twice the 10^5 or so
# of a 50,000-term sum.  Every walk costs one step per distinct node.
MAX_NODES = 200_000


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.nodes = 0

    def node(self, cls: type, *fields) -> Expr:
        """Build one expression node, counting it against MAX_NODES."""
        self.nodes += 1
        if self.nodes > MAX_NODES:
            self.error(f"expression has more than {MAX_NODES} nodes")
        return cls(*fields)

    def nested(self, parse: Callable[[], Expr]) -> Expr:
        """Run one nested production, counting its depth."""
        if self.depth == MAX_NESTING:
            self.error(f"expression nested deeper than {MAX_NESTING} levels")
        self.depth += 1
        node = parse()
        self.depth -= 1
        return node

    def error(self, message: str):
        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, ch: str) -> bool:
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def expect(self, ch: str):
        if not self.take(ch):
            self.error(f"expected {ch!r}")

    def read_int(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected integer")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            self.pos = start
            self.error("integer literal too long")

    def read_name(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        if self.pos == start:
            self.error("expected name")
        return self.text[start : self.pos]

    # expr := term (('+'|'-') term)*
    def expr(self) -> Expr:
        node = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                node = self.node(Add, node, self.term())
            elif c == "-":
                self.pos += 1
                node = self.node(Sub, node, self.term())
            else:
                return node

    # term := factor (('*'|'/') factor)*
    def term(self) -> Expr:
        node = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                node = self.node(Mul, node, self.factor())
            elif c == "/":
                self.pos += 1
                node = self.node(Div, node, self.factor())
            else:
                return node

    # factor := '-' factor | power
    def factor(self) -> Expr:
        if self.peek() == "-":
            self.pos += 1
            return self.node(Neg, self.nested(self.factor))
        return self.power()

    # power := atom ('^' '-'? INT)*
    def power(self) -> Expr:
        node = self.atom()
        while self.peek() == "^":
            self.pos += 1
            sign = -1 if self.take("-") else 1
            exponent = self.read_int()
            if exponent > MAX_EXPONENT:
                self.error(f"exponent {exponent} exceeds {MAX_EXPONENT}")
            node = self.node(Pow, node, sign * exponent)
        return node

    def atom(self) -> Expr:
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.nested(self.expr)
            if self.peek() == ",":
                self.error("tuple syntax is only allowed at the top level")
            self.expect(")")
            return node
        if c.isdigit():
            return self.node(Const, Fraction(self.read_int()))
        if c.isalpha() or c == "_":
            name = self.read_name()
            if name in PRIMITIVES:
                self.expect("(")
                arg = self.nested(self.expr)
                self.expect(")")
                return self.node(Call, name, arg)
            if name.startswith("t") and name[1:].isdigit():
                return self.node(Var, int(name[1:]))
            if name in VAR_ALIASES:
                return self.node(Var, VAR_ALIASES[name])
            self.error(f"unknown name {name!r}")
        self.error("expected expression")

    def expr_list(self) -> List[Expr]:
        # optional outer parens around a comma list: "(e1, e2, ...)"
        self.skip_ws()
        snapshot = self.pos
        if self.take("("):
            exprs = [self.expr()]
            if self.peek() == ",":
                while self.take(","):
                    exprs.append(self.expr())
                self.expect(")")
                self.skip_ws()
                if self.pos != len(self.text):
                    self.error("trailing input after tuple")
                return exprs
            # plain parenthesized expression; rewind and parse normally
            self.pos = snapshot
        exprs = [self.expr()]
        while self.take(","):
            exprs.append(self.expr())
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return exprs


def parse_smooth_map(text: str, arity: int | None = None) -> SmoothMap:
    if not text.strip():
        raise ParseError("empty expression", 0)
    outputs = tuple(_Parser(text).expr_list())
    used = max((max_var_index(o) for o in outputs), default=-1)
    if arity is None:
        arity = used + 1
    elif used >= arity:
        raise ParseError(f"expression uses t{used} but arity is {arity}")
    return SmoothMap(arity, outputs)


# ---------------------------------------------------------------------------
# scalar evaluation

_FLOAT_FNS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}


def _div(e: Div, num, den):
    if den == 0:
        raise DomainError("division by zero")
    return num / den


def _pow(e: Pow, base):
    if e.exponent < 0 and base == 0:
        raise DomainError("zero base with negative exponent")
    return base ** e.exponent


# scalar arithmetic, shared by the float and the exact evaluator
_SCALAR: Dict[type, Callable] = {
    Add: lambda e, l, r: l + r,
    Sub: lambda e, l, r: l - r,
    Mul: lambda e, l, r: l * r,
    Div: _div,
    Neg: lambda e, a: -a,
    Pow: _pow,
}


def _float_call(e: Call, v: float) -> float:
    if e.fn == "log" and v <= 0.0:
        raise DomainError("log of a non-positive value")
    if e.fn == "sqrt" and v < 0.0:
        raise DomainError("sqrt of a negative value")
    return _FLOAT_FNS[e.fn](v)


def _exact_call(e: Call) -> Fraction:
    raise ScalarModeError(f"{e.fn} has no exact rational evaluation here")


def eval_expr_float(e: Expr, args: Sequence[float]) -> float:
    rules = {Const: lambda e: float(e.value), Var: lambda e: float(args[e.index])}
    return fold_expr(e, {**_SCALAR, **rules, Call: _float_call})


def eval_expr_exact(e: Expr, args: Sequence[Fraction]) -> Fraction:
    """Exact evaluation of the arithmetic fragment; primitives raise."""
    rules = {Const: lambda e: e.value, Var: lambda e: Fraction(args[e.index])}
    return fold_expr(e, {**_SCALAR, **rules, Call: _exact_call}, _ARITHMETIC_CHILDREN)


def eval_map_float(f: SmoothMap, args: Sequence[float]) -> Tuple[float, ...]:
    if len(args) != f.arity:
        raise ValueError("wrong number of arguments")
    return tuple(eval_expr_float(o, args) for o in f.outputs)


# ---------------------------------------------------------------------------
# polynomial extraction


def _poly_op(op: Callable) -> Callable:
    return lambda e, l, r: op(l, r) if l is not None and r is not None else None


def _poly_div(e: Div, l: Optional[Polynomial], r: Optional[Polynomial]):
    if l is None or r is None or r.degree() > 0:
        return None
    c = r.constant_term()
    if c == 0:
        raise DomainError("division by zero")
    return l.scale(Fraction(1) / c)


def _poly_pow(e: Pow, base: Optional[Polynomial]):
    if base is None:
        return None
    if e.exponent >= 0:
        return times_power(constant(base.nvars, 1), base, e.exponent)
    if base.degree() > 0:
        return None
    c = base.constant_term()
    if c == 0:
        raise DomainError("zero base with negative exponent")
    return constant(base.nvars, Fraction(1) / c ** (-e.exponent))


_POLYNOMIAL: Dict[type, Callable] = {
    Add: _poly_op(Polynomial.add),
    Sub: _poly_op(Polynomial.sub),
    Mul: _poly_op(Polynomial.mul),
    Div: _poly_div,
    Neg: lambda e, a: a.neg() if a is not None else None,
    Pow: _poly_pow,
    Call: lambda e: None,
}


def expr_polynomial(e: Expr, nvars: int) -> Optional[Polynomial]:
    """The expression as an exact Polynomial, or None when it's not
    polynomial (primitives, non-constant denominators, negative powers
    of non-constants)."""

    def var(e: Var) -> Polynomial:
        if e.index >= nvars:
            raise ValueError("variable index out of range")
        return variable(nvars, e.index)

    rules = {**_POLYNOMIAL, Const: lambda e: constant(nvars, e.value), Var: var}
    return fold_expr(e, rules, _ARITHMETIC_CHILDREN)


def map_polynomials(f: SmoothMap) -> Optional[List[Polynomial]]:
    out: List[Polynomial] = []
    for o in f.outputs:
        p = expr_polynomial(o, f.arity)
        if p is None:
            return None
        out.append(p)
    return out


def is_polynomial_map(f: SmoothMap) -> bool:
    return map_polynomials(f) is not None


def polynomial_to_expr(p: Polynomial) -> Expr:
    """Inverse embedding, used to turn sampled polynomials into maps."""
    node: Expr | None = None
    for mono, coeff in p.sorted_terms():
        piece: Expr = Const(coeff)
        for i, e in enumerate(mono):
            if e == 0:
                continue
            v: Expr = Var(i) if e == 1 else Pow(Var(i), e)
            piece = v if (isinstance(piece, Const) and piece.value == 1) else Mul(piece, v)
        node = piece if node is None else Add(node, piece)
    return node if node is not None else Const(Fraction(0))


# A formatted node is (pieces, loosest): its text as nested tuples of
# strings, joined once at the end so that a deep tree formats in linear
# time, and the loosest precedence of an operand slot it fills unbracketed.
_ATOMIC = 4


def _slot(formatted, prec: int):
    pieces, loosest = formatted
    return ("(", pieces, ")") if prec > loosest else pieces


_FORMAT: Dict[type, Callable] = {
    Const: lambda e: (
        str(e.value), 0 if e.value < 0 else 1 if e.value.denominator != 1 else _ATOMIC
    ),
    Var: lambda e: (f"t{e.index}", _ATOMIC),
    Add: lambda e, l, r: ((_slot(l, 1), " + ", _slot(r, 1)), 1),
    Sub: lambda e, l, r: ((_slot(l, 1), " - ", _slot(r, 2)), 1),
    Mul: lambda e, l, r: ((_slot(l, 2), "*", _slot(r, 2)), 2),
    Div: lambda e, l, r: ((_slot(l, 2), "/", _slot(r, 3)), 2),
    Neg: lambda e, a: (("-", _slot(a, 3)), 1),
    Pow: lambda e, b: ((_slot(b, 4), f"^{e.exponent}"), _ATOMIC),
    Call: lambda e, a: ((e.fn, "(", a[0], ")"), _ATOMIC),
}


def format_expr(e: Expr) -> str:
    out, stack = [], [fold_expr(e, _FORMAT)[0]]
    while stack:
        pieces = stack.pop()
        if isinstance(pieces, str):
            out.append(pieces)
        else:
            stack.extend(reversed(pieces))
    return "".join(out)


def format_map(f: SmoothMap) -> str:
    if f.coarity == 1:
        return format_expr(f.outputs[0])
    return "(" + ", ".join(format_expr(o) for o in f.outputs) + ")"
