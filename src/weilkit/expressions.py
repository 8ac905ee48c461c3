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
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .errors import DomainError, ParseError, ScalarModeError
from .polynomials import _TOKEN, MAX_EXPONENT, Polynomial, constant, times_power, variable

_FLOAT_FNS = {
    "sin": math.sin,
    "cos": math.cos,
    "exp": math.exp,
    "log": math.log,
    "sqrt": math.sqrt,
}

PRIMITIVES = tuple(_FLOAT_FNS)

VAR_ALIASES: Dict[str, int] = {"t": 0, "x": 0, "y": 1}


class Expr:
    """An expression node.  ``==``, ``hash`` and ``repr`` are folds of
    the tree, whose stack is explicit, so a deep tree compares, hashes
    and prints as a shallow one does; the repr is the dataclass repr's
    text."""

    __slots__ = ()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        ids: Dict[tuple, int] = {}  # node key -> its id, over both trees

        def intern(e: Expr, *kids: int) -> int:
            return ids.setdefault(_KEY[type(e)](e, *kids), len(ids))

        rules = dict.fromkeys(_CHILDREN, intern)
        return fold_expr(self, rules) == fold_expr(other, rules)

    def __hash__(self) -> int:
        return fold_expr(self, _HASH)

    def __repr__(self) -> str:
        return _join(fold_expr(self, _REPR))


# the node types keep Expr's ==, hash and repr
_node = dataclass(frozen=True, eq=False, repr=False)


@_node
class Const(Expr):
    value: Fraction


@_node
class Var(Expr):
    index: int


@_node
class Add(Expr):
    left: Expr
    right: Expr


@_node
class Sub(Expr):
    left: Expr
    right: Expr


@_node
class Mul(Expr):
    left: Expr
    right: Expr


@_node
class Div(Expr):
    left: Expr
    right: Expr


@_node
class Neg(Expr):
    arg: Expr


@_node
class Pow(Expr):
    base: Expr
    exponent: int


@_node
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
# node type -> its field names in declaration order; the children are
# the fields that hold nodes, in the same order
_FIELDS = {cls: tuple(f.name for f in fields(cls)) for cls in _CHILDREN}


def fold_expr(root: Expr, rules: Dict[type, Callable], children=_CHILDREN):
    """Fold an expression DAG bottom-up; ``rules[type(node)](node,
    *child_values)`` gives each node's value.  Nodes run in the post-order
    of a recursive walk, except that a node met again in the same call
    keeps its value, memoized on node identity (a node's hash and
    equality walk its whole tree).

    Over the default children the walk is a program kept on the root:
    (node, *child slots) per distinct node, in that order, and the root's
    own child slots apart, so that no cycle runs through the root.  The
    parser writes it; any other root records it during its first fold
    here, in the same walk that evaluates it, and later folds run it as
    one flat loop.  The stack is explicit."""
    values: list = []
    push = values.append
    program = getattr(root, "_program", None) if children is _CHILDREN else None
    if program is not None:
        program, kids = program
        for entry in program:
            node = entry[0]
            arity = len(entry)
            if arity == 3:
                push(rules[type(node)](node, values[entry[1]], values[entry[2]]))
            elif arity == 2:
                push(rules[type(node)](node, values[entry[1]]))
            else:
                push(rules[type(node)](node))
        return rules[type(root)](root, *[values[k] for k in kids])
    program = []
    slots: Dict[int, int] = {}  # id(node) -> its value's index
    stack: list = [root]  # a bare node is still to visit; (node, children) is ready
    while stack:
        item = stack.pop()
        if type(item) is tuple:
            node, kids = item
            rule = rules[type(node)]
            entry = (node, *[slots[id(k)] for k in kids])
            if len(kids) == 2:
                value = rule(node, values[entry[1]], values[entry[2]])
            else:
                value = rule(node, values[entry[1]])
        elif id(item) not in slots:
            try:
                kids_of = children[type(item)]
            except KeyError:
                raise TypeError(f"unknown expression node {item!r}") from None
            if kids_of is not None:
                kids = kids_of(item)
                stack.append((item, kids))
                stack.extend(reversed(kids))
                continue
            node, entry, value = item, (item,), rules[type(item)](item)
        else:
            continue
        slots[id(node)] = len(values)
        push(value)
        program.append(entry)
    if children is _CHILDREN:
        last = program.pop()
        object.__setattr__(root, "_program", (program, last[1:]))
    return values[-1]


@dataclass(frozen=True)
class SmoothMap:
    """arity inputs, one expression tree per output."""

    arity: int
    outputs: Tuple[Expr, ...]
    # whether an output calls a primitive, and the tuple of the outputs as
    # polynomials: None until first asked or known where the map is made;
    # not constructor fields, so that dataclasses.replace starts them afresh
    calls: Optional[bool] = field(default=None, init=False, compare=False, repr=False)
    polynomials: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    @property
    def coarity(self) -> int:
        return len(self.outputs)

    @property
    def has_call(self) -> bool:
        if self.calls is None:
            found = any(fold_expr(o, _HAS_CALL, _ARITHMETIC_CHILDREN) for o in self.outputs)
            object.__setattr__(self, "calls", found)
        return self.calls

    def select(self, indices: Sequence[int]) -> "SmoothMap":
        """Post-compose with a coordinate projection."""
        f = SmoothMap(self.arity, tuple(self.outputs[i] for i in indices))
        if self.polynomials is not None:
            object.__setattr__(f, "polynomials", tuple(self.polynomials[i] for i in indices))
        return f


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
    outputs = tuple(fold_expr(o, rules) for o in outer.outputs)
    return _with_calls(SmoothMap(inner.arity, outputs), outer.has_call or inner.has_call)


def _with_calls(f: SmoothMap, calls: bool) -> SmoothMap:
    """f, with whether it calls a primitive already known."""
    object.__setattr__(f, "calls", calls)
    return f


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


# over the arithmetic children, where a primitive call is a leaf
_HAS_CALL = {**{op: lambda e, *kids: any(kids) for op in _CHILDREN}, Call: lambda e: True}


def max_var_index(e: Expr) -> int:
    return fold_expr(e, _MAX_VAR)


# ---------------------------------------------------------------------------
# parsing


# Deepest nesting of parentheses, primitive calls and unary minus the
# parser accepts.
MAX_NESTING = 100
# MAX_EXPONENT, the largest |exponent| the parser accepts after '^', is
# the cap that presentations' relations share (see polynomials).
# Most nodes one parse may build, over all outputs: twice the 10^5 or so
# of a 50,000-term sum.  Every walk costs one step per distinct node.
MAX_NODES = 200_000

# infix operator -> (binding power, node type), all left-associative;
# unary minus binds tighter, '^' tightest, and an open bracket holds 0
_INFIX = {"+": (1, Add), "-": (1, Sub), "*": (2, Mul), "/": (2, Div)}
_NEG = (3, Neg)
_PAREN = (0, "(")


def _fail(message: str, text: str, i: int, after: bool = False):
    """Raise at the start of token i, or at its end; past the last token
    is the end of the text."""
    for k, match in enumerate(_TOKEN.finditer(text)):
        if k == i:
            raise ParseError(message, match.end() if after else match.start(1))
    raise ParseError(message, len(text))


def _too_many() -> str:
    return f"expression has more than {MAX_NODES} nodes"


def _too_deep() -> str:
    return f"expression nested deeper than {MAX_NESTING} levels"


def _parse(text: str):
    """(outputs, highest variable index, whether a primitive is called),
    in one operator-precedence pass over the tokens.  Each output root
    keeps its program: (node, *child slots) in creation order, a postorder
    that fold_expr runs flat.  A leading '(' opens a tuple if a ',' meets
    it; until then it counts one level of nesting, and a nesting that
    would overflow only with that level counted raises when the bracket
    turns out to be no tuple."""
    tokens = _TOKEN.findall(text)
    end = len(tokens)
    outputs: List[Expr] = []
    prog: list = []  # the current output's program
    out: List[int] = []  # program slots of the operands read
    ops: list = []  # pending operators and open brackets: (binding power, kind)
    room = MAX_NODES  # nodes the current output may still build
    depth, limit = 0, MAX_NESTING
    top_var, calls = -1, False
    outer = 0  # 1 while a leading '(' may open a tuple, 2 inside that tuple
    deep_at = None  # the token at which that '(', read as a bracket, nests too deep
    i = 0
    while True:
        # an operand: prefix minus signs and open brackets, then a leaf
        while True:
            if i == end:
                _fail("expected expression", text, i)
            token = tokens[i]
            if token in PRIMITIVES:
                i += 1
                if i == end or tokens[i] != "(":
                    _fail("expected '('", text, i)
                opened, calls = (0, token), True
            elif token == "(":
                opened = _PAREN
            elif token == "-":
                opened = _NEG
            else:
                break
            if depth == limit:
                _fail(_too_deep(), text, i, True)
            if depth == MAX_NESTING and deep_at is None:
                deep_at = i
            if i == 0 and token == "(":
                outer, limit = 1, limit + 1
            depth += 1
            ops.append(opened)
            i += 1
        first = token[0]
        if first.isdecimal():
            try:
                node = Const(Fraction(int(token)))
            except ValueError:  # more digits than int() converts
                _fail("integer literal too long", text, i)
        elif first.isalpha() or first == "_":
            if first == "t" and token[1:].isdecimal():
                try:
                    index = int(token[1:])
                except ValueError:  # more digits than int() converts
                    _fail("variable index too long", text, i)
            elif token in VAR_ALIASES:
                index = VAR_ALIASES[token]
            else:
                _fail(f"unknown name {token!r}", text, i, True)
            if index > top_var:
                top_var = index
            node = Var(index)
        else:
            _fail("expected expression", text, i)
        out.append(len(prog))
        prog.append((node,))
        if len(prog) > room:
            _fail(_too_many(), text, i, True)
        i += 1
        # after an operand: powers, infix operators and closing brackets
        while True:
            while i < end and tokens[i] == "^":
                i += 1
                sign = 1
                if i < end and tokens[i] == "-":
                    sign, i = -1, i + 1
                if i == end or not tokens[i][0].isdecimal():
                    _fail("expected integer", text, i)
                try:
                    exponent = int(tokens[i])
                except ValueError:  # more digits than int() converts
                    _fail("integer literal too long", text, i)
                if exponent > MAX_EXPONENT:
                    _fail(f"exponent {exponent} exceeds {MAX_EXPONENT}", text, i, True)
                base = out[-1]
                out[-1] = len(prog)
                prog.append((Pow(prog[base][0], sign * exponent), base))
                if len(prog) > room:
                    _fail(_too_many(), text, i, True)
                i += 1
            token = tokens[i] if i < end else None
            infix = _INFIX.get(token)
            power = infix[0] if infix else 1
            while ops and ops[-1][0] >= power:
                kind = ops.pop()[1]
                arg = out[-1]
                out[-1] = len(prog)
                if kind is Neg:
                    depth -= 1
                    prog.append((Neg(prog[arg][0]), arg))
                else:
                    left = out.pop(-2)
                    prog.append((kind(prog[left][0], prog[arg][0]), left, arg))
                if len(prog) > room:
                    _fail(_too_many(), text, i)
            if infix:
                ops.append(infix)
                i += 1
                break
            if outer == 1 and len(ops) == 1:  # the expression in a leading '(' is read
                if token == ",":
                    outer, depth, limit = 2, 0, MAX_NESTING
                elif deep_at is not None:
                    _fail(_too_deep(), text, deep_at, True)
                else:
                    outer, limit = 0, MAX_NESTING
            if ops and not (outer == 2 and len(ops) == 1):
                kind = ops[-1][1]
                if token == ")":
                    ops.pop()
                    depth -= 1
                    if kind != "(":
                        arg = out[-1]
                        out[-1] = len(prog)
                        prog.append((Call(kind, prog[arg][0]), arg))
                        if len(prog) > room:
                            _fail(_too_many(), text, i, True)
                    i += 1
                    continue
                if token == "," and kind == "(":
                    _fail("tuple syntax is only allowed at the top level", text, i)
                _fail("expected ')'", text, i)
            # an output is read
            out.pop()
            room -= len(prog)  # its root included
            root, *kids = prog.pop()
            object.__setattr__(root, "_program", (prog, kids))
            outputs.append(root)
            prog = []
            if token == ",":
                i += 1
                break
            if not ops:
                if token is not None:
                    _fail("trailing input", text, i)
                return outputs, top_var, calls
            if token != ")":
                _fail("expected ')'", text, i)
            if i + 1 < end:
                _fail("trailing input after tuple", text, i + 1)
            return outputs, top_var, calls


def parse_smooth_map(text: str, arity: int | None = None) -> SmoothMap:
    if arity is not None and arity < 0:
        raise ValueError("arity must be nonnegative")
    if not text.strip():
        raise ParseError("empty expression", 0)
    outputs, used, calls = _parse(text)
    if arity is None:
        arity = used + 1
    elif used >= arity:
        raise ParseError(f"expression uses t{used} but arity is {arity}")
    return _with_calls(SmoothMap(arity, tuple(outputs)), calls)


# ---------------------------------------------------------------------------
# scalar evaluation


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
    """The outputs as polynomials, in a fresh list, or None when one is
    not polynomial; a polynomial map keeps them, so expands once."""
    if f.polynomials is None:
        out: List[Polynomial] = []
        for o in f.outputs:
            p = expr_polynomial(o, f.arity)
            if p is None:
                return None
            out.append(p)
        object.__setattr__(f, "polynomials", tuple(out))
    return list(f.polynomials)


def is_polynomial_map(f: SmoothMap) -> bool:
    return map_polynomials(f) is not None


def polynomial_map(arity: int, polys: Sequence[Polynomial]) -> SmoothMap:
    """The map whose outputs are these polynomials in ``arity``
    variables; it keeps them, so map_polynomials does not expand it."""
    f = SmoothMap(arity, tuple(map(polynomial_to_expr, polys)))
    object.__setattr__(f, "polynomials", tuple(polys))
    return _with_calls(f, False)


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
    Add: lambda e, l, r: ((_slot(l, 1), " + ", _slot(r, 2)), 1),
    Sub: lambda e, l, r: ((_slot(l, 1), " - ", _slot(r, 2)), 1),
    Mul: lambda e, l, r: ((_slot(l, 2), "*", _slot(r, 3)), 2),
    Div: lambda e, l, r: ((_slot(l, 2), "/", _slot(r, 3)), 2),
    Neg: lambda e, a: (("-", _slot(a, 3)), 1),
    Pow: lambda e, b: ((_slot(b, 4), f"^{e.exponent}"), _ATOMIC),
    Call: lambda e, a: ((e.fn, "(", a[0], ")"), _ATOMIC),
}


def _join(pieces) -> str:
    """The text of a string nested in sequences, flattened with an
    explicit stack."""
    out, stack = [], [pieces]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        else:
            stack.extend(reversed(item))
    return "".join(out)


def format_expr(e: Expr) -> str:
    return _join(fold_expr(e, _FORMAT)[0])


# ---------------------------------------------------------------------------
# node equality, hash and repr


# node type -> the node's key: its type, its data fields and its
# children's values.  With each child's value its id in one interning
# dict, two nodes are equal exactly when their keys are.
_KEY: Dict[type, Callable] = {
    Const: lambda e: (Const, e.value),
    Var: lambda e: (Var, e.index),
    **{op: lambda e, l, r: (type(e), l, r) for op in (Add, Sub, Mul, Div)},
    Neg: lambda e, a: (Neg, a),
    Pow: lambda e, b: (Pow, b, e.exponent),
    Call: lambda e, a: (Call, e.fn, a),
}
_HASH = dict.fromkeys(_CHILDREN, lambda e, *kids: hash(_KEY[type(e)](e, *kids)))


def _repr_pieces(e: Expr, *kids):
    # ``Type(name=value, ...)``, a child's pieces standing in for its value
    kids = iter(kids)
    pieces = [f"{type(e).__qualname__}("]
    for k, name in enumerate(_FIELDS[type(e)]):
        value = getattr(e, name)
        pieces.append(f", {name}=" if k else f"{name}=")
        pieces.append(next(kids) if isinstance(value, Expr) else repr(value))
    pieces.append(")")
    return pieces


_REPR = dict.fromkeys(_CHILDREN, _repr_pieces)


def format_map(f: SmoothMap) -> str:
    if f.coarity == 1:
        return format_expr(f.outputs[0])
    return "(" + ", ".join(format_expr(o) for o in f.outputs) + ")"
