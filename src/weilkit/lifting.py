"""Lifting smooth maps through Weil algebras.

The lift of a smooth map replaces every real input with an algebra
element, splits each primitive's argument into augmentation plus
nilpotent part, and propagates truncated Taylor series through the
expression tree.  Because the nilpotent part has no constant term the
series stop at the algebra's nilpotency order, so everything here is a
finite computation — exact over rationals whenever the series
coefficients at the augmentation are rational, floating point
otherwise.

The same evaluator runs over plain quotient elements and over "nested"
elements (coordinates on one algebra's basis whose entries live in a
second algebra), which is what makes the associativity isomorphism
checkable without assuming it: the double lift is computed in nested
arithmetic, the single lift in the tensor algebra, and the two are
compared through an explicit coefficient-reindexing bijection.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from math import isqrt
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .algebras import (
    RATIONAL,
    REAL,
    RingCoords,
    Scalar,
    WeilAlgebra,
    WeilElement,
    WeilMorphism,
    _factor_positions,
    _real,
    _series_quotient,
    apply_morphism,
    elements_close,
    geometric_inverse,
    identity_morphism,
    tensor,
    tensor_morphism,
)
from .errors import AlgebraMismatch, DomainError, ScalarModeError
from .expressions import (
    Add,
    Call,
    Const,
    Div,
    Expr,
    Mul,
    Neg,
    Pow,
    SmoothMap,
    Sub,
    Var,
    _FLOAT_FNS,
    fold_expr,
    format_map,
    is_polynomial_map,
    polynomial_to_expr,
)
from .polynomials import Monomial, Polynomial, times_power, unit_monomial
from .reports import SuiteReport, scalar_str
from .samplers import random_element, random_point

# ---------------------------------------------------------------------------
# Taylor series of the primitives
#
# Every Taylor coefficient of a primitive comes from one recurrence, in
# exact numbers or in floats.  A power series truncated at degree d is
# the list u of its coefficients, and fn(u) follows from one O(d^2)
# recurrence (Griewank & Walther, Evaluating Derivatives, 2nd ed., ch. 13).
# The coefficients of fn at a point a are those of fn(a + t), the series
# of u = [a, 1], and Horner's rule sums them over an exact element and
# over an algebra with more than one variable.  A one-variable algebra is
# R[t]/(t^d): its ideal contains t^order, so it is generated by the
# lowest power of t it contains, the basis is 1, t, ..., t^(d-1), and a
# real element is itself such a list u, which the recurrence takes
# directly where Horner spends d general products; so does the quotient
# recurrence, algebras._series_quotient, with an element of either mode.


def _rational_sqrt(a: Fraction) -> Optional[Fraction]:
    p, q = a.numerator, a.denominator
    rp, rq = isqrt(p), isqrt(q)
    return Fraction(rp, rq) if rp * rp == p and rq * rq == q else None


def _exact_value(fn: str, a: Fraction) -> Fraction:
    """fn(a) at the points where every Taylor coefficient is rational."""
    if fn in ("exp", "sin", "cos"):
        if a != 0:
            raise ScalarModeError(
                f"{fn} has irrational Taylor coefficients at nonzero rational points"
            )
        return Fraction(0 if fn == "sin" else 1)
    if fn == "log":
        if a != 1:
            raise ScalarModeError("log has an irrational value at rational points other than 1")
        return Fraction(0)
    root = _rational_sqrt(a)
    if root is None:
        raise ScalarModeError("sqrt is irrational at this point; use real mode")
    return root


def taylor_coefficients(fn: str, a0: Scalar, count: int, mode: str) -> List[Scalar]:
    """Coefficients c_j = p^(j)(a0)/j! for j < count.

    Rational mode restricts each primitive to the points where those
    coefficients are rational (exp/sin/cos at 0, log at 1, sqrt at
    nonzero perfect rational squares); anywhere else it raises
    ScalarModeError so the caller can decide to re-run in real mode.
    Domain violations (log at <= 0, sqrt at <= 0) are DomainError in
    both modes — sqrt is excluded at 0 because it is not smooth there.
    In real mode, a point that is not a finite float, or whose
    coefficients are not all finite floats, is a DomainError too.
    """
    if fn not in _FLOAT_FNS:
        raise ValueError(f"unknown primitive {fn!r}")
    if count <= 0:
        if count:
            raise ValueError(f"negative coefficient count {count}")
        return []
    if fn in ("log", "sqrt") and a0 <= 0:
        raise DomainError(f"{fn} undefined or not smooth at {scalar_str(a0)}")
    if mode == RATIONAL:
        a = Fraction(a0)
        if count == 1:
            return [_exact_value(fn, a)]
        return _primitive_series(fn, [a, Fraction(1)], count, mode)
    try:
        a = float(a0)
        if not math.isfinite(a):
            raise OverflowError(f"{a} is not a finite point")
        coeffs = [_FLOAT_FNS[fn](a)] if count == 1 else _primitive_series(fn, [a, 1.0], count, mode)
        if not all(map(math.isfinite, coeffs)):
            raise OverflowError("a coefficient is not finite")
    except ArithmeticError as exc:
        raise DomainError(
            f"{fn} Taylor coefficients at {scalar_str(a0)} are out of float range"
        ) from exc
    return coeffs


def _primitive_series(fn: str, u: List[Scalar], d: int, mode: str) -> List[Scalar]:
    """The first d coefficients of fn(u) for a power series u of exact
    numbers or of floats, whose coefficients from len(u) on are zero;
    the caller has checked fn at u[0].  The sums skip the products with
    those zeros, which leave a sum as it is: a float sum starts at 0.0."""
    value = _exact_value if mode == RATIONAL else lambda fn, a: _FLOAT_FNS[fn](a)
    y0 = value(fn, u[0])
    y, n, zero = [y0], len(u), u[0] - u[0]  # an exact 0 / j stays exact
    du = [i * c for i, c in enumerate(u)]  # t * u'
    if fn == "exp":
        for j in range(1, d):
            y.append(sum(map(mul, du[1 : j + 1], y[::-1])) / j)
    elif fn in ("sin", "cos"):
        other = value("cos" if fn == "sin" else "sin", u[0])
        s, c = ([y0], [other]) if fn == "sin" else ([other], [y0])
        for j in range(1, d):
            window = du[1 : j + 1]
            s_j = sum(map(mul, window, c[::-1])) / j
            c.append(-sum(map(mul, window, s[::-1])) / j)
            s.append(s_j)
        y = s if fn == "sin" else c
    elif fn == "log":
        dy = []  # t * y' from degree 1
        for j in range(1, d):
            window = map(mul, dy[max(0, j - n) :], u[j - 1 : 0 : -1])  # dy_k u_(j-k)
            y.append(((u[j] if j < n else zero) - sum(window, zero) / j) / u[0])
            dy.append(j * y[j])
    else:  # sqrt
        for j in range(1, d):
            square = sum(map(mul, y[1:], y[j - 1 : 0 : -1]))
            y.append(((u[j] if j < n else zero) - square) / (2 * y0))
    return y


# ---------------------------------------------------------------------------
# the generic lift evaluator


@dataclass(frozen=True)
class LiftContext:
    """What the evaluator needs beyond the elements themselves: a way to
    make constants, the nilpotency bound for series, the mode, and
    whether elements are power series in one variable."""

    const: Callable[[Scalar], object]
    order: int
    mode: str
    series: bool = False


def weil_context(algebra: WeilAlgebra, mode: str = RATIONAL) -> LiftContext:
    """The context of lifts over this algebra instance, built once per
    mode."""
    ctx = algebra._lift_contexts.get(mode)
    if ctx is None:
        ctx = LiftContext(lambda c: algebra.const(c, mode), algebra.order, mode, algebra.nvars == 1)
        algebra._lift_contexts[mode] = ctx
    return ctx


# A number stands for the constant element it lifts to.  A real number of
# this type stands for one whose other coordinates are -0.0, as those of
# a negated constant are.
class _NegZeros(float):
    __slots__ = ()


_NUMBERS = frozenset((Fraction, float, int, _NegZeros))
_EXACT_ONE = Fraction(1)


def _number(x, negative_zeros=False):
    """A number result; a real one must be finite, as coordinates are."""
    if type(x) is float and not math.isfinite(x):
        raise DomainError("a real-mode coordinate is out of float range")
    return _NegZeros(x) if negative_zeros else x


def _inverse(x):
    """1/x, as geometric_inverse takes it."""
    if x == 0:
        raise DomainError("element with zero augmentation is not invertible")
    return _number((1.0 if isinstance(x, float) else _EXACT_ONE) / x)


def _times(p, q):
    # a product reads only nonzero coordinates, into 0.0
    return _number(p * q + 0.0) if isinstance(p, float) else p * q


def _scaled(s, x):
    """s·x, rounded as const(s)·x is: a product skips zero coordinates,
    so each reads 0.0 + s·c."""
    if x.mode == REAL:
        return _real(x.algebra, [s * c + 0.0 for c in x._v])
    return x.scale(s)


def _product(e: Mul, a, b):
    if type(a) in _NUMBERS:
        return _times(a, b) if type(b) in _NUMBERS else _scaled(a, b)
    return _scaled(b, a) if type(b) in _NUMBERS else a.mul(b)


# the rules that need nothing of one lift's context
_NUMBER_RULES: Dict[type, Callable] = {
    Neg: lambda e, a: _number(-a, type(a) is float) if type(a) in _NUMBERS else a.neg(),
    Mul: _product,
}


def _lifted(x, const):
    """The element that a number stands for; an element as it is."""
    if type(x) is _NegZeros:
        return const(-x).neg()
    return const(x) if type(x) in _NUMBERS else x


def lift_expr(e: Expr, args: Sequence, ctx: LiftContext):
    """The lift of one expression at ``args``; a node that the
    expression shares by reference is lifted once.  A subexpression
    without variables lifts to a constant, so it stays a number, rounded
    and raising as the constant's element would, until it meets an
    element."""
    const, mode, series = ctx.const, ctx.mode, ctx.series
    real_series = series and mode == REAL
    # id(x) -> [x, x^2, ...] for each base value of this lift; the list
    # holds x, so the id stays x's for as long as the fold's node memo
    powers: Dict[int, list] = {}

    def linear(e, a, b):  # Add and Sub
        if type(a) in _NUMBERS:
            if type(b) in _NUMBERS:
                if type(e) is Add:
                    return _number(a + b, type(a) is type(b) is _NegZeros)
                return _number(a - b, type(a) is _NegZeros is not type(b))
            a = _lifted(a, const)
        elif type(b) in _NUMBERS:
            b = _lifted(b, const)
        return a.add(b) if type(e) is Add else a.sub(b)

    def quotient(e: Div, a, b):
        if type(b) in _NUMBERS:
            if not real_series:
                b = _inverse(b)
                return _times(a, b) if type(a) in _NUMBERS else _scaled(b, a)
            if b == 0:  # each coordinate over b, as the quotient recurrence rounds it
                raise DomainError("element with zero augmentation is not invertible")
            if type(a) in _NUMBERS:
                return _number(a / b, (type(a) is _NegZeros) != (b < 0))
            return _real(a.algebra, [c / b for c in a._v])
        if not series:
            return _scaled(a, b.inverse()) if type(a) in _NUMBERS else a.mul(b.inverse())
        a = _lifted(a, const)
        a._match(b)
        return _series_quotient(a._v, a._den, b)

    def power(e: Pow, base):
        """base^n, multiplied as times_power(1, base, n) does, with the
        powers of one base value shared within the lift: base^k =
        base^(k-1)·base, from base itself, which differs from 1·base only
        in the sign of zero coordinates, and a product reads only the
        nonzero ones.  The list stops at its first zero power."""
        n = e.exponent
        if type(base) in _NUMBERS:
            if n < 0:
                base, n = _inverse(base), -n
            if mode == RATIONAL:
                return base**n
            return times_power(1.0, base, n, _times)
        if n < 0:  # by the quotient recurrence over one variable, as 1/base is
            base = _series_quotient([1.0], 1, base) if real_series else base.inverse()
            n = -n
        if n < 2:
            # 1·base has base's nonzero coordinates, but a zero one reads +0.0
            return times_power(const(Fraction(1)), base, n)
        known = powers.setdefault(id(base), [base])
        while len(known) < n and (len(known) == 1 or not known[-1].is_zero()):
            known.append(known[-1].mul(base))
        return known[min(n, len(known)) - 1]

    def call(e: Call, value):
        if type(value) in _NUMBERS:
            if real_series:  # the recurrences give cos -0.0 zeros, log and sqrt value's
                zeros = e.fn == "cos" or e.fn in ("log", "sqrt") and type(value) is _NegZeros
                return _number(taylor_coefficients(e.fn, value, 1, REAL)[0], zeros)
            if mode == REAL:  # as augmentation() reads it; every coefficient must be finite
                return taylor_coefficients(e.fn, value + 0.0, ctx.order, REAL)[0]
            return taylor_coefficients(e.fn, value, 1, mode)[0]
        if real_series:
            taylor_coefficients(e.fn, value._v[0], 1, REAL)  # the point's checks
            return _real(value.algebra, _primitive_series(e.fn, value._v, len(value._v), REAL))
        a0 = value.augmentation()
        coeffs = taylor_coefficients(e.fn, a0, ctx.order, ctx.mode)
        nil = value.sub(const(a0))
        acc = const(coeffs[-1])
        for c in reversed(coeffs[:-1]):
            acc = acc.mul(nil).add(const(c))
        return acc

    rules = {
        **_NUMBER_RULES,
        Const: lambda e: WeilAlgebra._coerce(e.value, mode),
        Var: lambda e: args[e.index],
        Add: linear,
        Sub: linear,
        Div: quotient,
        Pow: power,
        Call: call,
    }
    value = fold_expr(e, rules)
    return value if type(value) not in _NUMBERS else _lifted(value, const)


def taylor_lift(
    f: SmoothMap, algebra: WeilAlgebra, point: Sequence[WeilElement]
) -> Tuple[WeilElement, ...]:
    """The functor action on points: evaluate f with each input replaced
    by the corresponding algebra element."""
    point = tuple(point)
    if len(point) != f.arity:
        raise AlgebraMismatch(
            f"map takes {f.arity} inputs but the point has {len(point)}"
        )
    modes = set()
    for e in point:
        if not isinstance(e, WeilElement) or e.algebra != algebra:
            raise AlgebraMismatch("point entries must belong to the lifting algebra")
        modes.add(e.mode)
    if len(modes) > 1:
        raise ScalarModeError("point mixes scalar modes")
    mode = modes.pop() if modes else RATIONAL
    ctx = weil_context(algebra, mode)
    return tuple(lift_expr(o, point, ctx) for o in f.outputs)


def taylor_lift_at(
    f: SmoothMap,
    algebra: WeilAlgebra,
    base: Sequence[Scalar],
    mode: str = RATIONAL,
) -> Tuple[WeilElement, ...]:
    """Lift at the displaced generators: input i becomes base[i] + x_i.

    This is the jet-extraction entry point: in R[t]/(t^(k+1)) the
    coefficients of the result are f^(j)(base)/j!.
    """
    base = tuple(base)
    if f.arity != algebra.nvars or len(base) != f.arity:
        raise AlgebraMismatch(
            f"need one base coordinate and one generator per input: map takes "
            f"{f.arity}, algebra has {algebra.nvars} generators, base has {len(base)}"
        )
    if mode == RATIONAL and f.has_call:
        _check_exact_at(f, algebra, base)
    point = tuple(algebra.displaced_var(i, b, mode) for i, b in enumerate(base))
    return taylor_lift(f, algebra, point)


def _check_exact_at(f: SmoothMap, algebra: WeilAlgebra, base: Sequence[Scalar]) -> None:
    """Lift f at the base point's exact numbers, by the lift's own number
    rules.  They are the exact lift's augmentations, met in the same
    order, so whatever the lift would raise, a ScalarModeError at an
    irrational primitive or any other error, is raised at the same node
    before any element is built."""
    base = [Fraction(algebra._coerce(b, RATIONAL)) for b in base]
    for o in f.outputs:
        lift_expr(o, base, weil_context(algebra, RATIONAL))


def lift_with_fallback(
    f: SmoothMap, algebra: WeilAlgebra, base: Sequence[Fraction]
) -> Tuple[Tuple[WeilElement, ...], str]:
    """Exact lift when the series allow it, float lift otherwise."""
    try:
        return taylor_lift_at(f, algebra, base, RATIONAL), RATIONAL
    except ScalarModeError:
        # const() converts the base point: out of float range is a DomainError
        return taylor_lift_at(f, algebra, base, REAL), REAL


def identity_map(n: int) -> SmoothMap:
    return SmoothMap(n, tuple(Var(i) for i in range(n)))


# ---------------------------------------------------------------------------
# equivalence classes of maps


@dataclass(frozen=True)
class EquivalenceVerdict:
    equivalent: bool
    component: Optional[int] = None
    difference: Optional[WeilElement] = None

    def __bool__(self) -> bool:
        return self.equivalent


def class_of(f: SmoothMap, algebra: WeilAlgebra, mode: str = RATIONAL) -> "WPoint":
    """Canonical representative of f modulo the algebra's ideal: the lift
    at the tuple of generators (all primitives evaluated at 0)."""
    if f.arity != algebra.nvars:
        raise AlgebraMismatch(
            f"map takes {f.arity} inputs but the algebra has {algebra.nvars} generators"
        )
    values = taylor_lift(f, algebra, algebra.generic_point(mode))
    return WPoint(prolong_space(Euclidean(f.coarity), algebra), values)


def equiv_mod(f: SmoothMap, g: SmoothMap, algebra: WeilAlgebra) -> EquivalenceVerdict:
    """f and g agree modulo the ideal iff their canonical representatives
    coincide componentwise; on failure, report the first component that
    differs and the (already reduced) difference."""
    if f.coarity != g.coarity:
        raise AlgebraMismatch("maps with different output counts are never equivalent")
    return _verdict(class_of(f, algebra).data, class_of(g, algebra).data)


def _verdict(cf, cg) -> EquivalenceVerdict:
    for i, (a, b) in enumerate(zip(cf, cg)):
        if a != b:
            return EquivalenceVerdict(False, i, a.sub(b))
    return EquivalenceVerdict(True)


# ---------------------------------------------------------------------------
# fragment spaces and their points


@dataclass(frozen=True)
class Euclidean:
    dim: int


@dataclass(frozen=True)
class Product:
    factors: Tuple["FragmentSpace", ...]


@dataclass(frozen=True)
class Prolonged:
    base: "FragmentSpace"
    weil: WeilAlgebra


FragmentSpace = Union[Euclidean, Product, Prolonged]


def prolong_space(space: FragmentSpace, algebra: WeilAlgebra) -> FragmentSpace:
    """Prolong and normalize: products distribute, and nested
    prolongations collapse onto the tensor algebra, so the result's
    Prolonged nodes always wrap Euclidean leaves directly."""
    if isinstance(space, Euclidean):
        return Prolonged(space, algebra)
    if isinstance(space, Product):
        return Product(tuple(prolong_space(f, algebra) for f in space.factors))
    if isinstance(space, Prolonged):
        return prolong_space(space.base, tensor(space.weil, algebra))
    raise TypeError(f"not a fragment space: {space!r}")


def normalize_space(space: FragmentSpace) -> FragmentSpace:
    if isinstance(space, Euclidean):
        return space
    if isinstance(space, Product):
        return Product(tuple(normalize_space(f) for f in space.factors))
    if isinstance(space, Prolonged):
        return prolong_space(space.base, space.weil)
    raise TypeError(f"not a fragment space: {space!r}")


@dataclass(frozen=True)
class WPoint:
    """A point of a (normalized) prolonged space: nested tuples shaped
    like the space, with algebra elements at prolonged Euclidean leaves
    and bare scalars at unprolonged ones."""

    space: FragmentSpace
    data: tuple

    def __post_init__(self):
        normalized = normalize_space(self.space)
        if normalized != self.space:
            object.__setattr__(self, "space", normalized)
        _check_point(self.space, self.data)


def _check_point(space: FragmentSpace, data) -> None:
    if isinstance(space, Euclidean):
        if len(data) != space.dim or not all(
            isinstance(v, (Fraction, float, int)) for v in data
        ):
            raise AlgebraMismatch("point shape does not match the space")
        return
    if isinstance(space, Product):
        if len(data) != len(space.factors):
            raise AlgebraMismatch("point shape does not match the space")
        for f, d in zip(space.factors, data):
            _check_point(f, d)
        return
    if isinstance(space, Prolonged):
        base = space.base
        if not isinstance(base, Euclidean):
            raise AlgebraMismatch("point spaces must be normalized")
        if len(data) != base.dim:
            raise AlgebraMismatch("point shape does not match the space")
        for v in data:
            if not isinstance(v, WeilElement) or v.algebra != space.weil:
                raise AlgebraMismatch("leaf element does not live in the leaf algebra")
        return
    raise TypeError(f"not a fragment space: {space!r}")


def cross_action(space: FragmentSpace, psi: WeilMorphism) -> Callable[[WPoint], WPoint]:
    """The morphism's action on points of the prolonged space, applied
    through the shape tree; under a nested prolongation by V the acting
    morphism becomes id_V tensor psi."""
    source_space = prolong_space(space, psi.source)
    target_space = prolong_space(space, psi.target)

    def descend(shape: FragmentSpace, morphism: WeilMorphism, data):
        if isinstance(shape, Euclidean):
            return tuple(apply_morphism(morphism, v) for v in data)
        if isinstance(shape, Product):
            return tuple(
                descend(f, morphism, d) for f, d in zip(shape.factors, data)
            )
        if isinstance(shape, Prolonged):
            widened = tensor_morphism(identity_morphism(shape.weil), morphism)
            return descend(shape.base, widened, data)
        raise TypeError(f"not a fragment space: {shape!r}")

    def act(point: WPoint) -> WPoint:
        if point.space != source_space:
            raise AlgebraMismatch("point does not live on the prolonged source space")
        return WPoint(target_space, descend(space, psi, point.data))

    return act


# ---------------------------------------------------------------------------
# naturality of the two functor actions


def check_naturality(
    phi: SmoothMap,
    psi: WeilMorphism,
    samples: int,
    rng: Optional[random.Random] = None,
    label: str = "",
) -> SuiteReport:
    """Lifting phi then mapping along psi must equal mapping along psi
    then lifting phi.  Exact for polynomial phi in rational mode;
    compared within tolerance in real mode otherwise."""
    rng = rng or random.Random(0)
    report = SuiteReport("naturality")
    exact = is_polynomial_map(phi)
    mode = RATIONAL if exact else REAL
    for i in range(samples):
        point = random_point(rng, psi.source, phi.arity, mode=mode)
        lifted_then_mapped = tuple(
            apply_morphism(psi, v) for v in taylor_lift(phi, psi.source, point)
        )
        mapped_then_lifted = taylor_lift(
            phi, psi.target, tuple(apply_morphism(psi, v) for v in point)
        )
        same = [
            a == b if exact else elements_close(a, b)
            for a, b in zip(lifted_then_mapped, mapped_then_lifted)
        ]
        mismatch = same.index(False) if False in same else None
        report.record_case(
            mismatch is None,
            lambda: {
                "case": label,
                "sample": i,
                "component": mismatch,
                "map": format_map(phi),
                "point": [v.format() for v in point],
                "lift_then_map": lifted_then_mapped[mismatch].format()
                if mismatch is not None
                else "",
                "map_then_lift": mapped_then_lifted[mismatch].format()
                if mismatch is not None
                else "",
            },
        )
    return report


# ---------------------------------------------------------------------------
# nested elements: coordinates on one algebra with scalars in another


class NestedElement(RingCoords):
    """An element of `outer` whose coordinates are elements of
    `scalars` — concretely a point of the double prolongation, kept in
    unflattened form so double lifts can be computed without going
    through the tensor algebra they are later compared against; one row
    over the basis of `scalars` per basis monomial of `outer`."""

    __slots__ = ("outer", "scalars", "mode")

    def __init__(
        self,
        outer: WeilAlgebra,
        scalars: WeilAlgebra,
        coords: Dict[Monomial, WeilElement],
        mode: str,
    ):
        for m, c in coords.items():
            if c.is_zero():
                continue
            if m not in outer.basis_index:
                raise AlgebraMismatch("coordinate monomial outside the quotient basis")
            if c.algebra != scalars or c.mode != mode:
                raise AlgebraMismatch("nested coordinate in the wrong algebra or mode")
        self._from_elements(coords, outer, scalars, mode)

    def _fill(self, outer: WeilAlgebra, scalars: WeilAlgebra, mode: str):
        self.outer = outer
        self.scalars = self._ring = scalars
        self.mode = mode

    def _shape(self) -> tuple:
        return (self.outer, self.scalars)

    def _key_rule(self):
        return self.outer._basis_rule(self.mode == REAL)

    def _new(self, rows: dict, den: int) -> "NestedElement":
        return self._build(rows, den, self.outer, self.scalars, self.mode)

    # nilpotency bound of the underlying double prolongation
    @property
    def series_order(self) -> int:
        return self.outer.order + self.scalars.order - 1

    def __repr__(self) -> str:
        return f"<nested {self.format()}>"

    def format(self) -> str:
        if not self.terms:
            return "0"
        names = self.outer.names
        return " + ".join(
            f"({c.format()})*{m.format(names)}" for m, c in self.terms.items()
        )

    def augmentation(self) -> Scalar:
        unit = unit_monomial(self.outer.nvars)
        c = self.terms.get(unit)
        if c is None:
            return Fraction(0) if self.mode == RATIONAL else 0.0
        return c.augmentation()

    def nilpotent_part(self) -> "NestedElement":
        return self.sub(nested_const(self.outer, self.scalars, self.augmentation(), self.mode))

    def inverse(self) -> "NestedElement":
        one = nested_const(self.outer, self.scalars, 1, self.mode)
        return geometric_inverse(self, one, self.series_order)


def nested_const(
    outer: WeilAlgebra, scalars: WeilAlgebra, value: Scalar, mode: str
) -> NestedElement:
    unit = unit_monomial(outer.nvars)
    return NestedElement(outer, scalars, {unit: scalars.const(value, mode)}, mode)  # 0 keeps no row


def nested_context(outer: WeilAlgebra, scalars: WeilAlgebra) -> LiftContext:
    return LiftContext(
        lambda c: nested_const(outer, scalars, c, RATIONAL),
        outer.order + scalars.order - 1,
        RATIONAL,
    )


def random_nested(
    rng: random.Random,
    outer: WeilAlgebra,
    scalars: WeilAlgebra,
    mode: str = RATIONAL,
) -> NestedElement:
    count = rng.randint(1, min(4, outer.dimension))
    chosen = rng.sample(range(outer.dimension), count)
    coords = {
        outer.basis[i]: random_element(rng, scalars, mode=mode, max_terms=3)
        for i in chosen
    }
    return NestedElement(outer, scalars, coords, mode)


# ---------------------------------------------------------------------------
# the associativity isomorphism


@dataclass(frozen=True)
class AssociativityIso:
    """Coefficient-reindexing bijection between the double prolongation
    (elements of w1 with w2-element coordinates) and the single
    prolongation by tensor(w1, w2)."""

    w1: WeilAlgebra
    w2: WeilAlgebra
    tensor_algebra: WeilAlgebra

    def __post_init__(self):
        if self.tensor_algebra != tensor(self.w1, self.w2):
            raise AlgebraMismatch("tensor_algebra is not the tensor product of w1 and w2")

    # forward regroups rows by the tensor's position table and backward by
    # its pair table; the denominator, in lowest terms on both sides, stays
    def forward(self, element: NestedElement) -> WeilElement:
        if element.outer != self.w1 or element.scalars != self.w2:
            raise AlgebraMismatch("nested element over the wrong algebra pair")
        positions = _factor_positions(self.tensor_algebra, self.w1, self.w2)[0]
        index = self.w1.basis_index
        vec = [0.0 if element.mode == REAL else 0] * self.tensor_algebra.dimension
        for m, row in element._rows.items():
            for p, c in zip(positions[index[m]], row):
                if c:
                    vec[p] = c
        return WeilElement(self.tensor_algebra, vec, element.mode, element._den)

    def backward(self, element: WeilElement) -> NestedElement:
        if element.algebra != self.tensor_algebra:
            raise AlgebraMismatch("element does not live in the tensor algebra")
        pairs = _factor_positions(self.tensor_algebra, self.w1, self.w2)[1]
        basis, v = self.w1.basis, element._v
        zero = 0.0 if element.mode == REAL else 0
        rows: Dict[Monomial, list] = {}
        for p in compress(range(len(v)), v):
            i, j = pairs[p]
            row = rows.get(basis[i])
            if row is None:
                row = rows[basis[i]] = [zero] * self.w2.dimension
            row[j] = v[p]
        return NestedElement._build(rows, element._den, self.w1, self.w2, element.mode)


def assoc_iso(
    space: Euclidean,
    w1: WeilAlgebra,
    w2: WeilAlgebra,
    rng: Optional[random.Random] = None,
    samples: int = 10,
    lift_maps: Sequence[SmoothMap] = (),
    label: str = "",
) -> Tuple[AssociativityIso, SuiteReport]:
    """Build the reindexing bijection for the double prolongation of the
    space and verify, case by case: bijectivity on every basis vector,
    ring-operation and augmentation preservation on random pairs, and
    coherence of the double lift against the single tensor lift for the
    supplied maps (their arity must be the space dimension)."""
    rng = rng or random.Random(0)
    iso = AssociativityIso(w1, w2, tensor(w1, w2))
    report = SuiteReport("tensor-associativity")

    # basis bijection: nested basis vectors sweep exactly the tensor basis
    seen = set()
    for m in w1.basis:
        for n in w2.basis:
            nested = NestedElement(w1, w2, {m: w2.basis_element(n)}, RATIONAL)
            image = iso.forward(nested)
            image_monos = list(image.coords.items())
            ok = (
                len(image_monos) == 1
                and image_monos[0][1] == 1
                and image_monos[0][0] in iso.tensor_algebra.basis_index
                and iso.backward(image) == nested
            )
            if ok:
                seen.add(image_monos[0][0])
            report.record_case(
                ok,
                lambda: {
                    "case": label,
                    "kind": "basis",
                    "left": m.format(w1.names),
                    "right": n.format(w2.names),
                },
            )
    report.record_case(
        len(seen) == iso.tensor_algebra.dimension,
        {
            "case": label,
            "kind": "basis-count",
            "hit": len(seen),
            "expected": iso.tensor_algebra.dimension,
        },
    )

    # ring structure on random pairs
    for i in range(samples):
        a = random_nested(rng, w1, w2)
        b = random_nested(rng, w1, w2)
        fa, fb = iso.forward(a), iso.forward(b)
        checks = [
            ("add", iso.forward(a.add(b)) == fa.add(fb)),
            ("mul", iso.forward(a.mul(b)) == fa.mul(fb)),
            ("aug", a.augmentation() == fa.augmentation()),
            ("round-trip", iso.backward(fa) == a),
        ]
        for kind, ok in checks:
            report.record_case(
                ok,
                lambda: {
                    "case": label,
                    "kind": kind,
                    "sample": i,
                    "left": a.format(),
                    "right": b.format(),
                },
            )

    # lift coherence: double lift in nested arithmetic vs single tensor lift
    ctx = nested_context(w1, w2)
    for mi, f in enumerate(lift_maps):
        if f.arity != space.dim:
            raise AlgebraMismatch("lift map arity must match the space dimension")
        point = tuple(random_nested(rng, w1, w2) for _ in range(f.arity))
        doubled = tuple(lift_expr(o, point, ctx) for o in f.outputs)
        single = taylor_lift(
            f, iso.tensor_algebra, tuple(iso.forward(p) for p in point)
        )
        ok = all(iso.forward(d) == s for d, s in zip(doubled, single))
        report.record_case(
            ok,
            lambda: {
                "case": label,
                "kind": "lift-coherence",
                "map_index": mi,
                "map": format_map(f),
                "point": [p.format() for p in point],
            },
        )
    return iso, report


# ---------------------------------------------------------------------------
# product preservation


def check_product_preservation(
    x_space: Euclidean,
    y_space: Euclidean,
    algebra: WeilAlgebra,
    f: SmoothMap,
    samples: int,
    rng: Optional[random.Random] = None,
    label: str = "",
) -> SuiteReport:
    """The class of a map into a product is the pair of component
    classes, and equivalence into the product is exactly componentwise
    equivalence — probed with planted perturbations, ideal members (must
    stay equivalent) and quotient-basis monomials (must not)."""
    rng = rng or random.Random(0)
    report = SuiteReport("product-preservation")
    p, q = x_space.dim, y_space.dim
    if f.coarity != p + q:
        raise AlgebraMismatch("map must land in the product of the two spaces")
    first = f.select(range(p))
    second = f.select(range(p, p + q))

    # f's classes are lifted once per case; each sample lifts g's components
    # on their own, not sliced from g's class, so it tests the product law
    whole = class_of(f, algebra).data
    first_class = class_of(first, algebra).data
    second_class = class_of(second, algebra).data
    split_ok = whole[:p] == first_class and whole[p:] == second_class
    report.record_case(
        split_ok,
        lambda: {"case": label, "kind": "class-splitting", "map": format_map(f)},
    )

    nontrivial_basis = [m for m in algebra.basis if m.degree >= 1]
    for i in range(samples):
        outputs = list(f.outputs)
        component = rng.randrange(len(outputs))
        plant_equivalent = rng.random() < 0.5 or not nontrivial_basis
        if plant_equivalent:
            # with no generator (no variables) plant 0, which every ideal holds
            generators = algebra.ideal_generators()
            g_poly = rng.choice(generators) if generators else Polynomial(algebra.nvars)
            multiplier = random_element(rng, algebra, max_terms=2)
            perturb_expr = polynomial_to_expr(g_poly)
            if not multiplier.is_zero():
                perturb_expr = Mul(
                    polynomial_to_expr(multiplier.as_polynomial()), perturb_expr
                )
        else:
            mono = rng.choice(nontrivial_basis)
            perturb_expr = polynomial_to_expr(
                algebra.basis_element(mono).as_polynomial()
            )
        outputs[component] = Add(outputs[component], perturb_expr)
        g = SmoothMap(f.arity, tuple(outputs))

        joint = _verdict(whole, class_of(g, algebra).data)
        left = _verdict(first_class, class_of(g.select(range(p)), algebra).data)
        right = _verdict(second_class, class_of(g.select(range(p, p + q)), algebra).data)
        consistent = joint.equivalent == (left.equivalent and right.equivalent)
        expected = joint.equivalent == plant_equivalent
        report.record_case(
            consistent and expected,
            {
                "case": label,
                "sample": i,
                "kind": "equivalence-splitting",
                "planted": "ideal-member" if plant_equivalent else "basis-monomial",
                "component": component,
                "joint": joint.equivalent,
                "left": left.equivalent,
                "right": right.equivalent,
            },
        )
    return report
