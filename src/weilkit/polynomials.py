"""Exact sparse multivariate polynomials over the rationals, truncated
quotient-ring reduction, and the graded-lex monomial order.

Representation notes
--------------------
A monomial is its exponent tuple, one entry per variable: ``Monomial``
subclasses ``tuple`` and keeps no other state, so it equals and hashes
as the plain tuple of the same exponents and either one looks it up in
a dict keyed by monomials.  Slicing or concatenating monomials gives
plain tuples.  The ambient ordering used everywhere (basis enumeration,
pivot selection, canonical printing) is *graded lexicographic*: compare
total degree first, then the exponent tuples as plain sequences.  Under
this order the key of a monomial is simply ``(degree, exponents)``, and
``<``, ``<=``, ``>`` and ``>=`` on monomials compare keys.

A polynomial is a finite map from monomials to nonzero ``Fraction``
coefficients together with its variable count.  All ideal-side
computation is exact; floats never enter this module.

Ideal membership in ``<generators> + m^k`` (``m`` the maximal ideal at
the origin, ``k`` the nilpotency order) is decided by linear algebra
over the finite-dimensional truncated ring: the span of all products
``generator * monomial`` that survive truncation is put in reduced row
echelon form, where the pivot of a row is its graded-lex *smallest*
monomial.  Normal forms are computed against those rows and are
canonical: zero exactly on ideal members, idempotent, linear.
"""

from __future__ import annotations

import functools
import re
from fractions import Fraction
from operator import add
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .errors import AlgebraMismatch, ImproperIdeal, ParseError
from .reports import scalar_str

# Largest exponent an expression's '^' or a presentation's relation may
# carry.  A power is multiplied out one factor at a time, so this bounds
# the work of one power.
MAX_EXPONENT = 1000


class Monomial(tuple):
    """A power product: the tuple of its exponents, one per variable.
    It equals and hashes as the plain tuple, so either looks it up; the
    four order comparisons are graded-lex, not the tuple's."""

    __slots__ = ()

    def __new__(cls, exponents: Iterable[int]):
        self = super().__new__(cls, exponents)
        if self and min(self) < 0:
            raise ValueError("negative exponent in monomial")
        return self

    @property
    def exponents(self) -> "Monomial":
        return self

    @property
    def degree(self) -> int:
        return sum(self)

    def key(self) -> Tuple[int, Tuple[int, ...]]:
        """Graded-lex sort key: total degree first, then exponent tuple."""
        return (sum(self), tuple(self))

    # all four, so that a > b means b < a; key() reads plain tuples too
    __lt__ = lambda self, other: Monomial.key(self) < Monomial.key(other)
    __le__ = lambda self, other: Monomial.key(self) <= Monomial.key(other)
    __gt__ = lambda self, other: Monomial.key(self) > Monomial.key(other)
    __ge__ = lambda self, other: Monomial.key(self) >= Monomial.key(other)

    def mul(self, other: "Monomial") -> "Monomial":
        if len(self) != len(other):
            raise ValueError("monomial arity mismatch")
        return _monomial(map(add, self, other))

    def format(self, names: Sequence[str]) -> str:
        parts = [name if e == 1 else f"{name}^{e}" for name, e in zip(names, self) if e]
        return "*".join(parts) or "1"


def _monomial(exponents: Iterable[int]) -> Monomial:
    """A monomial from exponents known to be nonnegative, such as a
    slice of one or the sum of two, without the check ``Monomial`` makes."""
    return tuple.__new__(Monomial, exponents)


@functools.lru_cache(maxsize=64)
def unit_monomial(nvars: int) -> Monomial:
    return Monomial((0,) * nvars)


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Monomial]:
    """All monomials in ``nvars`` variables of exact total degree, in
    graded-lex (here: plain lex) order."""
    return map(Monomial, _compositions(degree, nvars))


def _compositions(total: int, parts: int) -> Iterator[Tuple[int, ...]]:
    if parts < 2:
        if parts or not total:  # no parts sum only to 0
            yield (total,) * parts
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@functools.lru_cache(maxsize=64)
def monomial_range(nvars: int, low: int, high: int) -> Tuple[Monomial, ...]:
    """All monomials of total degree in [low, high), sorted graded-lex
    ascending (each degree comes out in lex order); enumerated once per
    (nvars, low, high)."""
    return tuple(m for d in range(max(low, 0), high) for m in monomials_of_degree(nvars, d))


def monomials_below_degree(nvars: int, bound: int) -> List[Monomial]:
    """All monomials of total degree < bound, sorted graded-lex ascending."""
    return list(monomial_range(nvars, 0, bound))


def monomials_up_to_degree(nvars: int, bound: int) -> List[Monomial]:
    """All monomials of total degree <= bound, sorted graded-lex ascending."""
    return monomials_below_degree(nvars, bound + 1)


# ---------------------------------------------------------------------------
# Polynomials


Terms = Dict[Monomial, Fraction]


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    Invariant: no stored coefficient is zero, and every monomial has
    exactly ``nvars`` exponents.  ``Polynomial(...)`` checks it; kernel
    results, which keep it by construction, come from ``_build`` without
    the checks.  The hash is computed on first use and kept, so a
    polynomial used again as part of an intern key costs no rehash.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Dict[Monomial, Fraction] | None = None):
        clean: Terms = {}
        for mono, coeff in (terms or {}).items():
            if len(mono) != nvars:
                raise ValueError("monomial arity mismatch in polynomial")
            c = coeff if type(coeff) is Fraction else Fraction(coeff)
            if c != 0:
                clean[mono] = c
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    @staticmethod
    def _build(nvars: int, terms: Terms) -> "Polynomial":
        """A polynomial owning ``terms``, which already keep the invariant."""
        self = object.__new__(Polynomial)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", terms)
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Polynomial is immutable")

    # -- basics ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash((self.nvars, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
            return h

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((m.degree for m in self.terms), default=-1)

    def min_degree(self) -> int:
        """Smallest total degree among terms; -1 for zero."""
        return min((m.degree for m in self.terms), default=-1)

    def constant_term(self) -> Fraction:
        return self.terms.get(unit_monomial(self.nvars), Fraction(0))

    def evaluate(self, args: Sequence[Fraction]) -> Fraction:
        if len(args) != self.nvars:
            raise ValueError("wrong number of arguments")
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            value = coeff
            for arg, e in zip(args, mono):
                if e:
                    value *= arg ** e
            total += value
        return total

    def sorted_terms(self) -> List[Tuple[Monomial, Fraction]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].key())

    # -- ring operations -------------------------------------------------
    def add(self, other: "Polynomial") -> "Polynomial":
        if self.nvars != other.nvars:
            raise ValueError("polynomial arity mismatch")
        acc = dict(self.terms)
        for mono, coeff in other.terms.items():
            s = acc.get(mono, Fraction(0)) + coeff
            if s:
                acc[mono] = s
            else:
                acc.pop(mono, None)
        return Polynomial._build(self.nvars, acc)

    def sub(self, other: "Polynomial") -> "Polynomial":
        return self.add(other.neg())

    def neg(self) -> "Polynomial":
        return Polynomial._build(self.nvars, {m: -c for m, c in self.terms.items()})

    def scale(self, factor: Fraction | int) -> "Polynomial":
        f = Fraction(factor)
        terms = {m: c * f for m, c in self.terms.items()} if f else {}
        return Polynomial._build(self.nvars, terms)

    def mul(self, other: "Polynomial") -> "Polynomial":
        return self.mul_trunc(other, float("inf"))

    def mul_trunc(self, other: "Polynomial", bound: float) -> "Polynomial":
        """Product with every term of total degree >= bound dropped."""
        if self.nvars != other.nvars:
            raise ValueError("polynomial arity mismatch")
        acc: Terms = {}
        for m1, c1 in self.terms.items():
            if m1.degree >= bound:
                continue
            for m2, c2 in other.terms.items():
                if m1.degree + m2.degree >= bound:
                    continue
                mono = m1.mul(m2)
                s = acc.get(mono, Fraction(0)) + c1 * c2
                if s:
                    acc[mono] = s
                else:
                    acc.pop(mono, None)
        return Polynomial._build(self.nvars, acc)

    def truncate(self, bound: int) -> "Polynomial":
        """Drop all terms of total degree >= bound."""
        return Polynomial._build(
            self.nvars, {m: c for m, c in self.terms.items() if m.degree < bound}
        )

    def substitute(
        self, images: Sequence["Polynomial"], bound: int, *, nvars: int | None = None
    ) -> "Polynomial":
        """Replace variable i by images[i] in the ring of ``nvars`` variables
        (by default the images'), truncating at total degree ``bound``
        there throughout.  With no images, ``nvars`` must be given."""
        if len(images) != self.nvars:
            raise ValueError("substitution arity mismatch")
        target_nvars = images[0].nvars if nvars is None and images else nvars
        if target_nvars is None:
            raise ValueError("substitution with no images needs the target arity")
        if any(p.nvars != target_nvars for p in images):
            raise ValueError("substitution images disagree on arity")
        return substitute_poly(
            self,
            images,
            lambda c: constant(target_nvars, c),
            lambda a, b: a.mul_trunc(b, bound),
        ).truncate(bound)

    # -- formatting -------------------------------------------------------
    def format(self, names: Sequence[str]) -> str:
        return format_terms(self.sorted_terms(), names)

    def __repr__(self) -> str:
        names = [f"v{i}" for i in range(self.nvars)]
        return f"Polynomial({self.format(names)})"


def times_power(acc, base, exponent: int, mul=lambda a, b: a.mul(b)):
    """acc * base^exponent, multiplied in one factor of base at a time
    (exponent >= 0).  The one power routine: it stays stepwise because
    squaring regroups float products and so changes real-mode results."""
    for _ in range(exponent):
        acc = mul(acc, base)
    return acc


def substitute_poly(
    poly: Polynomial, args: Sequence, const, mul=lambda a, b: a.mul(b), powers=None
):
    """The one substitution loop: evaluate a rational-coefficient
    polynomial at ``args`` in any commutative ring presented through add
    and ``mul``, with ``const`` embedding rationals.  A monomial's value
    is its predecessor's, the last exponent lowered by one, times one
    argument; the dict ``powers`` keeps those values, so calls at the
    same args may share it.  A coefficient of 1 multiplies nothing.  The
    sum starts from the first term, so a one-term polynomial adds nothing
    and may return a shared value (an argument or a ``powers`` entry);
    only the zero polynomial builds ``const(0)``."""
    if len(args) != poly.nvars:
        raise AlgebraMismatch("wrong number of substitution arguments")
    if powers is None:
        powers = {}
    acc = None
    for mono, coeff in poly.sorted_terms():
        if any(mono):
            value = _monomial_value(mono, args, mul, powers)
            term = value if coeff == 1 else mul(const(coeff), value)
        else:
            term = const(coeff)
        acc = term if acc is None else acc.add(term)
    return const(Fraction(0)) if acc is None else acc


def _monomial_value(mono: Monomial, args: Sequence, mul, powers: dict):
    """args^mono, walked up to from 1 through its predecessors: the first
    variable's powers, then the second's, and so on."""
    value, prefix = None, [0] * len(mono)
    for i, e in enumerate(mono):
        for _ in range(e):
            prefix[i] += 1
            key = tuple(prefix)
            if key not in powers:
                powers[key] = args[i] if value is None else mul(value, args[i])
            value = powers[key]
    return value


def format_terms(terms: Iterable[Tuple[Monomial, object]], names: Sequence[str]) -> str:
    """Text of a linear combination of monomials, in the given order."""
    chunks: List[str] = []
    for mono, coeff in terms:
        mono_s = mono.format(names)
        if mono_s == "1":
            body = scalar_str(coeff)
        elif coeff == 1:
            body = mono_s
        elif coeff == -1:
            body = f"-{mono_s}"
        else:
            body = f"{scalar_str(coeff)}*{mono_s}"
        if not chunks:
            chunks.append(body)
        elif body.startswith("-"):
            chunks.append(f"- {body[1:]}")
        else:
            chunks.append(f"+ {body}")
    return " ".join(chunks) or "0"


def constant(nvars: int, value: Fraction | int) -> Polynomial:
    return from_monomial(unit_monomial(nvars), value)


def variable(nvars: int, index: int) -> Polynomial:
    exps = [0] * nvars
    exps[index] = 1
    return from_monomial(Monomial(tuple(exps)))


def from_monomial(mono: Monomial, coeff: Fraction | int = 1) -> Polynomial:
    c = Fraction(coeff)
    return Polynomial._build(len(mono), {mono: c} if c else {})


def embed_poly(poly: Polynomial, total_nvars: int, offset: int) -> Polynomial:
    """Re-index a polynomial into a wider variable block starting at offset."""
    if offset + poly.nvars > total_nvars:
        raise ValueError("embedding exceeds variable count")
    before, after = (0,) * offset, (0,) * (total_nvars - offset - poly.nvars)
    return Polynomial._build(
        total_nvars, {Monomial(before + m + after): c for m, c in poly.terms.items()}
    )


# ---------------------------------------------------------------------------
# Parsing (grammar: terms joined by + / -, each an optional rational
# coefficient p or p/q followed by '*'-separated  name^e  powers;
# whitespace is insignificant).


# a token is a run of decimal digits, a name, or one other character; so
# a token that starts with a decimal digit is a number.  Maps are read
# with the same tokens (see expressions).
_TOKEN = re.compile(r"\s*(\d+|\w+|\S)")
_NAME = re.compile(r"\w+")
_SIGN_OR_END = ("+", "-", "")


def is_variable_name(text: str) -> bool:
    """Whether the grammar reads ``text`` as one variable name: a
    nonempty run of name characters that does not open with a decimal
    digit, which the grammar reads as a number."""
    return _NAME.fullmatch(text) is not None and not text[0].isdecimal()


def parse_polynomial(text: str, names: Sequence[str]) -> Polynomial:
    index = {name: i for i, name in enumerate(names)}
    # (position, token) pairs, closed by an empty token at the end
    tokens = [(match.start(1), match[1]) for match in _TOKEN.finditer(text)]
    tokens.append((len(text), ""))

    def integer(k: int) -> int:
        at, token = tokens[k]
        if not token[:1].isdecimal():
            raise ParseError("expected integer", at)
        try:
            return int(token)
        except ValueError:  # more digits than int() converts
            raise ParseError("integer literal too long", at) from None

    if len(tokens) == 1:
        raise ParseError("empty polynomial", 0)
    acc: Terms = {}
    k = 0
    while tokens[k][1]:  # every term but the first opens with its sign
        sign = -1 if tokens[k][1] == "-" else 1
        k += tokens[k][1] in ("+", "-")
        at, token = tokens[k]
        if token in _SIGN_OR_END:
            raise ParseError("empty term", at)
        coeff = Fraction(1)
        exps = [0] * len(names)
        factor = not token[0].isdecimal()
        if not factor:
            coeff = Fraction(integer(k))
            k += 1
            if tokens[k][1] == "/":
                den = integer(k + 1)
                if not den:
                    raise ParseError("zero denominator", tokens[k][0])
                coeff /= den
                k += 2
        while True:
            if factor:  # the maximal name run, which a digit may open
                at = tokens[k][0]
                name = _NAME.match(text, at)
                if name is None:
                    raise ParseError("expected variable name", at)
                if name[0] not in index:
                    raise ParseError(f"unknown variable {name[0]!r}", at)
                while tokens[k][0] < name.end():
                    k += 1
                e = 1
                if tokens[k][1] == "^":
                    e = integer(k + 1)
                    k += 2
                exps[index[name[0]]] += e
            at, token = tokens[k]
            if token in _SIGN_OR_END:
                break
            if token != "*":
                after = "" if factor else " after coefficient"
                raise ParseError(f"expected '*', '+', '-' or end{after}", at)
            k += 1
            if tokens[k][1] in _SIGN_OR_END:
                raise ParseError("dangling '*'", tokens[k][0])
            factor = True
        mono = _monomial(exps)
        s = acc.get(mono, Fraction(0)) + sign * coeff
        if s:
            acc[mono] = s
        else:
            acc.pop(mono, None)
    return Polynomial._build(len(names), acc)


# ---------------------------------------------------------------------------
# Reduced row echelon form of the truncated ideal, and normal forms.


def _eliminate(acc: Terms, rows: Iterable[Tuple[Monomial, Polynomial]]) -> Terms:
    """Clear each row's pivot from ``acc`` in place by subtracting a
    multiple of the row.  Every row is monic in its pivot and holds no
    other row's pivot, so the order of the rows does not matter."""
    for pivot, row in rows:
        c = acc.get(pivot)
        if not c:
            continue
        for mono, rc in row.terms.items():
            s = acc.get(mono, Fraction(0)) - c * rc
            if s:
                acc[mono] = s
            else:
                acc.pop(mono, None)
    return acc


class ReductionBasis:
    """RREF rows spanning the image of ``<generators> + m^k`` inside the
    truncated ring of polynomials of total degree < k.

    Each row is monic in its pivot (the row's graded-lex smallest
    monomial) and contains no other row's pivot.  ``rows`` is sorted by
    pivot key, so the whole object is canonical for the span.
    """

    __slots__ = ("nvars", "order", "rows")

    def __init__(self, nvars: int, order: int, rows: List[Tuple[Monomial, Polynomial]]):
        self.nvars = nvars
        self.order = order
        self.rows = sorted(rows, key=lambda r: r[0].key())

    def pivot_set(self) -> frozenset:
        return frozenset(p for p, _ in self.rows)

    def normal_form(self, poly: Polynomial) -> Polynomial:
        """Canonical representative of ``poly`` modulo the span: truncate
        at degree >= order, then eliminate every pivot monomial."""
        if poly.nvars != self.nvars:
            raise ValueError("polynomial arity mismatch with reduction basis")
        acc = {m: c for m, c in poly.terms.items() if m.degree < self.order}
        return Polynomial._build(self.nvars, _eliminate(acc, self.rows))

    def quotient_basis(self) -> List[Monomial]:
        """Non-pivot monomials of degree < order, graded-lex ascending."""
        pivots = self.pivot_set()
        return [m for m in monomials_below_degree(self.nvars, self.order) if m not in pivots]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ReductionBasis)
            and self.nvars == other.nvars
            and self.order == other.order
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.nvars, self.order, tuple(self.rows)))


def build_reduction_basis(
    generators: Iterable[Polynomial], nvars: int, order: int
) -> ReductionBasis:
    """Echelonize the span of all truncated products generator * monomial.

    ``order`` is the nilpotency exponent k; the span lives in the ring
    truncated at total degree < k.  Raises ImproperIdeal when the
    constant monomial becomes a pivot (the quotient would be the zero
    ring).
    """
    if order < 1:
        raise ValueError("nilpotency order must be >= 1")
    gens = list(generators)
    if any(g.nvars != nvars for g in gens):
        raise ValueError("generator arity mismatch")

    # rows: pivot monomial -> monic row polynomial, kept fully reduced
    rows: Dict[Monomial, Polynomial] = {}

    def insert(poly: Polynomial) -> None:
        acc = _eliminate(dict(poly.terms), rows.items())
        if not acc:
            return
        pivot = min(acc, key=Monomial.key)
        lead = acc[pivot]
        new_row = Polynomial._build(nvars, {m: c / lead for m, c in acc.items()})
        # back-substitute into existing rows
        for other_pivot, other in rows.items():
            if pivot in other.terms:
                rows[other_pivot] = Polynomial._build(
                    nvars, _eliminate(dict(other.terms), [(pivot, new_row)])
                )
        rows[pivot] = new_row

    for g in gens:
        if g.is_zero():
            continue
        budget = order - g.min_degree()
        for mono in monomials_below_degree(nvars, max(budget, 0)):
            product = g.mul_trunc(from_monomial(mono), order)
            if product:
                insert(product)

    basis = ReductionBasis(nvars, order, list(rows.items()))
    if unit_monomial(nvars) in basis.pivot_set():
        raise ImproperIdeal("the constant monomial is a pivot; quotient would be zero")
    return basis
