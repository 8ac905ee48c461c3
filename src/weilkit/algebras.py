"""Weil algebras: finitely presented truncated-polynomial quotients,
their elements, algebra morphisms, and tensor products.

An algebra is presented by named variables, relation polynomials with
zero constant term, and an explicit nilpotency order k; the ideal is
``<relations> + m^k`` where m is the maximal ideal at the origin.  The
quotient is finite dimensional with the non-pivot monomials of total
degree < k as its canonical basis.  The structure constants are the
normal forms of the monomials of degree < k, which the echelon rows
already hold; a product of two basis monomials adds exponents and looks
the sum up among them.  A tensor product is never echelonized: its rows
are written down from its factors' normal forms, and its coordinates
move to and from pairs of factor coordinates by basis position.

Elements store one coordinate per basis position.  Each element is
uniformly in one of two scalar modes, exact or double-precision float,
and the two are never mixed inside one element or one operation.  A real
element is a list of floats; an exact one is a list of integer
numerators over one positive common denominator, in lowest terms overall
so that equality is a list compare.  Products read integer structure
constants over one table denominator, or their float copies in real
mode, keyed by a per-position integer code whose sum is the code of the
product.  ``WeilElement.coords`` is a read-only {monomial: Fraction or
float} view, built once per element and cached.

Morphisms are represented by their polynomial substitution data
(``psibar``): one polynomial per *source* variable, written in the
*target* variables, with zero constant term, such that every generator
of the source ideal reduces to zero in the target after substitution.
Validation and the action both substitute the classes of psibar into
the target algebra itself; the action is precomputed on the source
basis.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction
from operator import add, mul
from pathlib import Path
from types import MappingProxyType
from typing import Dict, List, Mapping, Sequence, Tuple, Union

from .errors import (
    AlgebraMismatch,
    BasePointViolation,
    DomainError,
    IdealViolation,
    ImproperIdeal,
    ParseError,
    ScalarModeError,
)
from .polynomials import (
    MAX_EXPONENT,
    Monomial,
    Polynomial,
    ReductionBasis,
    build_reduction_basis,
    embed_poly,
    format_terms,
    from_monomial,
    is_variable_name,
    monomials_below_degree,
    monomials_of_degree,
    parse_polynomial,
    substitute_poly,
    times_power,
    unit_monomial,
    variable,
)

Scalar = Union[Fraction, float]

RATIONAL = "rational"
REAL = "real"


@dataclass(frozen=True)
class WeilPresentation:
    """Plain-data presentation: ordered variable names, relation strings
    (polynomial grammar), and a positive nilpotency order."""

    variables: Tuple[str, ...]
    relations: Tuple[str, ...]
    nilpotency: int

    @staticmethod
    def from_dict(data: dict) -> "WeilPresentation":
        try:
            variables = data["variables"]
            relations = data["relations"]
            nilpotency = data["nilpotency"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"presentation record missing field: {exc}") from exc
        # a JSON string is iterable too and would split into characters
        for field, value in (("variables", variables), ("relations", relations)):
            if not isinstance(value, (list, tuple)):
                raise ParseError(f"{field} must be a list")
        variables, relations = tuple(variables), tuple(relations)
        if not all(isinstance(v, str) and is_variable_name(v) for v in variables):
            raise ParseError(
                "variables must be names the relation grammar reads: "
                "letters, digits and '_', not starting with a digit"
            )
        if len(set(variables)) != len(variables):
            raise ParseError("variable names must be distinct")
        if not all(isinstance(r, str) for r in relations):
            raise ParseError("relations must be strings")
        if type(nilpotency) is not int or nilpotency < 1:
            raise ParseError("nilpotency must be a positive integer")
        return WeilPresentation(variables, relations, nilpotency)

    @staticmethod
    def from_file(path: str | Path) -> "WeilPresentation":
        try:
            data = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ParseError(f"cannot read presentation file {path}: {exc}") from exc
        if not isinstance(data, dict):
            raise ParseError("presentation file must hold a top-level record")
        return WeilPresentation.from_dict(data)


# Every algebra with one presentation shares the built state below; the
# table keeps the INTERN_CAPACITY most recently used presentations.  It
# is keyed on the presentation itself, not on the echelon signature:
# presentations of one ideal with different relations print differently.
INTERN_CAPACITY = 256

# Largest truncated ring an algebra may span: comb(nvars + order - 1,
# nvars) monomials of total degree below the order.
MAX_MONOMIALS = 1000


def _check_span(nvars: int, order: int) -> None:
    size = math.comb(nvars + order - 1, nvars)
    if size > MAX_MONOMIALS:
        raise ParseError(
            f"presentation spans {size} monomials below degree {order}; "
            f"at most {MAX_MONOMIALS} are allowed"
        )


class _TensorRelations(tuple):
    """The relation tuple of a tensor product: the embedded generators of
    both factors.  It equals and hashes as the plain tuple of the same
    polynomials, so an algebra presented with either shares one intern
    entry; it also carries the two factors, from whose normal forms
    ``_built`` writes down the tensor's instead of echelonizing."""

    def __new__(cls, generators, factors: Tuple["WeilAlgebra", "WeilAlgebra"]):
        relations = super().__new__(cls, generators)
        relations.factors = factors
        return relations


@lru_cache(maxsize=INTERN_CAPACITY)
def _built(names: Tuple[str, ...], relations: Tuple[Polynomial, ...], order: int):
    """Reduction rows, quotient basis, basis index, multiplication table,
    the element kernel's tables, signature, hash and two empty memo
    tables of a presentation.  Raises on an invalid relation, and
    ImproperIdeal when the quotient is zero; failures are not kept in
    the table.

    The table maps every monomial below the order to its normal form,
    read off the echelon rows: a basis monomial is its own normal form,
    and a pivot is minus the rest of its row (each row is monic in its
    pivot and holds no other pivot).  The rows of a tensor product come
    from its factors' tables (see ``tensor``)."""
    nvars = len(names)
    for rel in relations:
        if rel.nvars != nvars:
            raise ValueError("relation arity mismatch")
        if rel.constant_term() != 0:
            raise ImproperIdeal(f"relation {rel.format(names)} has nonzero constant term")
        top = max((e for m in rel.terms for e in m), default=0)
        if top > MAX_EXPONENT:
            raise ParseError(f"relation exponent {top} exceeds {MAX_EXPONENT}")
    if isinstance(relations, _TensorRelations):
        reduction, basis, table = _tensor_rows(*relations.factors)
    else:
        reduction = build_reduction_basis(relations, nvars, order)
        basis = tuple(reduction.quotient_basis())
        table = {m: ((m, Fraction(1)),) for m in basis}
        for pivot, row in reduction.rows:
            table[pivot] = tuple((m, -c) for m, c in row.sorted_terms() if m != pivot)
    basis_index = {m: i for i, m in enumerate(basis)}
    if unit_monomial(nvars) not in basis_index:
        raise ImproperIdeal("constant monomial not in quotient basis")
    rows_sig = tuple((pivot, tuple(row.sorted_terms())) for pivot, row in reduction.rows)
    sig = (names, order, rows_sig)
    kernel = _kernel_tables(basis, basis_index, table, order)
    return reduction, basis, basis_index, table, kernel, sig, hash(sig), {}, {}


def _tensor_rows(w1: "WeilAlgebra", w2: "WeilAlgebra"):
    """Reduction rows, basis and normal-form table of tensor(w1, w2),
    written down from the factors' normal forms (see ``tensor``)."""
    nvars, order, split = w1.nvars + w2.nvars, w1.order + w2.order - 1, w1.nvars
    nf1, nf2 = w1._mul_table, w2._mul_table
    index1, index2 = w1.basis_index, w2.basis_index
    monomials = monomials_below_degree(nvars, order)
    basis = tuple(m for m in monomials if m[:split] in index1 and m[split:] in index2)
    index = {m: (i, m) for i, m in enumerate(basis)}
    table: Dict[Monomial, Tuple[Tuple[Monomial, Fraction], ...]] = {}
    rows = []
    one = Fraction(1)
    for mono in monomials:
        if mono in index:
            table[mono] = ((mono, one),)
            continue
        # NF(x^a * y^b) = NF1(x^a) * NF2(y^b); a factor at or above its
        # own order has normal form 0, so is missing from its table
        terms = sorted(
            (index[m1 + m2], c1 * c2)
            for m1, c1 in nf1.get(mono[:split], ())
            for m2, c2 in nf2.get(mono[split:], ())
        )
        table[mono] = tuple((m, c) for (_, m), c in terms)
        row = {mono: one}
        for (_, m), c in terms:
            row[m] = -c
        rows.append((mono, Polynomial(nvars, row)))
    return ReductionBasis(nvars, order, rows), basis, table


def _kernel_tables(basis: Tuple[Monomial, ...], index: Dict[Monomial, int], table, order: int):
    """What element products read, keyed by basis position.

    A monomial's code is its exponent tuple read as digits in radix
    2*order - 1.  Exponents of a product of two basis monomials stay
    below that radix, so the code of the product is the sum of the
    codes.  ``reach[i]`` counts the basis positions whose degree plus
    that of position i is below the order (the basis is graded, so they
    are a prefix); every other pair multiplies to zero.  The exact table
    holds integer structure constants over one table denominator, the
    real table their float copies (infinite where a constant is beyond
    float range, so a real product that uses it is a DomainError)."""
    weights = [(2 * order - 1) ** v for v in range(len(basis[0]))]
    degrees = [m.degree for m in basis]
    codes = tuple(sum(map(mul, m, weights)) for m in basis)
    reach = tuple(bisect_left(degrees, order - d) for d in degrees)
    den = math.lcm(*(c.denominator for entries in table.values() for _, c in entries))
    exact, real = {}, {}
    for mono, entries in table.items():
        code = sum(map(mul, mono, weights))
        exact[code] = tuple((index[m], c.numerator * (den // c.denominator)) for m, c in entries)
        real[code] = tuple((index[m], _float_constant(c)) for m, c in entries)
    return codes, reach, exact, den, real


def _float_constant(c: Fraction) -> float:
    try:
        return c.numerator / c.denominator  # what float(c) computes, without its dispatch
    except OverflowError:
        return math.inf if c > 0 else -math.inf


class WeilAlgebra:
    """Finite-dimensional local quotient with precomputed reduction data
    and the normal form of every monomial below the order.  Identity is
    structural: variable names, nilpotency order, and the canonical
    echelon rows.  Algebras are immutable; equal presentations share
    their built state."""

    __slots__ = (
        "names",
        "nvars",
        "order",
        "relations",
        "reduction",
        "basis",
        "basis_index",
        "dimension",
        "_mul_table",
        "_kernel",
        "_sig",
        "_hash",
        "_embedded",
        "_splits",
    )

    def __init__(self, names: Sequence[str], relations: Sequence[Polynomial], order: int):
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        if order < 1:
            raise ValueError("nilpotency order must be >= 1")
        _check_span(len(names), order)
        self.names = tuple(names)
        self.nvars = len(self.names)
        self.order = order
        # a _TensorRelations tuple is kept as it is: it is how _built
        # learns the factors
        self.relations = relations if isinstance(relations, tuple) else tuple(relations)
        (
            self.reduction,
            self.basis,
            self.basis_index,
            self._mul_table,
            self._kernel,
            self._sig,
            self._hash,
            self._embedded,
            self._splits,
        ) = _built(self.names, self.relations, order)
        self.dimension = len(self.basis)

    # -- identity ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, WeilAlgebra) and self._sig == other._sig

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        rels = ", ".join(r.format(self.names) for r in self.relations) or "0"
        return f"WeilAlgebra([{', '.join(self.names)}], <{rels}> + m^{self.order})"

    # -- structure --------------------------------------------------------
    def basis_product(self, m1: Monomial, m2: Monomial) -> Tuple[Tuple[Monomial, Fraction], ...]:
        """Normal form of the product of two basis monomials, as
        (basis monomial, rational coefficient) pairs in graded-lex
        order; empty when the product has degree at least the order."""
        return self._mul_table.get(tuple(map(add, m1, m2)), ())

    def ideal_generators(self) -> List[Polynomial]:
        """The presented relations together with the degree-k monomial
        witnesses of m^k — a full generator set of the ideal."""
        return list(self._embedded_generators(self.nvars, 0))

    def _embedded_generators(self, total: int, offset: int) -> Tuple[Polynomial, ...]:
        """The ideal generators re-indexed into ``total`` variables from
        ``offset`` on (at ``(nvars, 0)``, the generators themselves).  They
        are kept with the built state, so repeated morphism checks and
        tensor products reuse the same polynomials and their hashes."""
        gens = self._embedded.get((total, offset))
        if gens is None:
            if (total, offset) == (self.nvars, 0):
                witnesses = monomials_of_degree(self.nvars, self.order)
                gens = (*self.relations, *map(from_monomial, witnesses))
            else:
                gens = tuple(embed_poly(g, total, offset) for g in self.ideal_generators())
            self._embedded[total, offset] = gens
        return gens

    # -- element constructors ----------------------------------------------
    def _coerce(self, value: Scalar, mode: str) -> Scalar:
        if mode == RATIONAL:
            if isinstance(value, float):
                raise ScalarModeError("float scalar in rational mode")
            # exact assembly reads only the numerator and denominator
            return value if type(value) in (int, Fraction) else Fraction(value)
        try:
            return float(value)
        except OverflowError:
            raise DomainError("a real-mode scalar is out of float range") from None

    def _assemble(self, entries, mode: str) -> "WeilElement":
        """The element with the given (basis position, coerced scalar)
        entries; exact scalars go over the least common denominator of
        their own, which keeps the vector in lowest terms."""
        if mode == RATIONAL:
            den = math.lcm(*(c.denominator for _, c in entries))
            vec = [0] * self.dimension
            for i, c in entries:
                vec[i] = c.numerator * (den // c.denominator)
            return WeilElement(self, vec, RATIONAL, den)
        if mode != REAL:
            raise ValueError(f"unknown scalar mode {mode!r}")
        vec = [0.0] * self.dimension
        for i, c in entries:
            vec[i] = c
        return _real(self, vec)

    def element(self, coords: Dict[Monomial, Scalar], mode: str = RATIONAL) -> "WeilElement":
        index = self.basis_index
        entries = []
        for mono, c in coords.items():
            if mono not in index:
                raise ValueError(f"{mono} is not a quotient-basis monomial")
            entries.append((index[mono], self._coerce(c, mode)))
        return self._assemble(entries, mode)

    def zero(self, mode: str = RATIONAL) -> "WeilElement":
        return self._assemble((), mode)

    def one(self, mode: str = RATIONAL) -> "WeilElement":
        return self.const(1, mode)

    def const(self, value: Scalar, mode: str | None = None) -> "WeilElement":
        if mode is None:
            mode = REAL if isinstance(value, float) else RATIONAL
        # the unit monomial is basis position 0: the basis is graded
        return self._assemble(((0, self._coerce(value, mode)),), mode)

    def from_polynomial(self, poly: Polynomial, mode: str = RATIONAL) -> "WeilElement":
        """Reduce an exact polynomial representative to its element."""
        nf = self.reduction.normal_form(poly)
        index = self.basis_index
        return self._assemble(
            [(index[m], self._coerce(c, mode)) for m, c in nf.terms.items()], mode
        )

    def var_element(self, index: int, mode: str = RATIONAL) -> "WeilElement":
        """The class of the i-th presentation variable."""
        if not 0 <= index < self.nvars:
            raise ValueError("variable index out of range")
        return self.from_polynomial(variable(self.nvars, index), mode)

    def basis_element(self, mono: Monomial, mode: str = RATIONAL) -> "WeilElement":
        one: Scalar = Fraction(1) if mode == RATIONAL else 1.0
        return self.element({mono: one}, mode)

    def generic_point(self, mode: str = RATIONAL) -> Tuple["WeilElement", ...]:
        """The universal point (class of x_1, ..., class of x_n)."""
        return tuple(self.var_element(i, mode) for i in range(self.nvars))


def _real(algebra: WeilAlgebra, vec: List[float]) -> "WeilElement":
    if not all(map(math.isfinite, vec)):
        raise DomainError("a real-mode coordinate is out of float range")
    return WeilElement(algebra, vec, REAL)


def _exact(algebra: WeilAlgebra, nums: List[int], den: int) -> "WeilElement":
    g = math.gcd(den, *nums)
    if g != 1:
        nums = [n // g for n in nums]
        den //= g
    return WeilElement(algebra, nums, RATIONAL, den)


class WeilElement:
    """Coordinates by basis position, in a single scalar mode.

    A real element holds one float per basis position.  An exact one
    holds integer numerators over one positive common denominator, in
    lowest terms overall (the gcd of the numerators and the denominator
    is 1, and zero is all zeros over 1), so two exact elements are equal
    exactly when their vectors and denominators are.  ``coords`` is a
    read-only {basis monomial: Fraction or float} view of the nonzero
    coordinates in basis order, built on first use and cached."""

    __slots__ = ("algebra", "mode", "_v", "_den", "_view")

    def __init__(self, algebra: WeilAlgebra, vec: list, mode: str, den: int = 1):
        # kernel-internal: vec is one coordinate per basis position, in
        # the form the class docstring states; the algebra's element
        # constructors are the public way in
        self.algebra = algebra
        self.mode = mode
        self._v = vec
        self._den = den
        self._view = None

    @property
    def coords(self) -> Mapping[Monomial, Scalar]:
        if self._view is None:
            basis = self.algebra.basis
            if self.mode == REAL:
                terms = {basis[i]: c for i, c in enumerate(self._v) if c}
            else:
                den = self._den
                terms = {basis[i]: Fraction(n, den) for i, n in enumerate(self._v) if n}
            self._view = MappingProxyType(terms)
        return self._view

    # -- plumbing -----------------------------------------------------------
    def _match(self, other: "WeilElement") -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch("elements of different algebras")
        if self.mode != other.mode:
            raise ScalarModeError(f"mixed scalar modes {self.mode}/{other.mode}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WeilElement)
            and self.mode == other.mode
            and self.algebra == other.algebra
            and self._den == other._den
            and self._v == other._v
        )

    def __hash__(self) -> int:
        return hash((self.algebra, self.mode, self._den, tuple(self._v)))

    def __repr__(self) -> str:
        return f"<{self.format()} in {self.algebra!r}>"

    def format(self) -> str:
        return format_terms(self.coords.items(), self.algebra.names)

    def is_zero(self) -> bool:
        return not any(self._v)

    # -- linear structure ----------------------------------------------------
    def add(self, other: "WeilElement") -> "WeilElement":
        self._match(other)
        if self.mode == REAL:
            return _real(self.algebra, list(map(add, self._v, other._v)))
        da, db = self._den, other._den
        if da == db:
            return _exact(self.algebra, list(map(add, self._v, other._v)), da)
        g = math.gcd(da, db)
        fa, fb = db // g, da // g
        nums = [x * fa + y * fb for x, y in zip(self._v, other._v)]
        return _exact(self.algebra, nums, da * fa)

    def neg(self) -> "WeilElement":
        return WeilElement(self.algebra, [-c for c in self._v], self.mode, self._den)

    def sub(self, other: "WeilElement") -> "WeilElement":
        return self.add(other.neg())

    def scale(self, factor: Scalar) -> "WeilElement":
        f = self.algebra._coerce(factor, self.mode)
        if f == 0 or self.is_zero():
            return self.algebra.zero(self.mode)
        if self.mode == REAL:
            return _real(self.algebra, [c * f for c in self._v])
        p = f.numerator
        return _exact(self.algebra, [n * p for n in self._v], self._den * f.denominator)

    __add__ = add
    __sub__ = sub

    def __neg__(self) -> "WeilElement":
        return self.neg()

    # -- multiplicative structure ----------------------------------------------
    def mul(self, other: "WeilElement") -> "WeilElement":
        """Each pair of nonzero coordinates, in basis order, adds its
        product times the structure constants of the pair into the
        accumulator; a real product therefore rounds exactly as the
        graded-lex pair loop over the basis does."""
        self._match(other)
        algebra = self.algebra
        codes, reach, exact_table, table_den, real_table = algebra._kernel
        real = self.mode == REAL
        table = real_table if real else exact_table
        acc = [0.0 if real else 0] * algebra.dimension
        right = [(j, codes[j], c) for j, c in enumerate(other._v) if c]
        for i, c1 in enumerate(self._v):
            if not c1:
                continue
            code, bound = codes[i], reach[i]
            for j, cj, c2 in right:
                if j >= bound:
                    break
                c = c1 * c2
                for k, f in table[code + cj]:
                    acc[k] += c * f
        if real:
            return _real(algebra, acc)
        return _exact(algebra, acc, self._den * other._den * table_den)

    __mul__ = mul

    def pow_int(self, exponent: int) -> "WeilElement":
        base = self if exponent >= 0 else self.inverse()
        return times_power(self.algebra.one(self.mode), base, abs(exponent))

    def augmentation(self) -> Scalar:
        if self.mode == REAL:
            return self._v[0] + 0.0  # a zero coordinate reads as +0.0
        return Fraction(self._v[0], self._den)

    def nilpotent_part(self) -> "WeilElement":
        if self.mode == REAL:
            return WeilElement(self.algebra, [0.0, *self._v[1:]], REAL)
        return _exact(self.algebra, [0, *self._v[1:]], self._den)

    def inverse(self) -> "WeilElement":
        """Multiplicative inverse; the augmentation must be nonzero."""
        return geometric_inverse(self, self.algebra.one(self.mode), self.algebra.order)

    def to_real(self) -> "WeilElement":
        if self.mode == REAL:
            return self
        return WeilElement(self.algebra, self._floats(), REAL)

    def _floats(self) -> List[float]:
        """The coordinates as floats; an exact one is rounded once."""
        if self.mode == REAL:
            return self._v
        den = self._den
        try:
            return [n / den for n in self._v]
        except OverflowError:
            raise DomainError("a real-mode scalar is out of float range") from None

    def as_polynomial(self) -> Polynomial:
        """Canonical polynomial representative (rational mode only)."""
        if self.mode != RATIONAL:
            raise ScalarModeError("no exact representative for a float element")
        return Polynomial(self.algebra.nvars, dict(self.coords))


def geometric_inverse(x, one, order: int):
    """The inverse of x = a + n (a = ``x.augmentation()`` nonzero, n =
    ``x.nilpotent_part()`` with n^order = 0, ``one`` the unit in x's mode):
    the geometric series a⁻¹ Σ_k (−n/a)^k, stopped at its first zero term."""
    a0 = x.augmentation()
    if a0 == 0:
        raise DomainError("element with zero augmentation is not invertible")
    inv_a0 = (Fraction(1) / a0) if x.mode == RATIONAL else (1.0 / a0)
    u = x.nilpotent_part().scale(-inv_a0)
    acc = term = one
    for _ in range(1, order):
        term = term.mul(u)
        if term.is_zero():
            break
        acc = acc.add(term)
    return acc.scale(inv_a0)


class RingCoords:
    """Sparse coordinates on a basis with coefficients in a second ring:
    ``terms`` maps basis keys to nonzero coefficients, each of which has
    add, neg, scale, mul and is_zero.  The ring operations are written
    once here.  A subclass supplies ``_shape()``, the data operands must
    share, which ``_new`` passes to the constructor ahead of the terms;
    ``_key_product(k1, k2)``, the product of two basis keys as (key,
    rational factor) pairs; and an ``__init__`` that validates the terms,
    drops zero coefficients and sorts the keys."""

    __slots__ = ("terms",)
    # carrier polynomials and curried values are exact; a subclass that
    # carries either mode stores its own
    mode = RATIONAL

    def _shape(self) -> tuple:
        raise NotImplementedError

    def _key_product(self, k1, k2):
        raise NotImplementedError

    def _new(self, terms: dict) -> "RingCoords":
        return type(self)(*self._shape(), terms)

    def _match(self, other: "RingCoords") -> None:
        if type(other) is not type(self) or self._shape() != other._shape():
            raise AlgebraMismatch(f"{type(self).__name__} operands of different shapes")
        if self.mode != other.mode:
            raise ScalarModeError(f"mixed scalar modes {self.mode}/{other.mode}")

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.mode == other.mode
            and self._shape() == other._shape()
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self._shape(), self.mode, tuple(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def add(self, other: "RingCoords") -> "RingCoords":
        self._match(other)
        acc = dict(self.terms)
        for key, c in other.terms.items():
            cur = acc.get(key)
            acc[key] = c if cur is None else cur.add(c)
        return self._new(acc)

    def neg(self) -> "RingCoords":
        return self._new({key: c.neg() for key, c in self.terms.items()})

    def sub(self, other: "RingCoords") -> "RingCoords":
        return self.add(other.neg())

    def scale(self, factor: Scalar) -> "RingCoords":
        return self._new({key: c.scale(factor) for key, c in self.terms.items()})

    def mul(self, other: "RingCoords") -> "RingCoords":
        self._match(other)
        acc: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                prod = c1.mul(c2)
                if prod.is_zero():
                    continue
                for key, f in self._key_product(k1, k2):
                    term = prod if f == 1 else prod.scale(f)
                    cur = acc.get(key)
                    acc[key] = term if cur is None else cur.add(term)
        return self._new(acc)


def scalars_close(a: Scalar, b: Scalar, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    x, y = float(a), float(b)
    return abs(x - y) <= max(abs_tol, rel * max(abs(x), abs(y)))


def elements_close(a: WeilElement, b: WeilElement, rel: float = 1e-9, abs_tol: float = 1e-12) -> bool:
    """Tolerant coordinatewise comparison (modes may differ)."""
    if a.algebra != b.algebra:
        raise AlgebraMismatch("elements of different algebras")
    return all(
        scalars_close(x, y, rel, abs_tol) for x, y in zip(a._floats(), b._floats())
    )


# ---------------------------------------------------------------------------
# Construction entry points and presets


def mk_weil_algebra(presentation: WeilPresentation) -> WeilAlgebra:
    """Parse and validate a presentation; raises ParseError on grammar
    violations and ImproperIdeal when the quotient would be zero."""
    relations = [
        parse_polynomial(text, presentation.variables) for text in presentation.relations
    ]
    return WeilAlgebra(presentation.variables, relations, presentation.nilpotency)


PRESETS: Dict[str, WeilPresentation] = {
    "dual": WeilPresentation(("x",), ("x^2",), 2),
    "jet2": WeilPresentation(("t",), ("t^3",), 3),
    "jet3": WeilPresentation(("t",), ("t^4",), 4),
    "d2": WeilPresentation(("x", "y"), ("x^2", "y^2", "x*y"), 2),
}


def preset_algebra(name: str) -> WeilAlgebra:
    if name not in PRESETS:
        raise ParseError(f"unknown preset {name!r}; known: {', '.join(sorted(PRESETS))}")
    return mk_weil_algebra(PRESETS[name])


def jet_algebra(order: int) -> WeilAlgebra:
    """R[t]/(t^(order+1)): the one-variable jet algebra of the given order."""
    if order < 1:
        raise ValueError("jet order must be >= 1")
    return mk_weil_algebra(
        WeilPresentation(("t",), (f"t^{order + 1}",), order + 1)
    )


def real_line_algebra() -> WeilAlgebra:
    """The 0-variable algebra R (unit for the tensor product)."""
    return WeilAlgebra((), (), 1)


# ---------------------------------------------------------------------------
# Morphisms


class WeilMorphism:
    """Algebra map represented by substitution data psibar: one target
    polynomial per source variable."""

    __slots__ = ("source", "target", "psibar", "_basis_images")

    def __init__(self, source: WeilAlgebra, target: WeilAlgebra, psibar: Sequence[Polynomial]):
        self.source = source
        self.target = target
        self.psibar = tuple(psibar)
        if len(self.psibar) != self.source.nvars:
            raise AlgebraMismatch(
                f"psibar must have {self.source.nvars} components, got {len(self.psibar)}"
            )
        for i, p in enumerate(self.psibar):
            if p.nvars != self.target.nvars:
                raise AlgebraMismatch(f"psibar component {i} has wrong arity")
            if p.constant_term() != 0:
                raise BasePointViolation(
                    f"psibar component {i} has nonzero constant term"
                )
        # the quotient map is a ring homomorphism, so substituting the
        # classes of psibar in the target gives the class of gen(psibar)
        images = [target.from_polynomial(p) for p in self.psibar]
        for gen in source.ideal_generators():
            if not substitute_poly(gen, images, target.const).is_zero():
                raise IdealViolation(
                    f"generator {gen.format(source.names)} does not map into the target ideal"
                )
        # the image of each source basis monomial, by basis position
        self._basis_images = [
            substitute_poly(from_monomial(mono), images, target.const) for mono in source.basis
        ]

    def apply(self, element: WeilElement) -> WeilElement:
        """The sum of the basis images weighted by the coordinates, in
        basis order; a real element uses the images rounded to floats."""
        if element.algebra != self.source:
            raise AlgebraMismatch("element does not belong to the morphism's source")
        target = self.target
        images = [(c, image) for c, image in zip(element._v, self._basis_images) if c]
        if element.mode == REAL:
            acc = [0.0] * target.dimension
            for c, image in images:
                for k, x in enumerate(image._floats()):
                    if x:
                        acc[k] += x * c
            return _real(target, acc)
        den = math.lcm(*(image._den for _, image in images))
        acc = [0] * target.dimension
        for c, image in images:
            weight = c * (den // image._den)
            for k, x in enumerate(image._v):
                if x:
                    acc[k] += x * weight
        return _exact(target, acc, den * element._den)

    def compose(self, then: "WeilMorphism") -> "WeilMorphism":
        """The composite algebra map self.source -> then.target
        (apply self first, then ``then``); requires self.target == then.source."""
        if self.target != then.source:
            raise AlgebraMismatch("morphisms are not composable")
        new_psibar = [
            p.substitute(list(then.psibar), then.target.order) for p in self.psibar
        ]
        return WeilMorphism(self.source, then.target, new_psibar)

    def acts_same(self, other: "WeilMorphism") -> bool:
        """Action-level equality: same source/target and the same image
        for every quotient-basis element."""
        if self.source != other.source or self.target != other.target:
            return False
        return self._basis_images == other._basis_images

    def __eq__(self, other: object) -> bool:
        """Representative-level equality of the substitution data."""
        return (
            isinstance(other, WeilMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.psibar == other.psibar
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.psibar))

    def __repr__(self) -> str:
        comps = ", ".join(p.format(self.target.names) for p in self.psibar)
        return f"WeilMorphism([{comps}])"


def mk_morphism(
    source: WeilAlgebra, target: WeilAlgebra, psibar: Sequence[Polynomial]
) -> WeilMorphism:
    return WeilMorphism(source, target, psibar)


def identity_morphism(algebra: WeilAlgebra) -> WeilMorphism:
    psibar = [variable(algebra.nvars, i) for i in range(algebra.nvars)]
    return WeilMorphism(algebra, algebra, psibar)


def zero_morphism(source: WeilAlgebra, target: WeilAlgebra) -> WeilMorphism:
    """The augmentation-through-zero morphism (all psibar components 0)."""
    psibar = [Polynomial(target.nvars) for _ in range(source.nvars)]
    return WeilMorphism(source, target, psibar)


def apply_morphism(morphism: WeilMorphism, element: WeilElement) -> WeilElement:
    return morphism.apply(element)


def compose_morphism(first: WeilMorphism, second: WeilMorphism) -> WeilMorphism:
    """Composite of ``first`` followed by ``second``."""
    return first.compose(second)


# ---------------------------------------------------------------------------
# Tensor products


def _tensor_names(total: int) -> Tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(total))


def tensor(w1: WeilAlgebra, w2: WeilAlgebra) -> WeilAlgebra:
    """Tensor product, presented on the disjoint union of variable blocks
    (renamed positionally to x1..xN) with nilpotency k1 + k2 - 1.

    The relation list carries each factor's full ideal generator set —
    presented relations plus that factor's degree-k monomial witnesses —
    so the construction is the algebra tensor product on the nose and
    the dimension law dim(T) = dim(W1) * dim(W2) holds (Kolář, Michor &
    Slovák, Natural Operations in Differential Geometry, 1993, §35).

    The built state is written down from the factors' normal forms, with
    no echelon, and equals what echelonizing this presentation gives.
    Write a monomial below the order as x^a * y^b.  If x^a and y^b are
    basis monomials of their factors, x^a * y^b is a basis monomial of
    the tensor (its degree is at most k1 + k2 - 2).  Otherwise its row is
    x^a * y^b - NF1(x^a) * NF2(y^b), which lies in the ideal (a monomial
    at or above its factor's order has normal form 0); every other term
    of it is a product of basis monomials, graded-lex larger than
    x^a * y^b.  The rows have distinct pivots, and the dim(W1) * dim(W2)
    monomials left without one match the dimension of the quotient, so
    the rows span the ideal below the order: they are its reduced echelon
    rows with each pivot the row's smallest monomial, which are unique.
    Each factor keeps its embedded generators, so a repeated call
    re-embeds and rehashes nothing; the monomial cap is checked first.
    """
    total, order = w1.nvars + w2.nvars, w1.order + w2.order - 1
    _check_span(total, order)
    relations = _TensorRelations(
        w1._embedded_generators(total, 0) + w2._embedded_generators(total, w1.nvars),
        (w1, w2),
    )
    return WeilAlgebra(_tensor_names(total), relations, order)


def _tensor_of(w1: WeilAlgebra, w2: WeilAlgebra, t: WeilAlgebra | None) -> WeilAlgebra:
    """``t``, checked to be the tensor product of w1 and w2, or that
    product when ``t`` is None."""
    product = tensor(w1, w2)
    if t is None:
        return product
    if t != product:
        raise AlgebraMismatch(f"{t!r} is not the tensor product of the given factors")
    return t


def _factor_positions(t: WeilAlgebra, w1: WeilAlgebra, w2: WeilAlgebra):
    """``(positions, pairs)`` for t = w1 (x) w2: ``positions[i][j]`` is the
    basis position in t of the product of the i-th basis monomials of w1
    and the j-th of w2, and ``pairs[p]`` is the (i, j) of position p.
    The factor bases are the two variable blocks of t's basis, so the
    split alone determines the map, which t's built state keeps."""
    found = t._splits.get(w1.nvars)
    if found is None:
        index = t.basis_index
        positions = tuple(tuple(index[m1 + m2] for m2 in w2.basis) for m1 in w1.basis)
        at = {p: (i, j) for i, row in enumerate(positions) for j, p in enumerate(row)}
        found = t._splits[w1.nvars] = (positions, tuple(at[p] for p in range(t.dimension)))
    return found


def tensor_join(
    t: WeilAlgebra, w1: WeilAlgebra, w2: WeilAlgebra, parts: Mapping[int, WeilElement], mode: str
) -> WeilElement:
    """The element of t = w1 (x) w2 whose coordinate at the product of the
    i-th basis monomial of w1 and the j-th of w2 is coordinate j of
    ``parts[i]``, an element of w2 in ``mode``; a missing part is zero.
    Coordinates move by position: floats unchanged, exact numerators
    over the common denominator of the parts."""
    positions = _factor_positions(t, w1, w2)[0]
    if mode == REAL:
        vec = [0.0] * t.dimension
        for i, part in parts.items():
            for p, c in zip(positions[i], part._v):
                if c:
                    vec[p] = c
        return _real(t, vec)
    den = math.lcm(*(part._den for part in parts.values()))
    vec = [0] * t.dimension
    for i, part in parts.items():
        scale = den // part._den
        for p, n in zip(positions[i], part._v):
            if n:
                vec[p] = n * scale
    return _exact(t, vec, den)


def tensor_split(
    t: WeilAlgebra, w1: WeilAlgebra, w2: WeilAlgebra, element: WeilElement
) -> Dict[int, WeilElement]:
    """The inverse of ``tensor_join``: the nonzero parts of an element of
    t = w1 (x) w2, by basis position of w1, each an element of w2."""
    pairs = _factor_positions(t, w1, w2)[1]
    real = element.mode == REAL
    groups: Dict[int, list] = {}
    for (i, j), c in zip(pairs, element._v):
        if c:
            vec = groups.get(i)
            if vec is None:
                vec = groups[i] = [0.0 if real else 0] * w2.dimension
            vec[j] = c
    if real:
        return {i: _real(w2, vec) for i, vec in groups.items()}
    return {i: _exact(w2, vec, element._den) for i, vec in groups.items()}


def tensor_inclusions(
    w1: WeilAlgebra, w2: WeilAlgebra, t: WeilAlgebra | None = None
) -> Tuple[WeilMorphism, WeilMorphism]:
    """The two canonical inclusion morphisms W1 -> T and W2 -> T."""
    t = _tensor_of(w1, w2, t)
    total = t.nvars
    left = WeilMorphism(w1, t, [variable(total, i) for i in range(w1.nvars)])
    right = WeilMorphism(
        w2, t, [variable(total, w1.nvars + j) for j in range(w2.nvars)]
    )
    return left, right


def tensor_pair(
    w1: WeilAlgebra,
    w2: WeilAlgebra,
    a: WeilElement,
    b: WeilElement,
    t: WeilAlgebra | None = None,
) -> WeilElement:
    """The bilinear map (a, b) -> a*b into the tensor product, computed by
    basis bookkeeping: the product of two factor basis monomials is itself
    a basis monomial of T, at the position the tensor's factor map gives."""
    if a.algebra != w1 or b.algebra != w2:
        raise AlgebraMismatch("tensor_pair arguments do not match the factors")
    if a.mode != b.mode:
        raise ScalarModeError("mixed scalar modes in tensor_pair")
    t = _tensor_of(w1, w2, t)
    positions = _factor_positions(t, w1, w2)[0]
    vec = [0.0 if a.mode == REAL else 0] * t.dimension
    for row, c1 in zip(positions, a._v):
        if not c1:
            continue
        for p, c2 in zip(row, b._v):
            if c2:
                vec[p] = c1 * c2
    if a.mode == REAL:
        return _real(t, vec)
    return _exact(t, vec, a._den * b._den)


def tensor_morphism(
    psi1: WeilMorphism, psi2: WeilMorphism, source: WeilAlgebra | None = None, target: WeilAlgebra | None = None
) -> WeilMorphism:
    """psi1 (x) psi2 : tensor(src1, src2) -> tensor(tgt1, tgt2)."""
    source = _tensor_of(psi1.source, psi2.source, source)
    target = _tensor_of(psi1.target, psi2.target, target)
    total = target.nvars
    psibar: List[Polynomial] = []
    for p in psi1.psibar:
        psibar.append(embed_poly(p, total, 0))
    for p in psi2.psibar:
        psibar.append(embed_poly(p, total, psi1.target.nvars))
    return WeilMorphism(source, target, psibar)
