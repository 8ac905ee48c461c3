"""Finitely presented smooth function algebras with nilpotents, their
morphisms, and the evaluation functor probes.

Objects pair a free smooth part (n base variables, never truncated)
with a Weil algebra of nilpotent directions.  Carriers of an evaluated
space are tuples of polynomials in the base variables with Weil-element
coefficients, cut off at a degree bound so every space in sight is
finite-dimensional and the categorical identities can be checked by
exhaustive basis enumeration plus seeded random sampling.

Everything here is exact: coefficients are rational-mode elements, and
operations that would exceed a degree bound raise instead of silently
truncating base variables.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple

from .algebras import (
    RATIONAL,
    RingCoords,
    WeilAlgebra,
    WeilElement,
    _factor_positions,
    real_line_algebra,
    tensor,
)
from .errors import AlgebraMismatch, DegreeOverflow, IdealViolation
from .expressions import SmoothMap, Var, map_polynomials
from .lifting import Euclidean, FragmentSpace, Product
from .polynomials import (
    Monomial,
    Polynomial,
    _monomial,
    _monomial_value,
    monomials_up_to_degree,
    substitute_poly,
    times_power,
    unit_monomial,
)
from .reports import SuiteReport
from .samplers import (
    random_element,
    random_morphism,
    random_poly_map,
    random_polynomial,
    random_weil_algebra,
)

# ---------------------------------------------------------------------------
# polynomials over a Weil algebra


class WeilPoly(RingCoords):
    """Polynomial in free base variables whose coefficients are
    rational-mode elements of a fixed Weil algebra, one row per base
    monomial.  Base variables are never truncated; the nilpotent
    reduction happens inside the coefficients."""

    __slots__ = ("nvars", "algebra")

    def __init__(self, nvars: int, algebra: WeilAlgebra, terms: Mapping[Monomial, WeilElement]):
        for mono, coeff in terms.items():
            if len(mono) != nvars:
                raise AlgebraMismatch("monomial arity mismatch in coefficients")
            if coeff.algebra != algebra:
                raise AlgebraMismatch("coefficient outside the coefficient algebra")
            if coeff.mode != RATIONAL:
                raise AlgebraMismatch("carrier coefficients must be exact")
        self._from_elements(terms, nvars, algebra)

    def _fill(self, nvars: int, algebra: WeilAlgebra):
        self.nvars = nvars
        self.algebra = self._ring = algebra

    def _shape(self) -> tuple:
        return (self.nvars, self.algebra)

    def _key_rule(self):
        return (lambda m1, m2: ((m1.mul(m2), 1),)), 1

    def __repr__(self) -> str:
        return f"<wpoly {self.format()}>"

    def base_degree(self) -> int:
        return max((m.degree for m in self._rows), default=0)

    def format(self, names: Optional[Sequence[str]] = None) -> str:
        if not self.terms:
            return "0"
        names = tuple(names or (f"s{i + 1}" for i in range(self.nvars)))
        chunks = []
        for mono, coeff in self.terms.items():
            mono_s = mono.format(names)
            if mono_s == "1":
                chunks.append(f"({coeff.format()})")
            else:
                chunks.append(f"({coeff.format()})*{mono_s}")
        return " + ".join(chunks)

    def scale_element(self, element: WeilElement) -> "WeilPoly":
        # wpoly_element checks the element's mode, and mul its algebra
        return self.mul(wpoly_element(self.nvars, element))

    def pow_int(self, exponent: int) -> "WeilPoly":
        if exponent < 0:
            raise ValueError("carrier polynomials only take nonnegative powers")
        return times_power(wpoly_const(self.nvars, self.algebra, Fraction(1)), self, exponent)


def wpoly_zero(nvars: int, algebra: WeilAlgebra) -> WeilPoly:
    return WeilPoly(nvars, algebra, {})


def wpoly_const(nvars: int, algebra: WeilAlgebra, value: Fraction) -> WeilPoly:
    value = WeilAlgebra._coerce(value, RATIONAL)
    row = [value.numerator] + [0] * (algebra.dimension - 1)
    return WeilPoly._build({unit_monomial(nvars): row}, value.denominator, nvars, algebra)


def wpoly_element(nvars: int, element: WeilElement) -> WeilPoly:
    if element.mode != RATIONAL:
        raise AlgebraMismatch("carrier coefficients must be exact")
    return WeilPoly._build({unit_monomial(nvars): element._v}, element._den, nvars, element.algebra)


def wpoly_base_var(nvars: int, algebra: WeilAlgebra, index: int) -> WeilPoly:
    exps = tuple(1 if i == index else 0 for i in range(nvars))
    return WeilPoly._build({Monomial(exps): [1] + [0] * (algebra.dimension - 1)}, 1, nvars, algebra)


def wpoly_from_base(poly: Polynomial, algebra: WeilAlgebra) -> WeilPoly:
    """Each coefficient times the unit, which is basis position 0."""
    den = math.lcm(*(c.denominator for c in poly.terms.values()))
    rows = {}
    for mono, c in poly.terms.items():
        rows[mono] = row = [0] * algebra.dimension
        row[0] = c.numerator * (den // c.denominator)
    return WeilPoly._build(rows, den, poly.nvars, algebra)


# ---------------------------------------------------------------------------
# objects and their coproduct


@dataclass(frozen=True)
class Domain:
    """An object of the probe category: n free base variables tensored
    with a Weil algebra.  `blocks` remembers coproduct structure — the
    degree bound of a carrier applies per block, which is what makes the
    currying isomorphism an exact bijection of finite carriers."""

    base_arity: int
    weil: WeilAlgebra
    blocks: Tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.blocks is None:
            blocks = (self.base_arity,) if self.base_arity else ()
            object.__setattr__(self, "blocks", blocks)
        if sum(self.blocks) != self.base_arity or any(b <= 0 for b in self.blocks):
            raise AlgebraMismatch("blocks must be positive and sum to the base arity")

    def is_unit(self) -> bool:
        return self.base_arity == 0 and self.weil.dimension == 1 and self.weil.nvars == 0


def unit_domain() -> Domain:
    return Domain(0, real_line_algebra())


def domain_coproduct(c1: Domain, c2: Domain) -> Domain:
    """Base arities add (with block bookkeeping), Weil parts tensor; the
    unit object is absorbed literally so `C + unit = C` on the nose."""
    if c1.is_unit():
        return c2
    if c2.is_unit():
        return c1
    return Domain(
        c1.base_arity + c2.base_arity,
        tensor(c1.weil, c2.weil),
        c1.blocks + c2.blocks,
    )


@functools.lru_cache(maxsize=64)
def block_monomials(blocks: Tuple[int, ...], degree: int) -> Tuple[Monomial, ...]:
    """Monomials in sum(blocks) variables with degree <= `degree` inside
    each block separately; enumerated once per (blocks, degree)."""
    pools = [monomials_up_to_degree(b, degree) for b in blocks]
    return tuple(Monomial(itertools.chain.from_iterable(c)) for c in itertools.product(*pools))


# ---------------------------------------------------------------------------
# evaluated carriers


def space_dims(space: FragmentSpace) -> Tuple[int, ...]:
    if isinstance(space, Euclidean):
        return (space.dim,)
    if isinstance(space, Product):
        dims: Tuple[int, ...] = ()
        for f in space.factors:
            dims = dims + space_dims(f)
        return dims
    raise ValueError("carriers are only defined over Euclidean spaces and their products")


@dataclass(frozen=True)
class CarrierSpace:
    """The evaluated space: tuples of bounded-degree carrier polynomials,
    one per Euclidean coordinate, with enumeration hooks."""

    space: FragmentSpace
    domain: Domain
    degree: int

    @property
    def coords(self) -> int:
        return sum(space_dims(self.space))

    @property
    def monomial_count(self) -> int:
        return math.prod(
            math.comb(b + self.degree, self.degree) for b in self.domain.blocks
        )

    @property
    def dimension(self) -> int:
        return self.coords * self.monomial_count * self.domain.weil.dimension

    def basis(self) -> Iterator["CarrierPoint"]:
        n = self.domain.base_arity
        algebra = self.domain.weil
        zero = wpoly_zero(n, algebra)
        units = [algebra.basis_element(b)._v for b in algebra.basis]
        monomials = block_monomials(self.domain.blocks, self.degree)
        for slot in range(self.coords):
            for mono in monomials:
                for unit in units:
                    data = [zero] * self.coords
                    data[slot] = WeilPoly._build({mono: unit}, 1, n, algebra)
                    yield CarrierPoint(self.space, self.domain, tuple(data))


@dataclass(frozen=True)
class CarrierPoint:
    """A point of an evaluated space: a flat tuple of carrier polynomials
    shaped by the (product of Euclidean) space."""

    space: FragmentSpace
    domain: Domain
    data: Tuple[WeilPoly, ...]

    def __post_init__(self):
        if len(self.data) != sum(space_dims(self.space)):
            raise AlgebraMismatch("carrier tuple does not match the space shape")
        for wp in self.data:
            if wp.nvars != self.domain.base_arity or wp.algebra != self.domain.weil:
                raise AlgebraMismatch("carrier entry does not match the domain")


def carrier_space(space: FragmentSpace, domain: Domain, degree: int) -> CarrierSpace:
    space_dims(space)  # validates the shape
    if degree < 0:
        raise ValueError("degree bound must be nonnegative")
    return CarrierSpace(space, domain, degree)


def postcompose(phi: SmoothMap, point: CarrierPoint) -> CarrierPoint:
    """Functor action on maps of spaces: substitute the carrier tuple
    into a polynomial map and expand exactly."""
    polys = map_polynomials(phi)
    if polys is None:
        raise AlgebraMismatch("carrier actions are only defined for polynomial maps")
    if phi.arity != len(point.data):
        raise AlgebraMismatch("map arity does not match the carrier tuple")
    n, algebra = point.domain.base_arity, point.domain.weil
    const = lambda c: wpoly_const(n, algebra, c)
    powers: dict = {}
    outputs = tuple(substitute_poly(p, point.data, const, powers=powers) for p in polys)
    return CarrierPoint(Euclidean(phi.coarity), point.domain, outputs)


# ---------------------------------------------------------------------------
# morphisms of domains


class DomainMorphism:
    """A morphism is the data of where the source's generators go: each
    base variable and each Weil generator gets a carrier polynomial over
    the target, and the Weil images must annihilate every generator of
    the source's ideal (including the nilpotency witnesses) — checked
    exactly at construction.  Every generator is substituted: a carrier
    polynomial's base-variable terms are not nilpotent, so no witness of
    m^k can be skipped.  Being linear on Weil coordinates, a morphism
    then keeps ``_table``: at each source basis position b, the image of
    basis monomial b, read off the check's monomial values, as integer
    rows over one denominator ``_table_den`` for the whole table."""

    __slots__ = ("source", "target", "base_part", "weil_part", "_table", "_table_den")

    def __init__(
        self,
        source: Domain,
        target: Domain,
        base_part: Sequence[WeilPoly],
        weil_part: Sequence[WeilPoly],
    ):
        self.source = source
        self.target = target
        self.base_part = tuple(base_part)
        self.weil_part = tuple(weil_part)
        if len(self.base_part) != source.base_arity:
            raise AlgebraMismatch("one base image per source base variable required")
        if len(self.weil_part) != source.weil.nvars:
            raise AlgebraMismatch("one image per source Weil generator required")
        for wp in self.base_part + self.weil_part:
            if wp.nvars != target.base_arity or wp.algebra != target.weil:
                raise AlgebraMismatch("image outside the target carrier")
        n, algebra = target.base_arity, target.weil
        const = lambda c: wpoly_const(n, algebra, c)
        powers: dict = {}
        for gen in source.weil.ideal_generators():
            image = substitute_poly(gen, self.weil_part, const, powers=powers)
            if not image.is_zero():
                raise IdealViolation(
                    f"images do not annihilate the relation {gen.format(source.weil.names)}"
                )
        images = [const(Fraction(1))] + [  # the unit monomial is basis position 0
            _monomial_value(mono, self.weil_part, WeilPoly.mul, powers)
            for mono in source.weil.basis[1:]
        ]
        self._table_den = den = math.lcm(*(image._den for image in images))
        self._table = [
            {key: [x * (den // image._den) for x in row] for key, row in image._rows.items()}
            for image in images
        ]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DomainMorphism)
            and self.source == other.source
            and self.target == other.target
            and self.base_part == other.base_part
            and self.weil_part == other.weil_part
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, self.base_part, self.weil_part))

    def __repr__(self) -> str:
        bases = ", ".join(p.format() for p in self.base_part)
        weils = ", ".join(p.format() for p in self.weil_part)
        return f"<domain morphism base=({bases}) weil=({weils})>"

    def apply(self, wp: WeilPoly) -> WeilPoly:
        """Push a carrier polynomial over the source forward: a base
        monomial's coefficient row r becomes sum_b r_b * table[b], an
        integer row combination with no ring product, times the monomial's
        value at the base images.  A unit coefficient multiplies nothing,
        so a lone base variable returns its image itself, which is safe
        because no ring operation changes its operands."""
        return self._apply(wp, {})

    def _apply(self, wp: WeilPoly, powers: dict) -> WeilPoly:
        """``apply``, keeping base monomial values at the base images in
        ``powers``, which calls on the same morphism may share."""
        if wp.nvars != self.source.base_arity or wp.algebra != self.source.weil:
            raise AlgebraMismatch("carrier entry does not live over the source")
        n, algebra, table = self.target.base_arity, self.target.weil, self._table
        unit = [1] + [0] * (len(table) - 1) if wp._den == 1 else None
        zero, acc = [0] * algebra.dimension, None
        for mono, row in wp._rows.items():
            value = _monomial_value(mono, self.base_part, WeilPoly.mul, powers)  # None at unit
            if value is None or row != unit:
                rows: dict = {}
                for c, image in zip(row, table):
                    for key, r in image.items() if c else ():
                        rows[key] = [a + c * x for a, x in zip(rows.get(key, zero), r)]
                term = WeilPoly._build(rows, self._table_den * wp._den, n, algebra)
                value = term if value is None else value.mul(term)
            acc = value if acc is None else acc.add(value)
        return wpoly_zero(n, algebra) if acc is None else acc


def identity_domain_morphism(domain: Domain) -> DomainMorphism:
    n, algebra = domain.base_arity, domain.weil
    base_part = [wpoly_base_var(n, algebra, i) for i in range(n)]
    weil_part = [wpoly_element(n, algebra.var_element(j)) for j in range(algebra.nvars)]
    return DomainMorphism(domain, domain, base_part, weil_part)


def compose_domain_morphisms(first: DomainMorphism, second: DomainMorphism) -> DomainMorphism:
    """first then second (source of `second` must be `first`'s target)."""
    if first.target != second.source:
        raise AlgebraMismatch("morphisms do not compose")
    powers: dict = {}
    return DomainMorphism(
        first.source,
        second.target,
        [second._apply(p, powers) for p in first.base_part],
        [second._apply(p, powers) for p in first.weil_part],
    )


def induced_action(
    space: FragmentSpace, rho: DomainMorphism, degree: int
) -> Callable[[CarrierPoint], CarrierPoint]:
    """The candidate functorial action on evaluated spaces.  Substitution
    can only grow base degrees, so the result is checked against the
    bound and DegreeOverflow is raised rather than truncating.  The
    entries of one point share a table of monomial values at the images."""
    space_dims(space)

    def act(point: CarrierPoint) -> CarrierPoint:
        if point.domain != rho.source:
            raise AlgebraMismatch("carrier point does not live over the morphism source")
        if point.space != space:
            raise AlgebraMismatch("carrier point has the wrong space shape")
        images, powers = [], {}
        for wp in point.data:
            image = rho._apply(wp, powers)
            if image.base_degree() > degree:
                raise DegreeOverflow(
                    f"substitution reaches degree {image.base_degree()}, bound is {degree}"
                )
            images.append(image)
        return CarrierPoint(space, rho.target, tuple(images))

    return act


# ---------------------------------------------------------------------------
# currying


class CurriedValue(RingCoords):
    """A point of the curried side: for each (inner base monomial, inner
    Weil basis monomial) slot, a carrier polynomial over the outer
    domain.  Ring operations are computed natively — inner monomials
    multiply as free monomials, inner Weil coordinates through the inner
    structure constants — precisely so agreement with the uncurried ring
    is a real check, not a restatement.  Rows are keyed by (mu, nu,
    kappa): inner base monomial, inner basis monomial, outer base
    monomial, and run over the outer basis; ``slots`` (or ``terms``) is
    the view {(mu, nu): carrier polynomial of its kappa rows}."""

    __slots__ = ("inner_nvars", "inner_algebra", "outer_nvars", "outer_algebra")
    _sort_key = staticmethod(lambda key: (key[0].key(), key[1].key(), key[2].key()))

    def __init__(
        self,
        inner_nvars: int,
        inner_algebra: WeilAlgebra,
        outer_nvars: int,
        outer_algebra: WeilAlgebra,
        slots: Mapping[Tuple[Monomial, Monomial], WeilPoly],
    ):
        for (mu, nu), wp in slots.items():
            if len(mu) != inner_nvars or nu not in inner_algebra.basis_index:
                raise AlgebraMismatch("slot key outside the inner carrier")
            if wp.nvars != outer_nvars or wp.algebra != outer_algebra:
                raise AlgebraMismatch("slot value outside the outer carrier")
        coeffs = {(mu, nu, k): c for (mu, nu), wp in slots.items() for k, c in wp.terms.items()}
        self._from_elements(coeffs, inner_nvars, inner_algebra, outer_nvars, outer_algebra)

    def _fill(self, inner_nvars, inner_algebra, outer_nvars, outer_algebra):
        self.inner_nvars = inner_nvars
        self.inner_algebra = inner_algebra
        self.outer_nvars = outer_nvars
        self.outer_algebra = self._ring = outer_algebra

    @property
    def slots(self) -> Mapping[Tuple[Monomial, Monomial], WeilPoly]:
        return self.terms

    def _coefficients(self) -> dict:
        slots: Dict[Tuple[Monomial, Monomial], dict] = {}
        for (mu, nu, kappa), row in self._ordered():  # slot by slot, in order
            slots.setdefault((mu, nu), {})[kappa] = row
        n, outer = self.outer_nvars, self.outer_algebra
        return {key: WeilPoly._build(rows, self._den, n, outer) for key, rows in slots.items()}

    def _shape(self) -> tuple:
        return (self.inner_nvars, self.inner_algebra, self.outer_nvars, self.outer_algebra)

    def _key_rule(self):
        inner_product, den = self.inner_algebra._basis_rule(False)

        def product(k1, k2):
            mu, kappa = k1[0].mul(k2[0]), k1[2].mul(k2[2])
            return [((mu, nu, kappa), f) for nu, f in inner_product(k1[1], k2[1])]

        return product, den

    def __repr__(self) -> str:
        return f"<curried {len(self.slots)} slots>"


def curried_const(
    inner_nvars: int,
    inner_algebra: WeilAlgebra,
    outer_nvars: int,
    outer_algebra: WeilAlgebra,
    value: Fraction,
) -> CurriedValue:
    key = (unit_monomial(inner_nvars), unit_monomial(inner_algebra.nvars))
    slots = {key: wpoly_const(outer_nvars, outer_algebra, value)}  # a zero value has no rows
    return CurriedValue(inner_nvars, inner_algebra, outer_nvars, outer_algebra, slots)


@dataclass(frozen=True)
class CurryIso:
    """Coefficient regrouping between carriers over a two-block coproduct
    domain and curried values (inner block + inner algebra providing the
    slots, outer block + outer algebra providing the slot values)."""

    inner_nvars: int
    inner_algebra: WeilAlgebra
    outer_nvars: int
    outer_algebra: WeilAlgebra

    @functools.cached_property
    def coproduct(self) -> Domain:
        # cached: every regrouping reads it
        return domain_coproduct(
            Domain(self.inner_nvars, self.inner_algebra),
            Domain(self.outer_nvars, self.outer_algebra),
        )

    # forward regroups rows by the tensor's pair table and backward by its
    # position table, from a value already checked against its side
    def forward(self, wp: WeilPoly) -> CurriedValue:
        dom = self.coproduct
        if wp.nvars != dom.base_arity or wp.algebra != dom.weil:
            raise AlgebraMismatch("value does not live over the coproduct domain")
        n, inner, outer = self.inner_nvars, self.inner_algebra, self.outer_algebra
        pairs = _factor_positions(dom.weil, inner, outer)[1]
        rows = {}
        for mono, row in wp._rows.items():
            mu, kappa = _monomial(mono[:n]), _monomial(mono[n:])
            for p in itertools.compress(range(len(row)), row):
                i, j = pairs[p]
                key = (mu, inner.basis[i], kappa)
                slot = rows.get(key)
                if slot is None:
                    slot = rows[key] = [0] * outer.dimension
                slot[j] = row[p]
        return CurriedValue._build(rows, wp._den, n, inner, self.outer_nvars, outer)

    def backward(self, value: CurriedValue) -> WeilPoly:
        dom = self.coproduct
        positions = _factor_positions(dom.weil, self.inner_algebra, self.outer_algebra)[0]
        index = self.inner_algebra.basis_index
        rows = {}
        for (mu, nu, kappa), row in value._rows.items():
            mono = _monomial(mu + kappa)
            joined = rows.get(mono)
            if joined is None:
                joined = rows[mono] = [0] * dom.weil.dimension
            for p, c in zip(positions[index[nu]], row):
                if c:
                    joined[p] = c
        return WeilPoly._build(rows, value._den, dom.base_arity, dom.weil)


def curry_iso(
    coords: int,
    inner_nvars: int,
    outer_nvars: int,
    inner_algebra: WeilAlgebra,
    outer_algebra: WeilAlgebra,
    degree: int,
    rng: Optional[random.Random] = None,
    samples: int = 10,
    label: str = "",
) -> Tuple[CurryIso, SuiteReport]:
    """Build the regrouping and verify: round trips on the full carrier
    basis at the degree bound, and linearity on random pairs, for each of
    the `coords` components."""
    if coords < 1:
        raise ValueError("currying needs at least one coordinate")
    rng = rng or random.Random(0)
    iso = CurryIso(inner_nvars, inner_algebra, outer_nvars, outer_algebra)
    report = SuiteReport("currying")
    dom = iso.coproduct

    cspace = carrier_space(Euclidean(coords), dom, degree)
    units = [dom.weil.basis_element(b)._v for b in dom.weil.basis]
    basis_vectors = [
        WeilPoly._build({mono: unit}, 1, dom.base_arity, dom.weil)
        for mono in block_monomials(dom.blocks, degree)
        for unit in units
    ]
    # the carrier dimension formula counts exactly these vectors per slot
    report.record_case(
        cspace.dimension == coords * len(basis_vectors),
        {
            "case": label,
            "kind": "dimension-formula",
            "enumerated": len(basis_vectors),
            "formula": cspace.dimension,
        },
    )
    seen = set()
    for vi, vector in enumerate(basis_vectors):
        curried = iso.forward(vector)
        # one row: one curried slot, holding one outer term
        ok = iso.backward(curried) == vector and len(curried._rows) == 1
        if ok:
            # injectivity ledger: each image must be a fresh curried value
            ((key, row),) = curried._rows.items()
            image = (key, tuple(row), curried._den)
            ok = image not in seen
            seen.add(image)
        report.record_case(
            ok, {"case": label, "kind": "basis-round-trip", "vector": vi}
        )

    # the opposite direction: every curried basis slot pulls back and returns
    outer_units = [outer_algebra.basis_element(xi)._v for xi in outer_algebra.basis]
    curried_basis = [
        CurriedValue._build(
            {(mu, nu, kappa): unit}, 1, inner_nvars, inner_algebra, outer_nvars, outer_algebra
        )
        for mu in monomials_up_to_degree(inner_nvars, degree)
        for nu in inner_algebra.basis
        for kappa in monomials_up_to_degree(outer_nvars, degree)
        for unit in outer_units
    ]
    report.record_case(
        len(curried_basis) == len(basis_vectors),
        {
            "case": label,
            "kind": "curried-basis-count",
            "curried": len(curried_basis),
            "uncurried": len(basis_vectors),
        },
    )
    for vi, unit in enumerate(curried_basis):
        ok = iso.forward(iso.backward(unit)) == unit
        report.record_case(
            ok, {"case": label, "kind": "curried-round-trip", "vector": vi}
        )

    for i in range(samples):
        a = random_weil_poly(rng, dom, degree)
        b = random_weil_poly(rng, dom, degree)
        factor = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        linear = iso.forward(a.add(b)) == iso.forward(a).add(iso.forward(b))
        homogeneous = iso.forward(a.scale(factor)) == iso.forward(a).scale(factor)
        round_trip = iso.backward(iso.forward(a)) == a
        report.record_case(
            linear and homogeneous and round_trip,
            {
                "case": label,
                "kind": "linearity",
                "sample": i,
                "linear": linear,
                "homogeneous": homogeneous,
                "round_trip": round_trip,
            },
        )
    return iso, report


# ---------------------------------------------------------------------------
# samplers over domains


def random_weil_poly(
    rng: random.Random,
    domain: Domain,
    degree: int,
    max_terms: int = 4,
) -> WeilPoly:
    monos = block_monomials(domain.blocks, degree)
    count = rng.randint(1, min(max_terms, len(monos)))
    chosen = rng.sample(monos, count)
    return WeilPoly(
        domain.base_arity,
        domain.weil,
        {m: random_element(rng, domain.weil, max_terms=3) for m in chosen},
    )


def random_carrier_point(
    rng: random.Random,
    space: FragmentSpace,
    domain: Domain,
    degree: int,
) -> CarrierPoint:
    total = sum(space_dims(space))
    return CarrierPoint(
        space,
        domain,
        tuple(random_weil_poly(rng, domain, degree) for _ in range(total)),
    )


def random_domain(rng: random.Random) -> Domain:
    return Domain(
        rng.randint(0, 2),
        random_weil_algebra(rng, max_vars=2, max_order=3, max_dimension=8),
    )


def random_domain_morphism(
    rng: random.Random,
    source: Domain,
    target: Domain,
) -> DomainMorphism:
    """Base images are unconstrained carrier polynomials of base degree at
    most 2; Weil images are drawn either from a valid Weil-algebra
    morphism (constant in the base variables) or, by rejection in 15
    attempts, from base-dependent candidates with nilpotent coefficients,
    falling back to a morphism."""
    n = target.base_arity
    base_part = [
        random_weil_poly(rng, target, 2, max_terms=3)
        for _ in range(source.base_arity)
    ]

    if rng.random() >= 0.5:
        for _ in range(15):
            candidate = []
            for _ in range(source.weil.nvars):
                nil = random_element(rng, target.weil, max_terms=2, base_point=True)
                if nil.is_zero():
                    nil = target.weil.var_element(0) if target.weil.nvars else target.weil.zero()
                poly_factor = (
                    random_polynomial(rng, n, 2, max_terms=2)
                    if n
                    else Polynomial(0, {unit_monomial(0): Fraction(1)})
                )
                candidate.append(wpoly_from_base(poly_factor, target.weil).scale_element(nil))
            try:
                return DomainMorphism(source, target, base_part, candidate)
            except IdealViolation:
                continue
    psi = random_morphism(rng, source.weil, target.weil)
    weil_part = [
        wpoly_element(n, psi.apply(source.weil.var_element(j)))
        for j in range(source.weil.nvars)
    ]
    return DomainMorphism(source, target, base_part, weil_part)


# ---------------------------------------------------------------------------
# the categorical checks


def check_product_splitting(
    x_space: Euclidean,
    y_space: Euclidean,
    domain: Domain,
    degree: int,
    samples: int,
    rng: Optional[random.Random] = None,
    label: str = "",
) -> SuiteReport:
    """Evaluation sends products of spaces to products of carriers: the
    carrier over X x Y is the concatenation of the carriers, dimensions
    add, and the two projections commute with the identification."""
    rng = rng or random.Random(0)
    report = SuiteReport("pairing")
    p, q = x_space.dim, y_space.dim
    both = carrier_space(Product((x_space, y_space)), domain, degree)
    left = carrier_space(x_space, domain, degree)
    right = carrier_space(y_space, domain, degree)
    report.record_case(
        both.dimension == left.dimension + right.dimension,
        {
            "case": label,
            "kind": "dimension-additivity",
            "product": both.dimension,
            "left": left.dimension,
            "right": right.dimension,
        },
    )
    enumerated = sum(1 for _ in both.basis())
    report.record_case(
        enumerated == both.dimension,
        {"case": label, "kind": "basis-enumeration", "count": enumerated},
    )

    proj1 = SmoothMap(p + q, tuple(Var(i) for i in range(p)))
    proj2 = SmoothMap(p + q, tuple(Var(i) for i in range(p, p + q)))
    for i in range(samples):
        z = random_carrier_point(rng, Product((x_space, y_space)), domain, degree)
        flat = CarrierPoint(Euclidean(p + q), domain, z.data)
        split_ok = (
            postcompose(proj1, flat).data == z.data[:p]
            and postcompose(proj2, flat).data == z.data[p:]
        )

        arity = rng.randint(1, 2)
        f = random_poly_map(rng, arity, p + q, max_degree=2)
        args = random_carrier_point(rng, Euclidean(arity), domain, degree)
        joint = postcompose(f, args)
        paired = postcompose(f.select(range(p)), args).data + postcompose(
            f.select(range(p, p + q)), args
        ).data
        report.record_case(
            split_ok and joint.data == paired,
            {
                "case": label,
                "sample": i,
                "kind": "pairing-law",
                "projections": split_ok,
                "pairing": joint.data == paired,
            },
        )
    return report


def check_coproduct_currying(
    x_space: Euclidean,
    c1: Domain,
    c2: Domain,
    degree: int,
    samples: int,
    rng: Optional[random.Random] = None,
    label: str = "",
) -> SuiteReport:
    """The carrier over a coproduct domain agrees with the carrier of the
    once-evaluated space over the second factor: dimensions match (with
    the inner carrier flattened to a Euclidean space), currying is a
    linear bijection, and it commutes with postcomposition by polynomial
    maps computed independently on each side."""
    rng = rng or random.Random(0)
    report = SuiteReport("coproduct-currying")
    if c1.blocks not in ((), (c1.base_arity,)) or c2.blocks not in ((), (c2.base_arity,)):
        raise AlgebraMismatch("currying probes single-block factors")

    p = x_space.dim
    coproduct = domain_coproduct(c1, c2)
    side1 = carrier_space(x_space, coproduct, degree)
    inner = carrier_space(x_space, c1, degree)
    outer = carrier_space(Euclidean(1), c2, degree)
    side2 = carrier_space(Euclidean(inner.dimension), c2, degree)
    formula = (
        p
        * inner.monomial_count
        * c1.weil.dimension
        * outer.monomial_count
        * c2.weil.dimension
    )
    report.record_case(
        side1.dimension == formula and side2.dimension == formula,
        {
            "case": label,
            "kind": "dimension-match",
            "coproduct-side": side1.dimension,
            "curried-side": side2.dimension,
            "formula": formula,
        },
    )

    iso, iso_report = curry_iso(
        p, c1.base_arity, c2.base_arity, c1.weil, c2.weil, degree,
        rng=rng, samples=samples, label=label,
    )
    report.merge(iso_report)

    # naturality: postcompose with a random polynomial map, then curry —
    # against curry first, then the same substitution in curried
    # arithmetic (inner structure constants, never the tensor product)
    for i in range(samples):
        f = random_poly_map(rng, p, p, max_degree=2)
        polys = map_polynomials(f)
        point = random_carrier_point(rng, x_space, coproduct, degree)
        path1 = tuple(iso.forward(wp) for wp in postcompose(f, point).data)
        curried_args = tuple(iso.forward(wp) for wp in point.data)
        const = lambda c: curried_const(
            c1.base_arity, c1.weil, c2.base_arity, c2.weil, c
        )
        powers: dict = {}
        path2 = tuple(substitute_poly(poly, curried_args, const, powers=powers) for poly in polys)
        report.record_case(
            path1 == path2,
            {"case": label, "sample": i, "kind": "curry-naturality"},
        )
    return report


def probe_functoriality(
    space: Euclidean,
    degree: int,
    samples: int,
    rng: Optional[random.Random] = None,
    label: str = "",
) -> SuiteReport:
    """Empirical probe of whether the induced action composes: for sampled
    composable pairs (base images of degree 2), identity fixes one random
    degree-1 carrier point (one point, no basis: ROADMAP item 4) and the
    action of the composite on it equals the composite of actions.
    The outcome is labeled evidence, never proof; a failing sample is
    serialized verbatim as a counterexample."""
    rng = rng or random.Random(0)
    report = SuiteReport("conjecture-probe")
    report.extra["outcome"] = "evidence-for"

    for i in range(samples):
        a = random_domain(rng)
        b = random_domain(rng)
        c = random_domain(rng)
        rho = random_domain_morphism(rng, a, b)
        sigma = random_domain_morphism(rng, b, c)
        composite = compose_domain_morphisms(rho, sigma)

        ident = identity_domain_morphism(a)
        id_act = induced_action(space, ident, degree)
        act_rho = induced_action(space, rho, degree)
        act_sigma = induced_action(space, sigma, degree)
        act_comp = induced_action(space, composite, degree)

        point = random_carrier_point(rng, space, a, 1)
        identity_ok = id_act(point).data == point.data
        lhs = act_comp(point)
        rhs = act_sigma(act_rho(point))
        compose_ok = lhs.data == rhs.data
        if not (identity_ok and compose_ok):
            report.extra["outcome"] = "counterexample"
        report.record_case(
            identity_ok and compose_ok,
            lambda: {
                "case": label,
                "sample": i,
                "kind": "composition-law",
                "identity": identity_ok,
                "compose": compose_ok,
                "first": repr(rho),
                "second": repr(sigma),
                "point": [wp.format() for wp in point.data],
                "composite-action": [wp.format() for wp in lhs.data],
                "staged-action": [wp.format() for wp in rhs.data],
            },
        )
    return report
