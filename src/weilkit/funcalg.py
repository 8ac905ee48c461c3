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
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .algebras import (
    RATIONAL,
    RingCoords,
    WeilAlgebra,
    WeilElement,
    real_line_algebra,
    tensor,
    tensor_join,
    tensor_split,
)
from .errors import AlgebraMismatch, DegreeOverflow, IdealViolation
from .expressions import SmoothMap, Var, map_polynomials
from .lifting import Euclidean, FragmentSpace, Product
from .polynomials import (
    Monomial,
    Polynomial,
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
    rational-mode elements of a fixed Weil algebra.  Base variables are
    never truncated; the nilpotent reduction happens inside the
    coefficients."""

    __slots__ = ("nvars", "algebra")

    def __init__(self, nvars: int, algebra: WeilAlgebra, terms: Mapping[Monomial, WeilElement]):
        self.nvars = nvars
        self.algebra = algebra
        clean: Dict[Monomial, WeilElement] = {}
        for mono, coeff in sorted(terms.items(), key=lambda kv: kv[0].key()):
            if len(mono) != nvars:
                raise AlgebraMismatch("monomial arity mismatch in coefficients")
            if coeff.algebra != algebra:
                raise AlgebraMismatch("coefficient outside the coefficient algebra")
            if coeff.mode != RATIONAL:
                raise AlgebraMismatch("carrier coefficients must be exact")
            if not coeff.is_zero():
                clean[mono] = coeff
        self.terms = clean

    def _shape(self) -> tuple:
        return (self.nvars, self.algebra)

    def _key_product(self, m1: Monomial, m2: Monomial):
        return ((m1.mul(m2), 1),)

    def __repr__(self) -> str:
        return f"<wpoly {self.format()}>"

    def base_degree(self) -> int:
        return max((m.degree for m in self.terms), default=0)

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
        return WeilPoly(
            self.nvars, self.algebra, {m: c.mul(element) for m, c in self.terms.items()}
        )

    def pow_int(self, exponent: int) -> "WeilPoly":
        if exponent < 0:
            raise ValueError("carrier polynomials only take nonnegative powers")
        return times_power(wpoly_const(self.nvars, self.algebra, Fraction(1)), self, exponent)


def wpoly_zero(nvars: int, algebra: WeilAlgebra) -> WeilPoly:
    return WeilPoly(nvars, algebra, {})


def wpoly_const(nvars: int, algebra: WeilAlgebra, value: Fraction) -> WeilPoly:
    return WeilPoly(nvars, algebra, {unit_monomial(nvars): algebra.const(value)})


def wpoly_element(nvars: int, element: WeilElement) -> WeilPoly:
    return WeilPoly(nvars, element.algebra, {unit_monomial(nvars): element})


def wpoly_base_var(nvars: int, algebra: WeilAlgebra, index: int) -> WeilPoly:
    exps = tuple(1 if i == index else 0 for i in range(nvars))
    return WeilPoly(nvars, algebra, {Monomial(exps): algebra.one()})


def wpoly_from_base(poly: Polynomial, algebra: WeilAlgebra) -> WeilPoly:
    return WeilPoly(
        poly.nvars, algebra, {m: algebra.const(c) for m, c in poly.terms.items()}
    )


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


def block_monomials(blocks: Tuple[int, ...], degree: int) -> Iterator[Monomial]:
    """Monomials in sum(blocks) variables with degree <= `degree` inside
    each block separately."""
    pools = [monomials_up_to_degree(b, degree) for b in blocks]
    for combo in itertools.product(*pools):
        yield Monomial(itertools.chain.from_iterable(combo))


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

    def monomials(self) -> List[Monomial]:
        return list(block_monomials(self.domain.blocks, self.degree))

    def basis(self) -> Iterator["CarrierPoint"]:
        n = self.domain.base_arity
        algebra = self.domain.weil
        zero = wpoly_zero(n, algebra)
        for slot in range(self.coords):
            for mono in self.monomials():
                for basis_mono in algebra.basis:
                    data = [zero] * self.coords
                    data[slot] = WeilPoly(
                        n, algebra, {mono: algebra.basis_element(basis_mono)}
                    )
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
    outputs = tuple(substitute_poly(p, point.data, const) for p in polys)
    return CarrierPoint(Euclidean(phi.coarity), point.domain, outputs)


# ---------------------------------------------------------------------------
# morphisms of domains


class DomainMorphism:
    """A morphism is the data of where the source's generators go: each
    base variable and each Weil generator gets a carrier polynomial over
    the target, and the Weil images must annihilate every generator of
    the source's ideal (including the nilpotency witnesses) — checked
    exactly at construction."""

    __slots__ = ("source", "target", "base_part", "weil_part")

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
        for gen in source.weil.ideal_generators():
            image = substitute_poly(gen, self.weil_part, const)
            if not image.is_zero():
                raise IdealViolation(
                    f"images do not annihilate the relation {gen.format(source.weil.names)}"
                )

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
        """Push a carrier polynomial over the source forward: base
        variables and Weil coordinates are replaced by their images."""
        if wp.nvars != self.source.base_arity or wp.algebra != self.source.weil:
            raise AlgebraMismatch("carrier entry does not live over the source")
        flat = Polynomial(
            wp.nvars + wp.algebra.nvars,
            {
                Monomial(mono + nil): c
                for mono, coeff in wp.terms.items()
                for nil, c in coeff.coords.items()
            },
        )
        n, algebra = self.target.base_arity, self.target.weil
        const = lambda c: wpoly_const(n, algebra, c)
        return substitute_poly(flat, self.base_part + self.weil_part, const)


def identity_domain_morphism(domain: Domain) -> DomainMorphism:
    n, algebra = domain.base_arity, domain.weil
    base_part = [wpoly_base_var(n, algebra, i) for i in range(n)]
    weil_part = [wpoly_element(n, algebra.var_element(j)) for j in range(algebra.nvars)]
    return DomainMorphism(domain, domain, base_part, weil_part)


def compose_domain_morphisms(first: DomainMorphism, second: DomainMorphism) -> DomainMorphism:
    """first then second (source of `second` must be `first`'s target)."""
    if first.target != second.source:
        raise AlgebraMismatch("morphisms do not compose")
    return DomainMorphism(
        first.source,
        second.target,
        [second.apply(p) for p in first.base_part],
        [second.apply(p) for p in first.weil_part],
    )


def induced_action(
    space: FragmentSpace, rho: DomainMorphism, degree: int
) -> Callable[[CarrierPoint], CarrierPoint]:
    """The candidate functorial action on evaluated spaces.  Substitution
    can only grow base degrees, so the result is checked against the
    bound and DegreeOverflow is raised rather than truncating."""
    space_dims(space)

    def act(point: CarrierPoint) -> CarrierPoint:
        if point.domain != rho.source:
            raise AlgebraMismatch("carrier point does not live over the morphism source")
        if point.space != space:
            raise AlgebraMismatch("carrier point has the wrong space shape")
        images = []
        for wp in point.data:
            image = rho.apply(wp)
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
    is a real check, not a restatement."""

    __slots__ = ("inner_nvars", "inner_algebra", "outer_nvars", "outer_algebra")

    def __init__(
        self,
        inner_nvars: int,
        inner_algebra: WeilAlgebra,
        outer_nvars: int,
        outer_algebra: WeilAlgebra,
        slots: Mapping[Tuple[Monomial, Monomial], WeilPoly],
    ):
        self.inner_nvars = inner_nvars
        self.inner_algebra = inner_algebra
        self.outer_nvars = outer_nvars
        self.outer_algebra = outer_algebra
        clean: Dict[Tuple[Monomial, Monomial], WeilPoly] = {}
        for key in sorted(slots, key=lambda k: (k[0].key(), k[1].key())):
            wp = slots[key]
            mu, nu = key
            if len(mu) != inner_nvars or nu not in inner_algebra.basis_index:
                raise AlgebraMismatch("slot key outside the inner carrier")
            if wp.nvars != outer_nvars or wp.algebra != outer_algebra:
                raise AlgebraMismatch("slot value outside the outer carrier")
            if not wp.is_zero():
                clean[key] = wp
        self.terms = clean

    @property
    def slots(self) -> Dict[Tuple[Monomial, Monomial], WeilPoly]:
        return self.terms

    def _shape(self) -> tuple:
        return (self.inner_nvars, self.inner_algebra, self.outer_nvars, self.outer_algebra)

    def _key_product(self, k1: Tuple[Monomial, Monomial], k2: Tuple[Monomial, Monomial]):
        mu = k1[0].mul(k2[0])
        return [((mu, nu), c) for nu, c in self.inner_algebra.basis_product(k1[1], k2[1])]

    def __repr__(self) -> str:
        return f"<curried {len(self.terms)} slots>"


def curried_const(
    inner_nvars: int,
    inner_algebra: WeilAlgebra,
    outer_nvars: int,
    outer_algebra: WeilAlgebra,
    value: Fraction,
) -> CurriedValue:
    slots = {}
    if value != 0:
        key = (unit_monomial(inner_nvars), unit_monomial(inner_algebra.nvars))
        slots[key] = wpoly_const(outer_nvars, outer_algebra, value)
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

    def forward(self, wp: WeilPoly) -> CurriedValue:
        dom = self.coproduct
        if wp.nvars != dom.base_arity or wp.algebra != dom.weil:
            raise AlgebraMismatch("value does not live over the coproduct domain")
        n, inner, outer = self.inner_nvars, self.inner_algebra, self.outer_algebra
        slots: Dict[Tuple[Monomial, Monomial], Dict[Monomial, WeilElement]] = {}
        for mono, coeff in wp.terms.items():
            mu, kappa = Monomial(mono[:n]), Monomial(mono[n:])
            for i, part in tensor_split(dom.weil, inner, outer, coeff).items():
                slots.setdefault((mu, inner.basis[i]), {})[kappa] = part
        built = {key: WeilPoly(self.outer_nvars, outer, polys) for key, polys in slots.items()}
        return CurriedValue(self.inner_nvars, inner, self.outer_nvars, outer, built)

    def backward(self, value: CurriedValue) -> WeilPoly:
        dom = self.coproduct
        inner, outer = self.inner_algebra, self.outer_algebra
        parts: Dict[Monomial, Dict[int, WeilElement]] = {}
        for (mu, nu), wp in value.terms.items():
            for kappa, element in wp.terms.items():
                mono = Monomial(mu + kappa)
                parts.setdefault(mono, {})[inner.basis_index[nu]] = element
        return WeilPoly(
            dom.base_arity,
            dom.weil,
            {
                mono: tensor_join(dom.weil, inner, outer, by_slot, RATIONAL)
                for mono, by_slot in parts.items()
            },
        )


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
    basis_vectors = [
        WeilPoly(dom.base_arity, dom.weil, {mono: dom.weil.basis_element(b)})
        for mono in block_monomials(dom.blocks, degree)
        for b in dom.weil.basis
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
    seen: Dict[Tuple[Monomial, Monomial], int] = {}
    for vi, vector in enumerate(basis_vectors):
        curried = iso.forward(vector)
        ok = iso.backward(curried) == vector and len(curried.terms) == 1
        if ok:
            # injectivity ledger: each image must be a fresh curried slot
            ((mu, nu), wp) = next(iter(curried.terms.items()))
            wp_key = (mu, nu, tuple(wp.terms.items()))
            ok = wp_key not in seen
            seen[wp_key] = vi
        report.record_case(
            ok, {"case": label, "kind": "basis-round-trip", "vector": vi}
        )

    # the opposite direction: every curried basis slot pulls back and returns
    curried_basis = [
        CurriedValue(
            inner_nvars,
            inner_algebra,
            outer_nvars,
            outer_algebra,
            {
                (mu, nu): WeilPoly(
                    outer_nvars, outer_algebra, {kappa: outer_algebra.basis_element(xi)}
                )
            },
        )
        for mu in monomials_up_to_degree(inner_nvars, degree)
        for nu in inner_algebra.basis
        for kappa in monomials_up_to_degree(outer_nvars, degree)
        for xi in outer_algebra.basis
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
    monos = list(block_monomials(domain.blocks, degree))
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
    base_degree: int = 2,
) -> DomainMorphism:
    """Base images are unconstrained carrier polynomials; Weil images are
    drawn either from a valid Weil-algebra morphism (constant in the base
    variables) or, by rejection in 15 attempts, from base-dependent
    candidates with nilpotent coefficients, falling back to a morphism."""
    n = target.base_arity
    base_part = [
        random_weil_poly(rng, target, base_degree, max_terms=3)
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
                    random_polynomial(rng, n, base_degree, max_terms=2)
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
        path2 = tuple(substitute_poly(poly, curried_args, const) for poly in polys)
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
    """Empirical probe of whether the induced action composes: identity
    acts as identity on every basis vector, and for sampled composable
    pairs (base images of degree 2) the action of the composite on a
    degree-1 carrier point equals the composite of actions.
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
            {
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
