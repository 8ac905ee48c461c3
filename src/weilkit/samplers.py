"""Seeded random generators for algebras, elements, maps, and morphisms.

Everything here is driven by an explicit `random.Random` instance so
that suite cases replay byte-for-byte from their recorded case seed.
Case seeds are strings of the form ``"{seed}:{suite}:{index}"``; the
stdlib hashes the string through SHA-512, which is stable across
platforms and processes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

from .algebras import (
    RATIONAL,
    WeilAlgebra,
    WeilElement,
    WeilMorphism,
    preset_algebra,
    zero_morphism,
)
from .errors import IdealViolation, ImproperIdeal
from .expressions import Expr, SmoothMap, polynomial_map, polynomial_to_expr
from .polynomials import Polynomial, monomial_range


def case_label(seed: int, suite: str, index: int) -> str:
    return f"{seed}:{suite}:{index}"


def case_rng(seed: int, suite: str, index: int) -> random.Random:
    return random.Random(case_label(seed, suite, index))


def random_fraction(rng: random.Random, max_num: int = 9, max_den: int = 4) -> Fraction:
    num = rng.randint(-max_num, max_num)
    while num == 0:
        num = rng.randint(-max_num, max_num)
    return Fraction(num, rng.randint(1, max_den))


def random_element(
    rng: random.Random,
    algebra: WeilAlgebra,
    mode: str = RATIONAL,
    max_terms: int = 6,
    base_point: bool = False,
) -> WeilElement:
    """Sparse element with small rational coordinates; `base_point`
    forces a zero augmentation (a purely nilpotent element)."""
    count = rng.randint(1, min(max_terms, algebra.dimension))
    chosen = rng.sample(range(algebra.dimension), count)
    coords = {}
    for i in chosen:
        mono = algebra.basis[i]
        if base_point and not any(mono):
            continue
        coords[mono] = random_fraction(rng)
    element = algebra.element(coords)
    return element.to_real() if mode != RATIONAL else element


def random_polynomial(
    rng: random.Random,
    nvars: int,
    max_degree: int,
    max_terms: int = 5,
    min_degree: int = 0,
) -> Polynomial:
    pool = monomial_range(nvars, min_degree, max_degree + 1)
    if not pool:  # no variables and min_degree >= 1: only zero is left
        return Polynomial(nvars)
    count = rng.randint(1, min(max_terms, len(pool)))
    chosen = rng.sample(pool, count)
    return Polynomial._build(nvars, {m: random_fraction(rng) for m in chosen})


def random_weil_algebra(
    rng: random.Random,
    max_vars: int = 3,
    max_order: int = 4,
    max_dimension: int = 30,
) -> WeilAlgebra:
    """Random presentation with monomial/binomial relations, capped in
    dimension.  Falls back to a preset if sampling degenerates."""
    for _ in range(20):
        nvars = rng.randint(1, max_vars)
        order = rng.randint(2, max_order)
        relations: List[Polynomial] = []
        for _ in range(rng.randint(0, 3)):
            if order <= 2:
                break
            degree = rng.randint(2, order - 1)
            lead = rng.choice(monomial_range(nvars, degree, degree + 1))
            terms = {lead: Fraction(1)}
            if rng.random() < 0.5:
                other_degree = rng.randint(2, order - 1)
                other = rng.choice(monomial_range(nvars, other_degree, other_degree + 1))
                if other != lead:
                    terms[other] = random_fraction(rng, max_num=3, max_den=2)
            relations.append(Polynomial(nvars, terms))
        try:
            algebra = WeilAlgebra(_var_names(nvars), relations, order)
        except ImproperIdeal:
            continue
        if 2 <= algebra.dimension <= max_dimension:
            return algebra
    return preset_algebra(rng.choice(("dual", "jet2", "jet3", "d2")))


def _var_names(nvars: int) -> Tuple[str, ...]:
    return tuple(f"x{i + 1}" for i in range(nvars))


def random_poly_map(
    rng: random.Random, arity: int, coarity: int, max_degree: int = 3
) -> SmoothMap:
    polys = [random_polynomial(rng, arity, max_degree, max_terms=4) for _ in range(coarity)]
    return polynomial_map(arity, polys)


def random_smooth_map(
    rng: random.Random, arity: int, coarity: int = 1, max_degree: int = 3
) -> SmoothMap:
    """Maps mixing polynomials with primitives, kept domain-safe at any
    real point: log and sqrt only ever see 1 + (polynomial)²."""
    from .expressions import Add, Call, Const, Mul, Pow

    def poly(max_degree: int) -> Expr:
        return polynomial_to_expr(random_polynomial(rng, arity, max_degree, max_terms=4))

    def one_output() -> Expr:
        p = poly(max_degree)
        shape = rng.randrange(6)
        if shape == 0:
            return p
        if shape == 1:
            return Call(rng.choice(("sin", "cos", "exp")), p)
        if shape == 2:
            guarded = Add(Const(Fraction(1)), Pow(p, 2))
            return Call(rng.choice(("log", "sqrt")), guarded)
        if shape == 3:
            q = poly(2)
            return Mul(Call(rng.choice(("sin", "cos")), p), q)
        if shape == 4:
            q = poly(2)
            return Add(Call("exp", q), p)
        return Mul(p, Call("cos", poly(2)))

    return SmoothMap(arity, tuple(one_output() for _ in range(coarity)))


def random_morphism(
    rng: random.Random,
    source: WeilAlgebra,
    target: WeilAlgebra,
) -> WeilMorphism:
    """Rejection-sampled valid morphism in 25 attempts; the zero morphism
    is the always-valid fallback."""
    for _ in range(25):
        psibar = [
            Polynomial(target.nvars)
            if rng.random() < 0.15
            else random_polynomial(rng, target.nvars, target.order - 1, 3, min_degree=1)
            for _ in range(source.nvars)
        ]
        try:
            return WeilMorphism(source, target, psibar)
        except IdealViolation:
            continue
    return zero_morphism(source, target)


def random_point(
    rng: random.Random,
    algebra: WeilAlgebra,
    arity: int,
    mode: str = RATIONAL,
    **kwargs,
) -> Tuple[WeilElement, ...]:
    return tuple(
        random_element(rng, algebra, mode=mode, **kwargs) for _ in range(arity)
    )
