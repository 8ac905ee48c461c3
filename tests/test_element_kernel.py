"""The dense element kernel against a sparse reference.

The reference below is the sparse arithmetic the kernel replaced: each
element is a {basis monomial: scalar} dict in graded-lex order, and a
product runs over pairs of nonzero coordinates and the algebra's
``basis_product``.  In real mode a structure constant is a ``Fraction``,
so ``float * Fraction`` rounds as ``float * float(f)``.  Exact results
must be equal; real results must agree in every bit (``float.hex``).
"""

import hashlib
import math
import random
from fractions import Fraction

import pytest
from expr_corpus import CORPUS

from weilkit import samplers
from weilkit.algebras import (
    PRESETS,
    RATIONAL,
    REAL,
    WeilPresentation,
    jet_algebra,
    mk_weil_algebra,
    preset_algebra,
    real_line_algebra,
    tensor,
)
from weilkit.errors import DomainError, ScalarModeError
from weilkit.expressions import parse_smooth_map
from weilkit.lifting import taylor_lift_at
from weilkit.polynomials import Monomial


def _algebras():
    yield from (preset_algebra(name) for name in PRESETS)
    yield real_line_algebra()
    yield from (jet_algebra(k) for k in range(2, 17))
    rng = random.Random(20261018)
    for _ in range(200):
        yield samplers.random_weil_algebra(rng, max_vars=3, max_order=5, max_dimension=40)
    for _ in range(22):
        yield tensor(samplers.random_weil_algebra(rng), samplers.random_weil_algebra(rng))


# ---------------------------------------------------------------------------
# the sparse reference


def _zero(mode):
    return Fraction(0) if mode == RATIONAL else 0.0


def _clean(w, terms):
    return {m: terms[m] for m in w.basis if terms.get(m, 0) != 0}


def ref_add(w, a, b, mode):
    acc = dict(a)
    for m, c in b.items():
        acc[m] = acc.get(m, _zero(mode)) + c
    return _clean(w, acc)


def ref_neg(w, a):
    return {m: -c for m, c in a.items()}


def ref_scale(w, a, f):
    return _clean(w, {m: c * f for m, c in a.items()}) if f != 0 else {}


def ref_mul(w, a, b, mode):
    acc = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            c = c1 * c2
            for m, f in w.basis_product(m1, m2):
                s = acc.get(m, _zero(mode)) + c * f
                if s != 0:
                    acc[m] = s
                else:
                    acc.pop(m, None)
    return _clean(w, acc)


def ref_inverse(w, a, mode):
    unit = w.basis[0]
    a0 = a.get(unit, _zero(mode))
    inv_a0 = Fraction(1) / a0 if mode == RATIONAL else 1.0 / a0
    nil = {m: c for m, c in a.items() if m != unit}
    u = ref_scale(w, nil, -inv_a0)
    one = {unit: Fraction(1) if mode == RATIONAL else 1.0}
    acc, term = dict(one), dict(one)
    for _ in range(1, w.order):
        term = ref_mul(w, term, u, mode)
        if not term:
            break
        acc = ref_add(w, acc, term, mode)
    return ref_scale(w, acc, inv_a0)


def ref_to_real(w, a):
    return _clean(w, {m: float(c) for m, c in a.items()})


def _bits(terms):
    """Exact terms as they are; real terms by the hex of every float."""
    return [(m, c.hex() if isinstance(c, float) else c) for m, c in terms.items()]


def _random_terms(rng, w, mode, unit=False):
    count = rng.randint(1, min(6, w.dimension))
    chosen = rng.sample(range(w.dimension), count)
    if unit and 0 not in chosen:
        chosen.append(0)
    if mode == RATIONAL:
        draw = lambda: Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 12))
    else:
        draw = lambda: rng.uniform(-3.0, 3.0)
    return _clean(w, {w.basis[i]: draw() for i in chosen})


# ---------------------------------------------------------------------------
# equivalence


@pytest.mark.parametrize("mode", [RATIONAL, REAL])
def test_dense_kernel_matches_the_sparse_reference(mode):
    rng = random.Random(f"kernel:{mode}")
    algebras = fractional = 0
    for w in _algebras():
        algebras += 1
        fractional += any(c.denominator > 1 for row in w._mul_table.values() for _, c in row)
        for _ in range(3):
            a_terms = _random_terms(rng, w, mode, unit=True)
            b_terms = _random_terms(rng, w, mode)
            a, b = w.element(a_terms, mode), w.element(b_terms, mode)
            assert _bits(a.coords) == _bits(a_terms)
            assert _bits(a.mul(b).coords) == _bits(ref_mul(w, a_terms, b_terms, mode)), w
            assert _bits(b.mul(a).coords) == _bits(ref_mul(w, b_terms, a_terms, mode)), w
            assert _bits(a.add(b).coords) == _bits(ref_add(w, a_terms, b_terms, mode))
            assert _bits(a.neg().coords) == _bits(ref_neg(w, a_terms))
            factor = Fraction(-7, 3) if mode == RATIONAL else -2.3
            assert _bits(a.scale(factor).coords) == _bits(ref_scale(w, a_terms, factor))
            assert _bits(a.inverse().coords) == _bits(ref_inverse(w, a_terms, mode)), w
            if mode == RATIONAL:
                assert _bits(a.to_real().coords) == _bits(ref_to_real(w, a_terms))
    assert algebras == 242 and fractional >= 10


def test_equal_exact_elements_are_one_vector():
    rng = random.Random(7)
    for w in _algebras():
        a = w.element(_random_terms(rng, w, RATIONAL, unit=True))
        b = w.element(_random_terms(rng, w, RATIONAL))
        ab, ba = a.mul(b), b.mul(a)
        assert ab == ba and hash(ab) == hash(ba)
        rebuilt = w.element(dict(ab.coords))
        assert rebuilt == ab and hash(rebuilt) == hash(ab)
        back = a.add(b).sub(b)
        assert back == a and hash(back) == hash(a)
        one = a.inverse().mul(a)
        assert one == w.one() and hash(one) == hash(w.one())
        zero = ab.sub(ba)
        assert zero == w.zero() and hash(zero) == hash(w.zero()) and zero.is_zero()
        # lowest terms overall: the gcd of numerators and denominator is 1
        for e in (a, b, ab, back, one, zero):
            assert e._den > 0 and math.gcd(e._den, *e._v) == 1
            assert all(type(n) is int for n in e._v)


def test_coords_is_a_cached_read_only_view():
    w = preset_algebra("d2")
    e = w.element({Monomial((0, 0)): Fraction(1, 2), Monomial((1, 0)): Fraction(3)})
    assert e.coords is e.coords
    assert dict(e.coords) == {Monomial((0, 0)): Fraction(1, 2), Monomial((1, 0)): Fraction(3)}
    assert e.coords.get(Monomial((0, 1)), 0) == 0 and len(e.coords) == 2
    with pytest.raises(TypeError):
        e.coords[Monomial((0, 1))] = Fraction(1)
    r = e.to_real()
    assert dict(r.coords) == {Monomial((0, 0)): 0.5, Monomial((1, 0)): 3.0}
    assert w.zero(REAL).coords == {} and len(w.zero().coords) == 0


def test_structure_constant_beyond_float_range_is_a_domain_error():
    w = mk_weil_algebra(WeilPresentation(("x", "y"), (f"x^2 - {10 ** 400}*y^3",), 4))
    x = w.var_element(0)
    assert x.mul(x) == w.var_element(1).pow_int(3).scale(10**400)
    with pytest.raises(DomainError, match="out of float range"):
        x.to_real().mul(x.to_real())


# ---------------------------------------------------------------------------
# exact corpus lifts

# sha256 of the coordinates of every corpus lift over jet_algebra(2, 4, 8,
# 12, 16) that rational mode computes, at each point read as a Fraction.
# Exact results must never move; real-mode lifts are held to an accuracy
# bound against mpmath instead (test_accuracy.py)
CORPUS_EXACT_SHA256 = "97d4f07e3c0ed9b0bbcc79fc748d7d596420983aa6a25b0583f4bb293a829868"


def test_exact_corpus_lifts_keep_their_values():
    digest = hashlib.sha256()
    lifts = irrational = 0
    for order in (2, 4, 8, 12, 16):
        w = jet_algebra(order)
        for text, points in CORPUS:
            f = parse_smooth_map(text, arity=1)
            for p in points:
                try:
                    (v,) = taylor_lift_at(f, w, [Fraction(p)], RATIONAL)
                except ScalarModeError:
                    irrational += 1
                    continue
                coords = " ".join(f"{m[0]}:{c}" for m, c in v.coords.items())
                digest.update(f"{order}|{text}|{p!r}|{coords}\n".encode())
                lifts += 1
    assert (lifts, irrational) == (205, 335)
    assert digest.hexdigest() == CORPUS_EXACT_SHA256
