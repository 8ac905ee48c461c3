"""Weil algebras: construction, element arithmetic, tensor products,
morphisms.  Frozen expectations were computed by hand from the quotient
presentations (dimension counts, pivot enumerations, substitutions)
before implementing the operations.
"""

import math
import random
import time
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilkit import algebras, lifting, samplers
from weilkit.algebras import (
    INTERN_CAPACITY,
    MAX_MONOMIALS,
    PRESETS,
    RATIONAL,
    REAL,
    WeilAlgebra,
    WeilMorphism,
    WeilPresentation,
    _built,
    compose_morphism,
    identity_morphism,
    jet_algebra,
    mk_morphism,
    mk_weil_algebra,
    preset_algebra,
    real_line_algebra,
    tensor,
    tensor_inclusions,
    tensor_morphism,
    tensor_pair,
    zero_morphism,
)
from weilkit.errors import (
    AlgebraMismatch,
    BasePointViolation,
    DomainError,
    IdealViolation,
    ImproperIdeal,
    ParseError,
    ScalarModeError,
)
from weilkit.expressions import parse_smooth_map
from weilkit.polynomials import (
    Monomial,
    Polynomial,
    from_monomial,
    is_variable_name,
    parse_polynomial,
    substitute_poly,
    variable,
)


def algebra(variables, relations, k):
    return mk_weil_algebra(WeilPresentation(tuple(variables), tuple(relations), k))


DUAL = preset_algebra("dual")
D2 = preset_algebra("d2")
CUSP = algebra(("x", "y"), ("x^2 - y^3",), 4)  # dim 7, see below


# ---------------------------------------------------------------------------
# construction


def test_dual_numbers():
    assert DUAL.dimension == 2
    assert {m.exponents for m in DUAL.basis} == {(0,), (1,)}


def test_d2_preset():
    assert D2.dimension == 3
    assert {m.exponents for m in D2.basis} == {(0, 0), (1, 0), (0, 1)}


def test_cusp_algebra_dimension():
    # 10 monomials of degree < 4 in two variables minus pivots {x^2, x^3, x^2*y}
    assert CUSP.dimension == 7
    assert Monomial((0, 3)) in CUSP.basis_index  # y^3 survives
    assert Monomial((2, 0)) not in CUSP.basis_index


def test_improper_presentation_rejected():
    with pytest.raises(ImproperIdeal):
        algebra(("x",), ("x - 1",), 2)


def test_structural_identity():
    assert preset_algebra("dual") == preset_algebra("dual")
    assert preset_algebra("dual") != preset_algebra("jet2")
    # same ideal through a different but equivalent relation list
    a = algebra(("x",), ("x^2",), 4)
    b = algebra(("x",), ("x^2", "x^3"), 4)
    assert a == b  # identical echelon rows


# ---------------------------------------------------------------------------
# interning: equal presentations share their built state


def test_equal_presentations_share_built_state():
    a = algebra(("x", "y"), ("x^2 - y^3",), 4)
    b = algebra(("x", "y"), ("x^2 - y^3",), 4)
    assert a is not b and a == b
    assert a.reduction is b.reduction
    assert a.basis is b.basis and a.basis_index is b.basis_index
    assert a._mul_table is b._mul_table and a._sig is b._sig


def test_repeated_tensor_gives_equal_algebras():
    t1 = tensor(CUSP, D2)
    t2 = tensor(CUSP, D2)
    assert t1 == t2 and hash(t1) == hash(t2)
    assert repr(t1) == repr(t2)
    assert t1.reduction is t2.reduction


def test_presentations_of_one_ideal_keep_their_relations():
    a = algebra(("x",), ("x^2",), 4)
    b = algebra(("x",), ("x^2", "x^3"), 4)
    c = algebra(("x",), ("2*x^2",), 4)
    assert a == b == c
    assert repr(a) == "WeilAlgebra([x], <x^2> + m^4)"
    assert repr(b) == "WeilAlgebra([x], <x^2, x^3> + m^4)"
    assert repr(c) == "WeilAlgebra([x], <2*x^2> + m^4)"
    assert repr(algebra(("x",), ("x^2",), 4)) == repr(a)


def test_failed_presentations_raise_every_time():
    for _ in range(2):
        with pytest.raises(ImproperIdeal):
            algebra(("x",), ("x - 1",), 2)
        with pytest.raises(ImproperIdeal):
            WeilAlgebra(("x",), [parse_polynomial("x^2 + 1", ("x",))], 3)
        with pytest.raises(ValueError):
            WeilAlgebra(("x", "x"), [], 2)
        with pytest.raises(ValueError):
            WeilAlgebra(("x",), [], 0)
        with pytest.raises(ValueError):
            WeilAlgebra(("x",), [parse_polynomial("x*y", ("x", "y"))], 3)


def test_relations_from_list_or_generator():
    texts = ("x^2 - y^3",)
    as_list = WeilAlgebra(("x", "y"), [parse_polynomial(t, ("x", "y")) for t in texts], 4)
    as_gen = WeilAlgebra(("x", "y"), (parse_polynomial(t, ("x", "y")) for t in texts), 4)
    # both share one built state; CUSP's may have been evicted from the
    # intern table by another test module, so only its value is compared
    assert as_list.basis is as_gen.basis
    for w in (as_list, as_gen):
        assert w == CUSP and repr(w) == repr(CUSP)
        assert w.relations == CUSP.relations
        assert w.dimension == 7 and w.basis == CUSP.basis


def test_intern_table_is_bounded():
    for i in range(1, INTERN_CAPACITY + 10):
        w = WeilAlgebra(("x",), [parse_polynomial(f"x^2 - {i}*x^3", ("x",))], 4)
        assert w.dimension == 2
    assert _built.cache_info().currsize <= INTERN_CAPACITY
    assert algebra(("x", "y"), ("x^2 - y^3",), 4).dimension == 7


def test_presets_all_build():
    for name in PRESETS:
        w = preset_algebra(name)
        assert w.dimension >= 1


@pytest.mark.parametrize("nilpotency", [True, False, 2.0, 0, "2"])
def test_nilpotency_must_be_a_positive_int(nilpotency):
    with pytest.raises(ParseError, match="nilpotency must be a positive integer"):
        WeilPresentation.from_dict({"variables": ["x"], "relations": [], "nilpotency": nilpotency})


@pytest.mark.parametrize("name", ["x y", "2x", "x-y", "x^2", "", " x", "x*y"])
def test_variable_names_the_grammar_cannot_read_are_rejected(name):
    assert not is_variable_name(name)
    with pytest.raises(ParseError, match="variables must be names the relation grammar reads"):
        WeilPresentation.from_dict({"variables": [name], "relations": [], "nilpotency": 2})


def _accepted_name_lists():
    yield from (p.variables for p in PRESETS.values())
    yield jet_algebra(3).names
    yield tensor(D2, CUSP).names
    yield from (samplers._var_names(n) for n in range(1, 5))
    yield ("x_1", "y2", "_z", "θ")
    # a superscript digit is no decimal digit, so it may open a name
    yield ("x", "\u00b2x")


def test_accepted_names_read_back_as_their_own_variable():
    for names in _accepted_name_lists():
        assert WeilPresentation.from_dict(
            {"variables": list(names), "relations": [], "nilpotency": 2}
        ).variables == tuple(names)
        for i, name in enumerate(names):
            assert is_variable_name(name)
            assert parse_polynomial(name, names) == variable(len(names), i)


# ---------------------------------------------------------------------------
# structure constants: normal forms read off the echelon rows


def _structure_constant_algebras():
    yield from (preset_algebra(name) for name in PRESETS)
    yield CUSP
    yield real_line_algebra()
    yield from (jet_algebra(k) for k in range(2, 17))
    yield tensor(DUAL, D2)
    yield tensor(CUSP, jet_algebra(2))
    yield tensor(jet_algebra(4), jet_algebra(3))
    rng = random.Random(20240611)
    for _ in range(200):
        yield samplers.random_weil_algebra(rng, max_vars=3, max_order=5, max_dimension=40)
    for _ in range(20):
        yield tensor(samplers.random_weil_algebra(rng), samplers.random_weil_algebra(rng))


def test_basis_product_is_the_normal_form_of_the_product():
    count = 0
    for w in _structure_constant_algebras():
        # one entry per monomial below the order, and none above it
        assert len(w._mul_table) == math.comb(w.nvars + w.order - 1, w.nvars)
        for m1 in w.basis:
            for m2 in w.basis:
                expected = w.reduction.normal_form(from_monomial(m1.mul(m2))).sorted_terms()
                assert list(w.basis_product(m1, m2)) == expected, (w, m1, m2)
                count += 1
    assert count > 20000


def test_large_relation_free_basis_builds_fast():
    # dimension 990 near the presentation cap, built by no other test
    started = time.monotonic()
    w = algebra(("x", "y"), (), 44)
    assert time.monotonic() - started < 1.0
    assert w.dimension == 990
    assert w.basis_product(Monomial((20, 4)), Monomial((1, 19))) == ()  # degree 44
    assert w.basis_product(Monomial((20, 3)), Monomial((1, 19))) == (
        (Monomial((21, 22)), Fraction(1)),
    )


# ---------------------------------------------------------------------------
# element arithmetic


def test_dual_product_rule():
    a = DUAL.from_polynomial(parse_polynomial("3 + 5*x", ("x",)))
    b = DUAL.from_polynomial(parse_polynomial("2 + 7*x", ("x",)))
    prod = a.mul(b)
    assert prod == DUAL.from_polynomial(parse_polynomial("6 + 31*x", ("x",)))


def test_jet_truncation():
    w = jet_algebra(3)  # R[t]/(t^4)
    t = w.var_element(0)
    assert t.pow_int(3).coords  # t^3 survives
    assert not t.pow_int(4).coords  # t^4 == 0


@pytest.mark.parametrize("mode", [RATIONAL, REAL])
def test_var_element_is_the_reduced_variable(mode):
    for w in (
        jet_algebra(5),
        tensor(jet_algebra(2), jet_algebra(3)),
        algebra(["x", "y"], ["x^2 - y^3"], 6),
        algebra(["x", "y"], [], 1),
    ):
        for i in range(w.nvars):
            expected = w.from_polynomial(variable(w.nvars, i), mode)
            got = w.var_element(i, mode)
            assert got == expected and got._v == expected._v and got._den == expected._den


def bits(element):
    """The stored vector, floats by their hex (which tells -0.0 from 0.0)."""
    return [c.hex() if isinstance(c, float) else c for c in element._v], element._den


@pytest.mark.parametrize("mode", [RATIONAL, REAL])
def test_displaced_var_is_the_constant_plus_the_variable(mode):
    values = [0, 3, Fraction(-7, 4), Fraction(1, 3), 10**30]
    if mode == REAL:
        values += [0.6, -0.0, 0.0, -2.5, 1e-300]
    for w in (
        jet_algebra(5),
        tensor(jet_algebra(2), jet_algebra(3)),
        algebra(["x", "y"], ["x^2 - y^3"], 6),
        algebra(["x", "y"], [], 1),
    ):
        for i in range(w.nvars):
            for value in values:
                expected = w.const(value, mode).add(w.var_element(i, mode))
                got = w.displaced_var(i, value, mode)
                assert got == expected and bits(got) == bits(expected), (w, i, value)


def test_displaced_var_keeps_the_constant_errors():
    w = jet_algebra(3)
    with pytest.raises(ScalarModeError):
        w.displaced_var(0, 0.5, RATIONAL)
    with pytest.raises(DomainError):
        w.displaced_var(0, Fraction(10**400), REAL)
    with pytest.raises(DomainError):
        w.displaced_var(0, math.inf, REAL)
    with pytest.raises(ValueError):
        w.displaced_var(1, 0, RATIONAL)


def test_cusp_product_reduces():
    x = CUSP.var_element(0)
    y = CUSP.var_element(1)
    assert x.mul(x) == y.pow_int(3)


def test_augmentation_examples():
    a = DUAL.from_polynomial(parse_polynomial("3 + 5*x", ("x",)))
    assert a.augmentation() == 3
    assert DUAL.zero().augmentation() == 0
    b = CUSP.var_element(1).pow_int(3).add(CUSP.var_element(0))
    assert b.augmentation() == 0


def test_mode_mixing_rejected():
    a = DUAL.one(RATIONAL)
    b = DUAL.one(REAL)
    with pytest.raises(ScalarModeError):
        a.add(b)
    with pytest.raises(ScalarModeError):
        a.scale(0.5)


def test_algebra_mismatch_rejected():
    with pytest.raises(AlgebraMismatch):
        DUAL.one().add(D2.one())


def test_inverse_geometric_series():
    w = jet_algebra(3)
    t = w.var_element(0)
    a = w.const(2).add(t)
    prod = a.mul(a.inverse())
    assert prod == w.one()
    with pytest.raises(DomainError):
        t.inverse()


def _one_variable_elements():
    """Exact elements of one-variable algebras: every jet order to 16,
    t^3 - t^5 at order 6 (dimension 3) and an order-1 algebra, with
    negative and positive units and small and large denominators."""
    rng = random.Random(15)
    algebras_ = [jet_algebra(k) for k in range(1, 17)]
    algebras_ += [algebra(["t"], ["t^3 - t^5"], 6), algebra(["t"], [], 1)]
    for w in algebras_:
        for unit in (Fraction(1), Fraction(-3, 7), Fraction(5, 10**30 + 1), Fraction(-(10**20), 3)):
            for _ in range(6):
                coords = {
                    m: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 9, 10**40 + 7)))
                    for m in w.basis[1:]
                    if rng.random() < 0.6
                }
                coords[w.basis[0]] = unit
                yield w, w.element(coords)


def test_series_inverse_equals_the_geometric_series(monkeypatch):
    count = 0
    for w, x in _one_variable_elements():
        expected = algebras.geometric_inverse(x, w.one(), w.order)
        with monkeypatch.context() as m:
            m.setattr(algebras, "geometric_inverse", None)  # the recurrence needs none
            got = x.inverse()
        assert got == expected and hash(got) == hash(expected), (w, x)
        assert got._v == expected._v and got._den == expected._den
        assert got.algebra is w and x.mul(got) == w.one()
        count += 1
    assert count == 18 * 4 * 6


def test_series_inverse_keeps_the_zero_augmentation_message():
    message = "^element with zero augmentation is not invertible$"
    for w in (jet_algebra(1), jet_algebra(8), algebra(["t"], ["t^3 - t^5"], 6), algebra(["t"], [], 1)):
        top = w.element({w.basis[-1]: Fraction(-2, 3)}) if w.dimension > 1 else w.zero()
        for x in (w.zero(), w.var_element(0), top):
            with pytest.raises(DomainError, match=message):
                x.inverse()


def old_series_inverse(x):
    """``algebras._series_inverse`` as it was before the quotient
    recurrence took a numerator: the inverse of an exact element of a
    one-variable algebra, on integers."""
    b, d = x._v, len(x._v)
    if b[0] == 0:
        raise DomainError("element with zero augmentation is not invertible")
    powers = [1]  # b_0^i
    for _ in range(d):
        powers.append(powers[-1] * b[0])
    terms = [(i, b[i] * powers[i - 1]) for i in range(1, d) if b[i]]
    p = [1]
    for j in range(1, d):
        p.append(-sum(c * p[j - i] for i, c in terms if i <= j))
    sign = 1 if powers[d] > 0 else -1
    nums = [sign * x._den * p[j] * powers[d - 1 - j] for j in range(d)]
    return algebras._exact(x.algebra, nums, sign * powers[d])


def old_quotient_series(a, b):
    """``lifting._quotient_series`` as it was: the coefficients of a / b
    for float lists of one length, b_0 nonzero."""
    if b[0] == 0:
        raise DomainError("element with zero augmentation is not invertible")
    y = []
    for j in range(len(a)):
        y.append((a[j] - sum(map(mul, b[1 : j + 1], y[::-1]))) / b[0])
    return y


def test_series_quotient_matches_the_old_inverse_and_float_routines():
    # exact a / b was a times the old inverse; a real one the old float
    # routine on a numerator padded with 0.0 to b's length
    rng = random.Random(23)
    count = 0
    for w, b in _one_variable_elements():
        d = w.dimension
        short = [rng.randint(-9, 9) for _ in range(rng.randint(1, d))]
        short[0] = -rng.randint(1, 9)
        full = [rng.randint(-9, 9) for _ in range(d)]
        for nums in ([], [0] * d, short, full, [1]):
            den = rng.choice((1, 3, 10**40 + 7))
            got = algebras._series_quotient(nums, den, b)
            a = w.element({w.basis[i]: Fraction(c, den) for i, c in enumerate(nums)})
            expected = a.mul(old_series_inverse(b))
            assert got == expected and hash(got) == hash(expected), (w, b, nums)
            assert got._v == expected._v and got._den == expected._den
            row, real = [c / den for c in nums], b.to_real()
            expected = old_quotient_series(row + [0.0] * (d - len(row)), real._v)
            if all(map(math.isfinite, expected)):
                got = algebras._series_quotient(row, 1, real)
                assert [c.hex() for c in got._v] == [c.hex() for c in expected], (w, b, nums)
            else:
                with pytest.raises(DomainError, match="^a real-mode coordinate is out of float range$"):
                    algebras._series_quotient(row, 1, real)
            count += 1
    assert count == 18 * 4 * 6 * 5
    message = "^element with zero augmentation is not invertible$"
    for w in (jet_algebra(1), jet_algebra(16), algebra(["t"], ["t^3 - t^5"], 6), algebra(["t"], [], 1)):
        for mode, nums in ((RATIONAL, [1, -2]), (REAL, [1.0, -2.0])):
            for x in (w.zero(mode), w.var_element(0, mode)):
                with pytest.raises(DomainError, match=message):
                    algebras._series_quotient(nums, 1, x)


def test_quotient_over_a_long_jet_lifts_fast():
    w, f = jet_algebra(100), parse_smooth_map("t/(1+t^2)", arity=1)
    best = math.inf
    for _ in range(5):
        started = time.perf_counter()
        (value,) = lifting.taylor_lift_at(f, w, [Fraction(1, 3)])
        best = min(best, time.perf_counter() - started)
    # the geometric series took about 7 ms here, the recurrence under 1 ms
    assert best < 0.003
    b = w.displaced_var(0, Fraction(1, 3))
    assert value.mul(w.one().add(b.mul(b))) == b


def test_displaced_rows_are_kept_per_mode_for_equal_algebras():
    w1, w2 = (algebra(["x", "y"], ["x^2 - y^3"], 6) for _ in range(2))
    assert w1 is not w2 and w1 == w2
    values = (Fraction(1, 3), 2, Fraction(-7, 4), 0, 10**30)
    for w in (w1, w2, w1):
        for value in values:
            for i in range(w.nvars):
                for mode in (RATIONAL, REAL, RATIONAL):
                    expected = w.const(value, mode).add(w.var_element(i, mode))
                    got = w.displaced_var(i, value, mode)
                    assert bits(got) == bits(expected) and got.algebra is w, (w, i, value, mode)
    # the kept rows are plain numbers, shared through the built state
    assert w1._displaced is w2._displaced and len(w1._displaced) == 2 * w1.nvars
    for nums, den in w1._displaced.values():
        assert all(type(n) in (int, float) for n in (*nums, den))


@pytest.mark.parametrize("mode", [RATIONAL, REAL])
def test_lifts_keep_the_algebra_passed_in(mode):
    f = parse_smooth_map("t0/(2 + t1) + 3*t1^2 - 1/2", arity=2)
    for make in (
        lambda: algebra(["x", "y"], ["x^2 - y^3"], 6),
        lambda: tensor(jet_algebra(2), jet_algebra(3)),
    ):
        w1, w2 = make(), make()
        assert w1 is not w2 and w1 == w2
        for w in (w1, w2, w1):
            values = lifting.taylor_lift_at(f, w, [Fraction(1, 2), Fraction(-3, 4)], mode)
            assert all(v.algebra is w and v.mode == mode for v in values)
            assert lifting.weil_context(w, mode).const(1).algebra is w
        assert values == lifting.taylor_lift_at(f, w2, [Fraction(1, 2), Fraction(-3, 4)], mode)


coeffs = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def elements(w):
    return st.dictionaries(st.sampled_from(list(w.basis)), coeffs, max_size=4).map(
        lambda d: w.element(d)
    )


@settings(max_examples=40, deadline=None)
@given(elements(CUSP), elements(CUSP), elements(CUSP))
def test_element_ring_laws(a, b, c):
    assert a.mul(b) == b.mul(a)
    assert a.mul(b.mul(c)) == a.mul(b).mul(c)
    assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
    assert a.mul(CUSP.one()) == a


@settings(max_examples=40, deadline=None)
@given(elements(CUSP), elements(CUSP))
def test_augmentation_is_ring_hom(a, b):
    assert a.mul(b).augmentation() == a.augmentation() * b.augmentation()
    assert a.add(b).augmentation() == a.augmentation() + b.augmentation()


@settings(max_examples=30, deadline=None)
@given(elements(CUSP))
def test_nilpotency_within_k_steps(a):
    n = a.nilpotent_part()
    assert not n.pow_int(CUSP.order).coords


# ---------------------------------------------------------------------------
# tensor products


def test_tensor_dual_dual():
    t = tensor(DUAL, DUAL)
    assert t.order == 3
    assert t.dimension == 4
    assert {m.exponents for m in t.basis} == {(0, 0), (1, 0), (0, 1), (1, 1)}


def test_tensor_jet_dual_dimension():
    t = tensor(jet_algebra(2), DUAL)  # R[x]/(x^3) (x) R[y]/(y^2)
    assert t.dimension == 6


def test_tensor_dimension_law_binomial_case():
    # the case that forces the m^k witnesses into the tensor relations
    t = tensor(CUSP, DUAL)
    assert t.dimension == CUSP.dimension * DUAL.dimension == 14


def test_tensor_unit_law():
    r = real_line_algebra()
    t = tensor(CUSP, r)
    assert t.order == CUSP.order
    assert t.dimension == CUSP.dimension
    # canonical isomorphism on bases: same exponent tuples
    assert [m.exponents for m in t.basis] == [m.exponents for m in CUSP.basis]


def test_tensor_strictly_associative_here():
    w1, w2, w3 = DUAL, jet_algebra(2), D2
    left = tensor(tensor(w1, w2), w3)
    right = tensor(w1, tensor(w2, w3))
    assert left.dimension == right.dimension
    assert left.basis == right.basis  # positional renaming makes them match


def test_tensor_basis_is_product_of_factor_bases():
    for w1, w2 in [(DUAL, DUAL), (CUSP, DUAL), (D2, jet_algebra(3))]:
        t = tensor(w1, w2)
        products = {
            m1.exponents + m2.exponents for m1 in w1.basis for m2 in w2.basis
        }
        assert {m.exponents for m in t.basis} == products


def test_tensor_pair_agrees_with_inclusions():
    w1, w2 = jet_algebra(2), DUAL
    t = tensor(w1, w2)
    incl1, incl2 = tensor_inclusions(w1, w2, t)
    a = w1.from_polynomial(parse_polynomial("1 + 2*t + t^2", ("t",)))
    b = w2.from_polynomial(parse_polynomial("3 - x", ("x",)))
    via_pair = tensor_pair(w1, w2, a, b, t)
    via_incl = incl1.apply(a).mul(incl2.apply(b))
    assert via_pair == via_incl


@settings(max_examples=25, deadline=None)
@given(elements(DUAL), elements(DUAL), elements(DUAL))
def test_tensor_pair_bilinear(a, a2, b):
    t = tensor(DUAL, DUAL)
    lhs = tensor_pair(DUAL, DUAL, a.add(a2), b, t)
    rhs = tensor_pair(DUAL, DUAL, a, b, t).add(tensor_pair(DUAL, DUAL, a2, b, t))
    assert lhs == rhs


# ---------------------------------------------------------------------------
# morphisms


JET4 = jet_algebra(4)  # R[y]/(y^5)


def test_morphism_condition_two_rejects_small_power():
    with pytest.raises(IdealViolation):
        mk_morphism(DUAL, JET4, [parse_polynomial("t^2", ("t",))])


def test_morphism_accepts_large_power():
    psi = mk_morphism(DUAL, JET4, [parse_polynomial("t^3", ("t",))])
    a = DUAL.from_polynomial(parse_polynomial("2 + 5*x", ("x",)))
    image = psi.apply(a)
    assert image == JET4.from_polynomial(parse_polynomial("2 + 5*t^3", ("t",)))


def test_morphism_condition_one_rejects_constant():
    with pytest.raises(BasePointViolation):
        mk_morphism(DUAL, JET4, [parse_polynomial("1 + t^3", ("t",))])


def test_morphism_checks_truncation_witnesses():
    # a presentation with NO relations still encodes m^k via its nilpotency;
    # the inclusion-like map below must be rejected
    bare_dual = algebra(("x",), (), 2)
    assert bare_dual.dimension == 2
    with pytest.raises(IdealViolation):
        mk_morphism(bare_dual, JET4, [parse_polynomial("t", ("t",))])


def test_zero_morphism_is_augmentation():
    psi = zero_morphism(CUSP, DUAL)
    a = CUSP.const(7).add(CUSP.var_element(1))
    assert psi.apply(a) == DUAL.const(7)


def test_identity_and_compose():
    psi = mk_morphism(DUAL, JET4, [parse_polynomial("t^3", ("t",))])
    assert identity_morphism(DUAL).compose(psi).acts_same(psi)
    assert psi.compose(identity_morphism(JET4)).acts_same(psi)


def test_compose_substitution_example():
    # x -> y^3 into R[y]/(y^5), then y -> z^2 into R[z]/(z^10): x -> z^6
    jet9 = jet_algebra(9)  # R[z]/(z^10)
    psi = mk_morphism(DUAL, JET4, [parse_polynomial("t^3", ("t",))])
    phi = mk_morphism(JET4, jet9, [parse_polynomial("t^2", ("t",))])
    comp = compose_morphism(psi, phi)
    assert comp.psibar[0] == parse_polynomial("t^6", ("t",))
    x = DUAL.var_element(0)
    assert comp.apply(x) == jet9.var_element(0).pow_int(6)


def test_compose_associative():
    j2, j5, j11 = jet_algebra(2), jet_algebra(5), jet_algebra(11)
    a = mk_morphism(j2, j5, [parse_polynomial("t^2", ("t",))])
    b = mk_morphism(j5, j11, [parse_polynomial("t^2 + t^3", ("t",))])
    c = mk_morphism(j11, j11, [parse_polynomial("t + t^2", ("t",))])
    lhs = a.compose(b).compose(c)
    rhs = a.compose(b.compose(c))
    assert lhs.acts_same(rhs)


def test_compose_through_a_zero_variable_algebra():
    # the real line has no generator, so the composite sends every
    # generator of its source to 0, in its target's variables
    point, jet2 = algebra((), (), 1), jet_algebra(2)
    to_point = zero_morphism(D2, point)
    from_point = mk_morphism(point, jet2, [])
    composite = to_point.compose(from_point)
    assert (composite.source, composite.target) == (D2, jet2)
    assert composite.psibar == (Polynomial(1), Polynomial(1))
    a = D2.element({Monomial((0, 0)): 3, Monomial((1, 0)): 5, Monomial((0, 1)): 7})
    assert composite.apply(a) == from_point.apply(to_point.apply(a)) == jet2.one().scale(3)


def test_compose_through_the_real_line():
    # into and out of R: each psibar of the composite is a polynomial in
    # the target's variables, and the composite acts as the two steps do
    line = real_line_algebra()
    for source, target in ((D2, JET4), (JET4, D2), (line, JET4), (D2, line)):
        into, out_of = zero_morphism(source, line), mk_morphism(line, target, [])
        composite = into.compose(out_of)
        assert (composite.source, composite.target) == (source, target)
        assert composite.psibar == tuple(Polynomial(target.nvars) for _ in range(source.nvars))
        assert composite == zero_morphism(source, target)
        a = source.one().scale(5).add(source.var_element(0) if source.nvars else source.zero())
        assert composite.apply(a) == out_of.apply(into.apply(a)) == target.one().scale(5)


@settings(max_examples=25, deadline=None)
@given(elements(DUAL), elements(DUAL))
def test_apply_is_algebra_hom(a, b):
    psi = mk_morphism(DUAL, JET4, [parse_polynomial("t^3 + t^4", ("t",))])
    assert psi.apply(a.mul(b)) == psi.apply(a).mul(psi.apply(b))
    assert psi.apply(a.add(b)) == psi.apply(a).add(psi.apply(b))
    assert psi.apply(DUAL.one()) == JET4.one()


def test_morphism_soundness_on_random_ideal_elements():
    # 50 random combinations chi = sum h_i * g_i must map to 0
    import random

    rng = random.Random(20240817)
    psi = mk_morphism(CUSP, JET4, [parse_polynomial("t^3", ("t",)), parse_polynomial("t^2", ("t",))])
    gens = CUSP.ideal_generators()
    monos = [m for m in CUSP.reduction.quotient_basis()]
    for _ in range(50):
        chi = parse_polynomial("0", CUSP.names)
        for g in gens:
            h_terms = {}
            for m in rng.sample(monos, k=min(2, len(monos))):
                h_terms[m] = Fraction(rng.randint(-3, 3))
            from weilkit.polynomials import Polynomial

            h = Polynomial(CUSP.nvars, h_terms)
            chi = chi.add(h.mul(g))
        image = chi.substitute(list(psi.psibar), JET4.order)
        assert JET4.reduction.normal_form(image).is_zero()


def test_tensor_morphism_commutes_with_inclusions():
    psi = mk_morphism(DUAL, JET4, [parse_polynomial("t^3", ("t",))])
    phi = identity_morphism(D2)
    src = tensor(DUAL, D2)
    tgt = tensor(JET4, D2)
    tp = tensor_morphism(psi, phi, src, tgt)
    li_src, _ = tensor_inclusions(DUAL, D2, src)
    li_tgt, _ = tensor_inclusions(JET4, D2, tgt)
    a = DUAL.from_polynomial(parse_polynomial("2 + 3*x", ("x",)))
    assert tp.apply(li_src.apply(a)) == li_tgt.apply(psi.apply(a))


def _sampled_candidates(monkeypatch, seeds):
    """Every psibar that random_morphism tries, rejected ones included,
    with the morphism or the IdealViolation it produced."""
    seen = []

    def recording(source, target, psibar):
        try:
            morphism = WeilMorphism(source, target, psibar)
        except IdealViolation as exc:
            seen.append((source, target, psibar, exc))
            raise
        seen.append((source, target, psibar, morphism))
        return morphism

    monkeypatch.setattr(samplers, "WeilMorphism", recording)
    for seed in seeds:
        rng = random.Random(seed)
        source = samplers.random_weil_algebra(rng)
        target = samplers.random_weil_algebra(rng)
        samplers.random_morphism(rng, source, target)
    return seen


def test_morphism_check_agrees_with_truncated_substitution(monkeypatch):
    # the quotient map is a ring homomorphism and m^k lies in the ideal, so
    # the class of gen(psibar) is the normal form of its truncation
    accepted = rejected = 0
    for source, target, psibar, outcome in _sampled_candidates(monkeypatch, range(40)):
        bad = [
            gen
            for gen in source.ideal_generators()
            if not target.reduction.normal_form(
                gen.substitute(list(psibar), target.order)
            ).is_zero()
        ]
        if bad:
            rejected += 1
            assert isinstance(outcome, IdealViolation)
            assert str(outcome) == (
                f"generator {bad[0].format(source.names)} does not map into the target ideal"
            )
            continue
        accepted += 1
        assert isinstance(outcome, WeilMorphism)
        for mono in source.basis:
            expected = target.from_polynomial(
                from_monomial(mono).substitute(list(psibar), target.order)
            )
            assert outcome.apply(source.basis_element(mono)) == expected
    assert accepted > 10 and rejected > 10


def test_skipped_witnesses_map_to_zero():
    # a morphism whose source order is at least its target's is checked on
    # the presented relations alone; every witness of m^k it skips must
    # still substitute to zero
    checked = 0
    for seed in range(300):
        rng = random.Random(seed)
        source = samplers.random_weil_algebra(rng)
        target = samplers.random_weil_algebra(rng)
        if source.order < target.order:
            continue
        psi = samplers.random_morphism(rng, source, target)
        images = [target.from_polynomial(p) for p in psi.psibar]
        for gen in source.ideal_generators():
            assert substitute_poly(gen, images, target.const).is_zero()
            checked += 1
    assert checked > 300


def test_witnesses_still_checked_below_the_target_order():
    t = parse_polynomial("t", ("t",))
    with pytest.raises(IdealViolation, match=r"generator t\^3 does not"):
        mk_morphism(jet_algebra(2), jet_algebra(5), [t])
    # with no relation to catch it, only the witness of m^3 can
    with pytest.raises(IdealViolation, match=r"generator x\^3 does not"):
        mk_morphism(algebra(("x",), (), 3), jet_algebra(5), [t])


def test_relations_still_checked_at_or_above_the_target_order():
    source = algebra(("x", "y"), ("x*y",), 4)
    target = jet_algebra(2)
    assert source.order >= target.order
    t = parse_polynomial("t", ("t",))
    with pytest.raises(IdealViolation, match=r"generator x\*y does not"):
        mk_morphism(source, target, [t, t])
    assert mk_morphism(source, target, [t, Polynomial(1)]).apply(
        source.var_element(0)
    ) == target.var_element(0)


def _two_loop_apply(psi, element):
    """``WeilMorphism.apply`` as it was written before its loops merged:
    one loop per scalar mode."""
    target = psi.target
    images = [(c, image) for c, image in zip(element._v, psi._basis_images) if c]
    if element.mode == REAL:
        acc = [0.0] * target.dimension
        for c, image in images:
            for k, x in enumerate(image._floats()):
                if x:
                    acc[k] += x * c
        return algebras._real(target, acc)
    den = math.lcm(*(image._den for _, image in images))
    acc = [0] * target.dimension
    for c, image in images:
        weight = c * (den // image._den)
        for k, x in enumerate(image._v):
            if x:
                acc[k] += x * weight
    return algebras._exact(target, acc, den * element._den)


def _apply_outcome(apply, psi, element):
    """Exact vectors, denominators and hashes as they are, real vectors by
    ``float.hex``, errors by type and message."""
    try:
        value = apply(psi, element)
    except DomainError as exc:
        return type(exc), str(exc)
    if value.mode == REAL:
        return [x.hex() for x in value._v], value.algebra
    return value._v, value._den, hash(value), value.algebra


def _pinned_morphisms(rng):
    presets = [preset_algebra(name) for name in sorted(PRESETS)]
    jets = [jet_algebra(k) for k in (1, 2, 3, 5)]
    randoms = [samplers.random_weil_algebra(rng) for _ in range(12)]
    for source in presets + jets:
        for target in presets + jets:
            yield samplers.random_morphism(rng, source, target)
    for source, target in zip(randoms, reversed(randoms)):
        yield samplers.random_morphism(rng, source, target)
        yield zero_morphism(source, target)
    for v in (DUAL, D2, jet_algebra(2)):
        psi = samplers.random_morphism(rng, JET4, jet_algebra(6))
        yield tensor_morphism(identity_morphism(v), psi)
        yield tensor_morphism(psi, zero_morphism(v, DUAL))


def test_merged_apply_matches_the_two_loop_apply():
    rng = random.Random(20261020)
    fractional = 0
    for psi in _pinned_morphisms(rng):
        w = psi.source
        fractional += any(image._den > 1 for image in psi._basis_images)
        elements = [w.zero(), w.one(), w.zero(REAL), w.one(REAL)]
        for _ in range(3):
            elements.append(samplers.random_element(rng, w))
            terms = {m: rng.uniform(-3.0, 3.0) for m in rng.sample(w.basis, min(4, w.dimension))}
            elements.append(w.element(terms, REAL))
        elements += [e.neg() for e in elements]  # real zeros become -0.0
        elements.append(w.element({w.basis[-1]: 1e308}, REAL))  # may leave float range
        for e in elements:
            expected = _apply_outcome(_two_loop_apply, psi, e)
            assert _apply_outcome(WeilMorphism.apply, psi, e) == expected, (psi, e)
    assert fractional > 20


# ---------------------------------------------------------------------------
# resource limits


def test_presentation_size_cap_is_checked_before_building(monkeypatch):
    monkeypatch.setattr(algebras, "MAX_MONOMIALS", 3)
    assert algebra(("x", "y"), ("x*y",), 2).dimension == 3  # 1, x, y: at the cap
    with pytest.raises(ParseError, match="6 monomials below degree 3; at most 3"):
        algebra(("x", "y"), ("x*y",), 3)


def test_order_is_capped_with_no_variables():
    # comb(k - 1, 0) is 1 at every order k, so the span alone bounds nothing
    assert WeilAlgebra((), (), MAX_MONOMIALS).dimension == 1
    started = time.monotonic()
    for order in (MAX_MONOMIALS + 1, 4_000_000):
        with pytest.raises(ParseError, match=f"nilpotency order {order} exceeds 1000"):
            WeilAlgebra((), (), order)
    assert time.monotonic() - started < 1.0


def test_presentation_size_cap_covers_tensors_and_jets():
    assert MAX_MONOMIALS == 1000
    with pytest.raises(ParseError, match="at most 1000"):
        jet_algebra(1000)  # t^0 .. t^1000
    with pytest.raises(ParseError, match="at most 1000"):
        tensor(jet_algebra(30), jet_algebra(30))  # 2 variables below degree 61
    with pytest.raises(ParseError, match="at most 1000"):
        algebra(("x",), ("x^2",), 100000)


def test_relation_exponent_cap_covers_library_algebras():
    # at the cap the term already lies in m^k, so the algebra is unchanged
    assert algebra(("x", "y"), ("x^1000 - y^2",), 3) == algebra(("x", "y"), ("y^2",), 3)
    tall = parse_polynomial("x^1001 + y^2", ("x", "y"))
    with pytest.raises(ParseError, match="relation exponent 1001 exceeds 1000"):
        WeilAlgebra(("x", "y"), [tall], 3)


def test_real_coordinates_outside_float_range_are_domain_errors():
    huge = Fraction(10) ** 400
    with pytest.raises(DomainError, match="out of float range"):
        DUAL.const(huge, REAL)
    with pytest.raises(DomainError, match="out of float range"):
        DUAL.element({Monomial((1,)): float("inf")}, REAL)
    with pytest.raises(DomainError, match="out of float range"):
        DUAL.const(huge).to_real()
    with pytest.raises(DomainError, match="out of float range"):
        DUAL.from_polynomial(parse_polynomial(f"{10 ** 400}*x", ("x",)), REAL)
    big = DUAL.const(1e200).add(DUAL.var_element(0, REAL))
    with pytest.raises(DomainError, match="out of float range"):
        big.mul(big)  # 1e400 overflows the float product
    with pytest.raises(DomainError, match="out of float range"):
        big.scale(1e200)
    # exact elements of any size stay exact
    assert DUAL.const(huge).mul(DUAL.const(huge)) == DUAL.const(huge * huge)
