import dataclasses
import math
import random
import time
import zlib
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expr_corpus import CORPUS, EXACT_SUBSET
from oracles import fd_derivative, rel_close, symbolic_derivative_at

from weilkit import lifting, suites
from weilkit.algebras import (
    RATIONAL,
    REAL,
    WeilAlgebra,
    WeilElement,
    WeilPresentation,
    identity_morphism,
    jet_algebra,
    mk_morphism,
    mk_weil_algebra,
    preset_algebra,
    real_line_algebra,
    tensor,
    zero_morphism,
)
from weilkit.cli import main
from weilkit.errors import AlgebraMismatch, DomainError, ScalarModeError
from weilkit.expressions import (
    _REBUILD,
    PRIMITIVES,
    Add,
    Const,
    Expr,
    Mul,
    Neg,
    Pow,
    SmoothMap,
    Sub,
    Var,
    compose_maps,
    fold_expr,
    format_map,
    map_polynomials,
    parse_smooth_map,
    polynomial_to_expr,
)
from weilkit.lifting import (
    AssociativityIso,
    Euclidean,
    NestedElement,
    Product,
    Prolonged,
    WPoint,
    assoc_iso,
    check_naturality,
    check_product_preservation,
    class_of,
    cross_action,
    equiv_mod,
    identity_map,
    lift_expr,
    lift_with_fallback,
    nested_const,
    nested_context,
    normalize_space,
    prolong_space,
    random_nested,
    taylor_coefficients,
    taylor_lift,
    taylor_lift_at,
    weil_context,
)
from weilkit.polynomials import Monomial, parse_polynomial, times_power
from weilkit.reports import SuiteReport
from weilkit.samplers import (
    random_element,
    random_poly_map,
    random_smooth_map,
    random_weil_algebra,
)

REPO = Path(__file__).resolve().parent.parent
DUAL = preset_algebra("dual")
JET2 = preset_algebra("jet2")
JET3 = preset_algebra("jet3")
D2 = preset_algebra("d2")

F = Fraction


def frac_coeffs(element, *exponent_tuples):
    return [element.coords.get(Monomial(e), F(0)) for e in exponent_tuples]


def closed_form_coefficients(fn, at, count):
    """The Taylor coefficients of fn at a point where they are rational,
    from their closed forms."""
    if fn == "sqrt":  # c_(j+1) = c_j (1/2 - j) / ((j + 1) a)
        coeffs = [F(math.isqrt(at.numerator), math.isqrt(at.denominator))]
        for j in range(count - 1):
            coeffs.append(coeffs[-1] * (F(1, 2) - j) / ((j + 1) * at))
        return coeffs
    if fn == "log":
        return [F(0)] + [F((-1) ** (j + 1), j) for j in range(1, count)]
    cycle = {"exp": (1, 1, 1, 1), "sin": (0, 1, 0, -1), "cos": (1, 0, -1, 0)}[fn]
    return [F(cycle[j % 4], math.factorial(j)) for j in range(count)]


class TestTaylorCoefficients:
    def test_exp_series(self):
        assert taylor_coefficients("exp", F(0), 5, RATIONAL) == [
            F(1), F(1), F(1, 2), F(1, 6), F(1, 24),
        ]

    def test_sin_series(self):
        assert taylor_coefficients("sin", F(0), 6, RATIONAL) == [
            F(0), F(1), F(0), F(-1, 6), F(0), F(1, 120),
        ]

    def test_cos_series(self):
        assert taylor_coefficients("cos", F(0), 5, RATIONAL) == [
            F(1), F(0), F(-1, 2), F(0), F(1, 24),
        ]

    def test_log_series_at_one(self):
        assert taylor_coefficients("log", F(1), 5, RATIONAL) == [
            F(0), F(1), F(-1, 2), F(1, 3), F(-1, 4),
        ]

    def test_sqrt_series_at_rational_square(self):
        assert taylor_coefficients("sqrt", F(9, 4), 3, RATIONAL) == [
            F(3, 2), F(1, 3), F(-1, 27),
        ]

    @pytest.mark.parametrize(
        "fn,at",
        [("exp", F(1)), ("sin", F(1, 2)), ("cos", F(-3)), ("log", F(2)), ("sqrt", F(2))],
    )
    def test_irrational_points_rejected_in_rational_mode(self, fn, at):
        with pytest.raises(ScalarModeError):
            taylor_coefficients(fn, at, 4, RATIONAL)

    @pytest.mark.parametrize("mode", [RATIONAL, REAL])
    def test_domain_guards(self, mode):
        zero = F(0) if mode == RATIONAL else 0.0
        neg = F(-1) if mode == RATIONAL else -1.0
        for fn in ("log", "sqrt"):
            with pytest.raises(DomainError):
                taylor_coefficients(fn, zero, 3, mode)
            with pytest.raises(DomainError):
                taylor_coefficients(fn, neg, 3, mode)

    def test_float_series_matches_rational_at_zero(self):
        for fn in ("exp", "sin", "cos"):
            exact = taylor_coefficients(fn, F(0), 6, RATIONAL)
            approx = taylor_coefficients(fn, 0.0, 6, REAL)
            for a, b in zip(exact, approx):
                assert abs(float(a) - b) < 1e-15

    @pytest.mark.parametrize(
        "fn, at",
        [("exp", F(0)), ("sin", F(0)), ("cos", F(0)), ("log", F(1)), ("sqrt", F(9, 4)), ("sqrt", F(1, 49))],
    )
    def test_exact_coefficients_match_the_closed_forms(self, fn, at):
        # jets reach 17 coefficients
        want = closed_form_coefficients(fn, at, 17)
        for count in range(1, 18):
            got = taylor_coefficients(fn, at, count, RATIONAL)
            assert got == want[:count], (fn, at, count)
            assert all(type(c) is F for c in got), (fn, at, count)

    @pytest.mark.parametrize("fn, at", [("exp", 1000.0), ("log", 1e-200)])
    def test_float_overflow_is_domain_error(self, fn, at):
        with pytest.raises(DomainError, match="out of float range"):
            taylor_coefficients(fn, at, 4, REAL)

    def test_float_log_far_from_zero_is_finite(self):
        # -1/(2a^2) rounds to -0.0 at 1e200; nothing overflows
        coeffs = taylor_coefficients("log", 1e200, 4, REAL)
        assert all(map(math.isfinite, coeffs))
        assert coeffs[:2] == [math.log(1e200), 1e-200]
        # over jet6 (x) jet6 the x^j coefficients are those of log(t) over jet_algebra(12)
        at = 10**26
        w = tensor(jet_algebra(6), jet_algebra(6))
        (got,) = taylor_lift_at(parse_smooth_map("log(t0) + t1"), w, [F(at), F(0)], REAL)
        (ref,) = taylor_lift_at(parse_smooth_map("log(t)"), jet_algebra(12), [F(at)], REAL)
        ref = [ref.coords.get((j,), 0.0) for j in range(7)]
        err = max(abs(got.coords.get((j, 0), 0.0) - r) for j, r in enumerate(ref))
        assert err <= 1e-13 * max(map(abs, ref))
        assert got.coords[(0, 1)] == 1.0

    @pytest.mark.parametrize("text", ["sin(t*t)", "log(t*t)"])
    def test_non_finite_float_point_is_domain_error(self, text, capsys):
        # t*t overflows to inf in float multiplication at 10^170
        huge = "1" + "0" * 170
        with pytest.raises(DomainError, match="out of float range"):
            lift_with_fallback(parse_smooth_map(text), DUAL, [F(int(huge))])
        assert main(["lift", "--algebra", "dual", "--expr", text, "--at", huge]) == 3
        out = capsys.readouterr()
        assert "f0" not in out.out
        assert len(out.err.splitlines()) == 1

    @pytest.mark.parametrize("mode, at", [(RATIONAL, F(0)), (REAL, 0.0)])
    def test_count_below_one(self, mode, at):
        # c_j for j < 0 is no coefficient; a negative count is an error
        assert taylor_coefficients("exp", at, 0, mode) == []
        for count in (-1, -17):
            with pytest.raises(ValueError, match="negative coefficient count"):
                taylor_coefficients("exp", at, count, mode)
        assert len(taylor_coefficients("exp", at, 1, mode)) == 1

    def test_float_log_series(self):
        coeffs = taylor_coefficients("log", 2.0, 4, REAL)
        assert coeffs[0] == pytest.approx(math.log(2.0))
        assert coeffs[1] == pytest.approx(0.5)
        assert coeffs[2] == pytest.approx(-0.125)
        assert coeffs[3] == pytest.approx(1.0 / 24.0)


class TestTaylorLift:
    def test_square_at_general_dual_point(self):
        # (a + b eps)^2 = a^2 + 2ab eps
        point = DUAL.element({Monomial((0,)): F(5), Monomial((1,)): F(7)})
        (v,) = taylor_lift(parse_smooth_map("t^2"), DUAL, [point])
        assert frac_coeffs(v, (0,), (1,)) == [F(25), F(70)]

    def test_identity_is_identity(self):
        rng = random.Random(42)
        for algebra in (DUAL, JET3, D2):
            point = tuple(
                random_element(rng, algebra) for _ in range(algebra.nvars)
            )
            lifted = taylor_lift(identity_map(algebra.nvars), algebra, point)
            assert lifted == point

    def test_sin_at_jet_generator(self):
        (v,) = taylor_lift_at(parse_smooth_map("sin(t)"), JET3, [F(0)])
        assert frac_coeffs(v, (0,), (1,), (2,), (3,)) == [F(0), F(1), F(0), F(-1, 6)]

    def test_square_jet_at_base_three(self):
        (v,) = taylor_lift_at(parse_smooth_map("t^2"), JET2, [F(3)])
        assert frac_coeffs(v, (0,), (1,), (2,)) == [F(9), F(6), F(1)]

    def test_partial_derivatives_via_d2(self):
        # f(x, y) = x^2*y: gradient at (2, 5) is (2xy, x^2) = (20, 4)
        (v,) = taylor_lift_at(parse_smooth_map("x^2*y", arity=2), D2, [F(2), F(5)])
        assert frac_coeffs(v, (0, 0), (1, 0), (0, 1)) == [F(20), F(20), F(4)]

    def test_point_validation(self):
        f = parse_smooth_map("t^2")
        with pytest.raises(AlgebraMismatch):
            taylor_lift(f, DUAL, [JET2.var_element(0)])
        with pytest.raises(AlgebraMismatch):
            taylor_lift(f, DUAL, [DUAL.one(), DUAL.one()])
        with pytest.raises(ScalarModeError):
            taylor_lift(
                parse_smooth_map("x + y", arity=2),
                DUAL,
                [DUAL.one(RATIONAL), DUAL.one(REAL)],
            )

    def test_domain_errors_at_bad_augmentations(self):
        with pytest.raises(DomainError):
            taylor_lift_at(parse_smooth_map("log(t)"), DUAL, [F(0)])
        with pytest.raises(DomainError):
            taylor_lift_at(parse_smooth_map("1/t"), DUAL, [F(0)])
        with pytest.raises(DomainError):
            taylor_lift_at(parse_smooth_map("sqrt(t)"), JET2, [F(0)])

    def test_real_domain_errors_over_one_variable_algebras(self):
        for text, at in (
            ("log(t)", 0.0), ("log(t)", -1.0), ("sqrt(t)", 0.0), ("1/t", 0.0), ("1/(t - t)", 2.0)
        ):
            with pytest.raises(DomainError):
                taylor_lift_at(parse_smooth_map(text), JET2, [at], REAL)
        steep = JET3.element({Monomial((1,)): 1e300}, REAL)
        for text in ("exp(t)", "sin(t)", "cos(t)", "sqrt(1 + t)", "1/(1 + t)"):
            with pytest.raises(DomainError, match="out of float range"):
                taylor_lift(parse_smooth_map(text), JET3, [steep])

    def test_rational_mode_guards_push_to_fallback(self):
        with pytest.raises(ScalarModeError):
            taylor_lift_at(parse_smooth_map("exp(t)"), DUAL, [F(1)])
        values, mode = lift_with_fallback(parse_smooth_map("exp(t)"), DUAL, [F(1)])
        assert mode == REAL
        assert values[0].coords[Monomial((0,))] == pytest.approx(math.e)
        assert values[0].coords[Monomial((1,))] == pytest.approx(math.e)

    def test_sqrt_stays_exact_at_rational_squares(self):
        (v,) = taylor_lift_at(parse_smooth_map("sqrt(t)"), JET2, [F(9, 4)])
        assert v.mode == RATIONAL
        assert frac_coeffs(v, (0,), (1,), (2,)) == [F(3, 2), F(1, 3), F(-1, 27)]

    def test_inverse_lift_is_exact(self):
        (v,) = taylor_lift_at(parse_smooth_map("(1 - t)^-1"), JET3, [F(0)])
        # geometric series 1 + t + t^2 + t^3
        assert frac_coeffs(v, (0,), (1,), (2,), (3,)) == [F(1)] * 4

    def test_functoriality_exact_on_polynomials(self):
        rng = random.Random(9)
        for _ in range(25):
            inner = random_poly_map(rng, 1, 2, max_degree=3)
            outer = random_poly_map(rng, 2, 1, max_degree=2)
            point = (random_element(rng, JET3),)
            composed = taylor_lift(compose_maps(outer, inner), JET3, point)
            staged = taylor_lift(outer, JET3, taylor_lift(inner, JET3, point))
            assert composed == staged

    def test_functoriality_float_within_tolerance(self):
        inner = parse_smooth_map("t^2 + 1")
        outer = parse_smooth_map("log(t)")
        base = [0.7]
        composed = taylor_lift_at(compose_maps(outer, inner), JET3, base, REAL)
        staged = taylor_lift(outer, JET3, taylor_lift_at(inner, JET3, base, REAL))
        for mono in staged[0].coords:
            a = composed[0].coords.get(mono, 0.0)
            b = staged[0].coords[mono]
            assert rel_close(a, b, 1e-9)


class TestDerivativeLaws:
    @pytest.mark.parametrize("text,bases", CORPUS)
    def test_dual_lift_matches_both_oracles(self, text, bases):
        f = parse_smooth_map(text)
        for a in bases:
            (v,) = taylor_lift_at(f, DUAL, [a], REAL)
            lifted = v.coords.get(Monomial((1,)), 0.0)
            assert rel_close(lifted, fd_derivative(f.outputs[0], a), 1e-6)
            assert rel_close(
                lifted, symbolic_derivative_at(f.outputs[0], a), 1e-12, abs_floor=1e-12
            )

    @pytest.mark.parametrize("order", [2, 3, 4])
    def test_jet_coefficients_match_symbolic_oracle(self, order):
        jet = jet_algebra(order)
        for text, bases in CORPUS[::3]:
            f = parse_smooth_map(text)
            for a in bases[:1]:
                (v,) = taylor_lift_at(f, jet, [a], REAL)
                for j in range(order + 1):
                    coeff = v.coords.get(Monomial((j,)), 0.0)
                    want = symbolic_derivative_at(f.outputs[0], a, j) / math.factorial(j)
                    # absolute floor soaks up float noise against exact-zero
                    # coefficients, where relative error is meaningless
                    assert rel_close(coeff, want, 1e-9, abs_floor=1e-9)

    def test_exact_subset_stays_rational(self):
        for text in EXACT_SUBSET:
            f = parse_smooth_map(text)
            values = taylor_lift_at(f, JET2, [F(1, 3)])
            assert all(v.mode == RATIONAL for v in values)


class TestClassAndEquivalence:
    def test_truncation_example(self):
        point = class_of(parse_smooth_map("(t, t^2 + t^3)"), JET2)
        assert [v.format() for v in point.data] == ["t", "t^2"]

    def test_exp_class(self):
        (v,) = class_of(parse_smooth_map("exp(t)"), JET2).data
        assert frac_coeffs(v, (0,), (1,), (2,)) == [F(1), F(1), F(1, 2)]

    def test_constant_class(self):
        (v,) = class_of(parse_smooth_map("5", arity=1), DUAL).data
        assert v == DUAL.const(F(5))

    def test_class_space_shape(self):
        point = class_of(parse_smooth_map("(t, t^2)"), JET2)
        assert point.space == Prolonged(Euclidean(2), JET2)

    def test_arity_must_match_generators(self):
        with pytest.raises(AlgebraMismatch):
            class_of(parse_smooth_map("x + y", arity=2), DUAL)

    def test_log_undefined_at_origin(self):
        with pytest.raises(DomainError):
            class_of(parse_smooth_map("log(t)"), DUAL)

    def test_equivalence_by_truncation(self):
        assert equiv_mod(
            parse_smooth_map("(t, t^2)"), parse_smooth_map("(t, t^2 + t^3)"), JET2
        )

    def test_base_point_mismatch_witness(self):
        verdict = equiv_mod(
            parse_smooth_map("0*t"), parse_smooth_map("1 + 0*t"), DUAL
        )
        assert not verdict
        assert verdict.component == 0
        assert verdict.difference == DUAL.const(F(-1))

    def test_sin_vs_identity(self):
        sin, ident = parse_smooth_map("sin(t)"), parse_smooth_map("t")
        assert equiv_mod(sin, ident, DUAL)
        verdict = equiv_mod(sin, ident, JET3)
        assert not verdict
        assert verdict.component == 0
        assert verdict.difference.coords == {Monomial((3,)): F(-1, 6)}

    def test_equivalence_relation_laws(self):
        rng = random.Random(17)
        algebra = JET3
        ideal = algebra.ideal_generators()
        for _ in range(20):
            f = random_poly_map(rng, algebra.nvars, 2, max_degree=4)
            perturb = [
                parse_polynomial("0", ("t",)).add(rng.choice(ideal))
                for _ in range(2)
            ]
            from weilkit.expressions import Add, polynomial_to_expr

            def plus(g, polys):
                return type(g)(
                    g.arity,
                    tuple(
                        Add(o, polynomial_to_expr(p)) for o, p in zip(g.outputs, polys)
                    ),
                )

            g = plus(f, perturb)
            h = plus(g, perturb)
            assert equiv_mod(f, f, algebra)
            assert equiv_mod(f, g, algebra)
            assert equiv_mod(g, f, algebra)
            assert equiv_mod(g, h, algebra) and equiv_mod(f, h, algebra)

    def test_equivalence_is_congruence_under_postcomposition(self):
        rng = random.Random(23)
        for _ in range(15):
            f = random_poly_map(rng, 1, 2, max_degree=3)
            g = random_poly_map(rng, 1, 2, max_degree=3)
            chi = random_poly_map(rng, 2, 1, max_degree=2)
            if equiv_mod(f, g, JET2):
                assert equiv_mod(
                    compose_maps(chi, f), compose_maps(chi, g), JET2
                )

    def test_class_respects_representatives(self):
        rng = random.Random(31)
        for _ in range(15):
            f = random_poly_map(rng, 2, 1, max_degree=3)
            g = random_poly_map(rng, 2, 1, max_degree=3)
            same_class = class_of(f, D2).data == class_of(g, D2).data
            assert same_class == bool(equiv_mod(f, g, D2))


class TestFragmentSpaces:
    def test_euclidean_prolongs_to_leaf(self):
        assert prolong_space(Euclidean(3), DUAL) == Prolonged(Euclidean(3), DUAL)

    def test_product_distributes(self):
        space = Product((Euclidean(1), Euclidean(2)))
        assert prolong_space(space, DUAL) == Product(
            (Prolonged(Euclidean(1), DUAL), Prolonged(Euclidean(2), DUAL))
        )

    def test_nested_prolongation_collapses_to_tensor(self):
        once = prolong_space(Euclidean(1), DUAL)
        twice = prolong_space(once, JET2)
        assert isinstance(twice, Prolonged)
        assert twice.base == Euclidean(1)
        assert twice.weil == tensor(DUAL, JET2)

    def test_normalize_is_idempotent(self):
        space = Prolonged(Product((Euclidean(1), Prolonged(Euclidean(2), DUAL))), JET2)
        normalized = normalize_space(space)
        assert normalize_space(normalized) == normalized

    def test_wpoint_validation(self):
        space = Prolonged(Euclidean(2), DUAL)
        good = WPoint(space, (DUAL.one(), DUAL.var_element(0)))
        assert good.space == space
        with pytest.raises(AlgebraMismatch):
            WPoint(space, (DUAL.one(),))
        with pytest.raises(AlgebraMismatch):
            WPoint(space, (DUAL.one(), JET2.one()))

    def test_wpoint_normalizes_its_space(self):
        nested = Prolonged(Prolonged(Euclidean(1), DUAL), JET2)
        big = tensor(DUAL, JET2)
        point = WPoint(nested, (big.one(),))
        assert point.space == Prolonged(Euclidean(1), big)

    def test_scalar_leaves_for_bare_euclidean(self):
        point = WPoint(Euclidean(2), (F(1), 2))
        assert point.space == Euclidean(2)


class TestCrossAction:
    def test_identity_morphism_acts_trivially(self):
        act = cross_action(Euclidean(2), identity_morphism(DUAL))
        point = WPoint(
            prolong_space(Euclidean(2), DUAL),
            (DUAL.var_element(0), DUAL.one().add(DUAL.var_element(0))),
        )
        assert act(point).data == point.data

    def test_zero_morphism_is_augmentation(self):
        act = cross_action(Euclidean(1), zero_morphism(DUAL, JET2))
        element = DUAL.const(F(7)).add(DUAL.var_element(0).scale(F(4)))
        out = act(WPoint(prolong_space(Euclidean(1), DUAL), (element,)))
        assert out.data == (JET2.const(F(7)),)

    def test_componentwise_substitution_example(self):
        jet4 = jet_algebra(4)
        psi = mk_morphism(DUAL, jet4, [parse_polynomial("t^3", ("t",))])
        act = cross_action(Euclidean(2), psi)
        a, b, c, d = F(1), F(2), F(3), F(4)
        point = WPoint(
            prolong_space(Euclidean(2), DUAL),
            (
                DUAL.const(a).add(DUAL.var_element(0).scale(b)),
                DUAL.const(c).add(DUAL.var_element(0).scale(d)),
            ),
        )
        out = act(point)
        assert [v.format() for v in out.data] == ["1 + 2*t^3", "3 + 4*t^3"]

    def test_nested_space_uses_widened_morphism(self):
        psi = zero_morphism(DUAL, DUAL)
        space = Prolonged(Euclidean(1), DUAL)
        act = cross_action(space, psi)
        big = tensor(DUAL, DUAL)
        # x1 survives (left factor fixed), x2 dies (right factor zeroed)
        element = big.var_element(0).add(
            big.basis_element(Monomial((1, 1)))
        )
        out = act(WPoint(prolong_space(space, DUAL), (element,)))
        assert out.data == (tensor(DUAL, DUAL).var_element(0),)

    def test_rejects_point_on_wrong_space(self):
        act = cross_action(Euclidean(1), identity_morphism(DUAL))
        with pytest.raises(AlgebraMismatch):
            act(WPoint(prolong_space(Euclidean(1), JET2), (JET2.one(),)))


class TestNaturality:
    def test_polynomial_square_through_cubing_morphism(self):
        jet4 = jet_algebra(4)
        psi = mk_morphism(DUAL, jet4, [parse_polynomial("t^3", ("t",))])
        report = check_naturality(
            parse_smooth_map("t^2"), psi, samples=100, rng=random.Random(1)
        )
        assert report.cases == 100
        assert report.failures == 0

    def test_identity_cases(self):
        psi = identity_morphism(JET2)
        report = check_naturality(
            identity_map(1), psi, samples=10, rng=random.Random(2)
        )
        assert report.failures == 0

    def test_smooth_map_in_real_mode(self):
        psi = mk_morphism(DUAL, JET3, [parse_polynomial("t^2", ("t",))])
        report = check_naturality(
            parse_smooth_map("sin(t) + exp(t)"), psi, samples=40, rng=random.Random(3)
        )
        assert report.failures == 0


class TestNestedElements:
    def test_ring_laws(self):
        rng = random.Random(5)
        for _ in range(15):
            a = random_nested(rng, JET2, DUAL)
            b = random_nested(rng, JET2, DUAL)
            c = random_nested(rng, JET2, DUAL)
            assert a.mul(b) == b.mul(a)
            assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
            assert a.mul(b.mul(c)) == a.mul(b).mul(c)

    def test_augmentation_is_multiplicative(self):
        rng = random.Random(6)
        for _ in range(10):
            a = random_nested(rng, DUAL, JET2)
            b = random_nested(rng, DUAL, JET2)
            assert a.mul(b).augmentation() == a.augmentation() * b.augmentation()

    def test_inverse(self):
        rng = random.Random(7)
        one = nested_const(JET2, DUAL, F(1), RATIONAL)
        for _ in range(10):
            a = random_nested(rng, JET2, DUAL).add(
                nested_const(JET2, DUAL, F(rng.randint(1, 5)), RATIONAL)
            )
            if a.augmentation() == 0:
                continue
            assert a.mul(a.inverse()) == one

    def test_nilpotency_of_augmentation_zero_elements(self):
        rng = random.Random(8)
        for _ in range(10):
            a = random_nested(rng, JET2, JET2)
            a = a.sub(nested_const(JET2, JET2, a.augmentation(), RATIONAL))
            power = nested_const(JET2, JET2, F(1), RATIONAL)
            for _ in range(a.series_order):
                power = power.mul(a)
            assert power == nested_const(JET2, JET2, F(0), RATIONAL)


class TestAssociativityIso:
    def test_dual_dual_basis_bijection(self):
        iso, report = assoc_iso(Euclidean(1), DUAL, DUAL, rng=random.Random(1))
        assert iso.tensor_algebra.dimension == 4
        assert report.failures == 0
        # {1,x} x {1,y} sweeps {1, x1, x2, x1*x2}
        images = set()
        for m in DUAL.basis:
            for n in DUAL.basis:
                nested = NestedElement(DUAL, DUAL, {m: DUAL.basis_element(n)}, RATIONAL)
                (mono,) = iso.forward(nested).coords
                images.add(mono)
        assert images == set(iso.tensor_algebra.basis)

    def test_real_line_factor_is_identity_like(self):
        line = real_line_algebra()
        iso, report = assoc_iso(Euclidean(1), JET2, line, rng=random.Random(2))
        assert report.failures == 0
        assert iso.tensor_algebra.dimension == JET2.dimension

    def test_double_dual_cross_term(self):
        a, b, c, d = F(2), F(3), F(5), F(7)
        unit, x = DUAL.basis
        point = NestedElement(
            DUAL,
            DUAL,
            {
                unit: DUAL.element({unit: a, x: c}),
                x: DUAL.element({unit: b, x: d}),
            },
            RATIONAL,
        )
        ctx = nested_context(DUAL, DUAL)
        cube = lift_expr(parse_smooth_map("t^3").outputs[0], [point], ctx)
        iso = AssociativityIso(DUAL, DUAL, tensor(DUAL, DUAL))
        flat = iso.forward(cube)
        assert flat.coords[Monomial((1, 1))] == 3 * a * a * d + 6 * a * b * c
        assert flat.coords[Monomial((0, 0))] == a ** 3

    def test_lift_coherence_on_random_polynomials(self):
        rng = random.Random(13)
        maps = [random_poly_map(rng, 1, 1, max_degree=3) for _ in range(5)]
        _, report = assoc_iso(
            Euclidean(1), JET2, D2, rng=rng, samples=5, lift_maps=maps
        )
        assert report.failures == 0

    def test_round_trip_on_random_elements(self):
        rng = random.Random(14)
        iso = AssociativityIso(JET3, DUAL, tensor(JET3, DUAL))
        for _ in range(20):
            nested = random_nested(rng, JET3, DUAL)
            assert iso.backward(iso.forward(nested)) == nested


def reference_product_preservation(
    x_space, y_space, algebra, f, samples, rng=None, label=""
):
    """check_product_preservation as it was when every sample compared
    through equiv_mod, lifting f and its components again each time."""
    rng = rng or random.Random(0)
    report = SuiteReport("product-preservation")
    p, q = x_space.dim, y_space.dim
    if f.coarity != p + q:
        raise AlgebraMismatch("map must land in the product of the two spaces")
    first = f.select(range(p))
    second = f.select(range(p, p + q))

    whole = lifting.class_of(f, algebra).data
    split_ok = whole[:p] == lifting.class_of(
        first, algebra
    ).data and whole[p:] == lifting.class_of(second, algebra).data
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
            g_poly = rng.choice(algebra.ideal_generators())
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

        joint = lifting.equiv_mod(f, g, algebra)
        left = lifting.equiv_mod(first, g.select(range(p)), algebra)
        right = lifting.equiv_mod(second, g.select(range(p, p + q)), algebra)
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


def shifted(point):
    """The point with one added to its first coordinate: a wrong class."""
    first = point.data[0]
    return WPoint(point.space, (first.add(first.algebra.one()), *point.data[1:]))


def assert_same_as_reference(x_space, y_space, algebra, f, samples, rng, label=""):
    """Run the check and the reference from one rng state and compare
    the reports field by field and the rng states they leave."""
    ref_rng = random.Random()
    ref_rng.setstate(rng.getstate())
    ref = reference_product_preservation(
        x_space, y_space, algebra, f, samples, ref_rng, label
    )
    report = check_product_preservation(
        x_space, y_space, algebra, f, samples, rng, label
    )
    assert (report.cases, report.failures) == (ref.cases, ref.failures)
    assert report.witnesses == ref.witnesses
    assert report.extra == ref.extra
    assert rng.getstate() == ref_rng.getstate()
    return report


class TestProductPreservation:
    def test_truncation_class_example(self):
        report = check_product_preservation(
            Euclidean(1),
            Euclidean(1),
            JET2,
            parse_smooth_map("(t^2, t^3)"),
            samples=0,
            rng=random.Random(1),
        )
        assert report.failures == 0
        point = class_of(parse_smooth_map("(t^2, t^3)"), JET2)
        assert point.data[0].format() == "t^2"
        assert point.data[1] == JET2.zero()

    def test_constant_map(self):
        report = check_product_preservation(
            Euclidean(1),
            Euclidean(1),
            DUAL,
            parse_smooth_map("(2, 3)", arity=1),
            samples=5,
            rng=random.Random(2),
        )
        assert report.failures == 0

    def test_planted_cases_all_resolve(self):
        rng = random.Random(3)
        for algebra in (JET2, JET3, D2):
            f = random_poly_map(rng, algebra.nvars, 3, max_degree=3)
            report = check_product_preservation(
                Euclidean(2), Euclidean(1), algebra, f, samples=40, rng=rng
            )
            assert report.cases == 41
            assert report.failures == 0

    def test_matches_the_per_sample_reference_on_random_draws(self):
        rng = random.Random(25)
        for _ in range(100):
            algebra = random_weil_algebra(rng)
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            f = random_poly_map(rng, algebra.nvars, p + q, max_degree=3)
            samples = rng.randint(0, 5)
            case_rng = random.Random(rng.random())
            assert_same_as_reference(
                Euclidean(p), Euclidean(q), algebra, f, samples, case_rng
            )

    def test_matches_the_reference_under_a_content_keyed_fault(self):
        # a wrong class for every map whose text hashes to 0 mod 3: both
        # versions lift the same maps, so they must fail the same samples
        real = lifting.class_of

        def faulty(f, algebra, mode=RATIONAL):
            point = real(f, algebra, mode)
            return shifted(point) if zlib.crc32(format_map(f).encode()) % 3 == 0 else point

        rng = random.Random(26)
        failures = 0
        with mock.patch.object(lifting, "class_of", faulty):
            for _ in range(40):
                algebra = random_weil_algebra(rng, max_dimension=12)
                f = random_poly_map(rng, algebra.nvars, 3, max_degree=2)
                report = assert_same_as_reference(
                    Euclidean(2), Euclidean(1), algebra, f, 4, random.Random(rng.random())
                )
                failures += report.failures
        assert failures > 0

    def test_matches_the_reference_on_the_default_suite(self):
        calls = []

        def compared(x_space, y_space, algebra, f, samples, rng, label):
            calls.append(label)
            return assert_same_as_reference(
                x_space, y_space, algebra, f, samples, rng, label
            )

        config = suites.load_config(REPO / "configs" / "default.json")
        with mock.patch.object(suites, "check_product_preservation", compared):
            report = suites.REGISTRY["product-preservation"](config)
        assert len(calls) == config.count("product-preservation") == 50
        assert (report.cases, report.failures) == (150, 0)

    @pytest.mark.parametrize("samples", [0, 1, 2, 5])
    def test_a_case_lifts_its_own_maps_once(self, samples):
        # three lifts for f and its two components, then three per sample
        # for g and its two components
        f = parse_smooth_map("(t^2, sin(t), 1 + t^3)")
        with mock.patch.object(
            lifting, "taylor_lift", wraps=lifting.taylor_lift
        ) as lift:
            report = check_product_preservation(
                Euclidean(2), Euclidean(1), JET3, f, samples, random.Random(5)
            )
        assert report.failures == 0
        assert lift.call_count == 3 + 3 * samples

    @pytest.mark.parametrize("side, offset", [("left", 2), ("right", 0)])
    def test_a_wrong_class_of_one_projection_of_g_fails_the_case(self, side, offset):
        # after the case's own three lifts, each sample lifts g, then its
        # left projection, then its right one; only one projection is wrong
        real = lifting.class_of
        calls = []

        def faulty(f, algebra, mode=RATIONAL):
            calls.append(f)
            point = real(f, algebra, mode)
            return shifted(point) if len(calls) > 3 and len(calls) % 3 == offset else point

        f = parse_smooth_map("(t^2, sin(t), 1 + t^3)")
        with mock.patch.object(lifting, "class_of", faulty):
            report = check_product_preservation(
                Euclidean(2), Euclidean(1), JET3, f, 12, random.Random(6)
            )
        assert len(calls) == 3 + 3 * 12
        assert report.failures > 0
        for witness in report.witnesses:
            # g is equivalent to f, yet the wrong projection says it is not
            assert witness["planted"] == "ideal-member"
            assert witness["joint"] and not witness[side]

    def test_zero_variable_algebra_plants_zero(self):
        point = WeilAlgebra((), (), 1)
        assert point.ideal_generators() == []
        report = check_product_preservation(
            Euclidean(1),
            Euclidean(2),
            point,
            parse_smooth_map("(2, 3, 1/2)", arity=0),
            samples=6,
            rng=random.Random(7),
        )
        assert (report.cases, report.failures) == (7, 0)


def iterate(link: SmoothMap, depth: int) -> SmoothMap:
    """link composed with itself depth times; each level shares the
    previous one by reference wherever link uses its input."""
    f = link
    for _ in range(depth - 1):
        f = compose_maps(link, f)
    return f


def unshared(e: Expr) -> Expr:
    """A copy of e with a fresh node for every occurrence."""
    return dataclasses.replace(
        e,
        **{
            field.name: unshared(getattr(e, field.name))
            for field in dataclasses.fields(e)
            if isinstance(getattr(e, field.name), Expr)
        },
    )


def distinct_nodes(e: Expr) -> int:
    seen, stack = set(), [e]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(
                getattr(node, field.name)
                for field in dataclasses.fields(node)
                if isinstance(getattr(node, field.name), Expr)
            )
    return len(seen)


class TestSharedSubexpressions:
    LINK = parse_smooth_map("t*t + t")
    JET4 = jet_algebra(4)

    def test_deep_composition_lifts_in_linear_time(self):
        f = iterate(self.LINK, 25)
        start = time.perf_counter()
        (v,) = taylor_lift_at(f, self.JET4, [F(0)])
        assert time.perf_counter() - start < 0.25
        # the 2-jet of t -> t + t^2 iterated n times is t + n t^2 + ...
        assert frac_coeffs(v, (0,), (1,), (2,)) == [F(0), F(1), F(25)]

    def test_shared_lift_equals_expanded_tree_lift(self):
        f = iterate(self.LINK, 6)
        (poly,) = map_polynomials(f)
        expanded = SmoothMap(1, (polynomial_to_expr(poly),))
        assert distinct_nodes(f.outputs[0]) < distinct_nodes(expanded.outputs[0])
        for base in (F(0), F(1, 3), F(-2)):
            assert taylor_lift_at(f, self.JET4, [base]) == taylor_lift_at(
                expanded, self.JET4, [base]
            )

    @pytest.mark.parametrize("mode", [RATIONAL, REAL])
    def test_shared_dag_lifts_like_its_unshared_copy(self, mode):
        sample = random_poly_map if mode == RATIONAL else random_smooth_map
        rng = random.Random(31)
        lifted = 0
        for _ in range(12):
            f = sample(rng, 1, 2, max_degree=2)
            for arity, coarity in ((2, 2), (2, 1)):
                f = compose_maps(sample(rng, arity, coarity, max_degree=2), f)
            copy = SmoothMap(1, tuple(unshared(o) for o in f.outputs))
            point = (random_element(rng, JET3, mode=mode, max_terms=3),)
            try:
                shared = taylor_lift(f, JET3, point)
            except DomainError:
                with pytest.raises(DomainError):
                    taylor_lift(copy, JET3, point)
                continue
            assert taylor_lift(copy, JET3, point) == shared
            lifted += distinct_nodes(f.outputs[0]) < distinct_nodes(copy.outputs[0])
        # most draws share nodes and lift without leaving the domain
        assert lifted >= 8


def bits(value):
    """A WeilElement's stored vector, floats by their hex (which tells
    -0.0 from 0.0); any other value as itself."""
    if isinstance(value, WeilElement):
        return [c.hex() if isinstance(c, float) else c for c in value._v], value._den
    return value


def algebra_of(variables, relations, k):
    return mk_weil_algebra(WeilPresentation(tuple(variables), tuple(relations), k))


def power_sum(base: Expr, exponents) -> Expr:
    """base^n1 + base^n2 + ..., every power on the one base node."""
    node = Pow(base, exponents[0])
    for n in exponents[1:]:
        node = Add(node, Pow(base, n))
    return node


class TestSharedPowers:
    """Within one lift the powers of one base value are kept in one list;
    each power must still equal the stepwise times_power(1, base, n)."""

    T0, T1 = Var(0), Var(1)
    UP = (5, 2, 9, 3, 1, 0, 4, 7)
    BOTH = UP + (-1, -3, -2, -3)

    def node_values(self, monkeypatch, e, args, ctx):
        """Every node's value in one lift of e, keyed by node identity."""
        values = {}

        def recording_fold(root, rules, *rest):
            def record(rule):
                def run(node, *kids):
                    values[id(node)] = rule(node, *kids)
                    return values[id(node)]

                return run

            return fold_expr(root, {t: record(r) for t, r in rules.items()}, *rest)

        monkeypatch.setattr(lifting, "fold_expr", recording_fold)
        lift_expr(e, args, ctx)
        monkeypatch.undo()
        return values

    def check(self, monkeypatch, e, args, ctx):
        values = self.node_values(monkeypatch, e, args, ctx)
        stack, powers = [e], 0
        while stack:
            node = stack.pop()
            if isinstance(node, Pow):
                base = values[id(node.base)]
                if node.exponent < 0:
                    base = base.inverse()
                expected = times_power(ctx.const(F(1)), base, abs(node.exponent))
                got = values[id(node)]
                assert got == expected and bits(got) == bits(expected), node
                powers += 1
            elif isinstance(node, Add):
                stack += [node.left, node.right]
        assert powers >= len(self.UP)

    @pytest.mark.parametrize("mode", [RATIONAL, REAL])
    def test_one_variable_jet(self, monkeypatch, mode):
        w = jet_algebra(8)
        at = F(1, 3) if mode == RATIONAL else 0.6
        args = (w.displaced_var(0, at, mode),)
        ctx = weil_context(w, mode)
        for base, exponents in (
            (self.T0, self.BOTH),
            (Add(Const(F(1)), self.T0), self.BOTH),
            (Mul(Const(F(-2)), self.T0), self.BOTH),
            # in real mode, a zero with -0.0 coordinates, and -t, whose
            # zero coordinates are -0.0
            (Neg(Sub(self.T0, self.T0)), self.UP),
            (Neg(self.T0), self.BOTH),
        ):
            self.check(monkeypatch, power_sum(base, exponents), args, ctx)

    @pytest.mark.parametrize("mode", [RATIONAL, REAL])
    def test_nilpotent_bases_at_the_generic_point(self, monkeypatch, mode):
        for w, base in (
            (jet_algebra(4), self.T0),
            (jet_algebra(1), self.T0),
            (algebra_of(["x", "y"], ["x^2 - y^3"], 6), Add(self.T0, self.T1)),
            (algebra_of(["x", "y"], ["x^2 - y^3"], 6), self.T1),
        ):
            ctx = weil_context(w, mode)
            self.check(monkeypatch, power_sum(base, self.UP), w.generic_point(mode), ctx)

    @pytest.mark.parametrize("mode", [RATIONAL, REAL])
    def test_jet_tensor(self, monkeypatch, mode):
        w = tensor(jet_algebra(2), jet_algebra(3))
        at = (F(1, 2), F(-3, 4)) if mode == RATIONAL else (0.5, -0.75)
        args = tuple(w.displaced_var(i, b, mode) for i, b in enumerate(at))
        base = Add(self.T0, Mul(self.T1, self.T1))
        self.check(monkeypatch, power_sum(base, self.BOTH), args, weil_context(w, mode))

    def test_nested_elements(self, monkeypatch):
        rng = random.Random(3)
        w1, w2 = jet_algebra(2), jet_algebra(3)
        ctx = nested_context(w1, w2)
        for _ in range(4):
            args = (random_nested(rng, w1, w2),)
            self.check(monkeypatch, power_sum(self.T0, self.UP), args, ctx)

    def test_each_power_costs_one_product(self, monkeypatch):
        products = []
        mul = WeilElement.mul
        monkeypatch.setattr(WeilElement, "mul", lambda a, b: products.append(1) or mul(a, b))
        f = parse_smooth_map("t^5 - t^4 + t^3 - t^2")
        for mode, at in ((RATIONAL, F(1, 3)), (REAL, 0.5)):
            taylor_lift_at(f, jet_algebra(8), [at], mode)
        assert len(products) == 2 * 4
        # t^2, t^3, t^4 and t^5 = 0 on jet4: the list stops there
        class_of(parse_smooth_map("t^9 + t^2 + t^6"), jet_algebra(4))
        assert len(products) == 2 * 4 + 4

    def test_real_negative_power_over_one_variable_inverts_by_the_recurrence(self, monkeypatch):
        products = []
        mul = WeilElement.mul
        monkeypatch.setattr(WeilElement, "mul", lambda a, b: products.append(1) or mul(a, b))
        w = jet_algebra(16)
        (power,) = taylor_lift_at(parse_smooth_map("(1 - t)^-1"), w, [0.5], REAL)
        # the one product is 1·base, which reads every zero coordinate as +0.0
        assert len(products) == 1
        (quotient,) = taylor_lift_at(parse_smooth_map("1/(1 - t)"), w, [0.5], REAL)
        assert len(products) == 1 and power == quotient


class TestConstantsStayNumbers:
    """A subexpression without variables lifts to a constant; it is kept
    as a number, so constant factors and divisors cost no product and no
    inverse, and the result is the one the element arithmetic gives."""

    def counting(self, monkeypatch):
        calls = {"mul": 0, "inverse": 0}
        for name in calls:
            method = getattr(WeilElement, name)

            def counted(*a, name=name, method=method):
                calls[name] += 1
                return method(*a)

            monkeypatch.setattr(WeilElement, name, counted)
        return calls

    def test_constant_coefficients_cost_no_product(self, monkeypatch):
        calls = self.counting(monkeypatch)
        f = parse_smooth_map("1/4*t*t - 1/2*t + 1/16")
        for mode, at in ((RATIONAL, F(1, 3)), (REAL, 0.5)):
            taylor_lift_at(f, jet_algebra(4), [at], mode)
        assert calls == {"mul": 2, "inverse": 0}

    def test_constant_divisor_costs_no_inverse(self, monkeypatch):
        calls = self.counting(monkeypatch)
        w = tensor(jet_algebra(2), jet_algebra(3))
        f = parse_smooth_map("t0/3 + t1")
        for mode, at in ((RATIONAL, [F(1, 2), F(2)]), (REAL, [0.5, 2.0])):
            third = F(1, 3) if mode == RATIONAL else 1 / 3
            x0, x1 = (w.displaced_var(i, b, mode) for i, b in enumerate(at))
            assert taylor_lift_at(f, w, at, mode) == (x0.scale(third).add(x1),)
        assert calls == {"mul": 0, "inverse": 0}

    def test_variable_free_output_is_a_constant(self, monkeypatch):
        calls = self.counting(monkeypatch)
        w = jet_algebra(4)
        f = parse_smooth_map("(2^10 - 1/3, exp(t))", 1)
        values, mode = lift_with_fallback(f, w, [F(1, 2)])
        assert mode == REAL and bits(values[0]) == bits(w.const(1024 - 1 / 3, REAL))
        values, mode = lift_with_fallback(f.select([0]), w, [F(1, 2)])
        assert mode == RATIONAL and values == (w.const(F(3071, 3)),)
        assert calls == {"mul": 0, "inverse": 0}

    def test_exact_quotients_over_one_variable_take_one_pass(self, monkeypatch):
        # a / b is one run of the quotient recurrence, with no inverse and
        # no product; a negative power is the inverse, then 1·base
        calls = self.counting(monkeypatch)
        w = jet_algebra(16)
        for text, counts in (
            ("t/(1 + t^2)", {"mul": 1, "inverse": 0}),
            ("(t - 1)/(t + 2)", {"mul": 0, "inverse": 0}),
            ("(1 - t)^-1", {"mul": 1, "inverse": 1}),
        ):
            calls.update(mul=0, inverse=0)
            taylor_lift_at(parse_smooth_map(text), w, [F(1, 3)])
            assert calls == counts, text

    @pytest.mark.parametrize("mode", [RATIONAL, REAL])
    def test_scaling_stores_what_the_constant_product_stores(self, mode):
        # _scaled copies the rounding of const(s)·x, which skips zero
        # coordinates and adds into 0.0; a change to the product's
        # accumulation that _scaled does not mirror fails here
        rng = random.Random(9)
        if mode == RATIONAL:
            scalars = [F(0), F(1), F(-2), F(1, 3), F(-7, 4), F(10**30, 7)]
        else:
            scalars = [0.0, -0.0, 1.0, -2.0, 1 / 3, -1.75, 1e-300, -3e200]
        compared = 0
        for w in (
            jet_algebra(1),
            jet_algebra(4),
            jet_algebra(8),
            tensor(jet_algebra(2), jet_algebra(3)),
            algebra_of(["x", "y"], ["x^2 - y^3"], 6),
        ):
            xs = [w.zero(mode), w.displaced_var(0, F(-3, 2), mode)]
            xs += [random_element(rng, w, mode=mode, max_terms=4) for _ in range(4)]
            xs += [x.neg() for x in xs]  # in real mode, zero coordinates of -0.0
            for s in scalars:
                for x in xs:
                    assert bits(lifting._scaled(s, x)) == bits(w.const(s, mode).mul(x)), (w, s, x)
                    compared += 1
        assert compared == 5 * 12 * len(scalars)

    @pytest.mark.parametrize(
        "text, algebra, at, message",
        [
            # 1/inf would read 0.0: the square itself is out of range
            (
                "exp(t) + 1/(2^1000)^2",
                jet_algebra(4),
                [F(1, 2)],
                "a real-mode coordinate is out of float range",
            ),
            # the constant's higher Taylor coefficients overflow on a jet tensor
            (
                "sqrt(2/10^200)*t0 + exp(t1)",
                tensor(jet_algebra(6), jet_algebra(6)),
                [F(1, 2), F(1, 3)],
                "sqrt Taylor coefficients at 1.9999999999999994e-200 are out of float range",
            ),
        ],
    )
    def test_out_of_range_constants_raise_where_elements_do(self, text, algebra, at, message):
        with pytest.raises(DomainError) as info:
            lift_with_fallback(parse_smooth_map(text), algebra, at)
        assert str(info.value) == message


def test_exact_quotient_lifts_match_sympy_series():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    texts = ["1/(1 + t^2)", "t/(1 + t^2)", "(1 - t)^-1", "(t - 1)/(t + 2)", "(2*t + 3)^-3"]
    for text in texts:
        f, expr = parse_smooth_map(text), sympy.sympify(text.replace("^", "**"), {"t": t})
        for at in (F(0), F(1, 3), F(-5, 2)):
            # one series to order 17; jets 2 and 8 read its first 3 and 9
            shifted = expr.subs(t, t + sympy.Rational(at.numerator, at.denominator))
            series = sympy.expand(sympy.series(shifted, t, 0, 17).removeO())
            want = [series.coeff(t, j) for j in range(17)]
            want = [F(int(c.p), int(c.q)) for c in want]
            for k in (2, 8, 16):
                (value,) = taylor_lift_at(f, jet_algebra(k), [at])
                got = frac_coeffs(value, *((j,) for j in range(k + 1)))
                assert got == want[: k + 1], (text, at, k)


NOT_INVERTIBLE = "element with zero augmentation is not invertible"


class TestExactCheck:
    """The exact attempt first folds the map in exact numbers at the base
    point, where the primitives' coefficients are decided."""

    def test_it_fails_before_building_an_element(self, monkeypatch):
        built = []
        assemble = WeilAlgebra._assemble
        monkeypatch.setattr(WeilAlgebra, "_assemble", lambda *a: built.append(a) or assemble(*a))
        with pytest.raises(ScalarModeError, match="exp has irrational"):
            taylor_lift_at(parse_smooth_map("t^2/3 + exp(t)"), jet_algebra(4), [F(1, 2)])
        assert built == []

    @pytest.mark.parametrize(
        "text, at, outcome",
        [
            ("sqrt(t)", F(1, 9), RATIONAL),
            ("log(3*t)", F(1, 3), RATIONAL),
            ("exp(t - 1/2)*sin(t - t)", F(1, 2), RATIONAL),
            ("exp(t) + log(t)", F(1, 2), REAL),
            # the fold stops at the first error and leaves it to the lift
            ("1/(t - t) + exp(t)", F(1, 2), NOT_INVERTIBLE),
            # in floats the divisor is 5.6e-17, so a real lift would pass
            ("(1/(1/10 + 2/10 - 3/10), exp(t))", F(1, 2), NOT_INVERTIBLE),
            ("(t^-1*0 + log(t), exp(t))", F(0), NOT_INVERTIBLE),
            ("(log(t - 1/2), exp(t))", F(1, 2), "log undefined or not smooth at 0"),
        ],
    )
    def test_it_keeps_the_outcome(self, text, at, outcome):
        f = parse_smooth_map(text, 1)
        if outcome in (RATIONAL, REAL):
            assert lift_with_fallback(f, jet_algebra(4), [at])[1] == outcome
        else:
            with pytest.raises(DomainError) as info:
                lift_with_fallback(f, jet_algebra(4), [at])
            assert str(info.value) == outcome

    @pytest.mark.parametrize(
        "text, at, message",
        [
            ("1/(t - t) + exp(t)", F(1, 2), NOT_INVERTIBLE),
            ("(1/(1/10 + 2/10 - 3/10), exp(t))", F(1, 2), NOT_INVERTIBLE),
            ("(t^-1*0 + log(t), exp(t))", F(0), NOT_INVERTIBLE),
            ("(log(t - 1/2), exp(t))", F(1, 2), "log undefined or not smooth at 0"),
        ],
    )
    def test_a_failing_attempt_builds_no_element(self, text, at, message, monkeypatch):
        # whatever the error, the check raises it at the node where the
        # lift would, before the lift builds its point
        f, algebra, built = parse_smooth_map(text, 1), jet_algebra(4), []
        init = WeilElement.__init__
        monkeypatch.setattr(
            WeilElement, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k)
        )
        with pytest.raises(DomainError) as info:
            taylor_lift_at(f, algebra, [at], RATIONAL)
        assert str(info.value) == message
        assert built == []

    def test_it_runs_only_for_maps_with_a_primitive(self, monkeypatch):
        folded = []
        monkeypatch.setattr(lifting, "_check_exact_at", lambda f, *rest: folded.append(f))
        polynomial, primitive = parse_smooth_map("t^2 - 1/3"), parse_smooth_map("exp(t)")
        composed = compose_maps(polynomial, primitive)
        for f in (polynomial, compose_maps(polynomial, polynomial), primitive, composed):
            taylor_lift_at(f, jet_algebra(4), [F(0)])
            taylor_lift_at(f, jet_algebra(4), [0.5], REAL)
        assert folded == [primitive, composed]


def _texts(variables):
    """Expressions over + - * / ^, small integers, the variables and the
    primitives."""
    leaves = st.one_of(st.sampled_from(variables), st.integers(0, 4).map(str))

    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: "({} {} {})".format(*t)),
            inner.map(lambda a: f"-{a}"),
            st.tuples(inner, st.integers(-3, 4)).map(lambda t: "({})^{}".format(*t)),
            st.tuples(st.sampled_from(PRIMITIVES), inner).map(lambda t: "{}({})".format(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=10)


_BASE = st.sampled_from((F(0), F(1), F(9, 4), F(-3, 2), F(1, 3)))
_JET_TENSOR = tensor(jet_algebra(2), jet_algebra(3))
_LIFTS = st.one_of(
    st.tuples(_texts(["t"]), st.integers(1, 8).map(jet_algebra), st.tuples(_BASE).map(list)),
    st.tuples(_texts(["t0", "t1"]), st.just(_JET_TENSOR), st.tuples(_BASE, _BASE).map(list)),
)


def _outcome(f, algebra, base, lift=lift_with_fallback):
    try:
        values, mode = lift(f, algebra, base)
    except Exception as exc:
        return type(exc), str(exc)
    return mode, [bits(v) for v in values]


def _real_lift(f, algebra, base):
    return taylor_lift_at(f, algebra, [float(b) for b in base], REAL), REAL


def _elements_for_constants(f: SmoothMap) -> SmoothMap:
    """f with each constant c written c + 0*t0, which lifts to the
    element const(c) bit for bit and keeps every node an element."""
    zero_t0 = Mul(Const(F(0)), Var(0))
    rules = {**_REBUILD, Var: lambda e: e, Const: lambda e: Add(e, zero_t0)}
    return SmoothMap(f.arity, tuple(fold_expr(o, rules) for o in f.outputs))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_LIFTS)
def test_exact_check_at_the_base_point_changes_no_outcome(lift):
    text, algebra, base = lift
    f = parse_smooth_map(text, arity=algebra.nvars)
    checked = _outcome(f, algebra, base)
    with mock.patch.object(lifting, "_check_exact_at", lambda *args: None):
        assert _outcome(f, algebra, base) == checked


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_LIFTS)
def test_constants_as_numbers_lift_as_constant_elements(lift):
    text, algebra, base = lift
    f = parse_smooth_map(text, arity=algebra.nvars)
    g = _elements_for_constants(f)
    assert _outcome(f, algebra, base) == _outcome(g, algebra, base)
    assert _outcome(f, algebra, base, _real_lift) == _outcome(g, algebra, base, _real_lift)


# constants whose element has -0.0 coordinates or a rounding of its own
@pytest.mark.parametrize(
    "text",
    [
        "-2", "-2*t0", "t0*(-0)", "-1*0", "-1 + -2", "-1 - 2", "-1 - -2", "-(1 - 1)", "-0 - 0",
        "-(t0^2) + -1", "-(t0^2) - -1", "sin(-0)", "cos(1)", "-cos(1)", "log(-(1 - 3))",
        "sqrt(-(0 - 4))", "5*t0/3", "exp(-0)", "1/(-3)", "0/(-3)", "-1/(-3)", "5/3", "t0/(-3)",
        "(-t0)/(-3)", "(2/3)^7", "(-5/7)^9", "(5/7)^-3", "(-0)^2", "(-2)^-1", "1/(2^-1000/2^74)",
        "(2^1000)^2", "-(2^-1000)*2^-1000", "1/(1/10 + 2/10 - 3/10)", "(-1/3)/3*3",
        "-2/(1 + t0^2)", "(exp(t0), -3/2 + 3/2)",
    ],
)
@pytest.mark.parametrize(
    "algebra, base",
    [(jet_algebra(1), [F(1, 2)]), (jet_algebra(4), [F(-3, 2)]), (_JET_TENSOR, [F(1, 2), F(1, 3)])],
)
def test_edge_constants_lift_as_constant_elements(text, algebra, base):
    f = parse_smooth_map(text, arity=algebra.nvars)
    g = _elements_for_constants(f)
    for lift in (lift_with_fallback, _real_lift):
        assert _outcome(f, algebra, base, lift) == _outcome(g, algebra, base, lift)
