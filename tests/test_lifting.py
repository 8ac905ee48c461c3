import dataclasses
import math
import random
import time
from fractions import Fraction

import pytest

from expr_corpus import CORPUS, EXACT_SUBSET
from oracles import fd_derivative, rel_close, symbolic_derivative_at

from weilkit.algebras import (
    RATIONAL,
    REAL,
    identity_morphism,
    jet_algebra,
    mk_morphism,
    preset_algebra,
    real_line_algebra,
    tensor,
    zero_morphism,
)
from weilkit.cli import main
from weilkit.errors import AlgebraMismatch, DomainError, ScalarModeError
from weilkit.expressions import (
    Expr,
    SmoothMap,
    compose_maps,
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
)
from weilkit.polynomials import Monomial, parse_polynomial
from weilkit.samplers import random_element, random_poly_map, random_smooth_map

DUAL = preset_algebra("dual")
JET2 = preset_algebra("jet2")
JET3 = preset_algebra("jet3")
D2 = preset_algebra("d2")

F = Fraction


def frac_coeffs(element, *exponent_tuples):
    return [element.coords.get(Monomial(e), F(0)) for e in exponent_tuples]


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

    @pytest.mark.parametrize("fn, at", [("exp", 1000.0), ("log", 1e200), ("log", 1e-200)])
    def test_float_overflow_is_domain_error(self, fn, at):
        with pytest.raises(DomainError, match="out of float range"):
            taylor_coefficients(fn, at, 4, REAL)

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
