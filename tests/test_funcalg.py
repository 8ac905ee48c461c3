"""Carrier polynomials, domain morphisms, currying, and the functoriality
probe."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilkit.algebras import (
    RATIONAL,
    REAL,
    WeilElement,
    WeilPresentation,
    elements_close,
    mk_weil_algebra,
    preset_algebra,
    real_line_algebra,
    tensor,
)
from weilkit.errors import AlgebraMismatch, DegreeOverflow, IdealViolation, ScalarModeError
from weilkit.funcalg import (
    CarrierPoint,
    CurriedValue,
    CurryIso,
    Domain,
    DomainMorphism,
    WeilPoly,
    block_monomials,
    carrier_space,
    check_coproduct_currying,
    check_product_splitting,
    compose_domain_morphisms,
    curried_const,
    curry_iso,
    domain_coproduct,
    identity_domain_morphism,
    induced_action,
    postcompose,
    probe_functoriality,
    random_carrier_point,
    random_domain,
    random_domain_morphism,
    random_weil_poly,
    space_dims,
    substitute_poly,
    unit_domain,
    wpoly_base_var,
    wpoly_const,
    wpoly_element,
    wpoly_from_base,
    wpoly_zero,
)
from weilkit.lifting import (
    AssociativityIso,
    Euclidean,
    NestedElement,
    Product,
    random_nested,
)
from weilkit.polynomials import Monomial, Polynomial, parse_polynomial

DUAL = preset_algebra("dual")
JET2 = preset_algebra("jet2")
D2 = preset_algebra("d2")
RLINE = real_line_algebra()


def wp(text, algebra):
    """Rational-coefficient carrier polynomial in the single variable t."""
    return wpoly_from_base(parse_polynomial(text, ("t",)), algebra)


class TestWeilPoly:
    def test_construction_drops_zero_coefficients(self):
        p = WeilPoly(1, DUAL, {Monomial((0,)): DUAL.zero(), Monomial((1,)): DUAL.one()})
        assert list(p.terms) == [Monomial((1,))]

    def test_rejects_float_mode_coefficients(self):
        with pytest.raises(AlgebraMismatch):
            WeilPoly(1, DUAL, {Monomial((0,)): DUAL.const(1.5)})

    def test_rejects_mismatched_arity(self):
        with pytest.raises(AlgebraMismatch):
            WeilPoly(1, DUAL, {Monomial((1, 0)): DUAL.one()})

    def test_rejects_foreign_coefficients(self):
        with pytest.raises(AlgebraMismatch):
            WeilPoly(1, DUAL, {Monomial((0,)): JET2.one()})

    def test_add_and_sub_are_inverse(self):
        rng = random.Random(4)
        dom = Domain(2, JET2)
        a = random_weil_poly(rng, dom, 2)
        b = random_weil_poly(rng, dom, 2)
        assert a.add(b).sub(b) == a

    def test_mul_matches_base_polynomial_product(self):
        a = wp("1 + 2*t + 3*t^2", RLINE)
        b = wp("5 - t", RLINE)
        prod = parse_polynomial("1 + 2*t + 3*t^2", ("t",)).mul(
            parse_polynomial("5 - t", ("t",))
        )
        assert a.mul(b) == wpoly_from_base(prod, RLINE)

    def test_mul_reduces_nilpotent_coefficients(self):
        x = wpoly_element(1, DUAL.var_element(0))
        assert x.mul(x).is_zero()

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_ring_laws(self, seed):
        rng = random.Random(seed)
        dom = Domain(1, JET2)
        a = random_weil_poly(rng, dom, 2)
        b = random_weil_poly(rng, dom, 2)
        c = random_weil_poly(rng, dom, 2)
        assert a.mul(b) == b.mul(a)
        assert a.mul(b.mul(c)) == a.mul(b).mul(c)
        assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))

    def test_pow_int(self):
        t = wpoly_base_var(1, DUAL, 0)
        assert t.pow_int(3) == wp("t^3", DUAL)
        assert t.pow_int(0) == wpoly_const(1, DUAL, Fraction(1))
        with pytest.raises(ValueError):
            t.pow_int(-1)

    def test_base_degree(self):
        assert wp("1 + t^4", DUAL).base_degree() == 4
        assert wpoly_zero(1, DUAL).base_degree() == 0

    def test_format_mentions_coefficients_and_monomials(self):
        p = WeilPoly(1, DUAL, {Monomial((2,)): DUAL.var_element(0)})
        assert p.format(names=("u",)) == "(x)*u^2"

    def test_substitute_poly_on_plain_fractions(self):
        class Box:
            def __init__(self, v):
                self.v = v

            def add(self, o):
                return Box(self.v + o.v)

            def mul(self, o):
                return Box(self.v * o.v)

        poly = parse_polynomial("x^2*y + 3*y", ("x", "y"))
        out = substitute_poly(poly, [Box(Fraction(2)), Box(Fraction(5))], lambda c: Box(c))
        assert out.v == Fraction(35)


class TestDomains:
    def test_default_block_structure(self):
        assert Domain(3, DUAL).blocks == (3,)
        assert Domain(0, DUAL).blocks == ()

    def test_block_validation(self):
        with pytest.raises(AlgebraMismatch):
            Domain(3, DUAL, blocks=(2, 2))
        with pytest.raises(AlgebraMismatch):
            Domain(2, DUAL, blocks=(2, 0))

    def test_coproduct_adds_arities_and_tensors(self):
        c = domain_coproduct(Domain(2, DUAL), Domain(3, JET2))
        assert c.base_arity == 5
        assert c.blocks == (2, 3)
        assert c.weil.dimension == DUAL.dimension * JET2.dimension

    def test_coproduct_absorbs_unit_literally(self):
        c = Domain(2, JET2)
        assert domain_coproduct(unit_domain(), c) == c
        assert domain_coproduct(c, unit_domain()) == c

    def test_block_monomial_count_differs_from_total_degree(self):
        per_block = list(block_monomials((1, 1), 2))
        total = list(block_monomials((2,), 2))
        assert len(per_block) == 9
        assert len(total) == 6

    def test_block_monomials_empty_blocks(self):
        assert list(block_monomials((), 3)) == [Monomial(())]


class TestCarrierSpaces:
    def test_dimension_formula_single_block(self):
        # p * C(n + d, d) * dim(W)
        cs = carrier_space(Euclidean(2), Domain(1, JET2), 2)
        assert cs.dimension == 2 * 3 * 3

    def test_dimension_zero_base_arity(self):
        cs = carrier_space(Euclidean(2), Domain(0, D2), 3)
        assert cs.dimension == 2 * D2.dimension

    def test_dimension_two_blocks_frozen(self):
        dom = domain_coproduct(Domain(1, DUAL), Domain(1, DUAL))
        assert carrier_space(Euclidean(1), dom, 2).dimension == 36

    def test_enumeration_matches_formula_small_grid(self):
        for p in (1, 2):
            for dom in (Domain(1, DUAL), Domain(2, JET2), Domain(0, DUAL)):
                for d in (0, 1, 2):
                    cs = carrier_space(Euclidean(p), dom, d)
                    assert sum(1 for _ in cs.basis()) == cs.dimension

    def test_basis_vectors_live_in_the_space(self):
        cs = carrier_space(Euclidean(1), Domain(1, DUAL), 1)
        vectors = list(cs.basis())
        assert len(vectors) == 4
        assert all(v.domain == cs.domain for v in vectors)

    def test_product_space_flattens(self):
        space = Product((Euclidean(2), Euclidean(1)))
        assert space_dims(space) == (2, 1)
        cs = carrier_space(space, Domain(1, DUAL), 1)
        assert cs.dimension == 3 * 2 * 2

    def test_rejects_prolonged_shapes(self):
        from weilkit.lifting import Prolonged

        with pytest.raises(ValueError):
            carrier_space(Prolonged(Euclidean(1), DUAL), Domain(1, DUAL), 1)

    def test_carrier_point_validation(self):
        dom = Domain(1, DUAL)
        good = wpoly_const(1, DUAL, Fraction(2))
        CarrierPoint(Euclidean(1), dom, (good,))
        with pytest.raises(AlgebraMismatch):
            CarrierPoint(Euclidean(2), dom, (good,))
        with pytest.raises(AlgebraMismatch):
            CarrierPoint(Euclidean(1), dom, (wpoly_const(2, DUAL, Fraction(1)),))


class TestPostcompose:
    def test_polynomial_substitution(self):
        from weilkit.expressions import parse_smooth_map

        dom = Domain(1, RLINE)
        f = parse_smooth_map("x^2 + y", arity=2)
        point = CarrierPoint(
            Euclidean(2), dom, (wp("t", RLINE), wp("1 + t", RLINE))
        )
        out = postcompose(f, point)
        assert out.data[0] == wp("1 + t + t^2", RLINE)

    def test_smooth_map_rejected(self):
        from weilkit.expressions import parse_smooth_map

        dom = Domain(1, DUAL)
        point = CarrierPoint(Euclidean(1), dom, (wp("t", DUAL),))
        with pytest.raises(AlgebraMismatch):
            postcompose(parse_smooth_map("sin(t)"), point)

    def test_arity_mismatch_rejected(self):
        from weilkit.expressions import parse_smooth_map

        dom = Domain(1, DUAL)
        point = CarrierPoint(Euclidean(1), dom, (wp("t", DUAL),))
        with pytest.raises(AlgebraMismatch):
            postcompose(parse_smooth_map("x + y", arity=2), point)

    def test_nilpotent_coefficients_truncate(self):
        from weilkit.expressions import parse_smooth_map

        dom = Domain(1, DUAL)
        # (a + x*t)^2 = a^2 + 2a x t since x^2 = 0
        point = CarrierPoint(
            Euclidean(1),
            dom,
            (
                WeilPoly(
                    1,
                    DUAL,
                    {
                        Monomial((0,)): DUAL.const(Fraction(3)),
                        Monomial((1,)): DUAL.var_element(0),
                    },
                ),
            ),
        )
        out = postcompose(parse_smooth_map("t^2"), point)
        expected = WeilPoly(
            1,
            DUAL,
            {
                Monomial((0,)): DUAL.const(Fraction(9)),
                Monomial((1,)): DUAL.var_element(0).scale(Fraction(6)),
            },
        )
        assert out.data[0] == expected


def old_domain_apply(rho, wp):
    """``DomainMorphism.apply`` as it was before the basis-image table:
    flatten the carrier polynomial into one polynomial over the base and
    Weil variables, then substitute every term."""
    flat = Polynomial(
        wp.nvars + wp.algebra.nvars,
        {
            Monomial(mono + nil): c
            for mono, coeff in wp.terms.items()
            for nil, c in coeff.coords.items()
        },
    )
    n, algebra = rho.target.base_arity, rho.target.weil
    const = lambda c: wpoly_const(n, algebra, c)
    return substitute_poly(flat, rho.base_part + rho.weil_part, const)


class TestDomainMorphisms:
    def test_apply_matches_flatten_and_substitute(self):
        rng = random.Random(2022)
        arities = set()
        for _ in range(40):
            a, b, c = random_domain(rng), random_domain(rng), random_domain(rng)
            rho, sigma = random_domain_morphism(rng, a, b), random_domain_morphism(rng, b, c)
            n, algebra = a.base_arity, a.weil
            inputs = [random_weil_poly(rng, a, 2) for _ in range(6)] + [wpoly_zero(n, algebra)]
            inputs += [wpoly_base_var(n, algebra, i) for i in range(n)]
            inputs += [wpoly_element(n, algebra.var_element(j)) for j in range(algebra.nvars)]
            for morphism in (rho, compose_domain_morphisms(rho, sigma)):
                for carrier in inputs:
                    out, expected = morphism.apply(carrier), old_domain_apply(morphism, carrier)
                    assert out == expected and hash(out) == hash(expected)
                    assert set(out._rows) == set(expected._rows)
                    assert list(out.terms) == list(expected.terms)
            arities.add(n)
        assert arities == {0, 1, 2}

    def test_base_substitution_example(self):
        dom = Domain(1, RLINE)
        rho = DomainMorphism(dom, dom, [wp("t^2", RLINE)], [])
        carrier = WeilPoly(
            1,
            RLINE,
            {
                Monomial((0,)): RLINE.const(Fraction(2)),
                Monomial((1,)): RLINE.const(Fraction(5)),
            },
        )
        assert rho.apply(carrier) == wp("2 + 5*t^2", RLINE)

    def test_nilpotency_witness_enforced(self):
        # sending the dual generator to a base variable cannot be a morphism
        target = Domain(1, RLINE)
        with pytest.raises(IdealViolation):
            DomainMorphism(Domain(0, DUAL), target, [], [wpoly_base_var(1, RLINE, 0)])

    def test_relation_enforced_beyond_witnesses(self):
        # jet2 has t^3 = 0: sending its generator to the d2 generator x1
        # works, but sending the d2 generator to the jet2 generator does
        # not survive x1^2 = 0
        ok = DomainMorphism(
            Domain(0, JET2),
            Domain(0, D2),
            [],
            [wpoly_element(0, D2.var_element(0))],
        )
        assert ok.weil_part[0].terms
        with pytest.raises(IdealViolation):
            DomainMorphism(
                Domain(0, D2),
                Domain(0, JET2),
                [],
                [
                    wpoly_element(0, JET2.var_element(0)),
                    wpoly_element(0, JET2.var_element(0)),
                ],
            )

    def test_base_images_with_nilpotent_terms_allowed(self):
        dom = Domain(1, DUAL)
        image = WeilPoly(
            1,
            DUAL,
            {
                Monomial((1,)): DUAL.one(),
                Monomial((2,)): DUAL.var_element(0),
            },
        )
        rho = DomainMorphism(dom, dom, [image], [wpoly_element(1, DUAL.var_element(0))])
        # push t: just the image itself
        assert rho.apply(wpoly_base_var(1, DUAL, 0)) == image

    def test_apply_is_a_ring_homomorphism(self):
        rng = random.Random(21)
        source = Domain(1, JET2)
        target = Domain(2, D2)
        rho = random_domain_morphism(rng, source, target)
        for _ in range(10):
            a = random_weil_poly(rng, source, 2)
            b = random_weil_poly(rng, source, 2)
            assert rho.apply(a.add(b)) == rho.apply(a).add(rho.apply(b))
            assert rho.apply(a.mul(b)) == rho.apply(a).mul(rho.apply(b))

    def test_identity_morphism_fixes_carriers(self):
        rng = random.Random(33)
        dom = domain_coproduct(Domain(1, DUAL), Domain(1, JET2))
        ident = identity_domain_morphism(dom)
        for _ in range(5):
            a = random_weil_poly(rng, dom, 2)
            assert ident.apply(a) == a

    def test_compose_agrees_with_staged_application(self):
        rng = random.Random(55)
        for trial in range(8):
            a = random_domain(rng)
            b = random_domain(rng)
            c = random_domain(rng)
            rho = random_domain_morphism(rng, a, b)
            sigma = random_domain_morphism(rng, b, c)
            both = compose_domain_morphisms(rho, sigma)
            x = random_weil_poly(rng, a, 2)
            assert both.apply(x) == sigma.apply(rho.apply(x))

    def test_compose_identity_laws(self):
        rng = random.Random(77)
        a = Domain(1, DUAL)
        b = Domain(1, JET2)
        rho = random_domain_morphism(rng, a, b)
        assert compose_domain_morphisms(identity_domain_morphism(a), rho) == rho
        assert compose_domain_morphisms(rho, identity_domain_morphism(b)) == rho

    def test_compose_requires_matching_domains(self):
        rng = random.Random(88)
        rho = random_domain_morphism(rng, Domain(1, DUAL), Domain(1, JET2))
        with pytest.raises(AlgebraMismatch):
            compose_domain_morphisms(rho, rho)

    def test_shared_power_tables_change_no_result(self):
        # induced_action shares one table of monomial values across a
        # point's entries, and composition across the first morphism's
        # images; each entry must be what a table-less substitution gives
        rng = random.Random(13)
        space = Euclidean(4)
        for _ in range(6):
            a, b, c = random_domain(rng), random_domain(rng), random_domain(rng)
            rho = random_domain_morphism(rng, a, b)
            sigma = random_domain_morphism(rng, b, c)
            const = lambda c: wpoly_const(b.base_arity, b.weil, c)

            def fresh(x):
                flat = Polynomial(
                    a.base_arity + a.weil.nvars,
                    {
                        Monomial(mono + nil): c
                        for mono, coeff in x.terms.items()
                        for nil, c in coeff.coords.items()
                    },
                )
                return substitute_poly(flat, rho.base_part + rho.weil_part, const)

            point = random_carrier_point(rng, space, a, 2)
            expected = tuple(fresh(x) for x in point.data)
            assert tuple(rho.apply(x) for x in point.data) == expected
            assert tuple(rho.apply(x) for x in point.data) == expected
            act = induced_action(space, rho, 20)
            assert act(point).data == expected
            assert act(point).data == expected
            composite = compose_domain_morphisms(rho, sigma)
            assert composite.base_part == tuple(sigma.apply(p) for p in rho.base_part)
            assert composite.weil_part == tuple(sigma.apply(p) for p in rho.weil_part)

    def test_an_image_handed_back_is_left_alone_by_ring_operations(self):
        # apply of a lone base variable returns its image object itself
        a, b = Domain(2, DUAL), Domain(1, JET2)
        image = wpoly_from_base(parse_polynomial("x^2 + 3*x", ("x",)), JET2)
        rho = DomainMorphism(a, b, [image, wpoly_base_var(1, JET2, 0)], [wpoly_zero(1, JET2)])
        snapshot = (image.format(), dict(image.terms))
        out = rho.apply(wpoly_base_var(2, DUAL, 0))
        assert out is image
        for result in (
            out.add(out), out.sub(out), out.neg(), out.scale(Fraction(5)),
            out.mul(out), out.scale_element(JET2.var_element(0)),
        ):
            assert result is not image
        assert (image.format(), image.terms) == snapshot
        assert rho.base_part[0] == wpoly_from_base(parse_polynomial("x^2 + 3*x", ("x",)), JET2)

    def test_sampled_morphisms_are_always_valid(self):
        rng = random.Random(101)
        for _ in range(30):
            source = random_domain(rng)
            target = random_domain(rng)
            # constructor re-runs the annihilation check; no raise = valid
            random_domain_morphism(rng, source, target)


class TestInducedAction:
    def test_identity_action(self):
        rng = random.Random(5)
        dom = Domain(1, JET2)
        act = induced_action(Euclidean(2), identity_domain_morphism(dom), 4)
        pt = random_carrier_point(rng, Euclidean(2), dom, 2)
        assert act(pt).data == pt.data

    def test_degree_overflow_raised_not_truncated(self):
        dom = Domain(1, RLINE)
        rho = DomainMorphism(dom, dom, [wp("t^2", RLINE)], [])
        act = induced_action(Euclidean(1), rho, 3)
        pt = CarrierPoint(Euclidean(1), dom, (wp("t^3", RLINE),))
        with pytest.raises(DegreeOverflow):
            act(pt)

    def test_wrong_source_rejected(self):
        dom = Domain(1, DUAL)
        other = Domain(1, JET2)
        rng = random.Random(9)
        rho = random_domain_morphism(rng, dom, dom)
        act = induced_action(Euclidean(1), rho, 8)
        pt = random_carrier_point(rng, Euclidean(1), other, 1)
        with pytest.raises(AlgebraMismatch):
            act(pt)

    def test_composition_matches_on_fixed_pair(self):
        rng = random.Random(13)
        a, b, c = Domain(1, DUAL), Domain(1, JET2), Domain(2, DUAL)
        rho = random_domain_morphism(rng, a, b)
        sigma = random_domain_morphism(rng, b, c)
        pt = random_carrier_point(rng, Euclidean(2), a, 1)
        staged = induced_action(Euclidean(2), sigma, 32)(
            induced_action(Euclidean(2), rho, 32)(pt)
        )
        joint = induced_action(Euclidean(2), compose_domain_morphisms(rho, sigma), 32)(pt)
        assert staged.data == joint.data


class TestCurrying:
    def test_toy_regrouping(self):
        # a + b s + c t + d s t  <->  (a + c t) in the unit slot, (b + d t)
        # in the s slot
        iso = CurryIso(1, RLINE, 1, RLINE)
        T = iso.coproduct
        coeffs = {
            Monomial((0, 0)): Fraction(2),
            Monomial((1, 0)): Fraction(3),
            Monomial((0, 1)): Fraction(5),
            Monomial((1, 1)): Fraction(7),
        }
        value = WeilPoly(2, T.weil, {m: T.weil.const(c) for m, c in coeffs.items()})
        curried = iso.forward(value)
        unit_slot = (Monomial((0,)), Monomial(()))
        s_slot = (Monomial((1,)), Monomial(()))
        assert curried.slots[unit_slot] == wp("2 + 5*t", RLINE)
        assert curried.slots[s_slot] == wp("3 + 7*t", RLINE)
        assert iso.backward(curried) == value

    def test_forward_is_multiplicative(self):
        rng = random.Random(17)
        iso = CurryIso(1, DUAL, 1, JET2)
        dom = iso.coproduct
        for _ in range(10):
            a = random_weil_poly(rng, dom, 2)
            b = random_weil_poly(rng, dom, 2)
            assert iso.forward(a.mul(b)) == iso.forward(a).mul(iso.forward(b))

    def test_curried_const_is_multiplicative_unit(self):
        rng = random.Random(19)
        iso = CurryIso(1, DUAL, 1, DUAL)
        one = curried_const(1, DUAL, 1, DUAL, Fraction(1))
        a = iso.forward(random_weil_poly(rng, iso.coproduct, 2))
        assert one.mul(a) == a

    def test_curry_iso_report_frozen_size(self):
        _, report = curry_iso(1, 1, 1, DUAL, DUAL, 2, rng=random.Random(3), samples=8)
        # 1 dimension case + 36 forward round trips + 1 count + 36 reverse
        # round trips + 8 linearity samples
        assert report.cases == 82
        assert report.failures == 0

    def test_curry_iso_small_grid(self):
        rng = random.Random(29)
        for inner in (RLINE, DUAL, JET2):
            for outer in (RLINE, DUAL):
                for n, m in ((1, 1), (2, 1), (0, 2)):
                    _, report = curry_iso(
                        2, n, m, inner, outer, 1, rng=rng, samples=3
                    )
                    assert report.failures == 0, (inner, outer, n, m)

    def test_dimension_match_frozen(self):
        report = check_coproduct_currying(
            Euclidean(1), Domain(1, DUAL), Domain(1, DUAL), 2,
            samples=4, rng=random.Random(41),
        )
        assert report.failures == 0
        assert not report.witnesses

    def test_currying_check_with_zero_base_factor(self):
        report = check_coproduct_currying(
            Euclidean(2), Domain(0, JET2), Domain(1, DUAL), 2,
            samples=4, rng=random.Random(43),
        )
        assert report.failures == 0

    def test_currying_check_with_unit_factor(self):
        report = check_coproduct_currying(
            Euclidean(1), unit_domain(), Domain(1, DUAL), 2,
            samples=4, rng=random.Random(47),
        )
        assert report.failures == 0

    def test_currying_rejects_multiblock_factors(self):
        nested = domain_coproduct(Domain(1, DUAL), Domain(1, DUAL))
        with pytest.raises(AlgebraMismatch):
            check_coproduct_currying(
                Euclidean(1), nested, Domain(1, DUAL), 1, samples=1
            )


class TestProductSplitting:
    def test_frozen_dimensions(self):
        dom = Domain(1, DUAL)
        both = carrier_space(Product((Euclidean(1), Euclidean(1))), dom, 1)
        each = carrier_space(Euclidean(1), dom, 1)
        assert (both.dimension, each.dimension) == (8, 4)

    def test_check_passes(self):
        report = check_product_splitting(
            Euclidean(1), Euclidean(1), Domain(1, DUAL), 1,
            samples=10, rng=random.Random(51),
        )
        assert report.name == "pairing"
        assert report.cases == 12
        assert report.failures == 0

    def test_check_passes_asymmetric(self):
        report = check_product_splitting(
            Euclidean(2), Euclidean(1), Domain(2, JET2), 2,
            samples=6, rng=random.Random(53),
        )
        assert report.failures == 0


class TestFunctorialityProbe:
    def test_probe_reports_evidence(self):
        report = probe_functoriality(
            Euclidean(2), 32, samples=25, rng=random.Random(61), label="probe"
        )
        assert report.name == "conjecture-probe"
        assert report.cases == 25
        assert report.failures == 0
        assert report.extra["outcome"] == "evidence-for"

    def test_probe_flags_a_broken_composition(self):
        # sabotage composition so every image collapses to zero: the probe
        # must notice and flip its outcome to a serialized counterexample
        def collapse(first, second):
            target = second.target
            zero = wpoly_zero(target.base_arity, target.weil)
            return DomainMorphism(
                first.source,
                target,
                [zero] * first.source.base_arity,
                [zero] * first.source.weil.nvars,
            )

        with mock.patch("weilkit.funcalg.compose_domain_morphisms", collapse):
            report = probe_functoriality(
                Euclidean(1), 32, samples=12, rng=random.Random(67)
            )
        assert report.extra["outcome"] == "counterexample"
        assert report.failures > 0
        witness = report.witnesses[0]
        assert "composite-action" in witness and "staged-action" in witness

    def test_probe_is_seed_deterministic(self):
        r1 = probe_functoriality(Euclidean(1), 32, samples=8, rng=random.Random(71))
        r2 = probe_functoriality(Euclidean(1), 32, samples=8, rng=random.Random(71))
        assert r1.cases == r2.cases and r1.extra == r2.extra


# x*y reduces to x^2/2 here, so a basis product can carry a factor other than 1
SKEW = mk_weil_algebra(WeilPresentation(("x", "y"), ("x^2 - 2*x*y",), 3))
SKEW_CURRY = CurryIso(1, SKEW, 1, DUAL)
SKEW_ASSOC = AssociativityIso(SKEW, JET2, tensor(SKEW, JET2))

# Per coordinate type with ring-valued coefficients: a seeded sampler, a
# value of another shape, and a ring map onto a product computed without
# the shared operations (None where the basis product has no factors).
RING_COORDS = {
    "carrier": (
        lambda rng: random_weil_poly(rng, Domain(1, SKEW), 2),
        lambda rng: random_weil_poly(rng, Domain(1, DUAL), 2),
        None,
    ),
    "curried": (
        lambda rng: SKEW_CURRY.forward(random_weil_poly(rng, SKEW_CURRY.coproduct, 1)),
        lambda rng: curried_const(1, DUAL, 1, DUAL, Fraction(2)),
        SKEW_CURRY.backward,
    ),
    "nested-rational": (
        lambda rng: random_nested(rng, SKEW, JET2, RATIONAL),
        lambda rng: random_nested(rng, DUAL, JET2, RATIONAL),
        SKEW_ASSOC.forward,
    ),
    "nested-real": (
        lambda rng: random_nested(rng, SKEW, JET2, REAL),
        lambda rng: random_nested(rng, DUAL, JET2, REAL),
        SKEW_ASSOC.forward,
    ),
}


def close(a, b):
    """Exact equality, or coefficientwise closeness in real mode, where
    regrouped float sums may differ in the last bits."""
    if a.mode == RATIONAL:
        return a == b
    if isinstance(a, WeilElement):
        return elements_close(a, b)
    zero = a.scalars.zero(REAL)
    return all(
        elements_close(a.terms.get(k, zero), b.terms.get(k, zero))
        for k in set(a.terms) | set(b.terms)
    )


class TestSharedRingOperations:
    def test_one_implementation_serves_every_type(self):
        for cls in (WeilPoly, CurriedValue, NestedElement):
            assert not {"add", "neg", "sub", "scale", "mul"} & set(vars(cls))

    @pytest.mark.parametrize("kind", sorted(RING_COORDS))
    def test_ring_laws(self, kind):
        sample, _, flatten = RING_COORDS[kind]
        rng = random.Random(83)
        for _ in range(8):
            a, b, c = sample(rng), sample(rng), sample(rng)
            assert close(a.mul(b), b.mul(a))
            assert close(a.mul(b.mul(c)), a.mul(b).mul(c))
            assert close(a.mul(b.add(c)), a.mul(b).add(a.mul(c)))
            assert close(a.scale(Fraction(3, 2)).mul(b), a.mul(b).scale(Fraction(3, 2)))
            if flatten is not None:
                assert close(flatten(a.mul(b)), flatten(a).mul(flatten(b)))
                assert flatten(a.sub(b)) == flatten(a).sub(flatten(b))
            assert a.sub(a).is_zero() and not a.is_zero()
            assert a.add(b) == b.add(a) and hash(a.add(b)) == hash(b.add(a))
            assert a.neg().neg() == a and hash(a.neg().neg()) == hash(a)

    @pytest.mark.parametrize("kind", sorted(RING_COORDS))
    def test_shape_mismatch(self, kind):
        sample, other_shape, _ = RING_COORDS[kind]
        rng = random.Random(89)
        a, b = sample(rng), other_shape(rng)
        assert a != b
        for op in (a.add, a.sub, a.mul):
            with pytest.raises(AlgebraMismatch):
                op(b)

    def test_nested_mode_mismatch(self):
        rng = random.Random(97)
        exact = random_nested(rng, SKEW, JET2, RATIONAL)
        real = random_nested(rng, SKEW, JET2, REAL)
        assert exact != real
        for a, b in ((exact, real), (real, exact)):
            for op in (a.add, a.sub, a.mul):
                with pytest.raises(ScalarModeError):
                    op(b)
