import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from weilkit.algebras import preset_algebra
from weilkit.errors import DomainError, ParseError, ScalarModeError
from weilkit.expressions import (
    MAX_NESTING,
    Add,
    Call,
    Const,
    Mul,
    Pow,
    Var,
    compose_maps,
    eval_expr_exact,
    eval_expr_float,
    eval_map_float,
    expr_polynomial,
    format_expr,
    format_map,
    is_polynomial_map,
    map_polynomials,
    max_var_index,
    pair_maps,
    parse_smooth_map,
    polynomial_to_expr,
)
from weilkit.lifting import taylor_lift_at
from weilkit.polynomials import parse_polynomial, variable


def parse1(text, arity=None):
    f = parse_smooth_map(text, arity)
    assert f.coarity == 1
    return f.outputs[0]


class TestParsing:
    def test_single_variable(self):
        assert parse1("t") == Var(0)
        assert parse1("x") == Var(0)
        assert parse1("y") == Var(1)
        assert parse1("t0") == Var(0)
        assert parse1("t7") == Var(7)

    def test_arity_inference(self):
        assert parse_smooth_map("t0 + t2").arity == 3
        assert parse_smooth_map("sin(t)").arity == 1
        assert parse_smooth_map("3").arity == 0

    def test_arity_check(self):
        with pytest.raises(ParseError):
            parse_smooth_map("t3", arity=2)
        f = parse_smooth_map("t0", arity=4)
        assert f.arity == 4

    def test_precedence(self):
        e = parse1("1 + 2*t^3")
        assert e == Add(Const(Fraction(1)), Mul(Const(Fraction(2)), Pow(Var(0), 3)))

    def test_power_binds_tighter_than_neg(self):
        # -t^2 evaluated at t=3 is -9, not 9
        e = parse1("-t^2")
        assert eval_expr_float(e, [3.0]) == -9.0

    def test_negative_exponent(self):
        e = parse1("t^-2")
        assert eval_expr_float(e, [2.0]) == 0.25

    def test_call(self):
        assert parse1("sin(t)") == Call("sin", Var(0))
        assert parse1("exp(cos(x))") == Call("exp", Call("cos", Var(0)))

    def test_tuple_top_level(self):
        f = parse_smooth_map("(t, t^2 + t^3)")
        assert f.coarity == 2
        g = parse_smooth_map("t, t^2 + t^3")
        assert g.outputs == f.outputs

    def test_tuple_not_nested(self):
        with pytest.raises(ParseError):
            parse_smooth_map("sin((t, t))")
        with pytest.raises(ParseError):
            parse_smooth_map("1 + (t, t)")

    def test_rational_literal(self):
        e = parse1("1/2*t")
        assert eval_expr_exact(e, [Fraction(4)]) == Fraction(2)

    @pytest.mark.parametrize(
        "bad",
        ["", "t +", "(t", "sin", "sin t", "z3", "t^x", "2 t", "t ^ 1.5", "(t,)"],
    )
    def test_malformed(self, bad):
        with pytest.raises(ParseError):
            parse_smooth_map(bad)

    @pytest.mark.parametrize(
        "open_, close, per_level",
        [("(", ")", 1), ("sin(", ")", 1), ("-", "", 1), ("-(", ")", 2)],
    )
    def test_nesting_bound(self, open_, close, per_level):
        levels = MAX_NESTING // per_level
        parse_smooth_map(open_ * levels + "t" + close * levels)
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_smooth_map(open_ * (levels + 1) + "t" + close * (levels + 1))

    @pytest.mark.parametrize(
        "text", ["(" * 1200 + "t" + ")" * 1200, "-" * 2000 + "t", "cos(" * 700 + "t" + ")" * 700]
    )
    def test_deep_nesting_is_a_parse_error(self, text):
        with pytest.raises(ParseError, match="nested deeper than"):
            parse_smooth_map(text)

    def test_error_position(self):
        with pytest.raises(ParseError) as exc:
            parse_smooth_map("t + qq")
        assert exc.value.position == 6


class TestEvaluation:
    def test_float_primitives(self):
        f = parse_smooth_map("sin(t)^2 + cos(t)^2")
        (v,) = eval_map_float(f, [0.37])
        assert abs(v - 1.0) < 1e-15

    def test_exact_arithmetic(self):
        e = parse1("(t + 1/3)^2 - t^2")
        assert eval_expr_exact(e, [Fraction(1, 2)]) == Fraction(4, 9)

    def test_exact_rejects_primitives(self):
        with pytest.raises(ScalarModeError):
            eval_expr_exact(parse1("sin(t)"), [Fraction(0)])

    def test_log_domain(self):
        with pytest.raises(DomainError):
            eval_expr_float(parse1("log(t)"), [0.0])
        with pytest.raises(DomainError):
            eval_expr_float(parse1("log(t)"), [-1.0])

    def test_sqrt_domain(self):
        with pytest.raises(DomainError):
            eval_expr_float(parse1("sqrt(t)"), [-4.0])

    def test_division_by_zero(self):
        with pytest.raises(DomainError):
            eval_expr_float(parse1("1/t"), [0.0])
        with pytest.raises(DomainError):
            eval_expr_exact(parse1("1/t"), [Fraction(0)])


class TestComposition:
    def test_compose_chain_rule_shape(self):
        outer = parse_smooth_map("sin(t)")
        inner = parse_smooth_map("t^2")
        h = compose_maps(outer, inner)
        assert h.outputs[0] == Call("sin", Pow(Var(0), 2))

    def test_compose_multi(self):
        outer = parse_smooth_map("x*y", arity=2)
        inner = parse_smooth_map("(t, t + 1)")
        h = compose_maps(outer, inner)
        (v,) = eval_map_float(h, [3.0])
        assert v == 12.0

    def test_compose_arity_mismatch(self):
        with pytest.raises(ValueError):
            compose_maps(parse_smooth_map("x*y", arity=2), parse_smooth_map("t"))

    def test_pair(self):
        f = pair_maps(parse_smooth_map("t", arity=1), parse_smooth_map("t^2", arity=1))
        assert f.coarity == 2
        assert eval_map_float(f, [2.0]) == (2.0, 4.0)


class TestPolynomialExtraction:
    def test_polynomial_map(self):
        f = parse_smooth_map("(x^2 - y^3, x*y)", arity=2)
        polys = map_polynomials(f)
        assert polys is not None
        assert polys[0] == parse_polynomial("x^2 - y^3", ("x", "y"))
        assert polys[1] == parse_polynomial("x*y", ("x", "y"))

    def test_constant_division_folds(self):
        e = parse1("t^2/4")
        p = expr_polynomial(e, 1)
        assert p == parse_polynomial("1/4*t^2", ("t",))

    def test_primitives_are_not_polynomial(self):
        assert not is_polynomial_map(parse_smooth_map("sin(t)"))
        assert expr_polynomial(parse1("1/(1+t)"), 1) is None

    def test_negative_power_of_constant_folds(self):
        p = expr_polynomial(parse1("2^-3 * t"), 1)
        assert p == parse_polynomial("1/8*t", ("t",))

    @given(st.integers(-5, 5), st.integers(-5, 5), st.integers(0, 4))
    def test_extraction_agrees_with_evaluation(self, a, b, e):
        expr = parse1("(2*t + 1/3)^%d - %d*t + %d" % (e, a, b))
        p = expr_polynomial(expr, 1)
        for t in (Fraction(0), Fraction(1, 2), Fraction(-2, 7)):
            assert p.evaluate([t]) == eval_expr_exact(expr, [t])


class TestFormatting:
    @pytest.mark.parametrize(
        "text",
        ["t^2 - 3*t + 1", "sin(cos(t))", "1/2*t^4", "(t, t^2)", "-t^3", "x*y - y^2"],
    )
    def test_round_trip(self, text):
        f = parse_smooth_map(text)
        g = parse_smooth_map(format_map(f), arity=f.arity)
        for args in ([0.3] * f.arity, [1.7] * f.arity, [-0.9] * f.arity):
            assert eval_map_float(f, args) == pytest.approx(eval_map_float(g, args))

    def test_polynomial_to_expr_round_trip(self):
        p = parse_polynomial("x^2 - 1/2*x*y + 3", ("x", "y"))
        e = polynomial_to_expr(p)
        assert expr_polynomial(e, 2) == p
        # and the formatted text reparses to the same polynomial
        text = format_expr(e)
        f = parse_smooth_map(text, arity=2)
        assert expr_polynomial(f.outputs[0], 2) == p


class TestDeepExpressions:
    """A left-deep sum of 50,000 terms: about 10^5 nodes, far deeper than
    the interpreter's recursion limit."""

    TERMS = 50_000

    @pytest.fixture(scope="class")
    def deep(self):
        return parse_smooth_map(" + ".join(["t"] * self.TERMS))

    def test_walkers(self, deep):
        (e,) = deep.outputs
        n = Fraction(self.TERMS)
        assert deep.arity == 1 and max_var_index(e) == 0
        assert expr_polynomial(e, 1) == variable(1, 0).scale(n)
        assert eval_expr_exact(e, [Fraction(3)]) == 3 * n
        assert eval_expr_float(e, [0.5]) == self.TERMS / 2

    def test_lift(self, deep):
        dual = preset_algebra("dual")
        (v,) = taylor_lift_at(deep, dual, [Fraction(2)])
        assert v == dual.element({dual.basis[0]: 2 * self.TERMS, dual.basis[1]: self.TERMS})

    def test_format_round_trip(self, deep):
        text = format_map(deep)
        assert text == " + ".join(["t0"] * self.TERMS)
        assert format_map(parse_smooth_map(text)) == text
