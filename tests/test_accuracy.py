"""Real-mode lifts against mpmath at 50 digits.

Real mode promises accuracy, not bits: for every lift, the largest
coefficient error is at most ``BOUND`` times the largest reference
coefficient, ``max_j |got_j - ref_j| <= BOUND * max_j |ref_j|``.  The
reference Taylor coefficients come from ``mpmath.taylor`` (numerical
differentiation at 50 digits) and ``mpmath.diff`` for mixed partials, on
the expression evaluated in mpmath arithmetic, so they share nothing with
the lifting path.  Exact mode is pinned bit for bit elsewhere
(``test_element_kernel.py``).
"""

from fractions import Fraction
from math import factorial

import pytest
from expr_corpus import CORPUS

from weilkit.algebras import (
    REAL,
    WeilPresentation,
    jet_algebra,
    mk_weil_algebra,
    preset_algebra,
    tensor,
)
from weilkit.cli import main
from weilkit.expressions import (
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    fold_expr,
    parse_smooth_map,
)
from weilkit.lifting import taylor_lift, taylor_lift_at

mpmath = pytest.importorskip("mpmath")

BOUND = 1e-13
DIGITS = 50


@pytest.fixture(autouse=True)
def fifty_digits():
    with mpmath.workdps(DIGITS):
        yield


def _mp(value) -> "mpmath.mpf":
    """A float or Fraction as an mpf, exactly at 50 digits."""
    if isinstance(value, Fraction):
        return mpmath.mpf(value.numerator) / value.denominator
    return mpmath.mpf(value)


_MP_RULES = {
    Const: lambda e: _mp(e.value),
    Add: lambda e, l, r: l + r,
    Sub: lambda e, l, r: l - r,
    Mul: lambda e, l, r: l * r,
    Div: lambda e, l, r: l / r,
    Neg: lambda e, a: -a,
    Pow: lambda e, b: b ** e.exponent,
    Call: lambda e, v: getattr(mpmath, e.fn)(v),
}


def mp_function(text: str, arity: int):
    """The expression as a function of mpf arguments."""
    (out,) = parse_smooth_map(text, arity=arity).outputs

    def f(*args):
        return fold_expr(out, {**_MP_RULES, Var: lambda e: args[e.index]})

    return f


def relative_error(got, ref) -> float:
    scale = max(abs(r) for r in ref)
    return float(max(abs(_mp(g) - r) for g, r in zip(got, ref)) / scale)


def coefficients(value, algebra):
    return [value.coords.get(m, 0.0) for m in algebra.basis]


def univariate_errors(algebra):
    """(relative error, map, point) of every real-mode corpus lift over a
    one-variable algebra whose basis is 1, t, ..., t^(d-1)."""
    d = algebra.dimension
    assert algebra.basis == tuple((j,) for j in range(d))
    for text, points in CORPUS:
        f, ref_f = parse_smooth_map(text, arity=1), mp_function(text, 1)
        for p in points:
            (value,) = taylor_lift_at(f, algebra, [p], REAL)
            ref = mpmath.taylor(ref_f, _mp(p), d - 1)
            yield relative_error(coefficients(value, algebra), ref), text, p


def test_real_corpus_lifts_are_within_the_bound():
    errors = [
        (err, text, p, k)
        for k in (2, 4, 8, 12, 16)
        for err, text, p in univariate_errors(jet_algebra(k))
    ]
    assert len(errors) == 540
    worst = max(errors)
    assert worst[0] <= BOUND, worst


def test_non_jet_one_variable_algebra_is_within_the_bound():
    # t^3 = t^5 = t^2 * t^3 = t^7, which is 0 at order 6: the quotient is R[t]/(t^3)
    w = mk_weil_algebra(WeilPresentation(("t",), ("t^3 - t^5",), 6))
    assert w.dimension == 3 and w.order == 6
    errors = list(univariate_errors(w))
    assert len(errors) == 108
    worst = max(errors)
    assert worst[0] <= BOUND, worst


NEGATIVE_POWERS = [
    ("(1 - t)^-1", [0.0, 0.5, -0.5, 0.9]),
    ("(2 + t^2)^-3", [0.0, 0.7, -1.3]),
    ("(t - 3)^-2", [0.5, -2.0, 2.9]),
    ("(1 + sin(t))^-1", [0.0, 1.2, -0.4]),
]


def test_real_negative_powers_are_within_the_bound():
    """Over one variable a negative power inverts by the quotient
    recurrence, as a quotient does."""
    lifts = 0
    for w in [jet_algebra(k) for k in (2, 4, 8, 12, 16)] + [
        mk_weil_algebra(WeilPresentation(("t",), ("t^3 - t^5",), 6))
    ]:
        d = w.dimension
        for text, points in NEGATIVE_POWERS:
            f, ref_f = parse_smooth_map(text, arity=1), mp_function(text, 1)
            for p in points:
                (value,) = taylor_lift_at(f, w, [p], REAL)
                err = relative_error(coefficients(value, w), mpmath.taylor(ref_f, _mp(p), d - 1))
                assert err <= BOUND, (text, p, d, err)
                lifts += 1
    assert lifts == 6 * 13


BIVARIATE = [
    ("sin(x)*y + exp(x*y)", (0.4, -0.7)),
    ("log(1 + x^2 + y^2)", (0.9, 0.3)),
    ("x/(1 + y^2)", (-1.2, 0.6)),
    ("cos(x + 2*y)*exp(y)", (0.25, -0.5)),
    ("sqrt(1 + x^2*y^2)", (1.1, 0.8)),
    ("exp(x)*sin(y)/(2 + cos(x))", (-0.3, 1.3)),
]


def bivariate_error(w, text, p, q) -> float:
    """The relative error of the real lift at (p + x, q + y) over a
    two-variable algebra whose basis is monomials x^i y^j, with the
    mixed partials divided by i! j! as the reference."""
    f, ref_f = parse_smooth_map(text, arity=2), mp_function(text, 2)
    point = (w.const(p, REAL).add(w.var_element(0, REAL)),
             w.const(q, REAL).add(w.var_element(1, REAL)))
    (value,) = taylor_lift(f, w, point)
    ref = [
        mpmath.diff(ref_f, (_mp(p), _mp(q)), m) / (factorial(m[0]) * factorial(m[1]))
        for m in w.basis
    ]
    return relative_error(coefficients(value, w), ref)


def test_mixed_partials_over_jet_tensors_are_within_the_bound():
    """Over tensor(jet_a, jet_b) the coefficient of x^i y^j is the mixed
    partial d^(i+j) f / dx^i dy^j divided by i! j!."""
    lifts = 0
    for a, b in ((1, 3), (2, 2), (3, 2), (4, 4)):
        w = tensor(jet_algebra(a), jet_algebra(b))
        for text, (p, q) in BIVARIATE:
            err = bivariate_error(w, text, p, q)
            assert err <= BOUND, (text, (p, q), (a, b), err)
            lifts += 1
    assert lifts == 24


# one map per primitive, and log at 10^26, where a^j overflows a float
# though no coefficient does
PRIMITIVE_MAPS = [
    ("exp(x - 2*y)", (0.3, -0.4)),
    ("sin(x*y + x)", (0.7, 1.1)),
    ("cos(x + y^2)", (-0.5, 0.9)),
    ("log(x + y^2)", (1.3, 0.6)),
    ("log(x) + y", (1e26, 0.0)),
    ("sqrt(x^2 + y + 1)", (0.8, 1.5)),
]


def test_primitives_over_multivariable_algebras_are_within_the_bound():
    """Over more than one variable each primitive's series comes from
    the recurrences at its argument's augmentation, summed by Horner's
    rule."""
    lifts = 0
    for w in (
        preset_algebra("d2"),
        tensor(jet_algebra(1), jet_algebra(1)),
        tensor(jet_algebra(2), jet_algebra(5)),
        tensor(jet_algebra(6), jet_algebra(6)),
    ):
        for text, (p, q) in PRIMITIVE_MAPS:
            err = bivariate_error(w, text, p, q)
            assert err <= BOUND, (text, (p, q), w.dimension, err)
            lifts += 1
    assert lifts == 24


def test_derive_output_is_within_the_bound(capsys):
    """``weilkit derive`` prints f^(j)(base) for j <= order; divided by j!
    they are the Taylor coefficients the bound is stated on."""
    order = 12
    for text, points in CORPUS:
        ref_f = mp_function(text, 1)
        for p in points:
            base = str(Fraction(str(p)))
            assert main(["derive", "--order", str(order), "--expr", text, "--at", base]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert [line.split(": ")[0] for line in lines] == [str(j) for j in range(order + 1)]
            got = [_mp(Fraction(line.split(": ")[1])) / factorial(j) for j, line in enumerate(lines)]
            ref = mpmath.taylor(ref_f, _mp(Fraction(base)), order)
            assert relative_error(got, ref) <= BOUND, (text, base, order)
