"""Exact polynomial layer: parsing, graded-lex order, truncated
reduction bases, normal forms.

Expected pivot sets and normal forms below were derived independently by
enumerating the truncated products generator * monomial by hand and row
reducing over the rationals before the implementation existed; they are
frozen here as ground truth.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilkit.algebras import WeilAlgebra, WeilPresentation, mk_weil_algebra, preset_algebra
from weilkit.errors import AlgebraMismatch, ImproperIdeal, ParseError
from weilkit.polynomials import (
    Monomial,
    Polynomial,
    build_reduction_basis,
    constant,
    embed_poly,
    from_monomial,
    monomials_below_degree,
    parse_polynomial,
    substitute_poly,
    unit_monomial,
    variable,
)
from weilkit.samplers import random_polynomial
from reference_polynomial_parser import parse_polynomial as reference_parse


def P(text: str, names=("x", "y")) -> Polynomial:
    return parse_polynomial(text, names)


# ---------------------------------------------------------------------------
# parsing


def test_parse_basic_binomial():
    p = P("x^2 - y^3")
    assert p.terms == {
        Monomial((2, 0)): Fraction(1),
        Monomial((0, 3)): Fraction(-1),
    }


def test_parse_rational_coefficients():
    p = P("1/2*x^2*y - 3*y^4")
    assert p.terms == {
        Monomial((2, 1)): Fraction(1, 2),
        Monomial((0, 4)): Fraction(-3),
    }


def test_parse_merges_like_terms():
    assert P("2*x + 3*x") == P("5*x")


def test_parse_zero_is_canonical():
    assert P("0").is_zero()
    assert P("x - x").is_zero()


def test_parse_whitespace_insensitive():
    assert P("  1/2 * x ^ 2 * y-3*y^4") == P("1/2*x^2*y - 3*y^4")


def test_parse_repeated_variable_factors_multiply():
    assert P("x*x*y") == P("x^2*y")


@pytest.mark.parametrize(
    "bad",
    ["", "x +", "2x", "x^", "x y", "1/0", "* x", "z + 1", "x^2 ++ y"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        P(bad)


@pytest.mark.parametrize(
    "bad, message, position",
    [
        # str.isdigit accepts a superscript digit, which int() cannot read
        ("x^\u00b2", "expected integer", 2),
        ("1\u00b2*x", "expected '\\*', '\\+', '-' or end after coefficient", 1),
        ("x + 2/\u00b2", "expected integer", 6),
    ],
)
def test_parse_reads_digits_as_int_does(bad, message, position):
    with pytest.raises(ParseError, match=message) as exc:
        P(bad)
    assert exc.value.position == position


def test_parse_rejects_integer_too_long():
    for bad in ("x^" + "9" * 5000, "9" * 5000 + "*x", "1/" + "9" * 5000):
        with pytest.raises(ParseError, match="too long"):
            P(bad)


@pytest.mark.parametrize(
    "bad, position",
    # a '*' after a coefficient needs a factor after it, as one after a
    # factor does: none of these reads as the sum without the '*'
    [("3*", 2), ("3*-x", 2), ("3* + x", 3), ("1/2*", 4), ("x^2 + 0*-y", 8)],
)
def test_parse_refuses_a_dangling_star_after_a_coefficient(bad, position):
    with pytest.raises(ParseError, match="dangling") as exc:
        P(bad)
    assert exc.value.position == position
    # the reader this one replaced took the '*' for no '*' at all
    assert isinstance(reference_parse(bad, ("x", "y")), Polynomial)


def test_parse_refuses_duplicate_names():
    # the second "x" took the first one's place in the name table
    with pytest.raises(ValueError, match="^variable names must be distinct$"):
        parse_polynomial("x", ["x", "x"])
    # so a hand-built presentation fails as the algebra's own check does
    duplicated = WeilPresentation(("x", "x"), ("x^2",), 3)
    with pytest.raises(ValueError, match="^variable names must be distinct$"):
        mk_weil_algebra(duplicated)
    with pytest.raises(ValueError, match="^variable names must be distinct$"):
        WeilAlgebra(("x", "x"), (), 3)


def test_parse_reads_a_name_that_a_digit_opens():
    # only the library API passes such a name: the grammar reads the
    # longest run of name characters at a factor, not the number token
    assert parse_polynomial("2*1x", ("1x",)) == constant(1, 2).mul(variable(1, 0))
    assert parse_polynomial("x*1x^2", ("1x", "x")).terms == {Monomial((2, 1)): 1}
    with pytest.raises(ParseError, match="unknown variable '3'"):
        parse_polynomial("2*3", ("x",))


# -- the tokenizing reader against the character reader it replaced ---------

_NAMES = ["x", "y", "z", "t", "x1", "_z", "θ", "²x", "sin", "1x", "x y"]
_NUMBERS = ["0", "1", "2", "3", "12", "٣", "१२"]
_ATOMS = (
    _NAMES
    + _NUMBERS
    + ["²", "¹", "½", "Ⅷ", "9" * 5000, "9" * 4300]
    + [" ", "\t", "\xa0", "　", "\x1c", "\n"]
    + list("+-*/^(),.")
)
_NAME_TABLES = [
    (),
    ("x",),
    ("x", "y"),
    ("x y",),
    ("1x", "x"),
    ("x", "y", "z", "t", "x1", "_z", "θ", "²x", "sin"),
]


def _near_valid(rng: random.Random, names) -> str:
    """A polynomial text in the grammar over ``names``, now and then
    another name, then up to two edits of one character or one atom."""
    terms = []
    for _ in range(rng.randint(1, 4)):
        factors = []
        if rng.random() < 0.5:
            coeff = rng.choice(_NUMBERS)
            if rng.random() < 0.3:
                coeff += "/" + rng.choice(_NUMBERS)
            factors.append(coeff + ("*" if rng.random() < 0.1 else ""))
        for _ in range(rng.randint(0 if factors or not names else 1, 3)):
            name = rng.choice(names if names and rng.random() < 0.95 else _NAMES)
            factors.append(name + (f"^{rng.choice(_NUMBERS)}" if rng.random() < 0.4 else ""))
        terms.append(rng.choice(["*", " * "]).join(factors))
    text = (rng.choice(["", "-", "+ "]) + terms[0]) + "".join(
        rng.choice([" + ", " - ", "+", "-"]) + term for term in terms[1:]
    )
    for _ in range(rng.choice([0, 0, 1, 2])):
        i = rng.randint(0, len(text))
        edit = rng.random()
        if edit < 0.4:
            text = text[:i] + rng.choice(_ATOMS) + text[i:]
        elif edit < 0.7:
            text = text[:i] + text[i + 1 :]
        else:
            text = text[:i] + rng.choice(_ATOMS) + text[i + 1 :]
    return text


def _texts(count: int, seed: int):
    rng = random.Random(seed)
    for _ in range(count):
        names = rng.choice(_NAME_TABLES)
        if rng.random() < 0.6:
            yield _near_valid(rng, names), names
        else:
            yield "".join(rng.choices(_ATOMS, k=rng.randint(0, 10))), names


def _outcome(parse, text, names):
    """The polynomial read, or the refusal's message and position."""
    try:
        return parse(text, names)
    except ParseError as exc:
        return str(exc), exc.position


def _blank_dangling_stars(text, names):
    """``text`` with a space for each '*' that the tokenizing reader alone
    refuses, and their count.  Each must follow a coefficient, and the
    reference must read the text without it as it reads it with it."""
    blanked = 0
    while True:
        new = _outcome(parse_polynomial, text, names)
        old = _outcome(reference_parse, text, names)
        if new == old:
            return text, blanked
        assert isinstance(new, tuple) and new[0].startswith("dangling '*'"), (text, old, new)
        star = len(text[: new[1]].rstrip()) - 1
        assert text[star] == "*" and text[:star].rstrip()[-1:].isdecimal(), (text, new)
        blank = text[:star] + " " + text[star + 1 :]
        assert _outcome(reference_parse, blank, names) == old, (text, blank)
        text, blanked = blank, blanked + 1


def test_parse_agrees_with_the_reference_reader():
    """Equal polynomials, or the same message at the same position, over
    12,000 seeded texts, except where a coefficient's '*' dangles."""
    dangling = refused = 0
    for text, names in _texts(12_000, seed=27):
        dangling += _blank_dangling_stars(text, names)[1] > 0
        refused += not isinstance(_outcome(parse_polynomial, text, names), Polynomial)
    # every kind of outcome is drawn often
    assert dangling > 100 and refused > 1000 and 12_000 - refused > 1000, (dangling, refused)


# ---------------------------------------------------------------------------
# graded-lex order

monomials = st.builds(
    Monomial, st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
)


@given(monomials, monomials)
def test_order_total(a, b):
    assert (a < b) or (b < a) or a == b


@given(monomials, monomials)
def test_degree_dominates(a, b):
    if a.degree < b.degree:
        assert a < b


@given(monomials, monomials, monomials)
def test_order_respects_multiplication(a, b, c):
    if a < b:
        assert a.mul(c) < b.mul(c)


def test_order_example():
    # degree first, then plain lexicographic comparison of exponent tuples
    x2 = Monomial((2, 0))
    y3 = Monomial((0, 3))
    assert x2 < y3
    assert Monomial((2, 1)) < Monomial((3, 0))


def test_enumeration_is_sorted_and_complete():
    ms = monomials_below_degree(2, 4)
    assert len(ms) == 10  # 1 + 2 + 3 + 4
    assert ms == sorted(ms, key=Monomial.key)


@pytest.mark.parametrize("nvars", range(5))
def test_enumeration_comes_out_graded_lex_without_a_sort(nvars):
    for bound in range(7):
        ms = monomials_below_degree(nvars, bound)
        assert ms == sorted(ms, key=Monomial.key)
        assert len(set(ms)) == len(ms) == (math.comb(nvars + bound - 1, nvars) if bound else 0)


@given(monomials, monomials)
def test_all_four_comparisons_follow_the_key(a, b):
    ka, kb = a.key(), b.key()
    want = (ka < kb, ka <= kb, ka > kb, ka >= kb)
    assert (a < b, a <= b, a > b, a >= b) == want
    # a plain tuple on either side compares graded-lex too
    assert (a < tuple(b), a <= tuple(b), tuple(a) > b, tuple(a) >= b) == want


def test_negative_exponent_is_rejected():
    with pytest.raises(ValueError, match="negative exponent"):
        Monomial((-1, 0))


def test_monomial_is_its_exponent_tuple():
    m = Monomial((1, 0))
    assert isinstance(m, tuple) and m.exponents is m
    assert m == (1, 0) and (1, 0) == m and hash(m) == hash((1, 0))
    element = preset_algebra("dual").element({Monomial((0,)): 2, Monomial((1,)): 3})
    assert element.coords.get((1,)) == element.coords.get(Monomial((1,))) == 3


# ---------------------------------------------------------------------------
# reduction bases (frozen hand enumerations)


def test_reduction_monomial_ideal():
    # generators {x^2}, one variable, k=4: products x^2 * {1, x}
    basis = build_reduction_basis([parse_polynomial("x^2", ("x",))], 1, 4)
    assert basis.pivot_set() == {Monomial((2,)), Monomial((3,))}
    assert [m.exponents for m in basis.quotient_basis()] == [(0,), (1,)]


def test_reduction_binomial_ideal():
    # generators {x^2 - y^3}, k=4: products with {1, x, y} survive truncation
    basis = build_reduction_basis([P("x^2 - y^3")], 2, 4)
    assert basis.pivot_set() == {
        Monomial((2, 0)),
        Monomial((3, 0)),
        Monomial((2, 1)),
    }
    rows = dict(basis.rows)
    assert rows[Monomial((2, 0))] == P("x^2 - y^3")
    # x^2 type of row: normal form of x^2 is therefore y^3
    assert basis.normal_form(P("x^2")) == P("y^3")


def test_normal_form_truncates():
    basis = build_reduction_basis([parse_polynomial("x^2", ("x",))], 1, 2)
    assert basis.normal_form(parse_polynomial("x^3", ("x",))).is_zero()


def test_normal_form_of_member_is_zero():
    basis = build_reduction_basis([P("x^2 - y^3")], 2, 4)
    member = P("x^2 - y^3").mul(P("1 + x + y")).truncate(4)
    assert basis.normal_form(member).is_zero()


def test_rows_reduce_to_zero():
    basis = build_reduction_basis([P("x^2 - y^3"), P("x*y")], 2, 4)
    for _, row in basis.rows:
        assert basis.normal_form(row).is_zero()


def test_improper_ideal_detected():
    with pytest.raises(ImproperIdeal):
        build_reduction_basis([parse_polynomial("x - 1", ("x",))], 1, 2)


small_coeffs = st.fractions(
    min_value=-3, max_value=3, max_denominator=4
)


def polys(nvars=2, max_degree=3):
    monos = monomials_below_degree(nvars, max_degree + 1)
    return st.dictionaries(st.sampled_from(monos), small_coeffs, max_size=4).map(
        lambda d: Polynomial(nvars, d)
    )


@settings(max_examples=60, deadline=None)
@given(polys(), polys())
def test_normal_form_is_linear_and_idempotent(p, q):
    basis = build_reduction_basis([P("x^2 - y^3"), P("y^4")], 2, 5)
    nf = basis.normal_form
    assert nf(p.add(q)) == nf(p).add(nf(q))
    assert nf(nf(p)) == nf(p)
    # the result never mentions a pivot monomial
    assert not (set(nf(p).terms) & basis.pivot_set())


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p.mul(q) == q.mul(p)
    assert p.mul(q.add(r)) == p.mul(q).add(p.mul(r))
    assert p.mul(q).mul(r) == p.mul(q.mul(r))


@settings(max_examples=40, deadline=None)
@given(polys(), polys())
def test_mul_trunc_agrees_with_full_product(p, q):
    assert p.mul_trunc(q, 4) == p.mul(q).truncate(4)


def test_substitute_composes_polynomials():
    # (x^2 - y^3) with x -> t^3, y -> t^2 collapses identically
    p = P("x^2 - y^3")
    t3 = parse_polynomial("t^3", ("t",))
    t2 = parse_polynomial("t^2", ("t",))
    assert p.substitute([t3, t2], 10).is_zero()


def test_substitute_checks_argument_count():
    p = P("x^2 - y^3")
    t = parse_polynomial("t", ("t",))
    with pytest.raises(ValueError, match="arity mismatch"):
        p.substitute([t], 4)
    with pytest.raises(AlgebraMismatch):
        substitute_poly(p, [t], lambda c: constant(1, c))


def test_substitute_truncates_like_a_full_expansion():
    rng = random.Random(3)
    for _ in range(30):
        p = random_polynomial(rng, 2, max_degree=4, max_terms=4)
        images = [random_polynomial(rng, 2, max_degree=3, max_terms=3) for _ in range(2)]
        full = substitute_poly(p, images, lambda c: constant(2, c))
        for bound in (1, 3, 6):
            assert p.substitute(images, bound) == full.truncate(bound)


def test_random_polynomial_with_an_empty_pool_is_zero_without_a_draw():
    rng = random.Random(4)
    state = rng.getstate()
    assert random_polynomial(rng, 0, max_degree=3, min_degree=1) == Polynomial(0)
    assert random_polynomial(rng, 2, max_degree=1, min_degree=2) == Polynomial(2)
    assert rng.getstate() == state
    assert random_polynomial(rng, 0, max_degree=3).terms.keys() == {Monomial(())}


def test_embed_poly_offsets_block():
    p = parse_polynomial("x^2", ("x",))
    q = embed_poly(p, 3, 1)
    assert q.terms == {Monomial((0, 2, 0)): Fraction(1)}


def test_format_round_trips_through_parser():
    p = P("1/2*x^2*y - 3*y^4 + x")
    assert P(p.format(("x", "y"))) == p


def test_generator_order_does_not_change_the_reduction_basis():
    rng = random.Random(17)
    for _ in range(25):
        nvars, order = rng.randint(1, 3), rng.randint(2, 5)
        gens = [
            random_polynomial(rng, nvars, max_degree=order, max_terms=3, min_degree=1)
            for _ in range(rng.randint(1, 4))
        ]
        basis = build_reduction_basis(gens, nvars, order)
        pivots = basis.pivot_set()
        for pivot, row in basis.rows:
            # monic in its pivot, no other row's pivot, nothing below it
            assert row.terms[pivot] == 1
            assert pivots & set(row.terms) == {pivot}
            assert all(pivot.key() <= m.key() for m in row.terms)
        for _ in range(3):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert build_reduction_basis(shuffled, nvars, order) == basis


def test_substitute_with_no_images_needs_the_target_arity():
    # a polynomial in no variables is a constant; substituted into a
    # 2-variable ring it is that constant there, not a 0-variable one
    c = constant(0, Fraction(3, 4))
    assert c.substitute([], 4, nvars=2) == constant(2, Fraction(3, 4))
    assert Polynomial(0).substitute([], 4, nvars=2) == Polynomial(2)
    assert c.substitute([], 1, nvars=2) == constant(2, Fraction(3, 4))
    with pytest.raises(ValueError, match="target arity"):
        c.substitute([], 4)


def test_substitute_checks_the_given_arity_against_the_images():
    p = P("x^2 - y^3")
    t = parse_polynomial("t", ("t",))
    assert p.substitute([t, t], 5, nvars=1) == p.substitute([t, t], 5)
    with pytest.raises(ValueError, match="disagree on arity"):
        p.substitute([t, t], 5, nvars=2)


def _unchecked_results(rng: random.Random):
    """Every result the kernel builds without the constructor's checks,
    on seeded random operands."""
    for nvars in range(4):
        for _ in range(25):
            p, q = (random_polynomial(rng, nvars, rng.randint(0, 3)) for _ in range(2))
            bound = rng.randint(0, 4)
            yield p.add(q)
            yield p.sub(q)
            yield p.sub(p)
            yield p.mul(q)
            yield p.mul_trunc(q, bound)
            yield p.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 3)))
            yield p.truncate(bound)
            yield p.neg()
            yield constant(nvars, rng.randint(-1, 1))
    for _ in range(20):
        nvars, order = rng.randint(1, 3), rng.randint(2, 5)
        gens = [
            random_polynomial(rng, nvars, max_degree=order, max_terms=3, min_degree=1)
            for _ in range(rng.randint(1, 3))
        ]
        reduction = build_reduction_basis(gens, nvars, order)
        for _ in range(5):
            p = random_polynomial(rng, reduction.nvars, 4, max_terms=6)
            yield reduction.normal_form(p)
        for _, row in reduction.rows:
            yield row


def test_unchecked_results_keep_the_constructor_invariant():
    count = 0
    for p in _unchecked_results(random.Random(26)):
        rebuilt = Polynomial(p.nvars, dict(p.terms))
        assert p == rebuilt and hash(p) == hash(rebuilt)
        assert all(c != 0 and type(c) is Fraction for c in p.terms.values())
        assert all(len(m) == p.nvars for m in p.terms)
        count += 1
    assert count > 900
