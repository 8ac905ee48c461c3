import dataclasses
import json
import math
import random
from fractions import Fraction

import pytest
from expr_corpus import CORPUS
from hypothesis import given, settings, strategies as st
from parser_fixture import FIXTURE, expand, outcome

from weilkit import expressions
from weilkit.algebras import preset_algebra
from weilkit.errors import DomainError, ParseError, ScalarModeError
from weilkit.expressions import (
    MAX_EXPONENT,
    MAX_NESTING,
    MAX_NODES,
    PRIMITIVES,
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    SmoothMap,
    Sub,
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
from weilkit.samplers import random_poly_map


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

    @pytest.mark.parametrize(
        "text",
        [text for text, _ in CORPUS]
        + ["t0 + t2", "(t, t3^2)", "3", "(t1)*t0", "((t2) + y, x)", "(t5)", "sin(t4)^-2 / x", "x*y"],
    )
    def test_parsed_arity_is_one_past_the_highest_variable(self, text):
        f = parse_smooth_map(text)
        assert f.arity == max((max_var_index(o) for o in f.outputs), default=-1) + 1

    @pytest.mark.parametrize(
        "text, calls",
        [("t^2 - 1/3", False), ("(t0, t1*t0)", False), ("exp(t)", True), ("(t0, sqrt(t1))", True)],
    )
    def test_parsed_map_knows_whether_it_calls_a_primitive(self, text, calls):
        f = parse_smooth_map(text)
        assert f.calls is calls
        # a map built another way finds out by one walk, and keeps it
        g = SmoothMap(f.arity, f.outputs)
        assert g.calls is None and g.has_call is calls and g.calls is calls
        assert compose_maps(parse_smooth_map("t0^2", g.coarity), g).calls is calls
        sines = parse_smooth_map(", ".join(["sin(t)"] * g.arity))
        assert compose_maps(g, sines).calls is True

    def test_arity_check(self):
        with pytest.raises(ParseError):
            parse_smooth_map("t3", arity=2)
        f = parse_smooth_map("t0", arity=4)
        assert f.arity == 4

    @pytest.mark.parametrize("text", ["1", "t", "", "t +"])
    def test_a_negative_arity_is_refused_before_parsing(self, text):
        # it read as "expression uses t-1 but arity is -3" for a map
        # that uses no variable
        with pytest.raises(ValueError, match="^arity must be nonnegative$"):
            parse_smooth_map(text, arity=-3)

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

    def test_exponent_bound(self):
        assert MAX_EXPONENT == 1000
        for text in ("t^1000", "t^-1000"):
            (out,) = parse_smooth_map(text).outputs
            assert abs(out.exponent) == 1000
        for text in ("t^1001", "t^-1001", "(1 + t)^2^1001"):
            with pytest.raises(ParseError, match="exceeds 1000"):
                parse_smooth_map(text)

    def test_node_bound_counts_every_output(self):
        # above the ~10^5 nodes of the deep sum below; a sum of n terms
        # has 2n - 1 nodes, so each output alone is within the bound
        assert MAX_NODES >= 2 * 10**5 - 1
        half = " + ".join(["t"] * (MAX_NODES // 4 + 1))
        with pytest.raises(ParseError, match=f"more than {MAX_NODES} nodes"):
            parse_smooth_map(f"{half}, {half}")

    @pytest.mark.parametrize(
        "text, message, position",
        [
            # str.isdigit accepts a superscript digit, which int() cannot read
            ("t\u00b2", "unknown name 't\u00b2'", 2),
            ("1\u00b2", "trailing input", 1),
            ("t^\u00b2", "expected integer", 2),
            ("\u00b2", "expected expression", 0),
            ("t" + "1" * 5000, "variable index too long", 0),
        ],
        ids=[
            "superscript-index",
            "superscript-literal",
            "superscript-exponent",
            "superscript",
            "long-index",
        ],
    )
    def test_digits_are_what_int_reads(self, text, message, position):
        with pytest.raises(ParseError, match=message) as exc:
            parse_smooth_map(text)
        assert exc.value.position == position

    def test_decimal_digits_of_any_script_read_as_int_reads_them(self):
        # U+0661 is ARABIC-INDIC DIGIT ONE, a decimal digit int() accepts
        expected = parse_smooth_map("t1 + 12").outputs
        assert parse_smooth_map("t\u0661 + \u0661\u0662").outputs == expected

    @pytest.mark.parametrize("text", ["9" * 5000, "t^" + "9" * 5000])
    def test_integer_too_long_to_read(self, text):
        with pytest.raises(ParseError, match="too long"):
            parse_smooth_map(text)

    def test_parenthesized_start_counts_its_nodes_once(self):
        # a sum of 60,000 terms has 119,999 nodes, within the bound
        # once and past it twice
        (out,) = parse_smooth_map("(" + "+".join(["t"] * 60_000) + ")").outputs
        program, _ = out._program
        assert type(out) is Add and len(program) + 1 == 119_999

    def test_node_past_the_bound_fails_where_it_is_built(self):
        # a sum of 100,001 terms builds its 200,001st node, the last
        # Add, on reading the '+' after it; the parse stops there
        text = "+".join(["t"] * (MAX_NODES // 2 + 1)) + "+t"
        with pytest.raises(ParseError, match=f"more than {MAX_NODES} nodes") as exc:
            parse_smooth_map(text)
        assert exc.value.position == len(text) - 2

    def test_each_output_keeps_its_program(self):
        f = parse_smooth_map("(t^2 + sin(t)*3, -y)")
        for root, size in zip(f.outputs, (6, 1)):
            program, kids = root._program
            assert len(program) == size and len(kids) == len(expressions._CHILDREN[type(root)](root))
            # one entry per node but the root, each after its children
            for position, (node, *slots) in enumerate(program + [(root, *kids)]):
                children = expressions._CHILDREN[type(node)]
                assert list(map(id, children(node) if children else ())) == [
                    id(program[k][0]) for k in slots
                ]
                assert all(k < position for k in slots)
        assert eval_map_float(f, [0.5, 2.0]) == (0.25 + 3 * math.sin(0.5), -2.0)

    def test_a_built_root_records_its_program_on_its_first_fold(self):
        h = compose_maps(parse_smooth_map("t*t + t"), parse_smooth_map("t^2 + 1"))
        (root,) = h.outputs
        assert not hasattr(root, "_program")
        assert eval_map_float(h, [2.0]) == (30.0,)
        # the inner map's four nodes once, though the expanded tree has 14
        program, kids = root._program
        assert len(program) + 1 == 4 + 2 and len(kids) == 2
        assert eval_map_float(h, [2.0]) == (30.0,) and root._program[0] is program


_PINNED = json.loads(FIXTURE.read_text(encoding="utf-8"))


def test_the_fixture_covers_every_kind_of_input():
    assert len(_PINNED) >= 5000
    kinds = {row[2][0] for row in _PINNED}
    assert kinds == {"map", "error"}  # nothing else raised
    texts = [expand(row[0]) for row in _PINNED]
    assert any("\xa0" in t for t in texts) and any("\u0661" in t for t in texts)
    messages = {row[2][1] for row in _PINNED if row[2][0] == "error"}
    for cap in ("nested deeper than", "exceeds", "literal too long", "index too long", "nodes"):
        assert any(cap in m for m in messages), cap


def test_parser_matches_the_pinned_outcomes(monkeypatch):
    """Every pinned text parses as it did, except that a parenthesized
    start that is no tuple now counts its nodes once."""
    doubled = 0
    for text, arity, pinned, *options in _PINNED:
        options = options[0] if options else {}
        monkeypatch.setattr(expressions, "MAX_NODES", options.get("max_nodes", MAX_NODES))
        got = outcome(expand(text), arity)
        if options.get("doubled"):
            assert pinned[:2] == ["error", f"expression has more than {options['max_nodes']} nodes"]
            assert got[0] == "map", text
            doubled += 1
        else:
            assert got == pinned, expand(text)
    assert doubled == 6


# the parser's image: integer literals, variables, bounded exponents
_LEAVES = st.one_of(
    st.integers(0, 10**6).map(lambda n: Const(Fraction(n))),
    st.integers(0, 12).map(Var),
)


def _branches(kids):
    return st.one_of(
        *(st.tuples(kids, kids).map(lambda lr, op=op: op(*lr)) for op in (Add, Sub, Mul, Div)),
        kids.map(Neg),
        st.tuples(kids, st.integers(-MAX_EXPONENT, MAX_EXPONENT)).map(lambda b: Pow(*b)),
        st.tuples(st.sampled_from(PRIMITIVES), kids).map(lambda c: Call(*c)),
    )


_MAPS = st.lists(st.recursive(_LEAVES, _branches, max_leaves=30), min_size=1, max_size=3).map(
    lambda outs: SmoothMap(max(max_var_index(o) for o in outs) + 1, tuple(outs))
)


@settings(max_examples=200, deadline=None)
@given(_MAPS)
def test_formatted_map_parses_back_to_itself(f):
    assert parse_smooth_map(format_map(f)) == f


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

    def test_polynomials_come_back_as_a_fresh_list(self):
        f = parse_smooth_map("(x^2 - y^3, x*y)", arity=2)
        first = map_polynomials(f)
        expected = list(first)
        first.append("junk")
        first[0] = None
        assert map_polynomials(f) == expected
        assert map_polynomials(f) is not map_polynomials(f)

    @pytest.mark.parametrize("f", [parse_smooth_map("(t, sin(t))"), SmoothMap(2, ())])
    def test_polynomial_answer_repeats(self, f):
        first = map_polynomials(f)
        assert first == (None if f.outputs else [])
        assert map_polynomials(f) == first

    def test_replace_starts_the_call_memo_afresh(self):
        f = parse_smooth_map("sin(t)")
        assert f.has_call and map_polynomials(f) is None
        g = dataclasses.replace(f, outputs=(Var(0),))
        assert g.calls is None and g.has_call is False
        assert map_polynomials(g) == [variable(1, 0)]
        h = dataclasses.replace(g, outputs=(Call("sin", Var(0)),))
        assert h.has_call is True and map_polynomials(h) is None

    def test_sampled_maps_keep_the_polynomials_their_expansion_gives(self):
        for seed in range(200):
            rng = random.Random(seed)
            for arity in (1, 2, 3):
                for coarity in (1, 2, 3):
                    f = random_poly_map(rng, arity, coarity, max_degree=2 + seed % 2)
                    assert f.polynomials is not None and f.calls is False
                    expanded = map_polynomials(SmoothMap(f.arity, f.outputs))
                    assert map_polynomials(f) == expanded
                    picked = [i for i in range(coarity) if rng.random() < 0.5]
                    assert map_polynomials(f.select(picked)) == [expanded[i] for i in picked]

    def test_replace_starts_the_kept_polynomials_afresh(self):
        f = random_poly_map(random.Random(5), 2, 2)
        g = dataclasses.replace(f, outputs=(Call("sin", Var(0)),))
        assert g.polynomials is None and g.calls is None
        assert map_polynomials(g) is None and g.has_call
        # the same outputs read in three variables expand again
        h = dataclasses.replace(f, arity=3)
        assert h.polynomials is None
        assert map_polynomials(h) == map_polynomials(SmoothMap(3, f.outputs))
        assert all(p.nvars == 3 for p in map_polynomials(h))

    def test_kept_polynomials_come_back_as_a_fresh_list(self):
        f = random_poly_map(random.Random(6), 2, 3)
        first = map_polynomials(f)
        expected = list(first)
        first.append("junk")
        first[0] = None
        assert map_polynomials(f) == expected
        assert map_polynomials(f) is not map_polynomials(f)

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


class TestNodeProtocols:
    """Nodes compare, hash and print without recursing, and print the
    text the dataclass repr gave."""

    @staticmethod
    def deep_sum(last="t"):
        return parse1("+".join(["t"] * 4999 + [last]))

    def test_deep_sum_compares_hashes_and_prints(self):
        e, again, other = self.deep_sum(), self.deep_sum(), self.deep_sum("y")
        assert e is not again and e == again and hash(e) == hash(again)
        assert e != other and not (e == other)
        text = repr(e)
        assert text.startswith("Add(left=" * 4999 + "Var(index=0), right=Var(index=0))")
        assert text.count("Var(index=0)") == 5000
        assert repr(parse_smooth_map("+".join(["t"] * 5000))) == f"SmoothMap(arity=1, outputs=({text},))"

    def test_repr_is_the_dataclass_text(self):
        f = parse_smooth_map("sin(t)^2 - 1/2*x, -exp(y)/3", arity=2)
        assert repr(f) == (
            "SmoothMap(arity=2, outputs=(Sub(left=Pow(base=Call(fn='sin', arg=Var(index=0)), "
            "exponent=2), right=Mul(left=Div(left=Const(value=Fraction(1, 1)), "
            "right=Const(value=Fraction(2, 1))), right=Var(index=0))), "
            "Div(left=Neg(arg=Call(fn='exp', arg=Var(index=1))), "
            "right=Const(value=Fraction(3, 1)))))"
        )

    def test_equality_is_structural(self):
        assert Add(Var(0), Const(Fraction(1))) == Add(Var(0), Const(Fraction(1)))
        assert Add(Var(0), Var(1)) != Sub(Var(0), Var(1))
        assert Pow(Var(0), 2) != Pow(Var(0), 3)
        assert Call("sin", Var(0)) != Call("cos", Var(0))
        assert Var(0) != 0 and Const(Fraction(1)) == Const(1)
        assert hash(Const(Fraction(1))) == hash(Const(1))
        assert len({Neg(Var(0)), Neg(Var(0)), Neg(Var(1))}) == 2

    def test_shared_subtrees_compare_once(self):
        a, b = Var(0), Var(0)
        for _ in range(200):  # 2^200 paths, 200 distinct nodes
            a, b = Mul(a, a), Mul(b, b)
        assert a == b and hash(a) == hash(b)
        assert a != Mul(a.left, Var(1))
