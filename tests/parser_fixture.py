"""A seeded fixture that pins what ``parse_smooth_map`` does with text.

Run from the repository root to write ``tests/data/parser_outcomes.json``
from the parser as it stands:

    PYTHONPATH=src python tests/parser_fixture.py

Each case is ``[text, arity, outcome]``, and a node-cap case adds a
fourth entry, ``{"max_nodes": cap}``: it was recorded with
``expressions.MAX_NODES`` set to that cap, as its test sets it.  The
strings come from the expression corpus, the benchmark's bivariate maps,
hand-written edge cases, seeded random expressions, random mutations of
all of these, whitespace of several kinds (``\\xa0`` among them), digits
and letters outside ASCII, and inputs at and just past every cap.  A
text at a cap is stored as runs, ``[[piece, count], ...]``.  The outcome
is ``["map", arity, calls, outputs]`` with each output in prefix form
(hashed when long), ``["error", message, position]`` for a
``ParseError`` (its message without the position), or ``["raise",
description]`` for any other exception.  ``"doubled": true`` among the
options marks a case whose recorded error came only from counting the
nodes of a parenthesized start twice, which an earlier parser did; the
fixture was written by that parser.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from weilkit import expressions
from weilkit.errors import ParseError
from weilkit.expressions import (
    MAX_EXPONENT,
    MAX_NESTING,
    Add,
    Call,
    Const,
    Div,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    parse_smooth_map,
)

FIXTURE = Path(__file__).resolve().parent / "data" / "parser_outcomes.json"
SEED = 1961
RANDOM_CASES = 1800
MUTATED_CASES = 2900

_INFIX = {Add: "+", Sub: "-", Mul: "*", Div: "/"}
_LONG_FORM = 64


def prefix_form(root) -> str:
    """The tree in prefix notation, hashed when long; iterative, so a
    deep tree costs no recursion."""
    out, stack = [], [root]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is Const:
            out.append(f"c{node.value}")
        elif kind is Var:
            out.append(f"v{node.index}")
        elif kind is Neg:
            out.append("~")
            stack.append(node.arg)
        elif kind is Pow:
            out.append(f"^{node.exponent}")
            stack.append(node.base)
        elif kind is Call:
            out.append(node.fn)
            stack.append(node.arg)
        else:
            out.append(_INFIX[kind])
            stack += (node.right, node.left)
    text = " ".join(out)
    if len(text) <= _LONG_FORM:
        return text
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()[:32]


def expand(text) -> str:
    return text if isinstance(text, str) else "".join(piece * count for piece, count in text)


def outcome(text: str, arity):
    try:
        f = parse_smooth_map(text, arity)
    except ParseError as exc:
        return ["error", exc.args[0].removesuffix(f" (at position {exc.position})"), exc.position]
    except Exception as exc:  # a defect, recorded so that the test shows it
        return ["raise", f"{type(exc).__name__}: {exc}"[:200]]
    return ["map", f.arity, f.calls, [prefix_form(o) for o in f.outputs]]


# ---------------------------------------------------------------------------
# the strings

CORPUS_TEXTS = [
    "t^2", "t^3 - 2*t + 1", "1/2*t^4 - t^2 + 3", "t^5 - t^4 + t^3 - t^2 + t - 1",
    "(1 + t)^5", "(t^2 + 1)^3", "7*t", "t^3/6 + t^2/2", "sin(t)", "cos(t)", "exp(t)",
    "log(t)", "sqrt(t)", "sin(t^2)", "exp(-t^2)", "t*sin(t)", "sin(t)*cos(t)",
    "exp(t)*cos(t)", "log(1 + t^2)", "sqrt(1 + t^2)", "1/(1 + t^2)", "t/(1 + t^2)",
    "(1 - t)^-1", "exp(sin(t))", "sin(exp(t))", "log(exp(t) + 1)", "sqrt(exp(t))",
    "cos(t)^2", "sin(t)^3 + cos(t)^3", "t^2*exp(t)", "exp(t)/(1 + t^2)",
    "sin(t)/(2 + cos(t))", "log(2 + sin(t))", "sqrt(4 + t^2)", "cos(2*t + 1)",
    "t^3*log(1 + t^2)",
]
# the benchmark's bivariate maps and the shape of its compose links
BIVARIATE = [
    "sin(t0)*t1 + exp(t0*t1)", "t0^2*t1 - t1^3 + 2*t0", "log(1 + t0^2 + t1^2)",
    "t0/(1 + t1^2)", "cos(t0 + 2*t1)*exp(t1)", "sqrt(1 + t0^2*t1^2)",
    "(t0 + t1)^4 - t0*t1", "exp(t0)*sin(t1)/(2 + cos(t0))",
    "1/4*t*t + 1/2*t + 1/16", "-1/4*t*t - 1/2*t - 1/16",
]
EDGES = [
    "", " ", "\xa0", "t", "x", "y", "t0", "t7", "t00", "t01", "_", "t_1", "t0x", "tt", "z3",
    "3", "0", "007", "1/2", "-1", "--t", "---t", "- t", "-", "+t", "t +", "t+", "+",
    "t - -t", "2*-t", "t/-t^2", "-t^2", "-t^2^3", "t^2^3", "t^-2", "t^ - 2", "t^--2", "t^",
    "t^-", "t^x", "t ^ 1.5", "t^(2)", "t^2t", "(t)^2", "-(t)^2", "(-t)^2", "2 t", "2t",
    "t2", "t(t)", "()", "(", ")", "(t", "t)", "(t))", "((t)", "(t)", "((t))", "(((t)))",
    "(t), t", "(t)(t)", "(t) t", "(t, t)", "(t,t^2+t^3)", "(t, t) + 1", "(t, t))",
    "(t, t), t", "(t, t", "(t, t t", "(t,)", "(,t)", "((t, t))", "((t), t)", "(t, (t, t))",
    "t, (t, t)", "1 + (t, t)", "sin((t, t))", "sin(t, t)", "t, t", "t,", ",t", ",", "t,,t",
    "t, t, t", "(t, t, t)", "sin", "sin t", "sin()", "sin(t", "sin(t))", "sin (t)", "sinh(t)",
    "sin2(t)", "exp(cos(x))", "sin(t)^-2 / x", "x*y - y^2", "((t2) + y, x)", "(t5)",
    "(t1)*t0", "t0 + t2", "(t, t3^2)", "t + qq", "t*", "*t", "t**2", "t//t", "t/", "/t",
    "1.5", "t.", ".", "$", "t;t", "t = 1", "t\x00", "\x00", "1 2", "t t", "t(", "t^2(",
    "(t)(", "sin(t)(t)", "-(-(-t))", "-(t, t)", "(-t, -t)", "((-t))", "(t + 1)^2 - (t - 1)^2",
    "(1 + t)^2^1001", "t^1000", "t^-1000", "t^1001", "t^-1001", "t^0", "t^-0",
    "1/0", "t/(t - t)", "log(-1)", "sqrt(t)^2", "(t^2 - 1)/(t - 1)", "2^-3 * t",
]
WHITESPACE = [" ", "  ", "\t", "\n", "\xa0", "\u2003", "\u3000", "\x0b", "\x0c", "\x1c", "\r\n"]
# decimal digits of other scripts, digits that are not decimal, letters
# outside ASCII, and characters that are neither
UNICODE = [
    "\u0661", "\u0662", "\u0966", "\uff11", "\u09e7", "\u00b2", "\u00b9", "\u00bd",
    "\u2167", "\u00e9", "\u00df", "\u03a9", "\u0131", "\u2212", "\u00b7", "\u2014",
]
TOKENS = [
    "t", "x", "y", "t0", "t1", "t2", "t12", "1", "2", "10", "1/3", "+", "-", "*", "/", "^",
    "^-", "(", ")", ",", "sin(", "cos(", "exp(", "log(", "sqrt(", "z", "_", ".",
]


def random_expr(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.25:
        leaf = rng.choice(["t", "x", "y", "t0", "t1", "t2", "t3", "1", "2", "3", "12", "0"])
        return leaf
    kind = rng.choice(["+", "-", "*", "/", "neg", "pow", "call", "paren", "+", "*"])
    sub = lambda: random_expr(rng, depth - 1)
    if kind == "neg":
        return "-" + sub()
    if kind == "pow":
        return f"{sub()}^{rng.choice(['', '-'])}{rng.choice([0, 1, 2, 3, 7])}"
    if kind == "call":
        return f"{rng.choice(['sin', 'cos', 'exp', 'log', 'sqrt'])}({sub()})"
    if kind == "paren":
        return f"({sub()})"
    return f"{sub()} {kind} {sub()}"


def spaced(rng: random.Random, text: str) -> str:
    """The text with whitespace of random kinds put before or after
    some characters."""
    out = []
    for ch in text:
        if rng.random() < 0.15:
            out.append(rng.choice(WHITESPACE))
        out.append(ch)
    if rng.random() < 0.3:
        out.append(rng.choice(WHITESPACE))
    return "".join(out)


def mutate(rng: random.Random, text: str) -> str:
    for _ in range(rng.randint(1, 3)):
        pos = rng.randint(0, len(text))
        edit = rng.randrange(7)
        if edit == 0:
            text = text[:pos] + rng.choice(TOKENS) + text[pos:]
        elif edit == 1 and text:
            text = text[:pos] + text[pos + 1 :]
        elif edit == 2 and text:
            text = text[:pos] + rng.choice(TOKENS + UNICODE) + text[pos + 1 :]
        elif edit == 3:
            text = text[:pos] + rng.choice(WHITESPACE) + text[pos:]
        elif edit == 4:
            text = text[:pos] + rng.choice(UNICODE) + text[pos:]
        elif edit == 5 and len(text) > 1:
            span = text[pos : pos + rng.randint(1, 6)]
            text = text[:pos] + span + text[pos:]
        elif edit == 6:
            text = rng.choice(["(", "-", "sin(", "-("]) + text + rng.choice([")", "", ", t)", ")^2"])
    return text


def foreign_digits(rng: random.Random, text: str) -> str:
    table = {str(d): rng.choice([chr(0x0660 + d), chr(0x0966 + d), chr(0xFF10 + d)]) for d in range(10)}
    return "".join(table.get(ch, ch) if rng.random() < 0.7 else ch for ch in text)


def cap_cases():
    """Texts at and just past the caps other than the node cap."""
    n = MAX_NESTING
    for k in (n - 1, n, n + 1, n + 2):
        for opener, closer in (("(", ")"), ("sin(", ")"), ("-", ""), ("-(", ")"), ("(-", ")")):
            nest = [[opener, k], ["t", 1], [closer, k]]
            for before, after in (
                ("", ""), ("", ", t"), ("t, ", ""), ("(", ", t)"), ("(", ")"), ("(", " t"),
                ("(", ""), ("(", ")^2 + t"), ("(", "+ )"), ("(t, ", ")"),
            ):
                yield [[before, 1], *nest, [after, 1]]
    for e in (MAX_EXPONENT - 1, MAX_EXPONENT, MAX_EXPONENT + 1, 10**6):
        for text in (f"t^{e}", f"t^-{e}", f"(1 + t)^2^{e}", f"-t^{e}*t", f"(t^{e}, t)"):
            yield text
    digits = sys.int_info.default_max_str_digits
    for count in (digits, digits + 1):
        yield [["9", count]]
        yield [["t^", 1], ["9", count]]
        yield [["t", 1], ["1", count]]
        yield [["t + 1", 1], ["2", count], ["*t", 1]]
        yield [["(", 1], ["1", count], [", t)", 1]]


# the node cap the node-cap cases run under, so that each parses in
# microseconds; the tests of MAX_NODES itself run at its real value
SMALL_MAX_NODES = 1_000


def node_cap_cases():
    """(text, doubled) at and just past a node cap of SMALL_MAX_NODES;
    a sum of k terms has 2k - 1 nodes."""
    half = SMALL_MAX_NODES // 2
    for tail in ("t", "t+t", "t*t", "t^2", "sin(t)", "-t", "-t*t", "(t)", "t)", "t, t", "t,"):
        yield [["t+", half - 1], [tail, 1]], False
        yield [["t+", half - 2], [tail, 1]], False
    yield [["t+", half // 2], ["t, ", 1], ["t+", half // 2], ["t", 1]], False
    yield [["(t, ", 1], ["t+", half - 2], ["t)", 1]], False
    # a parenthesized start that is no tuple was read, and counted, twice
    for terms in (half // 2, half // 2 + 1, 3 * half // 4):
        doubled = 4 * terms - 2 > SMALL_MAX_NODES
        yield [["(", 1], ["t+", terms - 1], ["t)", 1]], doubled
        yield [["(", 1], ["t+", terms - 1], ["t)*t", 1]], doubled
        yield [["(", 1], ["t+", terms - 1], ["t), t", 1]], doubled
        yield [["(", 1], ["t+", terms - 1], ["t, t)", 1]], False


def cases():
    rng = random.Random(SEED)
    literal = CORPUS_TEXTS + BIVARIATE + EDGES
    for text in literal:
        yield text, None
    for text in literal:
        yield text, rng.choice([0, 1, 2, 3])
    generated = []
    for _ in range(RANDOM_CASES):
        text = random_expr(rng, rng.randint(1, 5))
        if rng.random() < 0.15:
            text = "(" + ", ".join([text] + [random_expr(rng, 2) for _ in range(rng.randint(1, 2))]) + ")"
        elif rng.random() < 0.1:
            text = text + ", " + random_expr(rng, 2)
        if rng.random() < 0.4:
            text = spaced(rng, text)
        if rng.random() < 0.15:
            text = foreign_digits(rng, text)
        generated.append(text)
        yield text, rng.choice([None, None, None, 1, 2])
    pool = literal + generated
    for _ in range(MUTATED_CASES):
        yield mutate(rng, rng.choice(pool)), None
    for text in cap_cases():
        yield text, None


def main() -> None:
    rows = []
    for text, arity in cases():
        rows.append([text, arity, outcome(expand(text), arity)])
    expressions.MAX_NODES, cap = SMALL_MAX_NODES, expressions.MAX_NODES
    try:
        for text, doubled in node_cap_cases():
            options = {"max_nodes": SMALL_MAX_NODES, **({"doubled": True} if doubled else {})}
            rows.append([text, None, outcome(expand(text), None), options])
    finally:
        expressions.MAX_NODES = cap
    FIXTURE.parent.mkdir(exist_ok=True)
    with FIXTURE.open("w", encoding="utf-8") as out:
        out.write("[\n")
        out.write(",\n".join(json.dumps(row, separators=(",", ":")) for row in rows))
        out.write("\n]\n")
    print(f"{len(rows)} cases written to {FIXTURE}")


if __name__ == "__main__":
    main()
