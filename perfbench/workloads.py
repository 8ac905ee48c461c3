"""The benchmark's workloads: input generation, the ops, and the
correctness gates that run after each op, outside its timed region.

weilkit is imported by ``import_weilkit`` and never at module import, so the
runner can time the import as part of set-up.  Every input is drawn
from ``random.Random`` keyed on (workload, seed, pass index), so each
pass lifts at fresh base points.  The base points come from small sets
(7 offsets per corpus point, 8 chain bases), so a memo keyed on the
exact base point would still find repeats across passes.
"""

from __future__ import annotations

import importlib.util
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, List, Optional, Sequence, Tuple

GOLDEN_SEED = 7
GOLDEN_SHA256 = "a6067a8007c4b8fdf2063b4ec514e84f05d25e9fc82fd63830363c8f503a18de"

# jet-lift parameters
JET_ORDERS = (2, 4, 8, 12, 16)
TENSOR_ORDERS = (2, 3, 4, 5, 6)
COMPOSE_DEPTHS = (2, 3, 4, 5, 6, 7)
COMPOSE_JET_ORDER = 4
BIVARIATE = (
    "sin(t0)*t1 + exp(t0*t1)",
    "t0^2*t1 - t1^3 + 2*t0",
    "log(1 + t0^2 + t1^2)",
    "t0/(1 + t1^2)",
    "cos(t0 + 2*t1)*exp(t1)",
    "sqrt(1 + t0^2*t1^2)",
    "(t0 + t1)^4 - t0*t1",
    "exp(t0)*sin(t1)/(2 + cos(t0))",
)

# (relative, absolute floor) tolerances pinned by the acceptance tests
TOL_ORDER1 = (1e-12, 1e-12)  # first order, symbolic
TOL_FD = (1e-6, 1e-9)  # first order, central finite difference
TOL_OTHER = (1e-9, 1e-9)  # every other order, symbolic


def import_weilkit(root: Path):
    """Import weilkit from the checkout's src/, never from elsewhere."""
    src = str(root / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    import weilkit
    import weilkit.algebras
    import weilkit.polynomials

    if Path(weilkit.__file__).resolve().parent != (root / "src" / "weilkit").resolve():
        raise RuntimeError(f"weilkit imported from {weilkit.__file__}, not the checkout")
    return weilkit


class Lib:
    """weilkit and the repository's test oracles, loaded from a checkout."""

    def __init__(self, root: Path):
        self.root = root

    def load(self) -> "Lib":
        self.wk = import_weilkit(self.root)
        self.algebras = self.wk.algebras
        self.polynomials = self.wk.polynomials
        self.oracles = _load_file("perfbench_oracles", self.root / "tests" / "oracles.py")
        self.corpus = _load_file("perfbench_corpus", self.root / "tests" / "expr_corpus.py").CORPUS
        return self


def _load_file(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@dataclass
class Op:
    """One operation: ``run`` is timed, ``check`` is not.  ``check``
    returns None when the result is right, else what was wrong."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def pass_rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}:{pass_index}")


# ---------------------------------------------------------------------------
# derivative checks against tests/oracles.py


def _coeff(element, exponents: Tuple[int, ...], mono_cls) -> float:
    return float(element.coords.get(mono_cls(exponents), 0))


def _close(oracles, got: float, want: float, tol: Tuple[float, float]) -> bool:
    return oracles.rel_close(got, want, tol[0], abs_floor=tol[1])


def _check_univariate(lib: Lib, expr, element, base: float) -> Optional[str]:
    """Coefficients of t^0, t^1, t^2 against symbolic derivatives, and
    t^1 against a central finite difference."""
    o = lib.oracles
    mono = lib.polynomials.Monomial
    problems = []
    for order, tol in ((0, TOL_OTHER), (1, TOL_ORDER1), (2, TOL_OTHER)):
        want = o.symbolic_derivative_at(expr, base, order) / math.factorial(order)
        got = _coeff(element, (order,), mono)
        if not _close(o, got, want, tol):
            problems.append(f"order {order}: lift {got!r} vs symbolic {want!r}")
    slope = _coeff(element, (1,), mono)
    fd = o.fd_derivative(expr, base, step=1e-5)
    if not _close(o, slope, fd, TOL_FD):
        problems.append(f"order 1: lift {slope!r} vs finite difference {fd!r}")
    return "; ".join(problems) or None


def _check_bivariate(lib: Lib, expr, element, base: Sequence[float]) -> Optional[str]:
    """Coefficients of x1^i x2^j, i + j <= 2, against symbolic partials."""
    o = lib.oracles
    mono = lib.polynomials.Monomial
    evaluate = lib.wk.expressions.eval_expr_float
    problems = []
    for i, j in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)):
        partial = expr
        for _ in range(i):
            partial = o.differentiate(partial, 0)
        for _ in range(j):
            partial = o.differentiate(partial, 1)
        want = evaluate(partial, list(base)) / (math.factorial(i) * math.factorial(j))
        got = _coeff(element, (i, j), mono)
        if not _close(o, got, want, TOL_ORDER1 if i + j == 1 else TOL_OTHER):
            problems.append(f"d({i},{j}): lift {got!r} vs symbolic {want!r}")
    return "; ".join(problems) or None


def _check_chain(lib: Lib, links, element, base: float) -> Optional[str]:
    """Orders 0-2 of a composition f_d o ... o f_1, from each link's own
    symbolic derivatives and the chain rule, so the check never goes
    through weilkit's compose_maps."""
    o = lib.oracles
    mono = lib.polynomials.Monomial
    v, d1, d2 = base, 1.0, 0.0
    for link in links:
        p0 = o.symbolic_derivative_at(link, v, 0)
        p1 = o.symbolic_derivative_at(link, v, 1)
        p2 = o.symbolic_derivative_at(link, v, 2)
        v, d1, d2 = p0, p1 * d1, p2 * d1 * d1 + p1 * d2
    problems = []
    for order, want, tol in ((0, v, TOL_OTHER), (1, d1, TOL_ORDER1), (2, d2 / 2, TOL_OTHER)):
        got = _coeff(element, (order,), mono)
        if not _close(o, got, want, tol):
            problems.append(f"order {order}: lift {got!r} vs chain rule {want!r}")
    return "; ".join(problems) or None


# ---------------------------------------------------------------------------
# jet-lift


def _rational(rng: random.Random, lo: int, hi: int, den: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), den)


def _link_text(rng: random.Random) -> str:
    # |c0| + |c1| + |c2| < 1 keeps every iterate of a point in [-1, 1]
    # inside [-1, 1], so deep compositions stay finite in float checks.
    # Only the signs are drawn: the exact lift of a depth-7 chain costs
    # 1.5x more for some draws of the denominators than for others, and a
    # run's fastest repeat would then depend on its seed.
    c2, c1, c0 = (rng.choice((1, -1)) * c for c in (Fraction(1, 4), Fraction(1, 2), Fraction(1, 16)))
    return f"{c2}*t*t + {c1}*t + {c0}".replace("+ -", "- ")


class JetLift:
    """Lifts with ``lift_with_fallback`` over algebras built in set-up."""

    name = "jet-lift"

    def __init__(self, lib: Lib, seed: int):
        self.lib = lib
        self.seed = seed
        wk = lib.wk
        self.jets = {k: wk.jet_algebra(k) for k in JET_ORDERS}
        factors = {k: wk.jet_algebra(k) for k in TENSOR_ORDERS}
        self.tensors = {
            (a, b): wk.tensor(factors[a], factors[b])
            for a in TENSOR_ORDERS
            for b in TENSOR_ORDERS
        }
        self.compose_jet = wk.jet_algebra(COMPOSE_JET_ORDER)
        self.first_pass = self.ops(0)

    def ops(self, pass_index: int) -> List[Op]:
        rng = pass_rng(self.name, self.seed, pass_index)
        ops: List[Op] = []
        for text, bases in self.lib.corpus:
            for k in JET_ORDERS:
                # a fresh point near a corpus point keeps the draw in the
                # primitive's domain and away from zero derivatives
                base = Fraction(round(rng.choice(bases) * 16), 16) + _rational(rng, -3, 3, 32)
                ops.append(self._univariate(f"jet{k} {text} @ {base}", text, self.jets[k], base))
        for a in TENSOR_ORDERS:
            for b in TENSOR_ORDERS:
                text = rng.choice(BIVARIATE)
                base = (_rational(rng, -8, 8, 8), _rational(rng, -8, 8, 8))
                ops.append(self._bivariate(f"jet{a}xjet{b} {text} @ {base}", text, self.tensors[(a, b)], base))
        for depth in COMPOSE_DEPTHS:
            links = [_link_text(rng) for _ in range(depth)]
            base = Fraction(rng.choice((-7, -5, -3, -1, 1, 3, 5, 7)), 16)
            ops.append(self._chain(f"compose depth {depth} @ {base}", links, base))
        return ops

    def _univariate(self, label: str, text: str, algebra, base: Fraction) -> Op:
        wk = self.lib.wk

        def run():
            f = wk.parse_smooth_map(text, arity=1)
            (value,), _ = wk.lift_with_fallback(f, algebra, [base])
            return f, value

        def check(result):
            f, value = result
            return _check_univariate(self.lib, f.outputs[0], value, float(base))

        return Op(label, run, check)

    def _bivariate(self, label: str, text: str, algebra, base) -> Op:
        wk = self.lib.wk

        def run():
            f = wk.parse_smooth_map(text, arity=2)
            (value,), _ = wk.lift_with_fallback(f, algebra, list(base))
            return f, value

        def check(result):
            f, value = result
            return _check_bivariate(self.lib, f.outputs[0], value, [float(b) for b in base])

        return Op(label, run, check)

    def _chain(self, label: str, links: List[str], base: Fraction) -> Op:
        wk = self.lib.wk

        def run():
            maps = [wk.parse_smooth_map(text, arity=1) for text in links]
            f = maps[0]
            for outer in maps[1:]:
                f = wk.compose_maps(outer, f)
            (value,), _ = wk.lift_with_fallback(f, self.compose_jet, [base])
            return maps, value

        def check(result):
            maps, value = result
            return _check_chain(self.lib, [m.outputs[0] for m in maps], value, float(base))

        return Op(label, run, check)
