"""Acceptance gate: the eight headline guarantees of the package, each
with pinned tolerances and an explicit wall-clock budget.

These tests are deliberately end-to-end — they drive the public API the
way a user would and check against independent oracles (rule-based
symbolic differentiation, finite differences, combinatorial counting)
rather than against internals."""

import hashlib
import itertools
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

from expr_corpus import CORPUS
from oracles import fd_derivative, rel_close, symbolic_derivative_at

from weilkit.algebras import REAL, jet_algebra, preset_algebra
from weilkit.cli import main
from weilkit.expressions import compose_maps, parse_smooth_map
from weilkit.funcalg import (
    Domain,
    block_monomials,
    carrier_space,
    curry_iso,
    domain_coproduct,
    probe_functoriality,
)
from weilkit.lifting import (
    Euclidean,
    assoc_iso,
    check_naturality,
    check_product_preservation,
    identity_map,
    taylor_lift,
    taylor_lift_at,
)
from weilkit.polynomials import Monomial
from weilkit.samplers import (
    case_rng,
    random_element,
    random_morphism,
    random_poly_map,
    random_weil_algebra,
)
from weilkit.suites import parse_config, run_suite

REPO = Path(__file__).resolve().parent.parent
# sha256 of the report that configs/default.json writes as shipped
GOLDEN_REPORT_SHA256 = "a6067a8007c4b8fdf2063b4ec514e84f05d25e9fc82fd63830363c8f503a18de"
PRESET_NAMES = ("dual", "jet2", "jet3", "d2")


@contextmanager
def wall_budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime budget exceeded: {elapsed:.2f}s >= {seconds}s"


def test_derivative_lifts_match_independent_oracles():
    """First derivatives through the dual algebra agree with central
    finite differences (step 1e-5) to 1e-6 relative and with a symbolic
    oracle to 1e-12; jet coefficients up to order 4 agree with repeated
    symbolic differentiation to 1e-9."""
    with wall_budget(5.0):
        assert len(CORPUS) >= 30
        dual = preset_algebra("dual")
        for text, bases in CORPUS:
            f = parse_smooth_map(text)
            for a in bases:
                (v,) = taylor_lift_at(f, dual, [a], REAL)
                slope = v.coords.get(Monomial((1,)), 0.0)
                assert rel_close(slope, fd_derivative(f.outputs[0], a, step=1e-5), 1e-6)
                assert rel_close(
                    slope,
                    symbolic_derivative_at(f.outputs[0], a),
                    1e-12,
                    abs_floor=1e-12,
                )
        for order in (2, 3, 4):
            jet = jet_algebra(order)
            for text, bases in CORPUS:
                f = parse_smooth_map(text)
                a = bases[0]
                (v,) = taylor_lift_at(f, jet, [a], REAL)
                for j in range(order + 1):
                    coeff = v.coords.get(Monomial((j,)), 0.0)
                    want = symbolic_derivative_at(f.outputs[0], a, j) / math.factorial(j)
                    assert rel_close(coeff, want, 1e-9, abs_floor=1e-9)


def test_quotient_ring_laws_hold_exactly():
    """Ring axioms, the augmentation homomorphism, and nilpotency of the
    augmentation kernel hold with exact rational arithmetic in at least
    ten algebras (presets plus randomized presentations of dimension at
    most 30), 200 random triples each."""
    with wall_budget(10.0):
        rng = random.Random(2024)
        algebras = [preset_algebra(name) for name in PRESET_NAMES]
        while len(algebras) < 10:
            candidate = random_weil_algebra(rng, max_vars=3, max_order=4, max_dimension=30)
            if candidate not in algebras:
                algebras.append(candidate)
        assert len(algebras) >= 10
        assert all(w.dimension <= 30 for w in algebras)
        for algebra in algebras:
            one = algebra.one()
            for _ in range(200):
                a = random_element(rng, algebra)
                b = random_element(rng, algebra)
                c = random_element(rng, algebra)
                assert a.add(b) == b.add(a)
                assert a.add(b.add(c)) == a.add(b).add(c)
                assert a.mul(b) == b.mul(a)
                assert a.mul(b.mul(c)) == a.mul(b).mul(c)
                assert a.mul(b.add(c)) == a.mul(b).add(a.mul(c))
                assert a.mul(one) == a
                assert a.add(b).augmentation() == a.augmentation() + b.augmentation()
                assert a.mul(b).augmentation() == a.augmentation() * b.augmentation()
                assert a.nilpotent_part().pow_int(algebra.order) == algebra.zero()


def test_double_prolongation_reindexing_coheres():
    """For every ordered pair of preset algebras the nested-to-tensor
    reindexing is a basis bijection, preserves the ring operations, and
    commutes with lifting twenty random polynomial maps two ways."""
    with wall_budget(10.0):
        rng = random.Random(77)
        presets = [preset_algebra(name) for name in PRESET_NAMES]
        maps = [random_poly_map(rng, 1, 1, max_degree=3) for _ in range(20)]
        assert len(maps) == 20
        for w1, w2 in itertools.product(presets, repeat=2):
            _, report = assoc_iso(
                Euclidean(1), w1, w2, rng=rng, samples=5, lift_maps=maps
            )
            assert report.failures == 0, report.witnesses[:1]


def test_product_classes_split_componentwise():
    """Classes of maps into a product are determined componentwise, and
    equivalence survives planted ideal-member perturbations while
    quotient-basis perturbations are detected — over 200 randomized
    (map, perturbation, algebra) instances."""
    with wall_budget(10.0):
        rng = random.Random(31)
        instances = 0
        while instances < 200:
            algebra = random_weil_algebra(rng, max_vars=2, max_order=3, max_dimension=8)
            p, q = rng.randint(1, 2), rng.randint(1, 2)
            f = random_poly_map(rng, algebra.nvars, p + q, max_degree=2)
            report = check_product_preservation(
                Euclidean(p), Euclidean(q), algebra, f, samples=5, rng=rng
            )
            assert report.failures == 0, report.witnesses[:1]
            instances += report.cases
        assert instances >= 200


def test_lift_is_functorial_and_natural():
    """Lifting respects composition and identities, and commutes with
    algebra morphisms (lift then map equals map then lift), exactly in
    rational mode over at least 200 randomized instances."""
    with wall_budget(10.0):
        rng = random.Random(55)
        instances = 0
        for _ in range(100):
            algebra = random_weil_algebra(rng, max_vars=2, max_order=3, max_dimension=10)
            inner = random_poly_map(rng, 1, 2, max_degree=2)
            outer = random_poly_map(rng, 2, 1, max_degree=2)
            point = (random_element(rng, algebra),)
            composed = taylor_lift(compose_maps(outer, inner), algebra, point)
            staged = taylor_lift(outer, algebra, taylor_lift(inner, algebra, point))
            assert composed == staged
            assert taylor_lift(identity_map(1), algebra, point) == point
            instances += 1
        for _ in range(20):
            source = random_weil_algebra(rng, max_vars=2, max_order=3, max_dimension=8)
            target = random_weil_algebra(rng, max_vars=2, max_order=3, max_dimension=8)
            psi = random_morphism(rng, source, target)
            phi = random_poly_map(rng, rng.randint(1, 2), rng.randint(1, 2), max_degree=2)
            report = check_naturality(phi, psi, samples=5, rng=rng)
            assert report.failures == 0, report.witnesses[:1]
            instances += report.cases
        assert instances >= 200


def test_currying_pairing_and_dimension_formulas():
    """Exhaustive currying round trips over base arities n, m <= 2,
    degree bounds d <= 3, and all ordered pairs of preset algebras
    (dimension <= 4); product splitting and coproduct currying pass on
    the default verification grid; and the closed-form carrier dimension
    matches explicit basis enumeration everywhere on the sweep."""
    with wall_budget(30.0):
        presets = [preset_algebra(name) for name in PRESET_NAMES]
        assert all(w.dimension <= 4 for w in presets)

        combos = 0
        for n, m, d in itertools.product((0, 1, 2), (0, 1, 2), (0, 1, 2, 3)):
            for w_inner, w_outer in itertools.product(presets, repeat=2):
                rng = random.Random(6000 + combos)
                _, report = curry_iso(
                    1, n, m, w_inner, w_outer, d, rng=rng, samples=2
                )
                assert report.failures == 0, (n, m, d, report.witnesses[:1])
                combos += 1
        assert combos == 3 * 3 * 4 * len(presets) ** 2

        config = parse_config(
            {"suites": ["pairing", "coproduct-currying"], "seed": 7}
        )
        grid_report = run_suite(config)
        assert grid_report.total_failures == 0, [
            s.witnesses[:1] for s in grid_report.suites if s.failures
        ]

        for arity, w, d, coords in itertools.product(
            (0, 1, 2, 3), presets, (0, 1, 2, 3), (1, 2, 3)
        ):
            domain = Domain(arity, w)
            space = carrier_space(Euclidean(coords), domain, d)
            assert space.monomial_count == len(list(block_monomials(domain.blocks, d)))
            assert space.dimension == len(list(space.basis()))
        for w1, w2 in itertools.product(presets[:2], repeat=2):
            domain = domain_coproduct(Domain(1, w1), Domain(2, w2))
            space = carrier_space(Euclidean(2), domain, 2)
            assert space.monomial_count == len(list(block_monomials(domain.blocks, 2)))
            assert space.dimension == len(list(space.basis()))


def test_action_composition_probe_is_replayable():
    """The seeded probe of identity/composition laws for the induced
    carrier action runs at least 100 composable morphism pairs and ends
    in one of exactly two honest states: evidence-for with zero
    failures, or a counterexample whose witnesses carry the replay
    handle and both conflicting action values verbatim."""
    with wall_budget(30.0):
        samples = 100
        report = probe_functoriality(
            Euclidean(1),
            32,
            samples=samples,
            rng=case_rng(7, "acceptance-probe", 0),
            label="7:acceptance-probe:0",
        )
        assert report.cases == samples
        outcome = report.extra["outcome"]
        assert outcome in ("evidence-for", "counterexample")
        if outcome == "evidence-for":
            assert report.failures == 0
        else:
            assert report.failures == len(report.witnesses) > 0
            for witness in report.witnesses:
                assert witness["case"] == "7:acceptance-probe:0"
                assert witness["composite-action"] != witness["staged-action"] or (
                    not witness["identity"]
                )


def test_verify_reports_are_deterministic(tmp_path, capsys):
    """Two runs of the verify command with the same config and seed
    write byte-identical reports."""
    config = REPO / "configs" / "default.json"
    out1 = tmp_path / "first.json"
    out2 = tmp_path / "second.json"
    assert main(["verify", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["verify", "--config", str(config), "--out", str(out2)]) == 0
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    assert hashlib.sha256(out1.read_bytes()).hexdigest() == GOLDEN_REPORT_SHA256
