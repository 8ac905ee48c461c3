"""Seeded property-suite runner.

Each suite is one case function run by `_suite`'s loop, which seeds
case `i` from its label `seed:suite:i`, so the `case` string attached to
every witness is enough to replay the exact algebras, elements, and maps
involved.  The runner aggregates the reports into the canonical
serialized form from `reports` and never prints anything itself.

The configured `degree_bound` governs carrier enumeration sizes.  The
conjecture probe hands `induced_action` a larger allowance (substitution
composes two morphisms, so degrees multiply); the inputs it samples are
degree-capped so the allowance is never exceeded — overflow there is a
bug, not a tolerance.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .algebras import (
    PRESETS,
    REAL,
    WeilAlgebra,
    WeilPresentation,
    apply_morphism,
    compose_morphism,
    elements_close,
    identity_morphism,
    mk_weil_algebra,
    preset_algebra,
)
from .errors import ConfigError
from .expressions import compose_maps
from .funcalg import (
    Domain,
    check_coproduct_currying,
    check_product_splitting,
    curry_iso,
    probe_functoriality,
)
from .lifting import (
    Euclidean,
    Product,
    Prolonged,
    WPoint,
    assoc_iso,
    check_naturality,
    check_product_preservation,
    cross_action,
    identity_map,
    prolong_space,
    taylor_lift,
)
from .reports import Report, SuiteReport
from .samplers import (
    case_label,
    random_element,
    random_fraction,
    random_morphism,
    random_point,
    random_poly_map,
    random_smooth_map,
    random_weil_algebra,
)

DEFAULT_CASES: Dict[str, int] = {
    "ring-laws": 60,
    "morphism-laws": 40,
    "lifting-laws": 30,
    "naturality": 30,
    "product-preservation": 50,
    "tensor-associativity": 15,
    "currying": 10,
    "pairing": 15,
    "coproduct-currying": 8,
    "functor-actions": 30,
    "conjecture-probe": 60,
}

MAX_SEED = 2**64 - 1
MAX_DEGREE_BOUND = 6


@dataclass(frozen=True)
class SuiteConfig:
    suites: Tuple[str, ...]
    seed: int
    cases: Mapping[str, int]
    degree_bound: int
    grid_n: Tuple[int, ...]
    grid_m: Tuple[int, ...]
    algebras: Tuple[Tuple[str, WeilAlgebra], ...]

    def count(self, suite: str) -> int:
        return self.cases.get(suite, DEFAULT_CASES[suite])


def default_config(seed: int = 7) -> SuiteConfig:
    return SuiteConfig(
        suites=tuple(DEFAULT_CASES),
        seed=seed,
        cases=dict(DEFAULT_CASES),
        degree_bound=2,
        grid_n=(0, 1, 2),
        grid_m=(1, 2),
        algebras=tuple((name, preset_algebra(name)) for name in sorted(PRESETS)),
    )


def parse_config(record: Any, base_dir: Optional[Path] = None) -> SuiteConfig:
    if not isinstance(record, dict):
        raise ConfigError("config must be a JSON object")
    known = {"suites", "seed", "cases", "degree_bound", "dims_grid"}
    stray = set(record) - known
    if stray:
        raise ConfigError(f"unknown config fields: {sorted(stray)}")

    suites_field = record.get("suites", list(DEFAULT_CASES))
    if not isinstance(suites_field, list) or not all(
        isinstance(s, str) for s in suites_field
    ):
        raise ConfigError("'suites' must be a list of suite names")
    for name in suites_field:
        if name not in DEFAULT_CASES:
            raise ConfigError(
                f"unknown suite {name!r}; known: {', '.join(DEFAULT_CASES)}"
            )

    seed = record.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed <= MAX_SEED:
        raise ConfigError("'seed' must be an unsigned 64-bit integer")

    cases_field = record.get("cases", {})
    cases: Dict[str, int]
    if isinstance(cases_field, bool):
        raise ConfigError("'cases' must be a positive integer or a per-suite map")
    if isinstance(cases_field, int):
        if cases_field <= 0:
            raise ConfigError("'cases' must be positive")
        cases = {name: cases_field for name in DEFAULT_CASES}
    elif isinstance(cases_field, dict):
        cases = dict(DEFAULT_CASES)
        for name, value in cases_field.items():
            if name not in DEFAULT_CASES:
                raise ConfigError(f"case count for unknown suite {name!r}")
            if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
                raise ConfigError(f"case count for {name!r} must be a positive integer")
            cases[name] = value
    else:
        raise ConfigError("'cases' must be a positive integer or a per-suite map")

    degree_bound = record.get("degree_bound", 2)
    if (
        not isinstance(degree_bound, int)
        or isinstance(degree_bound, bool)
        or not 0 <= degree_bound <= MAX_DEGREE_BOUND
    ):
        raise ConfigError(
            f"'degree_bound' must be an integer in [0, {MAX_DEGREE_BOUND}]"
        )

    grid = record.get("dims_grid", {})
    if not isinstance(grid, dict):
        raise ConfigError("'dims_grid' must be an object")
    stray = set(grid) - {"n", "m", "algebras"}
    if stray:
        raise ConfigError(f"unknown dims_grid fields: {sorted(stray)}")
    grid_n = _parse_arities(grid.get("n", [0, 1, 2]), "n")
    grid_m = _parse_arities(grid.get("m", [1, 2]), "m")
    algebras = _parse_algebras(grid.get("algebras"), base_dir)

    return SuiteConfig(
        suites=tuple(suites_field),
        seed=seed,
        cases=cases,
        degree_bound=degree_bound,
        grid_n=grid_n,
        grid_m=grid_m,
        algebras=algebras,
    )


def _parse_arities(value: Any, key: str) -> Tuple[int, ...]:
    if (
        not isinstance(value, list)
        or not value
        or not all(
            isinstance(v, int) and not isinstance(v, bool) and 0 <= v <= 4
            for v in value
        )
    ):
        raise ConfigError(f"dims_grid.{key} must be a nonempty list of arities in [0, 4]")
    return tuple(value)


def _parse_algebras(value: Any, base_dir: Optional[Path]) -> Tuple[Tuple[str, WeilAlgebra], ...]:
    if value is None:
        return tuple((name, preset_algebra(name)) for name in sorted(PRESETS))
    if not isinstance(value, list) or not value:
        raise ConfigError("dims_grid.algebras must be a nonempty list")
    out: List[Tuple[str, WeilAlgebra]] = []
    for entry in value:
        if isinstance(entry, str):
            if entry in PRESETS:
                out.append((entry, preset_algebra(entry)))
                continue
            path = Path(entry)
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            if path.exists():
                out.append((path.stem, _algebra_from_file(path)))
                continue
            raise ConfigError(
                f"algebra entry {entry!r} is neither a preset nor an existing file"
            )
        if isinstance(entry, dict) and set(entry) == {"file"} and isinstance(entry["file"], str):
            path = Path(entry["file"])
            if base_dir is not None and not path.is_absolute():
                path = base_dir / path
            if not path.exists():
                raise ConfigError(f"algebra file not found: {path}")
            out.append((path.stem, _algebra_from_file(path)))
            continue
        raise ConfigError(
            "algebra entries must be preset names, file paths, or {'file': path}"
        )
    return tuple(out)


def _algebra_from_file(path: Path) -> WeilAlgebra:
    try:
        presentation = WeilPresentation.from_file(str(path))
        return mk_weil_algebra(presentation)
    except ConfigError:
        raise
    except Exception as exc:  # surface as a config problem with the filename
        raise ConfigError(f"could not load algebra from {path}: {exc}") from exc


def load_config(path: str | Path) -> SuiteConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        record = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return parse_config(record, base_dir=path.parent)


# ---------------------------------------------------------------------------
# shared sampling helpers


def _pick_algebra(
    rng: random.Random, config: SuiteConfig, small: bool = False
) -> WeilAlgebra:
    if rng.random() < 0.5:
        _, algebra = config.algebras[rng.randrange(len(config.algebras))]
        return algebra
    if small:
        return random_weil_algebra(rng, max_vars=2, max_order=3, max_dimension=6)
    return random_weil_algebra(rng)


# ---------------------------------------------------------------------------
# the suites: one case function each, run by `_suite`'s loop

REGISTRY: Dict[str, Callable[[SuiteConfig], SuiteReport]] = {}


def _suite(name: str, case: Callable[..., Any], summary: Optional[Callable] = None):
    """Register and return suite `name`, whose loop is the only one over
    case indices: `case(report, config, rng, label, index)` records case
    `index`, labelled `seed:name:index` and drawn from an rng seeded from
    that label.  `summary(report, results)` returns suite-level fields."""

    def run(config: SuiteConfig) -> SuiteReport:
        report = SuiteReport(name)
        results = []
        for index in range(config.count(name)):
            label = case_label(config.seed, name, index)
            results.append(case(report, config, random.Random(label), label, index))
        if summary is not None:
            report.extra.update(summary(report, results))
        return report

    REGISTRY[name] = run
    return run


def _ring_laws_case(report, config, rng, label, index):
    algebra = _pick_algebra(rng, config)
    a = random_element(rng, algebra)
    b = random_element(rng, algebra)
    c = random_element(rng, algebra)
    factor = random_fraction(rng)
    checks = {
        "add-commutes": a.add(b) == b.add(a),
        "mul-commutes": a.mul(b) == b.mul(a),
        "mul-associates": a.mul(b.mul(c)) == a.mul(b).mul(c),
        "distributes": a.mul(b.add(c)) == a.mul(b).add(a.mul(c)),
        "unit": algebra.one().mul(a) == a,
        "sub-cancels": a.sub(a) == algebra.zero(),
        "scale-matches-const": a.scale(factor) == algebra.const(factor).mul(a),
        "augmentation-multiplicative": a.mul(b).augmentation()
        == a.augmentation() * b.augmentation(),
    }
    report.record_case(
        all(checks.values()),
        {
            "case": label,
            "algebra": repr(algebra),
            "elements": [a.format(), b.format(), c.format()],
            "failed": sorted(k for k, v in checks.items() if not v),
        },
    )
    return algebra


_suite_ring_laws = _suite(
    "ring-laws",
    _ring_laws_case,
    lambda report, algebras: {"distinct_algebras": len(set(algebras))},
)


def _morphism_laws_case(report, config, rng, label, index):
    w1 = _pick_algebra(rng, config)
    w2 = _pick_algebra(rng, config)
    w3 = _pick_algebra(rng, config)
    psi = random_morphism(rng, w1, w2)
    chi = random_morphism(rng, w2, w3)
    a = random_element(rng, w1)
    b = random_element(rng, w1)
    ident = identity_morphism(w1)
    checks = {
        "additive": apply_morphism(psi, a.add(b))
        == apply_morphism(psi, a).add(apply_morphism(psi, b)),
        "multiplicative": apply_morphism(psi, a.mul(b))
        == apply_morphism(psi, a).mul(apply_morphism(psi, b)),
        "unital": apply_morphism(psi, w1.one()) == w2.one(),
        "augmentation-preserving": apply_morphism(psi, a).augmentation()
        == a.augmentation(),
        "identity-acts-trivially": apply_morphism(ident, a) == a,
        "compose-staged": apply_morphism(compose_morphism(psi, chi), a)
        == apply_morphism(chi, apply_morphism(psi, a)),
    }
    report.record_case(
        all(checks.values()),
        {
            "case": label,
            "morphism": repr(psi),
            "element": a.format(),
            "failed": sorted(k for k, v in checks.items() if not v),
        },
    )


_suite_morphism_laws = _suite("morphism-laws", _morphism_laws_case)


def _lifting_laws_case(report, config, rng, label, index):
    algebra = _pick_algebra(rng, config)
    n1 = rng.randint(1, 2)
    n2 = rng.randint(1, 2)
    n3 = rng.randint(1, 2)
    float_case = index % 3 == 2
    if float_case:
        f = random_smooth_map(rng, n1, n2, max_degree=2)
        g = random_smooth_map(rng, n2, n3, max_degree=2)
        point = random_point(rng, algebra, n1, mode=REAL, max_terms=3)
    else:
        f = random_poly_map(rng, n1, n2, max_degree=2)
        g = random_poly_map(rng, n2, n3, max_degree=2)
        point = random_point(rng, algebra, n1, max_terms=3)
    staged = taylor_lift(g, algebra, taylor_lift(f, algebra, point))
    joint = taylor_lift(compose_maps(g, f), algebra, point)
    if float_case:
        compose_ok = all(elements_close(x, y) for x, y in zip(joint, staged))
    else:
        compose_ok = joint == staged
    identity_ok = taylor_lift(identity_map(n1), algebra, point) == point
    report.record_case(
        compose_ok and identity_ok,
        {
            "case": label,
            "algebra": repr(algebra),
            "inner": repr(f),
            "outer": repr(g),
            "point": [v.format() for v in point],
            "compose": compose_ok,
            "identity": identity_ok,
        },
    )


_suite_lifting_laws = _suite("lifting-laws", _lifting_laws_case)


def _naturality_case(report, config, rng, label, index):
    w1 = _pick_algebra(rng, config)
    w2 = _pick_algebra(rng, config)
    psi = random_morphism(rng, w1, w2)
    arity = rng.randint(1, 2)
    coarity = rng.randint(1, 2)
    if index % 3 == 2:
        phi = random_smooth_map(rng, arity, coarity, max_degree=2)
    else:
        phi = random_poly_map(rng, arity, coarity, max_degree=2)
    report.merge(check_naturality(phi, psi, samples=3, rng=rng, label=label))


_suite_naturality = _suite("naturality", _naturality_case)


def _product_preservation_case(report, config, rng, label, index):
    algebra = _pick_algebra(rng, config, small=True)
    p = rng.randint(1, 2)
    q = rng.randint(1, 2)
    f = random_poly_map(rng, algebra.nvars, p + q, max_degree=2)
    report.merge(
        check_product_preservation(
            Euclidean(p), Euclidean(q), algebra, f, samples=2, rng=rng, label=label
        )
    )


_suite_product_preservation = _suite("product-preservation", _product_preservation_case)


def _tensor_associativity_case(report, config, rng, label, index):
    w1 = _pick_algebra(rng, config, small=True)
    w2 = _pick_algebra(rng, config, small=True)
    dim = rng.randint(1, 2)
    lift = random_poly_map(rng, dim, rng.randint(1, 2), max_degree=2)
    _, sub = assoc_iso(
        Euclidean(dim), w1, w2, rng=rng, samples=2, lift_maps=(lift,), label=label
    )
    report.merge(sub)


_suite_tensor_associativity = _suite("tensor-associativity", _tensor_associativity_case)


def _currying_case(report, config, rng, label, index):
    n = rng.choice(config.grid_n)
    m = rng.choice(config.grid_m)
    inner = _pick_algebra(rng, config, small=True)
    outer = _pick_algebra(rng, config, small=True)
    degree = min(config.degree_bound, 2)
    _, sub = curry_iso(
        rng.randint(1, 2), n, m, inner, outer, degree, rng=rng, samples=3,
        label=label,
    )
    report.merge(sub)


_suite_currying = _suite("currying", _currying_case)


def _pairing_case(report, config, rng, label, index):
    algebra = _pick_algebra(rng, config, small=True)
    n = rng.choice([v for v in config.grid_n if v > 0] or [1])
    p = rng.randint(1, 2)
    q = rng.randint(1, 2)
    report.merge(
        check_product_splitting(
            Euclidean(p),
            Euclidean(q),
            Domain(n, algebra),
            min(config.degree_bound, 2),
            samples=2,
            rng=rng,
            label=label,
        )
    )


_suite_pairing = _suite("pairing", _pairing_case)


def _coproduct_currying_case(report, config, rng, label, index):
    inner = _pick_algebra(rng, config, small=True)
    outer = _pick_algebra(rng, config, small=True)
    n = rng.choice(config.grid_n)
    m = rng.choice(config.grid_m)
    report.merge(
        check_coproduct_currying(
            Euclidean(rng.randint(1, 2)),
            Domain(n, inner),
            Domain(m, outer),
            min(config.degree_bound, 2),
            samples=2,
            rng=rng,
            label=label,
        )
    )


_suite_coproduct_currying = _suite("coproduct-currying", _coproduct_currying_case)


def _random_shape(rng: random.Random, config: SuiteConfig):
    roll = rng.randrange(3)
    if roll == 0:
        return Euclidean(rng.randint(1, 2))
    if roll == 1:
        return Product((Euclidean(1), Euclidean(rng.randint(1, 2))))
    return Prolonged(Euclidean(1), _pick_algebra(rng, config, small=True))


def _random_wpoint(rng: random.Random, space) -> tuple:
    if isinstance(space, Prolonged):
        return random_point(rng, space.weil, space.base.dim, max_terms=3)
    if isinstance(space, Product):
        return tuple(_random_wpoint(rng, f) for f in space.factors)
    return tuple(random_fraction(rng) for _ in range(space.dim))


def _functor_actions_case(report, config, rng, label, index):
    w1 = _pick_algebra(rng, config, small=True)
    w2 = _pick_algebra(rng, config, small=True)
    w3 = _pick_algebra(rng, config, small=True)
    psi = random_morphism(rng, w1, w2)
    chi = random_morphism(rng, w2, w3)
    shape = _random_shape(rng, config)
    source_space = prolong_space(shape, w1)
    point = WPoint(source_space, _random_wpoint(rng, source_space))
    identity_ok = cross_action(shape, identity_morphism(w1))(point) == point
    staged = cross_action(shape, chi)(cross_action(shape, psi)(point))
    joint = cross_action(shape, compose_morphism(psi, chi))(point)
    report.record_case(
        identity_ok and staged == joint,
        {
            "case": label,
            "shape": repr(shape),
            "first": repr(psi),
            "second": repr(chi),
            "identity": identity_ok,
            "compose": staged == joint,
        },
    )


_suite_functor_actions = _suite("functor-actions", _functor_actions_case)


def _conjecture_probe_case(report, config, rng, label, index):
    space = Euclidean(rng.randint(1, 2))
    allowance = max(config.degree_bound, 2) * 16
    report.merge(probe_functoriality(space, allowance, samples=1, rng=rng, label=label))


# the rule `probe_functoriality` uses: any failed case is a counterexample
_suite_conjecture_probe = _suite(
    "conjecture-probe",
    _conjecture_probe_case,
    lambda report, _: {"outcome": "counterexample" if report.failures else "evidence-for"},
)


def run_suite(config: SuiteConfig) -> Report:
    """Run the configured suites in order and aggregate their reports.
    Deterministic for a fixed (config, seed): every case derives its own
    rng from the seed and suite name."""
    suites = [REGISTRY[name](config) for name in config.suites]
    return Report(seed=config.seed, suites=suites)
