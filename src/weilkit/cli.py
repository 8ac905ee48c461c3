"""Command-line front end.

Exit codes: 0 success, 1 property failure or inequivalence, 2 usage or
parse problems (bad flags, malformed expressions, config errors), 3
semantic rejections (improper ideals, invalid morphisms, domain errors).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import List, Optional, Sequence

from .algebras import (
    PRESETS,
    REAL,
    WeilAlgebra,
    WeilPresentation,
    jet_algebra,
    mk_weil_algebra,
    preset_algebra,
)
from .errors import ConfigError, ParseError, WeilkitError
from .expressions import parse_smooth_map
from .lifting import equiv_mod, lift_with_fallback
from .polynomials import Monomial
from .reports import render_report, scalar_str
from .suites import MAX_SEED, load_config, run_suite


def _resolve_algebra(name_or_path: str) -> WeilAlgebra:
    if name_or_path in PRESETS:
        return preset_algebra(name_or_path)
    path = Path(name_or_path)
    if not path.exists():
        raise ParseError(
            f"{name_or_path!r} is neither a preset ({', '.join(sorted(PRESETS))}) "
            "nor an existing presentation file"
        )
    return mk_weil_algebra(WeilPresentation.from_file(path))


def _parse_rationals(text: str) -> List[Fraction]:
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        try:
            out.append(Fraction(chunk))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational {chunk!r} in base point") from exc
    return out


def cmd_check(args: argparse.Namespace) -> int:
    presentation = WeilPresentation.from_file(args.file)
    algebra = mk_weil_algebra(presentation)
    basis = ", ".join(m.format(algebra.names) for m in algebra.basis)
    print(f"dimension {algebra.dimension}")
    print(f"basis [{basis}]")
    print(f"order {algebra.order}")
    return 0


def cmd_lift(args: argparse.Namespace) -> int:
    algebra = _resolve_algebra(args.algebra)
    f = parse_smooth_map(args.expr, arity=algebra.nvars)
    base = _parse_rationals(args.at)
    if len(base) != algebra.nvars:
        raise ParseError(
            f"expected {algebra.nvars} base coordinates, got {len(base)}"
        )
    values, mode = lift_with_fallback(f, algebra, base)
    # format every line first: a number too long to print leaves no partial output
    lines = [f"f{i} = {value.format()}" for i, value in enumerate(values)]
    print(f"mode {mode}", *lines, sep="\n")
    return 0


def cmd_derive(args: argparse.Namespace) -> int:
    k = args.order
    if not 1 <= k <= 12:
        print("error: --order must be between 1 and 12", file=sys.stderr)
        return 2
    f = parse_smooth_map(args.expr, arity=1)
    if f.coarity != 1:
        raise ParseError("derive expects a single scalar expression")
    try:
        base = Fraction(args.at.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational base point {args.at!r}") from exc
    algebra = jet_algebra(k)
    (value,), mode = lift_with_fallback(f, algebra, [base])
    for j in range(k + 1):
        coeff = value.coords.get(Monomial((j,)))
        if coeff is None:
            coeff = 0.0 if mode == REAL else Fraction(0)
        derivative = coeff * math.factorial(j)
        print(f"{j}: {scalar_str(derivative)}")
    return 0


def cmd_equiv(args: argparse.Namespace) -> int:
    algebra = _resolve_algebra(args.algebra)
    f = parse_smooth_map(args.f, arity=algebra.nvars)
    g = parse_smooth_map(args.g, arity=algebra.nvars)
    verdict = equiv_mod(f, g, algebra)
    if verdict:
        print("equivalent")
        return 0
    diff = verdict.difference.format() if verdict.difference is not None else "?"
    print(f"inequivalent at component {verdict.component}: {diff}")
    return 1


def cmd_verify(args: argparse.Namespace) -> int:
    config = load_config(args.config)
    if args.seed is not None:
        if not 0 <= args.seed <= MAX_SEED:
            raise ConfigError("--seed must be an unsigned 64-bit integer")
        config = replace(config, seed=args.seed)
    out = Path(args.out)  # checked before any suite runs, written only at the end
    if out.is_dir() or not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
        what = "is a directory" if out.is_dir() else "has no writable parent directory"
        raise ConfigError(f"cannot write report to {args.out}: it {what}")
    started = time.monotonic()
    report = run_suite(config)
    elapsed = time.monotonic() - started
    try:
        out.write_text(render_report(report))
    except OSError as exc:
        raise ConfigError(f"cannot write report to {args.out}: {exc.strerror}") from exc
    # wall time is real but goes to stderr: the report file itself is
    # byte-identical for identical (config, seed, version)
    print(f"verify ran {elapsed:.2f}s", file=sys.stderr)
    for suite in report.suites:
        print(f"{suite.name}: {suite.cases} cases, {suite.failures} failures")
    print(f"report written to {args.out}")
    return 0 if report.total_failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weilkit",
        description=(
            "Exact arithmetic in Weil algebras, lifts of smooth maps "
            "(higher-order derivatives), equivalence checks, and seeded "
            "property suites."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate a presentation file")
    p_check.add_argument("file", help="JSON Weil-algebra presentation")
    p_check.set_defaults(fn=cmd_check)

    p_lift = sub.add_parser("lift", help="lift an expression through an algebra")
    p_lift.add_argument("--algebra", required=True, help="preset name or file")
    p_lift.add_argument("--expr", required=True, help="expression or tuple")
    p_lift.add_argument("--at", required=True, help="comma-separated rationals")
    p_lift.set_defaults(fn=cmd_lift)

    p_derive = sub.add_parser(
        "derive", help="derivative table f^(0)..f^(k) at a point"
    )
    p_derive.add_argument("--order", required=True, type=int, help="1..12")
    p_derive.add_argument("--expr", required=True, help="univariate expression")
    p_derive.add_argument("--at", required=True, help="rational base point")
    p_derive.set_defaults(fn=cmd_derive)

    p_equiv = sub.add_parser("equiv", help="equivalence modulo the ideal")
    p_equiv.add_argument("--algebra", required=True, help="preset name or file")
    p_equiv.add_argument("--f", required=True, help="first map")
    p_equiv.add_argument("--g", required=True, help="second map")
    p_equiv.set_defaults(fn=cmd_equiv)

    p_verify = sub.add_parser("verify", help="run property suites")
    p_verify.add_argument("--config", required=True, help="suite config JSON")
    p_verify.add_argument("--out", required=True, help="report output path")
    p_verify.add_argument("--seed", type=int, default=None, help="seed override")
    p_verify.set_defaults(fn=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WeilkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
