"""Structured pass/fail records shared by the property checks, the suite
runner, and the CLI report writer.

A witness is a plain dict of JSON-serializable values (strings, ints,
bools), or a zero-argument callable that returns one; whoever records
one is responsible for formatting elements and scalars into strings
first.  The serialized report is canonical: sorted keys, two-space
indent, trailing newline, `wall_ms` pinned to 0 so the same (config,
seed, version) always produces byte-identical output.
Real timing, when wanted, goes to stderr instead.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Dict, List

from .errors import DomainError

TOOL_VERSION = "0.1.0"


@dataclass
class SuiteReport:
    name: str
    cases: int = 0
    failures: int = 0
    witnesses: List[Dict[str, Any]] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    def record_case(
        self, ok: bool, witness: Dict[str, Any] | Callable[[], Dict[str, Any]] | None = None
    ):
        """Count one case; a failing case keeps a copy of its witness.  A
        callable witness runs only when the case fails, so a passing case
        formats nothing.  Its body must neither draw from an rng nor
        change state, since it may never run."""
        self.cases += 1
        if not ok:
            self.failures += 1
            if callable(witness):
                witness = witness()
            self.witnesses.append(dict(witness or {}))

    def merge(self, other: "SuiteReport"):
        self.cases += other.cases
        self.failures += other.failures
        self.witnesses.extend(other.witnesses)
        self.extra.update(other.extra)

    def to_record(self) -> Dict[str, Any]:
        record: Dict[str, Any] = {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failures,
            "witnesses": [jsonable(w) for w in self.witnesses],
        }
        record.update(jsonable(self.extra))
        return record


@dataclass
class Report:
    seed: int
    suites: List[SuiteReport] = field(default_factory=list)
    version: str = TOOL_VERSION

    @property
    def total_failures(self) -> int:
        return sum(s.failures for s in self.suites)

    def to_record(self) -> Dict[str, Any]:
        return {
            "version": self.version,
            "seed": self.seed,
            "suites": [s.to_record() for s in self.suites],
            # pinned so identical (config, seed, version) runs are
            # byte-identical; see module docstring
            "wall_ms": 0,
        }


def jsonable(value: Any) -> Any:
    if isinstance(value, Fraction):
        return scalar_str(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def scalar_str(value) -> str:
    """Fractions as 'p/q' (or 'p' when integral); floats via repr.  This
    is where every printed scalar becomes text: a number with more digits
    than the interpreter converts to text is a DomainError."""
    try:
        return str(value) if isinstance(value, Fraction) else repr(value)
    except ValueError as exc:
        raise DomainError(
            "a result has a number with too many digits to print"
        ) from exc


def render_report(report: Report) -> str:
    return json.dumps(report.to_record(), sort_keys=True, indent=2) + "\n"
