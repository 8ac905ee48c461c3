"""Span tracer for the benchmark's traced run.

Spans are recorded from the benchmark's own files: ``Tracer.install``
wraps weilkit's public functions and methods in place and
``Tracer.uninstall`` puts the originals back.  A function is wrapped
under every name that refers to it: weilkit modules bind imported
functions under their own names (``lifting``, ``funcalg`` and the
package ``__init__`` each hold their own ``tensor``), and ``suites``
dispatches through its ``REGISTRY`` dict, so the tracer rebinds every
module attribute, dict value and class attribute that is the original
object.

Each span keeps its call count, total time and self time (duration
minus the time covered by its child spans) in memory, together with
the count of each parent -> child edge; ``summary`` hands them out at
the end.  Counters that need the call's arguments (monomial counts,
coefficient pairs, distinct signatures, node reuse) are kept next to
the spans.
"""

from __future__ import annotations

import sys
from math import comb
from time import perf_counter_ns
from typing import Any, Callable, Dict, List, Tuple

ROOT = "<root>"

SUITE_NAMES = (
    "ring-laws",
    "morphism-laws",
    "lifting-laws",
    "naturality",
    "product-preservation",
    "tensor-associativity",
    "currying",
    "pairing",
    "coproduct-currying",
    "functor-actions",
    "conjecture-probe",
)

# span name -> (module, attribute path); a dotted path names a method.
SPANS: Dict[str, Tuple[str, str]] = {
    "polynomials.reduction_basis": ("weilkit.polynomials", "build_reduction_basis"),
    "polynomials.normal_form": ("weilkit.polynomials", "ReductionBasis.normal_form"),
    "algebras.construct": ("weilkit.algebras", "WeilAlgebra.__init__"),
    "algebras.tensor": ("weilkit.algebras", "tensor"),
    "algebras.morphism_build": ("weilkit.algebras", "WeilMorphism.__init__"),
    "algebras.morphism_apply": ("weilkit.algebras", "WeilMorphism.apply"),
    "algebras.mul": ("weilkit.algebras", "WeilElement.mul"),
    "algebras.inverse": ("weilkit.algebras", "WeilElement.inverse"),
    "expressions.parse": ("weilkit.expressions", "parse_smooth_map"),
    "expressions.compose": ("weilkit.expressions", "compose_maps"),
    "lifting.taylor_lift": ("weilkit.lifting", "taylor_lift"),
    "lifting.taylor_coefficients": ("weilkit.lifting", "taylor_coefficients"),
    "lifting.cross_action": ("weilkit.lifting", "cross_action"),
    "lifting.assoc_iso": ("weilkit.lifting", "assoc_iso"),
    "lifting.check_naturality": ("weilkit.lifting", "check_naturality"),
    "lifting.check_product_preservation": (
        "weilkit.lifting",
        "check_product_preservation",
    ),
    "funcalg.curry_iso": ("weilkit.funcalg", "curry_iso"),
    "funcalg.check_product_splitting": ("weilkit.funcalg", "check_product_splitting"),
    "funcalg.check_coproduct_currying": ("weilkit.funcalg", "check_coproduct_currying"),
    "funcalg.probe_functoriality": ("weilkit.funcalg", "probe_functoriality"),
    "funcalg.induced_action": ("weilkit.funcalg", "induced_action"),
    "samplers.random_weil_algebra": ("weilkit.samplers", "random_weil_algebra"),
    "samplers.random_morphism": ("weilkit.samplers", "random_morphism"),
    "reports.render": ("weilkit.reports", "render_report"),
}
SPANS.update(
    {
        f"suites.{name}": ("weilkit.suites", "_suite_" + name.replace("-", "_"))
        for name in SUITE_NAMES
    }
)

# These return an action; applying the action is part of the span too,
# so each application counts as a call of the same span.
RETURNS_ACTION = {"lifting.cross_action", "funcalg.induced_action"}

# (module, attribute) wrapped for counting only, never timed as spans.
COUNTED = {
    "lift_expr": ("weilkit.lifting", "lift_expr"),
    "taylor_lift_at": ("weilkit.lifting", "taylor_lift_at"),
    "lift_with_fallback": ("weilkit.lifting", "lift_with_fallback"),
    "zero_morphism": ("weilkit.samplers", "zero_morphism"),
}

RATIO_COUNTERS = (
    "algebras.construct.distinct_ratio",
    "algebras.tensor.distinct_ratio",
    "lifting.node_reuse_ratio",
    "lifting.exact_ratio",
    "samplers.morphism_accept_ratio",
)
SUM_COUNTERS = (
    "polynomials.reduction_basis.monomials",
    "algebras.mul.coeff_pairs",
    "lifting.lift_expr.visits",
)


def _resolve(module_name: str, path: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, original object) for a module-level name or a
    ``Class.method`` path."""
    owner: Any = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], owner.__dict__[parts[-1]]


class _Span:
    __slots__ = ("calls", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0


class Tracer:
    """In-memory span recorder.  Not thread-safe: weilkit is driven from
    one thread, one op at a time."""

    def __init__(self) -> None:
        self.spans: Dict[str, _Span] = {name: _Span() for name in SPANS}
        self.edges: Dict[Tuple[str, str], int] = {}
        # one frame per open span or marker: [name, child time in ns]
        self._stack: List[list] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self.construct_calls = 0
        self.construct_sigs: set = set()
        self.tensor_sigs: set = set()
        self.basis_monomials = 0
        self.coeff_pairs = 0
        self.visits = 0
        self.distinct_nodes = 0
        self._node_ids: set | None = None
        self.fallback_calls = 0
        self.exact_lifts = 0
        self.fallback_waste_ns = 0
        self.morphism_attempts = 0
        self.morphism_accepts = 0

    # -- recording --------------------------------------------------------
    def _parent(self) -> str:
        return self._stack[-1][0] if self._stack else ROOT

    def _timed(self, name: str, fn: Callable) -> Callable:
        span = self.spans[name]
        stack = self._stack
        edges = self.edges

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ROOT
            edges[(parent, name)] = edges.get((parent, name), 0) + 1
            frame = [name, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter_ns() - start
                stack.pop()
                span.calls += 1
                span.self_ns += duration - frame[1]
                if stack:
                    stack[-1][1] += duration

        return traced

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        traced = self._timed(name, fn)
        if name in RETURNS_ACTION:
            make_action = traced

            def traced(*args, **kwargs):
                return self._timed(name, make_action(*args, **kwargs))

        before = {
            "polynomials.reduction_basis": self._count_monomials,
            "algebras.tensor": self._note_tensor,
            "algebras.mul": self._count_pairs,
        }.get(name)
        if before is not None:
            call = traced

            def traced(*args, **kwargs):
                before(*args, **kwargs)
                return call(*args, **kwargs)

        if name == "algebras.construct":
            traced = self._wrap_construct(traced)
        elif name == "algebras.morphism_build":
            traced = self._wrap_morphism_build(traced)
        traced.__wrapped__ = fn
        return traced

    # argument-derived counters, taken before the call runs
    def _count_monomials(self, generators, nvars, order):
        # monomials of total degree < order in nvars variables
        self.basis_monomials += comb(nvars + order - 1, nvars)

    def _note_tensor(self, w1, w2):
        self.tensor_sigs.add((w1._sig, w2._sig))

    def _count_pairs(self, a, b):
        self.coeff_pairs += len(a.coords) * len(b.coords)

    def _wrap_construct(self, traced: Callable) -> Callable:
        def construct(algebra, *args, **kwargs):
            self.construct_calls += 1
            traced(algebra, *args, **kwargs)
            self.construct_sigs.add(algebra._sig)

        return construct

    def _wrap_morphism_build(self, traced: Callable) -> Callable:
        def build(*args, **kwargs):
            # an attempt is a build made directly by random_morphism;
            # its zero-morphism fallback runs under a marker frame, so
            # it does not count.  A rejected attempt raises out of here.
            sampled = self._parent() == "samplers.random_morphism"
            if sampled:
                self.morphism_attempts += 1
            traced(*args, **kwargs)
            if sampled:
                self.morphism_accepts += 1

        return build

    def _counted(self, key: str, fn: Callable) -> Callable:
        if key == "lift_expr":

            def wrapper(e, *args, **kwargs):
                self.visits += 1
                outermost = self._node_ids is None
                if outermost:
                    self._node_ids = set()
                self._node_ids.add(id(e))
                try:
                    return fn(e, *args, **kwargs)
                finally:
                    if outermost:
                        self.distinct_nodes += len(self._node_ids)
                        self._node_ids = None

        elif key == "taylor_lift_at":
            from weilkit.algebras import RATIONAL
            from weilkit.errors import ScalarModeError

            def wrapper(f, algebra, base, mode=RATIONAL):
                start = perf_counter_ns()
                try:
                    return fn(f, algebra, base, mode)
                except ScalarModeError:
                    if mode == RATIONAL:
                        self.fallback_waste_ns += perf_counter_ns() - start
                    raise

        elif key == "lift_with_fallback":
            from weilkit.algebras import RATIONAL

            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                self.fallback_calls += 1
                if result[1] == RATIONAL:
                    self.exact_lifts += 1
                return result

        elif key == "zero_morphism":

            def wrapper(*args, **kwargs):
                self._stack.append(["samplers.zero_morphism", 0])
                try:
                    return fn(*args, **kwargs)
                finally:
                    marker = self._stack.pop()
                    if self._stack:
                        self._stack[-1][1] += marker[1]

        else:
            raise KeyError(key)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -------------------------------------------------------
    def install(self) -> None:
        """Wrap every traced function under every name that refers to it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        import weilkit  # noqa: F401  (loads every submodule)

        wrappers: Dict[int, Tuple[Any, Any]] = {}
        for name, (module, path) in SPANS.items():
            owner, attr, original = _resolve(module, path)
            wrappers[id(original)] = (original, self._span_wrapper(name, original))
        for key, (module, path) in COUNTED.items():
            owner, attr, original = _resolve(module, path)
            wrappers[id(original)] = (original, self._counted(key, original))

        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == "weilkit" or mod_name.startswith("weilkit.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                self._rebind(module, attr, value, wrappers)
                if isinstance(value, type) and value.__module__.startswith("weilkit"):
                    for cattr, cvalue in list(vars(value).items()):
                        self._rebind(value, cattr, cvalue, wrappers)
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        self._rebind(value, key, item, wrappers)

    def _rebind(self, owner, attr, value, wrappers) -> None:
        hit = wrappers.get(id(value))
        if hit is None or hit[0] is not value:
            return
        self._patches.append((owner, attr, value))
        if isinstance(owner, dict):
            owner[attr] = hit[1]
        else:
            setattr(owner, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results ----------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-span calls and self time, the counters, and the edges."""
        metrics: Dict[str, float] = {}
        for name, span in self.spans.items():
            metrics[f"{name}.calls"] = span.calls
            metrics[f"{name}.self_ms"] = span.self_ns / 1e6
        metrics["polynomials.reduction_basis.monomials"] = self.basis_monomials
        metrics["algebras.mul.coeff_pairs"] = self.coeff_pairs
        metrics["lifting.lift_expr.visits"] = self.visits
        metrics["algebras.construct.distinct_ratio"] = _ratio(
            len(self.construct_sigs), self.construct_calls
        )
        metrics["algebras.tensor.distinct_ratio"] = _ratio(
            len(self.tensor_sigs), self.spans["algebras.tensor"].calls
        )
        metrics["lifting.node_reuse_ratio"] = _ratio(self.distinct_nodes, self.visits)
        metrics["lifting.exact_ratio"] = _ratio(self.exact_lifts, self.fallback_calls)
        metrics["lifting.fallback_waste_ms"] = self.fallback_waste_ns / 1e6
        metrics["samplers.morphism_accept_ratio"] = _ratio(
            self.morphism_accepts, self.morphism_attempts
        )
        edges = [
            {"parent": parent, "child": child, "calls": calls}
            for (parent, child), calls in sorted(self.edges.items())
        ]
        return {"metrics": metrics, "edges": edges}


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def per_layer_names() -> List[str]:
    """Every per-layer metric the tracer reports, in a fixed order."""
    names = []
    for name in SPANS:
        names += [f"{name}.calls", f"{name}.self_ms"]
    names += list(SUM_COUNTERS) + list(RATIO_COUNTERS) + ["lifting.fallback_waste_ms"]
    return names


# The workload on which each per-module metric should move (the
# module -> metric -> workload map of perfbench/NOTES.md).  Every span and
# counter must fire on its workload.
_ON_JET_LIFT = (
    "algebras.mul",
    "algebras.inverse",
    "algebras.mul.coeff_pairs",
    "expressions.parse",
    "expressions.compose",
    "lifting.taylor_lift",
    "lifting.taylor_coefficients",
    "lifting.lift_expr.visits",
    "lifting.node_reuse_ratio",
    "lifting.exact_ratio",
    "lifting.fallback_waste_ms",
)
NAMED_ON: Dict[str, str] = {
    **{
        name: "verify-default"
        for name in [*SPANS, *SUM_COUNTERS, *RATIO_COUNTERS]
        if name not in _ON_JET_LIFT
    },
    **{name: "jet-lift" for name in _ON_JET_LIFT},
}
