"""The benchmark's tracer (perfbench/tracer.py) wraps weilkit functions
by module and attribute name, and its workloads (perfbench/workloads.py,
perfbench/child.py) call weilkit through a ``wk`` or ``lib`` handle.  A
rename in weilkit would only show when a benchmark run crashed, so every
name they bind is checked here.  The tracer source is read and executed
in a private namespace and the workload sources are parsed with ``ast``;
nothing under perfbench/ is imported as a module or written to."""

import ast
import importlib
import types
from pathlib import Path

import pytest

import weilkit
from weilkit import suites

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACER = PERFBENCH / "tracer.py"
WORKLOADS = (PERFBENCH / "workloads.py", PERFBENCH / "child.py")
# how the workload sources reach weilkit: the handle and the weilkit
# attribute path it stands for (``Lib.load`` binds these)
HANDLES = {"wk": "", "lib.wk": "", "lib.polynomials": "polynomials", "lib.algebras": "algebras"}


def _tracer_names():
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return sorted(set(namespace["SPANS"].values()) | set(namespace["COUNTED"].values()))


@pytest.mark.parametrize("module_name, path", _tracer_names())
def test_traced_name_resolves(module_name, path):
    # the tracer looks the last part up in its owner's own __dict__
    owner = importlib.import_module(module_name)
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert callable(vars(owner)[name])


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id, *reversed(parts)])
    return None


def _workload_names():
    """Every weilkit attribute path the workload sources read through a
    handle, such as ``expressions.eval_expr_float`` for
    ``lib.wk.expressions.eval_expr_float``."""
    found = set()
    for source in WORKLOADS:
        for node in ast.walk(ast.parse(source.read_text())):
            chain = _dotted(node) if isinstance(node, ast.Attribute) else None
            if chain is None:
                continue
            chain = chain.removeprefix("self.")
            for handle, owner in HANDLES.items():
                if chain.startswith(handle + "."):
                    rest = chain[len(handle) + 1 :]
                    found.add(f"{owner}.{rest}" if owner else rest)
    return sorted(found)


def test_workload_scan_sees_the_gate_names():
    assert {
        "polynomials.Monomial",
        "jet_algebra",
        "tensor",
        "parse_smooth_map",
        "lift_with_fallback",
        "compose_maps",
        "expressions.eval_expr_float",
        "run_suite",
    } <= set(_workload_names())


@pytest.mark.parametrize("path", _workload_names())
def test_workload_name_resolves(path):
    owner = weilkit
    for part in path.split("."):
        assert hasattr(owner, part), f"weilkit.{path}"
        owner = getattr(owner, part)
    # a module on the way to a name (wk.expressions) is a handle, not a call
    assert isinstance(owner, types.ModuleType) or callable(owner), f"weilkit.{path}"


def test_registry_holds_the_traced_suite_objects():
    # the tracer wraps ``suites._suite_<name>`` and rebinds every dict
    # value that is the same object, so run_suite's REGISTRY lookup is
    # timed only while the two are one object
    for name in suites.DEFAULT_CASES:
        assert suites.REGISTRY[name] is vars(suites)["_suite_" + name.replace("-", "_")]
