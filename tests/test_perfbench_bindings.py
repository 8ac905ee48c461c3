"""The benchmark's tracer (perfbench/tracer.py) wraps weilkit functions
by module and attribute name.  A rename in weilkit would only show when
a traced benchmark run crashed, so every name it binds is checked here.
The tracer source is read and executed in a private namespace; nothing
under perfbench/ is imported as a module or written to."""

import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
