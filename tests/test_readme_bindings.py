"""README.md names module attributes as `weilkit.<module>.<NAME>`, for
instance the resource limits.  A rename in weilkit would leave the README
pointing at nothing, so every such name is checked to resolve."""

import importlib
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def _readme_names():
    return sorted(set(re.findall(r"`weilkit\.(\w+)\.([\w.]+)`", README.read_text())))


def test_readme_names_module_attributes():
    assert len(_readme_names()) >= 5


@pytest.mark.parametrize("module_name, path", _readme_names())
def test_readme_name_resolves(module_name, path):
    owner = importlib.import_module(f"weilkit.{module_name}")
    for part in path.split("."):
        assert hasattr(owner, part), f"weilkit.{module_name}.{path}"
        owner = getattr(owner, part)
