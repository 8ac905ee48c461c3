"""README.md names module attributes as `weilkit.<module>.<NAME>`, for
instance the resource limits.  A rename in weilkit would leave the README
pointing at nothing, so every such name is checked to resolve; a name
bound to an int must have its value stated in the same paragraph, so a
changed limit cannot leave the README quoting the old one."""

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


def _paragraphs_naming_ints():
    """(dotted name, value, paragraph) for every README name that is an
    int module attribute, such as a resource limit."""
    for paragraph in README.read_text().split("\n\n"):
        for module_name, path in set(re.findall(r"`weilkit\.(\w+)\.(\w+)`", paragraph)):
            value = getattr(importlib.import_module(f"weilkit.{module_name}"), path, None)
            if type(value) is int:
                yield f"weilkit.{module_name}.{path}", value, paragraph


def test_readme_names_the_limits():
    named = {name for name, _, _ in _paragraphs_naming_ints()}
    assert {"weilkit.algebras.INTERN_CAPACITY", "weilkit.expressions.MAX_NODES"} <= named


@pytest.mark.parametrize(
    "name, value, paragraph",
    [pytest.param(*case, id=case[0]) for case in _paragraphs_naming_ints()],
)
def test_readme_states_the_value_next_to_the_name(name, value, paragraph):
    # the value as a whole number, with or without thousands separators
    spelled = "|".join(re.escape(s) for s in {str(value), f"{value:,}"})
    pattern = rf"(?<![\d,.])(?:{spelled})(?!\d|[,.]\d)"
    assert re.search(pattern, paragraph), f"{name} = {value:,} is not stated beside it"
