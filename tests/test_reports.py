"""Suite reports: a witness given as a callable runs only for a failing
case, and then records what the same dict given eagerly records."""

import pytest

from weilkit.reports import SuiteReport


def _never():
    raise AssertionError("a passing case ran its witness")


def test_passing_case_never_runs_its_witness():
    report = SuiteReport("lazy")
    report.record_case(True, _never)
    report.record_case(True, lambda: _never())
    assert (report.cases, report.failures, report.witnesses) == (2, 0, [])


@pytest.mark.parametrize("witness", [{"case": "c", "point": ["1 + x"], "ok": False}, {}, None])
def test_failing_case_stores_what_the_eager_form_stores(witness):
    eager, lazy = SuiteReport("eager"), SuiteReport("lazy")
    eager.record_case(False, witness)
    lazy.record_case(False, lambda: witness)
    assert lazy.witnesses == eager.witnesses
    assert lazy.to_record()["witnesses"] == eager.to_record()["witnesses"]
    assert (lazy.cases, lazy.failures) == (1, 1)
    if witness:
        # a copy, as for a dict
        assert lazy.witnesses[0] is not witness
