"""Config parsing, the suite runner, report determinism, and the CLI."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weilkit import cli
from weilkit.cli import main
from weilkit.errors import ConfigError, WeilkitError
from weilkit.expressions import MAX_NODES
from weilkit.funcalg import DomainMorphism, probe_functoriality, wpoly_zero
from weilkit.lifting import Euclidean
from weilkit.reports import Report, SuiteReport, render_report
from weilkit.samplers import case_rng
from weilkit.suites import (
    DEFAULT_CASES,
    REGISTRY,
    default_config,
    load_config,
    parse_config,
    run_suite,
)

REPO = Path(__file__).resolve().parent.parent
# a child interpreter finds the package from its source tree too: the
# pytest pythonpath setting reaches only the pytest process
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(
        filter(None, (str(REPO / "src"), os.environ.get("PYTHONPATH")))
    ),
}


def small_config(seed=11, cases=2, **overrides):
    record = {
        "suites": list(DEFAULT_CASES),
        "seed": seed,
        "cases": cases,
        "degree_bound": 2,
    }
    record.update(overrides)
    return parse_config(record)


class TestConfigParsing:
    def test_empty_record_gets_defaults(self):
        config = parse_config({})
        assert config.suites == tuple(DEFAULT_CASES)
        assert config.seed == 0
        assert config.degree_bound == 2
        assert len(config.algebras) == 4

    def test_must_be_an_object(self):
        with pytest.raises(ConfigError):
            parse_config(["ring-laws"])

    def test_unknown_top_level_field(self):
        with pytest.raises(ConfigError, match="unknown config fields"):
            parse_config({"suits": ["ring-laws"]})

    def test_unknown_suite_name(self):
        with pytest.raises(ConfigError, match="unknown suite"):
            parse_config({"suites": ["ring-lawz"]})

    def test_suites_must_be_a_list_of_names(self):
        with pytest.raises(ConfigError):
            parse_config({"suites": "ring-laws"})

    def test_seed_bounds(self):
        assert parse_config({"seed": 2**64 - 1}).seed == 2**64 - 1
        for bad in (-1, 2**64, True, "7"):
            with pytest.raises(ConfigError):
                parse_config({"seed": bad})

    def test_cases_scalar_applies_everywhere(self):
        config = parse_config({"cases": 5})
        assert all(config.count(name) == 5 for name in DEFAULT_CASES)

    def test_cases_map_overrides_selectively(self):
        config = parse_config({"cases": {"ring-laws": 9}})
        assert config.count("ring-laws") == 9
        assert config.count("pairing") == DEFAULT_CASES["pairing"]

    def test_cases_validation(self):
        for bad in (0, -3, {"ring-laws": 0}, {"nope": 4}, {"ring-laws": True}, "4"):
            with pytest.raises(ConfigError):
                parse_config({"cases": bad})

    def test_degree_bound_validation(self):
        for bad in (-1, 7, True, "2"):
            with pytest.raises(ConfigError):
                parse_config({"degree_bound": bad})

    def test_dims_grid_validation(self):
        with pytest.raises(ConfigError):
            parse_config({"dims_grid": {"q": [1]}})
        with pytest.raises(ConfigError):
            parse_config({"dims_grid": {"n": []}})
        with pytest.raises(ConfigError):
            parse_config({"dims_grid": {"n": [5]}})
        with pytest.raises(ConfigError):
            parse_config({"dims_grid": {"algebras": []}})
        with pytest.raises(ConfigError, match="neither a preset"):
            parse_config({"dims_grid": {"algebras": ["septic"]}})

    def test_algebra_file_entries_resolve_relative_to_config(self, tmp_path):
        (tmp_path / "tiny.json").write_text(
            json.dumps({"variables": ["u"], "relations": [], "nilpotency": 2})
        )
        record = {"dims_grid": {"algebras": ["dual", {"file": "tiny.json"}]}}
        config = parse_config(record, base_dir=tmp_path)
        labels = [label for label, _ in config.algebras]
        assert labels == ["dual", "tiny"]
        assert config.algebras[1][1].dimension == 2

    def test_missing_algebra_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(
                {"dims_grid": {"algebras": [{"file": "absent.json"}]}},
                base_dir=tmp_path,
            )

    def test_load_default_config_file(self):
        config = load_config(REPO / "configs" / "default.json")
        assert config.seed == 7
        assert len(config.suites) == 11
        labels = [label for label, _ in config.algebras]
        assert labels[-1] == "cusp"
        assert config.algebras[-1][1].dimension == 7

    def test_load_config_io_errors(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(bad)


def collapse_composition(first, second):
    """A sabotaged `compose_domain_morphisms`: every composite is zero."""
    target = second.target
    zero = wpoly_zero(target.base_arity, target.weil)
    return DomainMorphism(
        first.source,
        target,
        [zero] * first.source.base_arity,
        [zero] * first.source.weil.nvars,
    )


def sabotaged_probe(cases):
    with mock.patch("weilkit.funcalg.compose_domain_morphisms", collapse_composition):
        (probe,) = run_suite(
            small_config(seed=13, suites=["conjecture-probe"], cases=cases)
        ).suites
    return probe


class TestRunSuite:
    def test_empty_suite_list_passes(self):
        config = small_config(suites=[])
        report = run_suite(config)
        assert report.suites == []
        assert report.total_failures == 0
        assert render_report(report).endswith("\n")

    def test_all_suites_pass_at_small_scale(self):
        report = run_suite(small_config(seed=11))
        assert [s.name for s in report.suites] == list(DEFAULT_CASES)
        assert report.total_failures == 0
        for suite in report.suites:
            assert suite.failures == len(suite.witnesses)

    def test_reports_are_deterministic_per_seed(self):
        a = render_report(run_suite(small_config(seed=23)))
        b = render_report(run_suite(small_config(seed=23)))
        c = render_report(run_suite(small_config(seed=24)))
        assert a == b
        assert a != c

    def test_ring_laws_track_distinct_algebras(self):
        report = run_suite(small_config(seed=3, suites=["ring-laws"], cases=12))
        (ring,) = report.suites
        assert ring.extra["distinct_algebras"] >= 2

    def test_probe_suite_labels_outcome(self):
        report = run_suite(small_config(seed=5, suites=["conjecture-probe"], cases=4))
        (probe,) = report.suites
        assert probe.extra["outcome"] == "evidence-for"
        assert probe.failures == 0

    def test_sabotaged_probe_suite_reports_counterexample(self):
        probe = sabotaged_probe(cases=6)
        assert probe.failures > 0
        assert probe.extra["outcome"] == "counterexample"

    def test_cases_do_not_depend_on_the_case_count(self):
        def first_three(probe):
            return [w for w in probe.witnesses if int(w["case"].rsplit(":", 1)[1]) < 3]

        three = first_three(sabotaged_probe(cases=3))
        assert three, "sabotage should fail one of the first three cases"
        assert first_three(sabotaged_probe(cases=6)) == three

    def test_wall_ms_is_pinned(self):
        record = run_suite(small_config(suites=[])).to_record()
        assert record["wall_ms"] == 0

    def test_witness_case_seed_replays_to_failure(self):
        # sabotage composition exactly as the probe sees it, snatch a
        # witness, then replay its recorded case seed: the same failing
        # data must come back
        def collapse(first, second):
            target = second.target
            zero = wpoly_zero(target.base_arity, target.weil)
            return DomainMorphism(
                first.source,
                target,
                [zero] * first.source.base_arity,
                [zero] * first.source.weil.nvars,
            )

        seed, suite = 13, "conjecture-probe"
        with mock.patch("weilkit.funcalg.compose_domain_morphisms", collapse):
            first_run = [
                probe_functoriality(
                    Euclidean(1), 32, samples=1,
                    rng=case_rng(seed, suite, i),
                    label=f"{seed}:{suite}:{i}",
                )
                for i in range(6)
            ]
            failing = [r for r in first_run if r.failures]
            assert failing, "sabotage should produce at least one failure"
            witness = failing[0].witnesses[0]
            _, _, index = witness["case"].split(":")
            replayed = probe_functoriality(
                Euclidean(1), 32, samples=1,
                rng=case_rng(seed, suite, int(index)),
                label=witness["case"],
            )
        assert replayed.failures == 1
        assert replayed.witnesses[0] == witness


def write_presentation(path, variables, relations, nilpotency):
    path.write_text(
        json.dumps(
            {
                "variables": variables,
                "relations": relations,
                "nilpotency": nilpotency,
            }
        )
    )


class TestCliCheck:
    def test_dual_presentation_summary(self, tmp_path, capsys):
        f = tmp_path / "dual.json"
        write_presentation(f, ["x"], [], 2)
        assert main(["check", str(f)]) == 0
        out = capsys.readouterr().out
        assert "dimension 2" in out
        assert "basis [1, x]" in out
        assert "order 2" in out

    def test_cusp_presentation(self, capsys):
        assert main(["check", str(REPO / "configs" / "cusp.json")]) == 0
        out = capsys.readouterr().out
        assert "dimension 7" in out

    def test_improper_ideal_exits_3(self, tmp_path, capsys):
        f = tmp_path / "unit.json"
        write_presentation(f, ["x"], ["x - 1"], 2)
        assert main(["check", str(f)]) == 3

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["check", str(tmp_path / "absent.json")]) == 2

    def test_malformed_json_exits_2(self, tmp_path):
        f = tmp_path / "broken.json"
        f.write_text("{")
        assert main(["check", str(f)]) == 2

    def test_oversized_presentation_exits_2_at_once(self, tmp_path, capsys):
        f = tmp_path / "huge.json"
        write_presentation(f, ["x"], ["x^2"], 100000)
        started = time.monotonic()
        assert main(["check", str(f)]) == 2
        assert time.monotonic() - started < 1.0
        err = capsys.readouterr().err
        assert err.startswith("error: presentation spans 100000 monomials")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("order", [1001, 4000000])
    def test_order_with_no_variables_exits_2_at_once(self, order, tmp_path, capsys):
        # one monomial spans every order with no variables; the order is
        # bounded on its own
        f = tmp_path / "point.json"
        write_presentation(f, [], [], order)
        started = time.monotonic()
        assert main(["check", str(f)]) == 2
        assert time.monotonic() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: nilpotency order {order} exceeds 1000\n"

    def test_huge_relation_exponent_exits_2(self, tmp_path, capsys):
        f = tmp_path / "tall.json"
        write_presentation(f, ["x"], ["x^100000000"], 3)
        assert main(["check", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: relation exponent 100000000 exceeds 1000\n"

    def test_boolean_nilpotency_exits_2(self, tmp_path, capsys):
        f = tmp_path / "bool.json"
        write_presentation(f, ["x"], ["x^2"], True)
        assert main(["check", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: nilpotency must be a positive integer\n"

    @pytest.mark.parametrize(
        "record",
        [
            {"variables": "xy", "relations": ["x"], "nilpotency": 3},
            {"variables": ["x", "y"], "relations": "x", "nilpotency": 3},
        ],
        ids=["variables", "relations"],
    )
    def test_string_instead_of_list_exits_2(self, record, tmp_path, capsys):
        f = tmp_path / "string.json"
        f.write_text(json.dumps(record))
        assert main(["check", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        field = "variables" if isinstance(record["variables"], str) else "relations"
        assert captured.err == f"error: {field} must be a list\n"

    @pytest.mark.parametrize("name", ["x y", "2x", "x-y"])
    def test_unreadable_variable_name_exits_2(self, name, tmp_path, capsys):
        f = tmp_path / "names.json"
        write_presentation(f, [name], [], 2)
        assert main(["check", str(f)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: variables must be names the relation grammar reads")
        assert len(captured.err.splitlines()) == 1

    def test_any_other_weilkit_error_exits_3(self, monkeypatch, capsys):
        def fail(args):
            raise WeilkitError("no such thing")

        monkeypatch.setattr(cli, "cmd_check", fail)
        assert main(["check", "unused.json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no such thing\n"

    def test_console_module_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weilkit.cli", "check",
             str(REPO / "configs" / "cusp.json")],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0
        assert "dimension 7" in proc.stdout

    def test_package_module_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "weilkit", "check", str(REPO / "configs" / "cusp.json")],
            capture_output=True,
            text=True,
            env=CHILD_ENV,
        )
        assert proc.returncode == 0, proc.stderr
        assert "dimension 7" in proc.stdout


def run_with_closed_stdout(*argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run(
            [sys.executable, "-m", "weilkit", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=CHILD_ENV,
        )
    finally:
        os.close(write_end)


class TestClosedStdout:
    def test_check_exits_2_without_traceback(self):
        proc = run_with_closed_stdout("check", str(REPO / "configs" / "cusp.json"))
        assert proc.returncode == 2
        assert proc.stderr == "error: standard output is closed\n"

    def test_verify_writes_its_report_and_does_not_exit_1(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"suites": ["pairing"], "seed": 3, "cases": 1}))
        out = tmp_path / "report.json"
        proc = run_with_closed_stdout("verify", "--config", str(config), "--out", str(out))
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[-1] == "error: standard output is closed"
        assert "Traceback" not in proc.stderr
        assert json.loads(out.read_text())["suites"][0]["failures"] == 0


class TestCliLift:
    def test_square_at_three_over_dual(self, capsys):
        assert main(["lift", "--algebra", "dual", "--expr", "t^2", "--at", "3"]) == 0
        out = capsys.readouterr().out
        assert "mode rational" in out
        assert "f0 = 9 + 6*x" in out

    def test_gradient_over_d2(self, capsys):
        assert main(["lift", "--algebra", "d2", "--expr", "x*y", "--at", "2,5"]) == 0
        out = capsys.readouterr().out
        assert "f0 = 10 + 2*y + 5*x" in out

    def test_float_fallback(self, capsys):
        assert main(["lift", "--algebra", "dual", "--expr", "exp(t)", "--at", "1"]) == 0
        out = capsys.readouterr().out
        assert "mode real" in out
        assert "2.718281828459045" in out

    def test_negative_base_point_after_at(self, capsys):
        # a list that opens with a negative number is the value of --at
        assert main(["lift", "--algebra", "d2", "--expr", "x*y", "--at", "-1,2"]) == 0
        assert capsys.readouterr().out == "mode rational\nf0 = -2 - y + 2*x\n"
        assert main(["lift", "--algebra", "d2", "--expr", "x*y", "--at", "-1/2,3"]) == 0
        assert capsys.readouterr().out == "mode rational\nf0 = -3/2 - 1/2*y + 3*x\n"

    def test_expression_that_opens_with_a_minus_sign(self, capsys):
        assert main(["lift", "--algebra", "dual", "--expr", "-t", "--at", "1"]) == 0
        assert capsys.readouterr().out == "mode rational\nf0 = -1 - x\n"

    def test_wrong_coordinate_count(self):
        assert main(["lift", "--algebra", "d2", "--expr", "x + y", "--at", "1"]) == 2

    def test_bad_rational(self):
        assert main(["lift", "--algebra", "dual", "--expr", "t", "--at", "a"]) == 2

    def test_unknown_algebra(self):
        assert main(["lift", "--algebra", "sextic", "--expr", "t", "--at", "0"]) == 2

    @pytest.mark.parametrize("at", ["1e4301", "-1e-5000", "2,1E+3000000"])
    @pytest.mark.parametrize("command", ["lift", "derive"])
    def test_huge_base_point_exponent_exits_2_at_once(self, command, at, capsys):
        # Fraction would compute 10**E first, with no bound on E
        flags = ["--algebra", "d2"] if command == "lift" else ["--order", "2"]
        started = time.monotonic()
        assert main([command, *flags, "--expr", "x" if command == "lift" else "t", "--at", at]) == 2
        assert time.monotonic() - started < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: exponent of base point ")
        assert captured.err.endswith(" exceeds 4300 in absolute value\n")
        assert len(captured.err.splitlines()) == 1

    def test_base_point_with_an_exponent_at_the_bound_lifts(self, capsys):
        assert main(["lift", "--algebra", "dual", "--expr", "t", "--at", "1e3"]) == 0
        assert capsys.readouterr().out == "mode rational\nf0 = 1000 + x\n"
        assert main(["derive", "--order", "1", "--expr", "t", "--at", "-1E-2"]) == 0
        assert capsys.readouterr().out == "0: -1/100\n1: 1\n"
        # 10**4300 is read, and has one digit too many to print
        assert main(["lift", "--algebra", "dual", "--expr", "t", "--at", "1e4300"]) == 3
        assert "too many digits to print" in capsys.readouterr().err

    def test_domain_error_exits_3(self):
        assert main(["lift", "--algebra", "dual", "--expr", "log(t)", "--at", "0"]) == 3

    @pytest.mark.parametrize(
        "expr_arg",
        ["--expr=" + "(" * 1200 + "t" + ")" * 1200, "--expr=" + "-" * 2000 + "t"],
    )
    def test_deep_nesting_exits_2(self, expr_arg, capsys):
        assert main(["lift", "--algebra", "dual", expr_arg, "--at", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: expression nested deeper than")
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize(
        "expr, message",
        [
            # a superscript digit is a digit to str.isdigit, not to int()
            ("t\u00b2", "error: unknown name 't\u00b2'"),
            # more digits than int() converts
            ("t" + "1" * 5000, "error: variable index too long (at position 0)"),
        ],
        ids=["superscript-index", "long-index"],
    )
    def test_unreadable_variable_index_exits_2(self, expr, message, capsys):
        assert main(["lift", "--algebra", "dual", "--expr", expr, "--at", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(message) and captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_too_many_nodes_exits_2(self, capsys):
        # a sum of n terms has 2n - 1 nodes
        terms = MAX_NODES // 2 + 1
        argv = ["lift", "--algebra", "dual", "--expr", "+".join(["t"] * terms), "--at", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: expression has more than {MAX_NODES} nodes")
        assert len(captured.err.splitlines()) == 1 and captured.out == ""

    def test_huge_exponent_exits_2_at_once(self, capsys):
        started = time.monotonic()
        assert main(["lift", "--algebra", "dual", "--expr", "t^1000000", "--at", "1"]) == 2
        assert time.monotonic() - started < 0.5
        err = capsys.readouterr().err
        assert err.startswith("error: exponent 1000000 exceeds 1000")
        assert len(err.splitlines()) == 1

    def test_result_too_long_to_print_exits_3(self, capsys):
        argv = ["lift", "--algebra", "dual", "--expr", "(1+t)^1000", "--at", "12345678"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("error: a result has a number with too many digits")
        assert "Traceback" not in captured.err and len(captured.err.splitlines()) == 1
        assert "f0" not in captured.out


    @pytest.mark.parametrize(
        "argv",
        [
            ["lift", "--algebra", "dual", "--expr", "exp(t)^1000", "--at", "1"],
            ["lift", "--algebra", "dual", "--expr", "exp(t)^1000/exp(t)^1000", "--at", "1"],
            ["derive", "--order", "3", "--expr", "exp(t)^400", "--at", "2"],
            ["lift", "--algebra", "dual", "--expr", "sin(t)", "--at", "1e400"],
        ],
    )
    def test_values_outside_float_range_exit_3(self, argv, capsys):
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "out of float range" in captured.err
        assert len(captured.err.splitlines()) == 1


class TestCliDerive:
    @pytest.mark.parametrize("at", ["-3/2", "-1.5", "-.5"])
    def test_negative_base_point_after_at(self, at, capsys):
        assert main(["derive", "--order", "2", "--expr", "1/t", "--at", at]) == 0
        base = Fraction(at)
        expected = [1 / base, -1 / base**2, 2 / base**3]
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"{j}: {value}" for j, value in enumerate(expected)]

    def test_missing_base_point_is_still_a_usage_error(self, capsys):
        assert main(["derive", "--order", "2", "--expr", "t", "--at"]) == 2
        assert "expected one argument" in capsys.readouterr().err

    def test_expression_that_opens_with_a_minus_sign(self, capsys):
        assert main(["derive", "--order", "2", "--expr", "-t^2", "--at", "1"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0: -1", "1: -2", "2: -2"]

    @pytest.mark.parametrize("argv", [["--expr"], ["--expr", "--at", "1"], ["--expr", "-h"]])
    def test_missing_expression_is_still_a_usage_error(self, argv, capsys):
        assert main(["derive", "--order", "2", *argv]) == 2
        assert "argument --expr: expected one argument" in capsys.readouterr().err

    def test_exponential_table(self, capsys):
        assert main(["derive", "--order", "3", "--expr", "exp(t)", "--at", "0"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["0: 1", "1: 1", "2: 1", "3: 1"]

    def test_square_at_three(self, capsys):
        assert main(["derive", "--order", "2", "--expr", "t^2", "--at", "3"]) == 0
        assert capsys.readouterr().out.splitlines() == ["0: 9", "1: 6", "2: 2"]

    def test_float_mode_table(self, capsys):
        assert main(["derive", "--order", "1", "--expr", "exp(t)", "--at", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("0: 2.71828")

    def test_log_at_zero_exits_3(self):
        assert main(["derive", "--order", "2", "--expr", "log(t)", "--at", "0"]) == 3

    def test_order_guard(self):
        assert main(["derive", "--order", "13", "--expr", "t", "--at", "0"]) == 2
        assert main(["derive", "--order", "0", "--expr", "t", "--at", "0"]) == 2

    @pytest.mark.parametrize("order", ["0", "13"])
    def test_order_guard_says_why_on_one_line(self, order, capsys):
        assert main(["derive", "--order", order, "--expr", "t", "--at", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --order must be between 1 and 12\n"

    def test_tuple_expression_rejected(self):
        assert main(["derive", "--order", "2", "--expr", "(t, t)", "--at", "0"]) == 2


class TestCliEquiv:
    def test_equivalent_over_dual(self, capsys):
        assert main(["equiv", "--algebra", "dual", "--f", "sin(t)", "--g", "t"]) == 0
        assert "equivalent" in capsys.readouterr().out

    def test_maps_that_open_with_a_minus_sign(self, capsys):
        assert main(["equiv", "--algebra", "dual", "--f", "-t", "--g", "-sin(t)"]) == 0
        assert capsys.readouterr().out.strip() == "equivalent"

    def test_inequivalent_over_jet3(self, capsys):
        assert main(["equiv", "--algebra", "jet3", "--f", "sin(t)", "--g", "t"]) == 1
        out = capsys.readouterr().out
        assert "component 0" in out
        assert "-1/6*t^3" in out

    def test_improper_algebra_file_exits_3(self, tmp_path):
        f = tmp_path / "unit.json"
        write_presentation(f, ["x"], ["x - 1"], 2)
        assert main(["equiv", "--algebra", str(f), "--f", "x", "--g", "x"]) == 3


class TestCliVerify:
    def write_config(self, tmp_path, **overrides):
        record = {
            "suites": ["ring-laws", "pairing"],
            "seed": 21,
            "cases": {"ring-laws": 4, "pairing": 2},
        }
        record.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(record))
        return path

    def test_passing_run_writes_report(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 0
        record = json.loads(out.read_text())
        assert record["seed"] == 21
        assert record["wall_ms"] == 0
        assert [s["name"] for s in record["suites"]] == ["ring-laws", "pairing"]
        stdout = capsys.readouterr().out
        assert "report written to" in stdout

    def test_reports_byte_identical_across_runs(self, tmp_path):
        config = self.write_config(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["verify", "--config", str(config), "--out", str(out1)])
        main(["verify", "--config", str(config), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_changes_report(self, tmp_path):
        config = self.write_config(tmp_path)
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        main(["verify", "--config", str(config), "--out", str(out1)])
        main(["verify", "--config", str(config), "--out", str(out2), "--seed", "99"])
        assert out1.read_bytes() != out2.read_bytes()
        assert json.loads(out2.read_text())["seed"] == 99

    def test_config_error_exits_2(self, tmp_path):
        config = self.write_config(tmp_path, suites=["made-up"])
        assert main(["verify", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2

    def test_huge_relation_exponent_exits_2_at_once(self, tmp_path, capsys):
        write_presentation(tmp_path / "tall.json", ["x"], ["x^100000000"], 3)
        config = self.write_config(tmp_path, dims_grid={"algebras": [{"file": "tall.json"}]})
        started = time.monotonic()
        assert main(["verify", "--config", str(config), "--out", str(tmp_path / "r.json")]) == 2
        assert time.monotonic() - started < 1.0
        err = capsys.readouterr().err
        assert "relation exponent 100000000 exceeds 1000" in err
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "r.json").exists()

    def test_unwritable_report_path_exits_2(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        out = tmp_path / "absent" / "report.json"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write report to {out}")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    def test_unwritable_report_path_exits_2_before_any_suite(
        self, tmp_path, capsys, monkeypatch
    ):
        def never(config):
            raise AssertionError("a suite ran before the report path was checked")

        monkeypatch.setitem(REGISTRY, "ring-laws", never)
        config = self.write_config(tmp_path, suites=["ring-laws"])
        for out in (tmp_path / "absent" / "report.json", tmp_path):
            assert main(["verify", "--config", str(config), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: cannot write report to {out}")
            assert len(err.splitlines()) == 1

    def test_float_overflow_exits_3(self, tmp_path, capsys):
        # at seed 3 a real-mode lift in lifting-laws leaves the float range
        config = REPO / "configs" / "default.json"
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(config), "--seed", "3", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: exp Taylor coefficients")
        assert "Traceback" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("suite", list(DEFAULT_CASES))
    def test_zero_variable_algebra_in_the_grid(self, suite, tmp_path, capsys):
        # the real line itself: no monomial of degree 1 to draw into a
        # morphism, no ideal generator to plant into a map
        write_presentation(tmp_path / "point.json", [], [], 1)
        config = self.write_config(
            tmp_path,
            suites=[suite],
            seed=7,
            cases={},
            dims_grid={"algebras": [{"file": "point.json"}, "dual"]},
        )
        out = tmp_path / "report.json"
        code = main(["verify", "--config", str(config), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if suite in ("morphism-laws", "naturality", "functor-actions", "product-preservation"):
            assert code in (0, 1)
            assert json.loads(out.read_text())["suites"][0]["name"] == suite
        else:
            # lifting-laws may leave the float range here and exit 3
            assert code in (0, 1, 3)

    def test_failures_exit_1(self, tmp_path, monkeypatch):
        def failing(config):
            report = SuiteReport("ring-laws")
            report.record_case(False, {"case": "planted"})
            return report

        monkeypatch.setitem(REGISTRY, "ring-laws", failing)
        config = self.write_config(tmp_path, suites=["ring-laws"])
        out = tmp_path / "report.json"
        assert main(["verify", "--config", str(config), "--out", str(out)]) == 1
        record = json.loads(out.read_text())
        assert record["suites"][0]["failures"] == 1
        assert record["suites"][0]["witnesses"] == [{"case": "planted"}]


class TestCliUsage:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()


class TestUnreadableFiles:
    """A presentation or config file that is no UTF-8 JSON, or whose JSON
    nests past the decoder's depth, exits 2 with one line naming it."""

    CONTENTS = {"not-utf-8": b"\xff\xfe{}", "too-deep": b"[" * 100000}

    def run(self, argv, capsys):
        code = main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("content", list(CONTENTS))
    @pytest.mark.parametrize(
        "command",
        [
            ["check", "{path}"],
            ["lift", "--algebra", "{path}", "--expr", "x", "--at", "0"],
            ["equiv", "--algebra", "{path}", "--f", "x", "--g", "x"],
            ["verify", "--config", "{path}", "--out", "{out}"],
        ],
        ids=["check", "lift", "equiv", "verify"],
    )
    def test_exits_2_on_one_line(self, command, content, tmp_path, capsys):
        path = tmp_path / "file.json"
        path.write_bytes(self.CONTENTS[content])
        argv = [arg.format(path=path, out=tmp_path / "r.json") for arg in command]
        code, err = self.run(argv, capsys)
        assert code == 2
        assert err.startswith("error: ") and str(path) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("content", list(CONTENTS))
    def test_config_algebra_file_exits_2_on_one_line(self, content, tmp_path, capsys):
        (tmp_path / "algebra.json").write_bytes(self.CONTENTS[content])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dims_grid": {"algebras": [{"file": "algebra.json"}]}}))
        out = tmp_path / "r.json"
        code, err = self.run(["verify", "--config", str(config), "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: could not load algebra from ") and "algebra.json" in err
        assert len(err.splitlines()) == 1

    def test_integer_past_the_digit_limit_exits_2(self, tmp_path, capsys):
        path = tmp_path / "wide.json"
        path.write_text('{"variables": [], "relations": [], "nilpotency": ' + "1" * 5000 + "}")
        code, err = self.run(["check", str(path)], capsys)
        assert code == 2 and str(path) in err and len(err.splitlines()) == 1

    def test_name_too_long_to_look_up_is_no_file(self, tmp_path, capsys):
        name = "a" * 5000
        code, err = self.run(["lift", "--algebra", name, "--expr", "t", "--at", "0"], capsys)
        assert code == 2 and "nor an existing presentation file" in err
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"dims_grid": {"algebras": [name]}}))
        out = tmp_path / "r.json"
        code, err = self.run(["verify", "--config", str(config), "--out", str(out)], capsys)
        assert code == 2 and "is neither a preset nor an existing file" in err


# --- fuzzing `weilkit lift --expr` over the expression grammar ---------------
#
# Powers sit on leaves only, plus one exponent of any size on the whole
# text.  Exact numbers have no size bound, and nested powers grow past
# any time bound: on a 2-vCPU host, ((2^1000)^1000)^300 takes about 2 s
# and 140 MB before it exits 3, and each further ^1000 multiplies the
# size of the number by 1000.

_LEAF = st.sampled_from(["t", "x", "y", "t0", "t1", "t12", "0", "1", "2", "7", "1/3", "١"])
_POWERED_LEAF = st.tuples(_LEAF, st.integers(-3, 3)).map(lambda p: f"{p[0]}^{p[1]}")


def _compound(kids):
    return st.one_of(
        st.tuples(kids, st.sampled_from(["+", "-", "*", "/"]), kids).map(" ".join),
        kids.map(lambda k: f"-{k}"),
        kids.map(lambda k: f"({k})"),
        st.tuples(st.sampled_from(["sin", "cos", "exp", "log", "sqrt"]), kids).map(
            lambda c: f"{c[0]}({c[1]})"
        ),
    )


_WELL_FORMED = st.recursive(st.one_of(_LEAF, _POWERED_LEAF), _compound, max_leaves=8)
_TOKEN_SOUP = st.lists(
    st.sampled_from(
        ["t", "x", "1", "12", "+", "-", "*", "/", "^", "^-", "(", ")", ",", "sin(", "exp(",
         " ", "\xa0", "\t", "١", "²", "é", "_", ".", "z", "t" + "1" * 5000]
    ),
    max_size=12,
).map("".join)
_EXPRESSIONS = st.one_of(
    _WELL_FORMED,
    st.tuples(_WELL_FORMED, st.integers(-1000, 1000)).map(lambda p: f"({p[0]})^{p[1]}"),
    st.lists(_WELL_FORMED, min_size=2, max_size=3).map(lambda outs: "(" + ", ".join(outs) + ")"),
    _TOKEN_SOUP,
)
_POINTS = st.sampled_from(["0", "1", "-1", "1/2", "-3/7", "12345678", "2,5", "١", "1/0", "x", ""])


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(["dual", "jet2", "jet3", "d2"]), _EXPRESSIONS, _POINTS)
def test_lift_fuzz_ends_in_an_exit_code(algebra, expr, at):
    out, err = io.StringIO(), io.StringIO()
    started = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["lift", "--algebra", algebra, "--expr", expr, "--at", at])
    assert time.monotonic() - started < 5.0
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue().startswith("mode ") and err.getvalue() == ""
    else:
        assert err.getvalue().startswith(("error: ", "usage: ")) and len(err.getvalue().splitlines()) <= 3


# --- fuzzing presentation and config files ----------------------------------


def _run_quietly(argv):
    """main's exit code and stderr, with stdout thrown away."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _cut(documents):
    """A JSON document cut short, or whole when the cut is past its end."""
    return st.tuples(documents, st.integers(0, 1000)).map(lambda p: p[0][: p[1]].encode())


_JSON_VALUES = st.sampled_from(
    [None, True, 0, -1, 3, 2.5, 10**30, "x", "", "x^2", [], ["x"], [1], {}, {"x": 1}]
)
# brackets opened past the JSON decoder's depth, never closed
_TOO_DEEP = st.tuples(
    st.sampled_from(['{"dims_grid": ', "[", '{"a": [']), st.integers(1, 100000)
).map(lambda p: (p[0] * p[1]).encode())
_RELATION_SOUP = st.lists(
    st.sampled_from(
        ["x", "y", "x1", "θ", "²x", "2", "12", "٣", "²", "0", "9" * 5000,
         "+", "-", "*", "/", "^", "(", ")", " ", "\xa0", "\t", "1000", "1001", "100000000"]
    ),
    max_size=10,
).map("".join)
_PRESENTATIONS = st.one_of(
    st.fixed_dictionaries(
        {
            "variables": st.sampled_from([[], ["x"], ["x", "y"], ["x", "x1", "θ"]]),
            "relations": st.lists(_RELATION_SOUP, max_size=3),
            "nilpotency": st.integers(1, 6),
        }
    ),
    # wrong field types, and fields left out
    st.fixed_dictionaries(
        {},
        optional={
            "variables": st.one_of(_JSON_VALUES, st.lists(_JSON_VALUES, max_size=3)),
            "relations": st.one_of(_JSON_VALUES, st.lists(_JSON_VALUES, max_size=3)),
            "nilpotency": _JSON_VALUES,
        },
    ),
).map(json.dumps)


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        _PRESENTATIONS.map(str.encode), st.binary(max_size=64), _cut(_PRESENTATIONS), _TOO_DEEP
    )
)
def test_presentation_file_fuzz_ends_in_an_exit_code(tmp_path_factory, content):
    path = tmp_path_factory.mktemp("presentation") / "algebra.json"
    path.write_bytes(content)
    started = time.monotonic()
    code, err = _run_quietly(["check", str(path)])
    assert time.monotonic() - started < 5.0
    assert code in (0, 2, 3)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and "Traceback" not in err


# every config has one field that fails validation, so no suite runs
_BAD_CONFIGS = st.tuples(
    st.fixed_dictionaries(
        {},
        optional={
            "suites": st.one_of(_JSON_VALUES, st.just(["ring-laws"])),
            "seed": st.one_of(_JSON_VALUES, st.just(2**64)),
            "cases": st.one_of(_JSON_VALUES, st.just({"pairing": 0})),
            "degree_bound": st.one_of(_JSON_VALUES, st.just(7)),
            "dims_grid": st.one_of(
                _JSON_VALUES,
                st.fixed_dictionaries({"algebras": st.lists(_JSON_VALUES, max_size=2)}),
            ),
        },
    ),
    st.sampled_from(
        [("suites", ["made-up"]), ("seed", -1), ("cases", 0), ("degree_bound", "2"),
         ("dims_grid", {"n": []}), ("dims_grid", {"algebras": "dual"}), ("sutes", [])]
    ),
).map(lambda p: json.dumps({**p[0], p[1][0]: p[1][1]}))


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        _BAD_CONFIGS.map(str.encode),
        # a config is a JSON object, which opens with '{'
        st.binary(max_size=64).filter(lambda content: not content.lstrip().startswith(b"{")),
        _cut(_BAD_CONFIGS),
        _TOO_DEEP,
    )
)
def test_config_file_fuzz_exits_2(tmp_path_factory, content):
    directory = tmp_path_factory.mktemp("config")
    config, out = directory / "config.json", directory / "report.json"
    config.write_bytes(content)
    with mock.patch.object(cli, "run_suite", side_effect=AssertionError("a suite ran")):
        code, err = _run_quietly(["verify", "--config", str(config), "--out", str(out)])
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
