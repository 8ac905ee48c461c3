"""Work the benchmark runs in a fresh interpreter; prints one JSON line.

    python3 perfbench/child.py verify-pass --config-seed N [--suite NAME] [--trace]
        one pass of verify-default: configs/default.json at seed N, run
        one suite per op, then the 11 reports assembled and rendered;
        with --suite, that suite alone
    python3 perfbench/child.py setup --seed N
        set-up of jet-lift, timed from the first import
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracer import Tracer
from workloads import JetLift, Lib, import_weilkit

ROOT = Path(__file__).resolve().parent.parent


def verify_pass(config_seed: int, suite: str | None, trace: bool) -> dict:
    start = perf_counter()
    wk = import_weilkit(ROOT)
    config = wk.load_config(ROOT / "configs" / "default.json")
    config = dataclasses.replace(config, seed=config_seed, suites=(suite,) if suite else config.suites)
    setup_s = perf_counter() - start

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    ops = []
    reports = []
    pass_start = perf_counter_ns()
    for name in config.suites:
        op_start = perf_counter_ns()
        error = None
        failures = 0
        try:
            report = wk.run_suite(dataclasses.replace(config, suites=(name,)))
        except Exception as exc:  # a crashing suite is a failed op; the pass goes on
            error = f"{type(exc).__name__}: {exc}"
        else:
            reports.extend(report.suites)
            failures = report.total_failures
        ops.append(
            {"suite": name, "ns": perf_counter_ns() - op_start, "failures": failures, "error": error}
        )
    text = wk.render_report(wk.Report(seed=config.seed, suites=reports))
    run_ns = perf_counter_ns() - pass_start
    if tracer is not None:
        tracer.uninstall()
    return {
        "config_seed": config_seed,
        "setup_s": setup_s,
        "run_s": run_ns / 1e9,
        "ops": ops,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
        "trace": tracer.summary() if tracer is not None else None,
    }


def setup(seed: int) -> dict:
    start = perf_counter()
    JetLift(Lib(ROOT).load(), seed)
    return {"setup_s": perf_counter() - start}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    p_verify = sub.add_parser("verify-pass")
    p_verify.add_argument("--config-seed", type=int, required=True)
    p_verify.add_argument("--suite")
    p_verify.add_argument("--trace", action="store_true")
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if args.mode == "verify-pass":
        result = verify_pass(args.config_seed, args.suite, args.trace)
    else:
        result = setup(args.seed)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
