"""The tracer sees every call it claims to time.

Run with ``python3 -m pytest perfbench/tests``.  Takes about 15 s.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from tracer import COUNTED, NAMED_ON, SPANS, Tracer, _resolve
from workloads import GOLDEN_SEED, GOLDEN_SHA256, JetLift, Lib

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent


@pytest.fixture(scope="module")
def lib():
    return Lib(ROOT).load()


def _weilkit_bindings():
    """(owner, name, object) for every module attribute, class attribute
    and module-level dict value in the weilkit package."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "weilkit" or mod_name.startswith("weilkit.")):
            continue
        for attr, value in vars(module).items():
            yield module, attr, value
            if isinstance(value, type) and value.__module__.startswith("weilkit"):
                for cattr, cvalue in vars(value).items():
                    yield value, cattr, cvalue
            elif isinstance(value, dict):
                for key, item in value.items():
                    yield value, key, item


def _fired(metrics: dict, name: str) -> bool:
    if name in SPANS:
        return metrics[f"{name}.calls"] > 0
    return metrics[name] > 0


def _named_on(workload: str):
    return sorted(name for name, where in NAMED_ON.items() if where == workload)


def test_install_rebinds_every_name_and_uninstall_restores(lib):
    originals = {}
    for module, path in list(SPANS.values()) + list(COUNTED.values()):
        _, _, original = _resolve(module, path)
        originals[id(original)] = original

    def still_original():
        return [(o, a) for o, a, v in _weilkit_bindings() if id(v) in originals and originals[id(v)] is v]

    before = still_original()
    # tensor alone is bound in algebras, lifting, funcalg and the package
    assert sum(1 for _, a in before if a == "tensor") >= 4
    with Tracer():
        assert still_original() == []
    assert still_original() == before


def test_named_spans_fire_on_jet_lift(lib):
    ops = JetLift(lib, seed=3).first_pass
    with Tracer() as tracer:
        for op in ops:
            assert op.check(op.run()) is None, op.label
    metrics = tracer.summary()["metrics"]
    silent = [name for name in _named_on("jet-lift") if not _fired(metrics, name)]
    assert silent == []


def test_traced_verify_fires_named_spans_and_keeps_golden_report():
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "verify-pass",
         "--config-seed", str(GOLDEN_SEED), "--trace"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["sha256"] == GOLDEN_SHA256
    assert all(op["error"] is None and op["failures"] == 0 for op in result["ops"])
    metrics = result["trace"]["metrics"]
    silent = [name for name in _named_on("verify-default") if not _fired(metrics, name)]
    assert silent == []


def test_traced_and_untraced_jet_lift_agree(lib):
    workload = JetLift(lib, seed=5)
    ops = workload.ops(1)
    plain = [op.run()[1] for op in ops]
    with Tracer():
        traced = [op.run()[1] for op in ops]
    assert [(v.mode, v.coords) for v in traced] == [(v.mode, v.coords) for v in plain]
