"""The benchmark's own targets and checks, run from the tier-1 tests.

``perfbench/spans.py`` names its targets as (span, module, attribute or
``Class.method``, hook).  A renamed or deleted target would otherwise
fail only the benchmark's smoke run; this reads the list and resolves
each entry the way the tracer does, without installing it.

``perfbench/workloads.py`` checks each pass of a workload.  The
green-ladder checks run here on whole passes, so a wrong Green's kernel
fails tier-1 and not only the benchmark.

``perfbench/layers.py`` calls library functions positionally, and only
traced runs reach it; its measurements run here on small inputs, so a
changed signature fails tier-1 too.
"""

import importlib
import importlib.util
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"
WORKLOADS = PERFBENCH / "workloads.py"
LAYERS = PERFBENCH / "layers.py"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    spans = _load("perfbench_spans", SPANS)
    missing = []
    for name, modname, attr, _ in spans.TARGETS:
        mod = importlib.import_module(f"fermifields.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            ok = cls is not None and meth in vars(cls)
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append(f"{name}: fermifields.{modname}.{attr}")
    assert spans.TARGETS and not missing


@pytest.mark.parametrize("seed,inputs", [(1, ("1/2", "3/4", "1")),
                                         (3, ("3/2", "1", "1")),
                                         (9, ("1", "2/3", "1"))])
def test_green_ladder_pass_reports_no_problem(seed, inputs, tmp_path):
    """One whole green-ladder pass, every rung 4x3 .. 10x4, at three
    masses and three (dt, dx) pairs: each of its operations passes the
    workload's own check."""
    workloads = _load("perfbench_workloads", WORKLOADS)
    ladder = workloads.GreenLadder(seed, False, tmp_path)
    assert tuple(map(str, (ladder.m, ladder.dt, ladder.dx))) == inputs
    results = ladder.check(ladder.run())
    assert len(results) == 4 * len(workloads.RUNGS)
    assert [(op, problem) for op, problem in results if problem is not None] == []


def test_layer_measurements_run():
    """The scalar micro-benchmark and the raw-wedge and float-bracket
    batches run, and each returns finite float timings."""
    layers = _load("perfbench_layers", LAYERS)
    got = {**layers.scalar_micro(1, 200), **layers.core_measurements(1, 4, 2)}
    assert "dynamics.bracket_batch_s" in got and "scalars.qc_mul_us" in got
    assert all(type(v) is float and math.isfinite(v) for v in got.values()), got
