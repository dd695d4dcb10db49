"""Smoke test of the benchmark harness.

Runs every workload at its smallest size, untraced (through
``--workload all``) and traced.  Checks that each metric
``BENCHMARK.json`` names is emitted with its unit, that the per-layer
counts land on the layers each workload is meant to stress or bypass,
and that the harness refuses to run without the package sources.  Not
part of the tier-1 suite (it takes about a minute):

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.fixture(scope="module")
def results():
    # untraced: the single command that runs every workload in turn
    proc = _run(ROOT, "all", 0)
    assert proc.returncode == 0, proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("{")]
    assert len(lines) == len(WORKLOADS)
    out = {(w, 0): json.loads(ln) for w, ln in zip(WORKLOADS, lines)}
    for workload in WORKLOADS:
        proc = _run(ROOT, workload, 1)
        assert proc.returncode == 0, proc.stderr
        out[workload, 1] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_emitted_with_unit(results, workload, trace):
    res = results[workload, trace]
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
    if not trace:
        assert all(got["value"] > 0 for got in res["metrics"].values())


def _layer(results, workload, name):
    return results[workload, 1]["metrics"][name]["value"]


def test_layers_land_where_the_workloads_say(results):
    # green-ladder: rational kernels only, no Grassmann algebra
    assert _layer(results, "green-ladder", "lattice.dirac_green.4x3.retarded_s") > 0
    assert _layer(results, "green-ladder", "linalg.mat_inv.calls") > 0
    for name in ("core.wedge_terms.calls", "quantization.star_product.calls",
                 "verify.checks"):
        assert _layer(results, "green-ladder", name) == 0
    # float-cli: element kernels and CLI, no verify battery
    assert _layer(results, "float-cli", "kernels.compose.entries_out") > 0
    assert _layer(results, "float-cli", "cli.gn-series_s") > 0
    assert _layer(results, "float-cli", "verify.checks") == 0
    # battery: the verify suites (at smoke size without moller and quant)
    assert _layer(results, "battery", "verify.checks") > 0
    assert _layer(results, "battery", "verify.suite.gn_s") > 0
    assert _layer(results, "battery", "cli.propagators_s") == 0
    for workload in WORKLOADS:
        assert _layer(results, workload, "scalars.qc_mul_us") > 0
        assert _layer(results, workload, "core.raw_wedge_s") > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
