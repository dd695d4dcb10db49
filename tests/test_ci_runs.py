"""The table of the CI's runs, ``tools/ci_runs.py``, checked without running it.

Every run's config must load, so a typo fails tier-1 and not only the CI.
The float-against-rational comparison that fails the CI's job runs here
on small tables.
"""

import dataclasses
import importlib.util

import pytest

from fermifields.cli import COMMANDS
from fermifields.config import load_config


def _config(run, tmp_path):
    return load_config(run.write_config(tmp_path / run.name))


def test_every_run_loads_and_runs_cli_commands(ci_runs, tmp_path):
    """Each run's config passes ``load_config``, its commands are CLI
    commands, and each pinned output lies under one of them."""
    assert len(ci_runs.BY_NAME) == len(ci_runs.RUNS) == 8
    for run in ci_runs.RUNS:
        _config(run, tmp_path)
        assert set(run.commands) <= set(COMMANDS), run.name
        assert {rel.split("/")[0] for rel in run.sha256} <= set(run.commands), run.name
    assert sum(len(run.sha256) for run in ci_runs.RUNS) == 29


def test_each_float_shadow_has_its_rational_twin(ci_runs, tmp_path):
    """A float run's twin exists, differs from it only in the arithmetic,
    and both run every command whose tables are compared."""
    compared = {table.split("/")[0] for table, _, _ in ci_runs.SHADOWED}
    shadows = [run for run in ci_runs.RUNS if run.shadows]
    assert shadows
    for run in shadows:
        twin = ci_runs.BY_NAME[run.shadows]
        exact, approx = _config(twin, tmp_path), _config(run, tmp_path)
        assert exact.arithmetic == "rational" and approx.arithmetic == "float"
        assert dataclasses.replace(exact, arithmetic="float") == approx
        assert compared <= set(twin.commands) and compared <= set(run.commands)


def test_reachability_traces_the_table(ci_runs):
    spec = importlib.util.spec_from_file_location(
        "reachability", ci_runs.ROOT / "tools" / "reachability.py")
    reachability = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reachability)
    assert reachability.RUNS is ci_runs.RUNS


KERNEL = "row,col,re,im\n0,1,0.25,-0.5\n2,0,1.0,0.0\n"
SERIES = ("observable,order,coefficient_max_abs,homomorphism_residual,truncated\n"
          "field,0,1.0,0.0,False\nfield,1,0.125,0.0,True\n")


@pytest.mark.parametrize("table,exact,approx,passed", [
    # within 1e-12 relative, and a skipped column that differs
    ("propagators/free_causal.csv", KERNEL,
     "row,col,re,im\n0,1,0.25000000000000006,-0.5\n2,0,1.0,1e-13\n", True),
    ("gn-series/gn_moller_series.csv", SERIES,
     SERIES.replace("1,0.125,0.0", "1,0.12500000000000003,1e-17"), True),
    # a gap beyond 1e-12
    ("propagators/free_causal.csv", KERNEL,
     "row,col,re,im\n0,1,0.25,-0.5\n2,0,1.0,1e-11\n", False),
    ("gn-series/gn_moller_series.csv", SERIES,
     SERIES.replace("1,0.125", "1,0.1250000000002"), False),
    # a (row, col) entry, or a key column, that differs
    ("propagators/free_causal.csv", KERNEL,
     "row,col,re,im\n0,1,0.25,-0.5\n2,1,1.0,0.0\n", False),
    ("propagators/free_causal.csv", KERNEL, KERNEL + "3,3,0.0,1e-30\n", False),
    ("gn-series/gn_moller_series.csv", SERIES, SERIES.replace("True", "False"), False),
    # no float table
    ("propagators/free_causal.csv", KERNEL, None, False),
])
def test_float_tables_shadow_the_rational_ones(ci_runs, tmp_path, table, exact,
                                               approx, passed):
    _, values, skip = next(spec for spec in ci_runs.SHADOWED if spec[0] == table)
    (tmp_path / "exact.csv").write_text(exact)
    if approx is not None:
        (tmp_path / "float.csv").write_text(approx)
    ok, line = ci_runs.compare(tmp_path / "exact.csv", tmp_path / "float.csv",
                               values, skip)
    assert ok is passed, line
