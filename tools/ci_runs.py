#!/usr/bin/env python3
"""The CI's verify and CLI runs: one table, and the script that runs it.

    python3 tools/ci_runs.py

Run from anywhere in a source checkout; the package is imported from
its ``src/`` directory.  ``RUNS`` lists every run of the tier-1
workflow: its name, which is also its output directory under
``ci-out/``, its config lines, its commands, the sha256 of each pinned
output, and for a float run the rational run it must shadow.
``tools/reachability.py`` and the tier-1 tests read the same table.

Each command runs in its own child process, and its wall time and its
own peak RSS are reported.  A pinned output whose hash differs prints a
``::warning`` and does not fail: float records may move with numpy's
BLAS.  Each table of ``SHADOWED`` that a float run writes must have the
rational run's rows, with each compared value within ``BOUND``
relative.  The summary goes to the file that ``GITHUB_STEP_SUMMARY``
names, or to stdout when it is unset.  Exit status 1 when a command
exits non-zero or a comparison fails; otherwise 0.
"""

from __future__ import annotations

import csv
import hashlib
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "ci-out"


@dataclass(frozen=True)
class Run:
    name: str
    config: tuple | None          # config lines, or None for the defaults
    commands: tuple
    sha256: dict = field(default_factory=dict)  # output path -> expected hash
    shadows: str | None = None    # the rational run a float run must match

    def write_config(self, directory: Path) -> Path | None:
        """Write the config lines to ``directory/run.cfg``, and return its
        path; None for the defaults."""
        if self.config is None:
            return None
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / "run.cfg"
        path.write_text("\n".join(self.config) + "\n")
        return path

    def argvs(self, directory: Path) -> list[list[str]]:
        """The ``cli.main`` arguments of each command, which writes to
        ``directory/<command>``; an output path of ``sha256`` is relative
        to ``directory``."""
        cfg = self.write_config(directory)
        config = [] if cfg is None else ["--config", str(cfg)]
        return [[cmd, *config, "--out", str(directory / cmd)]
                for cmd in self.commands]


_4X3 = ("lattice.nt = 4", "lattice.nx = 3", "lattice.dt = 1/2", "mass = 3/4",
        "lambda = 1/8")
RATIONAL_4X3 = _4X3 + ("arithmetic = rational",)
FLOAT_4X3 = _4X3 + ("arithmetic = float",)
# the rational 4x3 propagators outputs at the default cutoff window; with
# cutoff = ones only interacting_retarded_orders.csv differs
_PROPAGATORS_4X3 = {
    "propagators/defects.csv": "69f273395e5d210bcd2fbe1fc1a95777432c78c0b86de667eef49324ef413ec1",
    "propagators/free_advanced.csv": "fbd8e65d12b8c361244b5ad17c6332968421b74700c2bc749f0087b9f65cb130",
    "propagators/free_advanced.json": "f5050701105199b681cd15b57c00d7e83df1dbe61ea99dd939fdff34d29e9d97",
    "propagators/free_causal.csv": "6a79ff8dc15fc31d0003d809d5cfdf94beb9d924c2eb2a24bb690b0b3d8580bd",
    "propagators/free_causal.json": "59c95da444b29e024f198d0532590c78f49e322c10a75af20ebe668b930f8a3c",
    "propagators/free_retarded.csv": "b969df261e2dfefee3ca7a71a87dbd53caa1838de25c23fdd87e274def80b063",
    "propagators/free_retarded.json": "8ca2246a8df8e067ddb5b08aeb2ab0a9a46f5522b3226aac5a1cc7e9eb7bd785",
    "propagators/interacting_retarded_order0.csv": "b969df261e2dfefee3ca7a71a87dbd53caa1838de25c23fdd87e274def80b063",
    "propagators/interacting_retarded_orders.csv": "23cd7dc2d90895e405e91cebf5c0688b9502086b48e292532d5827d92b91b816",
    "propagators/kg_retarded.csv": "1ebbc5c0ca27b5965c3c85f33780e1cf101045ee181ad7fd4a15a51c88360947",
    "propagators/kg_retarded.json": "284caa713dbea485b27eb9bc2cdb0260c396bdc5dc19ef8311325ccadd248f87",
}

# Every run of the tier-1 workflow.  The CLI hashes were taken at these
# commits: the rational 4x3 outputs at c2e72eb, the grade-4 Møller table
# at 589fb49, the three per-order norm tables (each norm the exact norm,
# summed in rational arithmetic and rounded once) at the commit after
# 0c459e5, the cutoff = ones outputs at 5f56f7d, and the default-grade
# Møller table, whose truncated column came to flag only a grade cut, at
# the commit after d7dea0a; both verify reports when the config lost its
# one debug key, at d7dea0a.
RUNS = [
    # float records may move with numpy's BLAS; the rest of each report is
    # a tier-1 gate, tests/test_acceptance.py::
    # test_report_bytes_outside_float_residuals_are_fixed
    Run("verify-default", None, ("verify",), {
        "verify/verify_report.json": "1968fa04434c3e42fb16668b86736f8434b361f82280b669886a3bb680a37975"}),
    # dt*dx != 1, so a reassociated float product moves the report where
    # the default config's unit volume would hide it
    Run("verify-non-default",
        ("lattice.nt = 5", "lattice.dt = 1/3", "lattice.dx = 1/2", "mass = 3/4",
         "lambda = 1/8", "seed = 77"), ("verify",), {
        "verify/verify_report.json": "4355f4faf20c3a372a865af97674411b4a35d1d84f9217809ccde7dbaf12b583"}),
    # window:1:2 is the default cutoff at nt = 4; naming it here and in the
    # float twin runs the window parser
    Run("rational-4x3", RATIONAL_4X3 + ("cutoff = window:1:2",),
        ("propagators", "gn-series", "car-table"), {
        **_PROPAGATORS_4X3,
        "car-table/car_table.csv": "a23ccc32151474fe1c63e90340e1b8be1399a4740336780257192758295285cf",
        "gn-series/gn_moller_series.csv": "69a967e1082bd5b893356764c6bd63ec4028742490c1838fe986a3749409d075",
        "gn-series/gn_propagator_orders.csv": "d28835e23be9c173200311b5e994a1d56d553bebba266932017a1a7b1af7584e"}),
    # the grade cap cuts the images: the homomorphism residual
    # r(G ∧ P) − r(G) ∧ r(P), compared through grade 4, must still be 0
    Run("rational-4x3-grade4", RATIONAL_4X3 + ("truncation.max_grade = 4",),
        ("gn-series",), {
        "gn-series/gn_moller_series.csv": "a6b4d55c5597822db88230b7cf4971c02272657938a37cdb8cbac8b2fd932b19",
        "gn-series/gn_propagator_orders.csv": "ddfbaa89b24139f4e98b199d358750d3501daa9011ab1b61fd3043bcdecd4305"}),
    # W has rows on the first and the last time slice: every defect must be
    # exactly 0
    Run("rational-4x3-ones", RATIONAL_4X3 + ("cutoff = ones",), ("propagators",), {
        **_PROPAGATORS_4X3,
        "propagators/interacting_retarded_orders.csv": "24f0ff7b2967cc46cc4cc62a5662d873d71b42ad9de7489433da0c120630a71e"}),
    # float outputs go through numpy's BLAS, so none is hashed; propagators
    # exits 1 when a defect reaches reports.TOL_NUM
    Run("float-4x3", FLOAT_4X3 + ("cutoff = window:1:2",),
        ("propagators", "gn-series", "car-table"), shadows="rational-4x3"),
    Run("float-4x3-ones", FLOAT_4X3 + ("cutoff = ones",), ("propagators",)),
    # 72 generators, more than a 64-bit word mask could hold
    Run("float-3x3-2colors",
        ("lattice.nt = 3", "lattice.nx = 3", "colors = 2", "mass = 3/4",
         "lambda = 1/8", "arithmetic = float"), ("propagators", "gn-series")),
]
BY_NAME = {run.name: run for run in RUNS}

BOUND = 1e-12
# (table under a run's directory, compared columns: the value, or its real
# and imaginary parts; columns not compared).  Every other column is a key:
# the float table must have the rational table's keys, row by row.  The
# rows of gn_moller_series.csv are formal λ-coefficients and do not depend
# on ``lambda``, so of these tables only the two norm tables can catch a
# float run that reads a wrong coupling.
SHADOWED = (
    ("propagators/interacting_retarded_orders.csv", ("frobenius_norm",), ()),
    ("gn-series/gn_propagator_orders.csv", ("frobenius_norm",), ()),
    # a float residual is a rounding error, an exact one is 0
    ("gn-series/gn_moller_series.csv", ("coefficient_max_abs",),
     ("homomorphism_residual",)),
    *((f"propagators/{name}.csv", ("re", "im"), ())
      for name in ("free_retarded", "free_advanced", "free_causal", "kg_retarded")),
    ("car-table/car_table.csv", ("re_hbar1", "im_hbar1"), ()),
)


def _rows(path: Path, values: tuple, skip: tuple) -> list:
    """[(key, value)] of each row: the key is every (column, text) pair but
    the compared and the skipped ones, the value a complex number."""
    with open(path, newline="") as fh:
        return [(tuple((c, v) for c, v in row.items()
                       if c not in values and c not in skip),
                 complex(*(float(row[c]) for c in values)))
                for row in csv.DictReader(fh)]


def compare(exact: Path, approx: Path, values: tuple, skip: tuple):
    """(passed, summary line) of a float table against the rational one."""
    try:
        a, b = _rows(exact, values, skip), _rows(approx, values, skip)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        return False, repr(exc)
    same = [k for k, _ in a] == [k for k, _ in b]
    gap = max((abs(f - e) / (abs(e) or 1.0) for (_, e), (_, f) in zip(a, b)),
              default=0.0)
    ok = same and gap <= BOUND
    return ok, (f"keys {'equal' if same else 'DIFFER'}, largest relative gap "
                f"{gap:.3g} ({'ok' if ok else 'FAILS'}, bound {BOUND:g})")


def _timed(argv: list[str], env: dict) -> tuple[int, float, float]:
    """Exit status, wall seconds and peak RSS in MB of one child process."""
    t = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=sys.stderr, env=env)
    # the child's own rusage: RUSAGE_CHILDREN would give the maximum over
    # every child so far
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, time.perf_counter() - t, usage.ru_maxrss / 1024


def _sha256(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


def run_all(runs=RUNS, out: Path = OUT) -> tuple[bool, list[str]]:
    """Run every command of ``runs`` into ``out``; (passed, summary lines)."""
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    ok = True
    summary = []
    for run in runs:
        here = out / run.name
        config = ", ".join(run.config) if run.config else "the defaults"
        summary += [f"### {run.name}", "", f"Config: {config}.", ""]
        costs = []
        for argv in run.argvs(here):
            rc, wall, rss = _timed([sys.executable, "-m", "fermifields.cli", *argv],
                                   env)
            print(f"{run.name}: {argv[0]} exited {rc} in {wall:.2f} s, "
                  f"peak RSS {rss:.1f} MB", flush=True)
            ok = ok and rc == 0
            costs.append(f"| {argv[0]} | {rc} | {wall:.2f} | {rss:.1f} |")
        if run.sha256:
            lines, differ = [], 0
            for rel, want in run.sha256.items():
                got = _sha256(here / rel)
                lines.append(f"{got or 'missing'}  {rel}")
                if got != want:
                    differ += 1
                    path = os.path.relpath(here / rel, ROOT)
                    print(f"::warning file={path}::{path} sha256 "
                          f"{got or 'missing'} differs from the expected {want}")
            verdict = (f"{differ} of {len(lines)} differ (see the warnings)"
                       if differ else f"all {len(lines)} match")
            summary += [f"Pinned sha256: {verdict}.", "", "```", *lines, "```", ""]
        if "propagators" in run.commands:
            defects = here / "propagators" / "defects.csv"
            text = defects.read_text() if defects.exists() else "missing\n"
            summary += ["propagators defects.csv:", "", "```", text.rstrip("\n"),
                        "```", ""]
        if run.shadows:
            summary += [f"Against {run.shadows}:", ""]
            for table, values, skip in SHADOWED:
                good, line = compare(out / run.shadows / table, here / table,
                                     values, skip)
                ok = ok and good
                summary.append(f"- `{table}`: {line}")
            summary.append("")
        summary += ["| command | exit | wall s | peak RSS MB |",
                    "| --- | --- | --- | --- |", *costs, ""]
    return ok, summary


def main() -> int:
    ok, summary = run_all()
    text = "\n".join(summary) + "\n"
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if path:
        with open(path, "a") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
