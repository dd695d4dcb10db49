"""The benchmark's three workloads.

Each workload generates its inputs from the seed in ``__init__`` (the
part of set-up that is not importing), runs one closed-loop pass in
``run`` (the timed part) and checks that pass's outputs in ``check``,
which returns one ``(operation, problem)`` pair per attempted
operation, ``problem`` being ``None`` when the output is correct.

* ``battery``: ``verify.run_suites`` over all six suites at the default
  ``RunConfig``, default seed included, then ``write_report``.  The
  suites draw only a few random cases, so another verify seed changes
  the moller suite's work up to threefold; the benchmark seed therefore
  does not reach this workload.  It is the only workload at nx = 2, the
  configuration users run, where the periodic central difference is
  identically 0.  The quant suite is most of a pass: ``star_product``
  rescales the dense causal kernel on every call.
* ``green-ladder``: rational ``dirac_green``/``causal_propagator``/
  ``kg_green`` on rungs 4x3 .. 10x4.  Only ``lattice``, ``linalg`` and
  ``scalars`` run; no Grassmann algebra, no star products.
* ``float-cli``: ``propagators``, ``gn-series`` and ``car-table`` through
  ``cli.main`` in float mode at 4x3.  Bound by ``kernels.compose`` and
  ``_core.wedge_terms``; no rational scalar is ever built.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from pathlib import Path

SUITES = ("grassmann", "green", "bracket", "moller", "gn", "quant")
SMOKE_SUITES = ("grassmann", "green", "bracket", "gn")

# Checks whose pass criterion is "residual == 0": exact-mode identities
# (and boolean structure checks reported as 0/1).
EXACT_CHECKS = frozenset({
    "grassmann_laws_rational", "wedge_permutation_oracle",
    "evaluation_pairing_oracle", "kg_green_support_and_transpose",
    "dirac_support_transpose_symmetry", "causal_block_structure",
    "bracket_graded_antisymmetry_exact", "bracket_graded_leibniz_exact",
    "poisson_ideal_identity_exact", "response_on_eom_generators_exact",
    "advanced_equals_signed_reversed_retarded", "structural_kernel_zeros",
    "moller_ideal_intertwining", "moller_homomorphism", "moller_recursion",
    "moller_grade_formula", "moller_inverse_roundtrip",
    "moller_support_condition", "moller_quadratic_matches_matrix_theory",
    "gn_propagator_defect_grade4", "gn_series_termination",
    "gn_lambda_zero_reduction", "gn_first_correction_dense_oracle",
    "gn_bracket_antisymmetry_and_free_limit", "gn_poisson_ideal_interacting",
    "car_identity_all_basis_pairs", "star_associativity_exact",
    "star_classical_reductions", "time_ordering_inverse_and_symmetry",
    "time_ordered_equals_star_on_ordered_supports", "star_h_equivalence",
})

RUNGS = ((4, 3), (6, 3), (8, 4), (10, 4))
GREEN_MASSES = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
GREEN_STEPS = ((Fraction(1), Fraction(1)), (Fraction(1, 2), Fraction(1)),
               (Fraction(2, 3), Fraction(1)), (Fraction(1, 2), Fraction(1, 2)),
               (Fraction(3, 4), Fraction(1)))
SAMPLED_COLUMNS = 3

REL_TOL = 1e-10

CLI_MASSES = ("1/2", "3/4", "1", "5/4", "3/2")
CLI_LAMBDAS = ("1/8", "1/4", "1/2", "3/4")
CLI_OUTPUTS = {
    "propagators": [f"{k}.{ext}" for k in ("kg_retarded", "free_retarded",
                                           "free_advanced", "free_causal")
                    for ext in ("csv", "json")]
    + ["interacting_retarded_order0.csv", "interacting_retarded_orders.csv",
       "defects.csv"],
    "gn-series": ["gn_moller_series.csv", "gn_propagator_orders.csv"],
    "car-table": ["car_table.csv"],
}


def _attempt(fn, *args):
    """Run one operation; an exception is its output, checked as a failure."""
    try:
        return fn(*args)
    except Exception as exc:  # a failing operation is counted, not fatal
        return exc


class Battery:
    name = "battery"
    arithmetic = "rational+float"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        from fermifields.config import RunConfig
        self.cfg = RunConfig().validate()  # default seed: see module docstring
        self.suites = SMOKE_SUITES if smoke else SUITES
        self.lattice = f"{self.cfg.nt}x{self.cfg.nx}"
        self.report = workdir / "verify_report.json"
        self.digests: list[str] = []

    def run(self) -> dict:
        from fermifields.reports import write_report
        from fermifields.verify import run_suites
        out = {name: _attempt(run_suites, self.cfg, [name])
               for name in self.suites}
        records = [r for res in out.values() if isinstance(res, tuple)
                   for r in res[0]]
        write_report(self.report, records, self.cfg.to_dict(), list(self.suites))
        return out

    def check(self, out: dict) -> list:
        digest = hashlib.sha256(self.report.read_bytes()).hexdigest()
        self.digests.append(digest)
        same = digest == self.digests[0]
        results = []
        for name in self.suites:
            res = out[name]
            if isinstance(res, Exception):
                results.append((name, f"raised {res!r}"))
                continue
            bad = [r["check"] for r in res[0] if not r["passed"]
                   or (r["check"] in EXACT_CHECKS and r["max_residual"] != 0.0)]
            if bad:
                results.append((name, f"checks failed: {bad}"))
            elif not same:
                results.append((name, "verify_report.json differs between passes"))
            else:
                results.append((name, None))
        return results

    def details(self) -> dict:
        return {"report_sha256": sorted(set(self.digests))}


class GreenLadder:
    name = "green-ladder"
    arithmetic = "rational"

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = random.Random(f"{seed}:green-ladder")
        self.m = rng.choice(GREEN_MASSES)
        self.dt, self.dx = rng.choice(GREEN_STEPS)
        self.rungs = RUNGS[:1] if smoke else RUNGS
        self.lattice = ",".join(f"{nt}x{nx}" for nt, nx in self.rungs)
        # field + conjugate, one color, two spinor components per site
        self.columns = {(nt, nx): sorted(rng.sample(range(4 * nt * nx),
                                                    SAMPLED_COLUMNS))
                        for nt, nx in self.rungs}

    def run(self) -> list:
        from fermifields.lattice import (FieldLattice, Lattice,
                                         causal_propagator, dirac_green,
                                         kg_green)
        from fermifields.scalars import Ring
        ring = Ring("rational")
        out = []
        for nt, nx in self.rungs:
            lat = Lattice(nt, nx, self.dt, self.dx)
            fl = FieldLattice(lat, 1, "rational")
            dR = _attempt(dirac_green, fl, self.m, "retarded")
            dA = _attempt(dirac_green, fl, self.m, "advanced")
            delta = _attempt(causal_propagator, dR, dA)
            kg = _attempt(kg_green, lat, self.m, "retarded", ring)
            out.append(((nt, nx), fl, dR, dA, delta, kg))
        return out

    def check(self, out: list) -> list:
        results = []
        for rung, fl, dR, dA, delta, kg in out:
            tag = f"{rung[0]}x{rung[1]}"
            results.append((f"{tag}.retarded", self._check_retarded(rung, fl, dR)))
            results.append((f"{tag}.advanced", _check_advanced(dR, dA)))
            results.append((f"{tag}.causal", _check_causal(delta)))
            results.append((f"{tag}.kg", self._check_kg(rung, kg)))
        return results

    def _float_lattice(self, rung):
        from fermifields.lattice import Lattice
        return Lattice(rung[0], rung[1], float(self.dt), float(self.dx))

    def _check_retarded(self, rung, fl, dR):
        from fermifields.lattice import (FieldLattice, dirac_green,
                                         free_second_derivative)
        if isinstance(dR, Exception):
            return f"raised {dR!r}"
        if dR.support_violation() != 0.0:
            return "support violation"
        ref = dirac_green(FieldLattice(self._float_lattice(rung), 1, "float"),
                          float(self.m), "retarded")
        gap = _relative_gap(dR.mat, ref.mat)
        if not gap <= REL_TOL:
            return f"float-mode kernel differs by {gap:.3g} relative"
        K = free_second_derivative(fl, self.m).mat
        n = K.shape[0]
        for i in range(n):
            if not dR.exact_rows[i]:
                continue
            nz = [k for k in range(n) if K[i, k]]
            for j in self.columns[rung]:
                val = sum((K[i, k] * dR.mat[k, j] for k in nz), fl.ring.zero)
                if val != (1 if i == j else 0):
                    return f"S2 @ dR != Id at ({i}, {j})"
        return None

    def _check_kg(self, rung, kg):
        from fermifields.lattice import kg_green
        from fermifields.scalars import Ring
        if isinstance(kg, Exception):
            return f"raised {kg!r}"
        if kg.support_violation() != 0.0:
            return "support violation"
        ref = kg_green(self._float_lattice(rung), float(self.m), "retarded",
                       Ring("float"))
        gap = _relative_gap(kg.mat, ref.mat)
        if not gap <= REL_TOL:
            return f"float-mode kernel differs by {gap:.3g} relative"
        return None

    def details(self) -> dict:
        return {"mass": str(self.m), "dt": str(self.dt), "dx": str(self.dx)}


def _relative_gap(exact, approx) -> float:
    import numpy as np
    as_complex = np.array([[complex(x) for x in row] for row in exact])
    scale = max(float(np.abs(approx).max()), 1.0)
    return float(np.abs(as_complex - approx).max()) / scale


def _check_advanced(dR, dA):
    if isinstance(dA, Exception):
        return f"raised {dA!r}"
    if dA.support_violation() != 0.0:
        return "support violation"
    if isinstance(dR, Exception) or not (dA.mat == -dR.mat.T).all():
        return "advanced != -(retarded)^T"
    return None


def _check_causal(delta):
    if isinstance(delta, Exception):
        return f"raised {delta!r}"
    if not (delta.mat == delta.mat.T).all():
        return "causal propagator is not symmetric"
    return None


class FloatCli:
    name = "float-cli"
    arithmetic = "float"
    commands = ("propagators", "gn-series", "car-table")

    def __init__(self, seed: int, smoke: bool, workdir: Path):
        rng = random.Random(f"{seed}:float-cli")
        self.mass = rng.choice(CLI_MASSES)
        self.lam = rng.choice(CLI_LAMBDAS)
        nt, nx = (3, 3) if smoke else (4, 3)
        self.lattice = f"{nt}x{nx}"
        self.config = workdir / "float-cli.cfg"
        self.config.write_text(
            f"lattice.nt = {nt}\nlattice.nx = {nx}\ncolors = 1\n"
            f"arithmetic = float\nmass = {self.mass}\nlambda = {self.lam}\n")
        self.out_dir = workdir / "float-cli"

    def run(self) -> dict:
        from fermifields import cli
        return {cmd: _attempt(cli.main, [cmd, "--config", str(self.config),
                                         "--out", str(self.out_dir)])
                for cmd in self.commands}

    def check(self, out: dict) -> list:
        results = []
        for cmd in self.commands:
            code = out[cmd]
            paths = [self.out_dir / f for f in CLI_OUTPUTS[cmd]]
            missing = [p.name for p in paths if not p.is_file()]
            if code != 0:
                results.append((cmd, f"exit {code!r}"))
            elif missing:
                results.append((cmd, f"missing outputs {missing}"))
            else:
                results.append((cmd, None))
            for p in paths:
                p.unlink(missing_ok=True)
        return results

    def details(self) -> dict:
        return {"mass": self.mass, "lambda": self.lam}


WORKLOADS = {w.name: w for w in (Battery, GreenLadder, FloatCli)}
