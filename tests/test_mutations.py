"""Checks shown to fail: a table of named faults that the verify battery
must catch.

Each row puts one fault into the library with ``monkeypatch`` (never by
editing its source), runs the suites it names at the default config and
asserts the exact set of records that fail there.  A row names the
suites in which its fault fails a record; run over all six suites at the
default config, every other suite passes.  The coverage test asserts
that every record of a clean default run fails under some row; one row
also runs ``fermifields verify``, which must exit 1.

The vertex and covariant faults of ROADMAP item 2 are rows that no
record catches yet.  They are strict xfails: once a record sees one,
its row fails as an unexpected pass and belongs in the table.
"""

import json
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import islice
from typing import Callable

import numpy as np
import pytest

from fermifields import _core, dynamics, gross_neveu, lattice, quantization, verify
from fermifields.algebra import FIELD
from fermifields.cli import main
from fermifields.config import RunConfig
from fermifields.dynamics import MollerMap
from fermifields.gross_neveu import InteractingKernel, _MergeTables


def _wrap(mp, owner, name: str, make) -> None:
    """Replace ``owner.name`` by ``make(original)``."""
    mp.setattr(owner, name, make(getattr(owner, name)))


# -- the faults --------------------------------------------------------------

def corrupt_causal(mp):
    """Δ gains 1/1000 above its diagonal, so it is no longer symmetric."""
    def make(orig):
        def causal_propagator(dR, dA):
            out = orig(dR, dA)
            mat = out.mat.copy()
            upper = np.triu_indices(len(mat), 1)
            mat[upper] = mat[upper] + out.ring.number(Fraction(1, 1000))
            return out.copy_with(mat)
        return causal_propagator
    _wrap(mp, verify, "causal_propagator", make)


def merge_sign(mp):
    """A grade-1 left word merged into a grade-3 word takes the wrong sign,
    wherever the library binds ``merge_words``."""
    orig = _core.merge_words

    def merge_words(wa, wb):
        m = orig(wa, wb)
        if m is not None and len(wa) == 1 and len(m[1]) == 3:
            return -m[0], m[1]
        return m
    for module in (_core, gross_neveu, quantization):
        mp.setattr(module, "merge_words", merge_words)


def _dirac_green(mp, change):
    """``verify.dirac_green`` with ``change(fl, kind, mat)`` in place of
    its matrix."""
    def make(orig):
        def dirac_green(fl, m, kind):
            out = orig(fl, m, kind)
            return out.copy_with(change(fl, kind, out.mat.copy()))
        return dirac_green
    _wrap(mp, verify, "dirac_green", make)


def advanced_sign(mp):
    """The advanced Dirac kernel is negated."""
    _dirac_green(mp, lambda fl, kind, mat: mat if kind == "retarded" else -mat)


def field_field_link(mp):
    """+1 on every off-diagonal entry of the colour-1 (field, field) block
    of both kinds: a link between slots of one species."""
    def change(fl, kind, mat):
        psi = list(fl.species_slots(FIELD, 1))
        for i in psi:
            for j in psi:
                if i != j:
                    mat[i, j] = mat[i, j] + fl.ring.one
        return mat
    _dirac_green(mp, change)


def kg_scale(mp):
    """The retarded Klein–Gordon kernel is doubled."""
    def make(orig):
        def kg_green(lat, m, kind, ring):
            out = orig(lat, m, kind, ring)
            return out.copy_with(out.mat * 2) if kind == "retarded" else out
        return kg_green
    _wrap(mp, verify, "kg_green", make)


def kg_untransposed(mp):
    """The advanced Klein–Gordon kernel is the retarded one, untransposed."""
    def make(orig):
        def kg_green(lat, m, kind, ring):
            out = orig(lat, m, "retarded", ring)
            return out.copy_with(out.mat, kind)
        return kg_green
    _wrap(mp, verify, "kg_green", make)


def dirac_sub(mp):
    """The sub-diagonal time block of the Dirac stencil is doubled."""
    def make(orig):
        def _dirac_blocks(lat, m, ring):
            diag, sub = orig(lat, m, ring)
            return diag, sub + sub
        return _dirac_blocks
    _wrap(mp, lattice, "_dirac_blocks", make)


def evaluate_drop(mp):
    """The pairing drops the first term of its left argument."""
    def make(orig):
        def evaluate(t, u):
            return orig(t.algebra.element(dict(islice(t.items(), 1, None))), u)
        return evaluate
    _wrap(mp, verify, "evaluate", make)


def pair_double(mp):
    """The kernel pairing of every bracket is doubled."""
    def make(orig):
        def pair_contract(*args, **kwargs):
            return orig(*args, **kwargs).scale(2)
        return pair_contract
    _wrap(mp, dynamics, "pair_contract", make)


def order_low(mp):
    """The Møller map solves for its images one order below its own."""
    def make(orig):
        def __init__(self, S, F, dR, order, *args, **kwargs):
            orig(self, S, F, dR, order - 1, *args, **kwargs)
            self.order = order
        return __init__
    _wrap(mp, MollerMap, "__init__", make)


def moller_causal(mp):
    """The Møller map is built on Δᴿ + Δᴿᵀ, whose support reaches into the
    past of the interaction."""
    def make(orig):
        def __init__(self, S, F, dR, *args, **kwargs):
            orig(self, S, F, dR.copy_with(dR.mat + dR.mat.T), *args, **kwargs)
        return __init__
    _wrap(mp, MollerMap, "__init__", make)


def response_first(mp):
    """The response Σ_j Δᴿ[i, j] ∂_jF drops the first slot of ∂F."""
    def make(orig):
        def _response(self, i, src, cut=()):
            return orig(self, i, {**src, self._supp[0]: self.algebra.zero()}, cut)
        return _response
    _wrap(mp, MollerMap, "_response", make)


def image_extra(mp):
    """Each generator's image gains eᵢ at order 1."""
    def make(orig):
        def image(self, i):
            s = orig(self, i)
            return s._like({**s.coeffs,
                            1: s.coefficient(1) + self.algebra.generator(i)})
        return image
    _wrap(mp, MollerMap, "image", make)


def last_order_neg(mp):
    """The series negates the last order it stores for each site group."""
    def make(orig):
        def _build(self, g):
            stored = orig(self, g)
            if stored:
                stored[-1] = stored[-1]._replace(vals=-stored[-1].vals)
            return stored
        return _build
    _wrap(mp, InteractingKernel, "_build", make)


def order_short(mp):
    """The series stops one order below max_grade // 2, as a loop bound
    one short would."""
    def make(orig):
        def _build(self, g):
            return orig(self, g)[:self.max_grade // 2 - 1]
        return _build
    _wrap(mp, InteractingKernel, "_build", make)


def correction_sign(mp):
    """Every correction Δ_k of the series is negated."""
    def make(orig):
        def _correction(self, k):
            return -orig(self, k)
        return _correction
    _wrap(mp, InteractingKernel, "_correction", make)


def coupling_ignored(mp):
    """The Gross–Neveu action is built with λ + 1 in place of λ."""
    def make(orig):
        def build_gn_action(fl, params):
            return orig(fl, replace(params, lam=params.lam + 1))
        return build_gn_action
    _wrap(mp, verify, "build_gn_action", make)


def kernel_derivative_sign(mp):
    """The symbolic λ-derivative of the causal kernel is negated."""
    def make(orig):
        def bracket_kernel_derivative(dR, KH):
            return [-part for part in orig(dR, KH)]
        return bracket_kernel_derivative
    _wrap(mp, verify, "bracket_kernel_derivative", make)


def colour_weight(mp):
    """Colour 2's terms of every bilinear are doubled, so the action is
    no longer colour-symmetric."""
    def make(orig):
        def bilinear_element(fl, M):
            e = orig(fl, M)
            gens = fl.algebra.generators
            return fl.algebra.element({w: c + c if gens[w[0]].color == 2 else c
                                       for w, c in e.items()})
        return bilinear_element
    _wrap(mp, gross_neveu, "bilinear_element", make)


def _merge_sign(negate):
    """Negate the order 1 → 2 merges of the series where ``negate(m)`` holds
    for the monomial id m."""
    def patch(mp):
        def make(orig):
            def lookup(self, k, m, u):
                out = orig(self, k, m, u)
                return np.where(negate(m), -out, out) if k == 1 else out
            return lookup
        _wrap(mp, _MergeTables, "lookup", make)
    return patch


vertex = _merge_sign(lambda m: m % 2 == 0)
covariant = _merge_sign(lambda m: True)


# -- the table ----------------------------------------------------------------

@dataclass(frozen=True)
class Mutation:
    patch: Callable
    suites: tuple
    fails: frozenset


def _row(patch, suites: str, *fails) -> Mutation:
    return Mutation(patch, tuple(suites.split()), frozenset(fails))


MUTATIONS = [
    _row(corrupt_causal, "green bracket gn quant",
         "causal_block_structure", "dirac_support_transpose_symmetry",
         "bracket_graded_antisymmetry_exact", "bracket_graded_jacobi",
         "poisson_ideal_identity_exact", "gn_bracket_antisymmetry_and_free_limit",
         "car_identity_all_basis_pairs", "star_classical_reductions",
         "time_ordered_equals_star_on_ordered_supports"),
    _row(merge_sign, "grassmann bracket moller gn quant",
         "grassmann_laws_rational", "wedge_permutation_oracle",
         "advanced_equals_signed_reversed_retarded",
         "bracket_graded_antisymmetry_exact", "bracket_graded_jacobi",
         "bracket_graded_leibniz_exact", "moller_homomorphism",
         "moller_inverse_roundtrip", "moller_recursion",
         "gn_bracket_antisymmetry_and_free_limit", "gn_canonical_identity_quartic",
         "gn_poisson_ideal_interacting", "star_associativity_exact",
         "star_h_equivalence", "time_ordered_equals_star_on_ordered_supports",
         "time_ordering_inverse_and_symmetry"),
    _row(advanced_sign, "green bracket quant",
         "causal_block_structure", "dirac_green_identity_interior_rows",
         "dirac_support_transpose_symmetry",
         "advanced_equals_signed_reversed_retarded",
         "bracket_graded_antisymmetry_exact", "bracket_graded_jacobi",
         "poisson_ideal_identity_exact", "response_on_eom_generators_exact",
         "car_identity_all_basis_pairs", "star_classical_reductions"),
    _row(order_low, "moller",
         "moller_ideal_intertwining", "moller_inverse_roundtrip",
         "moller_quadratic_matches_matrix_theory"),
    # the bracket identities are homogeneous, so they cannot see a scale
    _row(pair_double, "bracket gn quant",
         "canonical_identity_symbolic", "response_on_eom_generators_exact",
         "gn_canonical_identity_quartic", "star_classical_reductions"),
    # the intertwining and recursion records sample interior slots only
    _row(response_first, "moller", "moller_quadratic_matches_matrix_theory"),
    _row(kg_scale, "green", "kg_green_identity", "kg_green_support_and_transpose"),
    _row(kg_untransposed, "green", "kg_green_support_and_transpose"),
    # every other record holds for any stencil: the solves and the action
    # read the same blocks
    _row(dirac_sub, "green", "dirac_factorization"),
    _row(evaluate_drop, "grassmann", "evaluation_pairing_oracle"),
    _row(moller_causal, "moller",
         "moller_ideal_intertwining", "moller_quadratic_matches_matrix_theory",
         "moller_recursion", "moller_support_condition"),
    _row(image_extra, "moller",
         "moller_grade_formula", "moller_ideal_intertwining",
         "moller_inverse_roundtrip", "moller_quadratic_matches_matrix_theory",
         "moller_recursion", "moller_support_condition"),
    _row(last_order_neg, "gn",
         "gn_kernel_derivative_fd_oracle", "gn_propagator_defect_grade4"),
    # the grade-4 build keeps 1 order and the grade-6 build 2
    _row(order_short, "gn",
         "gn_kernel_derivative_fd_oracle", "gn_series_termination"),
    _row(correction_sign, "gn",
         "gn_first_correction_dense_oracle", "gn_kernel_derivative_fd_oracle",
         "gn_poisson_ideal_interacting"),
    _row(coupling_ignored, "gn",
         "gn_bracket_antisymmetry_and_free_limit", "gn_canonical_identity_quartic",
         "gn_kernel_derivative_fd_oracle", "gn_lambda_zero_reduction"),
    _row(kernel_derivative_sign, "bracket gn",
         "canonical_identity_fd_oracle", "canonical_identity_symbolic",
         "gn_canonical_identity_quartic", "gn_kernel_derivative_fd_oracle"),
    _row(field_field_link, "green bracket moller gn",
         "dirac_green_identity_interior_rows", "dirac_support_transpose_symmetry",
         "advanced_equals_signed_reversed_retarded", "canonical_identity_fd_oracle",
         "response_on_eom_generators_exact", "structural_kernel_zeros",
         "moller_ideal_intertwining", "moller_recursion",
         "moller_support_condition", "gn_kernel_derivative_fd_oracle"),
    _row(colour_weight, "gn", "gn_color_symmetry"),
]

def _failed(suites) -> set:
    records, _ = verify.run_suites(RunConfig().validate(), suites)
    return {r["check"] for r in records if not r["passed"]}


@pytest.mark.parametrize("row", MUTATIONS, ids=lambda row: row.patch.__name__)
def test_mutation_fails_exactly_its_records(row, monkeypatch):
    row.patch(monkeypatch)
    assert _failed(row.suites) == row.fails


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2")
@pytest.mark.parametrize("patch", [vertex, covariant],
                         ids=["vertex", "covariant"])
def test_series_step_fault_fails_a_record(patch, monkeypatch):
    """Only the gn suite builds the interacting series, whose order step
    the merge tables serve."""
    patch(monkeypatch)
    assert _failed(["gn"])


def test_every_record_fails_under_some_mutation():
    """No record of a clean default run is left uncaught."""
    records, ok = verify.run_suites(RunConfig().validate())
    names = {r["check"] for r in records}
    assert ok and len(names) == len(records) == 40
    assert frozenset().union(*(row.fails for row in MUTATIONS)) == names


def test_cli_verify_exits_1_under_a_caught_fault(tmp_path, monkeypatch):
    row = next(row for row in MUTATIONS if row.patch is corrupt_causal)
    row.patch(monkeypatch)
    assert main(["verify", "--suite", "bracket", "--out", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "verify_report.json").read_text())
    failed = {r["check"] for r in report["checks"] if not r["passed"]}
    assert "bracket_graded_antisymmetry_exact" in failed
    assert failed == row.fails & {r["check"] for r in report["checks"]}
