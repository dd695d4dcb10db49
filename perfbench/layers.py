"""Layer measurements taken outside the workloads' passes.

* Ring-op micro-timings of ``scalars``: per-operation microseconds on
  seeded operands, with the bare loop's cost subtracted.
* The two measurements of ``benchmarks/bench_core.py``: the raw sparse
  wedge on synthetic term dictionaries and a batch of 60 float Peierls
  brackets on a 6x2 lattice, both on the active ``fermifields.BACKEND``.
"""

from __future__ import annotations

import random
import statistics
from fractions import Fraction
from time import perf_counter

REPEATS = 5


def _noop(a, b):
    return None


def _loop_s(op, pairs) -> float:
    t0 = perf_counter()
    for a, b in pairs:
        op(a, b)
    return perf_counter() - t0


def _per_op_us(op, pairs, repeats=REPEATS) -> float:
    """Median per-call microseconds of ``op`` minus a no-op call's."""
    return statistics.median(
        (_loop_s(op, pairs) - _loop_s(_noop, pairs)) / len(pairs) * 1e6
        for _ in range(repeats))


def scalar_micro(seed: int, n_ops: int) -> dict:
    """Median microseconds per exact-complex mul/add/div, complex mul, coerce."""
    from fermifields.scalars import Ring
    rng = random.Random(f"{seed}:scalars")
    ring = Ring("rational")

    def frac():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 60), rng.randint(1, 40))

    exact = [ring.number(frac(), frac()) for _ in range(64)]
    floats = [complex(x) for x in exact]
    fracs = [frac() for _ in range(64)]
    idx = [(rng.randrange(64), rng.randrange(64)) for _ in range(n_ops)]
    qpairs = [(exact[i], exact[j]) for i, j in idx]
    cpairs = [(floats[i], floats[j]) for i, j in idx]
    fpairs = [(fracs[i], None) for i, _ in idx]
    coerce = ring.coerce
    return {
        "scalars.qc_mul_us": _per_op_us(lambda a, b: a * b, qpairs),
        "scalars.qc_add_us": _per_op_us(lambda a, b: a + b, qpairs),
        "scalars.qc_div_us": _per_op_us(lambda a, b: a / b, qpairs),
        "scalars.complex_mul_us": _per_op_us(lambda a, b: a * b, cpairs),
        "scalars.ring_coerce_us": _per_op_us(lambda a, b: coerce(a), fpairs),
    }


def _synth_terms(rng, n_gens, grade, n_terms) -> dict:
    terms = {}
    for _ in range(n_terms):
        w = tuple(sorted(rng.sample(range(n_gens), grade)))
        terms[w] = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return terms


def core_measurements(seed: int, cases: int, brackets: int) -> dict:
    """Raw wedge and float bracket batch, as in ``bench_core.py``."""
    from fermifields._core import wedge_terms
    from fermifields.algebra import random_element
    from fermifields.dynamics import peierls_bracket
    from fermifields.gross_neveu import build_free_action
    from fermifields.lattice import (FieldLattice, Lattice, causal_propagator,
                                     dirac_green)

    rng = random.Random(f"{seed}:core")
    pairs = [(_synth_terms(rng, 64, rng.randint(2, 5), 40),
              _synth_terms(rng, 64, rng.randint(2, 5), 40))
             for _ in range(cases)]

    def raw():
        t0 = perf_counter()
        for ta, tb in pairs:
            wedge_terms(ta, tb)
        return perf_counter() - t0

    fl = FieldLattice(Lattice(6, 2, 0.5, 1.0), 1, "float")
    S = build_free_action(fl, 1.0)
    delta = causal_propagator(dirac_green(fl, 1.0, "retarded"),
                              dirac_green(fl, 1.0, "advanced"))
    inputs = []
    for _ in range(brackets):
        slots = rng.sample(range(fl.n_slots), 10)
        inputs.append((random_element(fl.algebra, rng, 3, 6, slots),
                       random_element(fl.algebra, rng, 3, 6, slots)))

    def batch():
        t0 = perf_counter()
        for F, G in inputs:
            peierls_bracket(S, delta.mat, F, G)
        return perf_counter() - t0

    return {
        "core.raw_wedge_s": statistics.median(raw() for _ in range(3)),
        "dynamics.bracket_batch_s": statistics.median(batch() for _ in range(3)),
    }
