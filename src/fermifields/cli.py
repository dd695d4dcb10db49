"""Command-line front end.

Subcommands::

    fermifields propagators --config cfg.txt --out results/
    fermifields verify      --suite grassmann,bracket --seed 7
    fermifields gn-series   --order 3 --out results/
    fermifields car-table   --out results/

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
A command creates its ``--out`` directory only once its inputs have
validated, so an exit 2 leaves none behind.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, load_config
from .reports import (TOL_FACTOR, TOL_GREEN, TOL_NUM, check_record, write_csv,
                      write_report)

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermifields",
        description="Lattice fermion functionals: propagators, brackets, "
                    "intertwining series and deformation checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("propagators", "write free/interacting kernels and defect norms"),
            ("verify", "run invariant suites and write a JSON report"),
            ("gn-series", "write per-order coupling tables"),
            ("car-table", "write the anticommutator table at first order")):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", type=Path, default=None,
                       help="flat key-value config file")
        p.add_argument("--out", type=Path, default=Path("."),
                       help="output directory")
        if name in ("verify", "gn-series"):
            p.add_argument("--order", type=int, default=None,
                           help="override truncation.lambda_order")
        if name == "verify":
            p.add_argument("--seed", type=int, default=None, help="override seed")
            # every suite fixes its own arithmetic mode
            p.add_argument("--suite", default=None,
                           help="comma-separated subset of: grassmann,green,"
                                "bracket,moller,gn,quant")
        else:
            p.add_argument("--arithmetic", choices=["float", "rational"],
                           default=None, help="override arithmetic mode")
    return parser


def _check_out(out: Path) -> None:
    """Reject an ``--out`` that is, or lies under, an existing non-directory."""
    existing = next(p for p in (out, *out.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"--out {str(out)!r}: {str(existing)!r} exists and "
                          f"is not a directory")


def _load(args) -> "RunConfig":
    overrides = {
        "arithmetic": getattr(args, "arithmetic", None),
        "seed": getattr(args, "seed", None),
        "truncation.lambda_order": getattr(args, "order", None),
    }
    rejected = ({"arithmetic": "every verify suite fixes its own arithmetic mode",
                 "cutoff": "every verify suite fixes its own interaction cutoff"}
                if args.command == "verify" else None)
    return load_config(args.config, overrides, rejected)


def _series_grade(cfg) -> int:
    """Interacting series grade: ``truncation.max_grade`` made even, at most 6."""
    return min(cfg.max_grade // 2 * 2, 6)


def cmd_propagators(cfg, out: Path) -> int:
    from .gross_neveu import build_gn_action, interacting_propagator, propagator_defect
    from .lattice import DiracOperator, causal_propagator, dirac_green, kg_green
    from .scalars import Ring

    fl = cfg.field_lattice()
    S = build_gn_action(fl, cfg.gn_params(fl))
    lat = fl.lattice
    m = cfg.number(cfg.mass)
    ring = Ring(cfg.arithmetic)

    gR = kg_green(lat, m, "retarded", ring)
    dR = dirac_green(fl, m, "retarded")
    dA = dirac_green(fl, m, "advanced")
    delta = causal_propagator(dR, dA)
    out.mkdir(parents=True, exist_ok=True)
    for name, kern in (("kg_retarded", gR), ("free_retarded", dR),
                       ("free_advanced", dA), ("free_causal", delta)):
        kern.to_csv(out / f"{name}.csv")
        kern.to_json(out / f"{name}.json")

    ik = interacting_propagator(S, max_grade=_series_grade(cfg))
    ik.free.to_csv(out / "interacting_retarded_order0.csv")
    write_csv(out / "interacting_retarded_orders.csv",
              ["k", "grade", "frobenius_norm"],
              [[k, g, repr(v)] for k, g, v in ik.per_order_norms()])

    defects = [
        ("factorization", DiracOperator(lat, m, ring).factorization_defect(),
         TOL_FACTOR),
        ("green_identity_interior_rows",
         dR.identity_defect(S.second_kernel()[0].mat), TOL_GREEN),
        ("interacting_defect", propagator_defect(S, ik), TOL_NUM),
    ]
    write_csv(out / "defects.csv", ["check", "max_defect"],
              [[name, repr(v)] for name, v, _ in defects])
    # rational defects are exact: anything but 0 is a failure
    ok = all(check_record(name, {}, [v], None if ring.exact else tol)["passed"]
             for name, v, tol in defects)
    return 0 if ok else 1


def cmd_verify(cfg, out: Path, suites_arg: str | None) -> int:
    from .verify import SUITES, run_suites

    names = list(SUITES)
    if suites_arg is not None:
        names = [s.strip() for s in suites_arg.split(",") if s.strip()]
        if not names:
            raise ConfigError(f"--suite {suites_arg!r} names no suite")
    records, ok = run_suites(cfg, names)
    out.mkdir(parents=True, exist_ok=True)
    write_report(out / "verify_report.json", records, cfg.to_dict(), names)
    for rec in records:
        status = "PASS" if rec["passed"] else "FAIL"
        print(f"[{status}] {rec['suite']}:{rec['check']} "
              f"residual={rec['max_residual']:.3e}")
    print(f"report: {out / 'verify_report.json'}")
    return 0 if ok else 1


def cmd_gn_series(cfg, out: Path) -> int:
    from .dynamics import moller_substitution
    from .gross_neveu import (build_free_action, build_gn_action,
                              gn_interaction_term, interacting_propagator)
    from .lattice import dirac_green

    fl = cfg.field_lattice()
    params = cfg.gn_params(fl)
    # default observables: one field slot and one bilinear at interior times
    interior = fl.interior_slots()
    if len(interior) < 2:
        raise ConfigError("lattice too small for series observables (need nt >= 3)")
    m = cfg.number(cfg.mass)
    S = build_free_action(fl, m)
    F = gn_interaction_term(fl, params)
    dR = dirac_green(fl, m, "retarded")
    order = cfg.lambda_order
    sub = moller_substitution(S, F, dR, order, cfg.max_grade)

    obs = {
        "field": fl.algebra.generator(interior[0]),
        "bilinear": fl.algebra.monomial((interior[0], interior[-1])),
    }
    # a partner outside both supports, so that G ∧ P is never 0
    P = fl.algebra.generator(interior[1])
    image_P = sub.apply(P)
    rows, residuals = [], []
    for name, G in obs.items():
        series = sub.apply(G)
        prod = sub.apply(G.wedge(P))
        split = series.wedge(image_P)
        for k in range(order + 1):
            # homomorphism defect of r(G ∧ P) at this order, through the
            # grade cap: the map cuts every product above it, but the wedge
            # of two cut images reaches twice as high
            homo = (prod.coefficient(k) - split.coefficient(k)).truncate(
                cfg.max_grade)
            residuals.append(homo)
            rows.append([name, k, repr(series.coefficient(k).max_abs()),
                         repr(homo.max_abs()), series.truncated])
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "gn_moller_series.csv",
              ["observable", "order", "coefficient_max_abs",
               "homomorphism_residual", "truncated"], rows)

    S_gn = build_gn_action(fl, params)
    # one order beyond the series grade, flagged outside the truncation
    max_grade = _series_grade(cfg)
    ik = interacting_propagator(S_gn, max_grade + 2)
    norm_rows = []
    for k, g, v in ik.per_order_norms():
        within = g <= max_grade
        norm_rows.append([k, g, repr(v), within])
    write_csv(out / "gn_propagator_orders.csv",
              ["k", "grade", "frobenius_norm", "within_truncation"], norm_rows)
    # a rational residual is exact: anything but 0 is a failure
    rec = check_record("homomorphism", {}, residuals,
                       None if fl.ring.exact else TOL_NUM)
    return 0 if rec["passed"] else 1


def cmd_car_table(cfg, out: Path) -> int:
    from .algebra import CONJUGATE, FIELD
    from .lattice import causal_propagator, dirac_green
    from .quantization import star_commutator

    fl = cfg.field_lattice()
    m = cfg.number(cfg.mass)
    dR = dirac_green(fl, m, "retarded")
    dA = dirac_green(fl, m, "advanced")
    delta = causal_propagator(dR, dA)
    rows = []
    for i in fl.species_slots(FIELD):
        ei = fl.algebra.generator(i)
        for j in fl.species_slots(CONJUGATE):
            ej = fl.algebra.generator(j)
            comm = star_commutator(delta, ei, ej)
            val = complex(comm.coefficient(1).coefficient(()))
            if val != 0:
                rows.append([i, j, repr(val.real), repr(val.imag)])
    out.mkdir(parents=True, exist_ok=True)
    write_csv(out / "car_table.csv",
              ["field_slot", "conjugate_slot", "re_hbar1", "im_hbar1"], rows)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        cfg = _load(args)
        if args.command == "propagators":
            return cmd_propagators(cfg, args.out)
        if args.command == "verify":
            return cmd_verify(cfg, args.out, args.suite)
        if args.command == "gn-series":
            return cmd_gn_series(cfg, args.out)
        if args.command == "car-table":
            return cmd_car_table(cfg, args.out)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
