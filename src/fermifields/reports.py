"""Machine-readable check reports: stable-order JSON records and CSV.

Reports depend only on the configuration and seed, never on wall-clock
state, so identical runs are byte-identical.  :func:`check_record`
decides whether a check passes, for ``verify`` and the CLI alike, from
each residual's :func:`~fermifields.linalg.max_abs`, 0.0 only if it is 0.
"""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np

from .linalg import max_abs

__all__ = ["check_record", "write_report", "write_csv"]

# float tolerances, each named once; an exact check has none
TOL_FACTOR = 1e-12   # one float matrix product, or a relabelling of slots
TOL_GREEN = 1e-10    # a Green's-kernel identity after one solve
TOL_NUM = 1e-10      # a float identity through brackets or series
TOL_SCALED = 1e-9    # the same, divided by the scale of its inputs
TOL_FD = 1e-6        # a central finite difference at step 1e-5


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def check_record(check: str, inputs: dict, residuals, tol: float | None = None,
                 order: int | None = None) -> dict:
    """The one pass rule: ``residuals`` (elements, series, kernels or
    scalars, as one-entry arrays) fold to their worst ``max_abs``, which
    must be 0.0 for an exact check (``tol=None``) and below ``tol`` for a
    float check.  No residuals read 0; a NaN residual fails."""
    worst = 0.0
    for r in residuals:
        v = r.max_abs() if hasattr(r, "max_abs") else max_abs(np.array([r]))
        if v > worst or v != v:
            worst = v
    return {
        "check": check,
        "inputs_digest": _digest({"check": check, **inputs}),
        "max_residual": float(worst),
        "order": order,
        "passed": worst == 0.0 if tol is None else worst < tol,
    }


def write_report(path, records: list, config: dict, suites: list) -> bool:
    ok = all(r["passed"] for r in records)
    payload = {
        "config": config,
        "suites": suites,
        "checks": records,
        "passed": ok,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return ok


def write_csv(path, header: list, rows: list) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
