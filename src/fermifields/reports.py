"""Machine-readable check reports: stable-order JSON records and CSV.

Reports depend only on the configuration and seed, never on wall-clock
state, so identical runs are byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json

__all__ = ["check_record", "write_report", "write_csv"]


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def check_record(check: str, inputs: dict, max_residual: float, passed: bool,
                 order: int | None = None) -> dict:
    return {
        "check": check,
        "inputs_digest": _digest({"check": check, **inputs}),
        "max_residual": float(max_residual),
        "order": order,
        "passed": bool(passed),
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
