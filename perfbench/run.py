#!/usr/bin/env python3
"""fermifields benchmark: three closed-loop workloads, checked and timed.

    python3 perfbench/run.py --workload battery|green-ladder|float-cli|all \
        --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  One client runs passes back to back in one
thread until ``--seconds`` have elapsed (at least one pass, never cut).

``--trace 0`` prints the end-to-end metrics: the median pass time, the
median set-up time of fresh processes and the peak RSS.  Times are
scaled to a nominal machine speed measured while they run (see
``speed.py``); the raw wall times go to the record.  ``--trace 1``
alternates untraced passes with traced passes, which wrap every
layer's public functions (see ``spans.py``), for twice as long, then
takes the layer micro-measurements and prints the per-layer metrics.  ``--smoke``
runs each workload at its smallest size.  ``--workload all`` runs the
three workloads one after the other, each in its own process.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A record stamped with machine, versions,
backend, mode, lattice, seed and commit goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5  # before the passes, and as many again after them
PROBE_TIMEOUT_S = 60
SPEED_SAMPLES = 40  # speed samples before and after each set-up probe

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

RUNG_METRICS = [f"lattice.dirac_green.{nt}x{nx}.{kind}_s"
                for nt, nx in ((4, 3), (6, 3), (8, 4), (10, 4))
                for kind in ("retarded", "advanced")]
COUNT_METRICS = [
    "linalg.mat_inv.calls", "linalg.kron2.calls", "lattice.dirac_green.calls",
    "quantization.star_product.calls", "core.wedge_terms.calls",
    "core.wedge_terms.pairs", "core.wedge_terms.terms_out",
    "core.contract.calls", "algebra.wedge.calls", "algebra.add.calls",
    "kernels.compose.calls", "kernels.compose.entries_out",
    "series.wedge.calls", "dynamics.pair_contract.calls",
    "dynamics.apply.calls", "dynamics.image_terms",
    "gross_neveu.correction_terms", "verify.checks",
]
MICRO_METRICS = ["scalars.qc_mul_us", "scalars.qc_add_us", "scalars.qc_div_us",
                 "scalars.complex_mul_us", "scalars.ring_coerce_us"]
SELF_TIME_METRICS = [
    "linalg.mat_inv_s", "linalg.kron2_s", "lattice.dirac_green_s",
    "lattice.kg_green_s", "lattice.causal_propagator_s",
    "lattice.dirac_matrix_s", "quantization.star_product_s",
    "quantization.star_with_kernel_s", "quantization.star_commutator_s",
    "quantization.contraction_operator_s", "quantization.time_ordering_s",
    "core.wedge_terms_s", "core.contract_s", "algebra.wedge_s",
    "algebra.add_s", "algebra.scale_s", "algebra.derivatives_s",
    "kernels.compose_s", "kernels.compose_scalar_left_s",
    "kernels.compose_scalar_right_s", "series.wedge_s",
    "dynamics.pair_contract_s", "dynamics.moller_substitution_s",
    "dynamics.apply_s", "dynamics.inverse_s",
    "gross_neveu.interacting_propagator_s", "gross_neveu.propagator_defect_s",
    *[f"verify.suite.{s}_s"
      for s in ("grassmann", "green", "bracket", "moller", "gn", "quant")],
    "cli.propagators_s", "cli.gn-series_s", "cli.car-table_s",
    "reports.write_csv_s", "kernels.to_csv_s", "kernels.to_json_s",
]
OTHER_METRICS = ["trace.overhead_s", "core.raw_wedge_s",
                 "dynamics.bracket_batch_s"]


def _unit(name: str) -> str:
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    return "count"


PER_LAYER = {name: _unit(name) for name in
             MICRO_METRICS + SELF_TIME_METRICS + RUNG_METRICS + COUNT_METRICS
             + OTHER_METRICS}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run the workload at its smallest size")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")
    return args


def _make(args, workdir: Path):
    import numpy  # noqa: F401  (set-up cost users pay)
    import fermifields  # noqa: F401
    return WORKLOADS[args.workload](args.seed, args.smoke, workdir)


def _setup_seconds(args) -> list:
    """(Scaled, wall) times of fresh processes that import and generate
    the inputs.  Each is scaled by the speed sampled right before and
    after it on the one CPU it shares with this process: the two CPUs
    of a small VM drift apart, so a probe on the other one tells little."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-probe"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})  # inherited by the child
    try:
        for _ in range(SETUP_PROBES):
            speed = SpeedProbe()
            speed.burst(SPEED_SAMPLES)
            t0 = perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=PROBE_TIMEOUT_S)
            wall = perf_counter() - t0
            speed.burst(SPEED_SAMPLES)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
            samples.append((wall * speed.factor(), wall))
    finally:
        os.sched_setaffinity(0, cpus)
    return samples


def _closed_loop(wl, seconds: float, tracer=None):
    """Passes back to back until ``seconds`` elapse; never cut a pass.

    With a tracer, passes alternate untraced and traced, ending on a
    traced one, so both kinds see the same machine speeds; the tracer is
    installed only for its passes.  Returns the untraced and the traced
    passes' (scaled, wall) times, the attempted operations, the failures
    and the traced passes' snapshots."""
    plain, traced, problems, snaps = [], [], [], []
    attempted = 0
    start = perf_counter()
    while (not plain or perf_counter() - start < seconds
           or (tracer is not None and len(traced) < len(plain))):
        gc.collect()  # the previous pass's garbage is not this pass's cost
        trace = tracer is not None and len(traced) < len(plain)
        if trace:
            tracer.install()
            tracer.reset()
            tracer.active = True
        with SpeedProbe() as speed:
            t0 = perf_counter()
            out = wl.run()
            wall = perf_counter() - t0
        (traced if trace else plain).append((wall * speed.factor(), wall))
        if trace:
            tracer.uninstall()
            snaps.append(tracer.snapshot())
        results = wl.check(out)
        attempted += len(results)
        problems += [(op, why) for op, why in results if why is not None]
        # free this pass's outputs so peak RSS does not grow with pass count
        del out, results
    return plain, traced, attempted, problems, snaps


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def _stamp(args, wl) -> dict:
    import numpy
    import fermifields
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "seconds": args.seconds,
        "machine": {"platform": platform.platform(),
                    "processor": platform.machine(),
                    "cpus": os.cpu_count()},
        "python": platform.python_version(), "numpy": numpy.__version__,
        "backend": fermifields.BACKEND, "arithmetic": wl.arithmetic,
        "lattice": wl.lattice, "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
    }


def _median_dict(snaps: list) -> dict:
    keys = set().union(*snaps)
    return {k: statistics.median(s.get(k, 0) for s in snaps) for k in keys}


def _report(name, value, unit, note=""):
    print(f"{name:<38} {value:>14.6g} {unit:<5} {note}")


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "fermifields" / "__init__.py").is_file():
        print(f"error: no fermifields sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.setup_probe:
            _make(args, Path(tmp))
            return 0
        return _measure(args, Path(tmp))


def _run_all(args) -> int:
    """Each workload in a process of its own, so peak RSS stays its own."""
    rc = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
               name, "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        rc = max(rc, subprocess.run(cmd, cwd=ROOT).returncode)
    return rc


def _measure(args, workdir: Path) -> int:
    setup = [] if args.trace else _setup_seconds(args)
    wl = _make(args, workdir)
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    # a traced run alternates untraced and traced passes, for twice as long
    times, traced, attempted, problems, snaps = _closed_loop(
        wl, args.seconds * (1 + args.trace), tracer)
    run_s = statistics.median(t for t, _ in times)
    record = {"stamp": _stamp(args, wl), "pass_s": times,
              "details": wl.details()}
    print(" ".join(f"{k}={v}" for k, v in record["stamp"].items()
                   if k not in ("machine", "source_sha256")))
    if args.trace:
        metrics, record["layers"] = _traced(args, tracer, snaps, traced, run_s)
    else:
        setup += _setup_seconds(args)  # spans the run, not only its start
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {"run_s": run_s,
                   "setup_s": statistics.median(t for t, _ in setup),
                   "peak_rss_mb": peak}
        record["setup_s"] = setup
        _report("run_s", run_s, "s", f"median of {len(times)} passes, max "
                f"{max(t for t, _ in times):.4g}; wall median "
                f"{statistics.median(w for _, w in times):.4g}")
        _report("setup_s", metrics["setup_s"], "s",
                f"median of {len(setup)} fresh processes, half of them "
                "before the passes and half after; wall median "
                f"{statistics.median(w for _, w in setup):.4g}")
        _report("peak_rss_mb", peak, "MB")
    failed = len(problems)
    _report("fail_ratio", failed / attempted, "ratio",
            f"{failed} of {attempted} operations failed")
    for op, why in problems[:20]:
        print(f"FAILED {op}: {why}")
    record["problems"] = problems
    record["metrics"] = metrics
    out = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": (END_TO_END | PER_LAYER)[k]}
                    for k, v in metrics.items()}}))
    return 0


def _traced(args, tracer, snaps, traced, untraced_run_s):
    """Per-layer metrics of the traced passes plus layer measurements."""
    from layers import core_measurements, scalar_micro
    layer = _median_dict(snaps)
    layer["trace.overhead_s"] = (statistics.median(t for t, _ in traced)
                                 - untraced_run_s)
    layer.update(scalar_micro(args.seed, 2000 if args.smoke else 10000))
    layer.update(core_measurements(args.seed, 40 if args.smoke else 400,
                                   6 if args.smoke else 60))
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
    n_spans = tracer.write_spans(spans_path)
    metrics = {k: float(layer.get(k, 0)) for k in PER_LAYER}
    for k, v in metrics.items():
        _report(k, v, PER_LAYER[k])
    extra = {"traced_pass_s": traced, "all": layer, "spans": n_spans,
             "spans_file": str(spans_path.relative_to(ROOT))}
    return metrics, extra


if __name__ == "__main__":
    sys.exit(main())
