"""Span tracing of fermifields layers, installed from outside the package.

The tracer replaces public functions and methods of ``fermifields``
modules with timing wrappers.  A module-level function is replaced
everywhere the same object is bound, so names re-bound by importing
modules (``algebra.wedge_terms``, ``lattice.mat_inv``, the
``verify.SUITES`` table) are wrapped too.  Nothing inside ``src/`` is
changed; :meth:`Tracer.uninstall` restores every binding.

Each call records a span ``(name, start, end, parent)`` in compact
in-memory arrays; :meth:`Tracer.write_spans` writes them out once the
run is over.  Self time (a span minus its child spans) and call counts
are accumulated as spans close, per pass.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter


def _pairs(args, kwargs, out, dur):
    return (("core.wedge_terms.pairs", len(args[0]) * len(args[1])),
            ("core.wedge_terms.terms_out", len(out)))


def _entries_out(args, kwargs, out, dur):
    return (("kernels.compose.entries_out", len(out.entries)),)


def _image_terms(args, kwargs, out, dur):
    return (("dynamics.image_terms",
             sum(len(e) for e in out.coeffs.values())),)


def _correction_terms(args, kwargs, out, dur):
    return (("gross_neveu.correction_terms",
             sum(len(e) for k in out.corrections for e in k.entries.values())),)


def _checks(args, kwargs, out, dur):
    return (("verify.checks", len(out)),)


def _rung(args, kwargs, out, dur):
    lat = args[0].lattice
    kind = args[2] if len(args) > 2 else kwargs["kind"]
    return ((f"lattice.dirac_green.{lat.nt}x{lat.nx}.{kind}_s", dur),)


# (span name, module under fermifields, attribute or Class.method, count hook)
TARGETS = [
    ("linalg.mat_inv", "linalg", "mat_inv", None),
    ("linalg.kron2", "linalg", "kron2", None),
    ("lattice.dirac_green", "lattice", "dirac_green", _rung),
    ("lattice.dirac_matrix", "lattice", "dirac_matrix", None),
    ("lattice.kg_green", "lattice", "kg_green", None),
    ("lattice.causal_propagator", "lattice", "causal_propagator", None),
    ("core.wedge_terms", "_core", "wedge_terms", _pairs),
    ("core.contract", "_core", "contract", None),
    ("algebra.wedge", "algebra", "GrassmannElement.wedge", None),
    ("algebra.add", "algebra", "GrassmannElement.__add__", None),
    ("algebra.add", "algebra", "GrassmannElement.__sub__", None),
    ("algebra.scale", "algebra", "GrassmannElement.scale", None),
    ("algebra.derivatives", "algebra", "GrassmannElement.derivatives", None),
    ("series.wedge", "series", "FormalSeries.wedge", None),
    ("kernels.compose", "kernels", "ElementKernel.compose", _entries_out),
    ("kernels.compose_scalar_left", "kernels",
     "ElementKernel.compose_scalar_left", None),
    ("kernels.compose_scalar_right", "kernels",
     "ElementKernel.compose_scalar_right", None),
    ("kernels.to_csv", "kernels", "Kernel.to_csv", None),
    ("kernels.to_json", "kernels", "Kernel.to_json", None),
    ("dynamics.pair_contract", "dynamics", "pair_contract", None),
    ("dynamics.moller_substitution", "dynamics", "moller_substitution", None),
    ("dynamics.apply", "dynamics", "SubstitutionMap.apply", _image_terms),
    ("dynamics.inverse", "dynamics", "SubstitutionMap.inverse", None),
    ("gross_neveu.interacting_propagator", "gross_neveu",
     "interacting_propagator", _correction_terms),
    ("gross_neveu.propagator_defect", "gross_neveu", "propagator_defect", None),
    ("quantization.star_product", "quantization", "star_product", None),
    ("quantization.star_with_kernel", "quantization", "star_with_kernel", None),
    ("quantization.star_commutator", "quantization", "star_commutator", None),
    ("quantization.contraction_operator", "quantization",
     "contraction_operator", None),
    ("quantization.time_ordering", "quantization", "time_ordering", None),
    ("verify.suite.grassmann", "verify", "suite_grassmann", _checks),
    ("verify.suite.green", "verify", "suite_green", _checks),
    ("verify.suite.bracket", "verify", "suite_bracket", _checks),
    ("verify.suite.moller", "verify", "suite_moller", _checks),
    ("verify.suite.gn", "verify", "suite_gn", _checks),
    ("verify.suite.quant", "verify", "suite_quant", _checks),
    ("cli.propagators", "cli", "cmd_propagators", None),
    ("cli.gn-series", "cli", "cmd_gn_series", None),
    ("cli.car-table", "cli", "cmd_car_table", None),
    ("reports.write_csv", "reports", "write_csv", None),
]


class Tracer:
    """Span recorder; wrappers record only while ``active`` is true."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []  # [span index, child seconds]
        self._undo: list[tuple] = []
        self.active = False
        self.reset()

    def reset(self) -> None:
        """Zero the per-pass accumulators (recorded spans are kept)."""
        n = len(self.names)
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.calls = [0] * n
        self.counts: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
            self.calls.append(0)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        nid = self._id(name)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            stack = tr._stack
            idx = len(tr.span_start)
            tr.span_name.append(nid)
            tr.span_parent.append(stack[-1][0] if stack else -1)
            tr.span_end.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            tr.span_start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                tr.span_end[idx] = t1
                tr.self_s[nid] += dur - frame[1]
                tr.total_s[nid] += dur
                tr.calls[nid] += 1
                if stack:
                    stack[-1][1] += dur
            if hook is not None:
                counts = tr.counts
                for key, inc in hook(args, kwargs, out, dur):
                    counts[key] = counts.get(key, 0) + inc
            return out

        return traced

    # -- installation -------------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        for _, modname, _, _ in targets:
            importlib.import_module(f"fermifields.{modname}")
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "fermifields"
                                         or k.startswith("fermifields."))]
        for name, modname, attr, hook in targets:
            mod = sys.modules[f"fermifields.{modname}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(name, orig, hook))
                self._undo.append((setattr, cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            traced = self.wrap(name, orig, hook)
            for m in modules:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, key, traced)
                        self._undo.append((setattr, m, key, orig))
                    elif isinstance(val, dict):
                        for dk, dv in list(val.items()):
                            if dv is orig:
                                val[dk] = traced
                                self._undo.append((dict.__setitem__, val, dk, orig))

    def uninstall(self) -> None:
        self.active = False
        while self._undo:
            setter, obj, key, orig = self._undo.pop()
            setter(obj, key, orig)

    # -- results ------------------------------------------------------------
    def snapshot(self) -> dict:
        """Per-name self seconds, inclusive seconds and calls, plus counts."""
        out = {}
        for nid, name in enumerate(self.names):
            out[f"{name}_s"] = self.self_s[nid]
            out[f"{name}.total_s"] = self.total_s[nid]
            out[f"{name}.calls"] = self.calls[nid]
        out.update(self.counts)
        return out

    def write_spans(self, path) -> int:
        """Write spans as JSON lines ``[name, start, end, parent]``."""
        names = self.names
        with open(path, "w") as fh:
            for i in range(len(self.span_start)):
                fh.write(json.dumps([names[self.span_name[i]], self.span_start[i],
                                     self.span_end[i], self.span_parent[i]]))
                fh.write("\n")
        return len(self.span_start)
