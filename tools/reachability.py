#!/usr/bin/env python3
"""Which functions of ``fermifields`` the CI's runs never call.

    python3 tools/reachability.py

Run from the root of a source checkout; the package is imported from
its ``src/`` directory.  The script runs, in this process and under
``sys.setprofile``, every ``verify`` and CLI run of ``RUNS`` in
``tools/ci_runs.py``, the table the tier-1 workflow runs.

Every function defined in ``src/fermifields`` (methods and nested
functions included) must be called by one of those runs, be a dunder,
or be on ``ALLOWED`` with its reason.  Exit status 1 when a function is
neither, when an ``ALLOWED`` entry is called or no longer exists, or
when a run does not exit 0; otherwise 0.
"""

from __future__ import annotations

import ast
import contextlib
import io
import re
import sys
import tempfile
from pathlib import Path

from ci_runs import RUNS

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fermifields"

# "module.qualname" -> why it stays although no run calls it.  The unread
# S of dynamics.peierls_bracket is kept too: perfbench/layers.py passes it
# positionally.
ALLOWED = {
    "kernels.ElementKernel.compose": "test oracle of compose_scalar_left and "
                                     "_right; perfbench/spans.py traces it",
    "dynamics.SubstitutionMap.inverse": "test oracle of MollerMap.inverse; "
                                        "perfbench/spans.py traces it",
    "quantization.formal_smatrix": "the paper's formal S-matrix; a verify "
                                   "record for it would move both report hashes",
    "algebra.Algebra.one": "accessor the tests read",
    "algebra.Algebra.mode": "accessor the tests read",
    "algebra.GrassmannElement.terms": "accessor the tests read",
    "kernels.Kernel.shape": "accessor the tests read",
    "kernels.Kernel.max_abs": "accessor the tests read",
    "kernels.ElementKernel.get": "accessor the tests read",
    "kernels.ElementKernel.is_zero": "accessor the tests read",
    "kernels.ElementKernel.grades": "accessor the tests read",
    "series.FormalSeries.orders": "accessor the tests read",
    "series.FormalSeries.is_zero": "accessor the tests read",
    "scalars.QC.re": "accessor the tests read",
    "scalars.QC.im": "accessor the tests read",
}


def defined_functions() -> dict:
    """{(file, first line): "module.qualname"} of every def in the package.

    The first line is the one a code object reports: the first
    decorator's, if any.
    """
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem if path.stem != "__init__" else "fermifields"

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    name = prefix + child.name
                    first = min([child.lineno]
                                + [d.lineno for d in child.decorator_list])
                    out[(str(path), first)] = f"{module}.{name}"
                    walk(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    walk(child, prefix + child.name + ".")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text(), str(path)), "")
    return out


def called(runs) -> tuple[set, list]:
    """{(file, first line)} of every code object called while ``cli.main``
    runs each command of ``runs``, and the (run, command, exit status) of
    each failed command."""
    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.path.insert(0, str(PACKAGE.parent))
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            from fermifields.cli import main
            for run in runs:
                for argv in run.argvs(Path(tmp) / run.name):
                    with contextlib.redirect_stdout(io.StringIO()):
                        rc = main(argv)
                    if rc != 0:
                        failed.append((run.name, argv[0], rc))
        finally:
            sys.setprofile(None)
    return {(str(Path(c.co_filename).resolve()), c.co_firstlineno)
            for c in seen}, failed


def main() -> int:
    defined = defined_functions()
    seen, failed = called(RUNS)
    reached = {name for key, name in defined.items() if key in seen}
    names = set(defined.values())
    dunder = {n for n in names if re.fullmatch(r"__\w+__", n.rsplit(".", 1)[-1])}
    problems = [f"run exited {rc}: {cmd} of {name}"
                for name, cmd, rc in failed]
    problems += [f"not reached and not allowed: {n}"
                 for n in sorted(names - reached - dunder - set(ALLOWED))]
    problems += [f"allowed but reached: {n}"
                 for n in sorted(set(ALLOWED) & reached)]
    problems += [f"allowed but not defined: {n}"
                 for n in sorted(set(ALLOWED) - names)]
    print(f"{len(names)} functions: {len(reached)} reached, {len(dunder)} "
          f"dunders, {len(ALLOWED)} allowed")
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
