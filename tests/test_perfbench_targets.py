"""Every function the benchmark's span tracer wraps still exists.

``perfbench/spans.py`` names its targets as (span, module, attribute or
``Class.method``, hook).  A renamed or deleted target would otherwise
fail only the benchmark's smoke run; this reads the list and resolves
each entry the way the tracer does, without installing it.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_traced_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for name, modname, attr, _ in spans.TARGETS:
        mod = importlib.import_module(f"fermifields.{modname}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            ok = cls is not None and meth in vars(cls)
        else:
            ok = callable(getattr(mod, attr, None))
        if not ok:
            missing.append(f"{name}: fermifields.{modname}.{attr}")
    assert spans.TARGETS and not missing
