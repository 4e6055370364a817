"""The benchmark tracer wraps mbrl functions by name; a rename must not
leave a traced name dangling."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{layer}.{name}"
               for layer, names in spans.TRACED.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"{spans.PACKAGE}.{layer}"), name, None))]
    assert not missing, f"traced names missing from mbrl: {missing}"
