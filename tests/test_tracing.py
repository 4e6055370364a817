"""The benchmark tracer wraps mbrl functions by name; a rename must not
leave a traced name dangling."""

import importlib
import importlib.util
import inspect
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


def test_traced_counters_read_the_leading_positional_parameters():
    # The tracer's FLOP counters take params, spec and the batch of
    # nn.forward, and params, spec, cache and output_grad of nn.backward, by
    # position.
    from mbrl import nn
    leading = {nn.forward: ["params", "spec", "X"],
               nn.backward: ["params", "spec", "cache", "output_grad"]}
    for fn, names in leading.items():
        params = list(inspect.signature(fn).parameters.values())[:len(names)]
        assert [p.name for p in params] == names
        assert all(p.kind is p.POSITIONAL_OR_KEYWORD for p in params)
