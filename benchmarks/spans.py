"""Spans around the calls into each mbrl layer, recorded from outside the
program.

``Tracer.install`` replaces every public function listed in ``TRACED`` by a
wrapper that records a span (name, start, end, parent). The wrapper is set
in the defining module and in every mbrl module that imported the function
by value (``model.wasserstein_sinkhorn``, ``harness.fit``,
``cli.run_checks``, ...), so calls are caught whichever name they go
through. Spans stay in memory; ``layer_metrics`` turns them into the
per-layer metrics and ``Tracer.dump`` writes them out.

Counts labelled "computed" are derived from argument shapes and results,
not timed: dense-layer FLOPs (2*b*in*out per forward, twice that per
backward) and Sinkhorn work (iterations * n1 * n0). They repeat exactly for
a given seed.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

PACKAGE = "mbrl"

# Layer (module of mbrl) -> public functions whose calls are timed.
TRACED = {
    "data": ("generate_simulation", "split"),
    "nn": ("forward", "backward", "adam_update"),
    "ot": ("wasserstein_sinkhorn", "exact_ot_small"),
    "model": ("fit", "predict", "multitask_step", "validation_scores",
              "task_objective", "task_gradient_error"),
    "estimators": ("plug_in_ate", "ate_orthogonal", "baseline",
                   "orthogonality_probe", "noise_orthogonality_stat"),
    "metrics": ("rmse", "pehe_root", "ate_error"),
    "harness": ("run_experiment", "emit_report"),
    "checks": ("run_checks", "check_dense_gradients", "check_task_gradients",
               "check_ot_oracle", "check_sinkhorn_invariances",
               "check_orthogonality", "check_noise_orthogonality"),
    "cli": ("main",),
}


def _dense_flops(params, batch_rows: int) -> int:
    return sum(2 * batch_rows * w.shape[0] * w.shape[1] for w in params.weights)


def _count_forward(args, result) -> dict:
    params, _, X = args[:3]
    return {"flops": _dense_flops(params, np.shape(X)[0])}


def _count_backward(args, result) -> dict:
    params, _, _, output_grad = args[:4]
    return {"flops": 2 * _dense_flops(params, np.shape(output_grad)[0])}


def _count_sinkhorn(args, result) -> dict:
    A, B = args[:2]
    return {"iters": result.iterations, "converged": bool(result.converged),
            "cells": result.iterations * len(A) * len(B)}


# Per-call counts taken from positional arguments and the result; every
# call site in mbrl passes these arguments positionally.
COUNTERS = {
    "nn.forward": _count_forward,
    "nn.backward": _count_backward,
    "ot.wasserstein_sinkhorn": _count_sinkhorn,
}


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers into the loaded mbrl modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if count is not None:
                span.counts = count(args, result)
            return result
        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for layer, names in TRACED.items():
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        self._patches.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start, end, parent index."""
        index = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                rec = {"name": s.name, "start": s.start, "end": s.end,
                       "parent": None if s.parent is None else index[id(s.parent)]}
                if s.counts:
                    rec["counts"] = s.counts
                fh.write(json.dumps(rec) + "\n")


def _has_ancestor(span: Span, name: str) -> bool:
    p = span.parent
    while p is not None:
        if p.name == name:
            return True
        p = p.parent
    return False


def layer_metrics(spans: list[Span], units: int) -> dict[str, float]:
    """Per-layer metrics of ``units`` identical work units, per unit.

    Self time is a span's duration minus the time its direct children
    cover (calls are nested, so children never overlap).
    """
    child_s: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_s[id(s.parent)] = child_s.get(id(s.parent), 0.0) + s.seconds
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def calls(name):
        return len(by_name.get(name, ())) / units

    def seconds(name):
        return sum(s.seconds for s in by_name.get(name, ())) / units

    def total(name, key):
        # A call that raised has no counts.
        return sum(s.counts[key] for s in by_name.get(name, ()) if s.counts)

    def self_s(prefix):
        return sum(s.seconds - child_s.get(id(s), 0.0)
                   for s in spans if s.name.startswith(prefix)) / units

    out: dict[str, float] = {}
    sk = "ot.wasserstein_sinkhorn"
    sk_calls = len(by_name.get(sk, ()))
    sk_iters = total(sk, "iters")
    out[f"{sk}.calls"] = calls(sk)
    out[f"{sk}.s"] = seconds(sk)
    out[f"{sk}.iters_mean"] = sk_iters / sk_calls if sk_calls else 0.0
    out[f"{sk}.converged_frac"] = total(sk, "converged") / sk_calls if sk_calls else 0.0
    out[f"{sk}.us_per_iter"] = 1e6 * seconds(sk) * units / sk_iters if sk_iters else 0.0
    out[f"{sk}.iter_cells_computed"] = total(sk, "cells") / units
    out["ot.exact_ot_small.s"] = seconds("ot.exact_ot_small")

    for fn in ("forward", "backward", "adam_update"):
        out[f"nn.{fn}.calls"] = calls(f"nn.{fn}")
        out[f"nn.{fn}.s"] = seconds(f"nn.{fn}")
    fit_steps = sum(1 for s in by_name.get("model.multitask_step", ())
                    if _has_ancestor(s, "model.fit"))
    fit_forwards = sum(1 for s in by_name.get("nn.forward", ())
                       if _has_ancestor(s, "model.fit"))
    out["nn.forward.calls_per_step"] = fit_forwards / fit_steps if fit_steps else 0.0
    out["nn.gflop_computed"] = (total("nn.forward", "flops")
                                + total("nn.backward", "flops")) / 1e9 / units

    step = sorted(s.seconds for s in by_name.get("model.multitask_step", ()))
    out["model.multitask_step.calls"] = calls("model.multitask_step")
    out["model.multitask_step.p50_ms"] = 1e3 * float(np.percentile(step, 50)) if step else 0.0
    out["model.multitask_step.p99_ms"] = 1e3 * float(np.percentile(step, 99)) if step else 0.0
    out["model.multitask_step.self_s"] = self_s("model.multitask_step")
    out["model.validation_scores.calls"] = calls("model.validation_scores")
    out["model.validation_scores.s"] = seconds("model.validation_scores")
    out["model.task_gradient_error.s"] = seconds("model.task_gradient_error")
    out["model.task_objective.calls"] = calls("model.task_objective")

    out["harness.run_experiment.s"] = seconds("harness.run_experiment")
    out["harness.emit_report.s"] = seconds("harness.emit_report")

    for name in ("estimators.ate_orthogonal", "estimators.baseline",
                 "estimators.orthogonality_probe", "data.generate_simulation",
                 "data.split"):
        out[f"{name}.s"] = seconds(name)
    for fname in TRACED["checks"][1:]:
        out[f"checks.{fname}.s"] = seconds(f"checks.{fname}")
    out["cli.main.s"] = seconds("cli.main")
    for layer in TRACED:
        out[f"{layer}.self_s"] = self_s(layer + ".")
    return out
