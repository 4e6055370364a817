"""Seeded benchmark of the mbrl package.

    python3 benchmarks/run.py --workload study --seed 1 --seconds 40 --trace 0

Runs one workload of ``workloads.WORKLOADS`` in this process: a closed loop,
one caller, no pool and no threads beyond the default BLAS threads. Units of
the workload's fixed work repeat until the next one would end after
``--seconds`` (each workload has a minimum unit count).

--trace 0 reports the end-to-end metrics of BENCHMARK.json; set-up time is
the median of several fresh interpreters that each import mbrl and build
the workload's inputs. --trace 1 alternates untraced and traced units and
reports the per-layer metrics, computed from the traced units' spans
(written to .bench_out/) and the overhead of tracing.

Every unit's output is checked; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics. The lines before it
give every metric with its unit (including those not gated by
BENCHMARK.json), the output checks, and the environment.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60

LIMITS = (
    "Nothing is pinned to a core, no cache is dropped and the process runs in "
    "no cgroup of its own. Other processes on the machine share its cores, "
    "caches and memory bandwidth, and BLAS keeps its default thread count, "
    "so a competing process can take a core from a BLAS call. Timings "
    "therefore carry the machine's load (loadavg_start): each run reports "
    "medians over repeated identical units, and bounds are set against the "
    "spread of those medians across seeds.")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -------------------------------------------------------------------------
# Environment record
# -------------------------------------------------------------------------

def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return "unavailable"


def _blas_threads(numpy) -> int | None:
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(loadavg_start) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads(numpy),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "loadavg_start": loadavg_start,
        "limits": LIMITS,
    }


# -------------------------------------------------------------------------
# Measurement
# -------------------------------------------------------------------------

def measure_setup(args) -> list[float]:
    """Seconds from starting a fresh interpreter until the workload's inputs
    are ready, once per probe."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    samples = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code})")
        samples.append(ready - started)
    return samples


def run_units(workload, seconds: float, tracer):
    """Closed loop over units; with a tracer, odd units run traced.

    Returns (unit seconds, unit results, traced flags). A unit that raises
    counts all its operations as failed.
    """
    times, results, traced = [], [], []
    started = time.perf_counter()
    while True:
        is_traced = tracer is not None and len(times) % 2 == 1
        t0 = time.perf_counter()
        try:
            if is_traced:
                with tracer:
                    out = workload.run()
            else:
                out = workload.run()
            elapsed = time.perf_counter() - t0
            result = workload.verify(out)
        except Exception:  # noqa: BLE001 - a failed unit is counted, not fatal
            elapsed = time.perf_counter() - t0
            traceback.print_exc()
            result = None
        times.append(elapsed)
        results.append(result)
        traced.append(is_traced)
        done = len(times) >= workload.min_units and (tracer is None or len(times) % 2 == 0)
        if done and time.perf_counter() - started + statistics.median(times) > seconds:
            return times, results, traced


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def count_ops(results) -> tuple[int, int]:
    """(attempted, failed) over all units. A unit that raised counts every
    operation of a finished unit (or one) as attempted and failed."""
    done = [r for r in results if r is not None]
    raised = len(results) - len(done)
    per_unit = max((r.attempted for r in done), default=1)
    return (sum(r.attempted for r in done) + per_unit * raised,
            sum(r.failed for r in done) + per_unit * raised)


def per_layer_values(tracer, setup_tracer, times, results, traced) -> dict:
    plain = [t for t, tr in zip(times, traced) if not tr]
    with_trace = [t for t, tr in zip(times, traced) if tr]
    traced_ok = [r for r, tr in zip(results, traced) if tr and r is not None]
    values = spans.layer_metrics(tracer.spans, len(with_trace))
    at_setup = spans.layer_metrics(setup_tracer.spans, 1)
    for name in ("data.generate_simulation.s", "data.split.s"):
        values["setup." + name] = at_setup[name]
    cells = [c for r in traced_ok for c in r.cell_s]
    run_s = values["harness.run_experiment.s"]
    values["harness.cell_s_p50"] = statistics.median(cells) if cells else 0.0
    values["harness.parallel_ratio"] = (sum(cells) / len(traced_ok) / run_s
                                        if cells and run_s else 0.0)
    values["trace_overhead_frac"] = (statistics.median(with_trace)
                                     / statistics.median(plain) - 1.0)
    return values


def end_to_end_values(times, setup_s, results) -> dict:
    done = [r for r in results if r is not None]
    values = {
        "wall_s": statistics.median(times),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    fit_s = sum(r.fit_s for r in done)
    if fit_s:
        values["train_steps_per_s"] = sum(r.fit_steps for r in done) / fit_s
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    loadavg_start = list(os.getloadavg())
    src = ROOT / "src"
    if not (src / "mbrl" / "__init__.py").is_file():
        print(f"error: mbrl sources not found under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    import workloads

    make = workloads.WORKLOADS.get(args.workload)
    if make is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.setup_probe:
        make(args.seed, None)
        print("ready", flush=True)
        return 0

    setup_s = [] if args.trace else measure_setup(args)
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = OUT_DIR / f"work-{args.workload}-{os.getpid()}"
    setup_tracer = spans.Tracer()
    tracer = spans.Tracer() if args.trace else None
    try:
        if args.trace:
            with setup_tracer:
                wl = make(args.seed, work_dir)
        else:
            wl = make(args.seed, work_dir)
        times, results, traced = run_units(wl, args.seconds, tracer)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    attempted, failed = count_ops(results)
    done = [r for r in results if r is not None]

    spans_path = None
    if args.trace:
        values = per_layer_values(tracer, setup_tracer, times, results, traced)
        catalogue = spec["per_layer"]
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
    else:
        values = end_to_end_values(times, setup_s, results)
        catalogue = spec["end_to_end"]
    # Printed, not gated: a share that is 0 and two seed-dependent accuracies.
    extra = [] if args.trace else [
        ("ops_failed_frac", failed / attempted, "frac"),
        ("ate_err_out", _median([v for r in done for v in r.ate_err_out]), "outcome"),
        ("pehe_out", _median([v for r in done for v in r.pehe_out]), "outcome"),
    ]

    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(times)} units, unit seconds {[round(t, 4) for t in times]}")
    shown = [(m["name"], values.get(m["name"]), m["unit"]) for m in catalogue]
    for name, value, unit in shown + extra:
        print(f"# {name:<44} {'n/a' if value is None else repr(value):>24} {unit}")
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "units": len(times), "unit_s": times, "setup_probe_s": setup_s,
        "attempted": attempted, "failed": failed,
        "report_sha256": getattr(wl, "report_sha256", None),
        "spans_file": None if spans_path is None else str(spans_path.relative_to(ROOT)),
        "environment": environment(loadavg_start),
    }
    print("# info " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit in shown if value is not None},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
