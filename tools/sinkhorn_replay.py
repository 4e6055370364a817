"""Capture the Sinkhorn inputs of one study cell, and replay them through
the solver of the tree this file sits in.

    python3 tools/sinkhorn_replay.py capture out.npz [--seed 1] [--kl 62.85] [--replication 0]
    python3 tools/sinkhorn_replay.py time out.npz [--repeats 5]

``capture`` runs one (KL level, replication) cell of the benchmark's study
workload (``STUDY_TRAIN``, four estimators) and saves the ``(A, B)`` pair of
every ``model.wasserstein_sinkhorn`` call it makes, with the solver config
used, to one ``.npz`` file. ``time`` replays every pair and prints:

- ``us_per_call``: microseconds per call, the minimum of ``--repeats``
  timings per input, summed over inputs and divided by their number;
- ``us_per_call_1iter``: the same at ``max_iters=1``, the per-call work
  outside the iterations;
- ``iters_mean`` and ``converged_frac`` of the full solves.

Capture once, then run ``time`` on that file in each tree to compare them on
the same inputs; both run under OPENBLAS_NUM_THREADS=1. Alternate the trees
and repeat: the minimum per input drops short interruptions, not a machine
that is slower for the whole run. The end-to-end benchmark times whole
fits, and its run-to-run spread on a shared machine hides a 10% change of
the solver.
"""

from __future__ import annotations

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # before numpy is imported

import argparse
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

import numpy as np  # noqa: E402

from workloads import Study, harness, model  # noqa: E402
from mbrl.ot import SinkhornConfig, wasserstein_sinkhorn  # noqa: E402


def capture(out: Path, seed: int, kl: float, replication: int) -> int:
    cfg = Study(seed, None).cfg
    if kl not in cfg.kl_levels:
        raise SystemExit(f"--kl must be one of the study's levels {cfg.kl_levels}")
    calls: list[tuple[np.ndarray, np.ndarray]] = []
    solve = model.wasserstein_sinkhorn

    def recording(A, B, sinkhorn_cfg):
        calls.append((np.array(A), np.array(B)))
        return solve(A, B, sinkhorn_cfg)

    model.wasserstein_sinkhorn = recording
    try:
        harness._run_replication(cfg, None, kl, cfg.kl_levels.index(kl), replication)
    finally:
        model.wasserstein_sinkhorn = solve
    sk = asdict(cfg.train.sinkhorn)
    np.savez_compressed(
        out, A=np.concatenate([A for A, _ in calls]),
        B=np.concatenate([B for _, B in calls]),
        n1=np.array([len(A) for A, _ in calls]), n0=np.array([len(B) for _, B in calls]),
        **{f"cfg_{k}": np.array(v) for k, v in sk.items()})
    return len(calls)


def load(path: Path) -> tuple[list[tuple[np.ndarray, np.ndarray]], SinkhornConfig]:
    """The captured pairs and solver config. A capture made where the
    config also named its ground cost (``cfg_cost``) replays only if that
    cost is the Euclidean one this solver computes."""
    z = np.load(path)
    saved = {k[4:]: z[k].item() for k in z.files if k.startswith("cfg_")}
    cost = saved.pop("cost", "euclidean")
    if cost != "euclidean":
        raise SystemExit(f"{path} was captured with cost {cost!r}; this solver "
                         "computes the Euclidean cost only")
    cfg = SinkhornConfig(**{f.name: saved[f.name] for f in fields(SinkhornConfig)})
    a_at = np.cumsum(z["n1"])[:-1]
    b_at = np.cumsum(z["n0"])[:-1]
    return list(zip(np.split(z["A"], a_at), np.split(z["B"], b_at))), cfg


def time_calls(pairs, cfg: SinkhornConfig, repeats: int) -> tuple[float, list]:
    total, results = 0.0, []
    for A, B in pairs:
        best = np.inf
        for _ in range(repeats):
            started = time.perf_counter()
            res = wasserstein_sinkhorn(A, B, cfg)
            best = min(best, time.perf_counter() - started)
        total += best
        results.append(res)
    return 1e6 * total / len(pairs), results


def main(argv: list[str] | None = None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    cap = sub.add_parser("capture", help="save one study cell's Sinkhorn inputs")
    cap.add_argument("out", type=Path)
    cap.add_argument("--seed", type=int, default=1)
    cap.add_argument("--kl", type=float, default=62.85)
    cap.add_argument("--replication", type=int, default=0)
    tim = sub.add_parser("time", help="replay saved inputs through this tree's solver")
    tim.add_argument("file", type=Path)
    tim.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    if args.command == "capture":
        n = capture(args.out, args.seed, args.kl, args.replication)
        print(f"captured {n} calls to {args.out}")
        return
    pairs, cfg = load(args.file)
    us, results = time_calls(pairs, cfg, args.repeats)
    us_1, _ = time_calls(pairs, replace(cfg, max_iters=1), args.repeats)
    iters = np.mean([r.iterations for r in results])
    converged = np.mean([r.converged for r in results])
    print(f"calls={len(pairs)} us_per_call={us:.1f} us_per_call_1iter={us_1:.1f} "
          f"iters_mean={iters:.2f} converged_frac={converged:.4f}")


if __name__ == "__main__":
    main()
