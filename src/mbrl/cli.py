"""Command line interface.

Subcommands: ``generate`` (simulator to CSV), ``train`` (fit plus
checkpoint), ``evaluate`` (checkpoint plus CSV to metrics), ``bench``
(replication experiment), ``check`` (numerical verification suite).

Exit codes: 0 success, 1 validation/usage error, 2 runtime failure
(``bench``: every replication failed; its report is still written). The
environment variable ``MBRL_OUTPUT_DIR`` overrides the output directory.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from dataclasses import replace
from pathlib import Path

from .checks import run_checks
from .data import (DEFAULT_SPLIT, SimConfig, SplitSpec, generate_simulation,
                   load_csv, save_csv, split)
from .harness import (MBRL_ESTIMATORS, ExperimentConfig, emit_report, mbrl_row,
                      run_experiment)
from .model import (TrainConfig, fit, history_to_csv, load_checkpoint,
                    nuisances_from_net, save_checkpoint)
from .records import nested_record

logger = logging.getLogger(__name__)

OUTPUT_DIR_ENV = "MBRL_OUTPUT_DIR"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage problems; the CLI contract wants 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def nonnegative_int(text: str) -> int:
    """Type of the ``--seed`` flags: numpy's generators take nonnegative
    seeds only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, not {value}")
    return value


def _build_parser() -> _Parser:
    parser = _Parser(prog="mbrl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_gen = sub.add_parser("generate", help="simulate a dataset and write CSV")
    p_gen.add_argument("--config", required=True, help="SimConfig JSON file")
    p_gen.add_argument("--seed", type=nonnegative_int, default=None)
    p_gen.add_argument("--out", required=True, help="output CSV path")

    p_train = sub.add_parser("train", help="fit the model on a CSV dataset")
    p_train.add_argument("--config", default=None, help="train-config JSON file")
    p_train.add_argument("--data", required=True, help="input CSV")
    p_train.add_argument("--seed", type=nonnegative_int, default=None)
    p_train.add_argument("--out", required=True, help="checkpoint path (JSON)")

    p_eval = sub.add_parser("evaluate", help="evaluate a checkpoint on a CSV dataset")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", default=None, help="metrics JSON path (default stdout)")

    p_bench = sub.add_parser("bench", help="run a replication experiment")
    p_bench.add_argument("--config", required=True, help="ExperimentConfig JSON file")
    p_bench.add_argument("--seed", type=nonnegative_int, default=None)
    p_bench.add_argument("--out", default=None, help="output directory")

    p_check = sub.add_parser("check", help="run the numerical verification suite")
    p_check.add_argument("--seed", type=nonnegative_int, default=0)
    return parser


def _load_json(path: str) -> dict:
    p = Path(path)
    if not p.exists():
        raise _UsageError(f"config file not found: {path}")
    try:
        doc = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise _UsageError(f"invalid JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise _UsageError(f"config file {path} must hold a JSON object, "
                          f"not a {type(doc).__name__}")
    return doc


def _cmd_generate(args) -> int:
    doc = _load_json(args.config)
    try:
        sim = nested_record(None, doc, SimConfig)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad simulator config: {exc}") from exc
    data, _ = generate_simulation(sim, seed=args.seed)
    save_csv(data, args.out)
    print(f"wrote {data.n_units} units x {data.n_covariates} covariates to {args.out}")
    return 0


def _cmd_train(args) -> int:
    doc = _load_json(args.config) if args.config else {}
    outcome_kind = doc.pop("outcome_kind", "continuous")
    split_doc = doc.pop("split", None)
    try:
        cfg = nested_record(None, doc, TrainConfig)
        split_spec = nested_record("split", split_doc, SplitSpec,
                                   nullable=True) or DEFAULT_SPLIT
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad train config: {exc}") from exc
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    data = load_csv(args.data, outcome_kind)
    train_set, val_set, _ = split(data, split_spec)
    ckpt = fit(train_set, val_set, cfg)
    out = Path(args.out)
    save_checkpoint(ckpt, out)
    history_to_csv(ckpt.history, out.with_name(out.stem + ".training_log.csv"))
    print(f"checkpoint at epoch {ckpt.best_epoch} "
          f"({ckpt.selection} {ckpt.best_eps_p:.6f}) -> {out}")
    return 0


def _cmd_evaluate(args) -> int:
    ckpt = load_checkpoint(args.checkpoint)
    data = load_csv(args.data, ckpt.net.outcome_kind)
    result: dict = {"n_units": data.n_units, "selection": ckpt.selection,
                    "best_epoch": ckpt.best_epoch}
    nuis = nuisances_from_net(ckpt.net, data)
    for name in MBRL_ESTIMATORS:
        result[name] = mbrl_row(name, nuis, data, ckpt.beta)
        result["tau_true"] = result[name].pop("tau_true")
    text = json.dumps(result, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    return 0


def _cmd_bench(args) -> int:
    doc = _load_json(args.config)
    try:
        cfg = nested_record(None, doc, ExperimentConfig)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"bad experiment config: {exc}") from exc
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    out_dir = args.out or os.environ.get(OUTPUT_DIR_ENV) or cfg.out_dir
    report = run_experiment(cfg)
    paths = emit_report(report, out_dir)
    print(f"{len(report.rows)} rows, {len(report.failures)} failed replications "
          f"-> {paths['report']}")
    if not report.rows:  # each replication that succeeds adds rows
        print(f"error: all {len(report.failures)} replications failed",
              file=sys.stderr)
        return 2
    return 0


def _cmd_check(args) -> int:
    results = run_checks(args.seed)
    width = max(len(r.name) for r in results)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  {r.detail}")
    if all(r.passed for r in results):
        print("all checks passed")
        return 0
    print("some checks FAILED")
    return 2


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "bench": _cmd_bench,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        logger.exception("runtime failure")
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
