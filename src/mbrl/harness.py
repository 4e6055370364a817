"""Experiment configuration, replication loops and report emission.

Replications draw independent seed streams, train the representation model,
evaluate the requested estimators on in-sample (train plus validation) and
out-of-sample (test) units, and aggregate per-estimator metrics as
mean +/- standard error. Failed replications are counted, never silently
dropped. Wall-clock timings are kept out of report.json so repeated runs of
the same configuration produce byte-identical reports.
"""

from __future__ import annotations

import csv
import json
import logging
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import estimators as est
from . import metrics
from .data import (DEFAULT_SPLIT, OUTCOME_KINDS, Dataset, SimConfig, SplitSpec,
                   concat, generate_simulation, generate_twins_assignment,
                   load_csv, simulate_at_kl, split, true_outcomes)
from .model import TrainConfig, fit, heldout_scores, nuisances_from_net
from .records import bounded, check_fields, nested_record

logger = logging.getLogger(__name__)

SOURCES = ("simulator", "csv", "twins")
MBRL_ESTIMATORS = ("plugin", *est.SCORE_KINDS)
ESTIMATOR_NAMES = MBRL_ESTIMATORS + est.BASELINE_KINDS


# =========================================================================
# Configuration
# =========================================================================

@dataclass
class ExperimentConfig:
    """One replication experiment; nested configs may be given as the dicts
    ``to_dict`` writes."""

    source: str = bounded("simulator", among=SOURCES)
    sim: SimConfig | None = None
    csv_path: str | None = None
    outcome_kind: str = bounded("continuous", among=OUTCOME_KINDS)
    split: SplitSpec = DEFAULT_SPLIT
    train: TrainConfig = field(default_factory=TrainConfig)
    estimators: tuple[str, ...] = MBRL_ESTIMATORS
    replications: int = bounded(1, at_least=1)
    kl_levels: tuple[float, ...] | None = bounded(None, at_least=0)
    knn_k: int = bounded(5, at_least=1)
    out_dir: str = "out"
    seed: int = bounded(0, at_least=0)

    def __post_init__(self):
        # JSON may hand either list field a number, a string or null (null
        # kl_levels means one draw at the sim config's own means).
        if not isinstance(self.estimators, (list, tuple)):
            raise ValueError(f"estimators must be a list of names, "
                             f"not {self.estimators!r}")
        if not isinstance(self.kl_levels, (list, tuple, type(None))):
            raise ValueError(f"kl_levels must be a list of numbers or null, "
                             f"not {self.kl_levels!r}")
        check_fields(self)
        for name, record in (("sim", SimConfig), ("split", SplitSpec),
                             ("train", TrainConfig)):
            setattr(self, name, nested_record(name, getattr(self, name), record,
                                              nullable=name == "sim"))
        if self.source == "simulator" and self.outcome_kind != "continuous":
            raise ValueError("the simulator source draws continuous outcomes only; "
                             f"outcome_kind {self.outcome_kind!r} does not apply")
        self.estimators = tuple(self.estimators)
        if not self.estimators:
            raise ValueError("estimator list must be nonempty")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if unknown:
            raise ValueError(f"unknown estimator(s) {unknown}")
        repeated = sorted({e for e in self.estimators if self.estimators.count(e) > 1})
        if repeated:
            raise ValueError(f"estimators lists {repeated} more than once")
        if self.source == "simulator" and self.sim is None:
            self.sim = SimConfig()
        if self.source != "simulator" and self.sim is not None:
            raise ValueError(f"sim applies only to the simulator source; source "
                             f"{self.source!r} reads no simulator, so leave sim "
                             f"out or null")
        if self.source in ("csv", "twins") and not self.csv_path:
            raise ValueError(f"source {self.source!r} requires csv_path")
        if self.kl_levels is not None:
            self.kl_levels = tuple(float(v) for v in self.kl_levels)
            if self.source != "simulator":
                raise ValueError("kl_levels only apply to the simulator source")
            if not self.kl_levels:
                raise ValueError("kl_levels must be nonempty (or null for one "
                                 "draw at the sim config's own means)")

    def to_dict(self) -> dict:
        """``asdict`` in JSON-native values (ndarrays and tuples as lists,
        numpy scalars as Python numbers)."""
        return json.loads(json.dumps(asdict(self), default=lambda v: v.tolist()))


# =========================================================================
# Report
# =========================================================================

_METRIC_FIELDS = ("eps_ate", "pehe_root", "auc", "rmse", "eps_p")


@dataclass
class Report:
    rows: list[dict]
    aggregates: list[dict]
    failures: list[dict]
    metadata: dict
    timings: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        # Timings are wall-clock and intentionally excluded so that repeated
        # runs of the same configuration serialize identically.
        return {"metadata": self.metadata, "rows": self.rows,
                "aggregates": self.aggregates, "failures": self.failures}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"


def aggregate_rows(rows: list[dict]) -> list[dict]:
    """Mean and standard error (sd/sqrt(reps)) per estimator, sample and
    metric, grouped by KL level. Recomputable from the report rows."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        key = (row.get("kl_level"), row["estimator"], row["sample"])
        groups.setdefault(key, []).append(row)
    out = []
    for (level, estimator, sample), members in sorted(
            groups.items(), key=lambda kv: (repr(kv[0][0]), kv[0][1], kv[0][2])):
        for metric in _METRIC_FIELDS:
            values = [r[metric] for r in members if r.get(metric) is not None]
            if not values:
                continue
            arr = np.asarray(values, dtype=float)
            se = 0.0 if arr.size == 1 else float(np.std(arr, ddof=1) / np.sqrt(arr.size))
            out.append({"kl_level": level, "estimator": estimator,
                        "sample": sample, "metric": metric,
                        "mean": float(arr.mean()), "se": se, "n": int(arr.size)})
    return out


# =========================================================================
# Data preparation
# =========================================================================

def _seeds_for(base_seed: int, level_index: int, replication: int,
               count: int) -> list[int]:
    ss = np.random.SeedSequence([base_seed, level_index, replication])
    return [int(s) for s in ss.generate_state(count, dtype=np.uint32)]


def _load_source(cfg: ExperimentConfig) -> Dataset | None:
    """The file a ``csv`` or ``twins`` source reads, parsed once per run and
    shared by its replications; None for the simulator."""
    if cfg.source == "simulator":
        return None
    base = load_csv(cfg.csv_path, cfg.outcome_kind)
    if cfg.source == "twins" and (base.y0 is None or base.y1 is None):
        raise ValueError("twins source requires y0/y1 columns")
    return base


def _make_data(cfg: ExperimentConfig, base: Dataset | None, level: float | None,
               gen_seed: int) -> tuple[Dataset, float | None]:
    """One replication's sample; ``base`` is ``_load_source(cfg)``."""
    if cfg.source == "simulator":
        if level is None:
            return generate_simulation(cfg.sim, seed=gen_seed)[0], None
        data, _, realized = simulate_at_kl(cfg.sim, level, gen_seed)
        return data, realized
    if cfg.source == "csv":
        return base, None
    # twins: reassign treatment over the file's covariates and rebuild the
    # factual outcome from the stored potential outcomes.
    d, _ = generate_twins_assignment(base.covariates, gen_seed)
    return replace(base, treatment=d,
                   outcome_factual=np.where(d == 1, base.y1, base.y0)), None


# =========================================================================
# Estimator evaluation
# =========================================================================

def _metric_row(data: Dataset, tau_hat: float, y0_hat, y1_hat, rmse: float,
                eps_p: float | None) -> dict:
    row: dict = {"tau_hat": tau_hat, "rmse": rmse, "eps_p": eps_p, "tau_true": None,
                 "eps_ate": None, "pehe_root": None, "auc": None}
    gt = true_outcomes(data)
    if gt is None:
        return row
    g1, g0 = gt
    row["tau_true"] = tau = float(np.mean(g1 - g0))
    row["eps_ate"] = metrics.ate_error(tau, tau_hat)
    if data.outcome_kind == "binary" and data.y0 is not None:
        labels = np.concatenate([data.y0, data.y1]).astype(int)
        row["auc"] = metrics.auc(labels, np.concatenate([y0_hat, y1_hat]))
    else:
        row["pehe_root"] = metrics.pehe_root(g1, g0, y1_hat, y0_hat)
    return row


def mbrl_row(name: str, nuis: est.NuisanceEstimates, data: Dataset,
             beta: float) -> dict:
    """Metrics of one network-based estimator on one unit set. ``nuis`` is
    ``nuisances_from_net(net, data)``, computed once per unit set by the
    caller; ``rmse`` and ``eps_p`` are ``heldout_scores``, as in ``fit``."""
    theta = (est.plug_in_ate(nuis) if name == "plugin"
             else est.ate_orthogonal(name, data, nuis))
    return _metric_row(data, theta.ate, nuis.g0_hat, nuis.g1_hat,
                       *heldout_scores(nuis, data, beta))


def baseline_row(fitted: Callable[[Dataset], est.BaselineResult],
                 data: Dataset) -> dict:
    """Metrics of one fitted baseline (``est.fit_baseline``) scored on
    ``data``; a baseline has no propensity, so its ``eps_p`` is None."""
    res = fitted(data)
    return _metric_row(data, res.theta.ate, res.y0_hat, res.y1_hat,
                       metrics.rmse(data.outcome_factual, res.yhat_factual), None)


# =========================================================================
# Experiment driver
# =========================================================================

def _run_replication(cfg: ExperimentConfig, base: Dataset | None,
                     level: float | None, level_index: int, rep: int) -> list[dict]:
    gen_seed, split_seed, train_seed = _seeds_for(cfg.seed, level_index, rep, 3)
    data, realized = _make_data(cfg, base, level, gen_seed)
    tr, va, te = split(data, replace(cfg.split, seed=split_seed))
    uses_net = any(name in MBRL_ESTIMATORS for name in cfg.estimators)
    ckpt = fit(tr, va, replace(cfg.train, seed=train_seed)) if uses_net else None
    insample = concat([tr, va])
    rows = []
    # Each baseline is fitted once, on the in-sample units, and scored on
    # both samples.
    baselines = {name: est.fit_baseline(name, insample, cfg.knn_k)
                 for name in cfg.estimators if name not in MBRL_ESTIMATORS}
    for sample, dataset in (("in", insample), ("out", te)):
        nuis = nuisances_from_net(ckpt.net, dataset) if uses_net else None
        for name in cfg.estimators:
            if name in MBRL_ESTIMATORS:
                row = mbrl_row(name, nuis, dataset, ckpt.beta)
                row["best_epoch"] = ckpt.best_epoch
            else:
                row = baseline_row(baselines[name], dataset)
                row["best_epoch"] = None
            row.update({"estimator": name, "kl_level": level, "kl_realized": realized,
                        "replication": rep, "sample": sample,
                        "n_units": dataset.n_units})
            rows.append(row)
    return rows


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Replication loop over (KL level, replication) cells.

    Errors abort only the affected replication; they are logged and surfaced
    through the report's failure list and count. A source file that fails to
    load fails every replication with its error.
    """
    rows: list[dict] = []
    failures: list[dict] = []
    timings: list[dict] = []
    levels: list[float | None] = (list(cfg.kl_levels)
                                  if cfg.kl_levels is not None else [None])
    base, load_error = None, None
    try:
        base = _load_source(cfg)
    except Exception as exc:  # noqa: BLE001 - recorded per replication below
        logger.exception("loading %s failed", cfg.csv_path)
        load_error = f"{type(exc).__name__}: {exc}"
    for level_index, level in enumerate(levels):
        for rep in range(cfg.replications):
            started = time.perf_counter()
            error = load_error
            if error is None:
                try:
                    rows.extend(_run_replication(cfg, base, level, level_index, rep))
                except Exception as exc:  # noqa: BLE001 - replication isolation
                    logger.exception("replication %d at KL level %s failed",
                                     rep, level)
                    error = f"{type(exc).__name__}: {exc}"
            if error is not None:
                failures.append({"kl_level": level, "replication": rep,
                                 "error": error})
            timings.append({"kl_level": level, "replication": rep,
                            "seconds": time.perf_counter() - started})
    metadata = {
        "config": cfg.to_dict(),
        "in_sample": "train+validation",
        "out_of_sample": "test",
        "n_failures": len(failures),
    }
    return Report(rows=rows, aggregates=aggregate_rows(rows),
                  failures=failures, metadata=metadata, timings=timings)


# =========================================================================
# Emission
# =========================================================================

def emit_report(report: Report, out_dir: str | Path) -> dict[str, Path]:
    """Write report.json, summary.csv, boxplot_data.csv and timings.json."""
    out_dir = Path(out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out_dir}: {exc}") from exc

    paths = {
        "report": out_dir / "report.json",
        "summary": out_dir / "summary.csv",
        "boxplot": out_dir / "boxplot_data.csv",
        "timings": out_dir / "timings.json",
    }
    try:
        paths["report"].write_text(report.to_json())
        with open(paths["summary"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kl_level", "estimator", "sample", "metric",
                             "mean", "se", "n"])
            for agg in report.aggregates:
                writer.writerow([agg["kl_level"], agg["estimator"], agg["sample"],
                                 agg["metric"], repr(agg["mean"]), repr(agg["se"]),
                                 agg["n"]])
        with open(paths["boxplot"], "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["kl_level", "estimator", "replication", "sample",
                             "eps_ate"])
            for row in report.rows:
                if row.get("eps_ate") is None:
                    continue
                writer.writerow([row["kl_level"], row["estimator"],
                                 row["replication"], row["sample"],
                                 repr(row["eps_ate"])])
        paths["timings"].write_text(json.dumps(report.timings, indent=2) + "\n")
    except OSError as exc:
        raise OSError(f"failed writing report files under {out_dir}: {exc}") from exc
    return paths
