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

import numpy as np

from . import estimators as est
from . import metrics
from .data import (DEFAULT_SPLIT, Dataset, SimConfig, SplitSpec, TrueModel,
                   concat, generate_simulation, generate_twins_assignment,
                   kl_selection_bias, load_csv, split, true_outcomes)
from .model import Checkpoint, TrainConfig, fit, perturbation_error, predict
from .records import require_int_fields

logger = logging.getLogger(__name__)

SOURCES = ("simulator", "csv", "twins")
ESTIMATOR_NAMES = ("plugin", "psi1", "psi2", "ols_lr1", "ols_lr2", "knn")
MBRL_ESTIMATORS = ("plugin", "psi1", "psi2")

KL_MATCH_TOL = 1e-9


# =========================================================================
# Configuration
# =========================================================================

@dataclass
class ExperimentConfig:
    """One replication experiment; nested configs may be given as the dicts
    ``to_dict`` writes."""

    source: str = "simulator"
    sim: SimConfig | None = None
    csv_path: str | None = None
    outcome_kind: str = "continuous"
    split: SplitSpec = DEFAULT_SPLIT
    train: TrainConfig = field(default_factory=TrainConfig)
    estimators: tuple[str, ...] = ("plugin", "psi1", "psi2")
    replications: int = 1
    kl_levels: tuple[float, ...] | None = None
    knn_k: int = 5
    out_dir: str = "out"
    seed: int = 0

    def __post_init__(self):
        require_int_fields(self)
        for name, record in (("sim", SimConfig), ("split", SplitSpec),
                             ("train", TrainConfig)):
            value = getattr(self, name)
            if isinstance(value, dict):
                setattr(self, name, record(**value))
            elif not (isinstance(value, record) or (name == "sim" and value is None)):
                raise ValueError(f"{name} must be a {record.__name__} or its "
                                 f"JSON object, not {value!r}")
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        self.estimators = tuple(self.estimators)
        if not self.estimators:
            raise ValueError("estimator list must be nonempty")
        unknown = [e for e in self.estimators if e not in ESTIMATOR_NAMES]
        if unknown:
            raise ValueError(f"unknown estimator(s) {unknown}")
        if self.source == "simulator" and self.sim is None:
            self.sim = SimConfig()
        if self.source in ("csv", "twins") and not self.csv_path:
            raise ValueError(f"source {self.source!r} requires csv_path")
        if self.kl_levels is not None:
            self.kl_levels = tuple(float(v) for v in self.kl_levels)
            if self.source != "simulator":
                raise ValueError("kl_levels only apply to the simulator source")
            if any(v < 0 for v in self.kl_levels):
                raise ValueError("KL levels must be nonnegative")

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

def kl_target_mu1(mu1: np.ndarray, mu0: np.ndarray, cov: np.ndarray,
                  target: float) -> np.ndarray:
    """Scale mu1 along (mu1 - mu0) so the Gaussian KL hits ``target`` exactly.

    A zero base direction falls back to the ones vector.
    """
    direction = np.asarray(mu1, dtype=float) - np.asarray(mu0, dtype=float)
    if not np.any(direction):
        direction = np.ones_like(direction)
    quad = 2.0 * kl_selection_bias(mu0 + direction, mu0, cov)
    scale = np.sqrt(2.0 * target / quad)
    return np.asarray(mu0, dtype=float) + scale * direction


def _seeds_for(base_seed: int, level_index: int, replication: int,
               count: int) -> list[int]:
    ss = np.random.SeedSequence([base_seed, level_index, replication])
    return [int(s) for s in ss.generate_state(count, dtype=np.uint32)]


def simulate_at_kl(sim: SimConfig, level: float,
                   seed: int) -> tuple[Dataset, TrueModel, float]:
    """Simulator draw whose between-group KL is pinned to ``level``.

    The mixing matrix is drawn from ``seed`` first; mu1 is then rescaled
    along mu1 - mu0 to hit the level and the sample drawn with the same
    seed. Returns (data, truth, realized KL).
    """
    rng = np.random.default_rng(seed)
    mixing = rng.uniform(-1.0, 1.0, size=(sim.dim, sim.dim))
    cov = sim.sigma_scale * (mixing @ mixing.T)
    mu1 = kl_target_mu1(sim.mu1, sim.mu0, cov, level)
    realized = kl_selection_bias(mu1, sim.mu0, cov)
    if abs(realized - level) > KL_MATCH_TOL:
        raise RuntimeError(
            f"KL inversion off target: requested {level}, got {realized}")
    data, truth = generate_simulation(replace(sim, mu1=mu1), seed=seed,
                                      mixing=mixing)
    return data, truth, realized


def _make_data(cfg: ExperimentConfig, level: float | None,
               gen_seed: int) -> tuple[Dataset, float | None]:
    if cfg.source == "simulator":
        if level is None:
            return generate_simulation(cfg.sim, seed=gen_seed)[0], None
        data, _, realized = simulate_at_kl(cfg.sim, level, gen_seed)
        return data, realized
    if cfg.source == "csv":
        return load_csv(cfg.csv_path, cfg.outcome_kind), None
    # twins: reassign treatment over the file's covariates and rebuild the
    # factual outcome from the stored potential outcomes.
    base = load_csv(cfg.csv_path, cfg.outcome_kind)
    if base.y0 is None or base.y1 is None:
        raise ValueError("twins source requires y0/y1 columns")
    d, _ = generate_twins_assignment(base.covariates, gen_seed)
    y = np.where(d == 1, base.y1, base.y0)
    return Dataset(base.covariates, d, y, base.outcome_kind,
                   y0=base.y0, y1=base.y1, mu0=base.mu0, mu1=base.mu1), None


# =========================================================================
# Estimator evaluation
# =========================================================================

def nuisances_from_net(net, data: Dataset) -> est.NuisanceEstimates:
    yhat0, yhat1, p = predict(net, data.covariates)
    return est.NuisanceEstimates(g0_hat=yhat0, g1_hat=yhat1, m_hat=p)


def _metric_row(data: Dataset, tau_hat: float, y0_hat, y1_hat, yhat_factual,
                propensity, beta: float) -> dict:
    row: dict = {"tau_hat": tau_hat}
    gt = true_outcomes(data)
    if gt is not None:
        g1, g0 = gt
        tau = float(np.mean(g1 - g0))
        row["tau_true"] = tau
        row["eps_ate"] = metrics.ate_error(tau, tau_hat)
        if data.outcome_kind == "binary" and data.y0 is not None:
            labels = np.concatenate([data.y0, data.y1]).astype(int)
            scores = np.concatenate([y0_hat, y1_hat])
            row["auc"] = metrics.auc(labels, scores)
            row["pehe_root"] = None
        else:
            row["pehe_root"] = metrics.pehe_root(g1, g0, y1_hat, y0_hat)
            row["auc"] = None
    else:
        row.update({"tau_true": None, "eps_ate": None,
                    "pehe_root": None, "auc": None})
    row["rmse"] = metrics.rmse(data.outcome_factual, yhat_factual)
    if propensity is not None:
        row["eps_p"] = perturbation_error(data.outcome_factual, yhat_factual,
                                          data.treatment, propensity, beta)
    else:
        row["eps_p"] = None
    return row


def evaluate_estimator(name: str, *, ckpt: Checkpoint, fit_data: Dataset,
                       eval_data: Dataset, beta: float, knn_k: int) -> dict:
    """One estimator's metrics on one unit set."""
    if name in MBRL_ESTIMATORS:
        nuis = nuisances_from_net(ckpt.net, eval_data)
        if name == "plugin":
            tau_hat = est.plug_in_ate(nuis).ate
        else:
            tau_hat = est.ate_orthogonal(name, eval_data, nuis).ate
        yhat_factual = np.where(eval_data.treatment == 1, nuis.g1_hat, nuis.g0_hat)
        row = _metric_row(eval_data, tau_hat, nuis.g0_hat, nuis.g1_hat,
                          yhat_factual, nuis.m_hat, beta)
        row["best_epoch"] = ckpt.best_epoch
    else:
        res = est.baseline(name, fit_data, eval_data, k=knn_k)
        row = _metric_row(eval_data, res.theta.ate, res.y0_hat, res.y1_hat,
                          res.yhat_factual, None, beta)
        row["best_epoch"] = None
    row["estimator"] = name
    return row


# =========================================================================
# Experiment driver
# =========================================================================

def _run_replication(cfg: ExperimentConfig, level: float | None,
                     level_index: int, rep: int) -> list[dict]:
    gen_seed, split_seed, train_seed = _seeds_for(cfg.seed, level_index, rep, 3)
    data, realized = _make_data(cfg, level, gen_seed)
    tr, va, te = split(data, replace(cfg.split, seed=split_seed))
    ckpt = fit(tr, va, replace(cfg.train, seed=train_seed))
    beta = ckpt.beta
    insample = concat([tr, va])
    rows = []
    for sample, dataset in (("in", insample), ("out", te)):
        for name in cfg.estimators:
            row = evaluate_estimator(name, ckpt=ckpt, fit_data=insample,
                                     eval_data=dataset, beta=beta, knn_k=cfg.knn_k)
            row.update({"kl_level": level, "kl_realized": realized,
                        "replication": rep, "sample": sample,
                        "n_units": dataset.n_units})
            rows.append(row)
    return rows


def run_experiment(cfg: ExperimentConfig) -> Report:
    """Replication loop over (KL level, replication) cells.

    Errors abort only the affected replication; they are logged and surfaced
    through the report's failure list and count.
    """
    rows: list[dict] = []
    failures: list[dict] = []
    timings: list[dict] = []
    levels: list[float | None] = (list(cfg.kl_levels)
                                  if cfg.kl_levels is not None else [None])
    for level_index, level in enumerate(levels):
        for rep in range(cfg.replications):
            started = time.perf_counter()
            try:
                rows.extend(_run_replication(cfg, level, level_index, rep))
            except Exception as exc:  # noqa: BLE001 - replication isolation
                logger.exception("replication %d at KL level %s failed", rep, level)
                failures.append({"kl_level": level, "replication": rep,
                                 "error": f"{type(exc).__name__}: {exc}"})
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
